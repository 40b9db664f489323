"""Command-line interface: evaluate family members, run the identity
catalog, verify user-stated identities, and emit numeric specializations.

Exit codes: 0 when every requested check passes, 1 when at least one
identity cell fails, 2 for usage, parse, or domain errors and for running out
of memory, 141 when stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import islice

from . import idlang
from .identities import catalog_by_id, check_grid_bounds, run_catalog
from .report import CheckReport, select_ids
from .sequences import SeqKind, seq, seq_terms

#: Default grid upper bounds of ``catalog`` and ``verify``.
_N_MAX, _K_MAX = 10, 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fibluc",
        description="Exact bivariate Fibonacci/Lucas polynomial toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate F[n] or L[n], optionally composed or at a point")
    p_eval.add_argument("kind", choices=["F", "L"])
    p_eval.add_argument("n", type=int)
    p_eval.add_argument("--xsub", metavar="EXPR", help="expression substituted for x")
    p_eval.add_argument("--ysub", metavar="EXPR", help="expression substituted for y")
    p_eval.add_argument("--at", metavar="X0,Y0", help="evaluate numerically at a rational point")

    p_cat = sub.add_parser("catalog", help="verify the built-in identity catalog over an index grid")
    p_cat.add_argument("--n-max", type=int, default=_N_MAX)
    p_cat.add_argument("--k-max", type=int, default=_K_MAX)
    p_cat.add_argument("--ids", metavar="EQnn,...", help="comma-separated case ids to run")
    p_cat.add_argument("--json", action="store_true", help="structured output, one record per cell")

    p_ver = sub.add_parser("verify", help="check a user-stated identity over index ranges")
    p_ver.add_argument("identity", nargs="?", help="identity source, e.g. 'y*F[n-1]+F[n+1]=L[n]'")
    p_ver.add_argument(
        "--range",
        dest="ranges",
        action="append",
        default=[],
        metavar="n=a..b[,k=c..d]",
        help=f"inclusive index ranges (defaults: n=0..{_N_MAX}, k=1..{_K_MAX})",
    )
    p_ver.add_argument(
        "--corpus",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="verify the shipped identity corpus (or the corpus file at PATH)",
    )
    p_ver.add_argument("--ids", metavar="EQnn,...", help="restrict corpus verification to these ids")
    p_ver.add_argument("--n-max", type=int, help=f"corpus grid upper bound for n (default {_N_MAX})")
    p_ver.add_argument("--k-max", type=int, help=f"corpus grid upper bound for k (default {_K_MAX})")
    p_ver.add_argument("--json", action="store_true", help="structured output, one record per cell")

    p_seq = sub.add_parser("sequence", help="emit the numeric sequence at a rational point")
    p_seq.add_argument("kind", choices=["F", "L"])
    p_seq.add_argument("--x", required=True, metavar="X0")
    p_seq.add_argument("--y", required=True, metavar="Y0")
    p_seq.add_argument("--count", type=int, required=True)

    return parser


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r} ({exc})") from None


def _parse_ranges(args: list[str]) -> dict[str, tuple[int, int]]:
    ranges: dict[str, tuple[int, int]] = {}
    for chunk in args:
        for part in chunk.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part or ".." not in part:
                raise ValueError(f"bad range {part!r}, expected name=low..high")
            name, _, span = part.partition("=")
            low_text, _, high_text = span.partition("..")
            name = name.strip()
            if name not in idlang.META_VARS:
                known = ", ".join(sorted(idlang.META_VARS))
                raise ValueError(f"unknown range name {name!r}, expected one of: {known}")
            if name in ranges:
                raise ValueError(f"range for {name!r} given twice")
            try:
                low, high = int(low_text), int(high_text)
            except ValueError:
                raise ValueError(f"bad range bounds in {part!r}") from None
            ranges[name] = (low, high)
    return ranges


def _parse_ids(text: str | None) -> list[str] | None:
    if text is None:
        return None
    ids = [item.strip() for item in text.split(",") if item.strip()]
    if not ids:
        raise ValueError(f"--ids {text!r} names no id")
    return ids


def _cmd_eval(args) -> int:
    if args.at is not None:
        if args.xsub is not None or args.ysub is not None:
            raise ValueError("--at cannot be combined with --xsub/--ysub")
        x_text, sep, y_text = args.at.partition(",")
        if not sep:
            raise ValueError("--at expects two rationals, e.g. --at 1,1")
        print(seq(SeqKind(args.kind), args.n, _parse_rational(x_text), _parse_rational(y_text)))
        return 0
    x_arg = idlang.VarX() if args.xsub is None else idlang.parse_expression(args.xsub)
    y_arg = idlang.VarY() if args.ysub is None else idlang.parse_expression(args.ysub)
    node = idlang.SeqApp(args.kind, idlang.IntLit(args.n), (x_arg, y_arg))
    free = ", ".join(sorted(idlang.free_meta_vars(node)))
    if free:
        raise ValueError(f"{idlang.render(node)} has free meta-variable(s): {free}")
    print(idlang.evaluate(node, {}))
    return 0


def _emit_report(report: CheckReport, as_json: bool) -> int:
    if as_json:
        print(json.dumps(report.to_records(), indent=2))
    else:
        print(report.to_text())
        failures = report.failures()
        total = len(report.cells)
        if failures:
            first = failures[0]
            where = [f"{name}={i}" for name, i in (("n", first.n), ("k", first.k)) if i is not None]
            at = f" at {', '.join(where)}" if where else ""
            print(f"{len(failures)} of {total} cells FAILED")
            print(f"first counterexample: {first.case_id}{at}: {first.lhs!r} vs {first.rhs!r}")
        else:
            print(f"all {total} cells pass")
    return 0 if report.all_passed else 1


def _cmd_catalog(args) -> int:
    report = run_catalog(args.n_max, args.k_max, ids=_parse_ids(args.ids))
    return _emit_report(report, args.json)


def _corpus_report(args) -> CheckReport:
    n_max = _N_MAX if args.n_max is None else args.n_max
    k_max = _K_MAX if args.k_max is None else args.k_max
    check_grid_bounds(n_max, k_max)
    entries = idlang.load_corpus(args.corpus or None)
    if not entries:
        raise ValueError(f"corpus file {args.corpus!r} holds no identity lines")
    entries = select_ids(entries, _parse_ids(args.ids), "corpus")
    cases = catalog_by_id()
    reports = []
    for entry in entries:
        case = cases.get(entry.case_id)
        n_min = case.n_min if case else 0
        k_min = case.k_min if case and case.is_binary else 1
        ranges = {"n": (n_min, n_max), "k": (k_min, k_max)}
        reports.append(idlang.check(entry.ast, ranges, case_id=entry.case_id))
    return CheckReport.combine(reports)


def _cmd_verify(args) -> int:
    if args.corpus is not None:
        if args.identity is not None:
            raise ValueError("give either an identity or --corpus, not both")
        if args.ranges:
            raise ValueError("--range applies to an identity, not to --corpus")
        return _emit_report(_corpus_report(args), args.json)
    if args.identity is None:
        raise ValueError("an identity (or --corpus) is required")
    corpus_flags = [
        flag
        for flag, value in (("--ids", args.ids), ("--n-max", args.n_max), ("--k-max", args.k_max))
        if value is not None
    ]
    if corpus_flags:
        raise ValueError(f"{', '.join(corpus_flags)}: only valid with --corpus")
    ast = idlang.parse(args.identity)
    given = _parse_ranges(args.ranges)
    unused = sorted(set(given) - idlang.free_meta_vars(ast))
    if unused:
        raise ValueError(f"range given for unused meta-variable(s): {', '.join(unused)}")
    ranges = {"n": (0, _N_MAX), "k": (1, _K_MAX)}
    ranges.update(given)
    report = idlang.check(ast, ranges)
    return _emit_report(report, args.json)


def _cmd_sequence(args) -> int:
    if args.count < 1:
        raise ValueError("--count must be at least 1")
    kind = SeqKind(args.kind)
    x0 = _parse_rational(args.x)
    y0 = _parse_rational(args.y)
    for value in islice(seq_terms(kind, x0, y0), args.count):
        print(value)
    return 0


def main(argv: list[str] | None = None) -> int:
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7 there is no limit
        return _run_command(argv)
    # exact results may run past the interpreter's int-to-str digit limit;
    # lift it for the command alone, so library callers keep their own
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run_command(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run_command(argv: list[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "eval": _cmd_eval,
        "catalog": _cmd_catalog,
        "verify": _cmd_verify,
        "sequence": _cmd_sequence,
    }
    try:
        status = handlers[args.command](args)
        sys.stdout.flush()
        return status
    except idlang.ParseError as exc:
        print(f"parse error at {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader went away; send what is still buffered to devnull, so the
        # interpreter's final flush cannot fail, and exit as SIGPIPE would (128 + 13)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the result is too large for this process", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
