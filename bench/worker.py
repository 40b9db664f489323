"""One measured unit of benchmark work, run in a fresh interpreter.

``run.py`` starts this script once per unit so that every grid pass begins
with a cold F/L cache, as ``fibluc catalog`` does.  A unit is one grid pass,
one chunk of the seeded query stream, or the layer micro-benchmarks; it
prints one JSON object on the last line of standard output.  Usage::

    python3 bench/worker.py grid --n-max 10 --k-max 6 [--ids EQ12,EQ13] [--trace | --gauge]
    python3 bench/worker.py queries --seed 1 [--start 0] --count 1500 [--trace | --gauge]
    python3 bench/worker.py micro

``--gauge`` times the drift reference of ``drift.py`` between pieces of
work, for the end-to-end runs.  The interpreter must find ``fibluc`` on its
path (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import resource
import statistics
import sys
import traceback
from itertools import islice
from time import perf_counter

import fibluc
from fibluc import idlang

import drift
from tracer import Tracer, coeff_bits, term_count

#: Index bounds of one query point.
QUERY_N_MAX = 8
QUERY_K_MAX = 4
#: Share of queries made false as ``lhs = (rhs) + 1``.
PERTURBED_SHARE = 0.1


# -- grid passes -------------------------------------------------------------


def select_cases(ids: list[str] | None) -> list:
    cases = fibluc.build_catalog()
    if ids is None:
        return cases
    by_id = {case.case_id: case for case in cases}
    return [by_id[case_id] for case_id in ids]


def grid_keys(cases, n_max: int, k_max: int) -> list[list]:
    """Every (id, n, k) cell the catalog grid holds, from the case minima."""
    keys = []
    for case in cases:
        for n in range(case.n_min, n_max + 1):
            if case.is_binary:
                keys.extend([case.case_id, n, k] for k in range(case.k_min, k_max + 1))
            else:
                keys.append([case.case_id, n, None])
    return keys


def grid_rows(cases, n_max: int) -> list[tuple]:
    """(case copy, n) for each n row of the grid, the copy's ``n_min`` set to n.

    ``run_catalog`` needs ``n_max >= 1``, so the cells below n = 1 go with
    the n = 1 row.
    """
    rows = []
    for case in cases:
        first = max(case.n_min, 1)
        for n in range(first, n_max + 1):
            rows.append((dataclasses.replace(case, n_min=case.n_min if n == first else n), n))
    return rows


def grid_pass(ids, n_max: int, k_max: int, trace: bool, gauge: bool = False) -> dict:
    """``run_catalog`` over the grid plus the text render the CLI prints.

    The grid is checked one n row at a time, ``run_catalog(n, k_max,
    cases=[row])``, in catalog order and in this one process, so the F/L
    cache fills as in a single call; the row reports are combined for the
    render.  With ``gauge``, the drift reference is timed between rows.
    """
    cases = select_cases(ids)
    out = {"expected": grid_keys(cases, n_max, k_max), "cells": []}
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
        cases = tracer.timed_cases(cases)
    call = tracer.call if tracer else lambda _span, fn, *args, **kwargs: fn(*args, **kwargs)

    def check(row):
        case, n = row
        t0 = perf_counter()
        report = call("identities.run_catalog", fibluc.run_catalog, n, k_max, cases=[case])
        return report, perf_counter() - t0

    rows = grid_rows(cases, n_max)
    try:
        start = perf_counter()
        checked, scales = drift.gauged(rows, check) if gauge else (list(map(check, rows)), None)
        report = fibluc.CheckReport.combine([r for r, _ in checked])
        call("report.render", report.to_text)
        end = perf_counter()
    except Exception:  # a crash fails every cell of the pass; the gate counts them
        out["error"] = traceback.format_exc()
        return out
    finally:
        if tracer:
            tracer.uninstall()
    scales = scales or [1.0] * len(checked)
    out["wall_s"] = end - start
    out["busy_s"] = sum(seconds for _, seconds in checked)
    out["scaled_busy_s"] = sum(seconds * f for (_, seconds), f in zip(checked, scales))
    out["cells"] = [
        [c.case_id, c.n, c.k, c.passed, c.elapsed_ms, f]
        for (row_report, _), f in zip(checked, scales)
        for c in row_report.cells
    ]
    if tracer:
        out["metrics"] = tracer.metrics(end - start)
    return out


# -- queries -------------------------------------------------------------------


def query_sources(entries) -> list[tuple[str, str, str]]:
    """(case id, source, perturbed source) for each corpus line."""
    sources = []
    for entry in entries:
        false_twin = f"{idlang.render(entry.ast.lhs)} = ({idlang.render(entry.ast.rhs)}) + 1"
        sources.append((entry.case_id, entry.source, false_twin))
    return sources


def query_stream(entries, seed: int):
    """Endless seeded stream of (line, perturbed, n, k) query points."""
    minima = {case.case_id: case for case in fibluc.build_catalog()}
    rng = random.Random(seed)
    while True:
        line = rng.randrange(len(entries))
        case = minima.get(entries[line].case_id)
        n_min = case.n_min if case else 0
        k_min = case.k_min if case and case.is_binary else 1
        perturbed = rng.random() < PERTURBED_SHARE
        yield line, perturbed, rng.randint(n_min, QUERY_N_MAX), rng.randint(k_min, QUERY_K_MAX)


def run_queries(seed: int, start: int, count: int, trace: bool, gauge: bool = False) -> dict:
    """Closed loop, one client: parse and check one corpus line per query.

    Runs queries ``start`` to ``start + count - 1`` of the seed's stream.
    With ``gauge``, the drift reference is timed between groups of queries.
    """
    entries = idlang.load_corpus()
    sources = query_sources(entries)
    points = list(islice(query_stream(entries, seed), start, start + count))

    def query(point):
        line, perturbed, n, k = point
        case_id, source, false_twin = sources[line]
        t0 = perf_counter()
        try:
            report = idlang.check(
                idlang.parse(false_twin if perturbed else source),
                {"n": (n, n), "k": (k, k)},
                case_id,
            )
            verdict = report.cells[0].passed if len(report.cells) == 1 else None
        except Exception:  # a query that raises counts as failed
            verdict = None
        latency_ms = (perf_counter() - t0) * 1000.0
        return [case_id, n, k, perturbed, verdict, latency_ms]

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        begin = perf_counter()
        results, scales = drift.gauged(points, query) if gauge else (list(map(query, points)), None)
        wall = perf_counter() - begin
    finally:
        if tracer:
            tracer.uninstall()
    for row, f in zip(results, scales or [1.0] * len(results)):
        row.append(f)
    out = {
        "wall_s": wall,
        "busy_s": sum(row[5] for row in results) / 1000.0,
        "scaled_busy_s": sum(row[5] * row[6] for row in results) / 1000.0,
        "queries": results,
    }
    if tracer:
        out["metrics"] = tracer.metrics(wall)
    return out


def peak_rss_kib() -> int:
    """This process's peak resident set, in KiB.

    ``VmHWM`` counts only the memory of the program this process runs;
    ``ru_maxrss``, the fallback, also counts the pages of the parent that
    the process held until it started Python.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- layer micro-benchmarks ------------------------------------------------------


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append((perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def micro() -> dict:
    """Each layer alone at fixed operand sizes, with the result's size beside it."""
    from fibluc import DELTA, QuadExtElem, SeqKind, Y, canonical_text, fib, luc, seq

    metrics = {}

    def record(name, unit, value, result):
        metrics[name] = (value, unit)
        metrics[f"{name.rsplit('_', 1)[0]}.terms"] = (term_count(result), "count")
        metrics[f"{name.rsplit('_', 1)[0]}.coeff_bits"] = (coeff_bits(result), "bits")

    # first, while the F/L tables are still cold in this process
    t0 = perf_counter()
    filled = idlang.evaluate(idlang.parse_expression("F[400]"), {})
    record("seqcache.fill_400_ms", "ms", (perf_counter() - t0) * 1000.0, filled)

    f120, f121 = fib(120), fib(121)
    product = f120 * f121
    record("poly.mul_F120xF121_ms", "ms", _median_ms(lambda: f120 * f121, 15), product)

    small_a, small_b = fib(6), luc(5)
    batch = 2000
    per_op_us = _median_ms(lambda: [small_a * small_b for _ in range(batch)], 7) * 1000 / batch
    record("poly.mul_small_us", "us", per_op_us, small_a * small_b)

    qa, qb = QuadExtElem(luc(40), fib(40)), QuadExtElem(luc(41), fib(41))
    record("quadext.mul_ms", "ms", _median_ms(lambda: qa * qb, 9), qa * qb)

    record("sequences.seq_F256_ms", "ms", _median_ms(lambda: fib(256), 3), fib(256))
    l6, y6 = luc(6), -(Y**6)
    composed = seq(SeqKind.FIB, 20, l6, y6)
    record(
        "sequences.seq_composed_ms",
        "ms",
        _median_ms(lambda: seq(SeqKind.FIB, 20, l6, y6), 9),
        composed,
    )
    d_f3, y3 = DELTA * fib(3), -(Y**3)
    root_arg = seq(SeqKind.LUC, 30, d_f3, y3)
    record(
        "sequences.seq_quadext_ms",
        "ms",
        _median_ms(lambda: seq(SeqKind.LUC, 30, d_f3, y3), 9),
        root_arg,
    )
    metrics["poly.canonical_text_ms"] = (_median_ms(lambda: canonical_text(product), 9), "ms")
    metrics["idlang.load_corpus_ms"] = (_median_ms(idlang.load_corpus, 9), "ms")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="unit", required=True)
    grid = sub.add_parser("grid")
    grid.add_argument("--n-max", type=int, required=True)
    grid.add_argument("--k-max", type=int, required=True)
    grid.add_argument("--ids")
    grid.add_argument("--trace", action="store_true")
    grid.add_argument("--gauge", action="store_true")
    queries = sub.add_parser("queries")
    queries.add_argument("--seed", type=int, required=True)
    queries.add_argument("--start", type=int, default=0)
    queries.add_argument("--count", type=int, required=True)
    queries.add_argument("--trace", action="store_true")
    queries.add_argument("--gauge", action="store_true")
    sub.add_parser("micro")
    args = parser.parse_args(argv)

    if args.unit == "grid":
        ids = args.ids.split(",") if args.ids else None
        out = grid_pass(ids, args.n_max, args.k_max, args.trace, args.gauge)
    elif args.unit == "queries":
        out = run_queries(args.seed, args.start, args.count, args.trace, args.gauge)
    else:
        try:
            out = {"metrics": micro()}
        except Exception:  # the program raised; run.py counts it as a failure
            out = {"error": traceback.format_exc()}
    out["peak_rss_kib"] = peak_rss_kib()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
