"""Layered benchmark for fibluc: end-to-end metrics, or per-layer ones from a traced run.

Run from the repository root::

    python3 bench/run.py --workload catalog --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 30   # every workload, both modes

Workloads (see bench/README.md for why each exists):

* ``catalog``  -- ``run_catalog`` over all 31 cases on the (10, 6) grid,
  each pass in a fresh interpreter so the F/L cache starts cold.
* ``composed`` -- the composed-argument cases on a deep, narrow (24, 3) grid.
* ``queries``  -- a closed loop with one client: a seeded stream of
  ``idlang.parse`` + ``idlang.check`` calls, one corpus line per query.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a separate traced run, the tracing overhead and the layer micro-benchmarks.
End-to-end times are scaled for the shared machine's drift by a reference
kernel timed between pieces of work (see ``drift.py``).  A human-readable
table of the same metrics goes before the JSON line; ``--all`` prints only
the tables.  The exit code is 0 when every verdict matched, 1 when one did
not, and 2 when the benchmark could not run at all (no result line is
printed then).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from itertools import count
from pathlib import Path
from time import perf_counter

import drift

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

COMPOSED_IDS = "EQ12,EQ13,EQ14,EQ18,EQ24,EQ25,EQ26,EQ27"
#: name -> worker arguments of one grid pass, or None for the query loop.
WORKLOADS = {
    "catalog": ["grid", "--n-max", "10", "--k-max", "6"],
    "composed": ["grid", "--n-max", "24", "--k-max", "3", "--ids", COMPOSED_IDS],
    "queries": None,
}
#: Fresh interpreters timed for setup_s before each unit; the median is reported.
SETUP_PER_ROUND = 2
SETUP_CODE = "import fibluc; fibluc.build_catalog(); fibluc.load_corpus()"
CLI_IMPORT_CODE = (
    "import time; t = time.perf_counter(); import fibluc.cli; print(time.perf_counter() - t)"
)
#: Queries per timed unit of the queries workload (about 3 s).
QUERY_CHUNK = 2500
#: Queries in each of the untraced and traced runs of --trace 1.
TRACED_QUERIES = 1500
#: Untraced/traced run pairs of --trace 1; medians damp the machine's drift.
TRACE_PAIRS = 3
MIN_CELLS = 1000
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, so passes differ only by the machine's noise
    env["PYTHONHASHSEED"] = "0"
    return env


def python(args: list[str]) -> str:
    """Run a fresh interpreter to completion and return its standard output."""
    try:
        done = subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[:2]} did not finish in {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0:
        raise BenchError(f"{args[:2]} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def worker(args: list[str]) -> dict:
    return json.loads(python([str(BENCH_DIR / "worker.py"), *args]).splitlines()[-1])


# -- measurements -----------------------------------------------------------


def setup_sample() -> float:
    """Wall time of a fresh interpreter's import and catalog/corpus load."""
    t0 = perf_counter()
    python(["-c", SETUP_CODE])
    return perf_counter() - t0


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile; 0 when every unit crashed."""
    ordered = sorted(values) or [0.0]
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def grid_errors(pass_out: dict) -> int:
    """Cells whose verdict is not a pass, plus cells missing or doubled."""
    expected = {tuple(key) for key in pass_out["expected"]}
    return verdict_errors(
        dict.fromkeys(expected, True),
        [((c[0], c[1], c[2]), c[3]) for c in pass_out["cells"]],
    )


def verdict_errors(expected: dict, observed: list) -> int:
    """Mismatches between expected verdicts by key and observed (key, verdict) pairs.

    A key observed twice, observed but not expected, or expected but never
    observed counts as one error each, so the cell count must equal the
    grid size.
    """
    errors = 0
    seen = set()
    for key, verdict in observed:
        if key in seen or key not in expected or verdict is not expected[key]:
            errors += 1
        seen.add(key)
    return errors + len(expected.keys() - seen)


def query_errors(results: list) -> int:
    """Queries whose verdict is not pass-when-true, fail-when-perturbed."""
    expected = {i: not row[3] for i, row in enumerate(results)}
    return verdict_errors(expected, [(i, row[4]) for i, row in enumerate(results)])


def units(workload: str, seed: int):
    """Endless worker arguments of the workload's timed units."""
    grid = WORKLOADS[workload]
    for start in count(0, QUERY_CHUNK):
        chunk = ["--seed", str(seed), "--start", str(start), "--count", str(QUERY_CHUNK)]
        yield grid or ["queries", *chunk]


def unit_stats(out: dict, scaled: bool = False) -> tuple[int, int, list[float], float | None]:
    """(attempted, failed, cell latencies in ms, busy seconds) of one unit.

    With ``scaled``, times are taken to the drift reference's nominal speed.
    """
    if "queries" in out:
        rows = out["queries"]
        attempted, failed = len(rows), query_errors(rows)
    else:
        rows = out["cells"]
        attempted, failed = len(out["expected"]), grid_errors(out)
    # every row ends with (latency in ms, drift scale)
    latencies = [row[-2] * row[-1] if scaled else row[-2] for row in rows]
    return attempted, failed, latencies, out.get("scaled_busy_s" if scaled else "busy_s")


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Rounds of set-up samples and one fresh-process unit, until the time is used.

    Set-up samples are spread over the run, so that they meet the same
    machine load as the units.  Every time is scaled for the machine's drift
    (``drift.py``): set-up samples by reference timings on either side of
    them, units by the ones the worker takes between its pieces of work.
    """
    python(["-c", SETUP_CODE])  # leaves compiled bytecode behind, as an installed package has
    setup: list[float] = []
    outs = []
    attempted = 0
    start = perf_counter()
    for args in units(workload, seed):
        t0 = perf_counter()
        samples, scales = drift.gauged(range(SETUP_PER_ROUND), lambda _: setup_sample())
        setup.extend(sample * f for sample, f in zip(samples, scales))
        outs.append(worker(args + ["--gauge"]))
        attempted += unit_stats(outs[-1])[0]
        last = perf_counter() - t0
        if attempted >= MIN_CELLS and perf_counter() - start + last > seconds:
            break
    stats = [unit_stats(out, scaled=True) for out in outs]
    rate, latencies = rate_and_latencies(stats)
    raw_rate, raw_latencies = rate_and_latencies([unit_stats(out) for out in outs])
    factors = [row[-1] for out in outs for row in out.get("queries") or out["cells"]] or [1.0]
    print(
        f"unscaled: cells_per_s {raw_rate:.6g}, cell_ms_p50 {percentile(raw_latencies, 0.5):.6g}"
        f"; median drift scale {statistics.median(factors):.4g}"
    )
    rss_kib = max(out.get("peak_rss_kib", 0) for out in outs)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cells_per_s": (rate, "1/s"),
        "cell_ms_p50": (percentile(latencies, 0.50), "ms"),
        "cell_ms_p99": (percentile(latencies, 0.99), "ms"),
        "peak_rss_mb": (rss_kib / 1024.0, "MB"),
    }
    return metrics, sum(s[0] for s in stats), sum(s[1] for s in stats)


def rate_and_latencies(stats: list) -> tuple[float, list[float]]:
    """Median over units of cells per busy second, and every cell latency."""
    # the median of per-unit rates, so one unit slowed by the machine weighs little
    rate = statistics.median([len(s[2]) / s[3] for s in stats if s[3]] or [0.0])
    return rate, [ms for s in stats for ms in s[2]]


def per_layer(workload: str, seed: int) -> tuple[dict, int, int]:
    """Alternating untraced and traced runs of the same work, then the micro-benchmarks.

    The layer metrics come from the traced run of median wall time; the
    overhead compares the median traced and untraced wall times.  A run in
    which the program raised counts its cells as failed, as in
    ``end_to_end``, and the metrics come from the runs that finished.
    """
    args = WORKLOADS[workload] or ["queries", "--seed", str(seed), "--count", str(TRACED_QUERIES)]
    runs = [worker(args + trace) for _ in range(TRACE_PAIRS) for trace in ([], ["--trace"])]
    stats = [unit_stats(out) for out in runs]
    plain = [out for out in runs[0::2] if "wall_s" in out]
    traced = sorted((out for out in runs[1::2] if "wall_s" in out), key=lambda out: out["wall_s"])
    metrics = {}
    if traced:
        middle = traced[len(traced) // 2]
        metrics.update((name, tuple(value)) for name, value in middle["metrics"].items())
    if traced and plain:
        untraced_wall = statistics.median(out["wall_s"] for out in plain)
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (middle["wall_s"] - untraced_wall, "s")
    micro = worker(["micro"])
    metrics.update((name, tuple(value)) for name, value in micro.get("metrics", {}).items())
    crashed = [out["error"] for out in runs + [micro] if "error" in out]
    for error in crashed[:1]:
        print(f"the program raised:\n{error}", file=sys.stderr)
    micro_failed = int("error" in micro)
    cli_import = [float(python(["-c", CLI_IMPORT_CODE])) for _ in range(3)]
    metrics["cli.import_s"] = (statistics.median(cli_import), "s")
    attempted = sum(s[0] for s in stats) + micro_failed
    return metrics, attempted, sum(s[1] for s in stats) + micro_failed


# -- output ---------------------------------------------------------------------


def result(metrics: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }


def table(workload: str, res: dict) -> str:
    lines = [f"workload {workload}: {res['attempted']} cells, {res['failed']} failed"]
    ratio = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    lines.append(f"  {'error_ratio':<34} {ratio:>14.6g} ratio")
    for name, metric in res["metrics"].items():
        lines.append(f"  {name:<34} {metric['value']:>14.6g} {metric['unit']}")
    return "\n".join(lines)


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if trace:
        return result(*per_layer(workload, seed))
    return result(*end_to_end(workload, seed, seconds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, --trace 0 and 1")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    if not (SRC / "fibluc" / "__init__.py").is_file():
        print(f"error: no fibluc sources at {SRC}", file=sys.stderr)
        return 2
    runs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.all else [(args.workload, args.trace)]
    exit_code = 0
    for workload, trace in runs:
        try:
            res = measure(workload, args.seed, args.seconds, trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(table(workload, res))
        if not args.all:
            print(json.dumps(res))
        exit_code = max(exit_code, 0 if res["correct"] else 1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
