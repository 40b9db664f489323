"""Tests of the benchmark harness itself, at tiny sizes.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import drift  # noqa: E402
import fibluc  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_GRIDS = {
    "catalog": ["grid", "--n-max", "2", "--k-max", "1"],
    "composed": ["grid", "--n-max", "3", "--k-max", "1", "--ids", run.COMPOSED_IDS],
    "queries": None,
}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(run, "WORKLOADS", TINY_GRIDS)
    monkeypatch.setattr(run, "MIN_CELLS", 1)
    monkeypatch.setattr(run, "SETUP_PER_ROUND", 1)
    monkeypatch.setattr(run, "QUERY_CHUNK", 30)
    monkeypatch.setattr(run, "TRACED_QUERIES", 40)


def declared_units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def test_workloads_match_the_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(TINY_GRIDS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(tiny, workload):
    metrics, attempted, failed = run.end_to_end(workload, seed=3, seconds=0.01)
    assert failed == 0 and attempted >= 1
    assert {name: unit for name, (_, unit) in metrics.items()} == declared_units("end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("workload", ["composed", "queries"])
def test_every_per_layer_metric_is_emitted_with_its_unit(tiny, workload):
    metrics, _, failed = run.per_layer(workload, seed=3)
    assert failed == 0
    assert {name: unit for name, (_, unit) in metrics.items()} == declared_units("per_layer")


def test_flipping_one_expected_verdict_trips_the_gate():
    out = worker.grid_pass(["EQ20", "EQ21"], 3, 2, trace=False)
    assert run.grid_errors(out) == 0
    out["cells"][2][3] = not out["cells"][2][3]
    assert run.grid_errors(out) == 1
    assert run.result({}, len(out["expected"]), run.grid_errors(out))["correct"] is False

    queries = worker.run_queries(seed=5, start=0, count=30, trace=False)["queries"]
    assert run.query_errors(queries) == 0
    queries[7][3] = not queries[7][3]
    assert run.query_errors(queries) == 1


def test_cell_count_must_equal_the_grid_size():
    out = worker.grid_pass(["EQ20"], 4, 1, trace=False)
    assert run.grid_errors(out) == 0
    assert run.grid_errors({**out, "cells": out["cells"][1:]}) == 1
    assert run.grid_errors({**out, "cells": out["cells"] + out["cells"][:1]}) == 1


def test_a_crashing_pass_fails_every_cell(monkeypatch):
    def boom(*_args, **_kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(fibluc, "run_catalog", boom)
    out = worker.grid_pass(["EQ20"], 4, 1, trace=False)
    assert "injected" in out["error"]
    assert run.grid_errors(out) == len(out["expected"]) == 4


def test_a_crashing_traced_run_counts_its_cells_as_failed(tiny, monkeypatch):
    crashed = {"expected": [["EQ20", 1, 1], ["EQ20", 2, 1]], "cells": [], "error": "injected"}
    monkeypatch.setattr(run, "worker", lambda args: crashed if args[0] == "grid" else {"metrics": {}})
    monkeypatch.setattr(run, "python", lambda args: "0.05")
    _, attempted, failed = run.per_layer("catalog", seed=1)
    assert failed == attempted == 2 * 2 * run.TRACE_PAIRS
    assert run.result({}, attempted, failed)["correct"] is False


def test_gauged_scales_each_item_by_the_references_around_its_group(monkeypatch):
    timings = iter([1.0, 0.01, 0.02, 0.04])  # warm-up, then before, between and after
    monkeypatch.setattr(drift, "reference", lambda: next(timings))
    monkeypatch.setattr(drift, "GROUP_S", 0.0)  # every item is its own group
    results, scales = drift.gauged(["a", "b"], str.upper)
    assert results == ["A", "B"]
    assert scales == pytest.approx([drift.NOMINAL_S / 0.015, drift.NOMINAL_S / 0.03])


def test_query_stream_is_a_function_of_the_seed():
    entries = fibluc.load_corpus()

    def stream(seed):
        return list(islice(worker.query_stream(entries, seed), 300))

    assert stream(11) == stream(11)
    assert stream(11) != stream(12)
    perturbed = sum(point[1] for point in stream(11))
    assert 0 < perturbed < 300 * 0.25


def test_tracer_patches_imported_names_and_restores_them():
    from fibluc import _seqcache, identities, idlang, poly, sequences

    originals = (poly.BivarPoly.__dict__["__rmul__"], identities.fib_poly, idlang.seq)
    f80, f81 = fibluc.fib(80), fibluc.fib(81)  # 40 x 41 term pairs: a big product
    tracer = Tracer()
    tracer.install()
    try:
        assert identities.fib_poly.__wrapped__ is originals[1]
        assert _seqcache.fib_poly is identities.fib_poly
        assert idlang.seq.__wrapped__ is originals[2]
        assert sequences.seq is idlang.seq
        _ = 2 * poly.Y  # reaches BivarPoly.__rmul__
        _ = f80 * f81
    finally:
        tracer.uninstall()
    assert (poly.BivarPoly.__dict__["__rmul__"], identities.fib_poly, idlang.seq) == originals
    assert tracer.calls["poly.mul.small"] == 1
    assert tracer.calls["poly.mul.big"] == 1
    assert tracer.max_terms == 80


def test_traced_self_times_account_for_the_wall_time():
    out = worker.grid_pass(["EQ12", "EQ19", "EQ30"], 3, 2, trace=True)
    assert run.grid_errors(out) == 0
    m = {name: value for name, (value, _) in out["metrics"].items()}
    # harness self time is the remainder: it must be neither negative (the
    # wrapper-cost correction took more than the callers spent) nor large
    # (wrapped calls missed)
    assert 0 <= m["trace.harness_self_s"] < 0.05 * m["trace.wall_s"]
    assert all(value >= 0 for name, value in m.items() if name.endswith("self_s"))
    assert m["seqcache.calls"] > 0 and m["seqcache.misses"] > 0
    assert m["sequences.seq.calls"] > 0 and m["identities.lhs_s"] > 0


def test_wrapper_cost_is_charged_to_bookkeeping_not_to_the_caller():
    def caller_self_s(tracer):
        inner = tracer.wrap("poly.add", lambda: None)
        tracer.wrap("sequences.seq", lambda: [inner() for _ in range(20000)])()
        return tracer.self_s["sequences.seq"]

    calibrated = Tracer()
    assert calibrated.call_cost_s > 0
    uncorrected = caller_self_s(Tracer(call_cost_s=0.0))
    assert caller_self_s(calibrated) < 0.5 * uncorrected
    assert calibrated.bookkeeping_s >= 20000 * calibrated.call_cost_s


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "catalog", "--seed", "1"]
        + ["--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
