"""Self-tests of the benchmark, at the tiny input size.

    python3 -m pytest -q perfbench

Every workload runs untraced and traced with the same output checks as the
measured runs; metric names are checked against BENCHMARK.json, span self
times against instance wall times, and seeds for exact reproducibility.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import _scipy_import_s  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = ("calls", "tuples", "failed", "entries", "lp_vars", "swaps", "bases",
          "halvings", "cells", "refined_cells", "singular_cells")


def bench(workload, trace, seed=3):
    """Run run.py at the tiny size; return (JSON line, full result)."""
    out = ROOT / ".bench_work" / f"test-{workload}-{trace}-{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--size", "tiny", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return line, json.loads(out.read_text())


def spans_of(full):
    with open(full["spans"]) as fh:
        return [json.loads(line) for line in fh]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_untraced_run_checks_and_prints_end_to_end_metrics(workload):
    line, _ = bench(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1 and 0 <= line["failed"] <= line["attempted"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_prints_per_layer_metrics_within_wall_time(workload):
    line, full = bench(workload, 1)
    assert line["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == expected
    assert all(NAME.fullmatch(k) for k in got)
    spans = spans_of(full)
    selfs = tracing.self_times(spans)
    instances = [s for s in spans if s[2] == "instance"]
    assert len(instances) == line["attempted"]
    root_of = {}
    for sid, parent, *_ in spans:
        root_of[sid] = sid if parent is None else root_of[parent]
    for sid, _parent, _name, start, end, *_ in instances:
        layers = sum(v for k, v in selfs.items() if root_of[k] == sid and k != sid)
        assert 0.0 <= layers <= end - start


@pytest.mark.parametrize("workload", ["transport", "density"])
def test_same_seed_same_inputs_and_counts(workload):
    wl = workloads.get(workload, "tiny")
    for index in range(len(wl.classes) + 1):
        a = wl.make(5, workloads.TIMED, index)
        b = wl.make(5, workloads.TIMED, index)
        assert json.dumps(a, default=lambda v: v.tolist()) == json.dumps(
            b, default=lambda v: v.tolist())
    runs = [bench(workload, 1, seed=5)[0] for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.rsplit(".", 1)[-1] in COUNTS} for r in runs]
    assert counts[0] == counts[1]
    assert any(counts[0].values())
    assert runs[0]["attempted"] == runs[1]["attempted"]
    assert runs[0]["failed"] == runs[1]["failed"]


def test_transport_check_tolerances():
    check = workloads.get("transport", "tiny").check
    assert check({}, {"mmot": 1.0, "pairwise": 1.0 + 1e-9}) is None
    status, note = check({}, {"mmot": 1.0, "pairwise": 1.0 + 1e-7})
    assert status == workloads.OK and "1e-8" in note
    assert check({}, {"mmot": 1.0, "pairwise": 1.0 + 1e-6})[0] == workloads.WRONG


def test_tracer_wraps_every_binding_and_restores_it():
    import wbary.acceptance
    import wbary.cli
    import wbary.core
    import wbary.mmot

    original = wbary.core.pbary_points
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert wbary.mmot.pbary_points is not original
        assert wbary.bounds.pbary_points is wbary.core.pbary_points
        assert [n for n, _ in wbary.acceptance.ALL_CHECKS] == list(
            tracing.CHECK_NAMES)
        assert workloads.KINDS == wbary.cli.KINDS
    finally:
        tracer.uninstall()
    assert wbary.mmot.pbary_points is original
    assert wbary.pbary_points is original


def test_self_time_subtracts_children():
    spans = [[0, None, "a", 0.0, 10.0, False, {}],
             [1, 0, "b", 1.0, 4.0, False, {}],
             [2, 1, "c", 2.0, 3.0, False, {}],
             [3, 0, "b", 5.0, 6.0, False, {}]]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}


def test_scipy_import_time_is_parsed():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |   numpy\n"
            "import time:       250 |        250 |     scipy._lib\n"
            "import time:        50 |        300 |   scipy\n")
    assert _scipy_import_s(text) == pytest.approx(300e-6)


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:] + [
            "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
