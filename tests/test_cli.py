"""Command-line interface: artifacts, determinism, exit codes."""

import hashlib
import json
import subprocess
import sys

import pytest


def _run(*args, timeout=300):
    return subprocess.run(
        [sys.executable, "-m", "wbary.cli", *args],
        capture_output=True, text=True, timeout=timeout,
    )


def _manifest(out):
    with open(out / "manifest.json") as fh:
        return json.load(fh)


def test_point_bary_artifacts_and_manifest(tmp_path):
    out = tmp_path / "pb"
    res = _run("run", "--kind", "point_bary", "--out", str(out),
               "--p", "2.5", "--seed", "7")
    assert res.returncode == 0, res.stderr
    man = _manifest(out)
    assert man["kind"] == "point_bary"
    assert man["params"]["p"] == 2.5
    for name, digest in man["files"].items():
        data = (out / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is True
    assert summary["worst_residual"] <= 1e-10
    assert summary["n_configs"] == 64


_SCIPY_LOADS_ON_DEMAND = """
import sys
import numpy as np

def loaded():
    return any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)

import wbary
from wbary import cli
assert not loaded(), "import wbary"
for kind in sys.argv[2:]:
    assert cli.main(["run", "--kind", kind, "--out", sys.argv[1] + "/" + kind,
                     "--grid", "32"]) == 0, kind
    assert not loaded(), kind
m = wbary.DiscreteMeasure(np.array([[0.0], [1.0], [1.0 + 1e-15]]),
                          [0.5, 0.25, 0.25])
assert m.n_atoms == 2 and loaded()
mu = wbary.DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), [0.5, 0.5])
nu = wbary.DiscreteMeasure(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, 0.5])
plan = wbary.solve_mmot([mu, nu], np.array([0.5, 0.5]), 2.0)
assert abs(plan.objective - 0.25) <= 1e-12, plan.objective
"""


def test_scipy_loads_only_when_needed(tmp_path):
    """import wbary and the kinds without a 2-D LP never load SciPy; a
    near-duplicate merge and a 2-D solve_mmot load it on demand."""
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_LOADS_ON_DEMAND, str(tmp_path),
         "point_bary", "semidiscrete", "bounds", "affine", "counterexample"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr


def test_reruns_are_bytewise_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        res = _run("run", "--kind", "mmot", "--out", str(out),
                   "--p", "2.5", "--seed", "11")
        assert res.returncode == 0, res.stderr
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_mmot_summary_reports_equivalence(tmp_path):
    out = tmp_path / "m"
    res = _run("run", "--kind", "mmot", "--out", str(out), "--seed", "3")
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["ok"] is True
    assert summary["equivalence_gap"] <= 1e-8
    assert summary["support_within_basis"] is True
    # Three marginals of 2 to 4 atoms: the LP's start set is the whole
    # product, so one LP runs on all of its columns.
    assert summary["lp_rounds"] == 1
    assert 8 <= summary["lp_columns"] <= 64
    assert len(summary["lp_iterations"]) == summary["lp_rounds"]
    assert (out / "plan.csv").exists()
    assert (out / "barycenter_measure.csv").exists()


def test_counterexample_exhibit(tmp_path):
    out = tmp_path / "c"
    res = _run("run", "--kind", "counterexample", "--out", str(out),
               "--p", "1.5")
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["claimed_lower_bound_violated"] is True
    assert summary["local_band_holds"] is True
    header = (out / "exhibit.csv").read_text().splitlines()[0]
    assert "claimed_lower" in header and "eig_gap" in header


def test_semidiscrete_blowup_summary(tmp_path):
    out = tmp_path / "s"
    res = _run("run", "--kind", "semidiscrete", "--out", str(out),
               "--p", "3.0", "--grid", "256")
    assert res.returncode == 0, res.stderr
    summary = json.loads((out / "summary.json").read_text())
    assert summary["blowup_q0"] == pytest.approx(2.0, abs=0.25)
    assert summary["blowup_slope"] == pytest.approx(-1.0, abs=0.15)
    assert (out / "pushforward.csv").exists()


def test_bounds_sweep(tmp_path):
    out = tmp_path / "b"
    res = _run("run", "--kind", "bounds", "--out", str(out),
               "--grid", "512")
    assert res.returncode == 0, res.stderr
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) > 3  # header plus one row per weight setting


def test_affine_fixture(tmp_path):
    out = tmp_path / "af"
    res = _run("run", "--kind", "affine", "--out", str(out))
    assert res.returncode == 0, res.stderr
    text = (out / "spectrum_fixture.csv").read_text()
    assert "optimal" in text.splitlines()[0]


@pytest.mark.parametrize(
    "args",
    [
        ("run", "--kind", "point_bary", "--p", "0.5"),
        ("run", "--kind", "point_bary", "--grid", "4"),
    ],
)
def test_invalid_parameters_exit_2(tmp_path, args):
    res = _run(*args, "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert res.stderr.strip()


def test_unknown_kind_rejected(tmp_path):
    res = _run("run", "--kind", "nope", "--out", str(tmp_path / "x"))
    assert res.returncode == 2


def test_selftest_fast_reports_known_failure():
    res = _run("selftest", "--fast", timeout=600)
    assert res.returncode == 3
    assert "11/12 checks passed" in res.stdout
    lines = res.stdout.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    assert len(fails) == 1 and "stated-band-p-lt2" in fails[0]
    assert sum(1 for ln in lines if ln.startswith("PASS")) == 11
