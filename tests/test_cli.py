"""Command-line interface: artifacts, determinism, exit codes."""

import ast
import csv
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
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
mu = wbary.DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), [0.5, 0.5])
nu = wbary.DiscreteMeasure(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, 0.5])
plan = wbary.solve_mmot([mu, nu], np.array([0.5, 0.5]), 2.0)
assert abs(plan.objective - 0.25) <= 1e-12, plan.objective
assert cli.main(["run", "--kind", "mmot", "--out", sys.argv[1] + "/mmot"]) == 0
assert "scipy.optimize._highspy._core" in sys.modules
heavy = [m for m in ("scipy.optimize", "scipy.optimize._optimize",
                     "scipy.optimize._linprog", "scipy.sparse", "scipy.linalg",
                     "scipy.special") if m in sys.modules]
assert heavy == [], heavy
m = wbary.DiscreteMeasure(np.array([[0.0], [1.0], [1.0 + 1e-15]]),
                          [0.5, 0.25, 0.25])
assert m.n_atoms == 2 and "scipy.sparse.csgraph" in sys.modules
"""


def test_scipy_loads_only_when_needed(tmp_path):
    """import wbary and the kinds without a 2-D LP never load SciPy; a 2-D
    solve_mmot and the mmot kind load its HiGHS extension alone, without
    scipy.optimize and what that imports; a near-duplicate merge loads
    scipy.sparse's graph routines on demand."""
    res = subprocess.run(
        [sys.executable, "-c", _SCIPY_LOADS_ON_DEMAND, str(tmp_path),
         "point_bary", "semidiscrete", "bounds", "affine", "counterexample"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr


_SHARED_HIGHS = """
import sys
import numpy as np

NAME = "scipy.optimize._highspy._core"

def wbary_lp():
    import wbary
    mu = wbary.DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]), [0.5, 0.5])
    nu = wbary.DiscreteMeasure(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.5, 0.5])
    plan = wbary.solve_mmot([mu, nu], np.array([0.5, 0.5]), 2.0)
    assert abs(plan.objective - 0.25) <= 1e-12, plan.objective

def scipy_lp():
    from scipy.optimize import linprog
    res = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
    assert res.status == 0 and abs(res.fun - 1.0) <= 1e-12, res

if sys.argv[1] == "wbary-first":
    wbary_lp()
    first = sys.modules[NAME]
    scipy_lp()
elif sys.argv[1] == "scipy-first":
    import scipy.optimize
    first = sys.modules[NAME]
    wbary_lp()
    scipy_lp()
else:
    import threading
    sys.setswitchinterval(1e-6)
    errors = []

    def run():
        try:
            wbary_lp()
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert not any(t.is_alive() for t in threads) and errors == [], errors
    first = sys.modules[NAME]
    scipy_lp()
import scipy.optimize
import scipy.optimize._highspy._core as core
assert core is first and sys.modules[NAME] is first
assert core.__file__.startswith(scipy.optimize.__path__[0]), core.__file__
"""


@pytest.mark.parametrize("order", ["wbary-first", "scipy-first", "threads"])
def test_highs_extension_is_shared_with_scipy_optimize(order):
    """Whichever loads it first, wbary's LP and scipy.optimize.linprog run
    on the one HiGHS extension module, also when four threads start their
    first LP at once; a load under a second name would fail on its type
    registrations."""
    res = subprocess.run([sys.executable, "-c", _SHARED_HIGHS, order],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def test_highs_extension_is_found_on_every_scipy_path_entry(tmp_path):
    """The LP searches every entry of scipy.__path__ for the extension.
    Where none holds it, the ImportError names every directory searched
    and nothing falls back to scipy.optimize; an entry without it before
    the real one does not stop the load."""
    empty = [str(tmp_path / "a"), str(tmp_path / "b")]
    script = (
        "import sys, numpy as np, scipy, wbary\n"
        "real = list(scipy.__path__)\n"
        f"scipy.__path__ = {empty!r}\n"
        "mu = wbary.DiscreteMeasure(np.array([[0.0, 0.0], [1.0, 0.0]]),"
        " [0.5, 0.5])\n"
        "try:\n"
        "    wbary.solve_mmot([mu, mu], np.array([0.5, 0.5]), 2.0)\n"
        "except ImportError as exc:\n"
        "    print(exc)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        f"scipy.__path__ = [{empty[0]!r}] + real\n"
        "plan = wbary.solve_mmot([mu, mu], np.array([0.5, 0.5]), 2.0)\n"
        "assert plan.objective == 0.0, plan.objective\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    for name in "ab":
        assert str(tmp_path / name / "optimize" / "_highspy") in res.stdout


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


@pytest.mark.parametrize("kind", ["counterexample", "semidiscrete"])
def test_exponent_within_tolerance_of_2_runs_as_2(tmp_path, kind):
    """--p within 1e-9 of 2 picks the p = 2 fixture and exponent and writes
    the bytes of --p 2, manifest and recorded p included."""
    outs = [tmp_path / p for p in ("2", "1.9999999995", "2.0000000005")]
    for out in outs:
        res = _run("run", "--kind", kind, "--out", str(out), "--p", out.name)
        assert res.returncode == 0, res.stderr
    names = sorted(p.name for p in outs[0].iterdir())
    assert "manifest.json" in names
    for out in outs[1:]:
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[0] / name).read_bytes(), (
                out.name, name)


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
    assert summary["blowup_q0"] == pytest.approx(2.0, abs=0.02)
    assert summary["blowup_slope"] == pytest.approx(-1.0, abs=0.01)
    assert summary["blowup_q0_theory"] == 2.0
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
        ("run", "--kind", "point_bary", "--tol", "nan"),
        ("run", "--kind", "point_bary", "--tol", "0"),
        ("run", "--kind", "semidiscrete", "--q", "nan"),
        ("run", "--kind", "semidiscrete", "--q", "inf"),
        ("run", "--kind", "point_bary", "--seed", "-1"),
    ],
)
def test_invalid_parameters_exit_2(tmp_path, args):
    """Each invalid option exits 2 with one error line that names it, before
    the output directory is made."""
    out = tmp_path / "x"
    res = _run(*args, "--out", str(out))
    assert res.returncode == 2
    assert res.stderr.startswith(f"error: {args[3]}"), res.stderr
    assert len(res.stderr.strip().splitlines()) == 1, res.stderr
    assert not out.exists()


@pytest.mark.parametrize("out", ["file", "file/sub", "link"])
def test_out_that_is_not_a_directory_exits_2(tmp_path, out):
    """An --out that is an existing file, lies under one or is a dangling
    link exits 2 with one error line before anything is computed, and
    nothing is made or changed."""
    (tmp_path / "file").write_bytes(b"kept\n")
    (tmp_path / "link").symlink_to(tmp_path / "nowhere")
    res = _run("run", "--kind", "point_bary", "--out", str(tmp_path / out))
    assert res.returncode == 2
    assert res.stderr == "error: --out: not a directory\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["file", "link"]
    assert (tmp_path / "file").read_bytes() == b"kept\n"


def _files(out):
    return {f.name: f.read_bytes() for f in out.iterdir()}


def test_a_run_that_fails_writes_nothing(tmp_path, monkeypatch, capsys):
    """A run whose computation raises exits 2 and writes nothing: a new
    --out is not made, and an existing one keeps every byte.  The real
    semidiscrete runner runs; its L^q norm fails after the pushforward
    table has been computed."""
    from wbary import cli, semidiscrete
    from wbary.errors import ConvergenceError

    calls = []

    def fail(*args):
        calls.append(args)
        raise ConvergenceError("point solves missed their tolerance")

    argv = ["run", "--kind", "semidiscrete", "--grid", "32", "--out"]
    old, new = tmp_path / "old", tmp_path / "new"
    assert cli.main(argv + [str(old)]) == 0
    before = _files(old)
    monkeypatch.setattr(semidiscrete, "lq_via_changevar", fail)
    capsys.readouterr()
    for out in (new, old):
        assert cli.main(argv + [str(out), "--p", "1.7"]) == 2
    assert len(calls) == 2
    assert capsys.readouterr().err == (
        "error: point solves missed their tolerance\n" * 2)
    assert not new.exists()
    assert _files(old) == before


def test_a_run_lists_only_its_own_files(tmp_path):
    """A run into a directory that holds another run's files writes the
    bytes of a run into an empty directory, lists only its own files in
    manifest.json, and leaves the other files untouched."""
    from wbary import cli

    out, fresh = tmp_path / "out", tmp_path / "fresh"
    assert cli.main(["run", "--kind", "point_bary", "--out", str(out)]) == 0
    leftover = (out / "solutions.csv").read_bytes()
    for where in (out, fresh):
        assert cli.main(["run", "--kind", "affine", "--out", str(where)]) == 0
    assert sorted(_manifest(out)["files"]) == [
        "spectrum_fixture.csv", "summary.json"]
    assert _files(out) == {**_files(fresh), "solutions.csv": leftover}


def test_import_wbary_loads_no_submodule():
    """import wbary loads neither a wbary submodule nor NumPy; each public
    name imports its submodule on first use."""
    script = (
        "import sys, wbary\n"
        "loaded = [m for m in sys.modules\n"
        "          if m.startswith('wbary.') or m.split('.')[0] == 'numpy']\n"
        "assert loaded == [], loaded\n"
        "wbary.DiscreteMeasure\n"
        "assert 'wbary.mmot' in sys.modules and 'wbary.bounds' not in sys.modules\n"
    )
    res = subprocess.run([sys.executable, "-c", script],
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


_LOADED_MODULES = """
import json, sys
from wbary import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code] + sorted(m for m in sys.modules
                                 if m.split(".")[0] == "wbary")))
"""

_ALWAYS = {"wbary", "wbary.cli", "wbary.core", "wbary.errors"}
_FIXTURES = "wbary._fixtures"


@pytest.mark.parametrize("kind, layers", [
    ("point_bary", set()),
    ("mmot", {"wbary.mmot"}),
    ("counterexample", {_FIXTURES, "wbary.grid", "wbary.semidiscrete"}),
    ("semidiscrete", {_FIXTURES, "wbary.grid", "wbary.semidiscrete"}),
    ("bounds", {_FIXTURES, "wbary.bounds", "wbary.grid", "wbary.mmot",
                "wbary.semidiscrete"}),
    ("affine", {_FIXTURES, "wbary.affine", "wbary.mmot"}),
    ("selftest", {_FIXTURES, "wbary.acceptance", "wbary.affine",
                  "wbary.bounds", "wbary.grid", "wbary.mmot",
                  "wbary.semidiscrete"}),
])
def test_each_command_loads_only_its_layers(tmp_path, kind, layers):
    """A fresh process loads the wbary modules its command runs, and no
    other: every run kind imports its own layers, and only selftest loads
    the battery."""
    if kind == "selftest":
        argv = ["selftest", "--fast"]
        expect = 3
    else:
        argv = ["run", "--kind", kind, "--out", str(tmp_path / kind),
                "--grid", "32"]
        expect = 0
    res = subprocess.run([sys.executable, "-c", _LOADED_MODULES, *argv],
                         capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr
    code, *loaded = json.loads(res.stdout.splitlines()[-1])
    assert code == expect
    assert set(loaded) == _ALWAYS | layers


_LEDGER_P = (1.05, 1.2, 1.3, 1.5, 2.0, 3.0, 4.0)
# Exit code of `wbary run --kind KIND --p P --seed S` for each P above, by
# seed S.  The non-zero entries are open failures: p < 2 point solves that
# miss their tolerance (2).
_LEDGER_SEED0 = {
    "point_bary": (2, 0, 0, 0, 0, 0, 0),
    "semidiscrete": (2, 2, 2, 0, 0, 0, 0),
    "mmot": (2, 0, 0, 0, 0, 0, 0),
    "bounds": (0, 0, 0, 0, 0, 0, 0),
    "affine": (0, 0, 0, 0, 0, 0, 0),
    "counterexample": (0, 0, 0, 0, 0, 0, 0),
}
_LEDGER = {
    0: _LEDGER_SEED0,
    7: {**_LEDGER_SEED0, "mmot": (2, 2, 0, 0, 0, 0, 0)},
}


def test_run_exit_codes_match_the_ledger(tmp_path):
    """Every run kind at each ledger p and seed exits with the code the
    ledger pins, called in-process through cli.main."""
    from wbary import cli

    got = {
        seed: {
            kind: tuple(cli.main(["run", "--kind", kind, "--p", str(p),
                                  "--seed", str(seed), "--out",
                                  str(tmp_path / f"{kind}-{p}-{seed}")])
                        for p in _LEDGER_P)
            for kind in cli.KINDS
        }
        for seed in _LEDGER
    }
    assert got == _LEDGER


@pytest.mark.parametrize("p", (2.5, 3.0, 3.5, 4.0))
def test_semidiscrete_mass_is_ok_on_every_grid(tmp_path, p):
    """`run --kind semidiscrete` exits 0 (pushforward mass within 5%) on the
    grids 64, 96, 128 and 256 at p > 2, and on 512 at p = 4, the exponent
    whose density blows up fastest (about 2.5 s; the other p take as long).
    Cell-centre samples gave mass 1.2133 and exit 3 at p = 4, grid 128."""
    from wbary import cli

    for grid in (64, 96, 128, 256) + ((512,) if p == 4.0 else ()):
        out = tmp_path / f"grid{grid}"
        assert cli.main(["run", "--kind", "semidiscrete", "--p", str(p),
                         "--grid", str(grid), "--out", str(out)]) == 0, grid
        assert json.loads((out / "summary.json").read_text())["ok"]


def test_write_csv():
    """_csv gives the text of csv.writer with LF line ends, floats as %.17g
    and other cells as str: for a float array (in one %.17g template) and
    for rows of mixed cells, also for NaN, inf, -0.0 and the smallest
    subnormal, and for a string that needs quoting."""
    from wbary.cli import _csv

    vals = np.array([[0.0, -0.0, np.nan, np.inf],
                     [-np.inf, 1e-300, 1.0 / 3.0, -2.5e17],
                     [5e-324, 1.0, 123456789.125, -1e-5]])
    mixed = [(0, "plain", True, -0.0, np.nan),
             (12, 'spectrum in {1, "zeta"}', False, 5e-324, -np.inf),
             (-3, "", None, np.float64(1.0 / 3.0), 2.5e17)]
    for header, rows in ((["x0", "x1", "x2", "value"], vals),
                         (["k", "note, quoted", "flag", "a", "b"], mixed)):
        ref = io.StringIO(newline="")
        writer = csv.writer(ref, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else str(v)
                             for v in row])
        assert _csv(header, rows) == ref.getvalue()
    with pytest.raises(ValueError, match="not 5 cells long"):
        _csv(header, mixed + [(1, 2)])


def test_every_table_parses_into_rows_as_long_as_its_header(tmp_path):
    """Every CSV of every run kind reads back with csv.reader into rows as
    long as its header, with LF line ends only."""
    from wbary import cli

    tables = 0
    for kind in cli.KINDS:
        out = tmp_path / kind
        assert cli.main(["run", "--kind", kind, "--out", str(out),
                         "--grid", "32"]) == 0, kind
        for path in sorted(out.glob("*.csv")):
            data = path.read_bytes()
            assert b"\r" not in data, path.name
            header, *rows = csv.reader(io.StringIO(data.decode()))
            assert rows, path.name
            assert {len(row) for row in rows} == {len(header)}, path.name
            tables += 1
    assert tables == 7


def test_only_cli_opens_files():
    """src/wbary calls open( exactly once, in the write loop of cli.main:
    every table, summary.json and manifest.json is written there."""
    import wbary
    from wbary import cli

    def opens(tree):
        return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and "open" in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))]

    src = Path(wbary.__file__).parent
    assert sum(len(opens(ast.parse(path.read_text())))
               for path in src.glob("*.py")) == 1
    main = next(node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert len(opens(main)) == 1


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
    # Each check line ends with its wall seconds, after the details; the
    # name still follows "PASS  " or "FAIL  " and ends with a colon.
    checks = [ln for ln in lines if ln.startswith(("PASS", "FAIL"))]
    assert [ln.split()[1].rstrip(":") for ln in fails] == ["stated-band-p-lt2"]
    for ln in checks:
        assert ln[4:6] == "  " and ln.split()[1].endswith(":"), ln
        seconds = ln.rsplit("  [", 1)[1]
        assert seconds.endswith(" s]") and float(seconds[:-3]) >= 0.0, ln
