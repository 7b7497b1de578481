"""The benchmark workloads: seeded inputs, one instance, and its check.

Each workload cycles through a fixed list of input classes (for example the
(N, d, p) combinations of a family).  Instance ``index`` belongs to class
``index % len(classes)`` and draws its random data from
``numpy.random.default_rng([seed, stream, index])``, so a seed fixes every
input and every run holds the same mix of classes.  ``make`` builds plain
arrays without touching wbary; ``run`` calls wbary's public API (or its CLI
in a fresh process) and returns what ``check`` needs.

``check`` returns ``None`` when the instance succeeded, or a status and a
message.  ``OK`` with a message: the instance succeeded, with a note.
``FAILED``: the library's own verdict on this input is negative (a mass test
not ok, a CLI exit code 3), which like a raised library error counts against
``error_rate``.  ``WRONG``: an output contradicts a guarantee checked
independently of that verdict (the multi-marginal/barycenter equivalence,
the domination of the L^q bound, the battery's fixed list of failing
checks); a run with one is not correct.

wbary is imported inside ``run`` so that a worker of the ``cli`` workload
never imports it, and ``python -m wbary.cli`` is started with the
interpreter and environment of the calling process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

WARMUP, TIMED = 0, 1  # random streams of the warm-up and the timed instances
OK, FAILED, WRONG = "ok", "failed", "wrong"

# The exponent below 2.  At p = 1.5 the p-barycenter solver raises
# ConvergenceError for about 1 in 1000 to 1 in 40000 random tuples (N >= 3),
# so the number of failed instances in a run would depend on its length; at
# p = 1.7 it takes the same iterative path and failed in none of 2e6 tuples
# for each of (N, d) = (3, 1), (3, 2), (4, 1).
P_LT2 = 1.7

# Sizes: "bench" is what run.py measures; "tiny" is the size of the warm-up
# instance and of the self-tests.
SIZES = ("bench", "tiny")


class InstanceFailure(Exception):
    """An instance the library refused to finish (a CLI exit code 2)."""


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _weights(rng, n):
    w = rng.uniform(0.2, 1.0, n)
    return w / w.sum()


def _family(rng, N, d, K):
    atoms = [rng.normal(size=(K, d)) for _ in range(N)]
    masses = [m / m.sum() for m in (rng.uniform(0.2, 1.0, K) for _ in range(N))]
    return atoms, masses, _weights(rng, N)


def _measures(x):
    from wbary import DiscreteMeasure

    return [DiscreteMeasure(a, m) for a, m in zip(x["atoms"], x["masses"])]


class Workload:
    """A cycle of input classes with a generator, a runner and a check."""

    name = ""
    trace_cycles = 1  # whole cycles the traced run covers

    def __init__(self, size: str = "bench"):
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}")
        self.size = size
        self.classes = self.build_classes(size)

    def build_classes(self, size):
        raise NotImplementedError

    def make(self, seed: int, stream: int, index: int) -> dict:
        cls = self.classes[index % len(self.classes)]
        return self.generate(rng_for(seed, stream, index), cls)

    def generate(self, rng, cls) -> dict:
        raise NotImplementedError

    def run(self, x: dict, ctx) -> dict:
        raise NotImplementedError

    def check(self, x: dict, out: dict):
        raise NotImplementedError


class Transport(Workload):
    """solve_mmot, barycenter_measure and N pair LPs on medium families."""

    name = "transport"
    trace_cycles = 2

    def build_classes(self, size):
        # Support products of about 1e4 tuples (100^2 and 22^3).
        K = {2: 100, 3: 22} if size == "bench" else {2: 8, 3: 4}
        return [
            {"N": N, "d": d, "p": p, "K": K[N]}
            for N in (2, 3) for d in (1, 2) for p in (P_LT2, 2.0, 3.0)
        ]

    def generate(self, rng, cls):
        atoms, masses, w = _family(rng, cls["N"], cls["d"], cls["K"])
        return {"atoms": atoms, "masses": masses, "weights": w, "p": cls["p"]}

    def run(self, x, ctx):
        from wbary import barycenter_measure, solve_mmot, wp_distance

        measures = _measures(x)
        p, w = x["p"], x["weights"]
        plan = solve_mmot(measures, w, p)
        nu = barycenter_measure(plan)
        pairwise = sum(
            wi * wp_distance(mu, nu, p) ** p for mu, wi in zip(measures, w)
        )
        return {"mmot": plan.objective, "pairwise": float(pairwise)}

    def check(self, x, out):
        # Both sides come from HiGHS LPs, whose primal and dual feasibility
        # tolerance is 1e-7, so that is the accuracy the check can ask for.
        # wbary's own verify_c2m_equivalence asks for 1e-8 (1 + C); about one
        # instance in 3500 misses that (an N = 2, d = 2 pair LP ending 1.7e-8
        # below its optimum).  Such an instance passes with a note, which
        # run.py prints.
        gap = abs(out["mmot"] - out["pairwise"])
        scale = 1.0 + abs(out["mmot"])
        detail = f"C_MM {out['mmot']!r} vs sum w_i W_p^p {out['pairwise']!r}"
        if gap > 1e-7 * scale:
            return WRONG, detail
        if gap > 1e-8 * scale:
            return OK, f"{detail}: gap above wbary's 1e-8 (1 + C)"
        return None


class Density(Workload):
    """Pushforward density, its L^q norm and the general L^q bound."""

    name = "density"
    trace_cycles = 9

    def build_classes(self, size):
        # The same number of source cells in one and two dimensions.  Above
        # p = 2 only 2.5: at p = 3 about 1 in 350 one-dimensional instances
        # gets a pushforward mass more than 5% off (the cell holding the
        # singular fixed point is under-resolved); at 2.5 none of 48000 did.
        res = {1: 1600, 2: 40} if size == "bench" else {1: 256, 2: 16}
        return [
            {"d": d, "p": p, "res": res[d]}
            for d in (1, 2) for p in (P_LT2, 2.5)
        ]

    def generate(self, rng, cls):
        d = cls["d"]
        # Two Dirac anchors at distance 1 to 2 from the source box
        # [-1/2, 1/2]^d, in random directions.
        dirs = rng.normal(size=(2, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        anchors = dirs * rng.uniform(1.0, 2.0, (2, 1))
        return {"anchors": anchors, "weights": _weights(rng, 3), "p": cls["p"],
                "q": float(rng.uniform(1.3, 2.0)), "res": cls["res"]}

    def run(self, x, ctx):
        from wbary import (
            DiracConfiguration,
            constant_maps,
            general_lq_bound,
            lq_via_changevar,
            pushforward_density,
            uniform_box,
        )

        anchors, w, p, q = x["anchors"], x["weights"], x["p"], x["q"]
        d = anchors.shape[1]
        cfg = DiracConfiguration(anchors, w, p)
        f1 = uniform_box(np.tile([-0.5, 0.5], (d, 1)), resolution=x["res"])
        pf = pushforward_density(cfg, f1)
        measured = lq_via_changevar(cfg, f1, q) ** q
        rep = general_lq_bound(f1, constant_maps(anchors), w, p, q)
        return {"mass": pf.mass, "mass_ok": pf.mass_ok, "measured": measured,
                "bound": rep.value, "diverging": rep.diverging,
                "dominates": rep.dominates(measured)}

    def check(self, x, out):
        if not out["diverging"] and not out["dominates"]:
            return WRONG, f"bound {out['bound']!r} below measured {out['measured']!r}"
        if not out["mass_ok"]:
            return FAILED, f"pushforward mass {out['mass']!r} not within 5% of 1"
        return None


KINDS = ("point_bary", "semidiscrete", "mmot", "bounds", "affine",
         "counterexample")
KNOWN_SELFTEST_FAILURES = ["stated-band-p-lt2"]


class Cli(Workload):
    """``wbary run --kind K`` for every kind, and ``wbary selftest --fast``.

    Each call is a fresh interpreter.  Artifacts go to a scratch directory
    under ``ctx.workdir`` that is removed after the check.  When ``ctx``
    carries a tracer, the call runs under ``traced_cli.py`` instead, which
    writes its spans to a file beside (never inside) the ``--out`` directory.
    """

    name = "cli"
    trace_cycles = 1

    def build_classes(self, size):
        if size == "tiny":
            return [{"kind": "point_bary", "p": P_LT2}, {"kind": "mmot", "p": 3.0},
                    {"kind": "selftest"}]
        return ([{"kind": k, "p": p} for k in KINDS for p in (P_LT2, 3.0)]
                + [{"kind": "selftest"}])

    def generate(self, rng, cls):
        return dict(cls, seed=int(rng.integers(0, 2 ** 31)))

    def run(self, x, ctx):
        out = ctx.fresh_dir()
        try:
            if x["kind"] == "selftest":
                argv = ["selftest", "--fast"]
            else:
                argv = ["run", "--kind", x["kind"], "--p", repr(x["p"]),
                        "--seed", str(x["seed"]), "--out", str(out)]
            if ctx.tracer is None:
                cmd = [sys.executable, "-m", "wbary.cli"] + argv
            else:
                spans = out.with_name(out.name + ".spans.jsonl")
                cmd = ([sys.executable, str(HERE / "traced_cli.py"),
                        "--spans", str(spans)] + argv)
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  cwd=ctx.workdir)
            if ctx.tracer is not None:
                ctx.tracer.adopt(spans)
                spans.unlink()
            if proc.returncode == 2:
                raise InstanceFailure(proc.stderr.strip()[-500:])
            summary = None
            if (out / "summary.json").is_file():
                summary = json.loads((out / "summary.json").read_text())
            return {"code": proc.returncode, "summary": summary,
                    "stdout": proc.stdout, "stderr": proc.stderr[-500:]}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check(self, x, out):
        if x["kind"] == "selftest":
            failing = [line.split()[1].rstrip(":")
                       for line in out["stdout"].splitlines()
                       if line.startswith("FAIL")]
            if out["code"] != 3 or failing != KNOWN_SELFTEST_FAILURES:
                return WRONG, (f"selftest exit {out['code']}, failing {failing}, "
                               f"expected 3 and {KNOWN_SELFTEST_FAILURES}")
            return None
        if out["code"] not in (0, 3):
            return WRONG, f"exit {out['code']}: {out['stderr']}"
        summary = out["summary"] or {}
        if out["code"] == 3 or summary.get("ok") is not True:
            return FAILED, f"exit {out['code']}, summary.json {out['summary']}"
        return None


WORKLOADS = {w.name: w for w in (Transport, Density, Cli)}


def get(name: str, size: str = "bench") -> Workload:
    return WORKLOADS[name](size)


class Context:
    """What an instance may need from its worker: a scratch area and a tracer."""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.tracer = None  # set by the worker around traced instances
        self._n = 0

    def fresh_dir(self) -> Path:
        self._n += 1
        path = self.workdir / f"out-{os.getpid()}-{self._n}"
        shutil.rmtree(path, ignore_errors=True)
        return path
