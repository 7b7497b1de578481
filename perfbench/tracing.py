"""Spans around wbary's layer boundaries, and the per-layer metrics from them.

``Tracer.install()`` replaces each traced function with a wrapper in every
loaded ``wbary`` module that binds it, so ``wbary.mmot.pbary_points`` and
``wbary.bounds.pbary_points`` are traced as well as
``wbary.core.pbary_points``; ``uninstall()`` puts the originals back.  A
wrapper records a span (id, parent, name, start, end, failed, counts) in
memory; ``dump`` writes the spans as JSON lines at the end of a run.  Times
come from ``time.monotonic``, one clock for every process on the machine, so
spans written by a CLI subprocess nest under the instance span that started
it (``adopt``).

``layer_metrics`` turns spans into the per-layer metrics.  A span's self
time is its duration minus the time its children cover.  This module
imports neither wbary nor NumPy, so run.py can aggregate spans cheaply.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict


def _tuples(a, out):
    shape = getattr(a["points"], "shape", ())  # (..., N, d)
    return {"tuples": math.prod(shape[:-2]), "p": float(a["p"])}


def _solve_mmot(a, out):
    shape = [mu.n_atoms for mu in a["measures"]]
    return {"lp_vars": math.prod(shape), "support": int(out.n_entries),
            "basis": sum(shape) - len(shape) + 1}


def _general_lq(a, out):
    return {"cells": out.n_cells_first + out.n_cells_curved + out.n_flagged}


# span name -> (module, attribute, counter(bound arguments, result) or None)
TARGETS = {
    "core.pbary_points": ("core", "pbary_points", _tuples),
    "core.pbary_solve": ("core", "pbary_solve", None),
    "core.curvature_blocks": ("core", "curvature_blocks", None),
    "mmot.cost_tensor": ("mmot", "cost_tensor",
                         lambda a, out: {"entries": int(out.values.size)}),
    "mmot.solve_mmot": ("mmot", "solve_mmot", _solve_mmot),
    "mmot.wp_distance": ("mmot", "wp_distance", lambda a, out: {
        "lp_vars": a["mu"].n_atoms * a["nu"].n_atoms}),
    "mmot.barycenter_measure": ("mmot", "barycenter_measure", None),
    "mmot.check_cp_monotone": ("mmot", "check_cp_monotone", lambda a, out: {
        "swaps": out.n_pairs * out.n_patterns}),
    "bounds.local_injectivity_check": (
        "bounds", "local_injectivity_check", lambda a, out: {
            "bases": out.n_bases, "halvings": out.max_halvings_used}),
    "bounds.general_lq_bound": ("bounds", "general_lq_bound", _general_lq),
    "bounds.compute_D": ("bounds", "compute_D", None),
    "semidiscrete.pushforward_density": (
        "semidiscrete", "pushforward_density", lambda a, out: {
            "cells": int(out.density.values.size),
            "singular_cells": out.singular_cells}),
    "semidiscrete.lq_via_changevar": ("semidiscrete", "lq_via_changevar", None),
    "semidiscrete.blowup_exponent": ("semidiscrete", "blowup_exponent", None),
    "semidiscrete.check_bounds_p_lt2": (
        "semidiscrete", "check_bounds_p_lt2", None),
    "affine.spectrum_optimality": ("affine", "spectrum_optimality", None),
    "affine.verify_affine_vs_mmot": ("affine", "verify_affine_vs_mmot", None),
    "grid.build": ("grid", ("uniform_box", "uniform_ball", "radial_bump"), None),
}

# The battery's checks, in wbary.acceptance.ALL_CHECKS order.
CHECK_NAMES = (
    "blowup-threshold-p-gt2",
    "blowup-threshold-p-lt2",
    "quadratic-pushforward-exactness",
    "mmot-equivalence-battery",
    "gradient-finite-difference-battery",
    "unit-lower-bound-p-ge2",
    "stated-band-p-lt2",
    "distant-support-bound-sweep",
    "general-lq-domination",
    "affine-suite",
    "monotonicity-suite",
    "injectivity-battery",
)

# general_lq_bound calls this once for all cells and once per refined cell;
# each call adds one to the enclosing span's "coeff_calls".
COEFF_HOOK = ("bounds", "_cell_coefficients")


class Tracer:
    """Spans in memory, and the wrappers that record them."""

    def __init__(self):
        self.spans = []  # [id, parent, name, start, end, failed, counts]
        self._stack = []
        self._patched = []  # (module, attribute, original)
        self.missing = []

    # -- spans -------------------------------------------------------------

    def open(self, name, counts=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.monotonic(), None, False,
                           counts or {}])
        self._stack.append(sid)
        return sid

    def close(self, sid, failed=False):
        span = self.spans[sid]
        span[4] = time.monotonic()
        span[5] = failed
        self._stack.pop()

    def bump(self, key):
        if self._stack:
            counts = self.spans[self._stack[-1]][6]
            counts[key] = counts.get(key, 0) + 1

    def adopt(self, path):
        """Attach spans written by another process under the open span."""
        parent = self._stack[-1] if self._stack else None
        offset = len(self.spans)
        with open(path) as fh:
            for line in fh:
                sid, par, *rest = json.loads(line)
                self.spans.append([sid + offset,
                                   parent if par is None else par + offset,
                                   *rest])

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    # -- wrappers ----------------------------------------------------------

    def wrap(self, name, fn, counter):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, failed=True)
                raise
            self.close(sid)
            if counter is not None:  # counted outside the span's time
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[sid][6].update(counter(bound.arguments, out))
            return out

        return traced

    def counting(self, fn, key):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.bump(key)
            return fn(*args, **kwargs)

        return counted

    def _patch_everywhere(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "wbary"
                                   or modname.startswith("wbary.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._patched.append((mod, attr, original))

    def install(self):
        """Wrap every target in every loaded wbary module that binds it."""
        self.missing = []
        if "wbary" not in sys.modules:  # e.g. a worker that only spawns CLIs
            return
        for name, (modname, attrs, counter) in TARGETS.items():
            mod = sys.modules.get(f"wbary.{modname}")
            for attr in (attrs,) if isinstance(attrs, str) else attrs:
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.missing.append(f"wbary.{modname}.{attr}")
                    continue
                self._patch_everywhere(fn, self.wrap(name, fn, counter))
        modname, attr = COEFF_HOOK
        fn = getattr(sys.modules.get(f"wbary.{modname}"), attr, None)
        if fn is None:
            self.missing.append(f"wbary.{modname}.{attr}")
        else:
            self._patch_everywhere(fn, self.counting(fn, "coeff_calls"))
        acc = sys.modules.get("wbary.acceptance")
        if acc is not None:
            original = acc.ALL_CHECKS
            acc.ALL_CHECKS = tuple(
                (check, self.wrap(f"acceptance.{check}", fn, None))
                for check, fn in original
            )
            self._patched.append((acc, "ALL_CHECKS", original))

    def uninstall(self):
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def self_times(spans):
    """Self time of each span: its duration minus what its children cover."""
    children = defaultdict(list)
    for sid, parent, _name, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _name, start, end, *_ in spans:
        covered, reach = 0.0, start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out[sid] = (end - start) - covered
    return out


def _regime(p):
    if abs(p - 2.0) <= 1e-12:
        return "p_eq2"
    return "p_lt2" if p < 2.0 else "p_gt2"


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) over all spans."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    failed = defaultdict(int)
    self_s = defaultdict(float)
    total_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(float))
    regime_tuples = defaultdict(float)
    regime_s = defaultdict(float)
    for sid, _parent, name, start, end, fail, c in spans:
        calls[name] += 1
        failed[name] += bool(fail)
        self_s[name] += selfs[sid]
        total_s[name] += end - start
        for key, value in c.items():
            if key != "p":
                counts[name][key] += value
        if name == "core.pbary_points" and "p" in c:
            regime_tuples[_regime(c["p"])] += c["tuples"]
            regime_s[_regime(c["p"])] += selfs[sid]
        if name == "bounds.general_lq_bound" and "coeff_calls" in c:
            counts[name]["refined_cells"] += c["coeff_calls"] - 1

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    pb = "core.pbary_points"
    m[f"{pb}.calls"] = (calls[pb], "count")
    m[f"{pb}.tuples"] = (counts[pb]["tuples"], "count")
    m[f"{pb}.failed"] = (failed[pb], "count")
    m[f"{pb}.self_s"] = (self_s[pb], "s")
    for regime in ("p_lt2", "p_eq2", "p_gt2"):
        m[f"{pb}.{regime}.tuples_per_s"] = (
            rate(regime_tuples[regime], regime_s[regime]), "1/s")
    m["core.pbary_solve.calls"] = (calls["core.pbary_solve"], "count")
    m["core.pbary_solve.self_s"] = (self_s["core.pbary_solve"], "s")
    m["core.curvature_blocks.self_s"] = (self_s["core.curvature_blocks"], "s")
    ct = "mmot.cost_tensor"
    m[f"{ct}.entries"] = (counts[ct]["entries"], "count")
    m[f"{ct}.self_s"] = (self_s[ct], "s")
    sm = "mmot.solve_mmot"
    m[f"{sm}.lp_vars"] = (counts[sm]["lp_vars"], "count")
    m[f"{sm}.support_ratio"] = (
        rate(counts[sm]["support"], counts[sm]["basis"]), "ratio")
    m[f"{sm}.failed"] = (failed[sm], "count")
    m[f"{sm}.self_s"] = (self_s[sm], "s")
    wp = "mmot.wp_distance"
    m[f"{wp}.calls"] = (calls[wp], "count")
    m[f"{wp}.lp_vars"] = (counts[wp]["lp_vars"], "count")
    m[f"{wp}.self_s"] = (self_s[wp], "s")
    m["mmot.barycenter_measure.self_s"] = (
        self_s["mmot.barycenter_measure"], "s")
    cp = "mmot.check_cp_monotone"
    m[f"{cp}.swaps"] = (counts[cp]["swaps"], "count")
    m[f"{cp}.self_s"] = (self_s[cp], "s")
    inj = "bounds.local_injectivity_check"
    m[f"{inj}.bases"] = (counts[inj]["bases"], "count")
    m[f"{inj}.halvings"] = (counts[inj]["halvings"], "count")
    m[f"{inj}.self_s"] = (self_s[inj], "s")
    gl = "bounds.general_lq_bound"
    m[f"{gl}.cells"] = (counts[gl]["cells"], "count")
    m[f"{gl}.refined_cells"] = (counts[gl]["refined_cells"], "count")
    m[f"{gl}.cells_per_s"] = (rate(counts[gl]["cells"], total_s[gl]), "1/s")
    m[f"{gl}.self_s"] = (self_s[gl], "s")
    pf = "semidiscrete.pushforward_density"
    m[f"{pf}.cells"] = (counts[pf]["cells"], "count")
    m[f"{pf}.singular_cells"] = (counts[pf]["singular_cells"], "count")
    m[f"{pf}.self_s"] = (self_s[pf], "s")
    for name in ("semidiscrete.lq_via_changevar", "grid.build",
                 "semidiscrete.blowup_exponent",
                 "semidiscrete.check_bounds_p_lt2", "bounds.compute_D",
                 "affine.spectrum_optimality", "affine.verify_affine_vs_mmot"):
        m[f"{name}.self_s"] = (self_s[name], "s")
    for check in CHECK_NAMES:
        m[f"acceptance.{check}.s"] = (total_s[f"acceptance.{check}"], "s")
    return {k: (float(v), unit) for k, (v, unit) in m.items()}
