"""Command line front end.

Two subcommands:

``wbary run --kind KIND --out DIR [options]``
    Runs one self-contained computation, then writes its deterministic
    artifacts (CSV tables, ``summary.json``, and a ``manifest.json`` with the
    SHA-256 digest of each) into the output directory.  Nothing is written
    before the computation has finished, so a run that fails writes nothing;
    the manifest lists exactly the files the run wrote, and other files in
    the directory are left alone.  Outputs carry no timestamps, so a rerun
    with identical options reproduces identical bytes.

``wbary selftest [--fast]``
    Executes the verification battery and prints one line per check.

Exit codes: 0 on success, 2 on invalid inputs, 3 when a verification
check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import _check_exponent, _check_q, _check_tol
from .errors import WbaryError

# Each runner imports the layers it uses, so a kind loads only those.  It
# sees no path: it returns (summary, tables), tables mapping a file name to
# (header, rows).  main formats every file, digests the text it writes and
# writes them all in one loop; it exits 3 unless the summary's "ok" holds.


def _cell(v) -> str:
    """One table cell as csv.writer writes it: a float as %.17g, anything
    else as str, quoted where it holds a comma, a quote or a line end."""
    if isinstance(v, float):
        return "%.17g" % v
    s = str(v)
    return '"' + s.replace('"', '""') + '"' if any(
        c in s for c in ',"\n') else s


def _csv(header, rows) -> str:
    """A table as csv.writer(fh, lineterminator="\n") writes it, cells as
    _cell gives them.  rows is a sequence of rows or a 2-D float array,
    every row as long as the header; the table is formatted in one pass,
    and an array's cells in one %.17g template."""
    if isinstance(rows, np.ndarray):
        fmt, cells, widths = "%.17g", rows.ravel().tolist(), {rows.shape[1]}
    else:
        fmt, cells = "%s", [_cell(v) for row in rows for v in row]
        widths = set(map(len, rows))
    n = len(header)
    if widths - {n}:
        raise ValueError(f"a row is not {n} cells long")
    line = ",".join([fmt] * n) + "\n"
    return (",".join(map(_cell, header)) + "\n"
            + line * (len(cells) // n) % tuple(cells))


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _run_point_bary(args) -> tuple:
    from .core import _solve_configs

    rng = np.random.default_rng(args.seed)
    n, N, d = 64, 4, 2
    pts = rng.normal(size=(n, N, d))
    w = rng.uniform(0.2, 1.0, N)
    w = w / w.sum()
    rows = []
    worst = 0.0
    sols = _solve_configs(pts, np.broadcast_to(w, (n, N)), args.p, args.tol)
    for k, sol in enumerate(sols):
        rows.append((k, *map(float, sol.z), float(sol.residual_norm),
                     sol.iterations, len(sol.coincident_set)))
        worst = max(worst, sol.residual_norm)
    return {
        "ok": True,
        "p": args.p,
        "n_configs": n,
        "worst_residual": worst,
        "weights": [float(x) for x in w],
    }, {"solutions.csv": (["index"] + [f"z{a}" for a in range(d)]
                          + ["residual", "iterations", "n_coincident"], rows)}


def _run_semidiscrete(args) -> tuple:
    from ._fixtures import _blowup_fixture
    from .semidiscrete import (
        blowup_exponent,
        lq_via_changevar,
        pushforward_density,
    )

    cfg, f1, center, radii = _blowup_fixture(args.p, args.grid)
    pf = pushforward_density(cfg, f1, resolution=args.grid)
    dens = pf.density
    payload = {
        "ok": bool(pf.mass_ok),
        "p": args.p,
        "grid": args.grid,
        "mass": pf.mass,
        "lam1": cfg.lam1,
        "fixed_point": [float(x) for x in cfg.fixed_point],
        "lq_norm_q": args.q,
        "lq_norm": lq_via_changevar(cfg, f1, args.q),
    }
    if args.p != 2.0:
        rep = blowup_exponent(cfg, f1, center, radii)
        payload["blowup_slope"] = rep.slope
        payload["blowup_q0"] = rep.q0
        payload["blowup_q0_theory"] = (
            (args.p - 1.0) / (args.p - 2.0) if args.p > 2.0
            else 1.0 / (2.0 - args.p))
    return payload, {"pushforward.csv": (
        [f"x{a}" for a in range(dens.dim)] + ["value"],
        np.column_stack([dens.centers(), dens.values.ravel()]))}


def _run_mmot(args) -> tuple:
    from .mmot import DiscreteMeasure, check_cp_monotone, verify_c2m_equivalence

    rng = np.random.default_rng(args.seed)
    measures = []
    for _ in range(3):
        K = int(rng.integers(2, 5))
        atoms = rng.normal(size=(K, 2))
        masses = rng.uniform(0.2, 1.0, K)
        measures.append(DiscreteMeasure(atoms, masses / masses.sum()))
    w = rng.uniform(0.2, 1.0, 3)
    w = w / w.sum()
    eq = verify_c2m_equivalence(measures, w, args.p)
    plan, nu = eq.plan, eq.barycenter
    mono = check_cp_monotone(plan.points, plan.weights, plan.p)
    rows = [
        (k, *map(int, plan.indices[k]), float(plan.masses[k]),
         *map(float, plan.barycenters[k]))
        for k in range(len(plan.masses))
    ]
    ok = bool(eq.ok and mono.ok and plan.support_within_basis)
    return {
        "ok": ok,
        "p": args.p,
        "seed": args.seed,
        "objective": plan.objective,
        "equivalence_gap": eq.gap,
        "pair_certificate_gap": max(u - l for l, u in eq.bracket),
        "monotone_margin": mono.min_margin,
        "support_size": len(plan.masses),
        "support_within_basis": bool(plan.support_within_basis),
        "n_barycenter_atoms": nu.n_atoms,
        "lp_rounds": plan.lp_rounds,
        "lp_columns": plan.lp_columns,
        "lp_iterations": plan.lp_iterations,
    }, {
        "plan.csv": (["tuple"] + [f"i{j}" for j in range(3)]
                     + ["mass", "by0", "by1"], rows),
        "barycenter_measure.csv": (
            ["x0", "x1", "mass"],
            [(float(a[0]), float(a[1]), float(m))
             for a, m in zip(nu.atoms, nu.masses)]),
    }


def _run_bounds(args) -> tuple:
    from ._fixtures import _distant_support_sweep

    rows = [tuple(map(float, row)) for row in
            _distant_support_sweep(max(args.grid, 512), args.q)]
    ok = all(norm <= bound for _, norm, bound, _ in rows)
    return {
        "ok": bool(ok),
        "p": 3.0,
        "q": args.q,
    }, {"sweep.csv": (["lam1", "measured", "bound", "separation"], rows)}


def _run_affine(args) -> tuple:
    from ._fixtures import _spectrum_fixture
    from .affine import spectrum_optimality

    optimal, not_optimal = _spectrum_fixture()
    rows = []
    ok = True
    for tag, group, expect in (("optimal", optimal, True),
                               ("other", not_optimal, False)):
        for k, A in enumerate(group):
            v = spectrum_optimality(A)
            ok &= v.optimal == expect
            rows.append((f"{tag}-{k}", A.shape[0], v.optimal,
                         float(v.zeta) if v.zeta is not None else float("nan"),
                         v.reason or ""))
    return {
        "ok": bool(ok),
        "n_matrices": len(rows),
    }, {"spectrum_fixture.csv": (
        ["matrix", "dim", "optimal", "zeta", "reason"], rows)}


def _run_counterexample(args) -> tuple:
    """Exhibit: the r^(2-p) lower envelope fails near the fixed point.

    For p < 2 the gradient eigenvalue gap decays like |Gbar(z)|^beta, i.e.
    r^((2-p)/(p-1)), which is strictly faster than the claimed r^(2-p)
    envelope; the table tracks the measured gap against the claimed lower
    envelope and the valid local-factor one on a radius sweep into the
    fixed point.
    """
    from ._fixtures import _line_config
    from .semidiscrete import check_bounds_p_lt2, grad_b_inverse_eigs

    p = args.p if args.p < 2.0 else 1.5
    cfg = _line_config(p)
    zfix = cfg.fixed_point[0]
    radii = np.geomspace(1e-10, 0.4, 40)
    rows = []
    violated = False
    for r in radii:
        z = np.array([[zfix - r]])
        rep = check_bounds_p_lt2(cfg, z)
        gap = float(grad_b_inverse_eigs(cfg, z).min() - 1.0)
        stated_low = gap - rep.stated_lower_margin
        local_low = gap - rep.local_lower_margin
        violated |= gap < stated_low - 1e-12
        rows.append((float(r), gap, float(stated_low), float(local_low),
                     bool(rep.local_ok)))
    return {
        "ok": True,
        "p": p,
        "fixed_point": float(zfix),
        "claimed_lower_bound_violated": bool(violated),
        "local_band_holds": all(bool(r[4]) for r in rows),
    }, {"exhibit.csv": (["radius", "eig_gap", "claimed_lower",
                         "local_factor_lower", "local_band_holds"], rows)}


_RUNNERS = {
    "point_bary": _run_point_bary,
    "semidiscrete": _run_semidiscrete,
    "mmot": _run_mmot,
    "bounds": _run_bounds,
    "affine": _run_affine,
    "counterexample": _run_counterexample,
}
KINDS = tuple(_RUNNERS)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wbary",
        description="Weighted power-mean barycenters, semidiscrete "
                    "transport maps, and their verification battery.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one computation, write artifacts")
    run.add_argument("--kind", choices=KINDS, required=True)
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--p", type=float, default=3.0,
                     help="power exponent (> 1; within 1e-9 of 2 is 2)")
    run.add_argument("--q", type=float, default=2.0,
                     help="integrability exponent")
    run.add_argument("--grid", type=int, default=128,
                     help="grid resolution per axis")
    run.add_argument("--tol", type=float, default=1e-12,
                     help="solver residual tolerance")
    run.add_argument("--seed", type=int, default=0)

    st = sub.add_parser("selftest", help="run the verification battery")
    st.add_argument("--fast", action="store_true",
                    help="reduced sample sizes, same tolerances")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "selftest":
        from .acceptance import run_all

        results = run_all(fast=args.fast)
        for r in results:
            print(("PASS" if r.ok else "FAIL")
                  + f"  {r.name}: {r.details}  [{r.seconds:.2f} s]")
        n_ok = sum(r.ok for r in results)
        print(f"{n_ok}/{len(results)} checks passed")
        return 0 if n_ok == len(results) else 3

    for name, check in (("p", _check_exponent), ("q", _check_q),
                        ("tol", _check_tol)):
        try:
            setattr(args, name, check(getattr(args, name)))
        except WbaryError as exc:
            print(f"error: --{name}: {exc}", file=sys.stderr)
            return 2
    if args.seed < 0:
        print(f"error: --seed: must be non-negative, got {args.seed}",
              file=sys.stderr)
        return 2
    if args.grid < 8 or args.grid > 4096:
        print("error: --grid out of range [8, 4096]", file=sys.stderr)
        return 2

    outdir = Path(args.out)
    # The nearest existing ancestor (a relative path ends at "."; a dangling
    # link exists) must be a directory, or mkdir below would fail after the
    # whole computation.
    if not next(d for d in (outdir, *outdir.parents)
                if d.exists() or d.is_symlink()).is_dir():
        print("error: --out: not a directory", file=sys.stderr)
        return 2
    try:
        summary, tables = _RUNNERS[args.kind](args)
    except WbaryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    texts = {name: _csv(*table) for name, table in tables.items()}
    texts["summary.json"] = _json(summary)
    texts["manifest.json"] = _json({
        "version": __version__,
        "kind": args.kind,
        "params": {
            "kind": args.kind, "p": args.p, "q": args.q, "grid": args.grid,
            "tol": args.tol, "seed": args.seed,
        },
        "files": {name: hashlib.sha256(text.encode()).hexdigest()
                  for name, text in texts.items()},
    })
    outdir.mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        with open(outdir / name, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 0 if summary["ok"] else 3


if __name__ == "__main__":
    sys.exit(main())
