"""Solver and derivative tests for the weighted point barycenter."""

import ast
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wbary
from wbary import (
    AffineMap,
    BarycenterSolution,
    ConvergenceError,
    DiracConfiguration,
    DiscreteMeasure,
    GridDensity,
    ValidationError,
    WeightedPointConfig,
    affine_barycenter,
    alpha_exponent,
    b_inverse,
    beta_exponent,
    check_bounds_p_ge2,
    check_cp_monotone,
    curvature_blocks,
    dbary_dxi,
    el_residual,
    pbary_points,
    pbary_solve,
    solve_mmot,
    wp_distance,
)
from wbary.core import (
    _diameters,
    _eval_batch,
    _solve_batch,
    _solve_configs,
    curvature_kernel,
    mixed_spectrum,
)
from wbary.semidiscrete import _anchor_field


def test_weighted_mean_p2():
    z = pbary_points(np.array([[0.0], [1.0], [3.0]]), [0.2, 0.3, 0.5], 2.0)
    assert z.shape == (1,)
    assert z[0] == pytest.approx(1.8, abs=1e-15)


def test_two_point_closed_form_p3():
    # interpolation parameter w2^(1/(p-1)) / (w1^(1/(p-1)) + w2^(1/(p-1)))
    z = pbary_points(np.array([[0.0], [1.0]]), [0.25, 0.75], 3.0)
    expect = np.sqrt(3.0) / (1.0 + np.sqrt(3.0))
    assert z[0] == pytest.approx(expect, rel=1e-14)


def test_el_residual_worked_example():
    # two points at 1 and 2 with raw weights 1/3 each, p=3, z=0
    r = el_residual(np.array([[1.0], [2.0]]), [1 / 3, 1 / 3], 3.0,
                    np.array([0.0]))
    assert r[0] == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_el_residual_continuous_limit_at_atom():
    """The term of a point coinciding with z vanishes for every p > 1."""
    pts = np.array([[0.0], [1.0]])
    for p in (1.5, 2.0, 3.0):
        r = el_residual(pts, [0.5, 0.5], p, np.array([0.0]))
        assert r[0] == pytest.approx(0.5, rel=1e-14)


def test_solution_meets_residual_criterion():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(5, 3))
    w = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
    for p in (1.5, 2.0, 2.5, 4.0):
        cfg = WeightedPointConfig(pts, w, p)
        sol = pbary_solve(cfg, tol=1e-12)
        assert isinstance(sol, BarycenterSolution)
        scale = w.max() * cfg.diameter ** (p - 1.0)
        assert sol.residual_norm <= 1e-12 * scale


def test_batch_shapes():
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(7, 4, 2))
    w = np.full(4, 0.25)
    z = pbary_points(pts, w, 3.0)
    assert z.shape == (7, 2)
    res = np.array([
        np.linalg.norm(el_residual(pts[k], w, 3.0, z[k])) for k in range(7)
    ])
    diam = np.linalg.norm(
        pts[:, :, None, :] - pts[:, None, :, :], axis=3
    ).max(axis=(1, 2))
    assert (res <= 1e-10 * 0.25 * diam ** 2).all()


def test_empty_inputs():
    """A tuple of zero points has no barycenter and raises; an empty batch
    of tuples returns an empty (0, d) array on every route."""
    with pytest.raises(ValidationError, match="N >= 1"):
        pbary_points(np.zeros((0, 2)), [], 3.0)
    with pytest.raises(ValidationError, match="N >= 1"):
        pbary_points(np.zeros((5, 0, 2)), [], 3.0)
    for p in (1.5, 2.0, 3.0):
        z = pbary_points(np.zeros((0, 3, 2)), [0.2, 0.3, 0.5], p)
        assert z.shape == (0, 2)


def test_translation_and_scaling_equivariance():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(4, 2))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    z = pbary_points(pts, w, 2.5)
    shift = np.array([3.0, -1.0])
    z_shift = pbary_points(pts + shift, w, 2.5)
    np.testing.assert_allclose(z_shift, z + shift, atol=1e-11)
    z_scaled = pbary_points(2.5 * pts, w, 2.5)
    np.testing.assert_allclose(z_scaled, 2.5 * z, atol=1e-11)


def test_rotation_equivariance():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(4, 2))
    w = np.array([0.4, 0.3, 0.2, 0.1])
    c, s = np.cos(0.7), np.sin(0.7)
    R = np.array([[c, -s], [s, c]])
    z = pbary_points(pts, w, 3.0)
    z_rot = pbary_points(pts @ R.T, w, 3.0)
    np.testing.assert_allclose(z_rot, R @ z, atol=1e-11)


def test_permutation_invariance():
    pts = np.array([[0.0, 0.0], [1.0, 0.5], [-0.5, 2.0]])
    w = np.array([0.5, 0.3, 0.2])
    perm = [2, 0, 1]
    z1 = pbary_points(pts, w, 2.5)
    z2 = pbary_points(pts[perm], w[perm], 2.5)
    np.testing.assert_allclose(z1, z2, atol=1e-12)


def test_gradients_sum_to_identity():
    pts = np.array([[0.3, -0.2], [1.0, 0.8], [-0.9, 0.4]])
    w = np.array([0.5, 0.25, 0.25])
    cfg = WeightedPointConfig(pts, w, 3.0)
    S = sum(dbary_dxi(cfg, i) for i in range(3))
    np.testing.assert_allclose(S, np.eye(2), atol=1e-12)


def test_curvature_blocks_symmetric_pair():
    """Two points at +-2 with equal weight, p=4: H_i = 6, Lambda_i = 3."""
    cfg = WeightedPointConfig(np.array([[-2.0], [2.0]]), [0.5, 0.5], 4.0)
    blocks = curvature_blocks(cfg, z=np.array([0.0]))
    np.testing.assert_allclose(blocks.H[0], [[6.0]], rtol=1e-14)
    np.testing.assert_allclose(blocks.Hbar, [[12.0]], rtol=1e-14)
    np.testing.assert_allclose(blocks.Lambda, [3.0, 3.0], rtol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lambda_matches_dense_oracle(p, d):
    """Lambda_i from the batched helper equals the smallest eigenvalue of
    H_i Hbar^{-1} H_i, formed densely, for every block of every entry."""
    rng = np.random.default_rng(int(10 * p) + d)
    pts = rng.normal(size=(5, 4, d))
    w = rng.uniform(0.2, 1.0, 4)
    w = w / w.sum()
    z = pbary_points(pts, w, p)
    H, _, _ = curvature_kernel(pts - z[:, None, :], w, p)
    lam, norms, pd = mixed_spectrum(H)
    assert pd.all()
    for k in range(5):
        Hbar = H[k].sum(axis=0)
        for i in range(4):
            M = H[k, i] @ np.linalg.inv(Hbar) @ H[k, i]
            oracle = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
            assert lam[k, i] == pytest.approx(oracle, rel=1e-10)
            assert norms[k, i] == pytest.approx(
                np.abs(np.linalg.eigvalsh(H[k, i])).max(), rel=1e-12)
    cb = curvature_blocks(WeightedPointConfig(pts[0], w, p), z=z[0])
    np.testing.assert_array_equal(cb.Lambda, lam[0])


def test_curvature_kernel_limit_at_coincident_point():
    """At r = 0 the block is 0 for p > 2, w_i Id at p = 2, capped for p < 2;
    entries whose Hbar is singular get Lambda = 0 and norm = inf."""
    rvec = np.array([[[0.0, 0.0], [1.0, 0.0]]])
    w = np.array([0.25, 0.75])
    for p, expect in [(3.0, 0.0), (2.0, 0.25), (1.5, 0.25e300)]:
        H, r, _ = curvature_kernel(rvec, w, p)
        np.testing.assert_array_equal(H[0, 0], expect * np.eye(2))
        assert r.tolist() == [[0.0, 1.0]]
    lam, norms, pd = mixed_spectrum(np.zeros((2, 3, 2, 2)))
    assert not pd.any() and (lam == 0.0).all() and (norms == np.inf).all()


def test_atom_locked_minimizer():
    """Symmetric p<2 case whose minimizer is exactly the middle atom."""
    cfg = WeightedPointConfig(
        np.array([[-1.0], [0.0], [1.0]]), [0.25, 0.5, 0.25], 1.5
    )
    sol = pbary_solve(cfg)
    assert sol.z[0] == 0.0
    assert sol.coincident_set == (1,)
    assert sol.residual_norm <= 1e-12


def test_all_points_equal():
    cfg = WeightedPointConfig(
        np.array([[1.0, 2.0]] * 3), [0.5, 0.3, 0.2], 2.5
    )
    sol = pbary_solve(cfg)
    np.testing.assert_allclose(sol.z, [1.0, 2.0])
    assert sol.coincident_set == (0, 1, 2)


def test_near_one_exponent_unreachable():
    """p close to 1 can need a step below the atom's float spacing.

    Here the minimizer sits about 1e-19 from the atom at 1.0 while the
    spacing of doubles near 1.0 is 2.2e-16, so no representable point can
    meet the tolerance and the solver must say so rather than return a
    bad point silently.
    """
    cfg = WeightedPointConfig(
        np.array([[1.0], [2.0], [3.0]]), [0.9, 0.07, 0.03], 1.05
    )
    with pytest.raises(ConvergenceError) as err:
        pbary_solve(cfg, tol=1e-12)
    assert err.value.best is not None
    assert err.value.residual is not None


def test_tiny_diameter_far_from_origin_unreachable():
    """A p = 3 tuple of diameter 1.66e-4 at |z| ~ 1.70 (from perfbench's
    transport workload, seed 2608) needs z finer than the float spacing.

    Its tolerance tol * max(w) * diam^(p-1) is 9.9e-21, while one ulp of z
    moves the residual by about 2.9e-20, so the residual changes sign
    between two neighbouring doubles that both miss the tolerance and the
    solver raises.  Translated by its first atom, the same tuple converges,
    to that z after translating back.  A solver that works in a frame
    translated to the tuple makes the first half of this test fail.
    """
    x = np.array([[1.7024872386931444], [1.702378556987509],
                  [1.7023213132986155]])
    w = np.array([0.33664894393023204, 0.304237275830876,
                  0.35911378023889196])
    with pytest.raises(ConvergenceError) as err:
        pbary_points(x, w, 3.0)
    z = float(err.value.best[0, 0])
    # The iterates come from libm powers, so allow one ulp between platforms.
    assert abs(z - 1.7024015428074437) <= np.spacing(z)
    tol_abs = 1e-12 * w.max() * float(np.ptp(x)) ** 2
    below = el_residual(x, w, 3.0, [np.nextafter(z, -np.inf)])[0]
    at = el_residual(x, w, 3.0, [z])[0]
    assert below > tol_abs and at < -tol_abs
    translated = float((pbary_points(x - x[0], w, 3.0) + x[0])[0])
    assert abs(translated - z) <= np.spacing(z)


def test_validation_errors():
    pts = np.array([[0.0], [1.0]])
    with pytest.raises(ValidationError):
        WeightedPointConfig(pts, [0.5, 0.6], 2.0)  # weights sum != 1
    with pytest.raises(ValidationError):
        WeightedPointConfig(pts, [1.0, 0.0], 2.0)  # nonpositive weight
    with pytest.raises(ValidationError):
        WeightedPointConfig(pts, [0.5, 0.5], 1.0)  # exponent at 1
    with pytest.raises(ValidationError):
        WeightedPointConfig(np.array([[np.nan], [1.0]]), [0.5, 0.5], 2.0)


def test_pbary_points_rejects_bad_inputs():
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        pbary_points(tri, [2.0, -0.5, -0.5], 3.0)  # negative weights
    with pytest.raises(ValidationError):
        pbary_points(tri, [0.5, 0.5, 0.0], 3.0)  # zero weight
    with pytest.raises(ValidationError):
        pbary_points(tri, [0.5, np.nan, 0.5], 3.0)
    with pytest.raises(ValidationError):
        pbary_points(tri, [0.5, np.inf, 0.5], 3.0)
    bad = np.array([tri, tri])
    bad[1, 2, 1] = np.nan
    with pytest.raises(ValidationError):
        pbary_points(bad, [0.4, 0.3, 0.3], 1.5)
    bad[1, 2, 1] = -np.inf
    with pytest.raises(ValidationError):
        pbary_points(bad, [0.4, 0.3, 0.3], 3.0)
    # A tolerance that is not finite and positive: nan and inf returned the
    # weighted mean unchecked, 0 and -1 spun MAX_ITER steps.
    cfg = WeightedPointConfig(tri, [0.4, 0.3, 0.3], 3.0)
    for tol in (np.nan, np.inf, 0.0, -1.0):
        with pytest.raises(ValidationError):
            pbary_points(tri, [0.4, 0.3, 0.3], 3.0, tol=tol)
        with pytest.raises(ValidationError):
            pbary_solve(cfg, tol=tol)


def test_pbary_points_rejects_weights_not_summing_to_one():
    """Unit weights on (0,0), (2,0), (0,2) would give sum_i w_i x_i = (2, 2)
    on the p = 2 route and (2/3, 2/3) on the scale-invariant Newton route;
    both raise, as do weight rows of a batch, and the raw-points route of
    check_cp_monotone."""
    tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    for p in (2.0, 3.0):
        with pytest.raises(ValidationError, match="sum to 1"):
            pbary_points(tri, [1.0, 1.0, 1.0], p)
    np.testing.assert_allclose(pbary_points(tri, np.full(3, 1 / 3), 2.0),
                               [2 / 3, 2 / 3], rtol=1e-15)
    rows = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.6]])
    with pytest.raises(ValidationError, match="sum to 1"):
        pbary_points(np.array([tri, tri]), rows, 3.0)
    with pytest.raises(ValidationError, match="sum to 1"):
        check_cp_monotone(np.array([tri[:2], tri[1:]]), weights=[1.0, 1.0],
                          p=2.0)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_identical_points_return_the_point_exactly(p, N):
    """All points equal: the barycenter is that point, bit for bit, for a
    lone point, on the p = 2 and N = 2 closed-form routes, and on the Newton
    route."""
    rng = np.random.default_rng(5)
    x = rng.normal(size=(400, 1, 2)) * 10.0 ** rng.integers(-3, 4, (400, 1, 1))
    w = rng.uniform(0.2, 1.0, N)
    z = pbary_points(np.repeat(x, N, axis=1), w / w.sum(), p)
    assert np.array_equal(z, x[:, 0])


def test_weight_rule_is_shared():
    """Every family constructor applies the same weight rule; a NaN weight
    used to slip through the sum and sign tests of the last three."""
    nan_w = [np.nan, 0.5, 0.5]
    pts = np.array([[0.0], [1.0], [3.0]])
    measures = [DiscreteMeasure(a, [1.0]) for a in pts]
    maps = [AffineMap([[1.0]], a) for a in pts]
    for weights in (nan_w, [0.5, 0.5], [0.6, 0.6, -0.2], [0.3, 0.3, 0.3]):
        with pytest.raises(ValidationError):
            WeightedPointConfig(pts, weights, 3.0)
        with pytest.raises(ValidationError):
            DiracConfiguration([[1.0], [2.0]], weights, 3.0)
        with pytest.raises(ValidationError):
            solve_mmot(measures, weights, 3.0)
        with pytest.raises(ValidationError):
            affine_barycenter(maps, weights, 3.0)


@pytest.mark.parametrize("p", [2.0 - 5e-10, 2.0 + 5e-10])
def test_exponent_within_tolerance_of_2_is_2(p):
    """An exponent within core.P2_TOL of 2 is validated to exactly 2.0, so
    every result below carries the bits of the p = 2 result, and the p >= 2
    eigenvalue bounds hold with the zero margins of p = 2."""
    def bits(x):
        return np.asarray(x, dtype=float).tobytes()

    def results(p):
        cfg = DiracConfiguration(np.array([[0.8, 0.1], [-0.7, -0.25]]),
                                 [0.4, 0.3, 0.3], p)
        zs = np.random.default_rng(8).uniform(-1, 1, (50, 2))
        rng = np.random.default_rng(9)
        mu, nu = (DiscreteMeasure(rng.normal(size=(3, 2)), [0.2, 0.3, 0.5])
                  for _ in range(2))
        rep = check_bounds_p_ge2(cfg, zs)
        assert rep.ok
        return {
            "p": bits(cfg.p),
            "alpha": bits(cfg.alpha),
            "b_inverse": bits(b_inverse(cfg, zs)),
            "el_residual": bits(el_residual(rng.normal(size=(4, 2)),
                                            [0.1, 0.2, 0.3, 0.4], p,
                                            np.array([0.3, -0.2]))),
            "wp_distance": bits(wp_distance(mu, nu, p)),
            "mmot": bits(solve_mmot([mu, nu], np.array([0.5, 0.5]),
                                    p).objective),
            "bounds": {k: bits(v) for k, v in vars(rep).items()},
        }

    assert results(p) == results(2.0)


def test_p2_tolerance_is_named_once():
    """P2_TOL is named only in core.py, where it is defined and in
    _check_exponent: the decision which p counts as 2 is made in one place,
    and no other module compares p with 2 up to a tolerance."""
    uses = []
    for path in sorted(Path(wbary.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            uses += [
                (path.name, owner) for node in ast.walk(top)
                if "P2_TOL" in (getattr(node, "id", None),
                                getattr(node, "attr", None),
                                getattr(node, "name", None),
                                getattr(node, "asname", None))
            ]
    assert uses == [("core.py", "<module>"), ("core.py", "_check_exponent")]


def test_package_names_resolve_on_use():
    """The 71 public names are listed by dir(wbary), each resolves to the
    object its defining submodule holds, and none is stored in the package
    namespace, so a function patched in its submodule is what wbary.X
    returns; any other name raises AttributeError."""
    assert len(wbary.__all__) == 71
    assert set(dir(wbary)) >= set(wbary.__all__)
    for name in wbary.__all__:
        obj = getattr(wbary, name)
        assert obj.__module__.startswith("wbary."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert not set(vars(wbary)) & set(wbary.__all__)
    with pytest.raises(AttributeError):
        wbary.no_such_name


def test_package_exports_no_modules():
    modules = [name for name in wbary.__all__
               if isinstance(getattr(wbary, name), types.ModuleType)]
    assert modules == []


# Public names with no consumer in src/wbary or perfbench, kept as the
# reference oracles or inputs named by the phrase their docstring must hold.
_UNCONSUMED = {
    "gbar": "reference oracle",
    "el_residual": "reference oracle",
    "compute_m": "integrability_bound",
}


def test_every_public_name_has_a_consumer():
    """Every name in wbary.__all__ is referenced in some module of src/wbary
    outside its own top-level definition, or in perfbench, or is one of the
    few names kept without a consumer for the reason its docstring states."""
    used = set()
    for path in Path(wbary.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            used |= {
                getattr(node, "id", None) or getattr(node, "attr", None)
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))
            } - {getattr(top, "name", None)}
    bench = list((Path(__file__).resolve().parents[1] / "perfbench")
                 .glob("*.py"))
    assert bench
    text = "\n".join(path.read_text() for path in bench)
    unused = sorted(name for name in wbary.__all__ if name not in used
                    and not re.search(rf"\b{name}\b", text))
    assert unused == sorted(_UNCONSUMED)
    for name, reason in _UNCONSUMED.items():
        assert reason in getattr(wbary, name).__doc__, name


_UNREAD = {
    ("CheckResult", "metrics"): "battery numbers asserted by "
                                "tests/test_acceptance.py",
    ("CurvatureBlocks", "Lambda"): "the paper's Λ_i, checked against a "
                                   "dense oracle",
    ("TransportPlan", "marginal_residual"): "ROADMAP item 10's LP record",
    ("TransportPlan", "maybe_degenerate"): "ROADMAP item 10's LP record",
    ("AffineBarycenterResult", "transport"): "the family's optimal map",
    ("BlowupReport", "radii_used"): "the data the slope is fitted to",
    ("BlowupReport", "means"): "the data the slope is fitted to",
    ("InjectivityReport", "min_radius"): "pinned by "
                                         "test_injectivity_pinned_report",
    ("EigBoundReportPLt2", "stated_ok"): "the stated band's verdict",
}


def test_every_result_field_has_a_reader():
    """Every annotated field, property and public method of a public
    dataclass in src/wbary is read somewhere: its name is the attribute of
    a load in some module of src/wbary, or `.name` occurs in perfbench.
    The match is by name only, so a name that two classes share (such as
    `ok`) counts as read for both once either is read; the few members kept
    unread are listed with their reasons in _UNREAD."""
    trees = [ast.parse(path.read_text())
             for path in Path(wbary.__file__).parent.glob("*.py")]
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Load)}
    bench = list((Path(__file__).resolve().parents[1] / "perfbench")
                 .glob("*.py"))
    assert bench
    text = "\n".join(path.read_text() for path in bench)
    members = []
    for tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef)
                    and not cls.name.startswith("_")
                    and any("dataclass" in ast.unparse(dec)
                            for dec in cls.decorator_list)):
                continue
            for node in cls.body:
                if (isinstance(node, ast.AnnAssign)
                        and isinstance(node.target, ast.Name)):
                    members.append((cls.name, node.target.id))
                elif (isinstance(node, ast.FunctionDef)
                      and not node.name.startswith("_")):
                    members.append((cls.name, node.name))
    assert members
    unread = sorted((cls, name) for cls, name in members
                    if name not in loaded and f".{name}" not in text)
    assert unread == sorted(_UNREAD)


def test_exponent_helpers():
    assert alpha_exponent(3.0) == pytest.approx(0.5)
    assert alpha_exponent(2.0) == 0.0
    assert beta_exponent(1.5) == pytest.approx(1.0)
    assert beta_exponent(1.2) == pytest.approx(4.0)
    for p in (1.3, 1.9, 2.4, 5.0):
        assert beta_exponent(p) == -alpha_exponent(p)
    # p goes through _check_exponent, as in DiracConfiguration.
    for p in (2.0 - 5e-10, 2.0 + 5e-10):
        assert alpha_exponent(p) == DiracConfiguration(
            [[1.0]], [0.5, 0.5], p).alpha == 0.0
        assert beta_exponent(p) == 0.0
    for p in (0.5, 1.0, float("nan")):
        for helper in (alpha_exponent, beta_exponent):
            with pytest.raises(ValidationError):
                helper(p)


def test_validated_inputs_are_private_copies():
    """Writing to the caller's arrays after construction, or to the stored
    ones, changes no validated object."""
    pts, w = np.array([[0.0, 1.0], [2.0, -1.0]]), np.array([0.3, 0.7])
    box, values = np.array([[0.0, 1.0]]), np.array([1.0, 3.0])
    A, v = np.eye(2), np.array([1.0, 2.0])
    atoms, masses = np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0.4, 0.6])
    anchors, dw = np.array([[1.0], [2.0]]), np.array([0.4, 0.3, 0.3])
    config = WeightedPointConfig(pts, w, 3.0)
    density = GridDensity(box, values)
    T = AffineMap(A, v)
    mu = DiscreteMeasure(atoms, masses)
    cfg = DiracConfiguration(anchors, dw, 3.0)
    stored = [config.points, config.weights, density.box, density.values,
              T.A, T.v, mu.atoms, mu.masses, cfg.anchors, cfg.weights]
    before = [a.copy() for a in stored]
    for a in (pts, w, box, values, A, v, atoms, masses, anchors, dw):
        a += 5.0
    for a, b in zip(stored, before):
        np.testing.assert_array_equal(a, b)
        with pytest.raises(ValueError):
            a[...] = 0.0


def test_setflags_is_called_only_in_array():
    """Every validated array is frozen by core._array, the one place that
    decides what a valid input array is."""
    calls = []
    for path in sorted(Path(wbary.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            calls += [
                (path.name, getattr(top, "name", "<module>"))
                for node in ast.walk(top)
                if getattr(node, "attr", None) == "setflags"
            ]
    assert calls == [("core.py", "_array")]


def test_lengths_go_through_length():
    """core._length is the one Euclidean length kernel: np.linalg.norm is
    called only in the reference oracle el_residual and in the
    finite-difference battery's two error norms, and no square root outside
    _length is taken of a hand-written sum of squares."""
    def sum_of_squares(node):
        return any(
            (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
             and getattr(n.right, "value", None) == 2)
            or (isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1]
                in ("sum", "einsum", "dot", "inner", "vdot"))
            for n in ast.walk(node)
        )

    norms, roots = [], []
    for path in sorted(Path(wbary.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            where = (path.name, getattr(top, "name", "<module>"))
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = ast.unparse(node.func)
                    if func == "norm" or func.endswith(".norm"):
                        norms.append(where)
                    elif func.endswith("sqrt") and sum_of_squares(node):
                        roots.append(where)
                elif (isinstance(node, ast.BinOp)
                      and isinstance(node.op, ast.Pow)
                      and getattr(node.right, "value", None) == 0.5
                      and sum_of_squares(node.left)):
                    roots.append(where)
    assert norms == [
        ("acceptance.py", "gradient_finite_difference_battery"),
        ("acceptance.py", "gradient_finite_difference_battery"),
        ("core.py", "el_residual"),
    ]
    assert roots == [("core.py", "_length")]


def test_the_field_is_formed_in_one_kernel():
    """core._field is the one field kernel: _radial is called only by it and
    by curvature_kernel, and curvature_kernel, the only code that forms
    per-point blocks, only where the blocks themselves are needed."""
    calls = {"_radial": [], "curvature_kernel": []}
    for path in sorted(Path(wbary.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func) in calls):
                    calls[ast.unparse(node.func)].append(
                        (path.name, getattr(top, "name", "<module>")))
    assert calls == {
        "_radial": [("core.py", "_field"), ("core.py", "curvature_kernel")],
        "curvature_kernel": [("bounds.py", "_tuple_classes"),
                             ("core.py", "curvature_blocks")],
    }


def test_the_explicit_eigenvalue_bound_is_formed_once():
    """semidiscrete._explicit_upper is the one place the explicit eigenvalue
    bound 1 + C_p ((1-lam1)/lam1)^(1-alpha) ratio^(p-2) is formed: only it
    calls nonsharp_constant in src/wbary, and only the battery's bound check
    and the distant-support L^q bound call it."""
    calls = {"nonsharp_constant": [], "_explicit_upper": []}
    for path in sorted(Path(wbary.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func) in calls):
                    calls[ast.unparse(node.func)].append(
                        (path.name, getattr(top, "name", "<module>")))
    assert calls == {
        "nonsharp_constant": [("semidiscrete.py", "_explicit_upper")],
        "_explicit_upper": [("bounds.py", "integrability_bound"),
                            ("semidiscrete.py", "check_bounds_p_ge2")],
    }


def test_density_is_measured_by_one_rule():
    """semidiscrete._preimage_masses is the one density rule: in semidiscrete
    only it calls _cell_values and np.linalg.det, only pushforward_density
    and blowup_exponent call it, and neither of those two forms grad b^{-1}
    through _inverse_jacobian."""
    calls = {"_cell_values": set(), "np.linalg.det": set(),
             "_preimage_masses": set(), "_inverse_jacobian": set()}
    path = Path(wbary.__file__).parent / "semidiscrete.py"
    for top in ast.parse(path.read_text()).body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) in calls):
                calls[ast.unparse(node.func)].add(
                    getattr(top, "name", "<module>"))
    assert calls["_cell_values"] == {"_preimage_masses"}
    assert calls["np.linalg.det"] == {"_preimage_masses"}
    assert calls["_preimage_masses"] == {"pushforward_density",
                                         "blowup_exponent"}
    assert not calls["_inverse_jacobian"] & calls["_preimage_masses"]


def _invalid_input_cases():
    nan = np.nan
    f1 = wbary.uniform_box([[0.0, 1.0]], 8)
    dirac = DiracConfiguration([[1.0], [2.0]], [1 / 3] * 3, 3.0)
    dirac2 = DiracConfiguration([[0.8, 0.1], [-0.7, -0.25]], [0.4, 0.3, 0.3],
                                3.0)
    f2 = wbary.uniform_box([[-1.5, 1.5]] * 2, 32)
    config = WeightedPointConfig([[0.0], [1.0]], [0.5, 0.5], 3.0)
    plane = WeightedPointConfig([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                                [0.4, 0.3, 0.3], 3.0)
    mu = DiscreteMeasure([[0.0]], [1.0])
    line = np.array([[0.0], [1.0], [2.0]])
    return {
        "spectrum-nan": lambda: wbary.spectrum_optimality([[nan, 0], [0, 1]]),
        "p-transform-nan-value": lambda: wbary.p_transform(line, [0, nan, 0], 2),
        "p-transform-empty": lambda: wbary.p_transform(np.zeros((0, 1)), [], 2),
        "p-transform-eval-dim": lambda: wbary.p_transform(
            np.eye(2), [0, 0], 2, eval_points=[[0.5]]),
        "concavity-no-interior": lambda: wbary.p_concavity_check(
            [[0.0], [1.0]], [0, 0], 2),
        "lq-norm-nan": lambda: f1.lq_norm(nan),
        "lq-norm-inf": lambda: f1.lq_norm(np.inf),
        "lq-norm-one": lambda: f1.lq_norm(1.0),
        "lq-norm-half": lambda: f1.lq_norm(0.5),
        "integrability-nan-D": lambda: wbary.integrability_bound(
            1, 2, 3, 0.5, 1, D=nan),
        "integrability-nan-dim": lambda: wbary.integrability_bound(
            1, 2, 3, 0.5, nan, D=1),
        "injectivity-empty": lambda: wbary.local_injectivity_check(
            np.zeros((0, 2, 1)), [0.5, 0.5], 2),
        "monotone-2d": lambda: check_cp_monotone(np.zeros((2, 2)),
                                                 [0.5, 0.5], 2),
        "uniform-box-no-cells": lambda: wbary.uniform_box([[0, 1]], 0),
        "pushforward-no-cells": lambda: wbary.pushforward_density(
            dirac, f1, resolution=0),
        "evaluate-nan": lambda: f1.evaluate([[nan]]),
        "evaluate-short-point": lambda: f2.evaluate([[0.5]]),
        "grid-nan-box": lambda: GridDensity([[0, nan]], [1.0, 1.0]),
        "blowup-nan-center": lambda: wbary.blowup_exponent(
            dirac, f1, [nan], np.geomspace(1e-6, 1e-4, 8)),
        "blowup-short-center": lambda: wbary.blowup_exponent(
            dirac2, f2, [0.05], np.geomspace(1e-6, 1e-4, 8)),
        "homogeneous-nan": lambda: wbary.homogeneous_transform_coefficient(
            nan, 3),
        "homogeneous-minus-inf": (
            lambda: wbary.homogeneous_transform_coefficient(-np.inf, 3)),
        "curvature-nan-z": lambda: curvature_blocks(config, z=[nan]),
        "curvature-short-z": lambda: curvature_blocks(plane, z=[0.5]),
        "jacobian-nan": lambda: wbary.jacobian_det(dirac, [nan]),
        "general-lq-no-maps": lambda: wbary.general_lq_bound(
            f1, [], [1.0], 3, 2),
        "compute-D-one-measure": lambda: wbary.compute_D([mu], [1.0], 3),
        "compute-m-mixed-dims": lambda: wbary.compute_m(
            [mu, DiscreteMeasure([[0.0, 1.0]], [1.0])], [0.5, 0.5], 3),
        "affine-nan": lambda: AffineMap([[nan]], [0]),
        "pbary-one-axis": lambda: pbary_points([1.0, 2.0], [0.5, 0.5], 3),
        "affine-apply-nan": lambda: AffineMap([[1]], [0]).apply([[nan]]),
        "affine-apply-dim": lambda: AffineMap(np.eye(2), [0, 0]).apply(
            [[1, 2, 3]]),
        "b-inverse-0d-in-2d": lambda: b_inverse(dirac2, 0.3),
        "constant-maps-dim": lambda: wbary.general_lq_bound(
            f2, wbary.constant_maps([[2.0]]), [0.5, 0.5], 3, 2),
        "integrability-nan-norm": lambda: wbary.integrability_bound(
            nan, 2, 3, 0.5, 1, D=1.0),
        "integrability-nan-M": lambda: wbary.integrability_bound(
            1, 2, 3, 0.5, 1, D=1.0, M=nan),
        "integrability-M-below-D": lambda: wbary.integrability_bound(
            1, 2, 3, 0.5, 1, D=1.0, M=0.5),
        "integrability-missing-M": lambda: wbary.integrability_bound(
            1, 2, 3, 0.5, 1, D=1.0),
        "curvature-column-z": lambda: curvature_blocks(
            plane, z=[[0.3], [0.3]]),
        "ball-column-center": lambda: wbary.uniform_ball(
            [[0.0], [0.0]], 0.5, resolution=8),
        "bump-column-center": lambda: wbary.radial_bump(
            [[0.0], [0.0]], 0.5, resolution=8),
        "blowup-column-center": lambda: wbary.blowup_exponent(
            dirac2, f2, [[0.05], [0.05]], np.geomspace(1e-6, 1e-4, 8)),
        "blowup-negative-radius": lambda: wbary.blowup_exponent(
            dirac2, f2, dirac2.fixed_point, -np.geomspace(1e-6, 1e-4, 8)),
        "blowup-zero-radius": lambda: wbary.blowup_exponent(
            dirac2, f2, [0.05, 0.05], np.r_[0.0, np.geomspace(1e-6, 1e-4, 7)]),
    }


@pytest.mark.parametrize("case", sorted(_invalid_input_cases()))
def test_invalid_inputs_raise_a_package_error(case):
    """Invalid arrays, NaN scalars, empty inputs and families of one raise a
    WbaryError subclass: none returns a value, warns or raises a bare NumPy
    error."""
    with pytest.raises(wbary.WbaryError):
        _invalid_input_cases()[case]()


def _point_functions(d):
    """Every function that evaluates at a batch of points in R^d: name ->
    (f, per-point output shape), None for a report over the whole batch."""
    rng = np.random.default_rng(d)
    anchors = [[1.0], [2.0]] if d == 1 else [[0.8, 0.1], [-0.7, -0.25]]
    cfg3 = DiracConfiguration(anchors, [0.4, 0.3, 0.3], 3.0)
    cfg15 = DiracConfiguration(anchors, [0.4, 0.3, 0.3], 1.5)
    density = GridDensity([[-1.0, 1.0]] * d, rng.uniform(size=(4,) * d))
    T = AffineMap(rng.normal(size=(d, d)), rng.normal(size=d))
    sample, phi = rng.normal(size=(20, d)), rng.normal(size=20)
    return {
        "gbar": (lambda z: wbary.gbar(cfg3, z), (d,)),
        "b_forward": (lambda z: wbary.b_forward(cfg3, z), (d,)),
        "b_inverse": (lambda z: b_inverse(cfg3, z), (d,)),
        "grad_b_inverse": (lambda z: wbary.grad_b_inverse(cfg3, z), (d, d)),
        "grad_b_inverse_eigs": (
            lambda z: wbary.grad_b_inverse_eigs(cfg3, z), (d,)),
        "jacobian_det": (lambda z: wbary.jacobian_det(cfg3, z), ()),
        "check_bounds_p_ge2": (lambda z: check_bounds_p_ge2(cfg3, z), None),
        "check_bounds_p_lt2": (
            lambda z: wbary.check_bounds_p_lt2(cfg15, z), None),
        "GridDensity.evaluate": (density.evaluate, ()),
        "AffineMap.apply": (T.apply, (d,)),
        "p_transform": (lambda z: wbary.p_transform(
            sample, phi, 3.0, eval_points=z).values, ()),
    }


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("name", sorted(_point_functions(1)))
def test_point_batches_follow_one_shape_rule(name, d):
    """(d,), (n, d) and (a, b, d) points, and a 0-D point in d = 1, give
    the (n, d) call's rows with shape lead + per-point shape.  A last axis
    other than d raises ValidationError before any reshape (in d = 1 a
    (1, 2) array is not two points), and so does a NaN entry."""
    f, shape = _point_functions(d)[name]
    zs = np.random.default_rng(7).uniform(-0.5, 0.5, (6, d))
    ref = f(zs)
    singles = [zs[0], zs[0, 0]] if d == 1 else [zs[0]]
    if shape is None:
        assert f(zs.reshape(2, 3, d)) == ref
        assert all(f(z) == f(zs[:1]) for z in singles)
    else:
        assert ref.shape == (6,) + shape
        np.testing.assert_array_equal(f(zs.reshape(2, 3, d)),
                                      ref.reshape((2, 3) + shape))
        for z in singles:
            assert np.shape(f(z)) == shape
            np.testing.assert_allclose(f(z), ref[0], rtol=1e-13, atol=1e-15)
    nan_entry = zs.copy()
    nan_entry[2, -1] = np.nan
    for z in (zs[:2].T if d == 1 else zs[:, :1], np.hstack([zs, zs]),
              nan_entry):
        with pytest.raises(ValidationError):
            f(z)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.floats(1.3, 5.0),
    n=st.integers(2, 6),
    d=st.integers(1, 3),
)
def test_random_configs_solve_and_stay_in_box(seed, p, n, d):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, d))
    w = rng.uniform(0.2, 1.0, n)
    w = w / w.sum()
    cfg = WeightedPointConfig(pts, w, p)
    sol = pbary_solve(cfg, tol=1e-11)
    scale = w.max() * cfg.diameter ** (p - 1.0)
    assert sol.residual_norm <= 1e-11 * scale
    pad = 1e-9 * (1.0 + cfg.diameter)
    assert (sol.z >= pts.min(axis=0) - pad).all()
    assert (sol.z <= pts.max(axis=0) + pad).all()


@pytest.mark.parametrize("seed, p, n", [(831, 1.3125, 4), (479333, 1.3227, 5)])
def test_residual_driven_moves_do_not_raise_the_objective(seed, p, n):
    """Two 1-d configurations on which the p < 2 iteration cycled until
    max_iter: an anchored candidate (seed 831) or a line-search step
    (seed 479333) lowered the residual but raised the objective, and the
    next step undid it."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, 1))
    w = rng.uniform(0.2, 1.0, n)
    w = w / w.sum()
    cfg = WeightedPointConfig(pts, w, p)
    sol = pbary_solve(cfg, tol=1e-11)
    assert sol.residual_norm <= 1e-11 * w.max() * cfg.diameter ** (p - 1.0)
    z = sol.z[0] + np.array([0.0, -1e-6, 1e-6])
    phi = (w * np.abs(pts[:, 0] - z[:, None]) ** p).sum(axis=1)
    assert phi[0] <= phi[1:].min()


@pytest.mark.parametrize("p", [1.5, 1.7, 2.0, 2.5, 3.0, 4.0])
def test_batched_solutions_equal_single_solves(p):
    """_solve_configs on a batch gives, bit for bit, the z, residual,
    iteration count and coincident set of pbary_solve on each entry, for
    N in {2, 3, 4} and d in {1, 2, 3}; the batch holds rows of random
    weights and one row of equal points.  The anchored-candidate gate and
    the choice among the candidates decide per entry, so the rest of the
    batch cannot change an entry's bits."""
    for n, d in ((4, 2), (2, 1), (3, 1), (2, 3), (3, 3)):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(24, n, d))
            pts[5] = pts[5, 0]
            w = rng.uniform(0.2, 1.0, (24, n))
            w /= w.sum(axis=1, keepdims=True)
            batch = _solve_configs(pts, w, p, 1e-12)
            assert len(batch) == 24
            for k, got in enumerate(batch):
                ref = pbary_solve(WeightedPointConfig(pts[k], w[k], p))
                key = (n, d, seed, k)
                assert got.z.tobytes() == ref.z.tobytes(), key
                assert got.residual_norm == ref.residual_norm, key
                assert got.iterations == ref.iterations, key
                assert got.coincident_set == ref.coincident_set, key
            assert batch[5].coincident_set == tuple(range(n))


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_newton_matrix_is_the_sum_of_the_curvature_blocks(p, d):
    """_eval_batch's Newton matrix, and semidiscrete's -grad Gbar over the
    anchors, equal the sum of curvature_kernel's blocks, with a block at
    r = 0 left out, to 1e-13 relative; in one row z sits exactly on an atom
    (an anchor).  Gbar equals el_residual over the anchors to 1e-13
    relative, and the Hessian-free pass gives the same Gbar bit for bit."""
    rng = np.random.default_rng([11, d, int(10 * p)])
    pts = rng.normal(size=(64, 4, d))
    w = rng.uniform(0.2, 1.0, (64, 4))
    w /= w.sum(axis=1, keepdims=True)
    z = rng.normal(size=(64, d))
    z[0] = pts[0, 2]

    def block_sum(rvec, w):
        blocks, r, _ = curvature_kernel(rvec, w, p)
        assert np.flatnonzero(r == 0.0).tolist() == [2]
        blocks[r == 0.0] = 0.0
        return blocks.sum(axis=-3)

    def assert_close(got, ref, axes):
        err = np.abs(got - ref).max(axis=axes)
        assert (err <= 1e-13 * np.abs(ref).max(axis=axes)).all()

    assert_close(_eval_batch(pts, w, p, z)[2],
                 block_sum(pts - z[:, None, :], w), (1, 2))

    cfg = DiracConfiguration(pts[0, :3], np.append(w[0, 3], w[0, :3]), p)
    G, negdG, _, _ = _anchor_field(cfg, z, True)
    assert_close(negdG, block_sum(cfg.anchors - z[:, None, :],
                                  cfg.weights[1:]), (1, 2))
    ref = np.array([el_residual(cfg.anchors, cfg.weights[1:], p, zb)
                    for zb in z])
    assert_close(G, ref, 1)
    G_only, none, _, _ = _anchor_field(cfg, z, False)
    assert none is None and G_only.tobytes() == G.tobytes()


@pytest.mark.parametrize("p", [1.2, 1.5, 1.8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_atom_residuals_equal_el_residual(p, d):
    """The EL field that _eval_batch gives at z exactly on an atom, as an
    anchored candidate can place it, equals el_residual there to 1e-13
    relative, for every (entry, atom) pair in one call; one row holds a
    duplicated atom."""
    rng = np.random.default_rng([13, d, int(10 * p)])
    B, N = 16, 4
    pts = rng.normal(size=(B, N, d))
    pts[3, 1] = pts[3, 2]
    w = rng.uniform(0.2, 1.0, (B, N))
    w /= w.sum(axis=1, keepdims=True)
    F = _eval_batch(np.repeat(pts, N, 0), np.repeat(w, N, 0), p,
                    pts.reshape(B * N, d), hessian=False)[1]
    ref = np.array([el_residual(pts[b], w[b], p, pts[b, j])
                    for b in range(B) for j in range(N)])
    err = np.linalg.norm(F - ref, axis=1)
    assert (err <= 1e-13 * np.linalg.norm(ref, axis=1)).all()


def test_minimizers_next_to_an_atom_are_reached():
    """Entries 37 and 51 of `wbary run --kind point_bary --p 1.05 --seed 0`
    have minimizers about 1.4e-15 and 9e-17 from atom 0.  An evaluation may
    sit exactly on an atom, so the solver's best z, whether or not the call
    raises, must come within 2e-15 and 2e-16 of it."""
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(64, 4, 2))[[37, 51]]
    w = rng.uniform(0.2, 1.0, 4)
    w = np.broadcast_to(w / w.sum(), (2, 4))
    try:
        z = _solve_batch(pts, w, 1.05, 1e-12)[0]
    except ConvergenceError as err:
        z = err.best
    gap = np.linalg.norm(z - pts[:, 0], axis=1)
    assert gap[0] <= 2e-15
    assert gap[1] <= 2e-16


@pytest.mark.parametrize("s", [1.0, 1e3])
@pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 1.8])
def test_minimizers_on_an_atom_are_reached(p, s):
    """With atoms (-s, 0, 2s) and weights proportional to (2^(p-1), 1, 1)
    the rest field vanishes at the middle atom, which is then the minimizer
    exactly; the same holds on a line in R^2.  The solve must meet the
    residual tolerance at z, end within the distance from the atom that
    tolerance allows, |z - x_j| <= (tol max(w)/w_j)^(1/(p-1)) diam, and take
    at most 8 iterations."""
    tol = 1e-12
    w = np.array([2.0 ** (p - 1.0), 1.0, 1.0])
    w /= w.sum()
    line = np.array([[-1.0], [0.0], [2.0]]) * s
    for pts in (line, line * [[0.6, 0.8]]):
        cfg = WeightedPointConfig(pts, w, p)
        sol = pbary_solve(cfg, tol=tol)
        tol_abs = tol * w.max() * cfg.diameter ** (p - 1.0)
        key = (pts.shape, p, s)
        assert np.linalg.norm(el_residual(pts, w, p, sol.z)) <= tol_abs, key
        reach = (tol * w.max() / w[1]) ** (1.0 / (p - 1.0)) * cfg.diameter
        assert np.linalg.norm(sol.z - pts[1]) <= reach, key
        assert sol.iterations <= 8, key


def test_random_batches_solve_without_error():
    """pbary_points raises nothing on 1e4 N(0, 1) tuples per cell, for p in
    {1.5, 1.7, 2.5, 3, 4} and (N, d) in {(3, 1), (3, 2), (4, 2), (3, 3)}."""
    for p in (1.5, 1.7, 2.5, 3.0, 4.0):
        for n, d in ((3, 1), (3, 2), (4, 2), (3, 3)):
            rng = np.random.default_rng([17, n, d, int(10 * p)])
            pts = rng.normal(size=(10_000, n, d))
            w = rng.uniform(0.2, 1.0, (10_000, n))
            w /= w.sum(axis=1, keepdims=True)
            assert pbary_points(pts, w, p).shape == (10_000, d)


def test_near_atom_minimizers_converge_fast():
    """At p = 1.5 with w = (0.9, 0.05, 0.05) the minimizer sits within
    about 1e-2 diameters of the heavy atom, where damped Newton alone
    crawls; the anchored candidates must still bring all 2e4 entries to
    tolerance within 6 iterations."""
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(20_000, 3, 2))
    w = np.broadcast_to([0.9, 0.05, 0.05], (20_000, 3))
    z, iters, _ = _solve_batch(pts, w, 1.5, 1e-12)
    gap = np.linalg.norm(z - pts[:, 0], axis=1) / _diameters(pts)
    assert np.median(gap) < 1e-2
    assert iters.max() <= 6
