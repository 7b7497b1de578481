"""Support geometry, integrability bound, cell bound, injectivity."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from wbary import (
    DiscreteMeasure,
    GeometryError,
    GridDensity,
    ValidationError,
    alpha_exponent,
    compute_D,
    compute_m,
    constant_maps,
    general_lq_bound,
    identity_maps,
    integrability_bound,
    local_injectivity_check,
    solve_mmot,
    uniform_ball,
    uniform_box,
)
from wbary import bounds
from wbary.bounds import _cell_coefficients, _tuple_classes
from wbary.core import _diameters, _length
from wbary.semidiscrete import DiracConfiguration, lq_via_changevar


def _objective_minimizer(pts, w, p):
    """Independent reference: minimize the power objective directly."""
    def f(z):
        return (w * np.linalg.norm(pts - z[None, :], axis=1) ** p).sum()
    best = None
    for x0 in [pts.mean(axis=0)] + list(pts):
        r = minimize(f, x0, method="Nelder-Mead",
                     options={"xatol": 1e-12, "fatol": 1e-14})
        if best is None or r.fun < best.fun:
            best = r
    return best.x


def test_separation_quantities_against_direct_minimization():
    """D and m for three Dirac marginals, cross-checked with a direct
    optimizer rather than the package's own solver."""
    measures = [
        DiscreteMeasure(np.array([[0.0, 0.0]]), [1.0]),
        DiscreteMeasure(np.array([[1.0, 0.0]]), [1.0]),
        DiscreteMeasure(np.array([[0.0, 1.0]]), [1.0]),
    ]
    w = np.array([0.4, 0.3, 0.3])
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    z_full = _objective_minimizer(pts, w, 3.0)
    z_red = np.array([0.5, 0.5])  # symmetric two-point reduced problem
    D = compute_D(measures, w, 3.0)
    m = compute_m(measures, w, 3.0)
    assert D == pytest.approx(np.linalg.norm(z_full - z_red), abs=1e-7)
    assert m == pytest.approx(
        np.linalg.norm(pts - z_full[None, :], axis=1).min(), abs=1e-7
    )


def test_integrability_bound_p2_reduction():
    f1 = uniform_ball(np.array([0.2, 0.1]), 0.5, resolution=64)
    for q in (1.5, 2.0, 4.0):
        lam1 = 0.35
        b = integrability_bound(f1.lq_norm(q), q, 2.0, lam1, 2)
        assert b == pytest.approx(
            lam1 ** (2 * (1 - q) / q) * f1.lq_norm(q), rel=1e-12
        )


def test_integrability_bound_p_lt2_distant_supports():
    """p = 1.5, q = 2: f1 uniform on [-0.5, 0.5], anchors 6 and 7.5 with
    weights (1 - lam1)/2 each, m from 65 atoms of f1's support.  The bound
    with constant 1 holds and is tight within a factor 2.5 for every lam1
    in {0.1, 0.3, ..., 0.9} (measured/bound between 0.41 and 0.88)."""
    p, q = 1.5, 2.0
    anchors = np.array([[6.0], [7.5]])
    f1 = uniform_box(np.array([[-0.5, 0.5]]), resolution=1024)
    supp = np.linspace(-0.5, 0.5, 65)[:, None]
    measures = [DiscreteMeasure(supp, np.ones(65) / 65),
                DiscreteMeasure(anchors[:1], [1.0]),
                DiscreteMeasure(anchors[1:], [1.0])]
    for lam1 in (0.1, 0.3, 0.5, 0.7, 0.9):
        w = np.array([lam1, (1 - lam1) / 2, (1 - lam1) / 2])
        norm = lq_via_changevar(DiracConfiguration(anchors, w, p), f1, q)
        m = compute_m(measures, w, p)
        bound = integrability_bound(f1.lq_norm(q), q, p, lam1, 1, m=m)
        assert 0.4 <= norm / bound <= 0.9, lam1


def test_integrability_requires_separation():
    # an atom of the first marginal exactly at the reduced barycenter
    # leaves the barycenter unmoved: D = 0 and the estimate is empty
    measures = [
        DiscreteMeasure(np.array([[0.5, 0.5]]), [1.0]),
        DiscreteMeasure(np.array([[1.0, 0.0]]), [1.0]),
        DiscreteMeasure(np.array([[0.0, 1.0]]), [1.0]),
    ]
    w = np.array([0.2, 0.4, 0.4])
    D = compute_D(measures, w, 2.0)
    assert D == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(GeometryError):
        integrability_bound(1.0, 2.0, 3.0, 0.2, 2, D=D)
    with pytest.raises(GeometryError):
        integrability_bound(1.0, 2.0, 1.5, 0.2, 2, m=0.0)


def test_integrability_bound_out_of_float_range_is_inf():
    """A bound whose prefactor underflows to 0, or whose power overflows, is
    math.inf, a valid upper bound, and not a ZeroDivisionError or an
    OverflowError; every finite value is the formula's, bit for bit, also
    for the NumPy scalars the distant-support sweep passes."""
    assert integrability_bound(1.0, 2, 4, 0.5, 2, D=1e-200) == math.inf
    assert integrability_bound(1.0, 2, 3, 0.1, 1000, D=1.0) == math.inf
    assert integrability_bound(1.0, 50.0, 4, 0.5, 2, D=1e-80) == math.inf
    assert integrability_bound(1.0, 2, 4, 0.5, 2, D=1e200) == math.inf
    assert integrability_bound(0.0, 2, 4, 0.5, 2, D=1e-200) == math.inf
    # constant * power overflows, and inf * 0 would be NaN.
    assert integrability_bound(0.0, 2, 4, 0.5, 1, D=1e-40,
                               constant=1e300) == math.inf
    for lam1 in np.arange(0.1, 0.91, 0.1):
        for p, D, q in ((3.0, 6.1, 2.0), (4.0, 0.37, 1.5), (1.5, 2.5, 4.0)):
            a = alpha_exponent(p)
            ref = (1.3 * (lam1 ** (2 * (1 - a)) * D ** (2 * abs(p - 2)))
                   ** (-(q - 1) / q) * 0.8)
            got = integrability_bound(0.8, q, p, lam1, 2, D=D, m=D,
                                      constant=1.3)
            assert got == float(ref) and type(got) is float


def test_general_bound_identity_reduction():
    f1 = uniform_ball(np.array([0.2, 0.1]), 0.5, resolution=64)
    rep = general_lq_bound(f1, identity_maps(2), np.array([0.4, 0.3, 0.3]),
                           2.0, 2.0)
    assert rep.value == pytest.approx(f1.lq_norm(2.0) ** 2, rel=1e-12)
    assert rep.n_cells_curved == 0
    assert not rep.diverging


def test_general_bound_p2_point_on_barycenter():
    """At p = 2 a point sitting exactly on the barycenter keeps its block
    w_i Id: in cell 1 the barycenter lands on the anchor 0, and every cell's
    coefficient is 2 (1/3) / (1/9) = 6."""
    f1 = uniform_box(np.array([[0.0, 1.0]]), resolution=4)
    c = f1.centers()[1, 0]
    rep = general_lq_bound(f1, constant_maps([[0.0], [-c]]), [1 / 3] * 3,
                           2.0, 2.0)
    assert rep.value == pytest.approx(6 * f1.lq_norm(2.0) ** 2, rel=1e-12)
    assert (rep.n_cells_first, rep.n_flagged) == (0, 0)


def test_general_bound_dominates_measured():
    anchors = np.array([[0.8, 0.1], [-0.7, -0.25]])
    w = np.array([0.4, 0.3, 0.3])
    f1 = uniform_ball(np.array([0.2, 0.1]), 1.0 / np.sqrt(np.pi), resolution=96)
    for p, q in [(3.0, 1.6), (2.5, 1.8)]:
        cfg = DiracConfiguration(anchors, w, p)
        measured = lq_via_changevar(cfg, f1, q) ** q
        rep = general_lq_bound(f1, constant_maps(anchors), w, p, q)
        assert rep.dominates(measured)


def test_general_bound_degenerates_with_anchor_in_support():
    """p < 2 with an anchor inside the support: curvature blows up near the
    anchor cells, so the bound stays valid but grows without settling as
    the grid refines (roughly x8 per doubling here)."""
    anchors = np.array([[0.1], [-0.3]])
    w = np.array([0.4, 0.3, 0.3])
    values = []
    for res in (128, 256, 512):
        f1 = uniform_box(np.array([[-0.5, 0.5]]), resolution=res)
        rep = general_lq_bound(f1, constant_maps(anchors), w, 1.5, 2.5)
        values.append(rep.value)
    assert values[1] > 4.0 * values[0]
    assert values[2] > 4.0 * values[1]


def test_injectivity_on_plan_supports():
    for t in range(6):
        rng = np.random.default_rng(600 + t)
        measures = [
            DiscreteMeasure(rng.normal(size=(3, 2)), np.full(3, 1 / 3))
            for _ in range(2)
        ]
        w = np.array([0.5, 0.5])
        plan = solve_mmot(measures, w, 2.5)
        rep = local_injectivity_check(plan.points, w, 2.5)
        assert rep.ok


def test_injectivity_nonvacuous_on_clustered_tuples():
    rng = np.random.default_rng(9)
    base = rng.normal(size=(1, 3, 2))
    pts = base + 1e-3 * rng.normal(size=(30, 3, 2))
    rep = local_injectivity_check(pts, np.array([0.5, 0.3, 0.2]), 2.5)
    assert rep.ok
    assert rep.n_checked_bases == 30
    assert rep.vacuous_bases < 30


def test_injectivity_validation():
    with pytest.raises(ValidationError):
        local_injectivity_check(np.zeros((3, 2)), np.array([0.5, 0.5]), 2.0)


def test_weights_follow_the_shared_rule():
    """Weights must number one per marginal and sum to one, as everywhere
    else in the package; before, a bad sum passed silently (compute_D gave
    0.99999999999881 for three weights of 0.5) and a bad length raised a
    bare NumPy error."""
    measures = [
        DiscreteMeasure(np.array([[0.0, 0.0]]), [1.0]),
        DiscreteMeasure(np.array([[1.0, 0.0]]), [1.0]),
        DiscreteMeasure(np.array([[0.0, 1.0]]), [1.0]),
    ]
    f1 = uniform_box(np.array([[-0.5, 0.5]] * 2), resolution=8)
    maps = constant_maps(np.array([[1.0, 0.0], [0.0, 1.0]]))
    pts = np.array([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]] * 2)
    pts[1] += 0.1
    for w in ([0.5, 0.5, 0.5], [0.5, 0.5], [0.2, 0.3, 0.3, 0.2]):
        with pytest.raises(ValidationError):
            compute_D(measures, w, 3.0)
        with pytest.raises(ValidationError):
            compute_m(measures, w, 3.0)
        with pytest.raises(ValidationError):
            general_lq_bound(f1, maps, w, 3.0, 2.0)
        with pytest.raises(ValidationError):
            local_injectivity_check(pts, w, 3.0)
    assert compute_D(measures, [0.4, 0.3, 0.3], 3.0) > 0.0


def test_integrability_exponent_must_be_finite_and_exceed_1():
    """Every L^q routine rejects q that is not finite and above 1; before,
    q = nan gave a nan norm or bound without an error."""
    f1 = uniform_box(np.array([[-0.5, 0.5]]), resolution=16)
    cfg = DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3] * 3, 3.0)
    maps = constant_maps(np.array([[1.0], [2.0]]))
    for q in (np.nan, np.inf, 1.0, 0.5):
        with pytest.raises(ValidationError):
            lq_via_changevar(cfg, f1, q)
        with pytest.raises(ValidationError):
            general_lq_bound(f1, maps, [1 / 3] * 3, 3.0, q)
        with pytest.raises(ValidationError):
            integrability_bound(1.0, q, 3.0, 0.3, 1, D=1.0)


def test_general_bound_of_a_zero_density_is_zero():
    """A density with no positive cell has no source points to map: the
    bound is 0 and no cell is counted."""
    f0 = GridDensity([[-0.5, 0.5]], np.zeros(8))
    rep = general_lq_bound(f0, constant_maps([[1.0]]), [0.5, 0.5], 3.0, 2.0)
    assert (rep.value, rep.n_cells_first, rep.n_cells_curved) == (0.0, 0, 0)
    assert not rep.diverging


# Pinned reports.  In both inputs the cell centred at (-0.0917, -0.0917)
# puts the barycenter on (p < 2) or within 1e-8 of (p > 2) the anchor
# (0.9, 0.2), so its curvature ratio degenerates and the cell is flagged.
_PINNED_CELLS = {
    # p: (second anchor, sum and max of the finite coefficients)
    3.0: ([2.045078046820961, 0.536787674264886], 443092.39694967936,
          80093.58069188561),
    1.5: ([2.662962962962963, 0.7185185185185186], 93969.80946133201,
          13027.026841227716),
}


@pytest.mark.parametrize("p", sorted(_PINNED_CELLS))
def test_general_bound_pinned_refined_cell(p):
    anchor2, coeff_sum, coeff_max = _PINNED_CELLS[p]
    w = np.array([0.4, 0.3, 0.3])
    maps = constant_maps([[0.9, 0.2], anchor2])
    f1 = uniform_box(np.array([[-0.5, 0.5], [-0.5, 0.5]]), resolution=6)
    rep = general_lq_bound(f1, maps, w, p, 1.7)
    assert (rep.n_cells_first, rep.n_cells_curved, rep.n_flagged) == (0, 35, 1)
    assert rep.diverging and rep.value == np.inf
    coeff, first, flagged = _cell_coefficients(f1.centers(), maps, w, p, 1.7, 2)
    assert not first.any()
    assert np.where(flagged)[0].tolist() == [14]
    finite = coeff[np.isfinite(coeff)]
    assert finite.size == 35
    assert finite.sum() == pytest.approx(coeff_sum, rel=1e-12)
    assert finite.max() == pytest.approx(coeff_max, rel=1e-12)


_PINNED_INJECTIVITY = {
    # p: (vacuous bases, halvings, min radius, worst deficit)
    1.5: (2, 5, 0.1310882541982515, -0.005449787717559814),
    3.0: (1, 13, 0.00051206349296192, -8.838834322008481e-05),
}


def _pinned_tuples():
    """Clustered tuples, three tuples whose barycenter is their middle
    point, and one fully coincident tuple (skipped)."""
    rng = np.random.default_rng(6)
    base = rng.normal(size=(1, 3, 2))
    sym = np.array([[[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]])
    return np.concatenate([
        base + 0.1 * rng.normal(size=(20, 3, 2))[10:], sym, 1.0005 * sym,
        sym + [0.0, 2e-4], np.full((1, 3, 2), 0.25),
    ])


@pytest.mark.parametrize("p", sorted(_PINNED_INJECTIVITY))
def test_injectivity_pinned_report(p):
    vacuous, halvings, min_radius, worst = _PINNED_INJECTIVITY[p]
    rep = local_injectivity_check(_pinned_tuples(),
                                  np.array([0.25, 0.5, 0.25]), p)
    assert rep.ok
    assert (rep.n_bases, rep.n_checked_bases) == (14, 13)
    assert (rep.vacuous_bases, rep.max_halvings_used) == (vacuous, halvings)
    assert rep.min_radius == pytest.approx(min_radius, rel=1e-12)
    assert rep.worst_deficit == pytest.approx(worst, rel=1e-9)


def _injectivity_by_halving(pts, w, p):
    """Reference oracle: the radius search that local_injectivity_check
    replaced by its closed form.  Each base halves its radius, up to
    bounds._MAX_HALVINGS times, until no violating same-class pair lies in
    the ball or fewer than two candidates do."""
    n = pts.shape[0]
    diam = _diameters(pts)
    z, in_S, max_norm, min_lam = _tuple_classes(pts, w, p, diam)
    same_class = (in_S[:, None, :] == in_S[None, :, :]).all(axis=2)
    z_dist = _length(z[:, None, :] - z[None, :, :])
    pd_full = _length((pts[:, None] - pts[None]).reshape(n, n, -1))
    scale = max(float(diam.max()), 1e-300)
    r_init = 1.01 * float(pd_full.max()) if n > 1 else 1.0
    ok, worst, used, min_radius, vacuous, checked = True, 0.0, 0, r_init, 0, 0
    for k in range(n):
        free = ~in_S[k]
        if not free.any():
            continue
        checked += 1
        if not np.isfinite(max_norm[k]) or max_norm[k] <= 0.0:
            continue
        kappa = 0.5 * min_lam[k] / max_norm[k]
        mates = np.flatnonzero(same_class[k])
        y = pts[mates][:, free, :]
        margin = z_dist[np.ix_(mates, mates)] - kappa * _length(
            (y[:, None] - y[None]).reshape(mates.size, mates.size, -1)
        ) + 1e-12 * scale
        pairs = np.triu(np.ones(margin.shape, bool), 1)
        r, passed = r_init, False
        for halv in range(bounds._MAX_HALVINGS + 1):
            inside = pd_full[k, mates] <= r
            if inside.sum() < 2:
                vacuous += 1
                passed = True
                break
            deficit = float(margin[pairs & inside[:, None] & inside].min())
            if deficit >= 0.0:
                passed = True
                break
            worst = min(worst, deficit)
            r *= 0.5
            used = max(used, halv + 1)
        min_radius = min(min_radius, r)
        ok &= passed
    return bounds.InjectivityReport(ok, n, checked, vacuous, used,
                                    min_radius, worst)


def _clustered_families():
    """(points, weights, p): the pinned tuples and seeded clusters."""
    yield _pinned_tuples(), np.array([0.25, 0.5, 0.25]), 1.5
    yield _pinned_tuples(), np.array([0.25, 0.5, 0.25]), 3.0
    for seed, p in enumerate((1.5, 2.0, 2.5, 4.0)):
        rng = np.random.default_rng(700 + seed)
        n, N, d = 6 + 3 * seed, 2 + seed % 2, 1 + seed % 3
        w = rng.uniform(0.2, 1.0, N)
        pts = rng.normal(size=(1, N, d)) + 1e-2 * rng.normal(size=(n, N, d))
        yield pts, w / w.sum(), p


@pytest.mark.parametrize("cap", [0, 1, 2, 3, 12, 40])
def test_injectivity_matches_the_halving_search(cap, monkeypatch):
    """Every report field equals the radius search's, bit for bit, also
    with the halvings capped below 40, where some reports fail."""
    monkeypatch.setattr(bounds, "_MAX_HALVINGS", cap)
    failed = 0
    for pts, w, p in _clustered_families():
        rep = local_injectivity_check(pts, w, p)
        assert rep == _injectivity_by_halving(pts, w, p)
        failed += not rep.ok
    assert (failed > 0) == (cap < 40)


def test_injectivity_of_one_tuple_is_vacuous():
    rep = local_injectivity_check([[[0.0, 0.0], [1.0, 0.5]]], [0.5, 0.5], 3.0)
    assert rep.ok and rep.vacuous_bases == rep.n_checked_bases == 1
    assert rep.min_radius == 1.0
    assert (rep.max_halvings_used, rep.worst_deficit) == (0, 0.0)


def test_injectivity_ball_includes_its_boundary():
    """A violating pair whose farther point lies exactly at the first halved
    radius from the base is inside that ball, so the base halves once more
    and passes vacuously."""
    d, far = 2.0 ** -4, 0.1750264309867692
    pts = np.array([[[0.0], [1.0]], [[d], [1.0 - d]], [[far], [1.0]]])
    # pts[1] lies at product distance sqrt(2) d = r_init / 2 from pts[0],
    # and moves the p = 2 barycenter not at all.
    assert 1.01 * far == 2.0 * _length((pts[1] - pts[0]).ravel())
    rep = local_injectivity_check(pts, [0.5, 0.5], 2.0)
    assert rep == _injectivity_by_halving(pts, np.array([0.5, 0.5]), 2.0)
    assert (rep.max_halvings_used, rep.vacuous_bases) == (2, 3)
    assert rep.min_radius == 1.01 * far / 4.0
