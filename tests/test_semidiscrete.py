"""One-variable barycenter map, its inverse, eigenvalue bounds, pushforward."""

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from wbary import (
    ConvergenceError,
    DiracConfiguration,
    InsufficientDataError,
    SingularPointError,
    ValidationError,
    b_forward,
    b_inverse,
    blowup_exponent,
    check_bounds_p_ge2,
    check_bounds_p_lt2,
    gbar,
    grad_b_inverse,
    grad_b_inverse_eigs,
    jacobian_det,
    lq_via_changevar,
    pushforward_density,
    uniform_ball,
    uniform_box,
)
from wbary._fixtures import _blowup_fixture, _line_config
from wbary.semidiscrete import _cell_values, _preimage_masses

# Largest band constant observed for the reference p=3 configuration,
# inflated by 1.5x and frozen as a regression envelope.
SHARP_BAND_CONSTANT = 4.5


@pytest.fixture
def cfg_1d_p3():
    return DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3, 1 / 3, 1 / 3], 3.0)


@pytest.fixture
def cfg_2d_p3():
    return DiracConfiguration(
        np.array([[0.8, 0.1], [-0.7, -0.25]]), [0.4, 0.3, 0.3], 3.0
    )


def test_reduced_field_worked_example(cfg_1d_p3):
    g = gbar(cfg_1d_p3, np.array([0.0]))
    assert g[0] == pytest.approx(5.0 / 3.0, rel=1e-15)


def test_fixed_point_is_anchor_barycenter(cfg_1d_p3):
    assert cfg_1d_p3.fixed_point[0] == pytest.approx(1.5, abs=1e-12)
    z = cfg_1d_p3.fixed_point
    assert np.linalg.norm(gbar(cfg_1d_p3, z)) <= 1e-12


def test_configuration_keeps_its_own_anchors():
    """fixed_point is cached, so the configuration copies the caller's
    arrays: a later write to them changes neither the anchors nor zbar."""
    a = np.array([[0.8, 0.1], [-0.7, -0.25]])
    w = np.array([0.4, 0.3, 0.3])
    cfg = DiracConfiguration(a, w, 3.0)
    zbar = cfg.fixed_point
    a[0, 0] += 1.0
    w[:] = [0.2, 0.6, 0.2]
    np.testing.assert_array_equal(cfg.anchors, [[0.8, 0.1], [-0.7, -0.25]])
    np.testing.assert_array_equal(cfg.weights, [0.4, 0.3, 0.3])
    assert np.linalg.norm(gbar(cfg, cfg.fixed_point)) <= 1e-12
    np.testing.assert_array_equal(cfg.fixed_point, zbar)
    with pytest.raises(ValueError):
        cfg.anchors[0, 0] = 0.0


def test_inverse_map_closed_form(cfg_1d_p3):
    # b^{-1}(0) = 0 - lam1^(alpha-1) Gbar |Gbar|^(-alpha) = -sqrt(5)
    x = b_inverse(cfg_1d_p3, np.array([0.0]))
    assert x[0] == pytest.approx(-np.sqrt(5.0), rel=1e-14)


def test_inverse_gradient_closed_form(cfg_1d_p3):
    G = grad_b_inverse(cfg_1d_p3, np.array([0.0]))
    assert G[0, 0] == pytest.approx(1.0 + 3.0 / np.sqrt(5.0), rel=1e-13)
    ev = grad_b_inverse_eigs(cfg_1d_p3, np.array([0.0]))
    assert ev[0] == pytest.approx(1.0 + 3.0 / np.sqrt(5.0), rel=1e-13)


def test_forward_inverse_roundtrip(cfg_1d_p3):
    x1 = np.linspace(-3.0, 4.0, 41)[:, None]
    bx = b_forward(cfg_1d_p3, x1)
    np.testing.assert_allclose(b_inverse(cfg_1d_p3, bx), x1, atol=1e-10)


def test_modulus_identity(cfg_1d_p3):
    """lam1 |x1 - b(x1)|^(p-1) = |Gbar(b(x1))| along the map."""
    x1 = np.linspace(-2.0, 3.0, 21)[:, None]
    bx = b_forward(cfg_1d_p3, x1)
    lhs = cfg_1d_p3.lam1 * np.abs(x1.ravel() - bx.ravel()) ** 2
    rhs = np.abs(gbar(cfg_1d_p3, bx).ravel())
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_eigs_match_dense_eigensolve(cfg_2d_p3):
    rng = np.random.default_rng(4)
    zs = rng.uniform(-1.5, 1.5, (100, 2))
    zs = zs[np.linalg.norm(zs - cfg_2d_p3.fixed_point, axis=1) > 0.05]
    ev = grad_b_inverse_eigs(cfg_2d_p3, zs)
    dense = np.sort(np.linalg.eigvals(grad_b_inverse(cfg_2d_p3, zs)).real, axis=1)
    np.testing.assert_allclose(ev, dense, atol=1e-12)
    assert (ev > 0).all()


def test_two_anchor_gradient_is_constant():
    cfg = DiracConfiguration(np.array([[2.0, 1.0]]), [0.3, 0.7], 2.7)
    s = 1.0 / 1.7
    expect = (0.3 ** s + 0.7 ** s) / 0.3 ** s
    zs = np.random.default_rng(1).uniform(-2, 2, (20, 2))
    G = grad_b_inverse(cfg, zs)
    np.testing.assert_allclose(
        G, np.broadcast_to(expect * np.eye(2), G.shape), atol=1e-12
    )


def test_p2_gradient_is_identity_over_lam1():
    cfg = DiracConfiguration(np.array([[1.0, 0.0], [0.0, 1.0]]),
                             [0.4, 0.3, 0.3], 2.0)
    G = grad_b_inverse(cfg, np.array([0.3, -0.2]))
    np.testing.assert_allclose(G, np.eye(2) / 0.4, rtol=0, atol=0)
    J = jacobian_det(cfg, np.array([[0.3, -0.2]]))
    assert J[0] == pytest.approx(1.0 / 0.16, rel=1e-14)


def test_gradient_singularities():
    cfg3 = DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3] * 3, 3.0)
    with pytest.raises(SingularPointError):
        grad_b_inverse(cfg3, cfg3.fixed_point)
    # p > 2: at an anchor the block vanishes and the Jacobian is continuous,
    # 1 + 3 (1/2) (2/3) = 2 at both anchors, the limit of nearby values.
    anchors = np.array([[1.0], [2.0]])
    np.testing.assert_array_equal(grad_b_inverse(cfg3, anchors), [[[2.0]]] * 2)
    np.testing.assert_array_equal(jacobian_det(cfg3, anchors), [2.0, 2.0])
    np.testing.assert_array_equal(grad_b_inverse_eigs(cfg3, anchors),
                                  [[2.0]] * 2)
    r = np.array([1e-6, 1e-9])
    near = grad_b_inverse(cfg3, 1.0 + r[:, None])[:, 0, 0]
    assert (np.abs(near - 2.0) <= 2.0 * r).all()
    cfg15 = DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3] * 3, 1.5)
    # p < 2: the gradient extends continuously by the identity at the fixed
    # point and is unbounded at the anchors, while the field is continuous
    # there: the anchor's own term (1/3) r^(1/2) vanishes, which leaves the
    # other anchor's 1/3.
    G = grad_b_inverse(cfg15, cfg15.fixed_point)
    np.testing.assert_allclose(G, np.eye(1), atol=1e-12)
    assert gbar(cfg15, np.array([1.0])).tolist() == [1.0 / 3.0]
    near = gbar(cfg15, 1.0 + r[:, None])[:, 0]
    assert (np.abs(near - 1.0 / 3.0) <= np.sqrt(r)).all()
    with pytest.raises(SingularPointError):
        grad_b_inverse(cfg15, np.array([1.0]))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.floats(1.1, 4.0, exclude_min=True),
    d=st.integers(1, 3),
    k=st.integers(1, 3),
)
def test_inverse_jacobian_spectrum_and_singularities(seed, p, d, k):
    """The symmetric-similarity spectrum is the spectrum of grad b^{-1},
    jacobian_det is |det grad b^{-1}|, also at the anchors for p > 2.  For
    p < 2 and k >= 2 the Jacobian raises at an anchor while Gbar takes the
    continuous value, the other anchors' terms; one anchor gives a constant
    Jacobian everywhere, that anchor included."""
    rng = np.random.default_rng(seed)
    anchors = rng.normal(size=(k, d))
    w = rng.uniform(0.2, 1.0, k + 1)
    cfg = DiracConfiguration(anchors, w / w.sum(), p)
    try:
        zbar = cfg.fixed_point
    except ConvergenceError:
        reject()  # near-atom float floor of the point solver at p near 1
    zs = 1.5 * rng.normal(size=(40, d))
    # keep off zbar, where grad b^{-1} blows up for p > 2
    zs = zs[np.linalg.norm(zs - zbar, axis=1) > 1e-3]
    if p > 2.0:
        # the anchors are regular points for p > 2
        zs = np.vstack([zs, anchors[np.linalg.norm(anchors - zbar, axis=1)
                                    > 1e-3]])
    G = grad_b_inverse(cfg, zs)
    ev = grad_b_inverse_eigs(cfg, zs)
    dense = np.linalg.eigvals(G)
    scale = 1.0 + np.abs(ev).max(axis=1, keepdims=True)
    assert (np.abs(dense.imag) <= 1e-7 * scale).all()
    np.testing.assert_allclose(
        ev, np.sort(dense.real, axis=1), rtol=0, atol=1e-9 * scale.max()
    )
    np.testing.assert_allclose(
        jacobian_det(cfg, zs), np.abs(np.linalg.det(G)), rtol=1e-9
    )
    if k == 1:
        s = 1.0 / (p - 1.0)
        const = (w[0] ** s + w[1] ** s) / w[0] ** s
        zs = np.vstack([zs, anchors])
        np.testing.assert_allclose(
            grad_b_inverse(cfg, zs), np.broadcast_to(const * np.eye(d), (
                len(zs), d, d)), rtol=1e-9, atol=1e-9 * const)
        np.testing.assert_allclose(jacobian_det(cfg, anchors), [const ** d],
                                   rtol=1e-12)
    elif p < 2.0:
        j = rng.integers(k)
        z = anchors[j]
        for fn in (grad_b_inverse, check_bounds_p_lt2):
            with pytest.raises(SingularPointError):
                fn(cfg, z[None, :])
        rest = np.delete(anchors - z, j, axis=0)
        wr = np.delete(cfg.weights[1:], j)
        rn = np.linalg.norm(rest, axis=1)
        np.testing.assert_allclose(
            gbar(cfg, z), (wr * rn ** (p - 2.0)) @ rest, rtol=1e-12,
            atol=1e-12)


def test_bounds_p_ge2_margins_nonnegative(cfg_2d_p3):
    rng = np.random.default_rng(7)
    zs = rng.uniform(-1.5, 1.5, (300, 2))
    zs = zs[np.linalg.norm(zs - cfg_2d_p3.fixed_point, axis=1) > 1e-6]
    rep = check_bounds_p_ge2(cfg_2d_p3, zs)
    assert rep.ok
    assert rep.lower_unit_margin >= -1e-9
    assert rep.lower_local_margin >= -1e-9
    assert rep.upper_local_margin >= -1e-9
    assert rep.upper_explicit_margin >= -1e-9


def test_explicit_bound_is_inf_next_to_zbar_at_large_p():
    """At p = 30, one ulp from zbar = 1.5 (exact by symmetry), the explicit
    upper bound exceeds the float range.  It reads +inf with no warning;
    before, the power overflowed with a RuntimeWarning."""
    cfg = _line_config(30.0)
    assert cfg.fixed_point.tolist() == [1.5]
    rep = check_bounds_p_ge2(cfg, [[np.nextafter(1.5, 2.0)]])
    assert rep.upper_explicit_margin == np.inf
    assert rep.ok


def test_bounds_p2_collapse_to_equality():
    cfg = DiracConfiguration(np.array([[0.8, 0.1], [-0.7, -0.25]]),
                             [0.4, 0.3, 0.3], 2.0)
    zs = np.random.default_rng(8).uniform(-1, 1, (50, 2))
    rep = check_bounds_p_ge2(cfg, zs)
    assert rep.lower_local_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.upper_local_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.upper_explicit_margin == pytest.approx(0.0, abs=1e-12)


def test_bounds_p_lt2_reference_point():
    """Frozen example: p=1.5, anchors (1,2), z=1.45 near the fixed point 1.5.

    The eigenvalue gap is 0.2010; the r^(2-p) lower envelope claims
    0.3333 there and fails, while the |Gbar|^beta local band brackets the
    gap as 0.1005 <= 0.2010 <= 0.4020.
    """
    cfg = DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3] * 3, 1.5)
    z = np.array([[1.45]])
    gap = float(grad_b_inverse_eigs(cfg, z).min() - 1.0)
    assert gap == pytest.approx(0.20100756, rel=1e-6)
    rep = check_bounds_p_lt2(cfg, z)
    assert rep.stated_lower_margin == pytest.approx(gap - 1.0 / 3.0, rel=1e-6)
    assert not rep.stated_ok
    assert rep.local_ok
    low = gap - rep.local_lower_margin
    high = gap + rep.local_upper_margin
    assert low == pytest.approx(0.10050378, rel=1e-6)
    assert high == pytest.approx(0.40201513, rel=1e-6)


def test_local_band_p_lt2_holds_broadly():
    for p in (1.2, 1.5, 1.8):
        cfg = DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3] * 3, p)
        zs = np.linspace(-1.0, 3.0, 401)[:, None]
        keep = np.ones(len(zs), bool)
        for s in [cfg.fixed_point, cfg.anchors[0], cfg.anchors[1]]:
            keep &= np.abs(zs - s[None, :]).ravel() > 1e-3
        rep = check_bounds_p_lt2(cfg, zs[keep])
        assert rep.local_ok, f"p={p}"


def test_sharp_band_p_gt2(cfg_2d_p3):
    """Scaled eigenvalues w1^(1-alpha) |z-zbar|^alpha eig(grad b^{-1}) on 32
    directions at radii 0.05 2^(-k), k = 1..20, around zbar stay in a fixed
    band while raw ones diverge."""
    cfg = cfg_2d_p3
    radii = 0.05 * 2.0 ** (-np.arange(1, 21, dtype=float))
    th = 2.0 * np.pi * np.arange(32) / 32
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    s = np.array([cfg.lam1 ** (1.0 - cfg.alpha) * r ** cfg.alpha
                  * grad_b_inverse_eigs(cfg, cfg.fixed_point + r * dirs)
                  for r in radii])
    assert s.max() <= SHARP_BAND_CONSTANT
    assert s.min() >= 1.0 / SHARP_BAND_CONSTANT
    r_big = radii.max()
    r_small = radii.min()
    ev_big = grad_b_inverse_eigs(
        cfg_2d_p3, cfg_2d_p3.fixed_point + np.array([[r_big, 0.0]])
    ).max()
    ev_small = grad_b_inverse_eigs(
        cfg_2d_p3, cfg_2d_p3.fixed_point + np.array([[r_small, 0.0]])
    ).max()
    assert ev_small / ev_big > 50.0


def test_pushforward_mass(cfg_2d_p3):
    f1 = uniform_ball(np.array([0.2, 0.1]), 1.0 / np.sqrt(np.pi), resolution=96)
    pf = pushforward_density(cfg_2d_p3, f1, resolution=96)
    assert pf.mass_ok
    assert pf.mass == pytest.approx(1.0, abs=0.05)


def test_changevar_p2_identity():
    lam1 = 0.35
    cfg = DiracConfiguration(np.array([[1.0, 0.0], [0.0, 1.0]]),
                             [lam1, 0.35, 0.3], 2.0)
    f1 = uniform_ball(np.array([0.2, 0.1]), 1.0 / np.sqrt(np.pi), resolution=96)
    for q in (1.5, 2.0, 4.0):
        exact = lam1 ** (2 * (1 - q) / q) * f1.lq_norm(q)
        assert lq_via_changevar(cfg, f1, q) == pytest.approx(exact, rel=1e-12)


def test_blowup_exponents():
    cfg3 = DiracConfiguration(np.array([[0.8, 0.1], [-0.7, -0.25]]),
                              [0.4, 0.3, 0.3], 3.0)
    f1 = uniform_ball(np.array([0.2, 0.1]), 1.0 / np.sqrt(np.pi), resolution=128)
    rep = blowup_exponent(cfg3, f1, cfg3.fixed_point,
                          np.geomspace(1e-6, 1e-4, 10))
    assert rep.slope == pytest.approx(-1.0, abs=0.05)
    assert rep.q0 == pytest.approx(2.0, abs=0.1)

    cfg15 = DiracConfiguration(np.array([[0.1], [-0.3]]), [0.4, 0.3, 0.3], 1.5)
    f1d = uniform_box(np.array([[-0.5, 0.5]]), resolution=1024)
    rep2 = blowup_exponent(cfg15, f1d, np.array([0.1]),
                           np.geomspace(1e-8, 1e-6, 10))
    assert rep2.q0 == pytest.approx(2.0, abs=0.1)


def test_blowup_exponents_3d():
    """d = 3 on cubes of 8 cells: the slope at zbar for p = 3 is
    -d (p-2)/(p-1) and at an anchor for p = 1.5 it is d (p-2), both -1.5,
    so q0 = 2 in both regimes."""
    anchors = 0.25 * np.array([[0.6, 0.1, 0.0], [-0.5, 0.3, 0.1],
                               [0.0, -0.6, 0.2]])
    f1 = uniform_box(np.array([[-0.5, 0.5]] * 3), resolution=8)
    for p, lo in ((3.0, 1e-6), (1.5, 1e-8)):
        cfg = DiracConfiguration(anchors, [0.4, 0.2, 0.2, 0.2], p)
        center = cfg.fixed_point if p > 2.0 else cfg.anchors[0]
        rep = blowup_exponent(cfg, f1, center, np.geomspace(lo, 100 * lo, 10))
        assert rep.radii_used.size == 10
        assert rep.slope == pytest.approx(-1.5, abs=0.05), p
        assert rep.q0 == pytest.approx(2.0, abs=0.1), p


def test_batched_sweeps_match_one_radius_or_cell_at_a_time():
    """Radius sweeps are evaluated in one batch, and each radius's cube mass
    computed alone is exactly its row of the batch.  Every pushforward cell
    goes through one rule; at p = 2, where b^{-1} is affine, a cell whose
    corner preimages lie inside f1's support box holds exactly
    f1(b^{-1}(centre)) / lam1^d."""
    cfg3 = DiracConfiguration(np.array([[0.8, 0.1], [-0.7, -0.25]]),
                              [0.4, 0.3, 0.3], 3.0)
    f1 = uniform_ball(np.array([0.2, 0.1]), 1.0 / np.sqrt(np.pi), resolution=32)
    z0 = cfg3.fixed_point
    rep = blowup_exponent(cfg3, f1, z0, np.geomspace(1e-6, 1e-4, 8))
    steps = np.stack(np.meshgrid(*[(-1.0, 0.0, 1.0)] * 2, indexing="ij"), -1)
    means = [_preimage_masses(f1, b_inverse(cfg3, z0 + r * steps)).sum()
             / (2.0 * r) ** 2 for r in rep.radii_used]
    assert rep.radii_used.size == 8
    assert np.array_equal(rep.means, means)
    assert pushforward_density(cfg3, f1, resolution=32).singular_cells == 1

    cfg2 = DiracConfiguration(cfg3.anchors, cfg3.weights, 2.0)
    f1b = uniform_box(np.array([[-0.5, 0.5], [-0.3, 0.4]]), resolution=24)
    pf = pushforward_density(cfg2, f1b, resolution=20)
    grid = pf.density
    h = grid.cell_widths
    signs = np.array([[-1, -1], [-1, 1], [1, -1], [1, 1]]) * 0.5
    corners = grid.centers()[:, None, :] + signs * h
    pre = b_inverse(cfg2, corners)
    sb = f1b.support_box()
    inside = np.all((pre > sb[:, 0]) & (pre < sb[:, 1]), axis=(1, 2))
    assert 0 < inside.sum() < inside.size
    expect = f1b.evaluate(b_inverse(cfg2, grid.centers())) / cfg2.lam1 ** 2
    np.testing.assert_allclose(grid.values.ravel()[inside], expect[inside],
                               rtol=1e-12)
    assert pf.mass == pytest.approx(1.0, abs=1e-12)
    assert pf.singular_cells == 0


@pytest.mark.parametrize("p", (1.2, 1.3, 1.5, 1.7))
def test_pushforward_mass_is_exact_in_1d(p):
    """In 1-D a cell's preimage is exactly the interval between the images
    of its ends, so the blow-up fixture (f1 uniform, anchors 0.1 and -0.3)
    has grid mass 1 to rounding on every grid, although most of the mass
    piles up next to the anchors (point samples at cell centres gave 0.64
    to 2.91 at p = 1.2)."""
    for grid in (64, 128, 256, 512):
        cfg, f1, _, _ = _blowup_fixture(p, grid)
        pf = pushforward_density(cfg, f1, resolution=grid)
        assert abs(pf.mass - 1.0) <= 1e-8, grid
        assert pf.singular_cells == (2 if p < 1.5 else 1)


def test_pushforward_mass_is_exact_next_to_zbar():
    """A 1-D p = 3 instance whose cell-centre masses were 1.011, 1.365 and
    0.999 at 400, 1600 and 6400 cells: the cell holding zbar decided them."""
    cfg = DiracConfiguration(
        np.array([[1.6703038246195452], [-1.4363693829885906]]),
        [0.4563223355686919, 0.1983303396915931, 0.34534732473971513], 3.0)
    for res in (400, 1600, 6400):
        pf = pushforward_density(
            cfg, uniform_box(np.array([[-0.5, 0.5]]), resolution=res))
        assert abs(pf.mass - 1.0) <= 1e-8, res
        assert pf.singular_cells == 1


def test_pushforward_mass_p4_planar():
    """The planar p = 4 fixture at grid 128, where the density blows up like
    r^(-4/3) at zbar (a centre sample there once put the mass at 1.2133)."""
    cfg, f1, _, _ = _blowup_fixture(4.0, 128)
    pf = pushforward_density(cfg, f1, resolution=128)
    assert pf.mass == pytest.approx(1.0, abs=0.01)
    assert pf.singular_cells == 1


def test_pushforward_mass_3d():
    """d = 3 on a small grid, for p < 2, p = 2 and p > 2: mass within 5%."""
    anchors = 0.25 * np.array([[0.6, 0.1, 0.0], [-0.5, 0.3, 0.1],
                               [0.0, -0.6, 0.2]])
    f1 = uniform_box(np.array([[-0.5, 0.5]] * 3), resolution=10)
    for p in (1.5, 2.0, 3.0):
        cfg = DiracConfiguration(anchors, [0.4, 0.2, 0.2, 0.2], p)
        pf = pushforward_density(cfg, f1, resolution=12)
        assert pf.density.resolution == (12, 12, 12)
        assert pf.mass_ok and abs(pf.mass - 1.0) <= 0.05, (p, pf.mass)


def _multilinear(V, u):
    """Phi(u) and DPhi(u) of the d-linear interpolant of the corner values
    V (2, ..., 2, d) of one cell, written out corner by corner."""
    d = u.shape[0]
    phi, jac = np.zeros(d), np.zeros((d, d))
    for c in np.ndindex(V.shape[:-1]):
        f = np.where(np.array(c) == 1, u, 1.0 - u)
        phi += np.prod(f) * V[c]
        for a in range(d):
            sign = 1.0 if c[a] else -1.0
            jac[:, a] += sign * np.prod(np.delete(f, a)) * V[c]
    return phi, jac


def test_gauss_rule_is_exact_for_the_interpolated_volume():
    """det DPhi of a d-linear Phi has degree d - 1 in each unit coordinate,
    so the 2-point Gauss rule of pushforward_density gives the volume of
    Phi's image exactly for d <= 4: it matches a 4-point rule on a cell
    with random corner images, and _cell_values matches the interpolant."""
    rng = np.random.default_rng(3)
    x4, w4 = np.polynomial.legendre.leggauss(4)
    x4, w4 = 0.5 + 0.5 * x4, 0.5 * w4
    for d in (1, 2, 3, 4):
        V = np.indices((2,) * d).transpose(tuple(range(1, d + 1)) + (0,))
        V = V + 0.15 * rng.normal(size=V.shape)
        gauss = 0.0
        for g in np.ndindex((2,) * d):
            jac = np.stack([_cell_values(V, g[:a] + (2,) + g[a + 1:])
                            for a in range(d)], axis=-1).reshape(d, d)
            u = 0.5 + (np.array(g) - 0.5) / np.sqrt(3.0)
            phi, ref = _multilinear(V, u)
            np.testing.assert_allclose(
                _cell_values(V, g).reshape(d), phi, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(jac, ref, rtol=1e-13, atol=1e-13)
            gauss += np.linalg.det(jac) / 2 ** d
        exact = sum(np.prod(w4[list(k)]) * np.linalg.det(
            _multilinear(V, x4[list(k)])[1]) for k in np.ndindex((4,) * d))
        assert gauss == pytest.approx(exact, rel=1e-12), d
        assert exact > 0.0


def test_one_anchor_jacobian_is_constant_at_the_anchor():
    """With one anchor b^{-1} is affine: grad b^{-1} is the constant
    (w1^s + w2^s) / w1^s Id, s = 1/(p-1), at the anchor too, and Gbar and
    b^{-1} are defined there.  There is no singular point.  The bound checks
    raise at the anchor, where their ratios are 0/0, and give the limit
    margins next to it."""
    for p, const in ((3.0, 2.5275252316519468), (1.5, 6.444444444444445)):
        cfg = DiracConfiguration(np.array([[1.0]]), [0.3, 0.7], p)
        zs = np.array([[1.0], [1.0 + 1e-9], [1.5]])
        np.testing.assert_allclose(grad_b_inverse(cfg, zs)[:, 0, 0], const,
                                   rtol=1e-12)
        np.testing.assert_allclose(grad_b_inverse_eigs(cfg, zs)[:, 0], const,
                                   rtol=1e-12)
        np.testing.assert_allclose(jacobian_det(cfg, zs), const, rtol=1e-12)
        assert gbar(cfg, np.array([1.0])).tolist() == [0.0]
        assert b_inverse(cfg, np.array([1.0])).tolist() == [1.0]
        f1 = uniform_box(np.array([[-0.5, 0.5]]), resolution=64)
        assert pushforward_density(cfg, f1).singular_cells == 0
        check = check_bounds_p_ge2 if p > 2.0 else check_bounds_p_lt2
        with pytest.raises(SingularPointError):
            check(cfg, np.array([[1.0]]))
    rep = check_bounds_p_ge2(DiracConfiguration(np.array([[1.0]]), [0.3, 0.7],
                                                3.0), [[1.5], [1.0 + 1e-9]])
    # eig - 1 = c = (7/3)^(1/2); alpha = 1/2 and C_3 = 4 give the rest.
    c = 2.5275252316519468 - 1.0
    assert rep.lower_unit_margin == pytest.approx(c, rel=1e-9)
    assert rep.lower_local_margin == pytest.approx(c / 2.0, rel=1e-9)
    assert rep.upper_local_margin == pytest.approx(c, rel=1e-9)
    assert rep.upper_explicit_margin == pytest.approx(3.0 * c, rel=1e-9)


@pytest.mark.parametrize("d, p", ((1, 1.5), (2, 1.5), (2, 3.0), (2, 4.0)))
def test_blowup_slope_over_random_families(d, p):
    """Seeded 2-anchor configurations: anchors uniform in [-0.35, 0.35]^d,
    weights uniform(0.2, 1) normalised, f1 uniform on [-0.5, 0.5]^d at 1024
    cells (d = 1) or 128^2, the blow-up fixture's radii.  The slope fitted
    at zbar (p > 2) or the first anchor (p < 2) is within 2.5% of
    -d (p-2)/(p-1) or d (p-2) on every usable configuration of 30.  At
    p = 1.5 about half the anchors sit on the edge of the image of spt f1
    and raise InsufficientDataError; at least a quarter must remain.  The
    largest errors (2.1% at p = 3) come from anchors a few hundredths
    apart, where the fixture's radii are far from the asymptotic regime."""
    rng = np.random.default_rng([d, int(10 * p)])
    f1 = uniform_box(np.array([[-0.5, 0.5]] * d),
                     resolution=1024 if d == 1 else 128)
    radii = _blowup_fixture(p, 8)[3]
    theory = -d * (p - 2.0) / (p - 1.0) if p > 2.0 else d * (p - 2.0)
    slopes = []
    for _ in range(30):
        anchors = rng.uniform(-0.35, 0.35, (2, d))
        w = rng.uniform(0.2, 1.0, 3)
        cfg = DiracConfiguration(anchors, w / w.sum(), p)
        center = cfg.fixed_point if p > 2.0 else cfg.anchors[0]
        try:
            slopes.append(blowup_exponent(cfg, f1, center, radii).slope)
        except InsufficientDataError:
            pass
    assert len(slopes) >= 30 // 4
    assert np.max(np.abs(np.array(slopes) / theory - 1.0)) <= 0.025


def test_blowup_needs_radii_and_signal():
    cfg = DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3] * 3, 3.0)
    f1 = uniform_box(np.array([[-0.5, 0.5]]), resolution=64)
    with pytest.raises(ValidationError):
        blowup_exponent(cfg, f1, cfg.fixed_point, np.geomspace(1e-5, 1e-4, 3))
    # a center where the density vanishes yields no usable cubes
    with pytest.raises(InsufficientDataError):
        blowup_exponent(cfg, f1, np.array([50.0]),
                        np.geomspace(1e-5, 1e-4, 10))


def test_configuration_validation():
    with pytest.raises(ValidationError):
        DiracConfiguration(np.array([[1.0]]), [0.5, 0.6], 3.0)  # bad sum
    with pytest.raises(ValidationError):
        DiracConfiguration(np.array([[1.0]]), [0.5, 0.5], 1.0)  # p = 1
    with pytest.raises(ValidationError):
        DiracConfiguration(np.zeros((0, 1)), [1.0], 2.0)  # no anchors
