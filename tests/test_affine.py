"""Affine families: matrix barycenters, spectra, transforms, concavity."""

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

from wbary import StructureError, ValidationError, pbary_points
from wbary.affine import (
    AffineMap,
    affine_barycenter,
    homogeneous_transform_coefficient,
    p_concavity_check,
    p_transform,
    spectrum_optimality,
    verify_affine_vs_mmot,
)
from wbary import DiscreteMeasure


def _rot(deg):
    t = np.deg2rad(deg)
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _scalar_pbary(xs, w, p):
    f = lambda z: float((w * np.abs(xs - z) ** p).sum())
    return minimize_scalar(f, bounds=(xs.min(), xs.max()),
                           method="bounded",
                           options={"xatol": 1e-13}).x


class TestMatrixPbary:
    """Frobenius p-barycenters: pbary_points on the flattened matrices."""

    def test_structured_diagonal_matches_scalar_route(self):
        zs = np.array([0.7, 0.3, 1.4])
        w = np.array([0.5, 0.3, 0.2])
        mats = np.stack([np.diag([1.0, z]) for z in zs])
        Z = pbary_points(mats.reshape(3, -1), w, 2.5).reshape(2, 2)
        ref = _scalar_pbary(zs, w, 2.5)
        assert Z[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert Z[0, 1] == Z[1, 0] == 0.0
        assert Z[1, 1] == pytest.approx(ref, abs=1e-9)

    def test_general_family_matches_direct_minimization(self):
        """A random family, and a diagonal one whose Frobenius barycenter
        is not the per-entry scalar barycenters (p = 3: diagonal
        (1.17671, 1.10769), not (1.17382, 1.10813))."""
        rng = np.random.default_rng(3)
        diagonal = np.stack([np.diag([1.0, 0.5]), np.diag([2.0, 3.0]),
                             np.diag([0.2, -1.0])])
        cases = [
            (rng.normal(size=(3, 2, 2)), np.array([0.4, 0.35, 0.25]), 2.5),
            (diagonal, np.array([0.5, 0.3, 0.2]), 3.0),
            (diagonal, np.array([0.5, 0.3, 0.2]), 1.5),
        ]
        for mats, w, p in cases:
            Z = pbary_points(mats.reshape(3, -1), w, p).reshape(2, 2)

            def obj(flat):
                r = np.linalg.norm(mats - flat.reshape(1, 2, 2), axis=(1, 2))
                return float((w * r ** p).sum())

            res = minimize(obj, mats.mean(axis=0).ravel(),
                           method="Nelder-Mead",
                           options={"xatol": 1e-11, "fatol": 1e-13})
            assert np.abs(Z - res.x.reshape(2, 2)).max() < 1e-6, (p, Z)

    def test_quadratic_case_is_weighted_mean(self):
        rng = np.random.default_rng(4)
        mats = rng.normal(size=(4, 3, 3))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        Z = pbary_points(mats.reshape(4, -1), w, 2.0).reshape(3, 3)
        np.testing.assert_allclose(Z, np.einsum("i,ijk->jk", w, mats),
                                   atol=1e-12)


class TestSpectrumOptimality:
    def test_two_cluster_spectra_accepted(self):
        U = _rot(30.0)
        cases = [
            (np.eye(2), 1.0),
            (np.diag([1.0, 0.7]), 0.7),
            (np.diag([1.0, 0.0]), 0.0),
            (0.5 * np.eye(2), 0.5),
            (U @ np.diag([1.0, 3.0]) @ U.T, 3.0),
            (np.diag([1.0, 1.0, 2.5]), 2.5),
        ]
        for A, zeta in cases:
            v = spectrum_optimality(A)
            assert v.optimal, v.reason
            assert v.zeta == pytest.approx(zeta, abs=1e-8)

    def test_rejections(self):
        bad = [
            np.diag([1.3, 0.7]),        # no unit cluster
            np.diag([1.0, -0.5]),       # negative eigenvalue
            np.array([[1.0, 0.4], [0.0, 1.0]]),  # not symmetric
            _rot(25.0),                  # rotation
            np.diag([1.0, 0.5, 2.0]),   # three clusters
            -np.eye(2),
        ]
        for A in bad:
            v = spectrum_optimality(A)
            assert not v.optimal
            assert v.zeta is None
            assert v.reason


class TestAffineBarycenter:
    def test_translations_reduce_to_point_barycenter(self):
        vs = np.array([[0.0, 1.0], [2.0, -1.0], [-1.0, 0.5]])
        w = np.array([0.5, 0.25, 0.25])
        maps = [AffineMap(np.eye(2), v) for v in vs]
        res = affine_barycenter(maps, w, 3.0)
        np.testing.assert_allclose(res.Abar, np.eye(2), atol=1e-14)

        def obj(z):
            return float(
                (w * np.linalg.norm(vs - z[None, :], axis=1) ** 3.0).sum()
            )

        ref = minimize(obj, vs.mean(axis=0), method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14}).x
        np.testing.assert_allclose(res.vbar, ref, atol=1e-7)
        np.testing.assert_allclose(res.transport.v, res.vbar - vs[0],
                                   atol=1e-14)

    def test_commuting_linear_family(self):
        U = _rot(40.0)
        zs = np.array([0.7, 0.3])
        w = np.array([0.6, 0.4])
        v = np.array([0.2, -0.1])
        maps = [AffineMap(U @ np.diag([1.0, z]) @ U.T, v) for z in zs]
        res = affine_barycenter(maps, w, 2.5)
        zbar = _scalar_pbary(zs, w, 2.5)
        np.testing.assert_allclose(
            res.Abar, U @ np.diag([1.0, zbar]) @ U.T, atol=1e-8
        )
        np.testing.assert_allclose(res.vbar, v, atol=1e-14)
        # transport maps the first pushforward onto the barycenter
        lin = res.Abar @ np.linalg.inv(maps[0].A)
        np.testing.assert_allclose(res.transport.A, lin, atol=1e-8)
        np.testing.assert_allclose(res.transport.v, v - lin @ v, atol=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.5, 3.0])
    def test_linear_family_with_a_rotated_unit_eigenspace(self, p):
        """A_k = P + z_k (Id - P) with P a rotated rank-2 projector in
        d = 3: the unit-eigenvalue coordinates of the maps agree only to a
        few ulps, which used to make a per-coordinate solve fail."""
        U = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
        P = U[:, :2] @ U[:, :2].T
        zs = np.array([0.7, 0.3, 2.0])
        w = np.array([0.5, 0.3, 0.2])
        maps = [AffineMap(P + z * (np.eye(3) - P), np.zeros(3)) for z in zs]
        res = affine_barycenter(maps, w, p)
        zbar = _scalar_pbary(zs, w, p)
        np.testing.assert_allclose(res.Abar, P + zbar * (np.eye(3) - P),
                                   atol=1e-8)

    def test_quadratic_linear_family_is_mean(self):
        zs = np.array([0.7, 0.3, 1.2])
        w = np.array([0.2, 0.5, 0.3])
        maps = [AffineMap(np.diag([1.0, z]), np.zeros(2)) for z in zs]
        res = affine_barycenter(maps, w, 2.0)
        assert res.Abar[1, 1] == pytest.approx(float(w @ zs), abs=1e-12)

    def test_structure_violations(self):
        v0 = np.zeros(2)
        ok = AffineMap(np.diag([1.0, 0.5]), v0)
        with pytest.raises(StructureError):
            affine_barycenter(
                [ok, AffineMap(np.diag([1.0, 0.7]), np.array([1.0, 0.0]))],
                np.array([0.5, 0.5]), 2.5,
            )  # differing shifts
        with pytest.raises(StructureError):
            affine_barycenter(
                [ok, AffineMap(np.diag([1.3, 0.7]), v0)],
                np.array([0.5, 0.5]), 2.5,
            )  # spectrum without unit cluster
        with pytest.raises(StructureError):
            affine_barycenter(
                [ok, AffineMap(np.diag([1.0, -0.2]), v0)],
                np.array([0.5, 0.5]), 2.5,
            )  # negative eigenvalue
        U30, U60 = _rot(30.0), _rot(60.0)
        with pytest.raises(StructureError):
            affine_barycenter(
                [
                    AffineMap(U30 @ np.diag([1.0, 3.0]) @ U30.T, v0),
                    AffineMap(U60 @ np.diag([1.0, 0.2]) @ U60.T, v0),
                ],
                np.array([0.5, 0.5]), 2.5,
            )  # non-commuting
        with pytest.raises(StructureError):
            affine_barycenter(
                [AffineMap(np.diag([1.0, 0.0]), v0), ok],
                np.array([0.5, 0.5]), 2.5,
            )  # first map not invertible

    def test_singular_later_map_is_allowed(self):
        v0 = np.zeros(2)
        maps = [
            AffineMap(np.diag([1.0, 0.5]), v0),
            AffineMap(np.diag([1.0, 0.0]), v0),
        ]
        res = affine_barycenter(maps, np.array([0.5, 0.5]), 2.0)
        assert res.Abar[1, 1] == pytest.approx(0.25, abs=1e-12)


def test_affine_route_matches_discrete_route():
    mu = DiscreteMeasure(np.linspace(-1.0, 1.0, 5)[:, None],
                         np.full(5, 0.2))
    vs = np.array([[0.0], [1.5], [-0.5]])
    maps = [AffineMap(np.eye(1), v) for v in vs]
    rep = verify_affine_vs_mmot(mu, maps, np.array([0.4, 0.3, 0.3]), 2.5)
    assert rep.gap <= rep.tol
    assert rep.gap <= 3.0 * rep.pitch


class TestPTransform:
    def test_cubic_closed_form(self):
        xs = np.linspace(-4.0, 4.0, 4001)[:, None]
        phi = -(1.0 / 3.0) * np.abs(xs.ravel()) ** 3
        ev = np.linspace(-1.0, 1.0, 41)[:, None]
        tr = p_transform(xs, phi, 3.0, eval_points=ev)
        np.testing.assert_allclose(
            tr.values, (0.25 / 3.0) * np.abs(ev.ravel()) ** 3, atol=1e-6
        )
        assert not tr.degenerate
        assert not tr.boundary_mask.any()

    def test_boundary_argmin_is_flagged(self):
        xs = np.linspace(-0.1, 0.1, 101)[:, None]
        phi = -(1.0 / 3.0) * np.abs(xs.ravel()) ** 3
        tr = p_transform(xs, phi, 3.0, eval_points=np.array([[3.0]]))
        assert tr.boundary_mask.all()
        assert tr.degenerate

    def test_value_count_validation(self):
        with pytest.raises(ValidationError):
            p_transform(np.zeros((5, 1)), np.zeros(4), 2.0)


class TestConcavity:
    def test_power_profile_passes(self):
        ys = np.linspace(-2.0, 2.0, 801)[:, None]
        rep = p_concavity_check(ys, (0.25 / 3.0) * np.abs(ys.ravel()) ** 3,
                                3.0)
        assert rep.ok
        assert rep.max_deviation <= rep.tol

    def test_convex_violator_fails(self):
        ys = np.linspace(-2.0, 2.0, 801)[:, None]
        rep = p_concavity_check(ys, np.exp(np.abs(ys.ravel())), 3.0)
        assert not rep.ok

    def test_escaping_argmin_is_degenerate(self):
        # for the negative quartic profile the second transform's
        # minimizer runs to the window edge for over a quarter of the
        # interior points compared, which must be reported as degenerate
        ys = np.linspace(-2.0, 2.0, 801)[:, None]
        rep = p_concavity_check(ys, -np.abs(ys.ravel()) ** 4, 3.0)
        assert rep.degenerate
        assert not rep.ok


def test_transform_coefficient_values():
    assert homogeneous_transform_coefficient(-1.0, 3.0) == 0.25
    assert homogeneous_transform_coefficient(-0.5, 2.0) == pytest.approx(
        1.0 / 3.0, rel=1e-15
    )
    lam, p = -2.0, 2.5
    assert homogeneous_transform_coefficient(lam, p) == pytest.approx(
        (2.0 / 3.0) ** 1.5, rel=1e-15
    )
