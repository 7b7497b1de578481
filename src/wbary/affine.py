"""Affine optimal maps and barycenters of affinely related measures.

An affine map T(x) = Ax + v between suitable measures is p-optimal exactly
when A is symmetric with spectrum contained in {1, zeta} for some zeta >= 0
(including A = 0 with zeta = 0), that is A = P + zeta (Id - P) with P the
projector onto its eigenvalue-1 eigenspace.  For a family of such maps
sharing their shift and P, the barycenter of the pushforwards is again an
affine image of the reference measure: its matrix is the Frobenius
p-barycenter of the family matrices, P + zbar (Id - P) with zbar the scalar
p-barycenter of the zeta_i.

The module also provides the p-transform (generalized Legendre transform)

    phi^p(y) = inf_x (1/p)|x - y|^p - phi(x)

on grids, with a fixed-point check for p-concavity and the closed-form
coefficient for homogeneous potentials phi = (lam/p)|x|^p with lam <= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (_array, _check_exponent, _check_family, _length, _points,
                   pbary_points)
from .errors import StructureError, ValidationError
from .mmot import DiscreteMeasure, barycenter_measure, solve_mmot, wp_distance

# Symmetry and eigenvalue-cluster tolerance of spectrum_optimality.
_SPECTRUM_TOL = 1e-8
# Evaluation points per block of p_transform's distance matrix.
_CHUNK = 2048


@dataclass(frozen=True)
class AffineMap:
    """T(x) = A x + v, with A and v read-only copies of the inputs."""

    A: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        A = _array(self.A, "A", 2)
        v = _array(self.v, "v", 1)
        if A.shape[0] != A.shape[1] or A.shape[0] != v.shape[0]:
            raise ValidationError(f"incompatible affine shapes {A.shape}, {v.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "v", v)

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    def apply(self, x) -> np.ndarray:
        xs, lead = _points(x, self.dim, "x")
        return (xs @ self.A.T + self.v).reshape(lead + (self.dim,))


@dataclass(frozen=True)
class SpectrumVerdict:
    """Optimality diagnosis of an affine map's linear part.

    optimal : True when the matrix is symmetric and its spectrum clusters
        onto {1, zeta} with zeta >= 0
    zeta : the non-unit cluster value (1.0 when all eigenvalues are 1,
        0.0 for the zero matrix), None when not optimal
    """

    optimal: bool
    zeta: float | None
    reason: str


def spectrum_optimality(A) -> SpectrumVerdict:
    """Decide p-optimality of the linear map A from its spectrum, to 1e-8."""
    A = _array(A, "A", 2)
    if A.shape[0] != A.shape[1]:
        raise ValidationError("matrix must be square")
    scale = max(1.0, float(np.abs(A).max()))
    asym = float(np.abs(A - A.T).max())
    if asym > _SPECTRUM_TOL * scale:
        return SpectrumVerdict(
            optimal=False,
            zeta=None,
            reason=f"not symmetric (|A - A^T| = {asym:.3e})",
        )
    w = np.linalg.eigvalsh(0.5 * (A + A.T))
    ones = np.abs(w - 1.0) <= _SPECTRUM_TOL
    rest = w[~ones]
    if rest.size == 0:
        return SpectrumVerdict(True, 1.0, "all eigenvalues equal 1")
    spread = float(rest.max() - rest.min())
    if spread > _SPECTRUM_TOL:
        return SpectrumVerdict(
            False, None,
            f"non-unit eigenvalues spread {spread:.3e} exceeds tolerance",
        )
    zeta = float(rest.mean())
    if zeta < -_SPECTRUM_TOL:
        return SpectrumVerdict(
            False, None, f"non-unit cluster {zeta:.3e} is negative"
        )
    return SpectrumVerdict(True, max(zeta, 0.0), "spectrum in {1, zeta}")


@dataclass(frozen=True)
class AffineBarycenterResult:
    """Barycenter of affinely related measures in closed form.

    The barycenter of the pushforwards (A_i x + v_i)_# mu is
    (Abar x + vbar)_# mu; transport is the optimal map from the first
    pushforward to the barycenter.
    """

    Abar: np.ndarray
    vbar: np.ndarray
    transport: AffineMap


def _is_identity(A, tol):
    return float(np.abs(A - np.eye(A.shape[0])).max()) <= tol


def affine_barycenter(maps, weights, p) -> AffineBarycenterResult:
    """Closed-form barycenter matrix/shift for a structured affine family.

    Two admissible families:
      * translations: every A_i = Id (arbitrary shifts v_i);
      * linear: common shift v, symmetric matrices A_i = P + zeta_i (Id - P)
        with zeta_i >= 0 and one projector P onto the eigenvalue-1
        eigenspace of every non-identity map, and A_1 invertible.
    Violations raise StructureError naming the failed condition.
    """
    w, p, d = _check_family(maps, weights, p)
    mats = np.stack([mp.A for mp in maps])
    vs = np.stack([mp.v for mp in maps])
    scale = max(1.0, float(np.abs(mats).max()))
    id_tol = 1e-9 * scale

    if all(_is_identity(mp.A, id_tol) for mp in maps):
        vbar = pbary_points(vs, w, p)
        transport = AffineMap(np.eye(d), vbar - vs[0])
        return AffineBarycenterResult(Abar=np.eye(d), vbar=vbar,
                                      transport=transport)

    vscale = max(1.0, float(np.abs(vs).max()))
    if np.abs(vs - vs[0][None, :]).max() > 1e-9 * vscale:
        raise StructureError(
            "non-translation families must share a common shift vector"
        )
    v = vs[0]
    sv1 = np.linalg.svd(mats[0], compute_uv=False)
    if sv1[-1] <= 1e-12 * max(sv1[0], 1.0):
        raise StructureError("first map's matrix must be invertible")
    zetas = np.empty(len(mats))
    projectors = []
    for k, A in enumerate(mats):
        if np.abs(A - A.T).max() > 1e-9 * scale:
            raise StructureError(f"matrix {k} is not symmetric")
        verdict = spectrum_optimality(A)
        if not verdict.optimal:
            raise StructureError(
                f"matrix {k} spectrum not of the form {{1, zeta >= 0}}: "
                f"{verdict.reason}"
            )
        zetas[k] = verdict.zeta
        if not _is_identity(A, id_tol):
            ev, Q = np.linalg.eigh(A)
            U = Q[:, np.abs(ev - 1.0) <= _SPECTRUM_TOL]
            projectors.append(U @ U.T)
    P = projectors[0]
    if any(np.abs(Pk - P).max() > 1e-8 for Pk in projectors[1:]):
        raise StructureError(
            "eigenvalue-1 eigenspaces of the non-identity maps differ"
        )

    zbar = pbary_points(zetas[:, None], w, p)[0]
    Abar = P + zbar * (np.eye(d) - P)
    A1_inv = np.linalg.inv(mats[0])
    lin = Abar @ A1_inv
    transport = AffineMap(lin, v - lin @ v)
    return AffineBarycenterResult(Abar=Abar, vbar=v, transport=transport)


@dataclass(frozen=True)
class AffineMmotReport:
    """Gap between the closed-form affine barycenter and the discrete route."""

    gap: float
    tol: float
    pitch: float

    @property
    def ok(self) -> bool:
        return self.gap <= self.tol


def verify_affine_vs_mmot(mu: DiscreteMeasure, maps, weights,
                          p) -> AffineMmotReport:
    """Compare (Abar x + vbar)_# mu against the multi-marginal barycenter.

    The marginals are the pushforwards of mu under the maps; the tolerance
    is 3 h with h the largest nearest-neighbor spacing of the reference
    atoms (the discretization pitch), scaled by the family's matrix norm.
    """
    result = affine_barycenter(maps, weights, p)
    Abar, vbar = result.Abar, result.vbar
    nu_aff = DiscreteMeasure(mu.atoms @ Abar.T + vbar, mu.masses)
    measures = [
        DiscreteMeasure(mp.apply(mu.atoms), mu.masses) for mp in maps
    ]
    plan = solve_mmot(measures, weights, p)
    nu_hat = barycenter_measure(plan)
    gap = wp_distance(nu_aff, nu_hat, p)
    if mu.n_atoms > 1:
        diff = _length(mu.atoms[:, None, :] - mu.atoms[None, :, :])
        np.fill_diagonal(diff, np.inf)
        pitch = float(diff.min(axis=1).max())
    else:
        pitch = 1.0
    mat_scale = max(1.0, float(max(np.abs(mp.A).max() for mp in maps)))
    return AffineMmotReport(
        gap=gap,
        tol=3.0 * pitch * mat_scale,
        pitch=pitch,
    )


# ---------------------------------------------------------------------------
# p-transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PTransformResult:
    """Grid p-transform values with a degeneracy diagnostic.

    boundary_mask marks evaluation points whose infimum is attained on the
    boundary of the sample hull: there the true infimum may lie outside the
    grid and the value is only an upper bound.  degenerate is set when they
    are a majority: the transform is then effectively -inf on most of the
    window.
    """

    values: np.ndarray
    degenerate: bool
    boundary_mask: np.ndarray = None


def p_transform(points, values, p, eval_points=None) -> PTransformResult:
    """phi^p(y) = min_x (1/p)|x - y|^p - phi(x) over the sampled x."""
    p = _check_exponent(p)
    pts = _array(points, "points", 2)
    vals = _array(values, "values", 1)
    if pts.shape[0] != vals.shape[0]:
        raise ValidationError("one value per sample point required")
    ys, lead = _points(pts if eval_points is None else eval_points,
                       pts.shape[1], "eval_points")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    margin = 1e-9 * max(1.0, float(np.abs(pts).max()))
    near_face = (
        (np.abs(pts - lo[None, :]) <= margin)
        | (np.abs(pts - hi[None, :]) <= margin)
    ).any(axis=1)
    out = np.empty(ys.shape[0])
    hit = np.zeros(ys.shape[0], dtype=bool)
    for s in range(0, ys.shape[0], _CHUNK):
        block = ys[s:s + _CHUNK]
        obj = _length(block[:, None] - pts[None]) ** p / p - vals[None, :]
        arg = np.argmin(obj, axis=1)
        out[s:s + _CHUNK] = obj[np.arange(block.shape[0]), arg]
        hit[s:s + _CHUNK] = near_face[arg]
    return PTransformResult(values=out.reshape(lead),
                            degenerate=bool(hit.mean() > 0.5),
                            boundary_mask=hit.reshape(lead))


def _grid_spacing(pts) -> float:
    h = 0.0
    for a in range(pts.shape[1]):
        u = np.unique(pts[:, a])
        if u.size > 1:
            h = max(h, float(np.diff(u).min()))
    return h if h > 0 else 1.0


@dataclass(frozen=True)
class ConcavityReport:
    """Fixed-point test of the double p-transform against the original.

    phi is p-concave when (phi^p)^p = phi; on a grid the comparison is made
    on interior points up to a tolerance from the objective's modulus of
    continuity over one grid cell.  degenerate is set when too many of the
    compared evaluations attain their infimum on the sample-hull boundary,
    i.e. the window is too small for the comparison to mean anything.
    """

    max_deviation: float
    tol: float
    degenerate: bool

    @property
    def ok(self) -> bool:
        return not self.degenerate and self.max_deviation <= self.tol


def p_concavity_check(points, values, p) -> ConcavityReport:
    """Compare (phi^p)^p with phi on the grid's interior points: those in the
    middle half of the sample box along every axis.  ValidationError when
    there are fewer than two samples or no interior point."""
    pts = _array(points, "points", 2)
    vals = _array(values, "values", 1)
    t1 = p_transform(pts, vals, p)
    t2 = p_transform(pts, t1.values, p)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    mid, half = 0.5 * (lo + hi), 0.25 * (hi - lo)
    interior_mask = np.all(np.abs(pts - mid[None, :]) <= half[None, :], axis=1)
    if len(pts) < 2 or not interior_mask.any():
        raise ValidationError("need two or more sample points, some of them "
                              "in the middle half of the sample box")
    dev = float(np.abs(t2.values[interior_mask] - vals[interior_mask]).max())
    h = _grid_spacing(pts)
    diam = float(_length(pts.max(axis=0) - pts.min(axis=0)))
    grad = np.abs(np.diff(vals)).max() / h if pts.shape[1] == 1 else max(
        1.0, np.abs(vals).max()
    )
    lip = diam ** (p - 1.0) + grad
    tol = 2.0 * lip * h + 1e-9
    return ConcavityReport(
        max_deviation=dev,
        tol=tol,
        degenerate=bool(t2.boundary_mask[interior_mask].mean() > 0.25),
    )


def homogeneous_transform_coefficient(lam: float, p: float) -> float:
    """Coefficient g of phi^p = (g/p)|y|^p for phi = (lam/p)|x|^p, lam <= 0
    finite.

    g = (|lam| / (1 + |lam|))^(p-1); for lam = -1, p = 3 this equals 1/4,
    with the infimum attained at x = y/2.
    """
    p = _check_exponent(p)
    if not -np.inf < lam <= 0.0:
        raise ValidationError(f"closed form requires finite lam <= 0, got {lam}")
    a = abs(lam)
    return (a / (1.0 + a)) ** (p - 1.0)
