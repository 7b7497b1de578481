"""Semidiscrete barycenter problems: one diffuse marginal, N-1 Dirac anchors.

With weights (w_1, ..., w_N) and fixed anchor points xh_2, ..., xh_N, the map
b(x_1) = barycenter(x_1, xh_2, ..., xh_N) sends the first coordinate to the
weighted p-barycenter of the tuple.  Writing

    Gbar(z) = sum_{i>=2} w_i |xh_i - z|^(p-2) (xh_i - z),

the Euler-Lagrange equation gives a closed-form inverse

    b^{-1}(z) = z - w_1^{alpha-1} * Gbar(z) * |Gbar(z)|^{-alpha},
    alpha = (p-2)/(p-1),

with the continuous extension b^{-1}(z) = z where Gbar vanishes (the fixed
point zbar, the barycenter of the anchors alone).  The Jacobian of b^{-1} is
generally non-symmetric but is a product of symmetric positive matrices, so
its spectrum is real; eigenvalues are computed exactly through a symmetric
similarity transform.  These eigenvalues drive everything else here: two-sided
bounds, pushforward densities of the induced barycenter measure, and local
blow-up exponents that decide L^q membership.  Gbar, its gradient, the anchor
distances and A(z) = sum_{i>=2} w_i |xh_i - z|^(p-2) come from one
core.curvature_kernel call per batch of points, and grad b^{-1} and its
spectrum from one routine on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    alpha_exponent,
    beta_exponent,
    _check_exponent,
    _check_q,
    _check_weights,
    _diameters,
    curvature_kernel,
    pbary_points,
)
from .errors import (
    InsufficientDataError,
    SingularPointError,
    ValidationError,
)
from .grid import GridDensity, _res_tuple

_GBAR_ZERO = 1e-300
# Refinement of the cells next to a singular point (see pushforward_density).
_SINGULAR_RADIUS_REL = 1e-6
_SUBSAMPLE = 6
# Directions per radius and fewest usable radii in blowup_exponent.
_BLOWUP_DIRECTIONS = 64
_MIN_USABLE_RADII = 4


@dataclass(eq=False)
class DiracConfiguration:
    """Weights, exponent, and anchor points of a semidiscrete problem.

    anchors : (N-1, d) positions of the Dirac marginals mu_2..mu_N
    weights : (N,) positive, summing to one; weights[0] belongs to the
        diffuse first marginal
    p : exponent in (1, inf)
    """

    anchors: np.ndarray
    weights: np.ndarray
    p: float

    def __post_init__(self):
        # Private read-only copies: fixed_point is cached, so a later write
        # through the caller's arrays must not reach the configuration.
        anchors = np.atleast_2d(np.array(self.anchors, dtype=float))
        self.anchors = anchors
        self.p = _check_exponent(self.p)
        if anchors.ndim != 2 or anchors.shape[0] < 1:
            raise ValidationError("anchors must be a nonempty (N-1, d) array")
        if not np.all(np.isfinite(anchors)):
            raise ValidationError("anchors contain non-finite entries")
        self.weights = np.array(_check_weights(self.weights,
                                               anchors.shape[0] + 1))
        anchors.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def lam1(self) -> float:
        return float(self.weights[0])

    @property
    def dim(self) -> int:
        return self.anchors.shape[1]

    @property
    def n_marginals(self) -> int:
        return self.weights.shape[0]

    @property
    def alpha(self) -> float:
        return alpha_exponent(self.p)

    @property
    def beta(self) -> float:
        return beta_exponent(self.p)

    @cached_property
    def fixed_point(self) -> np.ndarray:
        """zbar: the barycenter of the anchors under renormalized weights.

        This is the unique point where Gbar vanishes, and the fixed point of
        both b and b^{-1}.
        """
        w = self.weights[1:]
        return pbary_points(self.anchors, w / w.sum(), self.p)

    @cached_property
    def geometry_scale(self) -> float:
        """Diameter of anchors together with the fixed point (length scale)."""
        d = float(_diameters(np.vstack([self.anchors, self.fixed_point])))
        return d if d > 0 else 1.0


def _as_batch(z, d):
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    zb = z[None] if single else z.reshape(-1, d)
    if zb.shape[-1] != d:
        raise ValidationError(f"points have dimension {zb.shape[-1]}, expected {d}")
    return zb, single, z.shape


def _anchor_field(cfg: DiracConfiguration, zb):
    """One curvature_kernel pass over the offsets xh_i - z, batched over zb.

    Returns (G, negdG, r, A): Gbar(z), -grad Gbar(z) = sum of the curvature
    blocks, the (B, N-1) anchor distances and A(z) = sum_{i>=2} w_i r_i^(p-2).
    For p < 2 none of them is defined at an anchor.
    """
    rvec = cfg.anchors[None, :, :] - zb[:, None, :]
    H, r, fac = curvature_kernel(rvec, cfg.weights[1:], cfg.p)
    if cfg.p < 2.0 and np.any(r == 0.0):
        raise SingularPointError("Gbar undefined at an anchor for p < 2")
    wfac = cfg.weights[1:][None, :] * fac
    G = (wfac[..., None] * rvec).sum(axis=1)
    return G, H.sum(axis=1), r, wfac.sum(axis=1)


def gbar(cfg: DiracConfiguration, z) -> np.ndarray:
    """Gbar(z) = sum_{i>=2} w_i |xh_i - z|^(p-2) (xh_i - z), vectorized.

    The reference oracle the tests check fixed_point and b_inverse against.
    For p < 2 the summand is undefined at the anchors themselves.
    """
    zb, single, shape = _as_batch(z, cfg.dim)
    G = _anchor_field(cfg, zb)[0]
    return G[0] if single else G.reshape(shape)


def b_forward(cfg: DiracConfiguration, x1) -> np.ndarray:
    """b(x_1): the full barycenter with the first point at x_1, vectorized."""
    xb, single, shape = _as_batch(x1, cfg.dim)
    B = xb.shape[0]
    pts = np.empty((B, cfg.n_marginals, cfg.dim))
    pts[:, 0, :] = xb
    pts[:, 1:, :] = cfg.anchors[None, :, :]
    z = pbary_points(pts, cfg.weights, cfg.p)
    return z[0] if single else z.reshape(shape)


def b_inverse(cfg: DiracConfiguration, z) -> np.ndarray:
    """Closed-form inverse of b, with b^{-1}(zbar) = zbar by continuity."""
    zb, single, shape = _as_batch(z, cfg.dim)
    out = _b_inverse_at(cfg, zb, _anchor_field(cfg, zb)[0])
    return out[0] if single else out.reshape(shape)


def _b_inverse_at(cfg: DiracConfiguration, zb, G):
    """b^{-1} at the rows of zb, given G = Gbar(zb)."""
    Gn = np.linalg.norm(G, axis=1)
    out = np.array(zb, copy=True)
    pos = Gn > 0.0
    lam1 = cfg.lam1
    a = cfg.alpha
    out[pos] -= lam1 ** (a - 1.0) * G[pos] * Gn[pos, None] ** (-a)
    return out


def _inverse_jacobian(cfg: DiracConfiguration, zb, eigs: bool, field=None):
    """(grad b^{-1} or its ascending spectrum, _anchor_field) at the rows of zb.

    field : _anchor_field(cfg, zb) when already computed, else None.

    grad b^{-1} = Id + c A S with c = w1^(alpha-1), S = -grad Gbar / |Gbar|^alpha
    and A = Id - alpha P, P the projector onto Gbar.  It is similar to the
    symmetric Id + c A^{1/2} S A^{1/2}, A^{1/2} = Id + (sqrt(1-alpha) - 1) P,
    whose eigvalsh gives the spectrum exactly.  p = 2 gives Id / w1; p < 2 gives
    Id at zbar; for p > 2, zbar raises SingularPointError, while at an anchor
    the vanishing block gives the continuous limit.  For p < 2 _anchor_field
    has already raised at an anchor.
    """
    if field is None:
        field = _anchor_field(cfg, zb)
    G, negdG, _, _ = field
    d = cfg.dim
    eye = np.eye(d)[None]
    out = np.empty((zb.shape[0],) + ((d,) if eigs else (d, d)))
    if cfg.p == 2.0:
        out[:] = (1.0 if eigs else eye) / cfg.lam1
        return out, field
    Gn = np.linalg.norm(G, axis=1)
    zero = Gn == 0.0
    if cfg.p > 2.0 and zero.any():
        raise SingularPointError(
            "grad b^{-1} is unbounded at the anchor barycenter for p > 2"
        )
    out[zero] = 1.0 if eigs else eye
    pos = ~zero
    if pos.any():
        S = negdG[pos] / Gn[pos, None, None] ** cfg.alpha
        u = G[pos] / Gn[pos, None]
        P = u[:, :, None] * u[:, None, :]
        c = cfg.lam1 ** (cfg.alpha - 1.0)
        if eigs:
            Ah = eye + (math.sqrt(1.0 - cfg.alpha) - 1.0) * P
            M = np.einsum("bij,bjk,bkl->bil", Ah, S, Ah)
            M = 0.5 * (M + np.swapaxes(M, 1, 2))
            out[pos] = 1.0 + c * np.linalg.eigvalsh(M)
        else:
            A = eye - cfg.alpha * P
            out[pos] = eye + c * np.einsum("bij,bjk->bik", A, S)
    return out, field


def grad_b_inverse(cfg: DiracConfiguration, z) -> np.ndarray:
    """Jacobian matrix of b^{-1} at z (generally non-symmetric), vectorized.

    Excluded points (SingularPointError): zbar for p > 2, where the Jacobian
    blows up, and the anchors for p < 2.  For p = 2 the Jacobian is
    (1/w_1) Id everywhere; for p > 2 it is continuous at the anchors, and
    for p < 2 it extends continuously to the identity at zbar.
    """
    zb, single, shape = _as_batch(z, cfg.dim)
    out = _inverse_jacobian(cfg, zb, eigs=False)[0]
    return out[0] if single else out.reshape(shape[:-1] + out.shape[1:])


def grad_b_inverse_eigs(cfg: DiracConfiguration, z) -> np.ndarray:
    """Eigenvalues of grad b^{-1}(z), ascending, computed exactly as reals."""
    zb, single, shape = _as_batch(z, cfg.dim)
    out = _inverse_jacobian(cfg, zb, eigs=True)[0]
    return out[0] if single else out.reshape(shape[:-1] + out.shape[1:])


def jacobian_det(cfg: DiracConfiguration, z) -> np.ndarray:
    """|det grad b^{-1}(z)|, vectorized."""
    zb, single, shape = _as_batch(z, cfg.dim)
    out = _jacobian_det_at(cfg, zb)
    return float(out[0]) if single else out.reshape(shape[:-1])


def _jacobian_det_at(cfg: DiracConfiguration, zb, field=None):
    """|det grad b^{-1}| at the rows of zb; field as in _inverse_jacobian."""
    eigs = _inverse_jacobian(cfg, zb, eigs=True, field=field)[0]
    return np.abs(np.prod(eigs, axis=-1))


# ---------------------------------------------------------------------------
# two-sided eigenvalue bounds
# ---------------------------------------------------------------------------


def nonsharp_constant(p: float) -> float:
    """Explicit constant C_p = (p-1)^(1+alpha) * 2^((p-2) alpha) for p >= 2."""
    a = alpha_exponent(p)
    return (p - 1.0) ** (1.0 + a) * 2.0 ** ((p - 2.0) * a)


@dataclass(frozen=True)
class EigBoundReportPGe2:
    """Margins of the eigenvalue bounds for p >= 2, minimized over the z batch.

    lower_unit_margin : min eig - 1 (the universal lower bound)
    lower_local_margin : min eig minus 1 + (1-alpha) A / (w1^(1-alpha) |G|^alpha)
    upper_local_margin : 1 + (p-1) A / (w1^(1-alpha) |G|^alpha) minus max eig
    upper_explicit_margin : explicit bound with the closed-form constant C_p
        and the ratio M(z)/|z - zbar| minus max eig
    """

    lower_unit_margin: float
    lower_local_margin: float
    upper_local_margin: float
    upper_explicit_margin: float

    @property
    def ok(self) -> bool:
        return (
            self.lower_unit_margin >= -1e-9
            and self.lower_local_margin >= -1e-9
            and self.upper_local_margin >= -1e-9
            and self.upper_explicit_margin >= -1e-9
        )


def check_bounds_p_ge2(cfg: DiracConfiguration, z) -> EigBoundReportPGe2:
    """Check the two-sided Jacobian eigenvalue bounds for p >= 2 at points z.

    Every eigenvalue of grad b^{-1} must lie between
        1 + (1 - alpha) A(z) / (w1^(1-alpha) |Gbar|^alpha)   and
        1 + (p - 1)   A(z) / (w1^(1-alpha) |Gbar|^alpha),
    where A(z) = sum_{i>=2} w_i |xh_i - z|^(p-2); in particular all
    eigenvalues are >= 1.  The explicit upper bound replaces |Gbar| by its
    distance-based lower bound and reads
        1 + C_p ((1-w1)/w1)^(1-alpha) (M(z)/|z - zbar|)^(p-2),
    with M(z) the largest anchor distance.  At p = 2 all four margins are
    zero: every bound collapses to the exact value 1/w1.
    """
    if cfg.p < 2.0:
        raise ValidationError("check_bounds_p_ge2 requires p >= 2")
    zb, _, _ = _as_batch(z, cfg.dim)
    eigs, (G, _, r_anchor, A) = _inverse_jacobian(cfg, zb, eigs=True)
    emin, emax = eigs.min(axis=1), eigs.max(axis=1)
    lam1, a, p = cfg.lam1, cfg.alpha, cfg.p
    Gn = np.linalg.norm(G, axis=1)
    with np.errstate(divide="ignore"):
        ratio = A / (lam1 ** (1.0 - a) * np.maximum(Gn, _GBAR_ZERO) ** a)
    ratio = np.where(Gn == 0.0, np.inf if p > 2.0 else A / lam1, ratio)

    low_local = 1.0 + (1.0 - a) * ratio
    up_local = 1.0 + (p - 1.0) * ratio

    r_fix = np.linalg.norm(zb - cfg.fixed_point[None, :], axis=1)
    M = r_anchor.max(axis=1)
    with np.errstate(divide="ignore"):
        up_explicit = 1.0 + nonsharp_constant(p) * (
            (1.0 - lam1) / lam1
        ) ** (1.0 - a) * (M / np.maximum(r_fix, _GBAR_ZERO)) ** (p - 2.0)
    up_explicit = np.where(r_fix == 0.0, np.inf if p > 2.0 else
                           up_explicit, up_explicit)

    m_low = emin - low_local
    m_unit = emin - 1.0
    m_up = up_local - emax
    m_upe = up_explicit - emax
    return EigBoundReportPGe2(
        lower_unit_margin=float(m_unit.min()),
        lower_local_margin=float(m_low.min()),
        upper_local_margin=float(m_up.min()),
        upper_explicit_margin=float(m_upe.min()),
    )


@dataclass(frozen=True)
class EigBoundReportPLt2:
    """Margins for the p < 2 bounds on eig(grad b^{-1} - Id) over a z batch.

    The "stated" band is
        (p-1) min_w (1-w1)^beta / w1^(1+beta) (|z-zbar|/m(z))^(2-p)
            <= eig - 1 <=
        (1+beta) (1-w1)^beta / w1^(1+beta) (M(z)/m(z))^(2-p),
    with m, M the smallest/largest anchor distance and min_w the smallest
    anchor weight.  The "local" band replaces the distance ratios by the exact
    quantities At(z) |Gbar(z)|^beta with At(z) = sum w_i |xh_i-z|^(p-2):
        (p-1)/w1^(1+beta) At |G|^beta <= eig - 1 <= (1+beta)/w1^(1+beta) At |G|^beta.
    """

    stated_lower_margin: float
    stated_upper_margin: float
    local_lower_margin: float
    local_upper_margin: float

    @property
    def stated_ok(self) -> bool:
        return self.stated_lower_margin >= -1e-9 and self.stated_upper_margin >= -1e-9

    @property
    def local_ok(self) -> bool:
        return self.local_lower_margin >= -1e-9 and self.local_upper_margin >= -1e-9


def check_bounds_p_lt2(cfg: DiracConfiguration, z) -> EigBoundReportPLt2:
    """Check the two-sided p < 2 bounds at points z (anchors excluded).

    Reports margins for both the distance-ratio ("stated") band and the
    sharper local band through At(z)|Gbar(z)|^beta.  The stated lower margin
    is known to go negative in a neighborhood of the fixed point zbar for
    N > 2: there eig - 1 decays like |z-zbar|^beta with beta = (2-p)/(p-1),
    which is strictly faster than the (2-p) rate the stated bound assumes.
    The local band holds everywhere.
    """
    if cfg.p >= 2.0:
        raise ValidationError("check_bounds_p_lt2 requires p < 2")
    zb, _, _ = _as_batch(z, cfg.dim)
    eigs, (G, _, r_anchor, At) = _inverse_jacobian(cfg, zb, eigs=True)
    emin, emax = eigs.min(axis=1) - 1.0, eigs.max(axis=1) - 1.0
    p, lam1, beta = cfg.p, cfg.lam1, cfg.beta
    m = r_anchor.min(axis=1)
    M = r_anchor.max(axis=1)
    r_fix = np.linalg.norm(zb - cfg.fixed_point[None, :], axis=1)
    wmin = float(cfg.weights[1:].min())
    pref = (1.0 - lam1) ** beta / lam1 ** (1.0 + beta)
    stated_low = (p - 1.0) * wmin * pref * (r_fix / m) ** (2.0 - p)
    stated_up = (1.0 + beta) * pref * (M / m) ** (2.0 - p)

    Gn = np.linalg.norm(G, axis=1)
    loc = At * Gn ** beta / lam1 ** (1.0 + beta)
    local_low = (p - 1.0) * loc
    local_up = (1.0 + beta) * loc

    m_sl = emin - stated_low
    m_su = stated_up - emax
    m_ll = emin - local_low
    m_lu = local_up - emax
    return EigBoundReportPLt2(
        stated_lower_margin=float(m_sl.min()),
        stated_upper_margin=float(m_su.min()),
        local_lower_margin=float(m_ll.min()),
        local_upper_margin=float(m_lu.min()),
    )


# ---------------------------------------------------------------------------
# pushforward density and L^q quantities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PushforwardResult:
    """Grid image of the barycenter density g_p = (f_1 o b^{-1}) |det grad b^{-1}|.

    mass_ok is False when the grid mass deviates from 1 by more than 5%,
    which signals under-resolution (or genuine non-integrability near a
    singular point).
    """

    density: GridDensity
    mass: float
    mass_ok: bool
    singular_cells: int


def _singular_points(cfg: DiracConfiguration):
    if cfg.p > 2.0:
        return cfg.fixed_point[None, :]
    if cfg.p < 2.0:
        return cfg.anchors
    return np.empty((0, cfg.dim))


def _image_box(cfg: DiracConfiguration, source_box: np.ndarray) -> np.ndarray:
    """Bounding box of b(source box) via boundary sampling (exact for p=2).

    Every face of the box is sampled on a 33-point lattice, which includes
    all corners (in d = 1 the faces are the two end points).
    """
    d = cfg.dim
    axes = [np.linspace(lo, hi, 33) for lo, hi in source_box]
    pts = [np.stack(np.meshgrid(*axes[:a], source_box[a], *axes[a + 1:],
                                indexing="ij"), -1).reshape(-1, d)
           for a in range(d)]
    img = b_forward(cfg, np.vstack(pts))
    return np.stack([img.min(axis=0), img.max(axis=0)], axis=1)


def _density_at(cfg: DiracConfiguration, f1: GridDensity, zs: np.ndarray):
    """g_p = f1(b^{-1}) |det grad b^{-1}| at the rows of zs, from one anchor
    field; the Jacobian is taken only where f1(b^{-1}) > 0."""
    field = _anchor_field(cfg, zs)
    vals = f1.evaluate(_b_inverse_at(cfg, zs, field[0]))
    out = np.zeros(zs.shape[0])
    pos = vals > 0.0
    if pos.any():
        out[pos] = vals[pos] * _jacobian_det_at(
            cfg, zs[pos], tuple(a[pos] for a in field))
    return out


def _row_means(vals, keep):
    """Per-row means of the entries vals kept by the (rows, n) mask keep.

    Each row is averaged on its own (0 when empty), so its sum runs in the
    order of a 1-D mean over that row alone.
    """
    parts = np.split(vals, np.cumsum(keep.sum(axis=1))[:-1])
    return np.array([v.mean() if v.size else 0.0 for v in parts])


def pushforward_density(cfg: DiracConfiguration, f1: GridDensity,
                        resolution=None) -> PushforwardResult:
    """Pushforward of the density f1 under b, on a grid over b(spt f1).

    resolution : cells per axis (an int or a tuple), by default f1's.
    The grid box is the bounding box of b on the boundary of f1's support
    box.  Each target cell gets g_p evaluated at its center through the
    closed-form inverse.  Cells within 1e-6 * scale (plus half a cell
    diagonal) of a singular point (zbar for p > 2, anchors for p < 2) are
    refined on a 6^d subgrid and averaged instead, skipping subsample points
    that fall within 1e-12 * scale of the singularity; all subsample points
    of all such cells are evaluated in one batch.
    """
    if f1.dim != cfg.dim:
        raise ValidationError("density dimension does not match configuration")
    if resolution is None:
        resolution = f1.resolution
    target_box = _image_box(cfg, f1.support_box())
    out = GridDensity(target_box, np.zeros(_res_tuple(resolution, cfg.dim)))
    centers = out.centers()
    h = out.cell_widths
    scale = max(cfg.geometry_scale,
                float(np.max(target_box[:, 1] - target_box[:, 0])))
    sing = _singular_points(cfg)

    def sing_dist(pts):
        dist = np.linalg.norm(pts[..., None, :] - sing, axis=-1)
        return dist.min(axis=-1, initial=np.inf)

    excl = sing_dist(centers) <= (_SINGULAR_RADIUS_REL * scale
                                  + 0.5 * np.linalg.norm(h))
    values = np.zeros(centers.shape[0])
    regular = ~excl
    if regular.any():
        values[regular] = _density_at(cfg, f1, centers[regular])
    n_sing = int(excl.sum())
    if n_sing:
        offs = (np.arange(_SUBSAMPLE) + 0.5) / _SUBSAMPLE
        mesh = np.meshgrid(*([offs] * cfg.dim), indexing="ij")
        rel = np.stack([m.ravel() for m in mesh], axis=-1)  # (sub^d, d)
        lo = centers[excl] - 0.5 * h
        pts = lo[:, None, :] + (rel * h[None, :])[None]  # (n_sing, sub^d, d)
        keep = sing_dist(pts) > 1e-12 * scale
        values[excl] = _row_means(_density_at(cfg, f1, pts[keep]), keep)
    dens = GridDensity(target_box, values.reshape(out.resolution))
    mass = dens.mass()
    return PushforwardResult(
        density=dens,
        mass=mass,
        mass_ok=abs(mass - 1.0) <= 0.05,
        singular_cells=n_sing,
    )


def lq_via_changevar(cfg: DiracConfiguration, f1: GridDensity, q: float) -> float:
    """L^q norm of the pushforward density, computed on the source side:

        (int f1(x)^q * J(b(x))^(q-1) dx)^(1/q),    J = |det grad b^{-1}|.

    This avoids the target grid entirely and is the measurement route used
    to validate integrability bounds.
    """
    q = _check_q(q)
    mask = f1.values.ravel() > 0.0
    if not mask.any():
        return 0.0
    xs = f1.centers()[mask]
    vals = f1.values.ravel()[mask]
    zs = b_forward(cfg, xs)
    J = jacobian_det(cfg, zs)
    return float((vals ** q * J ** (q - 1.0)).sum() * f1.cell_volume) ** (
        1.0 / q)


# ---------------------------------------------------------------------------
# blow-up exponent
# ---------------------------------------------------------------------------


def _directions(d: int, n: int) -> np.ndarray:
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        th = 2.0 * np.pi * np.arange(n) / n
        return np.stack([np.cos(th), np.sin(th)], axis=-1)
    # Fibonacci sphere for d = 3; higher d: normalized Halton-free fallback
    if d == 3:
        k = np.arange(n) + 0.5
        phi = np.arccos(1.0 - 2.0 * k / n)
        theta = np.pi * (1.0 + math.sqrt(5.0)) * k
        return np.stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta),
             np.cos(phi)], axis=-1,
        )
    rng = np.random.default_rng(0)
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@dataclass(frozen=True)
class BlowupReport:
    """Log-log fit of the pushforward density along shrinking annuli.

    slope : fitted d(log g)/d(log r) at the given center
    q0 : critical integrability index d / |slope| (inf if the slope is ~0
        or positive); g_p belongs to L^q exactly for q < q0
    verdicts : {q: bool} integrability verdicts for the requested q values
    """

    slope: float
    q0: float
    radii_used: np.ndarray
    annulus_means: np.ndarray
    verdicts: dict


def blowup_exponent(cfg: DiracConfiguration, f1: GridDensity, center,
                    radii, q_values=()) -> BlowupReport:
    """Fit the local power-law exponent of g_p around a singular center.

    For each radius, g_p is evaluated at 64 deterministic points on the
    sphere of that radius (2 in d = 1) and averaged; radii where fewer than
    90% of the samples carry positive density (the preimage left spt f1) are
    discarded.  An ordinary least-squares line through (log r, log mean)
    gives the local exponent; fewer than 4 usable radii raise
    InsufficientDataError.
    """
    center = np.asarray(center, dtype=float).ravel()
    radii = np.asarray(radii, dtype=float).ravel()
    if radii.size < 6:
        raise ValidationError("supply at least 6 candidate radii")
    dirs = _directions(cfg.dim, _BLOWUP_DIRECTIONS)
    zs = center[None, None, :] + radii[:, None, None] * dirs[None]
    g = _density_at(cfg, f1, zs.reshape(-1, cfg.dim)).reshape(radii.size, -1)
    pos = g > 0.0
    usable = pos.sum(axis=1) >= 0.9 * len(dirs)
    used = radii[usable]
    means = _row_means(g[usable][pos[usable]], pos[usable])
    if len(used) < _MIN_USABLE_RADII:
        raise InsufficientDataError(
            f"only {len(used)} of {radii.size} annuli usable "
            f"(need {_MIN_USABLE_RADII}); center likely too close to the "
            "boundary of the image region"
        )
    slope = float(np.polyfit(np.log(used), np.log(means), 1)[0])
    q0 = cfg.dim / abs(slope) if slope < -1e-12 else math.inf
    verdicts = {float(q): bool(q < q0) for q in q_values}
    return BlowupReport(
        slope=slope,
        q0=q0,
        radii_used=used,
        annulus_means=means,
        verdicts=verdicts,
    )
