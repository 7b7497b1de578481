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
distances and A(z) = sum_{i>=2} w_i |xh_i - z|^(p-2) come from one core._field
call per batch of points (Gbar is the solver's EL field with the anchors as
the points), and grad b^{-1} and its spectrum from one routine on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (
    _array,
    _points,
    alpha_exponent,
    beta_exponent,
    _check_exponent,
    _check_q,
    _check_weights,
    _field,
    _length,
    pbary_points,
)
from .errors import (
    InsufficientDataError,
    SingularPointError,
    ValidationError,
)
from .grid import GridDensity, _res_tuple

_GBAR_ZERO = 1e-300
_GAUSS = 0.5 + np.array([-0.5, 0.5]) / math.sqrt(3.0)
# Fewest usable radii in blowup_exponent.
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
        self.anchors = _array(self.anchors, "anchors", 2)
        self.weights = _check_weights(self.weights, self.anchors.shape[0] + 1)
        self.p = _check_exponent(self.p)

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


def _anchor_field(cfg: DiracConfiguration, zb, hessian):
    """One core._field pass over the offsets xh_i - z, batched over zb.

    Returns (G, negdG, r, A): Gbar(z), -grad Gbar(z) = the sum of the
    curvature blocks (None unless hessian), the (B, N-1) anchor distances
    and A(z) = sum_{i>=2} w_i r_i^(p-2).  At an anchor its term of G is 0,
    the limit; for p < 2 its term also stays out of negdG and A, where the
    true values are unbounded, so every Jacobian and bound raises there.
    """
    G, negdG, r, wf = _field(cfg.anchors[None, :, :] - zb[:, None, :],
                             cfg.weights[1:], cfg.p, hessian)
    return G, negdG, r, wf.sum(axis=1)


def gbar(cfg: DiracConfiguration, z) -> np.ndarray:
    """Gbar(z) = sum_{i>=2} w_i |xh_i - z|^(p-2) (xh_i - z), vectorized.

    The reference oracle the tests check fixed_point and b_inverse against.
    """
    zb, lead = _points(z, cfg.dim, "z")
    return _anchor_field(cfg, zb, False)[0].reshape(lead + (cfg.dim,))


def b_forward(cfg: DiracConfiguration, x1) -> np.ndarray:
    """b(x_1): the full barycenter with the first point at x_1, vectorized."""
    xb, lead = _points(x1, cfg.dim, "x1")
    pts = np.empty((xb.shape[0], cfg.n_marginals, cfg.dim))
    pts[:, 0, :] = xb
    pts[:, 1:, :] = cfg.anchors[None, :, :]
    return pbary_points(pts, cfg.weights, cfg.p).reshape(lead + (cfg.dim,))


def b_inverse(cfg: DiracConfiguration, z) -> np.ndarray:
    """Closed-form inverse of b, with b^{-1}(zbar) = zbar by continuity.

    Gbar is exactly 0 where its length is, so dividing by 1 there leaves z.
    """
    zb, lead = _points(z, cfg.dim, "z")
    G = _anchor_field(cfg, zb, False)[0]
    Gn = _length(G)
    step = (cfg.lam1 ** (cfg.alpha - 1.0) * G
            * np.where(Gn > 0.0, Gn, 1.0)[:, None] ** (-cfg.alpha))
    return (zb - step).reshape(lead + (cfg.dim,))


def _inverse_jacobian(cfg: DiracConfiguration, field, eigs: bool):
    """grad b^{-1}, or its ascending spectrum, at the points of
    field = _anchor_field(cfg, zb, True).

    grad b^{-1} = Id + c A S with c = w1^(alpha-1), S = -grad Gbar / |Gbar|^alpha
    and A = Id - alpha P, P the projector onto Gbar.  It is similar to the
    symmetric Id + c A^{1/2} S A^{1/2}, A^{1/2} = Id + (sqrt(1-alpha) - 1) P,
    whose eigvalsh gives the spectrum exactly.  p = 2 or one anchor gives
    (w1^(1-alpha) + (1-w1)^(1-alpha)) / w1^(1-alpha) Id.  Else p < 2 gives Id
    at zbar and raises at an anchor; p > 2 raises at zbar only.
    """
    G, negdG, r, _ = field
    d = cfg.dim
    eye = np.eye(d)[None]
    out = np.empty((G.shape[0],) + ((d,) if eigs else (d, d)))
    if cfg.p == 2.0 or cfg.anchors.shape[0] == 1:
        s = cfg.lam1 ** (1.0 - cfg.alpha)
        t = (1.0 - cfg.lam1) ** (1.0 - cfg.alpha)
        out[:] = (1.0 if eigs else eye) * ((s + t) / s)
        return out
    Gn = _length(G)
    zero = Gn == 0.0
    if np.any(zero if cfg.p > 2.0 else r == 0.0):
        raise SingularPointError(
            "grad b^{-1} is unbounded at zbar (p > 2) or at an anchor (p < 2)"
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
    return out


def grad_b_inverse(cfg: DiracConfiguration, z) -> np.ndarray:
    """Jacobian matrix of b^{-1} at z (generally non-symmetric), vectorized.

    Excluded points (SingularPointError): zbar for p > 2, where the Jacobian
    blows up, and the anchors for p < 2.  For p = 2 or one anchor it is a
    constant times Id; for p > 2 it is continuous at the anchors, and
    for p < 2 it extends continuously to the identity at zbar.
    """
    zb, lead = _points(z, cfg.dim, "z")
    out = _inverse_jacobian(cfg, _anchor_field(cfg, zb, True), eigs=False)
    return out.reshape(lead + out.shape[1:])


def grad_b_inverse_eigs(cfg: DiracConfiguration, z) -> np.ndarray:
    """Eigenvalues of grad b^{-1}(z), ascending, computed exactly as reals."""
    zb, lead = _points(z, cfg.dim, "z")
    out = _inverse_jacobian(cfg, _anchor_field(cfg, zb, True), eigs=True)
    return out.reshape(lead + out.shape[1:])


def jacobian_det(cfg: DiracConfiguration, z) -> np.ndarray:
    """|det grad b^{-1}(z)|, vectorized."""
    zb, lead = _points(z, cfg.dim, "z")
    eigs = _inverse_jacobian(cfg, _anchor_field(cfg, zb, True), eigs=True)
    return np.abs(np.prod(eigs, axis=-1)).reshape(lead)


# ---------------------------------------------------------------------------
# two-sided eigenvalue bounds
# ---------------------------------------------------------------------------


def nonsharp_constant(p: float) -> float:
    """Explicit constant C_p = (p-1)^(1+alpha) * 2^((p-2) alpha) for p >= 2."""
    a = alpha_exponent(p)
    return (p - 1.0) ** (1.0 + a) * 2.0 ** ((p - 2.0) * a)


def _explicit_upper(p, lam1, ratio):
    """1 + C_p ((1-lam1)/lam1)^(1-alpha) ratio^(p-2): the explicit upper
    bound on the eigenvalues of grad b^{-1} at a point whose largest anchor
    distance over its distance to zbar is at most ratio (p >= 2)."""
    return 1.0 + nonsharp_constant(p) * ((1.0 - lam1) / lam1) ** (
        1.0 - alpha_exponent(p)) * ratio ** (p - 2.0)


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
    zb = _points(z, cfg.dim, "z")[0]
    G, _, r_anchor, A = field = _anchor_field(cfg, zb, True)
    eigs = _inverse_jacobian(cfg, field, eigs=True)
    emin, emax = eigs.min(axis=1), eigs.max(axis=1)
    lam1, a, p = cfg.lam1, cfg.alpha, cfg.p
    Gn = _length(G)
    if p > 2.0 and np.any(Gn == 0.0):
        raise SingularPointError("0/0 bound ratios at the lone anchor")
    ratio = A / (lam1 ** (1.0 - a) * np.maximum(Gn, _GBAR_ZERO) ** a)

    low_local = 1.0 + (1.0 - a) * ratio
    up_local = 1.0 + (p - 1.0) * ratio

    r_fix = _length(zb - cfg.fixed_point[None, :])
    # Next to zbar the bound overflows to +inf, as it is set at r_fix = 0.
    with np.errstate(over="ignore"):
        up_explicit = _explicit_upper(
            p, lam1, r_anchor.max(axis=1) / np.maximum(r_fix, _GBAR_ZERO))
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
    zb = _points(z, cfg.dim, "z")[0]
    G, _, r_anchor, At = field = _anchor_field(cfg, zb, True)
    eigs = _inverse_jacobian(cfg, field, eigs=True)
    emin, emax = eigs.min(axis=1) - 1.0, eigs.max(axis=1) - 1.0
    p, lam1, beta = cfg.p, cfg.lam1, cfg.beta
    m = r_anchor.min(axis=1)
    if np.any(m == 0.0):
        raise SingularPointError("0/0 bound ratios at the lone anchor")
    M = r_anchor.max(axis=1)
    r_fix = _length(zb - cfg.fixed_point[None, :])
    wmin = float(cfg.weights[1:].min())
    pref = (1.0 - lam1) ** beta / lam1 ** (1.0 + beta)
    stated_low = (p - 1.0) * wmin * pref * (r_fix / m) ** (2.0 - p)
    stated_up = (1.0 + beta) * pref * (M / m) ** (2.0 - p)

    Gn = _length(G)
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

    mass_ok is False when the grid mass is off 1 by more than 5%, from the
    sampled image box or, in d >= 2, cells across f1's support edge.
    singular_cells counts the cells holding zbar (p > 2) or an anchor
    (p < 2); for p = 2 or one anchor there is none.
    """

    density: GridDensity
    mass: float
    mass_ok: bool
    singular_cells: int


def _singular_points(cfg: DiracConfiguration):
    if cfg.p == 2.0 or cfg.anchors.shape[0] == 1:
        return np.empty((0, cfg.dim))
    return cfg.fixed_point[None, :] if cfg.p > 2.0 else cfg.anchors


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


def _cell_values(phi, k):
    """Over every cell: the multilinear interpolant of the vertex values phi
    at Gauss node k_a on each grid axis a, or its derivative where k_a = 2.

    The grid axes are counted from the end, before the last axis of
    coordinates, so leading batch axes of phi pass through.
    """
    for a, ka in enumerate(k):
        ax = a - len(k) - 1
        step = np.diff(phi, axis=ax)
        phi = step if ka == 2 else np.delete(phi, -1, ax) + _GAUSS[ka] * step
    return phi


def _preimage_masses(f1: GridDensity, phi):
    """The f1-mass of each cell's preimage, from phi = b^{-1} at the vertices
    of a grid, (..., n_1+1, ..., n_d+1, d) -> (..., n_1, ..., n_d).

    The preimage is the multilinear interpolant Phi of phi over the cell
    (exact in 1-D), its mass sum_g 2^-d f1(Phi(g)) det DPhi(g) over the
    2-point Gauss nodes g, exact for Phi's volume in d <= 4.  Adjacent cells
    share vertex images, so the preimages tile.
    """
    d = phi.shape[-1]
    return sum(
        f1.evaluate(_cell_values(phi, g)) * np.linalg.det(np.stack(
            [_cell_values(phi, g[:a] + (2,) + g[a + 1:]) for a in range(d)],
            axis=-1))
        for g in np.ndindex((2,) * d)) / 2 ** d


def pushforward_density(cfg: DiracConfiguration, f1: GridDensity,
                        resolution=None) -> PushforwardResult:
    """Pushforward of the density f1 under b, on a grid over b(spt f1).

    resolution : cells per axis (an int or a tuple), by default f1's.
    The grid box is the bounding box of b on the boundary of f1's support
    box.  Each cell holds the f1-mass of its preimage (_preimage_masses,
    from b^{-1} at the cell's corners) over its volume.
    """
    if f1.dim != cfg.dim:
        raise ValidationError("density dimension does not match configuration")
    d = cfg.dim
    box = _image_box(cfg, f1.support_box())
    res = _res_tuple(f1.resolution if resolution is None else resolution, d)
    h = (box[:, 1] - box[:, 0]) / np.array(res)
    axes = [np.linspace(lo, hi, n + 1) for (lo, hi), n in zip(box, res)]
    phi = b_inverse(cfg, np.stack(np.meshgrid(*axes, indexing="ij"), -1))
    dens = GridDensity(box, _preimage_masses(f1, phi) / float(np.prod(h)))
    held, _ = dens._cells(_singular_points(cfg))
    mass = dens.mass()
    return PushforwardResult(
        density=dens,
        mass=mass,
        mass_ok=abs(mass - 1.0) <= 0.05,
        singular_cells=len(np.unique(held, axis=0)),
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


@dataclass(frozen=True)
class BlowupReport:
    """Log-log fit of the pushforward density's cube means around a centre.

    slope : fitted d(log g)/d(log r) at the given center
    q0 : critical integrability index d / |slope| (inf if the slope is ~0
        or positive); g_p belongs to L^q exactly for q < q0
    radii_used : the usable half-sides r
    means : the f1-mass of the preimage of each usable cube over (2r)^d
    """

    slope: float
    q0: float
    radii_used: np.ndarray
    means: np.ndarray


def blowup_exponent(cfg: DiracConfiguration, f1: GridDensity, center,
                    radii) -> BlowupReport:
    """Fit the local power-law exponent of g_p around a singular center.

    For each radius r (positive), the cube of half-side r around the center
    is split into 2^d cells; the f1-mass of its preimage comes from b^{-1} at
    the 3^d vertices through the pushforward's cell rule (_preimage_masses),
    and its mean density is that mass over (2r)^d.  A radius is usable when
    f1 > 0 at every vertex preimage (the cube's preimage stays in spt f1).
    An ordinary least-squares line through (log r, log mean) gives the local
    exponent; fewer than 4 usable radii raise InsufficientDataError.  Near
    the center b^{-1} is asymptotically homogeneous, so the interpolated
    preimage's volume scales as the true one and the slope is asymptotically
    exact in every d.
    """
    center = _array(center, "center", 1)
    radii = _array(radii, "radii", 1)
    d = cfg.dim
    if center.shape != (d,):
        raise ValidationError(f"center must have {d} coordinates")
    if radii.size < 6:
        raise ValidationError("supply at least 6 candidate radii")
    if np.any(radii <= 0.0):
        raise ValidationError("radii must be positive")
    steps = np.stack(np.meshgrid(*[(-1.0, 0.0, 1.0)] * d, indexing="ij"), -1)
    phi = b_inverse(cfg, center + radii.reshape((-1,) + (1,) * (d + 1))
                    * steps)
    usable = np.all(f1.evaluate(phi) > 0.0, axis=tuple(range(1, d + 1)))
    used = radii[usable]
    if len(used) < _MIN_USABLE_RADII:
        raise InsufficientDataError(
            f"only {len(used)} of {radii.size} cubes usable "
            f"(need {_MIN_USABLE_RADII}); center likely too close to the "
            "boundary of the image region"
        )
    masses = _preimage_masses(f1, phi[usable]).reshape(len(used), -1)
    means = masses.sum(axis=1) / (2.0 * used) ** d
    slope = float(np.polyfit(np.log(used), np.log(means), 1)[0])
    q0 = d / abs(slope) if slope < -1e-12 else math.inf
    return BlowupReport(
        slope=slope,
        q0=q0,
        radii_used=used,
        means=means,
    )
