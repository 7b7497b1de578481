"""Support-geometry quantities and L^q estimates for barycenter densities.

Two separation quantities control integrability of the pushforward density:

  D : the smallest distance between a full-tuple barycenter and the
      barycenter of the same tuple with the first point removed ("how far
      the first marginal moves the barycenter");
  m : the smallest distance between any tuple point and the tuple
      barycenter.

For p > 2 the density bound needs D > 0; for p < 2 it needs m > 0.  The
general L^q estimate decomposes the source into cells classified by which
tuple points the barycenter touches, and weights the non-degenerate cells by
a curvature ratio; the local injectivity check validates the quantitative
injectivity of the barycenter map on plan supports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _array,
    _check_exponent,
    _check_family,
    _check_q,
    _check_weights,
    _diameters,
    _length,
    _points,
    alpha_exponent,
    coincident_mask,
    curvature_kernel,
    mixed_spectrum,
    pbary_points,
    support_product,
)
from .errors import GeometryError, ValidationError
from .grid import GridDensity

# Radius halvings per base point in local_injectivity_check.
_MAX_HALVINGS = 40


# ---------------------------------------------------------------------------
# separation quantities
# ---------------------------------------------------------------------------


def compute_D(measures, weights, p) -> float:
    """Smallest displacement of the barycenter caused by the first marginal.

    Evaluates |bary(x_1, ..., x_N) - bary(x_2, ..., x_N)| over all support
    tuples and returns the minimum.  Zero means some atom of mu_1 leaves the
    barycenter where the remaining marginals already put it.  Raises
    ValidationError when the product exceeds core.PRODUCT_CAP.
    """
    w, p, _ = _check_family(measures, weights, p)
    atoms = [mu.atoms for mu in measures]
    reduced = support_product(atoms[1:])
    zr = pbary_points(reduced, w[1:] / w[1:].sum(), p)
    # C order of the multi-index: row k * len(reduced) + b is (x_1k, reduced[b]).
    zf = pbary_points(support_product(atoms), w, p)
    dist = _length(zf.reshape(len(atoms[0]), reduced.shape[0], -1) - zr[None])
    return float(dist.min())


def compute_m(measures, weights, p) -> float:
    """Smallest distance between any tuple point and the tuple barycenter.

    This is the separation m that integrability_bound needs for p < 2.
    """
    w, p, _ = _check_family(measures, weights, p)
    pts = support_product([mu.atoms for mu in measures])
    z = pbary_points(pts, w, p)
    return float(_length(pts - z[:, None, :]).min())


# ---------------------------------------------------------------------------
# integrability bound with distant supports
# ---------------------------------------------------------------------------


def integrability_bound(f1_lq, q, p, lam1, d, D=None, m=None,
                        constant=1.0) -> float:
    """Upper bound for the L^q norm of the barycenter density.

        bound = constant * (lam1^(d(1-alpha)) * geom^(d|p-2|))^(-(q-1)/q) * ||f1||_q

    with geom = D for p > 2, geom = m for p < 2 and geom = 1 at p = 2, where
    the bound is exactly lam1^(d(1-q)/q) ||f1||_q with constant 1.  Raises
    GeometryError unless the required separation is positive (NaN is not):
    the estimate then carries no information.  f1_lq must be finite and
    non-negative, constant finite and positive.  Where the bound is not
    representable (the prefactor underflows to 0, or it or the bound leaves
    float range) the result is math.inf, still a valid upper bound.
    """
    p = _check_exponent(p)
    q = _check_q(q)
    if not 0.0 <= f1_lq < np.inf:
        raise ValidationError(f"f1_lq must be finite and >= 0, got {f1_lq}")
    if not 0.0 < constant < np.inf:
        raise ValidationError(f"constant must be finite and > 0, got {constant}")
    if not 0.0 < lam1 < 1.0:
        raise ValidationError("lam1 must lie in (0, 1)")
    if not d >= 1:
        raise ValidationError(f"dimension must be at least 1, got {d}")
    geom = D if p > 2.0 else m if p < 2.0 else 1.0
    if geom is None or not geom > 0.0:
        raise GeometryError(
            f"the p = {p} bound requires a positive "
            f"{'displacement D' if p > 2.0 else 'separation m'}, got {geom}")
    a = alpha_exponent(p)
    try:
        prefactor = (float(lam1) ** (d * (1.0 - a))
                     * float(geom) ** (d * abs(p - 2.0)))
        bound = float(constant) * prefactor ** (-(q - 1.0) / q) * float(f1_lq)
    except (ZeroDivisionError, OverflowError):
        return math.inf
    return math.inf if math.isnan(bound) else bound


# ---------------------------------------------------------------------------
# general L^q estimate via cell classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralLqReport:
    """Cell-classified upper bound for the integral of g_p^q.

    value : the bound for int g_p^q (add ^(1/q) for the norm)
    n_cells_first : cells where the barycenter touches the first point
        (coefficient one)
    n_cells_curved : cells weighted by the curvature ratio
    n_flagged : cells whose smallest curvature eigenvalue at the cell
        center is below 1e-14 (bound carries no information there)
    diverging : True when flagged cells exist
    """

    value: float
    n_cells_first: int
    n_cells_curved: int
    n_flagged: int
    diverging: bool

    def dominates(self, measured: float) -> bool:
        """measured <= value within 1e-9, relative and absolute."""
        return measured <= self.value * (1.0 + 1e-9) + 1e-9


def _tuple_classes(pts, w, p, diam):
    """Barycenters, coincidence classes and curvature ratios of tuples.

    pts : (n, N, d); diam : (n,) their diameters.  Returns
    (z, in_S, max_norm, min_lam): in_S marks the points on the barycenter,
    and max |H_i| and min Lambda_i run over the blocks outside in_S; they
    are (inf, 0) where the sum of all blocks is not positive definite.
    """
    z = pbary_points(pts, w, p)
    H, r, _ = curvature_kernel(pts - z[:, None, :], w, p)
    in_S = coincident_mask(r, diam)
    lam, norms, _ = mixed_spectrum(H)
    max_norm = np.where(in_S, 0.0, norms).max(axis=1)
    min_lam = np.where(in_S, np.inf, lam).min(axis=1)
    return z, in_S, max_norm, min_lam


def _cell_coefficients(xs, maps, w, p, q, d):
    """Per-cell coefficient of f1^q in the classified estimate."""
    ys = [_points(T(xs), d, "map output") for T in maps]
    if any(lead != xs.shape[:1] for _, lead in ys):
        raise ValidationError("map output: one point per source point expected")
    pts = np.stack([xs] + [y for y, _ in ys], axis=1)
    _, in_S, max_norm, min_lam = _tuple_classes(pts, w, p, _diameters(pts))
    first = in_S[:, 0]
    flagged = ~first & (min_lam < 1e-14)
    e = d * (q - 1.0)
    ratio = max_norm / np.where(flagged | first, 1.0, min_lam)
    coeff = np.where(first, 1.0, np.where(flagged, np.inf, 2.0 ** e * ratio ** e))
    return coeff, first, flagged


def general_lq_bound(f1: GridDensity, maps, weights, p, q) -> GeneralLqReport:
    """Classified upper bound for int g_p^q under maps (T_2, ..., T_N).

    maps is a sequence of N-1 callables sending (M, d) source points to the
    (M, d) matched points of the other marginals (constant maps for Dirac
    marginals, the identity when marginals coincide).  Cells where the
    barycenter coincides with the first point contribute f1^q directly; all
    other cells are weighted by 2^(d(q-1)) (max|H_i| / min Lambda_i)^(d(q-1))
    over the non-coincident blocks.  Cells whose ratio degenerates at the
    cell center are flagged, and the bound is then inf and reported as
    diverging.  (Refining such a cell cannot clear the flag: the middle one
    of its 3^d subcells has the same center.)
    """
    p = _check_exponent(p)
    q = _check_q(q)
    w = _check_weights(weights, len(maps) + 1)
    d = f1.dim
    mask = f1.values.ravel() > 0.0
    if not mask.any():
        return GeneralLqReport(0.0, 0, 0, 0, False)
    xs = f1.centers()[mask]
    vals = f1.values.ravel()[mask]
    coeff, first, flagged = _cell_coefficients(xs, maps, w, p, q, d)
    contrib = coeff * vals ** q
    value = float(contrib.sum() * f1.cell_volume)
    return GeneralLqReport(
        value=value,
        n_cells_first=int(first.sum()),
        n_cells_curved=int((~first & ~flagged).sum()),
        n_flagged=int(flagged.sum()),
        diverging=bool(flagged.any()),
    )


def constant_maps(anchors) -> list:
    """Maps sending every source point to fixed anchors (Dirac marginals)."""
    anchors = _array(anchors, "anchors", 2)

    def make(a):
        return lambda xs: np.tile(a, (len(xs), 1))

    return [make(a) for a in anchors]


def identity_maps(n: int) -> list:
    """n copies of the identity map (all marginals equal to the first)."""
    return [lambda xs: np.array(xs, copy=True) for _ in range(n)]


# ---------------------------------------------------------------------------
# local injectivity of the barycenter map on plan supports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectivityReport:
    """Outcome of the shrinking-radius injectivity check.

    Every base support point must admit a radius at which all same-class
    pairs inside the product-space ball satisfy

        |bary(y) - bary(yt)| >= kappa * (sum_{i not in S} |y_i - yt_i|^2)^(1/2)

    with kappa = (1/2) min Lambda_i / max |H_i| over the non-coincident
    blocks at the base point.  Let T be the smallest max(|y - base|,
    |yt - base|) over the base's violating pairs (inf if none).  Of the
    radii r_init/2^h, h = 0..40 (the radius halves up to 40 times), the
    base passes at the first below T, vacuously if fewer than two
    candidates lie within it, and fails if none is below T.  worst_deficit
    is the most negative margin of a base that halved.
    """

    ok: bool
    n_bases: int
    n_checked_bases: int
    vacuous_bases: int
    max_halvings_used: int
    min_radius: float
    worst_deficit: float


def local_injectivity_check(points, weights, p) -> InjectivityReport:
    """Run the shrinking-radius injectivity test on support tuples.

    points : (n, N, d) support tuples of a coupling (for a TransportPlan,
        pass plan.points and plan.weights/plan.p)

    The radius starts at r_init, 1.01 times the largest product-space
    distance between tuples, and halves up to 40 times; each base's
    halvings follow in closed form (see InjectivityReport).  Each
    coincidence class measures its pair distances once.
    """
    pts = _array(points, "points", 3)
    p = _check_exponent(p)
    w = _check_weights(weights, pts.shape[1])
    n = pts.shape[0]
    diam = _diameters(pts)
    z, in_S, max_norm, min_lam = _tuple_classes(pts, w, p, diam)
    z_dist = _length(z[:, None, :] - z[None, :, :])

    # Pairwise product-space distances between support tuples.
    pd_full = _length((pts[:, None] - pts[None]).reshape(n, n, -1))
    scale = max(float(diam.max()), 1e-300)
    r_init = 1.01 * float(pd_full.max()) if n > 1 else 1.0
    # radii[h]: r_init halved h times, one rounding per halving.
    radii = np.multiply.accumulate([r_init] + [0.5] * (_MAX_HALVINGS + 1))

    worst = 0.0
    used = 0
    vacuous = 0
    checked = 0
    classes, of_class = np.unique(in_S, axis=0, return_inverse=True)
    for c, row in enumerate(classes):
        if row.all():
            continue  # fully coincident tuples: the estimate excludes S = full
        mates = np.flatnonzero(of_class == c)
        checked += mates.size
        a, b = np.triu_indices(mates.size, 1)
        y = pts[mates][:, ~row, :]
        free_dist = _length(
            (y[:, None] - y[None]).reshape(mates.size, mates.size, -1))[a, b]
        z_pair = z_dist[mates[a], mates[b]]
        for k in mates[np.isfinite(max_norm[mates]) & (max_norm[mates] > 0.0)]:
            kappa = 0.5 * min_lam[k] / max_norm[k]
            # margin = |bary(y_a) - bary(y_b)| - kappa |y_a - y_b|_free
            margin = z_pair - kappa * free_dist + 1e-12 * scale
            to_k = pd_full[k, mates]
            t = np.maximum(to_k[a], to_k[b])[margin < 0.0].min(initial=np.inf)
            h = int((radii[:-1] >= t).sum())
            if h:
                worst = min(worst, float(margin.min()))
            if h <= _MAX_HALVINGS and (to_k <= radii[h]).sum() < 2:
                vacuous += 1
            used = max(used, h)
    return InjectivityReport(
        ok=used <= _MAX_HALVINGS,
        n_bases=n,
        n_checked_bases=checked,
        vacuous_bases=vacuous,
        max_halvings_used=used,
        min_radius=float(radii[used]),
        worst_deficit=worst,
    )
