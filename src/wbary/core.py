"""Weighted Euclidean p-barycenters of point configurations.

The central object is the minimizer of

    phi(z) = sum_i (w_i / p) * |x_i - z|^p,        p in (1, inf),

for points x_1..x_N in R^d and positive weights w summing to one.  The
first-order condition is the Euler-Lagrange equation

    sum_i w_i |x_i - z|^(p-2) (x_i - z) = 0.

Closed forms exist for p = 2 (the weighted mean) and for N = 2 (a weighted
combination with exponent 1/(p-1)); everything else is solved with a damped
Newton iteration on phi, batched over many configurations at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SingularBlockError, ValidationError

# _check_exponent, which every entry point calls, returns exactly 2.0 for
# any p within this of 2, so code downstream compares p with 2.0 exactly.
P2_TOL = 1e-9
# Relative coincidence threshold: x_i counts as sitting on the barycenter
# when |x_i - z| <= EPS_COINCIDENT * diameter.
EPS_COINCIDENT = 1e-9
WEIGHT_SUM_TOL = 1e-12
DEFAULT_TOL = 1e-12
MAX_ITER = 200
# Largest support product (number of tuples) any routine forms.
PRODUCT_CAP = 10 ** 6

_ARMIJO_C1 = 1e-4
_MAX_HALVINGS = 45
# When an entry tries its anchored candidates (p < 2); see _solve_batch.
_ANCHOR_REACH = 4.0
_ANCHOR_DROP = 0.1


def alpha_exponent(p: float) -> float:
    """alpha_p = (p - 2)/(p - 1); negative for p < 2, in [0, 1) for p >= 2.

    p goes through _check_exponent: ValidationError outside (1, inf), and
    0.0 for every p that counts as 2.
    """
    p = _check_exponent(p)
    return (p - 2.0) / (p - 1.0)


def beta_exponent(p: float) -> float:
    """beta_p = (2 - p)/(p - 1) = -alpha_p; positive for p in (1, 2)."""
    return -alpha_exponent(p)


def _check_exponent(p) -> float:
    p = float(p)
    if not np.isfinite(p) or p <= 1.0:
        raise ValidationError(f"exponent p must lie in (1, inf), got {p}")
    return 2.0 if abs(p - 2.0) <= P2_TOL else p


def _check_q(q) -> float:
    """The integrability exponent q as a float; ValidationError unless q is
    finite and exceeds 1."""
    q = float(q)
    if not math.isfinite(q) or q <= 1.0:
        raise ValidationError(f"q must be finite and exceed 1, got {q}")
    return q


def _check_tol(tol) -> float:
    """The solver tolerance as a float; ValidationError unless it is finite
    and positive."""
    tol = float(tol)
    if not math.isfinite(tol) or tol <= 0.0:
        raise ValidationError(f"tol must be finite and positive, got {tol}")
    return tol


def _check_weights(weights, n) -> np.ndarray:
    """n weights, finite, strictly positive and summing to 1 within 1e-12."""
    w = np.asarray(weights, dtype=float).ravel()
    if w.shape != (n,):
        raise ValidationError(f"{w.shape[0]} weights given, {n} required")
    if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
        raise ValidationError("weights must be finite and strictly positive")
    if abs(w.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ValidationError(
            f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {w.sum()!r}"
        )
    return w


@dataclass(frozen=True)
class WeightedPointConfig:
    """A weighted configuration (x_1..x_N, w_1..w_N, p) with validated invariants.

    points : (N, d) array, finite entries
    weights : (N,) array, strictly positive, summing to 1 within 1e-12
    p : exponent in (1, inf)
    points and weights are stored as read-only copies of the inputs.
    """

    points: np.ndarray
    weights: np.ndarray
    p: float

    def __post_init__(self):
        pts = np.atleast_2d(np.array(self.points, dtype=float))
        w = np.array(self.weights, dtype=float).ravel()
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "p", _check_exponent(self.p))
        if pts.ndim != 2:
            raise ValidationError(f"points must be (N, d), got shape {pts.shape}")
        n, _ = pts.shape
        if n < 2:
            raise ValidationError("a configuration needs at least two points")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("points contain non-finite entries")
        _check_weights(w, n)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def diameter(self) -> float:
        return float(_diameters(self.points))


@dataclass(frozen=True)
class BarycenterSolution:
    """Result of a p-barycenter solve.

    z : (d,) minimizer
    residual_norm : Euclidean norm of the Euler-Lagrange residual at z
    coincident_set : indices i with |x_i - z| <= 1e-9 * diameter (0-based)
    iterations : Newton steps taken (0 for closed-form routes)
    """

    z: np.ndarray
    residual_norm: float
    coincident_set: tuple
    iterations: int


def el_residual(points, weights, p, z) -> np.ndarray:
    """Euler-Lagrange residual  sum_i w_i |x_i - z|^(p-2) (x_i - z).

    The reference oracle the tests check pbary_points against.

    Accepts raw arrays; only shapes and p > 1 are validated (the weights are
    not required to sum to one here).  Terms with x_i = z contribute zero:
    the summand's magnitude is |x_i - z|^(p-1) -> 0 for every p > 1, so this
    is the continuous extension.
    """
    p = _check_exponent(p)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float).ravel()
    z = np.asarray(z, dtype=float).ravel()
    if pts.shape[0] != w.shape[0] or pts.shape[1] != z.shape[0]:
        raise ValidationError(
            f"incompatible shapes: points {pts.shape}, weights {w.shape}, z {z.shape}"
        )
    rvec = pts - z[None, :]
    r = np.linalg.norm(rvec, axis=1)
    hit = r == 0.0
    fac = np.zeros_like(r)
    np.power(np.maximum(r, 1e-300), p - 2.0, out=fac, where=~hit)
    return (w[:, None] * fac[:, None] * rvec).sum(axis=0)


# ---------------------------------------------------------------------------
# batched solver
# ---------------------------------------------------------------------------


def _length(x):
    """Euclidean length over the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


def _diameters(pts: np.ndarray) -> np.ndarray:
    """Max pairwise distance per batch entry; pts is (..., N, d)."""
    diff = pts[..., :, None, :] - pts[..., None, :, :]
    return _length(diff).max(axis=(-2, -1))


def coincident_mask(r: np.ndarray, diam) -> np.ndarray:
    """Which points sit on the barycenter: r_i <= EPS_COINCIDENT * diam.

    r : (..., N) distances |x_i - z|; diam : (...) configuration diameters.
    Every point of a configuration with zero diameter counts as coincident.
    """
    diam = np.asarray(diam, dtype=float)
    mask = r <= EPS_COINCIDENT * np.maximum(diam, 1e-300)[..., None]
    return mask | (diam == 0.0)[..., None]


def check_product(shape) -> None:
    """Raise ValidationError when a support product of this shape has more
    than PRODUCT_CAP tuples."""
    total = math.prod(shape)
    if total > PRODUCT_CAP:
        raise ValidationError(
            f"support product size {total} exceeds cap {PRODUCT_CAP}")


def support_product(atom_sets) -> np.ndarray:
    """All tuples (a_1, ..., a_N) with a_i drawn from atom_sets[i].

    atom_sets : sequence of (K_i, d) arrays.  Returns (prod K_i, N, d) in C
    order of the multi-index; raises ValidationError above PRODUCT_CAP tuples.
    """
    shape = tuple(len(a) for a in atom_sets)
    check_product(shape)
    idx = np.indices(shape).reshape(len(shape), -1)
    return np.stack([a[i] for a, i in zip(atom_sets, idx)], axis=1)


def _objective_cap(obj):
    """Largest objective a residual-driven move may reach: obj plus rounding."""
    return obj + 16.0 * np.finfo(float).eps * np.abs(obj)


def _eval_batch(pts, w, p, z, hessian=True):
    """Objective, EL residual and Newton matrix of phi at z, batched.

    Returns (obj, F, H) with H the (B, d, d) sum of the curvature blocks,
    or None when hessian is false.  A term at r = 0 takes its continuous
    limit, 0 for every p > 1, so z may sit exactly on an atom; its block
    stays out of the sum so the step can leave the atom.
    """
    rvec = pts - z[:, None, :]
    r, fac, u = _radial(rvec, p)
    wf = w * fac
    if p < 2.0:
        wf[r == 0.0] = 0.0
    obj = np.einsum("bn,bn->b", wf * r, r) / p
    F = np.einsum("bn,bni->bi", wf, rvec)
    if not hessian:
        return obj, F, None
    # sum_i wf_i ((p-2) u_i u_i^T + Id), without the (B, N, d, d) blocks.
    d = z.shape[-1]
    v = ((p - 2.0) * wf)[..., None] * u
    H = np.matmul(v.swapaxes(-1, -2), u)
    H.reshape(-1, d * d)[:, ::d + 1] += np.einsum("bn->b", wf)[:, None]
    return obj, F, H


def _anchored_candidates(pts, w, p, rvec, r, F):
    """Fixed-point candidates anchored at each atom (p < 2 only).

    rvec, r : offsets x_i - z and their lengths at the current iterate z.
    R_j is the Euler-Lagrange field with the j-th term removed, evaluated at
    z; the returned candidate solves the anchored equation exactly when R_j
    is frozen.
    """
    r = np.maximum(r, 1e-300)
    term = w[..., None] * r[..., None] ** (p - 2.0) * rvec
    R = F[:, None, :] - term
    Rn = np.maximum(np.linalg.norm(R, axis=2), 1e-300)
    rstar = (Rn / w) ** (1.0 / (p - 1.0))
    return pts + rstar[..., None] * R / Rn[..., None]


def pbary_points(points, weights, p, tol=DEFAULT_TOL):
    """Batched p-barycenter of point tuples.

    points : (..., N, d); weights : (N,) or broadcastable to (..., N).
    Returns minimizers with shape (..., d); an empty batch (0, N, d) gives
    (0, d).  Raises ValidationError for tuples of zero points, for
    non-finite points, for weights that are not finite and positive, for
    weight rows that do not sum to 1 within WEIGHT_SUM_TOL and for a tol
    that is not finite and positive, and ConvergenceError if any batch entry
    fails to reach |residual| <= tol * max(w) * diam^(p-1) within MAX_ITER
    Newton steps.
    """
    p = _check_exponent(p)
    pts = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not np.isfinite(pts).all():
        raise ValidationError("points contain non-finite entries")
    if not (np.isfinite(weights) & (weights > 0.0)).all():
        raise ValidationError("weights must be finite and strictly positive")
    single = pts.ndim == 2
    if single:
        pts = pts[None]
    lead = pts.shape[:-2]
    N, d = pts.shape[-2:]
    if N == 0:
        raise ValidationError("pbary_points needs at least one point per tuple")
    pts = pts.reshape(-1, N, d)
    w = np.broadcast_to(weights, lead + (N,)).reshape(-1, N)
    sums = w.sum(axis=1)
    bad = np.abs(sums - 1.0) > WEIGHT_SUM_TOL
    if bad.any():
        raise ValidationError(
            f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got "
            f"{sums[bad][0]!r}"
        )
    z, _, _ = _solve_batch(pts, w, p, tol)
    out = z.reshape((lead + (d,)) if not single else (d,))
    return out


def _solve_batch(pts, w, p, tol):
    """Core batched solve.  pts (B,N,d), w (B,N) normalized rows.

    Returns (z, iterations, residual_norm) arrays; raises ValidationError
    unless tol is finite and positive, and ConvergenceError when an entry of
    the Newton route misses its tolerance.  For p < 2 an iteration also
    tries the candidates anchored at each atom (see _anchored_candidates),
    but only for entries that can use them: an atom lies within
    _ANCHOR_REACH Newton-step lengths of the new iterate, or the residual
    fell by less than the factor _ANCHOR_DROP in that iteration.  Every
    decision is made per entry, so an entry's result does not depend on
    the rest of the batch.
    """
    tol = _check_tol(tol)
    B, N, d = pts.shape
    diam = _diameters(pts)
    scale = w.max(axis=1) * np.maximum(diam, 1e-300) ** (p - 1.0)
    tol_abs = tol * scale

    # Degenerate: all points identical -> that point is the minimizer, on
    # every route.
    trivial = diam == 0.0

    closed_form = p == 2.0 or N == 2
    if p == 2.0:
        z = (w[..., None] * pts).sum(axis=1)
        F = (w[..., None] * (pts - z[:, None, :])).sum(axis=1)
    elif N == 2:
        s = 1.0 / (p - 1.0)
        t = w ** s
        t = t / t.sum(axis=1, keepdims=True)
        z = (t[..., None] * pts).sum(axis=1)
        F = _eval_batch(pts, w, p, z, hessian=False)[1]
    else:
        z = (w[..., None] * pts).sum(axis=1)
        obj, F, H = _eval_batch(pts, w, p, z)
    res = _length(F)
    active = ~trivial & (res > tol_abs) & (not closed_form)
    iters = np.zeros(B, int)
    # The residual at each atom, where _eval_batch takes the atom's own
    # term at its limit 0, does not depend on z.
    anchored = p < 2.0 and not closed_form
    if anchored:
        F_atoms = _eval_batch(np.repeat(pts, N, 0), np.repeat(w, N, 0), p,
                              pts.reshape(B * N, d), hessian=False)[1]
        r_atoms = _length(F_atoms).reshape(B, N)

    for _ in range(MAX_ITER):
        if not active.any():
            break
        idx = np.where(active)[0]
        Ha, Fa = H[idx], F[idx]
        try:
            step = np.linalg.solve(Ha, Fa[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = np.einsum("bij,bj->bi", np.linalg.pinv(Ha), Fa)
        descent = (Fa * step).sum(axis=1)
        grad_dir = descent <= 0.0
        if grad_dir.any():
            # Fall back to a gradient step scaled to the configuration size.
            g = Fa[grad_dir]
            gn = np.linalg.norm(g, axis=1, keepdims=True)
            step[grad_dir] = g / np.maximum(gn, 1e-300) * diam[idx[grad_dir], None]
            descent[grad_dir] = (Fa[grad_dir] * step[grad_dir]).sum(axis=1)

        # Accept a step on sufficient objective decrease (Armijo) or on
        # sufficient residual decrease; the latter keeps making progress when
        # the objective is already flat to machine precision near the
        # minimizer, so it must not raise the objective beyond rounding
        # (otherwise the iterate can cycle between two points).  Each
        # halving evaluates the pending entries only, and an accepted trial
        # keeps its evaluation as the new iterate's.
        t = np.ones(len(idx))
        obj_old, res_old = obj[idx], res[idx]
        obj_cap = _objective_cap(obj_old)
        pend = np.arange(len(idx))
        for _h in range(_MAX_HALVINGS):
            sub = idx[pend]
            trial = z[sub] + t[pend, None] * step[pend]
            obj_t, F_t, H_t = _eval_batch(pts[sub], w[sub], p, trial)
            res_t = _length(F_t)
            tp = t[pend]
            ok = (
                (obj_t <= obj_old[pend] - _ARMIJO_C1 * tp * descent[pend])
                | ((res_t <= (1.0 - _ARMIJO_C1 * tp) * res_old[pend])
                   & (obj_t <= obj_cap[pend]))
            )
            done = sub[ok]
            z[done], obj[done] = trial[ok], obj_t[ok]
            F[done], H[done], res[done] = F_t[ok], H_t[ok], res_t[ok]
            pend = pend[~ok]
            if pend.size == 0:
                break
            t[pend] *= 0.5
        # Entries where the line search failed keep the last tiny trial step:
        # the iteration is then effectively stationary.
        if pend.size:
            sub = idx[pend]
            z[sub] += t[pend, None] * step[pend]
            obj[sub], F[sub], H[sub] = _eval_batch(pts[sub], w[sub], p, z[sub])
            res[sub] = _length(F[sub])
        iters[idx] += 1
        if anchored:
            # For p < 2 the minimizer may sit extremely close to an atom,
            # where |F| ~ w r^(p-1) makes damped Newton crawl.  Solve the
            # Euler-Lagrange equation anchored at each atom instead:
            # w_j r^(p-2) (x_j - z) = -R_j(z) with R_j the smooth rest
            # field, giving the candidate
            # z = x_j + (|R_j|/w_j)^(1/(p-1)) R_j/|R_j|.
            # Candidates are accepted only when they reduce the residual
            # without raising the objective beyond rounding.
            rvec = pts[idx] - z[idx, None, :]
            r = _length(rvec)
            reach = _ANCHOR_REACH * _length(step)
            gate = ((r.min(axis=1) <= reach)
                    | (res[idx] > _ANCHOR_DROP * res_old))
            cand = idx[gate]
            if cand.size:
                zc = _anchored_candidates(pts[cand], w[cand], p, rvec[gate],
                                          r[gate], F[cand])
                nb, nN = zc.shape[:2]
                zf = zc.reshape(nb * nN, -1)
                of, Ff, Hf = _eval_batch(np.repeat(pts[cand], nN, axis=0),
                                         np.repeat(w[cand], nN, axis=0), p, zf)
                rf = _length(Ff).reshape(nb, nN)
                cap = _objective_cap(obj[cand])[:, None]
                rf[of.reshape(nb, nN) > cap] = np.inf
                best = rf.argmin(axis=1)
                take = rf[np.arange(nb), best] < res[cand]
                if take.any():
                    rows = np.where(take)[0]
                    sel = rows * nN + best[rows]
                    gsel = cand[rows]
                    z[gsel] = zf[sel]
                    obj[gsel], F[gsel], H[gsel] = of[sel], Ff[sel], Hf[sel]
                    res[gsel] = rf[rows, best[rows]]
            # The minimizer can sit exactly on an atom (the rest field
            # vanishes there).  The residual extends continuously to the
            # atoms, so accept an exact atom position when it already meets
            # the tolerance.
            r_at = r_atoms[idx]
            jbest = r_at.argmin(axis=1)
            hit = r_at[np.arange(len(idx)), jbest] <= tol_abs[idx]
            if hit.any():
                rows = np.where(hit)[0]
                gsel = idx[rows]
                z[gsel] = pts[gsel, jbest[rows]]
                res[gsel] = r_at[rows, jbest[rows]]
        active[idx] = res[idx] > tol_abs[idx]

    z[trivial] = pts[trivial, 0]
    res[trivial] = 0.0
    if active.any():
        k = int(np.where(active)[0][0])
        raise ConvergenceError(
            f"{int(active.sum())} of {B} barycenter solves did not reach "
            f"tolerance {tol:g} within {MAX_ITER} iterations "
            f"(worst residual {res[active].max():.3e}, scale {scale[k]:.3e})",
            best=z,
            residual=res,
        )
    return z, iters, res


def _solve_configs(pts, w, p, tol) -> list:
    """One BarycenterSolution per entry of a batch of validated
    configurations: pts (B, N, d), w (B, N), p already checked."""
    z, iters, res = _solve_batch(pts, w, p, tol)
    r = np.linalg.norm(pts - z[:, None, :], axis=2)
    coincident = coincident_mask(r, _diameters(pts))
    return [
        BarycenterSolution(
            z=z[b],
            residual_norm=float(res[b]),
            coincident_set=tuple(np.flatnonzero(coincident[b]).tolist()),
            iterations=int(iters[b]),
        )
        for b in range(len(z))
    ]


def pbary_solve(config: WeightedPointConfig,
                tol=DEFAULT_TOL) -> BarycenterSolution:
    """Solve for the weighted p-barycenter of a validated configuration."""
    return _solve_configs(config.points[None], config.weights[None],
                          config.p, tol)[0]


# ---------------------------------------------------------------------------
# curvature blocks
# ---------------------------------------------------------------------------


def _radial(rvec, p):
    """Distances r_i = |rvec_i|, radial factors fac_i = r_i^(p-2) and
    directions u_i = rvec_i / r_i of offsets rvec (..., N, d).

    At r_i = 0, u_i = 0 and fac_i takes the limit of the power: 0 for p > 2,
    1 at p = 2 and, for p < 2, the finite stand-in 1e300.  The curvature
    blocks of curvature_kernel and the Newton matrix of _eval_batch both
    come from these.
    """
    r = _length(rvec)
    rpos = np.maximum(r, 1e-300)
    fac = rpos ** (p - 2.0)
    if p != 2.0:
        fac[r == 0.0] = 0.0 if p > 2.0 else 1e300
    return r, fac, rvec / rpos[..., None]


def curvature_kernel(rvec, w, p):
    """Curvature blocks H_i = w_i r_i^(p-2) ((p-2) u_i u_i^T + Id), batched.

    rvec : (..., N, d) offsets between the points and z (either sign);
    w : weight array broadcastable to (..., N).  u_i = rvec_i / r_i.  At r_i = 0
    the block takes the limit of the formula: 0 for p > 2, w_i Id at p = 2
    and, for p < 2, the finite stand-in w_i 1e300 Id.  Returns (H, r, fac):
    the (..., N, d, d) blocks, the distances r_i and the radial factors
    fac_i = r_i^(p-2).
    """
    r, fac, u = _radial(rvec, p)
    outer = u[..., :, None] * u[..., None, :]
    eye = np.eye(rvec.shape[-1])
    H = w[..., None, None] * fac[..., None, None] * ((p - 2.0) * outer + eye)
    return H, r, fac


def mixed_spectrum(H):
    """Lambda_i = lambda_min(H_i Hbar^{-1} H_i) and |H_i|_2 for blocks H.

    H : (..., N, d, d) with Hbar = sum_i H_i per batch entry.  With
    L L^T = Hbar and X_i = L^{-1} H_i, Lambda_i = sigma_min(X_i)^2.  Returns
    (Lambda, norms, pd): entries whose Hbar is not positive definite get
    Lambda = 0 and norm = inf, and pd marks the others.
    """
    Hbar = H.sum(axis=-3)
    finite = np.isfinite(Hbar).all(axis=(-2, -1))[..., None, None]
    eye = np.eye(H.shape[-1])
    pd = np.linalg.eigvalsh(np.where(finite, Hbar, eye))[..., 0] > 0.0
    pd &= finite[..., 0, 0]
    L = np.linalg.cholesky(np.where(pd[..., None, None], Hbar, eye))
    X = np.linalg.solve(L[..., None, :, :], H)
    sv = np.linalg.svd(np.stack([X, H]), compute_uv=False)
    lam = np.where(pd[..., None], sv[0, ..., -1] ** 2, 0.0)
    norms = np.where(pd[..., None], sv[1, ..., 0], np.inf)
    return lam, norms, pd


@dataclass(frozen=True)
class CurvatureBlocks:
    """Per-point curvature blocks at a p-barycenter.

    H : (N, d, d) with H_i = w_i |x_i - z|^(p-2) ((p-2) u u^T + Id)
    Hbar : (d, d), the sum of the blocks
    Lambda : (N,) smallest eigenvalue of H_i Hbar^{-1} H_i
    """

    H: np.ndarray
    Hbar: np.ndarray
    Lambda: np.ndarray


def curvature_blocks(config: WeightedPointConfig, z=None) -> CurvatureBlocks:
    """Curvature blocks H_i, their sum, and the mixed eigenvalues Lambda_i.

    z defaults to the solved barycenter.  For p < 2 a coincident point makes
    its block unbounded; this raises SingularBlockError, as does a sum of
    blocks that is not positive definite.
    """
    p = config.p
    if z is None:
        z = pbary_solve(config).z
    z = np.asarray(z, dtype=float).ravel()
    H, r, _ = curvature_kernel(config.points - z[None, :], config.weights, p)
    coincident = tuple(np.flatnonzero(coincident_mask(r, config.diameter)).tolist())
    if p < 2.0 and coincident:
        raise SingularBlockError(
            f"curvature block unbounded for p={p} at coincident point(s) "
            f"{coincident}"
        )
    lam, _, pd = mixed_spectrum(H)
    if not pd:
        raise SingularBlockError(
            "sum of curvature blocks is singular (all blocks vanish?)"
        )
    return CurvatureBlocks(H=H, Hbar=H.sum(axis=0), Lambda=lam)


def dbary_dxi(config: WeightedPointConfig, i: int, z=None) -> np.ndarray:
    """Jacobian of the barycenter with respect to the i-th point: Hbar^{-1} H_i.

    The blocks sum to the identity over i, reflecting translation
    equivariance of the barycenter map.
    """
    if not 0 <= i < config.n_points:
        raise ValidationError(f"point index {i} out of range")
    cb = curvature_blocks(config, z=z)
    return np.linalg.solve(cb.Hbar, cb.H[i])
