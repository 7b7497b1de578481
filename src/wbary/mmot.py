"""Multi-marginal optimal transport between discrete measures.

The multi-marginal problem couples N discrete probability measures through
the barycentric cost

    c(x_1, ..., x_N) = sum_i w_i |x_i - bary(x)|^p,

with bary the weighted p-barycenter of the tuple.  Its optimal value equals
the p-Wasserstein barycenter problem: pushing an optimal coupling forward
through the barycenter map yields a measure nu with

    C_MM = sum_i w_i W_p^p(mu_i, nu),

which is what verify_c2m_equivalence checks numerically.

On the line (d = 1) the cost is strictly submodular, so the optimal
coupling is the monotone (north-west) one: the quantile t in (0, 1) goes to
the tuple of the t-quantiles of the marginals.  solve_mmot and wp_distance
build it directly from the cumulative masses, in O(sum K_i log sum K_i),
with no support product and no LP.  In higher dimensions all linear
programs go through _transport_lp, scipy's HiGHS dual simplex, which
returns vertex solutions (sparse supports) and the equality-constraint
duals used by the potential probe; it also solves the pair LPs of
dual_check_potentials in every dimension.  The cap argument bounds the
sizes of these LPs (and of cost_tensor's product) only: the 1-D route never
forms a product and ignores it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.csgraph import connected_components

from .core import _check_exponent, _check_weights, pbary_points, support_product
from .errors import ConvergenceError, ValidationError

_MASS_TOL = 1e-12
_SPARSITY_TOL = 1e-11
_DEFAULT_CAP = 10 ** 6


@dataclass(eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure.

    atoms : (K, d), distinct and in lexicographic order after ingestion
        (near-duplicates are merged and their masses added); zero-mass atoms
        are dropped
    masses : (K,) nonnegative, summing to one within 1e-12
    """

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        atoms = np.atleast_2d(np.asarray(self.atoms, dtype=float))
        masses = np.asarray(self.masses, dtype=float).ravel()
        if atoms.ndim != 2 or atoms.shape[0] != masses.shape[0]:
            raise ValidationError(
                f"atoms {atoms.shape} and masses {masses.shape} do not match"
            )
        if not np.all(np.isfinite(atoms)) or not np.all(np.isfinite(masses)):
            raise ValidationError("atoms/masses contain non-finite entries")
        if np.any(masses < 0):
            raise ValidationError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > _MASS_TOL:
            raise ValidationError(
                f"masses must sum to 1 within {_MASS_TOL}, got {masses.sum()!r}"
            )
        keep = masses > 0.0
        atoms, masses = atoms[keep], masses[keep]
        if atoms.shape[0] == 0:
            raise ValidationError("measure has no atoms with positive mass")
        atoms, masses = _merge_close(atoms, masses, _span_tol(atoms, 1e-12))
        self.atoms = atoms
        self.masses = masses

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


def _span_tol(atoms: np.ndarray, rel: float) -> float:
    """rel * max(1, |span|), span the bounding-box diagonal of the atoms."""
    span = atoms.max(axis=0) - atoms.min(axis=0)
    return rel * max(1.0, float(np.linalg.norm(span)))


def _merge_close(atoms, masses, tol):
    """Merge atoms that lie within tol of each other in every coordinate.

    Closeness is closed under chaining: each connected group of atoms
    becomes one atom at the mass-weighted mean position.  Groups come out in
    lexicographic order of their first atom; single atoms are kept as is.
    """
    order = np.lexsort(atoms.T[::-1])
    atoms, masses = atoms[order], masses[order]
    K = atoms.shape[0]
    # Sweep over the first coordinate: atom i can only be close to the atoms
    # after it up to hi[i] in the sorted order.
    hi = np.searchsorted(atoms[:, 0], atoms[:, 0] + tol, side="right")
    n_next = hi - np.arange(K) - 1
    i = np.repeat(np.arange(K), n_next)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(n_next) - n_next, n_next)
    close = np.all(np.abs(atoms[i] - atoms[j]) <= tol, axis=1)
    if not close.any():
        return atoms, masses
    graph = sp.coo_matrix((np.ones(int(close.sum())), (i[close], j[close])),
                          shape=(K, K))
    _, labels = connected_components(graph, directed=False)
    # Renumber the groups in the order of their first atoms.
    _, first, labels = np.unique(labels, return_index=True, return_inverse=True)
    labels = np.argsort(np.argsort(first))[labels]
    first = np.sort(first)
    mass = np.bincount(labels, weights=masses)
    pos = np.stack([np.bincount(labels, weights=masses * a) for a in atoms.T],
                   axis=1) / mass[:, None]
    single = np.bincount(labels) == 1
    pos[single] = atoms[first[single]]
    return pos, mass


def _check_family(measures, weights, p):
    p = _check_exponent(p)
    if len(measures) < 2:
        raise ValidationError("need at least two marginals")
    w = _check_weights(weights, len(measures))
    d = measures[0].dim
    for mu in measures:
        if mu.dim != d:
            raise ValidationError("marginals live in different dimensions")
    return w, p, d


@dataclass(eq=False)
class CostTensor:
    """Barycentric cost over the product of marginal supports.

    values : array of shape (K_1, ..., K_N)
    barycenters : array of shape (K_1, ..., K_N, d), cached for reuse
    """

    values: np.ndarray
    barycenters: np.ndarray
    weights: np.ndarray
    p: float


def _tuple_costs(pts, w, p):
    """Barycenters z and costs sum_i w_i |x_i - z|^p of tuples pts (n, N, d)."""
    z = pbary_points(pts, w, p)
    return z, (w * np.linalg.norm(pts - z[:, None, :], axis=2) ** p).sum(axis=1)


def _pair_cost(mu, nu, p):
    """Pair cost matrix |x_j - y_k|^p between the atoms of mu and nu."""
    return np.linalg.norm(mu.atoms[:, None, :] - nu.atoms[None, :, :],
                          axis=2) ** p


def cost_tensor(measures, weights, p, cap=_DEFAULT_CAP) -> CostTensor:
    """Evaluate c(x_1..x_N) and the barycenters on the full support product."""
    w, p, d = _check_family(measures, weights, p)
    shape = tuple(mu.n_atoms for mu in measures)
    z, cost = _tuple_costs(support_product([mu.atoms for mu in measures], cap),
                           w, p)
    return CostTensor(
        values=cost.reshape(shape),
        barycenters=z.reshape(shape + (d,)),
        weights=w,
        p=p,
    )


@dataclass(eq=False)
class TransportPlan:
    """Sparse optimal coupling of an MMOT instance.

    indices : (n, N) integer multi-indices into the marginal supports
    masses : (n,) positive masses of the coupling atoms
    points : (n, N, d) the coupled support tuples
    barycenters : (n, d) p-barycenters of the tuples
    objective : optimal cost value
    marginal_residual : worst absolute marginal mismatch of the plan
    support_within_basis : whether n <= sum K_i - N + 1 (vertex sparsity)
    maybe_degenerate : whether the optimal plan may not be unique.  LP route
        (d >= 2): a variable off the support has zero reduced cost.  1-D
        route: always False.  The mixed partials -h_i h_j / sum_k h_k of
        the cost, h_k = w_k (p-1) |x_k - z|^(p-2), are strictly negative
        except where a point sits on its barycenter (h = 0 for p > 2,
        h = inf for p < 2), a null set, so the cost is strictly submodular
        and the monotone plan is the unique optimum; coincident tuples in
        the plan do not change that.
    """

    indices: np.ndarray
    masses: np.ndarray
    points: np.ndarray
    barycenters: np.ndarray
    objective: float
    weights: np.ndarray
    p: float
    measures: tuple
    marginal_residual: float
    support_within_basis: bool
    maybe_degenerate: bool

    @property
    def n_entries(self) -> int:
        return self.masses.shape[0]


def _transport_lp(cost, marginals):
    """Optimal coupling of discrete marginals for a cost array.

    cost : (K_1, ..., K_N) array; marginals : the N mass vectors, of lengths
    K_i.  Solves min <cost, x> over x >= 0 with the marginals of x fixed,
    once, with HiGHS dual simplex (vertex solutions, so sparse supports);
    raises ConvergenceError unless HiGHS reports an optimum.  Returns
    (plan, duals, objective, certificate):

    plan : the nonnegative optimal coupling, shaped like cost
    duals : the N equality-constraint dual vectors, one per marginal
    objective : the optimal value
    certificate : (marginal_residual, degenerate), the worst absolute
        marginal mismatch of plan, and whether a variable off the support
        (mass <= 1e-11) has zero reduced cost, i.e. whether the optimal
        plan may not be unique
    """
    shape = cost.shape
    idx = np.indices(shape).reshape(len(shape), -1)  # (N, total)
    offsets = np.cumsum((0,) + shape[:-1])
    rows = (idx + offsets[:, None]).ravel()
    cols = np.tile(np.arange(cost.size), len(shape))
    A = sp.coo_matrix((np.ones(rows.shape[0]), (rows, cols)),
                      shape=(sum(shape), cost.size)).tocsr()
    c = cost.ravel()
    b = np.concatenate(marginals)
    res = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs-ds")
    if res.status != 0:
        raise ConvergenceError(f"transport LP failed: {res.message}")
    x = np.maximum(res.x, 0.0)
    y = res.eqlin.marginals
    residual = float(np.abs(A @ x - b).max())
    rc = c - A.T @ y
    degenerate = (x <= _SPARSITY_TOL) & (
        np.abs(rc) <= 1e-9 * (1.0 + np.abs(c).max())
    )
    duals = tuple(np.split(y, offsets[1:]))
    return (x.reshape(shape), duals, float(res.fun),
            (residual, bool(degenerate.any())))


def _monotone_coupling(marginals):
    """Monotone (north-west) coupling of 1-D mass vectors.

    marginals : the N mass vectors, each in increasing order of its atoms.
    The quantile t goes to the tuple of atoms whose cumulative-mass
    intervals contain t: the breakpoints of all marginals are merged, and
    each interval between consecutive breakpoints is one piece.  Returns
    (indices, masses): (n, N) atom indices, nondecreasing in every column,
    and the n > 0 piece masses, with n <= sum K_i - N + 1 (equal cumulative
    masses share a breakpoint).  The pieces end at the largest total mass,
    so every atom receives mass.
    """
    cums = [np.cumsum(m) for m in marginals]
    end = max(c[-1] for c in cums)
    cuts = np.unique(np.concatenate([c[:-1] for c in cums]))
    starts = np.concatenate(([0.0], cuts[cuts < end]))
    masses = np.diff(np.append(starts, end))
    indices = np.stack(
        [np.searchsorted(c[:-1], starts, side="right") for c in cums], axis=1
    )
    return indices, masses


def solve_mmot(measures, weights, p, cap=_DEFAULT_CAP) -> TransportPlan:
    """Solve the multi-marginal problem exactly.

    d = 1: the monotone (north-west) coupling, with the cost evaluated on
    its at most sum K_i - N + 1 tuples only; cap does not apply.  d >= 2:
    the LP over the full support product (HiGHS dual simplex), which raises
    ValidationError when the product exceeds cap.
    """
    w, p, d = _check_family(measures, weights, p)
    marginals = [mu.masses for mu in measures]
    if d == 1:
        indices, masses = _monotone_coupling(marginals)
        pts = _gather(measures, indices)
        z, costs = _tuple_costs(pts, w, p)
        objective = float(masses @ costs)
        residual = max(
            float(np.abs(np.bincount(idx, masses, len(m)) - m).max())
            for idx, m in zip(indices.T, marginals)
        )
        degenerate = False
    else:
        cost = cost_tensor(measures, w, p, cap=cap)
        x, _, objective, (residual, degenerate) = _transport_lp(
            cost.values, marginals
        )
        flat = np.flatnonzero(x > _SPARSITY_TOL)
        indices = np.stack(np.unravel_index(flat, x.shape), axis=-1)
        masses = x.ravel()[flat]
        pts = _gather(measures, indices)
        z = cost.barycenters.reshape(-1, d)[flat]
    basis_bound = sum(len(m) for m in marginals) - len(marginals) + 1
    return TransportPlan(
        indices=indices,
        masses=masses,
        points=pts,
        barycenters=z,
        objective=objective,
        weights=w,
        p=p,
        measures=tuple(measures),
        marginal_residual=residual,
        support_within_basis=bool(len(masses) <= basis_bound),
        maybe_degenerate=degenerate,
    )


def _gather(measures, indices):
    """The (n, N, d) support tuples of the multi-indices (n, N)."""
    return np.stack(
        [mu.atoms[idx] for mu, idx in zip(measures, indices.T)], axis=1
    )


def barycenter_measure(plan: TransportPlan, merge_tol=None) -> DiscreteMeasure:
    """Pushforward of the plan through the barycenter map, atoms merged.

    Barycenter points closer than merge_tol (default 1e-9 times the overall
    support diameter) are merged with mass-weighted positions.  Masses are
    renormalized to absorb the plan's marginal residual (<= 1e-9).
    """
    if merge_tol is None:
        merge_tol = _span_tol(np.vstack([mu.atoms for mu in plan.measures]), 1e-9)
    atoms, masses = _merge_close(plan.barycenters, plan.masses, merge_tol)
    return DiscreteMeasure(atoms, masses / masses.sum())


def _check_pair_cap(mu, nu, cap):
    if mu.n_atoms * nu.n_atoms > cap:
        raise ValidationError("pair support product exceeds cap")


def wp_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p,
                cap=_DEFAULT_CAP) -> float:
    """p-Wasserstein distance between discrete measures, exactly.

    d = 1: from the monotone (north-west) coupling; cap does not apply.
    d >= 2: the pair LP, which raises ValidationError when K_mu K_nu > cap.
    """
    p = _check_exponent(p)
    if mu.dim != nu.dim:
        raise ValidationError("measures live in different dimensions")
    if mu.dim == 1:
        indices, masses = _monotone_coupling((mu.masses, nu.masses))
        i, j = indices.T
        value = float(masses @ np.abs(mu.atoms[i, 0] - nu.atoms[j, 0]) ** p)
    else:
        _check_pair_cap(mu, nu, cap)
        _, _, value, _ = _transport_lp(_pair_cost(mu, nu, p),
                                       (mu.masses, nu.masses))
    return float(max(value, 0.0) ** (1.0 / p))


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of the MMOT value with sum_i w_i W_p^p(mu_i, nu).

    plan and barycenter are the solved coupling and nu, its pushforward
    through the barycenter map.
    """

    mmot_value: float
    pairwise_value: float
    per_marginal: tuple
    gap: float
    tol: float
    plan: TransportPlan
    barycenter: DiscreteMeasure

    @property
    def ok(self) -> bool:
        return self.gap <= self.tol


def verify_c2m_equivalence(measures, weights, p,
                           cap=_DEFAULT_CAP) -> EquivalenceReport:
    """Check C_MM = sum_i w_i W_p^p(mu_i, nu_p) on a finite instance."""
    w, p, _ = _check_family(measures, weights, p)
    plan = solve_mmot(measures, weights, p, cap=cap)
    nu = barycenter_measure(plan)
    per = []
    for mu, wi in zip(measures, w):
        dist = wp_distance(mu, nu, p, cap=cap)
        per.append(wi * dist ** p)
    pairwise = float(sum(per))
    gap = abs(plan.objective - pairwise)
    return EquivalenceReport(
        mmot_value=plan.objective,
        pairwise_value=pairwise,
        per_marginal=tuple(per),
        gap=gap,
        tol=1e-8 * (1.0 + abs(plan.objective)),
        plan=plan,
        barycenter=nu,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of the coordinate-swap monotonicity test on a plan support.

    min_margin : smallest value of c(y1) + c(y2) - c(x1) - c(x2) over all
        support pairs and proper swap patterns; nonnegative (within
        tolerance) for optimal plans
    """

    min_margin: float
    n_pairs: int
    n_patterns: int
    worst_pair: tuple
    worst_pattern: tuple
    tol: float

    @property
    def ok(self) -> bool:
        return self.min_margin >= -self.tol


def check_cp_monotone(plan_or_points, weights=None, p=None,
                      tol=1e-9) -> MonotonicityReport:
    """Test cyclical monotonicity of a support under coordinate swaps.

    For every pair of support tuples x1, x2 and every proper subset sigma of
    marginal indices, swapping the sigma-coordinates must not decrease the
    total cost.  Accepts a TransportPlan or a raw (n, N, d) array of support
    tuples (with weights and p supplied).
    """
    if isinstance(plan_or_points, TransportPlan):
        pts = plan_or_points.points
        w = plan_or_points.weights
        p = plan_or_points.p
    else:
        pts = np.asarray(plan_or_points, dtype=float)
        if weights is None or p is None:
            raise ValidationError("weights and p required with raw support points")
        w = np.asarray(weights, dtype=float).ravel()
        p = _check_exponent(p)
    n, N, d = pts.shape
    if n < 2:
        return MonotonicityReport(0.0, 0, 0, (), (), tol)
    base = _tuple_costs(pts, w, p)[1]
    ia, ib = map(np.array, zip(*combinations(range(n), 2)))
    patterns = [
        tuple(i for i in range(N) if (mask >> i) & 1)
        for mask in range(1, 2 ** N - 1)
    ]
    best = np.inf
    worst_pair, worst_pattern = (), ()
    for pat in patterns:
        sel = np.zeros(N, bool)
        sel[list(pat)] = True
        y1 = np.where(sel[None, :, None], pts[ib], pts[ia])
        y2 = np.where(sel[None, :, None], pts[ia], pts[ib])
        m = (
            _tuple_costs(y1, w, p)[1] + _tuple_costs(y2, w, p)[1]
            - base[ia] - base[ib]
        )
        k = int(np.argmin(m))
        if m[k] < best:
            best = float(m[k])
            worst_pair = (int(ia[k]), int(ib[k]))
            worst_pattern = pat
    return MonotonicityReport(
        min_margin=best,
        n_pairs=len(ia),
        n_patterns=len(patterns),
        worst_pair=worst_pair,
        worst_pattern=worst_pattern,
        tol=tol,
    )


@dataclass(frozen=True)
class DualReport:
    """Probe of the Kantorovich characterization on a finite instance.

    For each marginal the two-marginal dual potentials (phi_i, psi_i) against
    the barycenter measure are extracted from the LP; the weighted sum
    sum_i w_i psi_i should be constant across barycenter atoms, up to the
    known per-component freedom of degenerate supports.  variance_shifted is
    the mass-weighted variance of that sum after optimal per-component
    constant shifts (which preserve dual optimality).

    degenerate is True when some pair LP has a zero-mass variable with zero
    reduced cost.  It does not mean that a pair plan is non-unique: nu is
    the pushforward of the multi-marginal plan, so an optimal pair plan
    against nu needs only one entry per atom of nu, fewer than the
    K_i + |nu| - 1 basic variables whenever K_i > 1, and a zero-mass basic
    variable (reduced cost 0) nearly always exists (100 of 100 random
    families with K_i in 2..4 reported it).  Only families of Dirac
    marginals reliably report False.
    """

    variance_raw: float
    variance_shifted: float
    components_per_marginal: tuple
    degenerate: bool
    feasibility_violation: float


def dual_check_potentials(measures, weights, p, cap=_DEFAULT_CAP) -> DualReport:
    """Extract pair duals against nu_p and test sum_i w_i psi_i = const.

    The pair duals come from the LP in every dimension, so each pair
    product K_i |nu| must stay within cap (ValidationError otherwise).
    """
    w, p, _ = _check_family(measures, weights, p)
    plan = solve_mmot(measures, weights, p, cap=cap)
    nu = barycenter_measure(plan)
    kn = nu.n_atoms
    psis, comp_ids, degenerate = [], [], False
    feas_viol = 0.0
    for mu in measures:
        _check_pair_cap(mu, nu, cap)
        costmat = _pair_cost(mu, nu, p)
        pi, (phi, psi), _, (_, degen) = _transport_lp(
            costmat, (mu.masses, nu.masses)
        )
        degenerate |= degen
        feas_viol = max(
            feas_viol, float((phi[:, None] + psi[None, :] - costmat).max())
        )
        km = mu.n_atoms
        adj = sp.coo_matrix(
            (np.ones(int((pi > _SPARSITY_TOL).sum())),
             np.nonzero(pi > _SPARSITY_TOL)),
            shape=(km, kn),
        )
        graph = sp.bmat(
            [[None, adj], [adj.T, None]], format="csr"
        )
        n_comp, labels = connected_components(graph, directed=False)
        psis.append(psi)
        comp_ids.append(labels[km:])  # component of each nu atom
    base = sum(wi * psi for wi, psi in zip(w, psis))
    mw = nu.masses / nu.masses.sum()
    mean_raw = float((mw * base).sum())
    var_raw = float((mw * (base - mean_raw) ** 2).sum())

    # Least-squares constant shifts per (marginal, component), plus a free
    # global level t:  minimize sum_k m_k (base_k + sum_i w_i s_{i,c_i(k)} - t)^2.
    cols = []
    for i, labels in enumerate(comp_ids):
        for c in np.unique(labels):
            cols.append(w[i] * (labels == c).astype(float))
    cols.append(-np.ones(kn))
    X = np.stack(cols, axis=-1)
    sw = np.sqrt(mw)
    sol, *_ = np.linalg.lstsq(sw[:, None] * X, -sw * base, rcond=None)
    fitted = base + X @ sol
    var_shift = float((mw * fitted ** 2).sum())
    return DualReport(
        variance_raw=var_raw,
        variance_shifted=var_shift,
        components_per_marginal=tuple(
            int(np.unique(labels).size) for labels in comp_ids
        ),
        degenerate=degenerate,
        feasibility_violation=feas_viol,
    )
