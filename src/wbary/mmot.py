"""Multi-marginal optimal transport between discrete measures.

The multi-marginal problem couples N discrete probability measures through
the barycentric cost

    c(x_1, ..., x_N) = sum_i w_i |x_i - bary(x)|^p,

with bary the weighted p-barycenter of the tuple.  Its optimal value equals
the p-Wasserstein barycenter problem: pushing an optimal coupling forward
through the barycenter map yields a measure nu with

    C_MM = sum_i w_i W_p^p(mu_i, nu),

which is what verify_c2m_equivalence checks numerically, in d >= 2 by
bracketing each pair value with bounds read off the one multi-marginal LP.

On the line (d = 1) the cost is strictly submodular, so the optimal
coupling is the monotone (north-west) one: the quantile t in (0, 1) goes to
the tuple of the t-quantiles of the marginals.  solve_mmot and wp_distance
build it directly from the cumulative masses, in O(sum K_i log sum K_i),
with no support product and no LP.  In higher dimensions all linear
programs go through _transport_lp: HiGHS dual simplex, through SciPy's
bindings, with presolve off and primal and dual feasibility tolerances of
1e-10, on one model per call whose rounds start from the last optimal
basis.  It returns vertex solutions (sparse supports) and the
equality-constraint duals used by the bracket.  Those tolerances sit below
what the checks on the result ask for: the swap test of check_cp_monotone
(1e-9) and the bracket of verify_c2m_equivalence (1e-8 (1 + C)).  An optimal
vertex has at most sum K_i - N + 1 positive entries, so _transport_lp
solves by column generation, and the barycentric cost is needed exactly
only on the columns that pricing cannot rule out.  The multi-marginal LP therefore
prices with the closed-form two-point lower bound of _cost_bounds, formed
on the whole product, and runs the point solver only on the columns HiGHS
sees and on those whose reduced cost by the bound is negative (_LazyCost);
the full cost tensor is never built.  The bound is at most the cost, so
duals feasible against it on the whole product within 1e-10 still certify
the optimum of the full LP.  The bound spans the product, so
core.PRODUCT_CAP, the one product cap of the package, still bounds these
LPs (and cost_tensor's product); the 1-D route never forms a product and is
not capped.  SciPy is loaded only when such an LP runs or when
near-duplicate atoms are merged, so importing wbary does not load it.  The
LP loads SciPy's HiGHS extension alone, from its file, without
scipy.optimize and the subpackages that imports; merging loads
scipy.sparse.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import core
from .core import (_array, _check_exponent, _check_family, _check_weights,
                   _length, pbary_points, support_product)
from .errors import ConvergenceError, ValidationError

_MASS_TOL = 1e-12
_SPARSITY_TOL = 1e-11
# Tolerance of the swap test in check_cp_monotone.
_MONOTONE_TOL = 1e-9
# Columns of least bound per slice in _transport_lp's first LP.
_START_COLUMNS = 16
# Relative margin of _cost_bounds' lower bound under the computed costs.
# A computed cost is a sum of positive terms at the computed barycenter, so
# it is at least the minimum up to a few ulps; the bound's own rounding is a
# few ulps too, and 1e-12 keeps the bound below.
_BOUND_MARGIN = 1e-12
# Held while _transport_lp looks up or loads SciPy's HiGHS extension.
_HIGHS_LOCK = threading.Lock()


@dataclass(frozen=True, eq=False)
class DiscreteMeasure:
    """Finitely supported probability measure.

    atoms : (K, d), distinct and in lexicographic order after ingestion
        (near-duplicates are merged and their masses added); zero-mass atoms
        are dropped
    masses : (K,) nonnegative, summing to one within 1e-12
    atoms and masses are stored read-only.
    """

    atoms: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        atoms = _array(self.atoms, "atoms", 2)
        masses = _array(self.masses, "masses", 1)
        if atoms.shape[0] != masses.shape[0]:
            raise ValidationError(
                f"atoms {atoms.shape} and masses {masses.shape} do not match"
            )
        if np.any(masses < 0):
            raise ValidationError("masses must be nonnegative")
        if abs(masses.sum() - 1.0) > _MASS_TOL:
            raise ValidationError(
                f"masses must sum to 1 within {_MASS_TOL}, got {masses.sum()!r}"
            )
        # The sum test leaves at least one atom of positive mass.
        keep = masses > 0.0
        atoms, masses = atoms[keep], masses[keep]
        atoms, masses, _ = _merge_close(atoms, masses, _span_tol(atoms, 1e-12))
        object.__setattr__(self, "atoms", _array(atoms, "atoms", 2))
        object.__setattr__(self, "masses", _array(masses, "masses", 1))

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]


def _span_tol(atoms: np.ndarray, rel: float) -> float:
    """rel * max(1, |span|), span the bounding-box diagonal of the atoms."""
    span = atoms.max(axis=0) - atoms.min(axis=0)
    return rel * max(1.0, float(_length(span)))


def _merge_close(atoms, masses, tol):
    """Merge atoms that lie within tol of each other in every coordinate.

    Closeness is closed under chaining: each connected group of atoms
    becomes one atom at the mass-weighted mean position; single atoms are
    kept as is.  A mean can land within tol of another atom, so merging
    repeats until no two atoms are close.  Returns (atoms, masses, labels):
    the merged atoms in lexicographic order, their masses, and for each
    input atom the index of the merged atom that absorbed it.
    """
    labels = np.arange(atoms.shape[0])
    while True:
        order = np.lexsort(atoms.T[::-1])
        atoms, masses = atoms[order], masses[order]
        labels = np.argsort(order)[labels]
        K = atoms.shape[0]
        # Sweep over the first coordinate: atom i can only be close to the
        # atoms after it up to hi[i] in the sorted order.
        hi = np.searchsorted(atoms[:, 0], atoms[:, 0] + tol, side="right")
        n_next = hi - np.arange(K) - 1
        i = np.repeat(np.arange(K), n_next)
        j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(n_next) - n_next,
                                                  n_next)
        close = np.all(np.abs(atoms[i] - atoms[j]) <= tol, axis=1)
        if not close.any():
            return atoms, masses, labels
        # SciPy is loaded only here and in _transport_lp: near-duplicates
        # are rare, and the d = 1 route never runs an LP.
        import scipy.sparse as sp
        from scipy.sparse.csgraph import connected_components

        graph = sp.coo_matrix((np.ones(int(close.sum())), (i[close], j[close])),
                              shape=(K, K))
        _, group = connected_components(graph, directed=False)
        mass = np.bincount(group, weights=masses)
        pos = np.stack([np.bincount(group, weights=masses * a)
                        for a in atoms.T], axis=1) / mass[:, None]
        lone = (np.bincount(group) == 1)[group]
        pos[group[lone]] = atoms[lone]
        atoms, masses, labels = pos, mass, group[labels]


@dataclass(eq=False)
class CostTensor:
    """Barycentric cost over the product of marginal supports.

    values : array of shape (K_1, ..., K_N)
    barycenters : array of shape (K_1, ..., K_N, d), the barycenter of
        every tuple
    """

    values: np.ndarray
    barycenters: np.ndarray


def _pair_weight(wi, wj, p):
    """kappa = w_i w_j / (w_i^(1/(p-1)) + w_j^(1/(p-1)))^(p-1), the minimum
    over z of w_i |x_i - z|^p + w_j |x_j - z|^p for |x_i - x_j| = 1; written
    without the negative powers (w_i^(-1/(p-1)) + ...)^(-(p-1)), which
    overflow for small weights near p = 1."""
    return wi * wj / (wi ** (1.0 / (p - 1.0)) + wj ** (1.0 / (p - 1.0))) ** (
        p - 1.0)


def _tuple_costs(pts, w, p):
    """Barycenters z and costs sum_i w_i |x_i - z|^p of tuples pts (n, N, d).

    For N = 2 the cost is the closed form kappa |x_1 - x_2|^p of
    _pair_weight, exact to rounding: near p = 1 with unequal weights the
    minimizer sits within a few ulps of the heavier point, where the cost
    at the float z comes out up to ~4e-11 relative high.
    """
    z = pbary_points(pts, w, p)
    if pts.shape[1] == 2:
        dist = _length(pts[:, 0] - pts[:, 1])
        return z, _pair_weight(w[0], w[1], p) * dist ** p
    return z, (w * _length(pts - z[:, None, :]) ** p).sum(axis=1)


def _pair_cost(mu, nu, p):
    """Pair cost matrix |x_j - y_k|^p between the atoms of mu and nu."""
    return _length(mu.atoms[:, None, :] - nu.atoms[None, :, :]) ** p


def cost_tensor(measures, weights, p) -> CostTensor:
    """Evaluate c(x_1..x_N) and the barycenters on the full support product
    (ValidationError above core.PRODUCT_CAP tuples).  The LP route does not
    use it; it serves the battery and the tests as the full-product oracle."""
    w, p, d = _check_family(measures, weights, p)
    shape = tuple(mu.n_atoms for mu in measures)
    z, cost = _tuple_costs(support_product([mu.atoms for mu in measures]),
                           w, p)
    return CostTensor(
        values=cost.reshape(shape),
        barycenters=z.reshape(shape + (d,)),
    )


def _cost_bounds(measures, w, p):
    """(lower, upper): a lower bound on the barycentric cost over the whole
    support product, and an upper bound on its largest value.

    Dropping all terms but those of marginals i < j only lowers the minimum
    over z, and the two-point minimum is closed form, so

        c(t) >= max_{i<j} kappa_ij |x_i - x_j|^p,
        kappa_ij = w_i w_j / (w_i^(1/(p-1)) + w_j^(1/(p-1)))^(p-1)
                 = (w_i^(-1/(p-1)) + w_j^(-1/(p-1)))^(-(p-1)),

    with equality for N = 2, where _tuple_costs evaluates the same
    _pair_weight in closed form.  lower is this bound scaled by
    1 - _BOUND_MARGIN, shape (K_1, ..., K_N); it takes N(N-1)/2 broadcasts
    of K_i x K_j pair matrices.  upper = sum_{i>=2} w_i max |x_1 - x_i|^p,
    the largest cost of a tuple at z = x_1.  Raises ValidationError above
    core.PRODUCT_CAP tuples, as lower spans the product.
    """
    shape = tuple(mu.n_atoms for mu in measures)
    core.check_product(shape)
    lower = np.zeros(shape)
    upper = 0.0
    for i, j in combinations(range(len(shape)), 2):
        dist = _pair_cost(measures[i], measures[j], p)
        if i == 0:
            upper += w[j] * float(dist.max())
        axes = [1] * len(shape)
        axes[i], axes[j] = shape[i], shape[j]
        np.maximum(lower, _pair_weight(w[i], w[j], p) * dist.reshape(axes),
                   out=lower)
    return lower * (1.0 - _BOUND_MARGIN), upper


class _LazyCost:
    """Barycentric cost over the support product, solved on demand.

    lower, upper : _cost_bounds of the family
    cost : flat over the product, the exact cost of every solved tuple and
        lower elsewhere
    solved : flat mask of the solved tuples
    barycenters : (size, d) flat like cost: each solved tuple's barycenter

    Calling it with flat indices returns their exact costs: the tuples not
    solved before go through the point solver in one batch.
    """

    def __init__(self, measures, w, p):
        self.family = (measures, w, p)
        self.lower, self.upper = _cost_bounds(measures, w, p)
        self.cost = self.lower.ravel().copy()
        self.solved = np.zeros(self.cost.size, bool)
        self.barycenters = np.empty((self.cost.size, measures[0].dim))

    def __call__(self, flat):
        new = flat[~self.solved[flat]]
        if new.size:
            measures, w, p = self.family
            indices = np.stack(np.unravel_index(new, self.lower.shape), axis=-1)
            z, self.cost[new] = _tuple_costs(_gather(measures, indices), w, p)
            self.solved[new] = True
            self.barycenters[new] = z
        return self.cost[flat]


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
        (d >= 2): a variable off the support has zero reduced cost, within
        1e-9 (1 + U) with U = sum_{i>=2} w_i max |x_1 - x_i|^p, an upper
        bound on every cost of the product.  1-D route: always False.  The
        mixed partials -h_i h_j / sum_k h_k of the cost,
        h_k = w_k (p-1) |x_k - z|^(p-2), are strictly negative
        except where a point sits on its barycenter (h = 0 for p > 2,
        h = inf for p < 2), a null set, so the cost is strictly submodular
        and the monotone plan is the unique optimum; coincident tuples in
        the plan do not change that.
    duals : LP route, the N equality-constraint dual vectors y_i, with
        sum_i y_i[t_i] <= c(t) up to the LP tolerance.  1-D route: None.
    lp_rounds, lp_columns : LP route, the LPs that column generation solved
        and the columns of the last one.  1-D route: None.
    lp_iterations : LP route, the HiGHS simplex iterations of each of the
        lp_rounds LPs; every LP after the first starts from the basis of the
        one before.  1-D route: None.
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
    duals: tuple | None
    lp_rounds: int | None
    lp_columns: int | None
    lp_iterations: tuple | None

    @property
    def n_entries(self) -> int:
        return self.masses.shape[0]


def _slice_columns(values, flat):
    """For every slice values[..., j, ...] of every axis, as (K_axis, rest):
    the slice's entries and their flat indices into values."""
    for axis, K in enumerate(values.shape):
        yield (np.moveaxis(values, axis, 0).reshape(K, -1),
               np.moveaxis(flat, axis, 0).reshape(K, -1))


def _transport_lp(bound, marginals, exact):
    """Optimal coupling of discrete marginals, with costs made exact on demand.

    bound : (K_1, ..., K_N) array at or below the cost c of every column;
    marginals : the N mass vectors, of lengths K_i; exact : maps an array of
    flat indices into bound to the exact costs of those columns.  Callers
    that hold the exact cost array pass it as bound and its take as exact.
    Solves min <c, x> over x >= 0 with the marginals of x fixed, by column
    generation on one HiGHS model under one contract: dual simplex (vertex
    solutions, so sparse supports), presolve off, and primal and dual
    feasibility tolerances of 1e-10 (HiGHS defaults to presolve on and
    1e-7).  The checks downstream ask for more than 1e-7: check_cp_monotone's
    swap test at 1e-9 and the bracket of verify_c2m_equivalence at
    1e-8 (1 + C).

    The model is built once per call: one equality row per atom of every
    marginal, then the columns of each round added to the same model, so
    every LP after the first starts from the optimal basis of the one
    before.  That basis stays primal feasible, as the new columns enter at
    zero, so later rounds take far fewer simplex iterations than a cold
    start.  The model is dropped when the call returns.

    Columns are priced by the bound until exact gives their cost, and every
    column HiGHS sees has its exact cost.  The first LP runs on the columns
    of the north-west-corner coupling (a feasible point, so every restricted
    LP is feasible) and the _START_COLUMNS columns of least bound in every
    slice bound[..., j, ...]; small products (slices of at most
    _START_COLUMNS columns) start from the whole product.  After each LP the
    reduced costs c - sum_i y_i[t_i] of its duals are formed on the whole
    product, with the bound in place of every c not yet known, and one call
    of exact makes every column below -1e-10 exact.  Then every slice with
    a column outside the LP below -1e-10 adds its most negative one, and the
    LP runs again.  It stops when no column outside the LP is below -1e-10,
    the dual feasibility tolerance HiGHS holds on the LP's own columns.  The
    bound is at most c, so the duals are then feasible on every column of
    the product and the restricted optimum is the optimum.  Every round adds
    a column, so the loop ends.  Raises ConvergenceError, naming HiGHS's
    model status, unless HiGHS reports an optimum.

    HiGHS comes from SciPy's compiled extension, which the first call loads
    from its file and registers under its module name; scipy.optimize,
    imported before or after, uses the same module.  Raises ImportError,
    naming the directories searched, when the file is not there.  Returns
    (plan, duals, objective, certificate):

    plan : the nonnegative optimal coupling, shaped like bound
    duals : the N equality-constraint dual vectors, one per marginal
    objective : the optimal value
    certificate : (marginal_residual, rounds, columns, iterations), the
        worst absolute marginal mismatch of plan, the number of LPs solved,
        the columns of the last one and the simplex iterations of each LP
    """
    # Importing the extension through its package would first run
    # scipy/optimize/__init__.py, which loads scipy.linalg, sparse, special,
    # spatial and fft.  Loaded under a second name, the pybind11 extension
    # fails with "type already registered", hence the one canonical name
    # and the lock around the first load.
    name = "scipy.optimize._highspy._core"
    with _HIGHS_LOCK:
        highs = sys.modules.get(name)
        if highs is None:
            import scipy

            where = [os.path.join(d, "optimize", "_highspy")
                     for d in scipy.__path__]
            spec = importlib.machinery.PathFinder.find_spec(name, where)
            if spec is None:
                raise ImportError(f"{name} not found in {', '.join(where)}")
            highs = importlib.util.module_from_spec(spec)
            sys.modules[name] = highs
            try:
                spec.loader.exec_module(highs)
            except BaseException:
                del sys.modules[name]
                raise

    shape = bound.shape
    offsets = np.cumsum((0,) + shape[:-1])
    flat = np.arange(bound.size).reshape(shape)
    b = np.concatenate(marginals)
    start = [np.ravel_multi_index(_monotone_coupling(marginals)[0].T, shape)]
    for values, index in _slice_columns(bound, flat):
        k = _START_COLUMNS
        if k < values.shape[1]:
            index = np.take_along_axis(
                index, np.argpartition(values, k - 1, axis=1)[:, :k], axis=1)
        start.append(index.ravel())
    new = _sorted_unique(np.concatenate(start))
    cost = np.array(bound, dtype=float).ravel()
    cost[new] = exact(new)
    lp = highs._Highs()
    # simplex_strategy 1 is dual simplex, as linprog's "highs-ds" sets it.
    for option, value in (("output_flag", False), ("presolve", "off"),
                          ("solver", "simplex"), ("simplex_strategy", 1),
                          ("primal_feasibility_tolerance", 1e-10),
                          ("dual_feasibility_tolerance", 1e-10)):
        lp.setOptionValue(option, value)
    none = np.zeros(0, np.int32)
    lp.addRows(b.size, b, b, 0, none, none, np.zeros(0))
    cols = np.zeros(0, dtype=np.intp)
    iterations = []
    while True:
        # Column t has a 1 in row offsets[i] + t_i of every marginal i.
        entries = (np.stack(np.unravel_index(new, shape), axis=1)
                   + offsets).astype(np.int32).ravel()
        starts = np.arange(0, entries.size, len(shape), dtype=np.int32)
        lp.addCols(new.size, cost[new], np.zeros(new.size),
                   np.full(new.size, highs.kHighsInf), entries.size, starts,
                   entries, np.ones(entries.size))
        cols = np.concatenate((cols, new))
        lp.run()
        status = lp.getModelStatus()
        if status != highs.HighsModelStatus.kOptimal:
            raise ConvergenceError("transport LP failed: HiGHS model status "
                                   f"is {lp.modelStatusToString(status)}")
        info = lp.getInfo()
        iterations.append(int(info.simplex_iteration_count))
        solution = lp.getSolution()
        duals = tuple(np.split(np.array(solution.row_dual), offsets[1:]))
        sy = sum(np.ix_(*duals)).ravel()
        rc = cost - sy
        below = np.flatnonzero(rc < -1e-10)
        cost[below] = exact(below)
        rc[below] = cost[below] - sy[below]
        rc[cols] = 0.0  # HiGHS certifies the LP's own columns
        new = []
        for values, index in _slice_columns(rc.reshape(shape), flat):
            j = values.argmin(axis=1)
            rows = np.flatnonzero(values[np.arange(len(j)), j] < -1e-10)
            new.append(index[rows, j[rows]])
        # A column can be the most negative of two slices.
        new = _sorted_unique(np.concatenate(new))
        if new.size == 0:
            break
    x = np.zeros(bound.size)
    x[cols] = np.maximum(np.array(solution.col_value), 0.0)
    residual = _marginal_residual(np.stack(np.unravel_index(cols, shape), 1),
                                  x[cols], marginals)
    return (x.reshape(shape), duals, float(info.objective_function_value),
            (residual, len(iterations), int(cols.size), tuple(iterations)))


def _sorted_unique(idx):
    """The distinct values of the integer array idx, sorted: np.unique's
    result, which takes over ten times as long on a few thousand indices."""
    idx = np.sort(idx)
    keep = np.ones(idx.size, dtype=bool)
    keep[1:] = idx[1:] != idx[:-1]
    return idx[keep]


def _marginal_residual(indices, masses, marginals):
    """Worst absolute marginal mismatch of the coupling with entries
    masses (n,) at multi-indices indices (n, N)."""
    return max(
        float(np.abs(np.bincount(idx, masses, len(m)) - m).max())
        for idx, m in zip(indices.T, marginals)
    )


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


def solve_mmot(measures, weights, p) -> TransportPlan:
    """Solve the multi-marginal problem exactly.

    d = 1: the monotone (north-west) coupling, with the cost evaluated on
    its at most sum K_i - N + 1 tuples only; no cap applies.  d >= 2: the
    LP over the support product, by _transport_lp's column generation
    priced with the two-point lower bound of _cost_bounds; the point solver
    runs only on the columns the bound cannot price out.  Raises
    ValidationError when the product exceeds core.PRODUCT_CAP.
    """
    w, p, d = _check_family(measures, weights, p)
    marginals = [mu.masses for mu in measures]
    if d == 1:
        indices, masses = _monotone_coupling(marginals)
        z, c = _tuple_costs(_gather(measures, indices), w, p)
        objective = float(masses @ c)
        residual = _marginal_residual(indices, masses, marginals)
        degenerate, duals = False, None
        rounds, columns, iterations = None, None, None
    else:
        costs = _LazyCost(measures, w, p)
        x, duals, objective, (residual, rounds, columns, iterations) = (
            _transport_lp(costs.lower, marginals, costs))
        x = x.ravel()
        flat = np.flatnonzero(x > _SPARSITY_TOL)
        indices = np.stack(np.unravel_index(flat, costs.lower.shape), axis=-1)
        masses = x[flat]
        z = costs.barycenters[flat]
        # The bound's reduced cost is at most the exact one, so only the
        # columns at or below the tolerance by the bound can have a zero
        # reduced cost; those are made exact.
        sy = sum(np.ix_(*duals)).ravel()
        tol = 1e-9 * (1.0 + costs.upper)
        near = np.flatnonzero((x <= _SPARSITY_TOL) & (costs.cost - sy <= tol))
        degenerate = bool((np.abs(costs(near) - sy[near]) <= tol).any())
    basis_bound = sum(len(m) for m in marginals) - len(marginals) + 1
    return TransportPlan(
        indices=indices,
        masses=masses,
        points=_gather(measures, indices),
        barycenters=z,
        objective=objective,
        weights=w,
        p=p,
        measures=tuple(measures),
        marginal_residual=residual,
        support_within_basis=bool(len(masses) <= basis_bound),
        maybe_degenerate=degenerate,
        duals=duals,
        lp_rounds=rounds,
        lp_columns=columns,
        lp_iterations=iterations,
    )


def _gather(measures, indices):
    """The (n, N, d) support tuples of the multi-indices (n, N)."""
    return np.stack(
        [mu.atoms[idx] for mu, idx in zip(measures, indices.T)], axis=1
    )


def barycenter_measure(plan: TransportPlan) -> DiscreteMeasure:
    """Pushforward of the plan through the barycenter map, atoms merged.

    Barycenter points closer than 1e-9 times the overall support diameter
    are merged with mass-weighted positions.  Masses are renormalized to
    absorb the plan's marginal residual (<= 1e-9).
    """
    return _pushforward(plan)[0]


def _pushforward(plan):
    """barycenter_measure(plan) and, for each plan entry, its atom index.

    Atoms merge within 1e-9 times the diameter of the supports, whose hull
    contains nu.  The merged atoms come sorted and farther apart than that,
    which is at least DiscreteMeasure's own merge tolerance, 1e-12 times the
    diameter of nu, so the labels index nu.atoms.
    """
    merge_tol = _span_tol(np.vstack([mu.atoms for mu in plan.measures]), 1e-9)
    atoms, masses, labels = _merge_close(plan.barycenters, plan.masses,
                                         merge_tol)
    return DiscreteMeasure(atoms, masses / masses.sum()), labels


def wp_distance(mu: DiscreteMeasure, nu: DiscreteMeasure, p) -> float:
    """p-Wasserstein distance between discrete measures, exactly.

    d = 1: from the monotone (north-west) coupling; no cap applies.  d >= 2:
    the pair LP, which raises ValidationError when K_mu K_nu exceeds
    core.PRODUCT_CAP.
    """
    p = _check_exponent(p)
    if mu.dim != nu.dim:
        raise ValidationError("measures live in different dimensions")
    if mu.dim == 1:
        indices, masses = _monotone_coupling((mu.masses, nu.masses))
        i, j = indices.T
        value = float(masses @ np.abs(mu.atoms[i, 0] - nu.atoms[j, 0]) ** p)
    else:
        core.check_product((mu.n_atoms, nu.n_atoms))
        cost = _pair_cost(mu, nu, p)
        _, _, value, _ = _transport_lp(cost, (mu.masses, nu.masses),
                                       cost.take)
    return float(max(value, 0.0) ** (1.0 / p))


def _c_transforms(plan, nu):
    """Pair costs w_i |x_ik - z_j|^p to the atoms z_j of nu, and the
    c-transforms psi_i(z_j) = min_k (w_i |x_ik - z_j|^p - y_ik) of the duals."""
    costs = [wi * _pair_cost(mu, nu, plan.p)
             for mu, wi in zip(plan.measures, plan.weights)]
    psis = [(c - y[:, None]).min(axis=0) for c, y in zip(costs, plan.duals)]
    return costs, psis


@dataclass(frozen=True)
class EquivalenceReport:
    """Comparison of the MMOT value C with sum_i w_i W_p^p(mu_i, nu).

    plan and barycenter are the solved coupling and nu, its pushforward
    through the barycenter map.  bracket holds per marginal (L_i, U_i) with
    L_i <= w_i W_p^p(mu_i, nu) <= U_i: in d = 1 both are the exact monotone
    value; in d >= 2, L_i = <mu_i, y_i> + <nu, psi_i> (psi_i the c-transform
    of the LP dual y_i) and U_i is the cost of the plan projected onto
    (mu_i, nu).  gap = max(|C - sum L_i|, |C - sum U_i|) bounds the true gap.
    bracket replaces the former fields pairwise_value and per_marginal.
    """

    mmot_value: float
    bracket: tuple
    gap: float
    tol: float
    plan: TransportPlan
    barycenter: DiscreteMeasure

    @property
    def ok(self) -> bool:
        return self.gap <= self.tol


def verify_c2m_equivalence(measures, weights, p) -> EquivalenceReport:
    """Check C_MM = sum_i w_i W_p^p(mu_i, nu_p) with one solve_mmot."""
    w, p, d = _check_family(measures, weights, p)
    plan = solve_mmot(measures, weights, p)
    nu, labels = _pushforward(plan)
    if d == 1:
        bracket = [(v, v) for v in (float(wi * wp_distance(mu, nu, p) ** p)
                                    for mu, wi in zip(measures, w))]
    else:
        costs, psis = _c_transforms(plan, nu)
        bracket = [
            (float(y @ mu.masses + psi @ nu.masses),
             float(plan.masses @ c[idx, labels]))
            for mu, y, psi, c, idx in zip(measures, plan.duals, psis, costs,
                                          plan.indices.T)
        ]
    lower, upper = (sum(b) for b in zip(*bracket))
    C = plan.objective
    return EquivalenceReport(
        mmot_value=C,
        bracket=tuple(bracket),
        gap=max(abs(C - lower), abs(C - upper)),
        tol=1e-8 * (1.0 + abs(C)),
        plan=plan,
        barycenter=nu,
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of the coordinate-swap monotonicity test on a plan support.

    min_margin : smallest value of c(y1) + c(y2) - c(x1) - c(x2) over all
        support pairs and proper swap patterns; nonnegative (within
        tolerance) for optimal plans
    n_patterns : swap patterns tested, 2^(N-1) - 1: a pattern and its
        complement swap the same pair of tuples, so only the patterns that
        leave the last marginal in place are tested
    """

    min_margin: float
    n_pairs: int
    n_patterns: int
    tol: float

    @property
    def ok(self) -> bool:
        return self.min_margin >= -self.tol


def check_cp_monotone(points, weights, p) -> MonotonicityReport:
    """Test cyclical monotonicity of a support under coordinate swaps.

    points : (n, N, d) support tuples of a coupling (for a TransportPlan,
        pass plan.points, plan.weights and plan.p)

    For every pair of support tuples x1, x2 and every proper subset sigma of
    marginal indices, swapping the sigma-coordinates must not decrease the
    total cost by more than 1e-9.  sigma and its complement give the same
    swapped pair, so only the subsets without the last marginal are
    evaluated.
    """
    pts = _array(points, "points", 3)
    w = _check_weights(weights, pts.shape[1])
    p = _check_exponent(p)
    n, N, d = pts.shape
    if n < 2:
        return MonotonicityReport(0.0, 0, 0, _MONOTONE_TOL)
    base = _tuple_costs(pts, w, p)[1]
    ia, ib = map(np.array, zip(*combinations(range(n), 2)))
    best = np.inf
    for mask in range(1, 2 ** (N - 1)):
        sel = ((mask >> np.arange(N)) & 1).astype(bool)
        y1 = np.where(sel[None, :, None], pts[ib], pts[ia])
        y2 = np.where(sel[None, :, None], pts[ia], pts[ib])
        m = (
            _tuple_costs(y1, w, p)[1] + _tuple_costs(y2, w, p)[1]
            - base[ia] - base[ib]
        )
        best = min(best, float(m.min()))
    return MonotonicityReport(
        min_margin=best,
        n_pairs=len(ia),
        n_patterns=2 ** (N - 1) - 1,
        tol=_MONOTONE_TOL,
    )
