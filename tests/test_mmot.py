"""Multi-marginal transport: LP solutions, equivalence, duals, monotonicity."""

import ast
from dataclasses import replace
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from wbary import (
    AffineMap,
    ConvergenceError,
    DiscreteMeasure,
    ValidationError,
    barycenter_measure,
    check_cp_monotone,
    compute_D,
    compute_m,
    cost_tensor,
    pbary_points,
    solve_mmot,
    verify_affine_vs_mmot,
    verify_c2m_equivalence,
    wp_distance,
)
from wbary import core, mmot
from wbary.mmot import _pair_cost, _transport_lp, _tuple_costs


def _dual_probe(plan, measures, w, p):
    """(violation, residual) of the plan's LP duals y_i: the largest
    sum_i y_i[t_i] - c(t) over the whole support product, from the full cost
    tensor, and the largest |sum_i psi_i| over the atoms of nu, psi_i the
    c-transforms of the y_i."""
    excess = sum(np.ix_(*plan.duals)) - cost_tensor(measures, w, p).values
    psis = mmot._c_transforms(plan, barycenter_measure(plan))[1]
    return float(excess.max()), float(np.abs(sum(psis)).max())


def test_measure_validation_and_merging():
    m = DiscreteMeasure(np.array([[0.0], [1.0], [1.0 + 1e-15]]),
                        [0.5, 0.25, 0.25])
    assert m.n_atoms == 2  # indistinguishable atoms merge, masses add
    assert m.masses.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        DiscreteMeasure(np.array([[0.0]]), [0.5])  # mass deficit
    with pytest.raises(ValidationError):
        DiscreteMeasure(np.array([[0.0], [1.0]]), [1.5, -0.5])


def test_merging_groups_atoms_that_are_not_lexicographic_neighbours():
    """(0, 0) and (1e-13, 0) are near-duplicates with (5e-14, 3) sorted
    between them; they merge, and the result stays in lexicographic order."""
    m = DiscreteMeasure([[0.0, 0.0], [5e-14, 3.0], [1e-13, 0.0]], [1 / 3] * 3)
    assert m.n_atoms == 2
    np.testing.assert_allclose(m.atoms, [[5e-14, 0.0], [5e-14, 3.0]],
                               rtol=0, atol=1e-20)
    np.testing.assert_allclose(m.masses, [2 / 3, 1 / 3], rtol=1e-15)
    # Chains of close atoms merge into one group; distinct atoms stay put.
    chain = DiscreteMeasure([[2.0, 1.0], [0.0, 0.0], [8e-13, 1e-13],
                             [4e-13, 0.0]], [0.25] * 4)
    np.testing.assert_allclose(chain.atoms, [[4e-13, 1e-13 / 3], [2.0, 1.0]],
                               rtol=1e-12, atol=1e-25)
    assert chain.atoms[1].tolist() == [2.0, 1.0]
    np.testing.assert_allclose(chain.masses, [0.75, 0.25], rtol=1e-15)
    # A merged atom is placed by its mean, which can sort after a neighbour.
    m = DiscreteMeasure([[0.0, 0.0], [4e-13, 3.0], [1e-12, 0.0]], [1 / 3] * 3)
    np.testing.assert_allclose(m.atoms, [[4e-13, 3.0], [5e-13, 0.0]],
                               rtol=1e-12, atol=1e-25)


def test_measure_drops_zero_mass():
    m = DiscreteMeasure(np.array([[0.0], [1.0]]), [1.0, 0.0])
    assert m.n_atoms == 1


def test_cost_tensor_two_diracs():
    """c(x1, x2) = min_z sum w_i |x_i - z|^p: two unit points at 0 and 1."""
    m1 = DiscreteMeasure(np.array([[0.0]]), [1.0])
    m2 = DiscreteMeasure(np.array([[1.0]]), [1.0])
    ct = cost_tensor([m1, m2], np.array([0.5, 0.5]), 2.0)
    assert ct.values.shape == (1, 1)
    assert ct.values[0, 0] == pytest.approx(0.25, rel=1e-12)
    assert ct.barycenters[0, 0] == pytest.approx(0.5, rel=1e-12)


def test_mmot_monotone_rearrangement_1d():
    """Equal-mass 1-d marginals couple monotonically.

    Pairing (0, 0.2) and (1, 0.9) gives tuple costs 0.01 and 0.0025 at
    barycenters 0.1 and 0.95, so the optimum is 0.00625.
    """
    a = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
    b = DiscreteMeasure(np.array([[0.2], [0.9]]), [0.5, 0.5])
    plan = solve_mmot([a, b], np.array([0.5, 0.5]), 2.0)
    assert plan.objective == pytest.approx(0.00625, rel=1e-12)
    np.testing.assert_allclose(np.sort(plan.barycenters.ravel()), [0.1, 0.95],
                               atol=1e-12)


def test_mmot_matches_permutation_enumeration():
    """Uniform equal-size marginals: the LP optimum over couplings equals
    the best assignment, found here by brute force over permutations."""
    rng = np.random.default_rng(12)
    for p in (1.5, 2.0, 3.0):
        A = rng.normal(size=(3, 2))
        B = rng.normal(size=(3, 2))
        mA = DiscreteMeasure(A, np.full(3, 1 / 3))
        mB = DiscreteMeasure(B, np.full(3, 1 / 3))
        w = np.array([0.6, 0.4])
        plan = solve_mmot([mA, mB], w, p)
        best = np.inf
        for perm in permutations(range(3)):
            pts = np.stack([A, B[list(perm)]], axis=1)  # (3, 2, 2)
            z = pbary_points(pts, w, p)
            cost = (
                w[None, :] * np.linalg.norm(pts - z[:, None, :], axis=2) ** p
            ).sum() / 3.0
            best = min(best, cost)
        assert plan.objective == pytest.approx(best, rel=1e-10)


def test_support_sparsity_and_marginals():
    rng = np.random.default_rng(21)
    for _ in range(8):
        measures = []
        for _ in range(3):
            K = int(rng.integers(2, 5))
            masses = rng.uniform(0.2, 1.0, K)
            measures.append(
                DiscreteMeasure(rng.normal(size=(K, 2)), masses / masses.sum())
            )
        w = rng.uniform(0.2, 1.0, 3)
        plan = solve_mmot(measures, w / w.sum(), 2.0)
        basis = sum(m.n_atoms for m in measures) - 3 + 1
        assert len(plan.masses) <= basis
        assert plan.support_within_basis
        assert plan.marginal_residual <= 1e-9


def test_wp_distance_diracs():
    m0 = DiscreteMeasure(np.array([[0.0]]), [1.0])
    m1 = DiscreteMeasure(np.array([[1.0]]), [1.0])
    for p in (1.5, 2.0, 3.0):
        assert wp_distance(m0, m1, p) == pytest.approx(1.0, rel=1e-12)
    assert wp_distance(m0, m0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_pair_lp_duals_certify_optimum():
    """Dual feasibility phi_j + psi_k <= c_jk, zero slack on the support,
    and dual objective equal to the primal: an optimality certificate."""
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
    nu = DiscreteMeasure(np.array([[2.0], [3.0]]), [0.5, 0.5])
    cost = (mu.atoms[:, None, 0] - nu.atoms[None, :, 0]) ** 2
    plan, (phi, psi), value, _ = _transport_lp(cost, (mu.masses, nu.masses),
                                               cost.take)
    assert value == pytest.approx(4.0, rel=1e-12)
    assert phi @ mu.masses + psi @ nu.masses == pytest.approx(value, rel=1e-10)
    slack = cost - phi[:, None] - psi[None, :]
    assert slack.min() >= -1e-9
    assert np.abs(slack[plan > 1e-12]).max() <= 1e-9


def test_certificate_flags_a_tie_as_degenerate():
    """(0,0), (1,1) against (1,0), (0,1): every pair is at distance 1, so
    every coupling is optimal and the plan reports degeneracy; the duals
    still satisfy the Kantorovich characterization."""
    a = DiscreteMeasure([[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5])
    b = DiscreteMeasure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
    w = np.array([0.5, 0.5])
    plan = solve_mmot([a, b], w, 2.0)
    assert plan.maybe_degenerate
    assert plan.objective == pytest.approx(0.25, rel=1e-12)
    violation, residual = _dual_probe(plan, [a, b], w, 2.0)
    assert violation <= 1e-12
    assert residual <= 1e-12


def test_certificate_passes_a_unique_1d_optimum():
    """Unequal masses on the line: the monotone plan fills the basis
    (2 + 2 - 1 entries) and is the unique optimum."""
    a = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    b = DiscreteMeasure([[0.5], [2.0]], [0.6, 0.4])
    plan = solve_mmot([a, b], np.array([0.5, 0.5]), 2.0)
    assert not plan.maybe_degenerate
    assert plan.n_entries == 3 and plan.support_within_basis


def test_equivalence_on_seeded_instance():
    rng = np.random.default_rng(3)
    measures = []
    for K in (3, 2, 4):
        pts = rng.normal(size=(K, 2))
        m = rng.uniform(0.2, 1.0, K)
        measures.append(DiscreteMeasure(pts, m / m.sum()))
    w = np.array([0.5, 0.25, 0.25])
    for p in (1.5, 2.0, 3.0):
        rep = verify_c2m_equivalence(measures, w, p)
        assert rep.ok
        assert rep.gap <= 1e-10 * (1.0 + rep.mmot_value)


def test_barycenter_measure_mass():
    a = DiscreteMeasure(np.array([[0.0], [1.0]]), [0.5, 0.5])
    b = DiscreteMeasure(np.array([[0.25], [0.75]]), [0.5, 0.5])
    plan = solve_mmot([a, b], np.array([0.5, 0.5]), 2.0)
    nu = barycenter_measure(plan)
    assert nu.masses.sum() == pytest.approx(1.0, abs=1e-12)
    assert nu.n_atoms <= len(plan.masses)


def test_pushforward_labels_index_the_measure_atoms():
    """Supports of diameter 1 give a merge tolerance of 1e-9, so (0, 0) and
    (1e-9, 0) merge to (5e-10, 0), which sorts after (4e-10, 3); the labels
    still point every plan entry at its own atom of nu."""
    plan = SimpleNamespace(
        barycenters=np.array([[0.0, 0.0], [4e-10, 3.0], [1e-9, 0.0]]),
        masses=np.array([0.25, 0.5, 0.25]),
        measures=[SimpleNamespace(atoms=np.array([[0.0, 0.0], [0.0, 1.0]]))],
    )
    nu, labels = mmot._pushforward(plan)
    assert labels.tolist() == [1, 0, 1]
    np.testing.assert_allclose(nu.atoms, [[4e-10, 3.0], [5e-10, 0.0]],
                               rtol=0, atol=1e-20)
    np.testing.assert_allclose(np.bincount(labels, plan.masses), nu.masses)


def test_monotonicity_detects_crossing():
    crossed = np.array([[[0.0], [1.0]], [[1.0], [0.0]]])
    rep = check_cp_monotone(crossed, weights=np.array([0.5, 0.5]), p=2.0)
    assert not rep.ok
    # swapping either coordinate gives tuples (0,0) and (1,1), saving
    # the full 2 x 0.25 barycenter cost
    assert rep.min_margin == pytest.approx(-0.5, rel=1e-12)


def test_monotonicity_tests_each_swap_once():
    """A pattern and its complement swap the same pair of tuples, so the
    2^(N-1) - 1 patterns without the last marginal give the same minimum
    as all 2^N - 2 proper patterns."""
    rng = np.random.default_rng(5)
    measures = [
        DiscreteMeasure(rng.normal(size=(3, 2)), np.full(3, 1 / 3))
        for _ in range(4)
    ]
    w = np.array([0.1, 0.2, 0.3, 0.4])
    plan = solve_mmot(measures, w, 3.0)
    rep = check_cp_monotone(plan.points, plan.weights, plan.p)
    assert rep.n_patterns == 7
    pts, n = plan.points, len(plan.points)
    ia, ib = np.triu_indices(n, 1)
    base = _tuple_costs(pts, w, 3.0)[1]
    margins = []
    for mask in range(1, 2 ** 4 - 1):
        sel = ((mask >> np.arange(4)) & 1).astype(bool)[None, :, None]
        y1 = np.where(sel, pts[ib], pts[ia])
        y2 = np.where(sel, pts[ia], pts[ib])
        margins.append((_tuple_costs(y1, w, 3.0)[1] + _tuple_costs(y2, w, 3.0)[1]
                        - base[ia] - base[ib]).min())
    assert rep.min_margin == min(margins)


def test_monotonicity_passes_optimal():
    rng = np.random.default_rng(77)
    measures = [
        DiscreteMeasure(rng.normal(size=(3, 1)), np.full(3, 1 / 3))
        for _ in range(2)
    ]
    plan = solve_mmot(measures, np.array([0.5, 0.5]), 3.0)
    rep = check_cp_monotone(plan.points, plan.weights, plan.p)
    assert rep.ok


def test_dual_potentials_shift_invariance():
    """The multi-marginal duals are defined up to constant shifts summing
    to zero, which leave sum_i psi_i unchanged; that sum vanishes on the
    barycenter support, and the duals are feasible on the product.  One LP
    gives the duals."""
    rng = np.random.default_rng(9)
    measures = []
    for K in (3, 2, 4):
        pts = rng.normal(size=(K, 2))
        m = rng.uniform(0.2, 1.0, K)
        measures.append(DiscreteMeasure(pts, m / m.sum()))
    w = np.array([0.5, 0.25, 0.25])
    with mock.patch.object(mmot, "_transport_lp",
                           wraps=mmot._transport_lp) as lp:
        plan = solve_mmot(measures, w, 2.0)
    assert lp.call_count == 1
    violation, residual = _dual_probe(plan, measures, w, 2.0)
    assert residual <= 1e-9
    assert violation <= 1e-9
    nu = barycenter_measure(plan)
    shifted = replace(plan, duals=tuple(
        y + a for y, a in zip(plan.duals, (1.0, -0.25, -0.75))))
    np.testing.assert_allclose(sum(mmot._c_transforms(shifted, nu)[1]),
                               sum(mmot._c_transforms(plan, nu)[1]),
                               rtol=0, atol=1e-12)


def test_family_validation():
    m = DiscreteMeasure(np.array([[0.0]]), [1.0])
    m2 = DiscreteMeasure(np.array([[0.0, 1.0]]), [1.0])
    with pytest.raises(ValidationError):
        solve_mmot([m, m2], np.array([0.5, 0.5]), 2.0)  # dim mismatch
    with pytest.raises(ValidationError):
        solve_mmot([m], np.array([1.0]), 2.0)  # needs >= 2 marginals


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.floats(1.2, 4.0),
    sizes=st.lists(st.integers(1, 8), min_size=2, max_size=4),
    equal=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_monotone_route_matches_the_lp_1d(seed, p, sizes, equal):
    """On the line solve_mmot and wp_distance use the monotone coupling;
    its values match the LP.  Equal masses make cumulative sums tie."""
    rng = np.random.default_rng(seed)
    measures = []
    for K, eq in zip(sizes, equal):
        m = np.ones(K) if eq else rng.uniform(0.2, 1.0, K)
        measures.append(DiscreteMeasure(rng.normal(size=(K, 1)), m / m.sum()))
    w = rng.uniform(0.2, 1.0, len(sizes))
    w = w / w.sum()
    marginals = [mu.masses for mu in measures]
    try:
        plan = solve_mmot(measures, w, p)
        cost = cost_tensor(measures, w, p).values
        mono = check_cp_monotone(plan.points, plan.weights, plan.p)
    except ConvergenceError:
        # Near p = 1.2 the point solver's tolerance can lie below the float
        # resolution of the residual; pbary_points then raises by design
        # (test_near_one_exponent_unreachable), and there is no cost to
        # compare.
        reject()
    C = plan.objective
    # The LP oracle runs at _transport_lp's feasibility tolerances of 1e-10.
    # (At HiGHS' default 1e-7, pair LPs against a barycenter measure were
    # seen to end up to 7.6e-9 above the optimum.)
    assert C == pytest.approx(_transport_lp(cost, marginals, cost.take)[2],
                              rel=0, abs=1e-9 * (1.0 + C))
    assert plan.marginal_residual <= 1e-12
    assert plan.support_within_basis
    assert mono.ok, mono.min_margin
    nu = barycenter_measure(plan)
    for mu in measures:
        cost_pair = np.abs(mu.atoms - nu.atoms.T) ** p
        lp = _transport_lp(cost_pair, (mu.masses, nu.masses),
                           cost_pair.take)[2]
        assert wp_distance(mu, nu, p) ** p == pytest.approx(
            lp, rel=0, abs=1e-9 * (1.0 + lp))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.floats(1.2, 4.0),
    sizes=st.lists(st.integers(1, 6), min_size=2, max_size=3),
)
def test_pair_bracket_holds_the_pair_lp_value_2d(seed, p, sizes):
    """In d >= 2 verify_c2m_equivalence solves the multi-marginal LP only;
    each bracket (L_i, U_i) holds the pair LP value w_i W_p^p(mu_i, nu)."""
    rng = np.random.default_rng(seed)
    measures = []
    for K in sizes:
        m = rng.uniform(0.2, 1.0, K)
        measures.append(DiscreteMeasure(rng.normal(size=(K, 2)), m / m.sum()))
    w = rng.uniform(0.2, 1.0, len(sizes))
    w = w / w.sum()
    try:
        with mock.patch.object(mmot, "_transport_lp",
                               wraps=mmot._transport_lp) as lp:
            rep = verify_c2m_equivalence(measures, w, p)
    except ConvergenceError:
        # pbary_points' documented float-floor raise near p = 1.2, as in
        # test_monotone_route_matches_the_lp_1d.
        reject()
    assert lp.call_count == 1
    assert rep.ok, rep.gap
    C, nu = rep.mmot_value, rep.barycenter
    for mu, wi, (lower, upper) in zip(measures, w, rep.bracket):
        cost = _pair_cost(mu, nu, p)
        W = wi * _transport_lp(cost, (mu.masses, nu.masses), cost.take)[2]
        assert lower <= W + 1e-9 * (1.0 + C)
        assert W <= upper + 1e-9 * (1.0 + C)


_TRANSPORT_SIZES = st.one_of(
    st.lists(st.integers(2, 100), min_size=2, max_size=2),
    st.lists(st.integers(2, 22), min_size=3, max_size=3),
)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6), p=st.floats(1.7, 4.0),
       sizes=_TRANSPORT_SIZES)
def test_lp_contract_meets_its_consumers_2d(seed, p, sizes):
    """_transport_lp's feasibility tolerances of 1e-10 serve every check on
    its result: the marginals, the swap test at its default 1e-9, the dual
    feasibility and the equivalence bracket, on 2-D families of up to about
    1e4 product tuples."""
    rng = np.random.default_rng(seed)
    measures = []
    for K in sizes:
        m = rng.uniform(0.2, 1.0, K)
        measures.append(DiscreteMeasure(rng.normal(size=(K, 2)), m / m.sum()))
    w = rng.uniform(0.2, 1.0, len(sizes))
    w = w / w.sum()
    try:
        rep = verify_c2m_equivalence(measures, w, p)
        mono = check_cp_monotone(rep.plan.points, rep.plan.weights, rep.plan.p)
        cost = cost_tensor(measures, w, p).values
    except ConvergenceError:
        # pbary_points' documented float-floor raise for p < 2, as in
        # test_monotone_route_matches_the_lp_1d.
        reject()
    assert rep.plan.marginal_residual <= 1e-10
    assert mono.ok, mono.min_margin
    violation = (sum(np.ix_(*rep.plan.duals)) - cost).max()
    assert violation <= 1e-9 * (1.0 + cost.max())
    assert rep.ok, rep.gap


def test_1d_route_has_no_product_cap():
    """1e5 atoms per marginal (a product of 1e15) in one dimension.  p = 2
    because at p != 2 some of the 3e5 quantile tuples have diameters so
    small against their position that pbary_points' tolerance lies below
    the float resolution of the residual, and it raises."""
    rng = np.random.default_rng(0)
    measures = []
    for _ in range(3):
        m = rng.uniform(0.2, 1.0, 10 ** 5)
        measures.append(DiscreteMeasure(rng.normal(size=(10 ** 5, 1)),
                                        m / m.sum()))
    rep = verify_c2m_equivalence(measures, np.array([0.5, 0.3, 0.2]), 2.0)
    assert rep.gap <= 1e-12 * (1.0 + rep.mmot_value)
    assert rep.plan.n_entries <= 3 * 10 ** 5 - 2
    assert rep.plan.marginal_residual <= 1e-12


def test_cap_still_bounds_the_lp_in_2d(monkeypatch):
    """core.PRODUCT_CAP is the one cap of every support product: the MMOT
    LP, the cost tensor, the pair LP, the separation quantities and the
    affine check all read it when called."""
    rng = np.random.default_rng(4)
    measures = [DiscreteMeasure(rng.normal(size=(11, 2)), np.full(11, 1 / 11))
                for _ in range(2)]
    w = np.array([0.5, 0.5])
    maps = [AffineMap(np.eye(2), np.zeros(2)),
            AffineMap(np.diag([1.0, 0.5]), np.zeros(2))]
    monkeypatch.setattr(core, "PRODUCT_CAP", 100)
    calls = [
        lambda: solve_mmot(measures, w, 2.0),
        lambda: verify_c2m_equivalence(measures, w, 2.0),
        lambda: wp_distance(measures[0], measures[1], 2.0),
        lambda: cost_tensor(measures, w, 2.0),
        lambda: compute_D(measures, w, 2.0),
        lambda: compute_m(measures, w, 2.0),
        lambda: verify_affine_vs_mmot(measures[0], maps, w, 2.0),
    ]
    for call in calls:
        with pytest.raises(ValidationError, match="exceeds cap"):
            call()
    monkeypatch.setattr(core, "PRODUCT_CAP", 121)
    assert solve_mmot(measures, w, 2.0).support_within_basis


def _full_product_lp(cost, marginals):
    """The transport LP over every column of the product, in one HiGHS call
    with _transport_lp's options."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    shape = cost.shape
    idx = np.indices(shape).reshape(len(shape), -1)
    rows = (idx + np.cumsum((0,) + shape[:-1])[:, None]).ravel()
    cols = np.tile(np.arange(cost.size), len(shape))
    A = coo_matrix((np.ones(rows.size), (rows, cols)),
                   shape=(sum(shape), cost.size)).tocsr()
    res = linprog(cost.ravel(), A_eq=A, b_eq=np.concatenate(marginals),
                  bounds=(0, None), method="highs-ds",
                  options={"presolve": False,
                           "primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return res.fun


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.floats(1.7, 4.0),
    d=st.sampled_from([2, 3]),
    sizes=st.lists(st.integers(1, 40), min_size=2, max_size=3),
    family=st.sampled_from(["generic", "tied", "skewed"]),
)
def test_column_generation_matches_the_full_product_lp(seed, p, d, sizes,
                                                       family):
    """_transport_lp prices its duals on the whole product, so it reaches
    the optimum of the LP over all columns: the same value, duals feasible
    on every column, and the marginals met.  Tied families put distinct
    integer-grid atoms under equal masses and weights, so costs tie;
    skewed ones draw masses as cubes of uniforms."""
    rng = np.random.default_rng(seed)
    grid = np.indices((5,) * d).reshape(d, -1).T - 2.0
    measures = []
    for K in sizes:
        if family == "tied":
            K = min(K, len(grid))
            atoms, m = grid[rng.choice(len(grid), K, replace=False)], np.ones(K)
        else:
            atoms = rng.normal(size=(K, d))
            m = rng.uniform(0.2, 1.0, K) ** (3 if family == "skewed" else 1)
        measures.append(DiscreteMeasure(atoms, m / m.sum()))
    N = len(sizes)
    w = np.full(N, 1.0 / N) if family == "tied" else rng.uniform(0.2, 1.0, N)
    try:
        cost = cost_tensor(measures, w / w.sum(), p).values
    except ConvergenceError:
        # pbary_points' documented float-floor raise for p < 2, as in
        # test_monotone_route_matches_the_lp_1d.
        reject()
    marginals = [mu.masses for mu in measures]
    plan, duals, C, (residual, rounds, columns, iterations) = _transport_lp(
        cost, marginals, cost.take)
    assert C == pytest.approx(_full_product_lp(cost, marginals), rel=0,
                              abs=1e-9 * (1.0 + abs(C)))
    slack = (sum(np.ix_(*duals)) - cost).max()
    assert slack <= 1e-10 * (1.0 + np.abs(cost).max()), slack
    assert residual <= 1e-10
    for axis, m in enumerate(marginals):
        other = tuple(a for a in range(N) if a != axis)
        assert np.abs(plan.sum(axis=other) - m).max() <= 1e-10
    assert rounds >= 1 and columns <= cost.size
    assert len(iterations) == rounds


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.floats(1.1, 4.0, exclude_min=True),
    N=st.integers(2, 4),
    d=st.integers(1, 3),
    log_scale=st.floats(-6.0, 6.0),
    log_gap=st.floats(-9.0, -3.0),
    copies=st.lists(st.sampled_from(["exact", "near", "free"]),
                    min_size=3, max_size=3),
)
def test_cost_bound_is_below_the_computed_cost(seed, p, N, d, log_scale,
                                               log_gap, copies):
    """The scaled two-point bound lies at or below the cost _tuple_costs
    computes on every tuple of the product, and for N = 2, where the bound
    is the cost itself, the two agree within 1e-11 on every tuple.
    Marginals after the first are exact copies of its atoms (coincident
    tuples), copies moved by 1e-9 to 1e-3 of their size (near-coincident
    ones), or free; coordinates span 1e-6 to 1e6."""
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(4, d))
    atoms = [base] + [
        base + (copy != "exact") * 10.0 ** log_gap * rng.normal(size=(4, d))
        if copy != "free" else rng.normal(size=(4, d))
        for copy in copies[:N - 1]
    ]
    measures = [DiscreteMeasure(10.0 ** log_scale * a, np.full(4, 0.25))
                for a in atoms]
    w = rng.uniform(0.05, 1.0, N)
    w = w / w.sum()
    lower, upper = mmot._cost_bounds(measures, w, p)
    pts = core.support_product([mu.atoms for mu in measures])
    try:
        cost = _tuple_costs(pts, w, p)[1]
    except ConvergenceError:
        # pbary_points' documented float-floor raise for p < 2, as in
        # test_monotone_route_matches_the_lp_1d.
        reject()
    lower = lower.ravel()
    assert (lower <= cost).all(), (lower - cost).max()
    assert cost.max() <= upper
    if N == 2:
        np.testing.assert_allclose(lower, cost, rtol=1e-11, atol=0)


def test_two_point_cost_is_exact_near_p_one():
    """For N = 2 the cost is kappa |x_1 - x_2|^p to rounding, also where
    the minimizer lies within a few ulps of the heavier point and the cost
    at the float barycenter comes out up to 1e-9 relative high: p near 1,
    unequal weights, points 6e-8 apart at magnitude 1.  The reference is
    the closed form in 50-digit decimal arithmetic."""
    import decimal

    p, w = 1.109375, np.array([0.882, 0.118])
    rng = np.random.default_rng(1)
    heads = np.array([1.0, 0.0]) + 0.3 * rng.normal(size=(20, 2))
    steps = rng.normal(size=(20, 2))
    steps /= np.linalg.norm(steps, axis=1, keepdims=True)
    pts = np.stack([heads, heads + 6e-8 * steps], axis=1)
    cost = _tuple_costs(pts, w, p)[1]
    D = decimal.Decimal
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        e = 1 / (D(p) - 1)
        kappa = D(w[0]) * D(w[1]) / (D(w[0]) ** e + D(w[1]) ** e) ** (D(p) - 1)
        for (a, b), c in zip(pts, cost):
            dist = sum((D(s) - D(t)) ** 2 for s, t in zip(a, b)).sqrt()
            ref = kappa * dist ** D(p)
            assert abs((D(c) - ref) / ref) <= D("1e-14")


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.sampled_from([1.7, 2.0, 3.0]),
    d=st.sampled_from([2, 3]),
    sizes=st.lists(st.integers(1, 12), min_size=2, max_size=3),
    tied=st.booleans(),
)
def test_lazy_route_matches_the_full_product_oracle(seed, p, d, sizes, tied):
    """solve_mmot prices with the two-point bound and solves tuples only
    where the bound cannot price a column out.  Against cost_tensor and
    _transport_lp on the exact product: the same optimum, duals feasible on
    every column, the same barycenters, the degeneracy flag set whenever
    the full-product rule sets it for the same plan and duals.  Tied
    families put integer-grid atoms under equal masses and weights, so costs
    tie."""
    rng = np.random.default_rng(seed)
    grid = np.indices((5,) * d).reshape(d, -1).T - 2.0
    measures = []
    for K in sizes:
        if tied:
            atoms, m = grid[rng.choice(len(grid), K, replace=False)], np.ones(K)
        else:
            atoms, m = rng.normal(size=(K, d)), rng.uniform(0.2, 1.0, K)
        measures.append(DiscreteMeasure(atoms, m / m.sum()))
    N = len(sizes)
    w = np.full(N, 1.0 / N) if tied else rng.uniform(0.2, 1.0, N)
    w = w / w.sum()
    try:
        plan = solve_mmot(measures, w, p)
        ct = cost_tensor(measures, w, p)
    except ConvergenceError:
        # pbary_points' documented float-floor raise for p < 2, as in
        # test_monotone_route_matches_the_lp_1d.
        reject()
    cost = ct.values
    C = _transport_lp(cost, [mu.masses for mu in measures], cost.take)[2]
    assert abs(plan.objective - C) <= 1e-12 * (1.0 + C)
    excess = sum(np.ix_(*plan.duals)) - cost
    assert excess.max() <= 1e-9
    support = tuple(plan.indices.T)
    np.testing.assert_array_equal(plan.barycenters, ct.barycenters[support])
    off = np.ones(cost.shape, bool)
    off[support] = False
    assert plan.maybe_degenerate or not (
        off & (np.abs(excess) <= 1e-9 * (1.0 + cost.max()))).any()


def test_lazy_route_solves_a_minority_of_the_product():
    """On a transport-sized family (N = 3, K = 22, d = 2, p = 1.7) the LP
    route runs the point solver on fewer than half of the 10 648 tuples,
    and forms neither the cost tensor nor the support tuples."""
    rng = np.random.default_rng(31)
    measures = []
    for _ in range(3):
        m = rng.uniform(0.2, 1.0, 22)
        measures.append(DiscreteMeasure(rng.normal(size=(22, 2)), m / m.sum()))
    w = rng.uniform(0.2, 1.0, 3)
    with mock.patch.object(mmot, "pbary_points",
                           wraps=mmot.pbary_points) as solver, \
            mock.patch.object(mmot, "cost_tensor",
                              wraps=mmot.cost_tensor) as tensor, \
            mock.patch.object(mmot, "support_product",
                              wraps=mmot.support_product) as product:
        plan = solve_mmot(measures, w / w.sum(), 1.7)
    solved = sum(call.args[0].shape[0] for call in solver.call_args_list)
    assert 0 < solved < 22 ** 3 / 2
    assert tensor.call_count == 0 and product.call_count == 0
    assert plan.support_within_basis and plan.marginal_residual <= 1e-10


def test_transport_lp_names_the_highs_status_when_infeasible():
    """Marginals whose totals differ admit no coupling: _transport_lp raises
    ConvergenceError with HiGHS's model status in the message."""
    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(rng.normal(size=(5, 2)), np.full(5, 0.2))
    nu = DiscreteMeasure(rng.normal(size=(4, 2)), np.full(4, 0.25))
    cost = _pair_cost(mu, nu, 2.0)
    with pytest.raises(ConvergenceError, match="Infeasible"):
        _transport_lp(cost, (mu.masses, 1.5 * nu.masses), cost.take)


def test_warm_rounds_are_deterministic():
    """On a transport-sized family (N = 3, K = 22, d = 2, p = 1.7) whose
    column generation takes several rounds on one HiGHS model, two solves
    give bit-identical plans, duals and objectives, and one iteration count
    per round."""
    rng = np.random.default_rng(5)
    measures = []
    for _ in range(3):
        m = rng.uniform(0.2, 1.0, 22)
        measures.append(DiscreteMeasure(rng.normal(size=(22, 2)), m / m.sum()))
    w = rng.uniform(0.2, 1.0, 3)
    first, second = (solve_mmot(measures, w / w.sum(), 1.7) for _ in range(2))
    assert first.lp_rounds >= 2
    assert len(first.lp_iterations) == first.lp_rounds
    for a, b in [(first.indices, second.indices),
                 (first.masses, second.masses),
                 *zip(first.duals, second.duals)]:
        assert a.tobytes() == b.tobytes()
    assert first.objective == second.objective
    assert first.lp_iterations == second.lp_iterations


def _enclosing_function(node, parents):
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node.name
    return None


def test_transport_lp_is_the_only_lp():
    """Across src/wbary there is one HiGHS model construction, _Highs(,
    inside _transport_lp; linprog is never named, so no second LP path runs
    beside it; no import statement names scipy.optimize; and the HiGHS
    extension's module name appears only inside _transport_lp, which loads
    the extension from its file: every line holding _highspy, and every
    string that is a module name under scipy.optimize, lies inside it."""
    models, linprogs, imports, names = [], [], [], []
    for path in sorted(Path(mmot.__file__).parent.glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        parents = {child: node for node in ast.walk(tree)
                   for child in ast.iter_child_nodes(node)}
        spans = [(node.lineno, node.end_lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "_transport_lp"]
        names += [(path.name, any(a <= n <= b for a, b in spans))
                  for n, line in enumerate(text.splitlines(), 1)
                  if "_highspy" in line]
        for node in ast.walk(tree):
            where = (path.name, _enclosing_function(node, parents))
            if isinstance(node, ast.Call) and "_Highs" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                models.append(where)
            if "linprog" in (getattr(node, "id", None),
                             getattr(node, "attr", None),
                             getattr(node, "name", None)):
                linprogs.append(where)
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if (node.value == "scipy.optimize"
                        or node.value.startswith("scipy.optimize.")):
                    names.append((path.name, where[1] == "_transport_lp"))
                continue
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
                   for n in modules):
                imports.append(where)
    assert models == [("mmot.py", "_transport_lp")]
    assert linprogs == []
    assert imports == []
    assert names and set(names) == {("mmot.py", True)}


def _is_product_cap_value(node):
    """Whether node is the literal 10 ** 6 (or a constant equal to it)."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        parts = (node.left, node.right)
        return (all(isinstance(x, ast.Constant) for x in parts)
                and node.left.value ** node.right.value == 10 ** 6)
    return isinstance(node, ast.Constant) and node.value == 10 ** 6


def test_product_cap_is_one_constant():
    """No function in src/wbary takes a cap or max_iter argument, and the
    product cap's value is written once, as core.PRODUCT_CAP."""
    params, values, cap_names = [], [], []
    for path in sorted(Path(mmot.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                params += [
                    (path.name, getattr(node, "name", "<lambda>"), arg.arg)
                    for arg in a.posonlyargs + a.args + a.kwonlyargs
                    if arg.arg in ("cap", "max_iter")
                ]
            if _is_product_cap_value(node):
                values.append(path.name)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                cap_names += [(path.name, t.id) for t in targets
                              if isinstance(t, ast.Name) and "CAP" in t.id]
    assert params == []
    assert values == ["core.py"]
    assert cap_names == [("core.py", "PRODUCT_CAP")]
