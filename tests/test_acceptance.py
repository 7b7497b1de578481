"""End-to-end verification battery, one test per check, full problem sizes.

Each test runs a single check from ``wbary.acceptance`` at full size, so
``pytest -v`` prints one pass/fail line per check with the check's own
details in the failure message.  Eleven tests assert a passing verdict;
one more checks the finite-difference battery's batched solve against
one solve per probe, and another that the timed checks keep their wall
seconds out of ``details``.

``test_stated_band_p_lt2`` asserts the documented counterexample instead:
for p < 2 the stated r^(2-p) lower envelope on the eigenvalue gap is
violated near the fixed point, with the worst margins listed in the README,
while the local band through |Gbar|^beta holds on the same samples.  The
check itself is unchanged, so the battery and ``wbary selftest`` still
report ``stated-band-p-lt2`` as FAIL; a weakened check fails this test.
"""

import re
from unittest import mock

import numpy as np
import pytest

from wbary import acceptance
from wbary.core import WeightedPointConfig, _diameters, dbary_dxi, pbary_points


def _check(fn):
    res = fn(fast=False)
    assert res.ok, f"{res.name}: {res.details}"


def test_blowup_threshold_p_gt2():
    _check(acceptance.blowup_threshold_p_gt2)


def test_blowup_threshold_p_lt2():
    _check(acceptance.blowup_threshold_p_lt2)


def test_quadratic_pushforward_exactness():
    _check(acceptance.quadratic_pushforward_exactness)


def test_mmot_equivalence_battery():
    _check(acceptance.mmot_equivalence_battery)


@pytest.mark.parametrize("check", [acceptance.blowup_threshold_p_gt2,
                                   acceptance.mmot_equivalence_battery])
def test_timed_checks_keep_seconds_out_of_details(check):
    """The 60 s gate's timer goes to metrics["seconds"] only: details stay
    the same from run to run, and wbary selftest prints the seconds."""
    res = check(fast=True)
    assert "seconds" in res.metrics
    assert not re.search(r"\d+\.\d+s\s*$", res.details), res.details


def test_gradient_finite_difference_battery():
    _check(acceptance.gradient_finite_difference_battery)


def _per_probe_worst_bary(n, solve):
    """The battery's dbary_dxi probes, one solve call per perturbed tuple:
    the reference for its batched solve."""
    rng = np.random.default_rng(11)
    worst, n_done, h = 0.0, 0, 1e-5
    while n_done < n:
        p = float(rng.choice([1.5, 2.0, 2.5, 3.0]))
        pts = rng.normal(size=(min(n - n_done, 100), 3, 2))
        w = rng.uniform(0.2, 1.0, 3)
        w = w / w.sum()
        z = solve(pts, w, p, tol=1e-13)
        r = np.linalg.norm(pts - z[:, None, :], axis=2)
        diam = _diameters(pts)
        for k in np.flatnonzero((r.min(axis=1) > 1e-3 * diam) & (diam > 0)):
            if n_done >= n:
                break
            i, axis = int(rng.integers(0, 3)), int(rng.integers(0, 2))
            M = dbary_dxi(WeightedPointConfig(pts[k], w, p), i, z=z[k])
            step = h * diam[k]
            plus, minus = pts[k].copy(), pts[k].copy()
            plus[i, axis] += step
            minus[i, axis] -= step
            fd = (solve(plus, w, p, tol=1e-13)
                  - solve(minus, w, p, tol=1e-13)) / (2 * step)
            worst = max(worst, float(np.linalg.norm(fd - M[:, axis])
                                     / max(np.linalg.norm(M), 1e-12)))
            n_done += 1
    return worst


def test_finite_difference_probes_match_one_solve_per_tuple():
    """Solving a batch's perturbed tuples in one call solves the same
    tuples, to the same bits, and gives the same worst error as one call
    per tuple."""
    solved = {"batched": [], "per tuple": []}

    def spy(key):
        def solve(pts, w, p, tol):
            z = pbary_points(pts, w, p, tol=tol)
            rows = zip(np.reshape(pts, (-1, 3, 2)), np.reshape(z, (-1, 2)))
            solved[key] += [(a.tobytes(), b.tobytes()) for a, b in rows]
            return z
        return solve

    with mock.patch.object(acceptance, "pbary_points", spy("batched")):
        res = acceptance.gradient_finite_difference_battery(fast=True)
    worst = _per_probe_worst_bary(200, spy("per tuple"))
    assert sorted(solved["batched"]) == sorted(solved["per tuple"])
    assert res.metrics["worst_bary"] == worst


def test_unit_lower_bound_p_ge2():
    _check(acceptance.unit_lower_bound_p_ge2)


# Worst stated-band margins per exponent, from the README's table.
STATED_BAND_MARGINS = {1.2: -146.4, 1.5: -0.134, 1.8: -0.00249}


def test_stated_band_p_lt2():
    res = acceptance.stated_band_p_lt2(fast=False)
    assert res.name == "stated-band-p-lt2", res.details
    assert res.ok is False, f"stated envelope no longer violated: {res.details}"
    for p, documented in STATED_BAND_MARGINS.items():
        margin = res.metrics[f"margin_p{p}"]
        assert margin < -1e-9, f"p={p}: {res.details}"
        assert margin == pytest.approx(documented, rel=5e-3), (
            f"p={p}: {res.details}"
        )
    assert res.metrics["local_band_holds"] == 1.0, res.details


def test_distant_support_bound_sweep():
    _check(acceptance.distant_support_bound_sweep)


def test_general_lq_domination():
    _check(acceptance.general_lq_domination)


def test_affine_suite():
    _check(acceptance.affine_suite)


def test_monotonicity_suite():
    _check(acceptance.monotonicity_suite)


def test_injectivity_battery():
    _check(acceptance.injectivity_battery)
