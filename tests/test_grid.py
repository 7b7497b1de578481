"""Grid density container and reference densities."""

import csv
import io

import numpy as np
import pytest

from wbary import (
    GridDensity,
    ValidationError,
    radial_bump,
    uniform_ball,
    uniform_box,
)


def test_uniform_ball_mass_and_support():
    f = uniform_ball(np.array([0.2, 0.1]), 0.5, resolution=128)
    assert f.mass() == pytest.approx(1.0, abs=1e-12)
    lo, hi = f.support_box()[:, 0], f.support_box()[:, 1]
    assert (lo >= np.array([0.2, 0.1]) - 0.5 - 2 * f.cell_widths).all()
    assert (hi <= np.array([0.2, 0.1]) + 0.5 + 2 * f.cell_widths).all()


def test_uniform_box_lq_norm_closed_form():
    """Indicator density with plateau v0 has ||f||_q = v0^((q-1)/q) exactly.

    The plateau itself approaches 1/volume as the grid refines (the default
    grid box is padded, so the match is only approximate).
    """
    box = np.array([[-0.5, 1.5], [0.0, 1.0]])
    f = uniform_box(box, resolution=64)
    v0 = float(f.values.max())
    assert v0 == pytest.approx(0.5, rel=0.05)
    for q in (1.5, 2.0, 4.0):
        assert f.lq_norm(q) == pytest.approx(v0 ** ((q - 1) / q), rel=1e-12)


def test_evaluate_inside_and_outside():
    f = uniform_box(np.array([[0.0, 1.0]]), resolution=32)
    inside = f.evaluate(np.array([[0.5]]))
    outside = f.evaluate(np.array([[2.0]]))
    assert inside[0] == pytest.approx(float(f.values.max()), rel=1e-12)
    assert inside[0] == pytest.approx(1.0, rel=0.15)
    assert outside[0] == 0.0


def test_radial_bump_properties():
    f = radial_bump(np.array([0.0, 0.0]), 1.0, resolution=96)
    assert f.mass() == pytest.approx(1.0, abs=1e-9)
    assert (f.values >= 0.0).all()
    center_val = f.evaluate(np.array([[0.0, 0.0]]))[0]
    edge_val = f.evaluate(np.array([[0.95, 0.0]]))[0]
    assert center_val > edge_val


def test_normalized_idempotent():
    f = uniform_ball(np.zeros(2), 1.0, resolution=48)
    g = GridDensity(f.box, 3.0 * f.values)
    gn = g.normalized()
    assert gn.mass() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(gn.values, f.values, rtol=1e-12)


def test_write_csv(tmp_path):
    f = uniform_box(np.array([[0.0, 1.0]]), resolution=8)
    path = tmp_path / "density.csv"
    f.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0].split(",")[-1] == "value"
    assert len(lines) == 1 + 8
    first = [float(v) for v in lines[1].split(",")]
    assert first[-1] == pytest.approx(float(f.values.max()))

    # Same bytes as one csv.writer row per cell, also for values that
    # GridDensity itself rejects (NaN, inf), set here past its validation.
    g = uniform_box(np.array([[0.0, 1.0], [-2.0, 3.0]]), resolution=(3, 4))
    vals = np.array([[0.0, -0.0, np.nan, np.inf],
                     [-np.inf, 1e-300, 1.0 / 3.0, -2.5e17],
                     [5e-324, 1.0, 123456789.125, -1e-5]])
    object.__setattr__(g, "values", vals)
    g.write_csv(path)
    ref = io.StringIO(newline="")
    writer = csv.writer(ref)
    writer.writerow(["x0", "x1", "value"])
    for c, v in zip(g.centers(), vals.ravel()):
        writer.writerow([f"{x:.17g}" for x in c] + [f"{v:.17g}"])
    assert path.read_bytes() == ref.getvalue().encode()


def test_validation():
    with pytest.raises(ValidationError):
        GridDensity(np.array([[1.0, 0.0]]), np.ones(4))  # inverted box
    with pytest.raises(ValidationError):
        GridDensity(np.array([[0.0, 1.0]]), np.ones((4, 4)))  # ndim mismatch
    with pytest.raises(ValidationError):
        uniform_ball(np.zeros(2), -1.0)
