"""Grid density container and reference densities."""

import ast
from pathlib import Path

import numpy as np
import pytest

import wbary
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


@pytest.mark.parametrize("far", [1e19, 1e300, 1.7e308])
def test_evaluate_far_outside_the_box_is_zero(far):
    """Points whose cell coordinate lies past the integer range, or past
    float range (1.7e308 over a cell width below 1), are outside, decided
    before any cast (Tier-1 turns the cast's or the overflow's
    RuntimeWarning into an error)."""
    for f in (uniform_box(np.array([[0.0, 1.0]]), resolution=8),
              uniform_ball(np.zeros(2), 0.5, resolution=16)):
        pts = np.array([[far], [-far]]) * np.ones(f.dim)
        assert f.evaluate(pts).tolist() == [0.0, 0.0]
    f = uniform_box(np.array([[0.0, 1.0], [0.0, 1.0]]), resolution=8)
    assert f.evaluate([[0.5, far], [-far, 0.5], [0.5, 0.5]]).tolist() == [
        0.0, 0.0, float(f.values.max())]


def test_cells_are_located_by_one_rule():
    """GridDensity._cells is the one place in src/wbary that turns a grid
    coordinate into a cell index (np.floor, or a cast to int)."""
    where = set()
    for path in Path(wbary.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in ast.walk(tree):
            if not isinstance(top, ast.FunctionDef):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and (
                        ast.unparse(node.func) == "np.floor"
                        or ast.unparse(node).endswith(".astype(int)")):
                    where.add((path.name, top.name))
    assert where == {("grid.py", "_cells")}


def test_validation():
    with pytest.raises(ValidationError):
        GridDensity(np.array([[1.0, 0.0]]), np.ones(4))  # inverted box
    with pytest.raises(ValidationError):
        GridDensity(np.array([[0.0, 1.0]]), np.ones((4, 4)))  # ndim mismatch
    for make in (uniform_ball, radial_bump):
        for radius in (0.0, -1.0, np.nan):
            with pytest.raises(ValidationError, match="radius must be positive"):
                make(np.zeros(2), radius)
