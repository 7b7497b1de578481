"""Piecewise-constant densities on axis-aligned boxes.

A GridDensity stores one value per cell of a regular grid over a box
[lo_1, hi_1] x ... x [lo_d, hi_d].  Values are interpreted as the density on
the whole cell; integrals are plain cell sums times the cell volume.  This is
deliberately the simplest quadrature that makes pushforward bookkeeping
transparent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _array, _check_q, _length, _points
from .errors import ValidationError


@dataclass(frozen=True)
class GridDensity:
    """Cell-centered density values on a regular grid.

    box : (d, 2) array of [lo, hi] per axis, lo < hi
    values : d-dimensional array, shape = cells per axis, C order
    Both are stored as read-only copies of the inputs.
    """

    box: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        box = _array(self.box, "box", 2)
        if box.shape[1] != 2:
            raise ValidationError(f"box must be (d, 2), got {box.shape}")
        if np.any(box[:, 1] <= box[:, 0]):
            raise ValidationError("box must satisfy lo < hi on every axis")
        vals = _array(self.values, "values", None)
        if vals.ndim != box.shape[0]:
            raise ValidationError(
                f"values ndim {vals.ndim} does not match box dimension {box.shape[0]}"
            )
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self) -> int:
        return self.box.shape[0]

    @property
    def resolution(self) -> tuple:
        return self.values.shape

    @property
    def cell_widths(self) -> np.ndarray:
        return (self.box[:, 1] - self.box[:, 0]) / np.array(self.resolution)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.cell_widths))

    def centers(self) -> np.ndarray:
        """All cell centers as an (n_cells, d) array in C order."""
        axes = [lo + h * (np.arange(n) + 0.5) for lo, n, h in
                zip(self.box[:, 0], self.resolution, self.cell_widths)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def normalized(self) -> "GridDensity":
        m = self.mass()
        if m <= 0.0:
            raise ValidationError("cannot normalize a density with zero mass")
        return GridDensity(self.box, self.values / m)

    def _cells(self, pts):
        """(idx, inside) for (n, d) points: inside marks the points in the
        box, decided on the float cell coordinate before any integer cast,
        and idx holds their cells' (k, d) indices.  A coordinate beyond
        float range is infinite, and so outside."""
        with np.errstate(over="ignore"):
            t = (pts - self.box[:, 0]) / self.cell_widths
        inside = np.all((t >= 0.0) & (t < self.resolution), axis=1)
        return np.floor(t[inside]).astype(int), inside

    def evaluate(self, points) -> np.ndarray:
        """Piecewise-constant lookup at (..., d) points; zero outside the box."""
        pts, lead = _points(points, self.dim, "points")
        idx, inside = self._cells(pts)
        out = np.zeros(pts.shape[0])
        out[inside] = self.values[tuple(idx.T)]
        return out.reshape(lead)

    def lq_norm(self, q: float) -> float:
        """(integral of |density|^q)^(1/q) under the cell quadrature; q
        finite and above 1, as core._check_q requires."""
        q = _check_q(q)
        return float(
            (np.abs(self.values) ** q).sum() * self.cell_volume
        ) ** (1.0 / q)

    def support_box(self) -> np.ndarray:
        """Bounding box of the cells with strictly positive value."""
        mask = self.values > 0.0
        if not mask.any():
            raise ValidationError("density has empty support")
        h = self.cell_widths
        nz = np.argwhere(mask)
        lo = self.box[:, 0] + nz.min(axis=0) * h
        hi = self.box[:, 0] + (nz.max(axis=0) + 1) * h
        return np.stack([lo, hi], axis=1)


def _ball(center, radius):
    """(center, radius, box) of a ball: center one point, radius positive,
    and the grid box the cube of half-side 1.1 radius around it."""
    center = _array(center, "center", 1)
    radius = float(radius)
    if not radius > 0.0:
        raise ValidationError("radius must be positive")
    pad = 1.1 * radius
    return center, radius, np.stack([center - pad, center + pad], axis=1)


def _on_grid(box, resolution, profile) -> GridDensity:
    """The density proportional to profile(cell centers) on a grid over box
    (resolution cells per axis), renormalized so its grid mass is one."""
    res = _res_tuple(resolution, box.shape[0])
    values = profile(GridDensity(box, np.zeros(res)).centers())
    return GridDensity(box, values.reshape(res)).normalized()


def uniform_ball(center, radius, resolution=64) -> GridDensity:
    """Uniform probability density on a Euclidean ball, sampled at cell centers.

    Cells whose center lies in the (closed) ball get a constant value; the
    result is renormalized so its grid mass is exactly one.
    """
    center, radius, box = _ball(center, radius)
    return _on_grid(box, resolution,
                    lambda x: _length(x - center) <= radius)


def uniform_box(support_box, resolution=64) -> GridDensity:
    """Uniform probability density on a sub-box, renormalized on the grid."""
    sb = _array(support_box, "support_box", 2)
    mid = sb.mean(axis=1)
    half = 0.55 * (sb[:, 1] - sb[:, 0])
    box = np.stack([mid - half, mid + half], axis=1)
    return _on_grid(box, resolution, lambda x: np.all(
        (x >= sb[:, 0]) & (x <= sb[:, 1]), axis=1))


def radial_bump(center, radius, resolution=64) -> GridDensity:
    """C^1 bump (1 - (r/R)^2)^2 on a ball, renormalized on the grid."""
    center, radius, box = _ball(center, radius)

    def bump(x):
        r = _length(x - center) / radius
        return np.where(r <= 1.0, (1.0 - r ** 2) ** 2, 0.0)

    return _on_grid(box, resolution, bump)


def _res_tuple(resolution, d) -> tuple:
    res = ((int(resolution),) * d if np.isscalar(resolution)
           else tuple(int(r) for r in resolution))
    if len(res) != d or min(res) < 1:
        raise ValidationError(f"resolution {res}: need {d} cell counts >= 1")
    return res
