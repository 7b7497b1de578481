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

    def axis_centers(self, axis: int) -> np.ndarray:
        lo, hi = self.box[axis]
        n = self.resolution[axis]
        h = (hi - lo) / n
        return lo + h * (np.arange(n) + 0.5)

    def centers(self) -> np.ndarray:
        """All cell centers as an (n_cells, d) array in C order."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=-1)

    def mass(self) -> float:
        return float(self.values.sum() * self.cell_volume)

    def normalized(self) -> "GridDensity":
        m = self.mass()
        if m <= 0.0:
            raise ValidationError("cannot normalize a density with zero mass")
        return GridDensity(self.box, self.values / m)

    def evaluate(self, points) -> np.ndarray:
        """Piecewise-constant lookup at (..., d) points; zero outside the box."""
        pts, lead = _points(points, self.dim, "points")
        h = self.cell_widths
        idx = np.floor((pts - self.box[:, 0][None, :]) / h[None, :]).astype(int)
        res = np.array(self.resolution)
        inside = np.all((idx >= 0) & (idx < res[None, :]), axis=1)
        out = np.zeros(pts.shape[0])
        if inside.any():
            sel = tuple(idx[inside].T)
            out[inside] = self.values[sel]
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

    def write_csv(self, path) -> None:
        """One row per cell: center coordinates then the value.

        Fields are %.17g and lines end in CRLF, the bytes csv.writer writes
        for these rows, formatted in one pass.
        """
        rows = np.column_stack([self.centers(), self.values.ravel()])
        header = ",".join([f"x{a}" for a in range(self.dim)] + ["value"])
        line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        with open(path, "w", newline="") as fh:
            fh.write(header + "\r\n"
                     + (line * rows.shape[0]) % tuple(rows.ravel().tolist()))


def uniform_ball(center, radius, resolution=64) -> GridDensity:
    """Uniform probability density on a Euclidean ball, sampled at cell centers.

    Cells whose center lies in the (closed) ball get a constant value; the
    result is renormalized so its grid mass is exactly one.
    """
    center = _array(center, "center", 1)
    d = center.shape[0]
    radius = float(radius)
    if radius <= 0:
        raise ValidationError("radius must be positive")
    pad = 1.1 * radius
    box = np.stack([center - pad, center + pad], axis=1)
    dens = _from_indicator(
        box, resolution, d,
        lambda pts: _length(pts - center[None, :]) <= radius,
    )
    return dens.normalized()


def uniform_box(support_box, resolution=64) -> GridDensity:
    """Uniform probability density on a sub-box, renormalized on the grid."""
    sb = _array(support_box, "support_box", 2)
    d = sb.shape[0]
    mid = sb.mean(axis=1)
    half = 0.55 * (sb[:, 1] - sb[:, 0])
    box = np.stack([mid - half, mid + half], axis=1)
    dens = _from_indicator(
        box, resolution, d,
        lambda pts: np.all((pts >= sb[:, 0]) & (pts <= sb[:, 1]), axis=1),
    )
    return dens.normalized()


def radial_bump(center, radius, resolution=64) -> GridDensity:
    """C^1 bump (1 - (r/R)^2)^2 on a ball, renormalized on the grid."""
    center = _array(center, "center", 1)
    d = center.shape[0]
    radius = float(radius)
    pad = 1.1 * radius
    box = np.stack([center - pad, center + pad], axis=1)
    res = _res_tuple(resolution, d)
    dens = GridDensity(box, np.zeros(res))
    pts = dens.centers()
    r = _length(pts - center[None, :]) / radius
    v = np.where(r <= 1.0, (1.0 - r ** 2) ** 2, 0.0)
    return GridDensity(box, v.reshape(res)).normalized()


def _res_tuple(resolution, d) -> tuple:
    res = ((int(resolution),) * d if np.isscalar(resolution)
           else tuple(int(r) for r in resolution))
    if len(res) != d or min(res) < 1:
        raise ValidationError(f"resolution {res}: need {d} cell counts >= 1")
    return res


def _from_indicator(box, resolution, d, indicator) -> GridDensity:
    res = _res_tuple(resolution, d)
    shell = GridDensity(box, np.zeros(res))
    mask = indicator(shell.centers())
    if not mask.any():
        raise ValidationError("support does not meet any cell center")
    return GridDensity(box, mask.astype(float).reshape(res))
