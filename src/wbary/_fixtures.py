"""Fixed inputs shared by the verification battery and the command line.

Each function imports the layers it builds on when it is called, so a
``wbary run`` kind that uses one fixture loads only that fixture's layers.
"""

from __future__ import annotations

import numpy as np


def _disk(resolution):
    """Uniform density on the unit-area disk around (0.2, 0.1)."""
    from .grid import uniform_ball

    return uniform_ball(np.array([0.2, 0.1]), 1.0 / np.sqrt(np.pi),
                        resolution=resolution)


def _line_config(p):
    """Anchors 1 and 2 on the line, weights (1/3, 1/3, 1/3)."""
    from .semidiscrete import DiracConfiguration

    return DiracConfiguration(np.array([[1.0], [2.0]]), [1 / 3] * 3, p)


def _planar_config(p):
    """Anchors (0.8, 0.1) and (-0.7, -0.25), weights (0.4, 0.3, 0.3)."""
    from .semidiscrete import DiracConfiguration

    return DiracConfiguration(
        np.array([[0.8, 0.1], [-0.7, -0.25]]), [0.4, 0.3, 0.3], p
    )


def _blowup_fixture(p, resolution):
    """(cfg, f1, center, radii) of the blow-up checks and ``run --kind
    semidiscrete``.  For p > 2: the planar anchors, the disk at `resolution`,
    zbar and radii 1e-6..1e-4.  Otherwise: anchors 0.1 and -0.3, uniform
    [-0.5, 0.5] on max(resolution, 256) cells, the anchor 0.1 and radii
    1e-8..1e-6.  Ten geometric radii in both cases."""
    from .grid import uniform_box
    from .semidiscrete import DiracConfiguration

    if p > 2.0:
        cfg = _planar_config(p)
        return (cfg, _disk(resolution), cfg.fixed_point,
                np.geomspace(1e-6, 1e-4, 10))
    cfg = DiracConfiguration(np.array([[0.1], [-0.3]]), [0.4, 0.3, 0.3], p)
    f1 = uniform_box(np.array([[-0.5, 0.5]]), resolution=max(resolution, 256))
    return cfg, f1, cfg.anchors[0], np.geomspace(1e-8, 1e-6, 10)


def _distant_support_sweep(resolution, q):
    """Rows (lam1, ||g_3||_q, bound, D) for lam1 in {0.1, ..., 0.9}: f1 uniform
    on [-0.5, 0.5], anchors 6 and 7.5 at (1-lam1)/2.  D and M are the
    smallest distance to zbar and the largest anchor distance of b at 65
    atoms of f1's support.  They bound every point of the image: b is
    monotone, the anchors lie on one side of the support, so both distances
    are monotone along the image, and the support's end points are among the
    atoms."""
    from .bounds import integrability_bound
    from .core import _length
    from .grid import uniform_box
    from .semidiscrete import DiracConfiguration, b_forward, lq_via_changevar

    p = 3.0
    anchors = np.array([[6.0], [7.5]])
    f1 = uniform_box(np.array([[-0.5, 0.5]]), resolution=resolution)
    supp = np.linspace(-0.5, 0.5, 65)[:, None]
    rows = []
    for lam1 in np.arange(0.1, 0.91, 0.1):
        cfg = DiracConfiguration(
            anchors, np.array([lam1, (1 - lam1) / 2, (1 - lam1) / 2]), p)
        norm = lq_via_changevar(cfg, f1, q)
        z = b_forward(cfg, supp)
        D = float(_length(z - cfg.fixed_point).min())
        M = float(_length(z[:, None, :] - anchors).max())
        bound = integrability_bound(f1.lq_norm(q), q, p, lam1, 1, D=D, M=M)
        rows.append((lam1, norm, bound, D))
    return rows


def _spectrum_fixture():
    """20 matrices: 10 with spectrum {1, zeta >= 0} and symmetric, 10 not."""
    c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
    U = np.array([[c, -s], [s, c]])
    c2, s2 = np.cos(np.pi / 3), np.sin(np.pi / 3)
    U2 = np.array([[c2, -s2], [s2, c2]])
    optimal = [
        np.eye(2),
        np.diag([1.0, 0.7]),
        np.diag([1.0, 0.0]),
        0.5 * np.eye(2),
        2.0 * np.eye(2),
        np.diag([1.0, 4.0]),
        U @ np.diag([1.0, 3.0]) @ U.T,
        U2 @ np.diag([1.0, 0.2]) @ U2.T,
        np.diag([1.0, 1.0, 2.5]),
        np.diag([1.0, 1.0, 1.0, 0.3]),
    ]
    not_optimal = [
        np.diag([1.3, 0.7]),
        np.diag([1.0, -0.5]),
        np.array([[1.0, 0.2], [0.0, 1.0]]),
        np.array([[c, -s], [s, c]]),
        np.diag([1.0, 0.5, 2.0]),
        np.diag([0.6, 0.3]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[2.0, 0.3], [0.3, 0.5]]),
        -np.eye(2),
        np.array([[1.0, 0.0], [0.3, 0.7]]),
    ]
    return optimal, not_optimal
