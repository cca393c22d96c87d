"""Five-point derivative stencils, their exact adjoints, and the derivative
magnitude that the defense maps and the patch penalties share.

Every stencil reads slices of the input padded by one pixel on both spatial
axes, and the pad alone sets the boundary rule: `"replicate"` repeats the
edge pixel, `"extrapolate"` continues the edge linearly (2*edge - inner), so
a ramp has a constant derivative and zero curvature up to the border.  Each
adjoint scatters its cotangent into a zero pad with the forward's taps
(in the same order) and folds the pad back with `pad_adjoint`.  Axes after
the first two (channels) pass through unchanged.  The adjoints are verified
against explicit Jacobians in the test suite.
"""

from __future__ import annotations

import numpy as np

def pad(x: np.ndarray, mode: str) -> np.ndarray:
    """Float64 copy of `x` padded by one pixel on both spatial axes.  The
    corners of the pad are 0: no five-point stencil reads them."""
    h, w = x.shape[:2]
    p = np.empty((h + 2, w + 2) + x.shape[2:])
    p[1:-1, 1:-1] = x
    if mode == "replicate":
        p[0, 1:-1] = x[0]
        p[-1, 1:-1] = x[-1]
        p[1:-1, 0] = x[:, 0]
        p[1:-1, -1] = x[:, -1]
    elif mode == "extrapolate":
        p[0, 1:-1] = 2.0 * x[0] - x[1]
        p[-1, 1:-1] = 2.0 * x[-1] - x[-2]
        p[1:-1, 0] = 2.0 * x[:, 0] - x[:, 1]
        p[1:-1, -1] = 2.0 * x[:, -1] - x[:, -2]
    else:
        raise ValueError(f"unknown boundary mode {mode!r}")
    p[0, 0] = p[0, -1] = p[-1, 0] = p[-1, -1] = 0.0
    return p


def pad_adjoint(gp: np.ndarray, mode: str) -> np.ndarray:
    """Transpose of `pad`: fold the pad's cotangent back onto the pixels it
    was read from."""
    g = gp[1:-1, 1:-1].copy()
    if mode == "replicate":
        g[0] += gp[0, 1:-1]
        g[-1] += gp[-1, 1:-1]
        g[:, 0] += gp[1:-1, 0]
        g[:, -1] += gp[1:-1, -1]
    elif mode == "extrapolate":
        g[0] += 2.0 * gp[0, 1:-1]
        g[1] -= gp[0, 1:-1]
        g[-1] += 2.0 * gp[-1, 1:-1]
        g[-2] -= gp[-1, 1:-1]
        g[:, 0] += 2.0 * gp[1:-1, 0]
        g[:, 1] -= gp[1:-1, 0]
        g[:, -1] += 2.0 * gp[1:-1, -1]
        g[:, -2] -= gp[1:-1, -1]
    else:
        raise ValueError(f"unknown boundary mode {mode!r}")
    return g


def _zero_pad(g: np.ndarray) -> np.ndarray:
    return np.zeros((g.shape[0] + 2, g.shape[1] + 2) + g.shape[2:])


def diff_x(x: np.ndarray, mode: str) -> np.ndarray:
    """Central difference along columns: (x[i,j+1] - x[i,j-1]) / 2."""
    p = pad(x, mode)
    return 0.5 * (p[1:-1, 2:] - p[1:-1, :-2])


def diff_x_adjoint(g: np.ndarray, mode: str) -> np.ndarray:
    gp = _zero_pad(g)
    half = 0.5 * g
    gp[1:-1, 2:] += half
    gp[1:-1, :-2] -= half
    return pad_adjoint(gp, mode)


def diff_y(x: np.ndarray, mode: str) -> np.ndarray:
    """Central difference along rows: (x[i+1,j] - x[i-1,j]) / 2."""
    p = pad(x, mode)
    return 0.5 * (p[2:, 1:-1] - p[:-2, 1:-1])


def diff_y_adjoint(g: np.ndarray, mode: str) -> np.ndarray:
    gp = _zero_pad(g)
    half = 0.5 * g
    gp[2:, 1:-1] += half
    gp[:-2, 1:-1] -= half
    return pad_adjoint(gp, mode)


def _neighbor_sum(p: np.ndarray) -> np.ndarray:
    return p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2]


def _neighbor_sum_adjoint(g: np.ndarray, mode: str) -> np.ndarray:
    gp = _zero_pad(g)
    gp[2:, 1:-1] += g
    gp[:-2, 1:-1] += g
    gp[1:-1, 2:] += g
    gp[1:-1, :-2] += g
    return pad_adjoint(gp, mode)


def laplacian(x: np.ndarray, mode: str) -> np.ndarray:
    """5-point stencil: the four neighbours minus 4 times the centre."""
    return _neighbor_sum(pad(x, mode)) - 4.0 * x


def laplacian_adjoint(g: np.ndarray, mode: str) -> np.ndarray:
    return _neighbor_sum_adjoint(g, mode) - 4.0 * g


def check_order(order: str) -> str:
    """`order` if it is a derivative order this module knows, else ValueError."""
    if order not in ("first", "second"):
        raise ValueError(f"unknown derivative order {order!r}")
    return order


def derivative_magnitude(x: np.ndarray, order: str, mode: str):
    """Per-pixel, per-channel derivative magnitude: sqrt(Ix^2 + Iy^2) for
    order "first", |Laplacian| for order "second".

    Returns (magnitude, saved), where `saved` is what
    `derivative_magnitude_adjoint` needs.
    """
    if check_order(order) == "first":
        gx = diff_x(x, mode)
        gy = diff_y(x, mode)
        mag = np.sqrt(gx * gx + gy * gy)
        return mag, (gx, gy, mag)
    lap = laplacian(x, mode)
    return np.abs(lap), (lap,)


def derivative_magnitude_adjoint(g: np.ndarray, order: str, mode: str, saved) -> np.ndarray:
    """Transpose of the Jacobian of `derivative_magnitude` applied to `g`;
    the subgradient at zero magnitude is taken as 0."""
    if check_order(order) == "first":
        gx, gy, mag = saved
        safe = np.where(mag > 0, mag, 1.0)
        scale = np.where(mag > 0, g / safe, 0.0)
        return diff_x_adjoint(scale * gx, mode) + diff_y_adjoint(scale * gy, mode)
    (lap,) = saved
    return laplacian_adjoint(g * np.sign(lap), mode)
