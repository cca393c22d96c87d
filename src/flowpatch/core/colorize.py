"""Color-wheel rendering of flow fields (Middlebury convention, white at zero)."""

from __future__ import annotations

import numpy as np

from .raster import FlowField, Image

# Segment lengths of the standard wheel: RY, YG, GC, CB, BM, MR.
_SEGMENTS = (15, 6, 4, 11, 13, 6)


def _make_colorwheel() -> np.ndarray:
    ry, yg, gc, cb, bm, mr = _SEGMENTS
    ncols = sum(_SEGMENTS)
    wheel = np.zeros((ncols, 3))
    col = 0
    wheel[col : col + ry, 0] = 1.0
    wheel[col : col + ry, 1] = np.arange(ry) / ry
    col += ry
    wheel[col : col + yg, 0] = 1.0 - np.arange(yg) / yg
    wheel[col : col + yg, 1] = 1.0
    col += yg
    wheel[col : col + gc, 1] = 1.0
    wheel[col : col + gc, 2] = np.arange(gc) / gc
    col += gc
    wheel[col : col + cb, 1] = 1.0 - np.arange(cb) / cb
    wheel[col : col + cb, 2] = 1.0
    col += cb
    wheel[col : col + bm, 2] = 1.0
    wheel[col : col + bm, 0] = np.arange(bm) / bm
    col += bm
    wheel[col : col + mr, 2] = 1.0 - np.arange(mr) / mr
    wheel[col : col + mr, 0] = 1.0
    return wheel


_WHEEL = _make_colorwheel()


def flow_to_color(flow: FlowField) -> Image:
    """Encode direction as hue and magnitude over the field's largest
    magnitude as saturation; zero flow renders white (a zero field is
    treated as largest magnitude 1)."""
    u, v = flow.u, flow.v
    rad = np.sqrt(u * u + v * v)
    largest = float(rad.max())
    sat = rad / (largest if largest > 0 else 1.0)

    ncols = _WHEEL.shape[0]
    angle = np.arctan2(-v, -u) / np.pi  # in [-1, 1]
    fk = (angle + 1.0) / 2.0 * (ncols - 1)
    k0 = np.floor(fk).astype(int)
    k1 = (k0 + 1) % ncols
    frac = fk - k0

    out = np.empty(u.shape + (3,))
    for i in range(3):
        col0 = _WHEEL[k0, i]
        col1 = _WHEEL[k1, i]
        col = (1.0 - frac) * col0 + frac * col1
        out[:, :, i] = 1.0 - sat * (1.0 - col)
    return Image(np.clip(out, 0.0, 1.0))
