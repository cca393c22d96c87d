"""Fast-marching inpainting after Telea.

Masked pixels are filled in increasing distance-from-boundary order (heap
ties broken by row-major pixel order).  Each filled pixel becomes a
normalized weighted average of already-known pixels within `radius`, with
weights = directional factor (alignment of the offset with the marching
front's gradient) x geometric factor (1/d^2) x level-set factor
(1/(1 + |dT|)).  Weights are positive and normalized, so filled values are
convex combinations of known values; unmasked pixels are never written.

Inpainting is treated as gradient-free: the stage backward is the identity
for non-inpainted pixels and zero for inpainted ones.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..diff.stage import Arrays, BPDA, Stage

_KNOWN, _BAND, _INSIDE = 0, 1, 2
_FAR = 1.0e6
_DIR_FLOOR = 1.0e-6


def _eikonal(T, flags, r1, c1, r2, c2, h, w):
    """Closed-form distance update from the (axis, diagonal) neighbor pair."""
    if not (0 <= r1 < h and 0 <= c1 < w and 0 <= r2 < h and 0 <= c2 < w):
        return _FAR
    k1, k2 = flags[r1, c1] == _KNOWN, flags[r2, c2] == _KNOWN
    t1, t2 = T[r1, c1], T[r2, c2]
    if k1 and k2:
        d = 2.0 - (t1 - t2) ** 2
        if d > 0.0:
            root = np.sqrt(d)
            s = (t1 + t2 - root) / 2.0
            if s >= t1 and s >= t2:
                return s
            s += root
            if s >= t1 and s >= t2:
                return s
        return _FAR
    if k1:
        return 1.0 + t1
    if k2:
        return 1.0 + t2
    return _FAR


def _solve(T, flags, r, c, h, w):
    return min(
        _eikonal(T, flags, r - 1, c, r, c - 1, h, w),
        _eikonal(T, flags, r + 1, c, r, c - 1, h, w),
        _eikonal(T, flags, r - 1, c, r, c + 1, h, w),
        _eikonal(T, flags, r + 1, c, r, c + 1, h, w),
    )


def _front_gradient(T, flags, r, c, h, w):
    """Central/one-sided gradient of the arrival time over non-INSIDE pixels."""
    grad = [0.0, 0.0]
    for axis, (dr, dc) in enumerate(((1, 0), (0, 1))):
        pr, pc = r - dr, c - dc
        nr, nc = r + dr, c + dc
        p_ok = 0 <= pr < h and 0 <= pc < w and flags[pr, pc] != _INSIDE
        n_ok = 0 <= nr < h and 0 <= nc < w and flags[nr, nc] != _INSIDE
        if p_ok and n_ok:
            grad[axis] = (T[nr, nc] - T[pr, pc]) / 2.0
        elif n_ok:
            grad[axis] = T[nr, nc] - T[r, c]
        elif p_ok:
            grad[axis] = T[r, c] - T[pr, pc]
    return grad


def _fill_pixel(out, T, flags, r, c, radius, h, w):
    gy, gx = _front_gradient(T, flags, r, c, h, w)
    acc = np.zeros(out.shape[2])
    wsum = 0.0
    for k in range(max(0, r - radius), min(h, r + radius + 1)):
        for l in range(max(0, c - radius), min(w, c + radius + 1)):
            if flags[k, l] != _KNOWN:
                continue
            ry, rx = float(r - k), float(c - l)
            d2 = ry * ry + rx * rx
            if d2 == 0.0 or d2 > radius * radius:
                continue
            d = np.sqrt(d2)
            direction = abs(ry * gy + rx * gx) / d
            if direction < _DIR_FLOOR:
                direction = _DIR_FLOOR
            weight = direction * (1.0 / d2) * (1.0 / (1.0 + abs(T[k, l] - T[r, c])))
            acc += weight * out[k, l]
            wsum += weight
    out[r, c] = acc / wsum


def telea_inpaint_array(image: np.ndarray, mask: np.ndarray, radius: int) -> np.ndarray:
    if radius < 1:
        raise ValueError("inpainting radius must be >= 1")
    h, w = mask.shape
    if np.all(mask > 0):
        raise ValueError("mask covers the whole image: no boundary to inpaint from")
    out = image.copy()
    if not np.any(mask > 0):
        return out
    flags = np.where(mask > 0, _INSIDE, _KNOWN).astype(np.int8)
    T = np.where(mask > 0, _FAR, 0.0)

    heap: list[tuple[float, int, int]] = []
    inside = np.argwhere(mask > 0)
    for r, c in inside:
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < h and 0 <= nc < w and flags[nr, nc] == _KNOWN:
                t = _solve(T, flags, r, c, h, w)
                T[r, c] = t
                flags[r, c] = _BAND
                heapq.heappush(heap, (t, int(r), int(c)))
                break

    while heap:
        t, r, c = heapq.heappop(heap)
        if flags[r, c] != _BAND:
            continue
        _fill_pixel(out, T, flags, r, c, radius, h, w)
        flags[r, c] = _KNOWN
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if not (0 <= nr < h and 0 <= nc < w):
                continue
            if flags[nr, nc] == _KNOWN:
                continue
            nt = _solve(T, flags, nr, nc, h, w)
            if flags[nr, nc] == _INSIDE or nt < T[nr, nc]:
                T[nr, nc] = nt
                flags[nr, nc] = _BAND
                heapq.heappush(heap, (nt, int(nr), int(nc)))
    return out


class TeleaInpaintStage(Stage):
    """(image, mask) -> inpainted image; BPDA backward zeroes inpainted pixels."""

    name = "telea-inpaint"
    gradient_kind = BPDA

    def __init__(self, radius: int):
        self.radius = int(radius)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        image, mask = inputs
        ctx["mask"] = mask
        return (telea_inpaint_array(image, mask, self.radius),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        keep = (ctx["mask"] == 0).astype(np.float64)[:, :, None]
        return (u * keep, np.zeros_like(ctx["mask"], dtype=np.float64))

