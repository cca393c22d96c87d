"""Fast-marching inpainting after Telea.

Masked pixels are filled in increasing distance-from-boundary order (heap
ties broken by row-major pixel order).  Each filled pixel becomes a
normalized weighted average of already-known pixels within `radius`, with
weights = directional factor (alignment of the offset with the marching
front's gradient) x geometric factor (1/d^2) x level-set factor
(1/(1 + |dT|)).  Weights are positive and normalized, so filled values are
convex combinations of known values; unmasked pixels are never written.

The flag and arrival-time arrays are padded by `radius` with a flag that is
never KNOWN, and a padded map holds each pixel's index into the image, so a
pixel's window is one gather through a per-radius disk table with no bounds
checks.  The window's weights are computed elementwise with the scalar
expressions, and the weighted sum runs sequentially in row-major window
order, so the output is bit-identical to the scalar per-pixel loop kept in
`tests/telea_oracle.py`.

Inpainting is treated as gradient-free: the stage backward is the identity
for non-inpainted pixels and zero for inpainted ones.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..diff.stage import Arrays, BPDA, Stage

_KNOWN, _BAND, _INSIDE, _PAD = 0, 1, 2, 3
_FAR = 1.0e6
_DIR_FLOOR = 1.0e-6


def _eikonal(T, flags, p1, p2):
    """Closed-form distance update from the (axis, diagonal) neighbor pair."""
    f1, f2 = flags[p1], flags[p2]
    if f1 == _PAD or f2 == _PAD:  # a pair reaching off the image gives no update
        return _FAR
    t1, t2 = T[p1], T[p2]
    if f1 == _KNOWN and f2 == _KNOWN:
        # `** 2` is libm pow, which does not always round like t * t.
        d = 2.0 - (t1 - t2) ** 2
        if d > 0.0:
            root = math.sqrt(d)
            s = (t1 + t2 - root) / 2.0
            if s >= t1 and s >= t2:
                return s
            s += root
            if s >= t1 and s >= t2:
                return s
        return _FAR
    if f1 == _KNOWN:
        return 1.0 + t1
    if f2 == _KNOWN:
        return 1.0 + t2
    return _FAR


def _solve(T, flags, p, wp):
    return min(
        _eikonal(T, flags, p - wp, p - 1),
        _eikonal(T, flags, p + wp, p - 1),
        _eikonal(T, flags, p - wp, p + 1),
        _eikonal(T, flags, p + wp, p + 1),
    )


def _front_gradient(T, flags, p, step):
    """Central/one-sided arrival-time difference along `step` over KNOWN and BAND pixels."""
    p_ok = flags[p - step] < _INSIDE
    n_ok = flags[p + step] < _INSIDE
    if p_ok and n_ok:
        return (T[p + step] - T[p - step]) / 2.0
    if n_ok:
        return T[p + step] - T[p]
    if p_ok:
        return T[p] - T[p - step]
    return 0.0


def _disk(radius: int) -> tuple[np.ndarray, ...]:
    """Per offset (dk, dl) of the radius disk without its centre, in row-major
    window order: (dk, dl, r - k, c - l, d, 1/d^2), as the scalar loop forms them."""
    dk, dl = np.mgrid[-radius : radius + 1, -radius : radius + 1].reshape(2, -1)
    d2 = dk * dk + dl * dl
    keep = (d2 > 0) & (d2 <= radius * radius)
    dk, dl, d2 = dk[keep], dl[keep], d2[keep].astype(np.float64)
    return dk, dl, (-dk).astype(np.float64), (-dl).astype(np.float64), np.sqrt(d2), 1.0 / d2


def telea_inpaint_array(image: np.ndarray, mask: np.ndarray, radius: int) -> np.ndarray:
    """Inpaint the pixels where `mask > 0` of an (H, W, C) image whose (H, W) is the mask's."""
    if radius < 1:
        raise ValueError("inpainting radius must be >= 1")
    if image.ndim != 3 or image.shape[:2] != mask.shape:
        raise ValueError(
            f"image of shape {image.shape} does not match mask of shape {mask.shape}: "
            "expected (H, W, C) with the mask's (H, W)"
        )
    inside = mask > 0
    if np.all(inside):
        raise ValueError("mask covers the whole image: no boundary to inpaint from")
    if not np.any(inside):
        return image.copy()
    h, w = mask.shape
    channels = image.shape[2]
    hp, wp = h + 2 * radius, w + 2 * radius
    interior = (slice(radius, radius + h), slice(radius, radius + w))
    flags_a = np.full((hp, wp), _PAD, dtype=np.int8)
    flags_a[interior] = _KNOWN
    flags_a[interior][inside] = _INSIDE
    T_a = np.zeros((hp, wp))
    T_a[interior][inside] = _FAR
    # Flat image index of each padded pixel; the pad's is out of range.
    to_image = np.full((hp, wp), h * w, dtype=np.intp)
    to_image[interior] = np.arange(h * w).reshape(h, w)
    flags_a, T_a, to_image = flags_a.ravel(), T_a.ravel(), to_image.ravel()
    out = image.copy()
    flat_out = out.reshape(h * w, channels)
    # The marching loop reads and writes single pixels through memoryviews,
    # which yield Python scalars; `p` is a flat index into the padded grid.
    flags, T = memoryview(flags_a), memoryview(T_a)
    dk, dl, ry, rx, d, inv_d2 = _disk(radius)
    window = dk * wp + dl

    inside_p = np.flatnonzero(flags_a == _INSIDE)
    known = flags_a == _KNOWN
    front = known[inside_p - wp] | known[inside_p + wp] | known[inside_p - 1] | known[inside_p + 1]
    heap = []
    for p in inside_p[front].tolist():
        t = _solve(T, flags, p, wp)
        T[p] = t
        flags[p] = _BAND
        heap.append((t, p))
    heapq.heapify(heap)

    while heap:
        _, p = heapq.heappop(heap)
        if flags[p] != _BAND:
            continue
        gy, gx = _front_gradient(T, flags, p, wp), _front_gradient(T, flags, p, 1)
        win = window + p
        # The scalar loop's weight expressions over the whole disk, in its
        # order of operations; only KNOWN window pixels are summed.
        weight = np.abs(ry * gy + rx * gx)
        weight /= d
        np.maximum(weight, _DIR_FLOOR, out=weight)
        weight *= inv_d2
        level = T_a.take(win)
        level -= T[p]
        np.abs(level, out=level)
        level += 1.0
        np.divide(1.0, level, out=level)
        weight *= level
        sel = flags_a.take(win) == _KNOWN
        weight = weight[sel]
        terms = flat_out.take(to_image.take(win[sel]), axis=0) * weight[:, None]
        # accumulate adds strictly in window order, as the scalar loop does;
        # np.sum and matmul add pairwise or blocked and round differently.
        # The + 0.0 matches the scalar sum's +0.0 start when every term is -0.0.
        acc = np.add.accumulate(terms)[-1] + 0.0
        flat_out[to_image[p]] = acc / np.add.accumulate(weight)[-1]
        flags[p] = _KNOWN
        for q in (p - wp, p + wp, p - 1, p + 1):
            f = flags[q]
            if f == _KNOWN or f == _PAD:
                continue
            nt = _solve(T, flags, q, wp)
            if f == _INSIDE or nt < T[q]:
                T[q] = nt
                flags[q] = _BAND
                heapq.heappush(heap, (nt, q))
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

