"""Fast-marching inpainting after Telea.

Masked pixels are filled in increasing distance-from-boundary order (heap
ties broken by row-major pixel order).  Each filled pixel becomes a
normalized weighted average of already-known pixels within `radius`, with
weights = directional factor (alignment of the offset with the marching
front's gradient) x geometric factor (1/d^2) x level-set factor
(1/(1 + |dT|)).  Weights are positive and normalized, so filled values are
convex combinations of known values; unmasked pixels are never written.

The flag and arrival-time arrays are padded by `radius` with a flag that is
never KNOWN, so neighbour reads need no bounds checks, and a pixel's window
is a per-radius disk table of flat offsets.  The fill order, each pixel's
front gradient and every arrival time depend on the flags and arrival times
only, never on pixel values, so the work runs in three passes:

1. March: the scalar heap loop pops the pixels, updates arrival times and
   records the pop order and each pixel's front gradient at its pop.
2. Weights: for a block of popped pixels at once, a (pixels x disk) array of
   weights by the scalar loop's expressions in its order of operations.  A
   window entry is read if it was known at the start or popped earlier (a
   pop-rank comparison); only read entries are kept, and their weight sum is
   a sequential `np.add.accumulate` along the window with 0 at every other
   entry.  The weights are positive and finite and `s + 0 == s` exactly for
   finite `s != 0`, so the zeros leave the sum of the read weights unchanged.
3. Fill: in pop order, each pixel gathers its read entries' values, which
   are final by then, multiplies by the weights, sums them sequentially in
   window order and divides.  No weight arithmetic runs per pixel, and no
   value of an unread entry (another masked pixel or the pad) is touched.

The output is bit-identical to the scalar per-pixel loop kept in
`tests/telea_oracle.py`.

Inpainting is treated as gradient-free: the stage backward is the identity
for non-inpainted pixels and zero for inpainted ones.
"""

from __future__ import annotations

import heapq
import math
from array import array

import numpy as np

from ..diff.stage import Arrays, BPDA, Stage, support_where

_KNOWN, _BAND, _INSIDE, _PAD = 0, 1, 2, 3
_FAR = 1.0e6
_DIR_FLOOR = 1.0e-6
_BLOCK_ENTRIES = 2048  # (pixels x disk) entries per weight block


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


def _march(flags_a: np.ndarray, T_a: np.ndarray, wp: int) -> tuple[np.ndarray, ...]:
    """Pass 1: the fast march over the padded flag and arrival-time arrays,
    which it leaves final.  Returns the flat padded index of each pixel in
    pop order and its front gradient (gy, gx) at its pop; no pixel value is
    read."""
    # The loop reads and writes single pixels through memoryviews, which
    # yield Python scalars; `p` is a flat index into the padded grid.
    flags, T = memoryview(flags_a), memoryview(T_a)
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

    order, gys, gxs = array("q"), array("d"), array("d")
    while heap:
        _, p = heapq.heappop(heap)
        if flags[p] != _BAND:
            continue
        order.append(p)
        gys.append(_front_gradient(T, flags, p, wp))
        gxs.append(_front_gradient(T, flags, p, 1))
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
    return np.frombuffer(order, dtype=np.int64), np.frombuffer(gys), np.frombuffer(gxs)


def _weights(p, gy, gx, rank, T_a, window, disk):
    """Pass 2 for the pixels `p` (flat padded indices, in pop order) with
    front gradients (gy, gx).  Returns the window entries that each pixel
    reads, as flat padded indices, their weights, the row bounds of both
    (one row per pixel, in window order) and each pixel's weight sum."""
    ry, rx, d, inv_d2 = disk
    win = p[:, None] + window
    # An entry is read if it was known at the start or popped before `p`.
    read = rank.take(win) < rank.take(p)[:, None]
    reads = win[read]
    # The scalar loop's weight expressions, in its order of operations.
    weight = np.multiply.outer(gy, ry)
    t = np.multiply.outer(gx, rx)
    weight += t
    np.abs(weight, out=weight)
    weight /= d
    np.maximum(weight, _DIR_FLOOR, out=weight)
    weight *= inv_d2
    level = T_a.take(win, out=t)
    del win
    level -= T_a.take(p)[:, None]
    np.abs(level, out=level)
    level += 1.0
    np.divide(1.0, level, out=level)
    weight *= level
    del t, level
    kept = weight[read]
    bounds = np.zeros(len(p) + 1, dtype=np.intp)
    np.cumsum(np.count_nonzero(read, axis=1), out=bounds[1:])
    # Unread entries weigh +0, which leaves each sequential sum unchanged.
    weight[~read] = 0.0
    wsum = np.add.accumulate(weight, axis=1, out=weight)[:, -1]
    return reads, kept, bounds, wsum


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
    # Pop rank of each padded pixel: -1 if known at the start; the pad's is
    # above every pop.
    rank = np.where(flags_a == _KNOWN, np.int32(-1), np.int32(hp * wp))

    order, gy, gx = _march(flags_a, T_a, wp)
    rank[order] = np.arange(len(order))
    dk, dl, *disk = _disk(radius)
    window = dk * wp + dl
    out = image.copy()
    flat_out = out.reshape(h * w, channels)
    # Blocks of pixels in pop order bound the (pixels x disk) work arrays.
    step = max(1, _BLOCK_ENTRIES // len(window))
    for start in range(0, len(order), step):
        block = slice(start, start + step)
        reads, weight, bounds, wsum = _weights(
            order[block], gy[block], gx[block], rank, T_a, window, disk
        )
        reads, weight = to_image.take(reads), weight[:, None]
        targets = to_image.take(order[block]).tolist()
        bounds = bounds.tolist()
        # Pass 3.  accumulate adds strictly in window order, as the scalar
        # loop does; np.sum and matmul add pairwise or blocked and round
        # differently.  The + 0.0 matches the scalar sum's +0.0 start when
        # every term is -0.0.
        for target, total, a, b in zip(targets, wsum.tolist(), bounds, bounds[1:]):
            terms = flat_out.take(reads[a:b], axis=0)
            terms *= weight[a:b]
            flat_out[target] = (np.add.accumulate(terms, out=terms)[-1] + 0.0) / total
    return out


class TeleaInpaintStage(Stage):
    """(image, mask, *images) -> each image inpainted where the mask is
    nonzero.  Images after the first share its mask and are inpainted in the
    same pass, with their channels beside the first's: the march, the arrival
    times and the weights depend on the mask only, and each channel fills on
    its own, so each output is bit for bit its single-image pass.  BPDA
    backward: each image's cotangent is zeroed at inpainted pixels, and the
    mask's is zero.  Support: each image's pixels where the mask is 0; the
    mask adds none."""

    name = "telea-inpaint"
    gradient_kind = BPDA

    def __init__(self, radius: int):
        self.radius = int(radius)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        image, mask, *others = inputs
        ctx["mask"] = mask
        images = (image, *others)
        stacked = np.concatenate(images, axis=2) if others else image
        filled = telea_inpaint_array(stacked, mask, self.radius)
        bounds = np.cumsum([x.shape[2] for x in images])[:-1]
        return tuple(map(np.ascontiguousarray, np.split(filled, bounds, axis=2)))

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        keep = (ctx["mask"] == 0)[:, :, None]
        images = tuple(np.where(keep, u, 0.0) for u in cotangents)
        return (images[0], np.zeros_like(ctx["mask"], dtype=np.float64), *images[1:])

    def support(self, ctx, needed):
        keep = ctx["mask"] == 0
        supports = tuple(support_where(s, keep) for s in needed[:1] + needed[2:])
        return supports if len(supports) > 1 else supports[0]
