"""Scalar fast-marching Telea oracle for `telea_inpaint_array`.

The per-pixel loop written literally: bounds-checked neighbour reads, one
window pixel at a time, and `acc`/`wsum` accumulated in row-major window
order.  The vectorised fill in `flowpatch.defense.inpaint` must reproduce
this function's output bit for bit.
"""

import heapq

import numpy as np

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


def telea_oracle(image: np.ndarray, mask: np.ndarray, radius: int) -> np.ndarray:
    """Inpaint the pixels where `mask > 0` of an (H, W, C) image."""
    h, w = mask.shape
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
