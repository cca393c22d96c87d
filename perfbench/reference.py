"""Independent computations the benchmark checks the program against.

Plain numpy, no stages and no tape: a Horn-Schunck Jacobi solver, readers
for the P6 PPM and Middlebury .flo files the program writes, and the
endpoint error.  Nothing here imports flowpatch.
"""

from __future__ import annotations

import struct

import numpy as np

LUMA = (0.299, 0.587, 0.114)
LUMA_SCALE = 255.0


def _pad(a: np.ndarray) -> np.ndarray:
    return np.pad(a, 1, mode="edge")


def horn_schunck(frame1: np.ndarray, frame2: np.ndarray, alpha: float = 15.0,
                 iterations: int = 200) -> np.ndarray:
    """HxWx3 frames in [0, 1] -> HxWx2 flow.

    Luminance scaled to [0, 255], central differences averaged over both
    frames, replicate boundaries, flow started at zero, then
    u <- ubar - Ix (Ix ubar + Iy vbar + It) / (alpha^2 + Ix^2 + Iy^2).
    """
    g1 = LUMA_SCALE * (frame1[:, :, 0] * LUMA[0] + frame1[:, :, 1] * LUMA[1]
                       + frame1[:, :, 2] * LUMA[2])
    g2 = LUMA_SCALE * (frame2[:, :, 0] * LUMA[0] + frame2[:, :, 1] * LUMA[1]
                       + frame2[:, :, 2] * LUMA[2])
    p1, p2 = _pad(g1), _pad(g2)
    ix = 0.25 * (p1[1:-1, 2:] - p1[1:-1, :-2] + p2[1:-1, 2:] - p2[1:-1, :-2])
    iy = 0.25 * (p1[2:, 1:-1] - p1[:-2, 1:-1] + p2[2:, 1:-1] - p2[:-2, 1:-1])
    it = g2 - g1
    den = alpha * alpha + ix * ix + iy * iy
    u = np.zeros_like(g1)
    v = np.zeros_like(g1)
    for _ in range(iterations):
        pu, pv = _pad(u), _pad(v)
        ubar = 0.25 * (pu[:-2, 1:-1] + pu[2:, 1:-1] + pu[1:-1, :-2] + pu[1:-1, 2:])
        vbar = 0.25 * (pv[:-2, 1:-1] + pv[2:, 1:-1] + pv[1:-1, :-2] + pv[1:-1, 2:])
        q = (ix * ubar + iy * vbar + it) / den
        u = ubar - ix * q
        v = vbar - iy * q
    return np.stack([u, v], axis=-1)


def read_ppm(path) -> np.ndarray:
    """P6 with the header layout the program writes: "P6\\nW H\\n255\\n"."""
    with open(path, "rb") as fh:
        magic, size, maxval, payload = fh.read().split(b"\n", 3)
    if magic != b"P6" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit P6 file")
    width, height = (int(t) for t in size.split())
    shape = (height, width, 3)
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape) / 255.0


def read_flo(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, width, height = struct.unpack("<fii", raw[:12])
    if magic != 202021.25:
        raise ValueError(f"{path}: bad .flo magic")
    data = np.frombuffer(raw[12:], dtype="<f4").reshape(height, width, 2)
    return data.astype(np.float64)


def epe(reference: np.ndarray, flow: np.ndarray) -> float:
    return float(np.sqrt(((reference - flow) ** 2).sum(axis=2)).mean())
