"""Learnable square patches with a circular validity mask.

Two parameterizations: "clip" stores the color values directly (projected to
[0,1] after each optimizer step) and "cov" stores an unconstrained tensor w
materialized as (tanh(w) + 1) / 2, which never leaves the open unit range.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..core.raster import Image
from ..diff.elementwise import CovMaterializeStage

CLIP = "clip"
COV = "cov"

_ATANH_GUARD = 1e-6


def circular_validity(side: int) -> np.ndarray:
    """Boolean mask of pixels strictly inside the inscribed circle."""
    center = (side - 1) / 2.0
    yy, xx = np.mgrid[0:side, 0:side]
    return (yy - center) ** 2 + (xx - center) ** 2 < (side / 2.0) ** 2


@dataclass(frozen=True)
class Patch:
    side: int
    parameterization: str
    param: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.parameterization not in (CLIP, COV):
            raise ValueError(f"unknown parameterization {self.parameterization!r}")
        a = np.array(self.param, dtype=np.float64, copy=True)
        if a.shape != (self.side, self.side, 3):
            raise ValueError(f"patch parameter must be {self.side}x{self.side}x3")
        if not np.all(np.isfinite(a)):
            raise ValueError("patch parameter must be finite")
        if self.parameterization == CLIP and (a.min() < 0 or a.max() > 1):
            raise ValueError("clip-parameterized values must lie in [0, 1]")
        a.flags.writeable = False
        object.__setattr__(self, "param", a)

    @property
    def validity(self) -> np.ndarray:
        return circular_validity(self.side)

    def materialize(self) -> np.ndarray:
        """Color values in [0, 1] regardless of parameterization."""
        if self.parameterization == CLIP:
            return np.array(self.param)
        return CovMaterializeStage()(self.param)

    def with_param(self, param: np.ndarray) -> "Patch":
        return replace(self, param=param)

    def to_image(self) -> Image:
        return Image(self.materialize())


def random_patch(side: int, parameterization: str, rng: np.random.Generator) -> Patch:
    """Uniform random colors in [0, 1]; cov stores the tanh preimage."""
    values = rng.uniform(0.0, 1.0, (side, side, 3))
    if parameterization == COV:
        clipped = np.clip(values, _ATANH_GUARD, 1.0 - _ATANH_GUARD)
        return Patch(side, COV, np.arctanh(2.0 * clipped - 1.0))
    return Patch(side, CLIP, values)


def manual_patch(side: int, cell: int = 1) -> Patch:
    """Checkerboard of black/white cells (clip-parameterized, unoptimized)."""
    if side < 2:
        raise ValueError("side must be >= 2")
    if not 1 <= cell <= side // 2:
        raise ValueError("cell must satisfy 1 <= cell <= side/2")
    rr, cc = np.mgrid[0:side, 0:side]
    board = ((rr // cell + cc // cell) % 2).astype(np.float64)
    return Patch(side, CLIP, np.repeat(board[:, :, None], 3, axis=2))


@dataclass(frozen=True)
class PatchPose:
    """Placement of a patch in frame coordinates."""

    center: tuple[float, float]  # (row, col)
    rotation: float = 0.0  # degrees
    scale: float = 1.0

    def radius(self, side: int) -> float:
        return self.scale * side / 2.0
