"""Dense raster containers: images, flow fields and masks.

All containers wrap a read-only float64 (or uint8 for masks) numpy array and
validate their invariants at construction time.  Values are row-major,
channel-interleaved.  Image values live in [0,1]; 8-bit quantization happens
only at file boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Rec.601 luma weights, the single grayscale convention used everywhere.
LUMA_WEIGHTS = (0.299, 0.587, 0.114)


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Image:
    """H x W x 3 raster, finite real values (semantic range [0,1])."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _frozen(self.data, np.float64)
        if a.ndim != 3 or a.shape[2] != 3:
            raise ValueError(f"image must be HxWx3, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("image contains non-finite values")
        object.__setattr__(self, "data", a)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class FlowField:
    """H x W x 2 motion field, (u,v) in pixels/frame."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = _frozen(self.data, np.float64)
        if a.ndim != 3 or a.shape[2] != 2:
            raise ValueError(f"flow must be HxWx2, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("flow contains non-finite values")
        object.__setattr__(self, "data", a)

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def u(self) -> np.ndarray:
        return self.data[:, :, 0]

    @property
    def v(self) -> np.ndarray:
        return self.data[:, :, 1]


@dataclass(frozen=True)
class PixelMask:
    """H x W strictly binary map."""

    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.data)
        if a.ndim != 2:
            raise ValueError(f"mask must be HxW, got {a.shape}")
        if not np.all((a == 0) | (a == 1)):
            raise ValueError("mask values must be exactly 0 or 1")
        object.__setattr__(self, "data", _frozen(a, np.uint8))
