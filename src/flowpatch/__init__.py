"""Adversarial patch attacks and detect-and-remove defenses for optical flow.

Subpackages: core (raster types and file I/O), diff (stage-granular reverse
pass), defense (LGS/ILP with BPDA surrogates), flow (differentiable
Horn-Schunck reference estimator), attack (patch model, losses, training),
metrics (quality/robustness), harness (datasets and experiment grids).
"""

from .core import FlowField, Image, PixelMask

__all__ = ["FlowField", "Image", "PixelMask"]
__version__ = "0.1.0"
