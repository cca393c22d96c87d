"""Small reusable stages: clipping, tanh change-of-variables, blending."""

from __future__ import annotations

import numpy as np

from .stage import Stage, Arrays


class ClipStage(Stage):
    """y = clip(x, lo, hi).

    Backward passes the cotangent where the pre-clip value lies in [lo, hi]
    and zeroes it where the clip saturated (the exact derivative wherever one
    exists; boundary values count as inside).
    """

    name = "clip"

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        self.lo, self.hi = float(lo), float(hi)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (x,) = inputs
        ctx["inside"] = (x >= self.lo) & (x <= self.hi)
        return (np.clip(x, self.lo, self.hi),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        return (cotangents[0] * ctx["inside"],)


class CovMaterializeStage(Stage):
    """Change of variables: p = (tanh(w) + 1) / 2, keeping p in (0, 1)."""

    name = "cov-materialize"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        t = np.tanh(inputs[0])
        ctx["t"] = t
        return ((t + 1.0) / 2.0,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        return (cotangents[0] * (1.0 - ctx["t"] ** 2) / 2.0,)


class AddWeightedStage(Stage):
    """y = a + weight * b (scalars or same-shape arrays)."""

    name = "add-weighted"

    def __init__(self, weight: float):
        self.weight = float(weight)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        a, b = inputs
        return (a + self.weight * b,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (g,) = cotangents
        return (g, self.weight * g)
