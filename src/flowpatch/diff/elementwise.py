"""Small reusable stages: the tanh change of variables and a weighted sum."""

from __future__ import annotations

import numpy as np

from .stage import Stage, Arrays


class CovMaterializeStage(Stage):
    """Change of variables: p = (tanh(w) + 1) / 2, keeping p in (0, 1).
    Support: elementwise."""

    name = "cov-materialize"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        t = np.tanh(inputs[0])
        ctx["t"] = t
        return ((t + 1.0) / 2.0,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        return (cotangents[0] * (1.0 - ctx["t"] ** 2) / 2.0,)

    def support(self, ctx, needed):
        return needed[0]


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
