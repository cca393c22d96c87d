"""Multiplicative gradient smoothing: I * (1 - clip(b * Gbar * M)).

Split into two stages so the clip keeps its own BPDA-style backward: the
factor product is exact, the final blend is exact, and the clip in between
zeroes cotangents exactly where it saturated.
"""

from __future__ import annotations

from ..diff.stage import Arrays, Stage


class SmoothingFactorStage(Stage):
    """(Gbar, M) -> b * Gbar * M, elementwise; exact product rule backward."""

    name = "smoothing-factor"

    def __init__(self, strength: float):
        self.strength = float(strength)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        gbar, mask = inputs
        ctx["gbar"], ctx["mask"] = gbar, mask
        return (self.strength * gbar * mask,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        return (self.strength * ctx["mask"] * u, self.strength * ctx["gbar"] * u)


class DarkenStage(Stage):
    """(factor, image) -> (1 - factor) * image, factor broadcast across channels."""

    name = "darken"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        factor, image = inputs
        ctx["factor"], ctx["image"] = factor, image
        return ((1.0 - factor[:, :, None]) * image,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        d_factor = -(ctx["image"] * u).sum(axis=2)
        d_image = (1.0 - ctx["factor"][:, :, None]) * u
        return (d_factor, d_image)

