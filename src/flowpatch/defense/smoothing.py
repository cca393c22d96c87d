"""LGS removal: I * (1 - clip(b * Gbar * M, 0, 1)) (Naseer et al., "Local
Gradients Smoothing", WACV 2019), one stage with an exact backward."""

from __future__ import annotations

import numpy as np

from ..diff.stage import Arrays, Stage


class LgsSmoothStage(Stage):
    """(Gbar, M, image) -> image darkened by clip(b * Gbar * M, 0, 1), the
    factor broadcast across channels.

    Exact backward wherever the clip has a derivative: the Gbar and M
    cotangents are zero where the factor saturated (boundary values count
    as inside), and the image cotangent is scaled by 1 - clip.
    """

    name = "lgs-smooth"

    def __init__(self, strength: float):
        self.strength = float(strength)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        gbar, mask, image = inputs
        factor = self.strength * gbar * mask
        clipped = np.clip(factor, 0.0, 1.0)
        ctx["inside"] = (factor >= 0.0) & (factor <= 1.0)
        ctx["gbar"], ctx["mask"], ctx["clipped"], ctx["image"] = gbar, mask, clipped, image
        return ((1.0 - clipped[:, :, None]) * image,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        d_factor = -(ctx["image"] * u).sum(axis=2) * ctx["inside"]
        d_image = (1.0 - ctx["clipped"][:, :, None]) * u
        return (
            self.strength * ctx["mask"] * d_factor,
            self.strength * ctx["gbar"] * d_factor,
            d_image,
        )
