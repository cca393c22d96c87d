"""Gradient-magnitude maps and per-image normalization.

Both defenses score anomalies on a scalar map: the derivative magnitude
(`stencils.derivative_magnitude`) of the luminance, first order (central
differences) for LGS and second order (the 5-point Laplacian) for ILP, with
the replicate pad as boundary, then min-max normalized per image.
"""

from __future__ import annotations

import numpy as np

from ..diff.stage import Arrays, Stage
from ..diff import stencils
from ..flow.horn_schunck import LuminanceStage


class GradientMagnitudeStage(Stage):
    """image -> HxW derivative-magnitude map; exact backward.

    order="first": sqrt(Ix^2 + Iy^2); order="second": |Laplacian|, both of
    the unscaled luminance (`LuminanceStage(1.0)`).  The subgradient at zero
    magnitude is taken as 0.
    """

    def __init__(self, order: str):
        self.order = stencils.check_order(order)
        self.name = f"gradient-magnitude-{order}"
        self.luminance = LuminanceStage(1.0)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        ctx["luminance"] = {}
        (gray,) = self.luminance.forward(ctx["luminance"], inputs)
        g, ctx["saved"] = stencils.derivative_magnitude(gray, self.order, "replicate")
        return (g,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        ugray = stencils.derivative_magnitude_adjoint(u, self.order, "replicate", ctx["saved"])
        return self.luminance.backward(ctx["luminance"], (ugray,))


class NormalizeMapStage(Stage):
    """(G - min) / (max - min); a constant map normalizes to all zeros.

    Exact backward almost everywhere (assumes the min/max locations are
    unique, which random inputs satisfy); the degenerate constant case has
    zero gradient.
    """

    name = "normalize-map"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (g,) = inputs
        lo, hi = float(g.min()), float(g.max())
        ctx["degenerate"] = hi <= lo
        if ctx["degenerate"]:
            return (np.zeros_like(g),)
        out = (g - lo) / (hi - lo)
        ctx["range"] = hi - lo
        ctx["argmin"] = np.unravel_index(int(np.argmin(g)), g.shape)
        ctx["argmax"] = np.unravel_index(int(np.argmax(g)), g.shape)
        ctx["out"] = out
        return (out,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        if ctx["degenerate"]:
            return (np.zeros_like(u),)
        r = ctx["range"]
        total = float(u.sum())
        weighted = float((u * ctx["out"]).sum())
        grad = u / r
        grad[ctx["argmin"]] += (weighted - total) / r
        grad[ctx["argmax"]] -= weighted / r
        return (grad,)

