"""The normalized derivative-magnitude map both defenses score on.

Both defenses score anomalies on a scalar map: the derivative magnitude
(`stencils.derivative_magnitude`) of the luminance, first order (central
differences) for LGS and second order (the 5-point Laplacian) for ILP, with
the replicate pad as boundary, min-max normalized per image.  One stage
computes the magnitude and its normalization.
"""

from __future__ import annotations

import numpy as np

from ..diff.stage import Arrays, Stage
from ..diff import stencils
from ..flow.horn_schunck import LuminanceStage


class GradientMagnitudeStage(Stage):
    """HxWx3 image -> HxW normalized map Gbar = (G - min G) / (max G - min G).

    G is sqrt(Ix^2 + Iy^2) for order="first" and |Laplacian| for
    order="second", both of the unscaled luminance (`LuminanceStage(1.0)`,
    run on this stage's `ctx`, whose `needed` is its own); a constant G
    normalizes to all zeros.  Exact backward almost everywhere:
    it assumes the min/max locations are unique (random inputs satisfy
    that), takes the subgradient at zero magnitude as 0, and gives the
    constant case zero gradient.
    """

    def __init__(self, order: str):
        self.order = stencils.check_order(order)
        self.name = f"gradient-magnitude-{order}"
        self.luminance = LuminanceStage(1.0)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (gray,) = self.luminance.forward(ctx, inputs)
        g, ctx["saved"] = stencils.derivative_magnitude(gray, self.order, "replicate")
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
            ug = np.zeros_like(u)
        else:
            r = ctx["range"]
            total = float(u.sum())
            weighted = float((u * ctx["out"]).sum())
            ug = u / r
            ug[ctx["argmin"]] += (weighted - total) / r
            ug[ctx["argmax"]] -= weighted / r
        ugray = stencils.derivative_magnitude_adjoint(ug, self.order, "replicate", ctx["saved"])
        return self.luminance.backward(ctx, (ugray,))
