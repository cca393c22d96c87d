"""Gradient-magnitude maps and per-image normalization.

Both defenses score anomalies on a scalar map: luminance is differentiated
with central differences (first order) or the 5-point Laplacian (second
order), replicate boundaries, then min-max normalized per image.
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
        if order not in ("first", "second"):
            raise ValueError(f"unknown derivative order {order!r}")
        self.order = order
        self.name = f"gradient-magnitude-{order}"
        self.luminance = LuminanceStage(1.0)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        ctx["luminance"] = {}
        (gray,) = self.luminance.forward(ctx["luminance"], inputs)
        if self.order == "first":
            gx = stencils.diff_x(gray)
            gy = stencils.diff_y(gray)
            g = np.sqrt(gx * gx + gy * gy)
            ctx["gx"], ctx["gy"], ctx["g"] = gx, gy, g
        else:
            lap = stencils.laplacian(gray)
            g = np.abs(lap)
            ctx["lap"] = lap
        return (g,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        if self.order == "first":
            g = ctx["g"]
            safe = np.where(g > 0, g, 1.0)
            scale = np.where(g > 0, u / safe, 0.0)
            ugray = stencils.diff_x_adjoint(scale * ctx["gx"]) + stencils.diff_y_adjoint(
                scale * ctx["gy"]
            )
        else:
            ugray = stencils.laplacian_adjoint(u * np.sign(ctx["lap"]))
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
        grad = grad.copy()
        grad[ctx["argmin"]] += (weighted - total) / r
        grad[ctx["argmax"]] -= weighted / r
        return (grad,)

