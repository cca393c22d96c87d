"""Differentiable dense flow estimation with an unrolled Horn-Schunck solver.

The solver runs a fixed number of Jacobi iterations
    u <- ubar - Ix (Ix ubar + Iy vbar + It) / (alpha^2 + Ix^2 + Iy^2)
(and symmetrically for v), where ubar/vbar are 4-neighbor averages with
replicate boundary and the flow is initialized at zero.  Every iteration is
one exact-gradient stage, so the full reverse pass reaches both input frames.

Luminance is scaled to [0, 255] before differentiation; the smoothness weight
is calibrated against 8-bit-scale image gradients and the flow units
(pixels/frame) are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..core.raster import FlowField, Image, LUMA_WEIGHTS
from ..diff import stencils
from ..diff.stage import Arrays, Stage, StageTape, TapeValue

LUMA_SCALE = 255.0


@dataclass(frozen=True)
class HornSchunckConfig:
    alpha: float = 15.0
    iterations: int = 200

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


class LuminanceStage(Stage):
    """HxWxC image -> scaled HxW luminance (linear, exact backward)."""

    name = "luminance"

    def __init__(self, scale: float = LUMA_SCALE):
        self.scale = float(scale)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (image,) = inputs
        ctx["channels"] = image.shape[2] if image.ndim == 3 else 1
        if image.ndim == 2:
            return (self.scale * image,)
        if image.shape[2] == 1:
            return (self.scale * image[:, :, 0],)
        w = np.asarray(LUMA_WEIGHTS)
        return (self.scale * (image @ w),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        if ctx["channels"] == 1:
            return (self.scale * u[:, :, None],)
        w = np.asarray(LUMA_WEIGHTS)
        return (self.scale * u[:, :, None] * w,)


class FrameDerivativesStage(Stage):
    """(g1, g2) -> (Ix, Iy, It): central differences averaged over both frames
    and the temporal difference g2 - g1.  Linear, exact backward."""

    name = "frame-derivatives"
    n_outputs = 3

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        g1, g2 = inputs
        ix = 0.5 * (stencils.diff_x(g1) + stencils.diff_x(g2))
        iy = 0.5 * (stencils.diff_y(g1) + stencils.diff_y(g2))
        it = g2 - g1
        return (ix, iy, it)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        ux, uy, ut = cotangents
        spatial = 0.5 * (stencils.diff_x_adjoint(ux) + stencils.diff_y_adjoint(uy))
        return (spatial - ut, spatial + ut)


class JacobiIterationStage(Stage):
    """One Horn-Schunck update; exact backward to (u, v, Ix, Iy, It)."""

    name = "jacobi-iteration"
    n_outputs = 2

    def __init__(self, alpha: float):
        self.alpha2 = float(alpha) ** 2

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        u, v, ix, iy, it = inputs
        ubar = stencils.neighbor_average(u)
        vbar = stencils.neighbor_average(v)
        den = self.alpha2 + ix * ix + iy * iy
        q = (ix * ubar + iy * vbar + it) / den
        ctx.update(ix=ix, iy=iy, ubar=ubar, vbar=vbar, den=den, q=q)
        return (ubar - ix * q, vbar - iy * q)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        gu, gv = cotangents
        ix, iy = ctx["ix"], ctx["iy"]
        ubar, vbar, den, q = ctx["ubar"], ctx["vbar"], ctx["den"], ctx["q"]

        g_ubar = gu.copy()
        g_vbar = gv.copy()
        g_ix = -q * gu
        g_iy = -q * gv
        g_q = -(ix * gu + iy * gv)

        g_num = g_q / den
        g_den = -q * g_q / den
        g_ix += ubar * g_num + 2.0 * ix * g_den
        g_iy += vbar * g_num + 2.0 * iy * g_den
        g_it = g_num
        g_ubar += ix * g_num
        g_vbar += iy * g_num

        g_u = stencils.neighbor_average_adjoint(g_ubar)
        g_v = stencils.neighbor_average_adjoint(g_vbar)
        return (g_u, g_v, g_ix, g_iy, g_it)


class PackFlowStage(Stage):
    """(u, v) -> HxWx2 field."""

    name = "pack-flow"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        u, v = inputs
        return (np.stack([u, v], axis=-1),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (g,) = cotangents
        return (g[:, :, 0], g[:, :, 1])


class FlowEstimator(Protocol):
    """Deterministic differentiable flow estimator usable inside attacks."""

    def estimate(self, frame1: Image, frame2: Image) -> FlowField: ...

    def forward_on_tape(
        self, tape: StageTape, frame1: TapeValue, frame2: TapeValue
    ) -> TapeValue: ...


class HornSchunck:
    def __init__(self, config: HornSchunckConfig | None = None):
        self.config = config or HornSchunckConfig()

    def forward_on_tape(
        self, tape: StageTape, frame1: TapeValue, frame2: TapeValue
    ) -> TapeValue:
        if frame1.array.shape != frame2.array.shape:
            raise ValueError("frame shapes differ")
        g1 = tape.apply(LuminanceStage(), frame1)
        g2 = tape.apply(LuminanceStage(), frame2)
        ix, iy, it = tape.apply(FrameDerivativesStage(), g1, g2)
        shape = g1.array.shape
        u = tape.source(np.zeros(shape))
        v = tape.source(np.zeros(shape))
        iterate = JacobiIterationStage(self.config.alpha)
        for _ in range(self.config.iterations):
            u, v = tape.apply(iterate, u, v, ix, iy, it)
        return tape.apply(PackFlowStage(), u, v)

    def estimate(self, frame1: Image, frame2: Image) -> FlowField:
        tape = StageTape()
        flow = self.forward_on_tape(
            tape, tape.source(frame1.data), tape.source(frame2.data)
        )
        return FlowField(flow.array)
