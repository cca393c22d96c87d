"""Differentiable dense flow estimation with an unrolled Horn-Schunck solver.

The solver runs a fixed number of Jacobi iterations
    u <- ubar - Ix (Ix ubar + Iy vbar + It) / (alpha^2 + Ix^2 + Iy^2)
(and symmetrically for v), where ubar/vbar are 4-neighbor averages with
replicate boundary and the flow is initialized at zero.  All iterations are
one exact-gradient stage, so the reverse pass reaches both input frames;
`HornSchunck.estimate` runs them without a tape, keeping one iterate.

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
    """HxW, HxWx1 or HxWx3 image -> scaled HxW luminance (Rec.601 weights for
    three channels); linear, exact backward in the input's shape."""

    name = "luminance"

    def __init__(self, scale: float = LUMA_SCALE):
        self.scale = float(scale)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (image,) = inputs
        ctx["shape"] = image.shape
        if image.ndim == 2:
            return (self.scale * image,)
        if image.shape[2] == 1:
            return (self.scale * image[:, :, 0],)
        w = np.asarray(LUMA_WEIGHTS)
        return (self.scale * (image @ w),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        shape = ctx["shape"]
        if len(shape) == 2:
            return (self.scale * u,)
        if shape[2] == 1:
            return (self.scale * u[:, :, None],)
        w = np.asarray(LUMA_WEIGHTS)
        return (self.scale * u[:, :, None] * w,)


class FrameDerivativesStage(Stage):
    """(g1, g2) -> (Ix, Iy, It): central differences averaged over both frames
    and the temporal difference g2 - g1.  Linear, exact backward."""

    name = "frame-derivatives"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        g1, g2 = inputs
        ix = 0.5 * (stencils.diff_x(g1, "replicate") + stencils.diff_x(g2, "replicate"))
        iy = 0.5 * (stencils.diff_y(g1, "replicate") + stencils.diff_y(g2, "replicate"))
        it = g2 - g1
        return (ix, iy, it)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        ux, uy, ut = cotangents
        spatial = 0.5 * (
            stencils.diff_x_adjoint(ux, "replicate") + stencils.diff_y_adjoint(uy, "replicate")
        )
        return (spatial - ut, spatial + ut)


class HornSchunckSolveStage(Stage):
    """(Ix, Iy, It) -> HxWx2 flow after `iterations` updates from zero flow.

    The forward keeps only (ubar_k, vbar_k) per iteration; the exact backward
    runs the adjoint updates in reverse, recomputing q_k from them.  It sums
    the Ix/Iy/It cotangents from the last iteration to the first, as a tape of
    one record per iteration would, so both give bit-identical gradients.
    """

    name = "horn-schunck-solve"

    def __init__(self, alpha: float, iterations: int):
        self.alpha2 = float(alpha) ** 2
        self.iterations = iterations

    def _denominator(self, ix, iy):
        return self.alpha2 + ix * ix + iy * iy

    @staticmethod
    def _residual(ix, iy, it, ubar, vbar, den):
        return (ix * ubar + iy * vbar + it) / den

    def _iterates(self, ix, iy, it):
        """Yield (ubar_k, vbar_k, u_k, v_k) for k = 1..iterations."""
        den = self._denominator(ix, iy)
        u = v = np.zeros(ix.shape)
        for _ in range(self.iterations):
            ubar = stencils.neighbor_average(u)
            vbar = stencils.neighbor_average(v)
            q = self._residual(ix, iy, it, ubar, vbar, den)
            u, v = ubar - ix * q, vbar - iy * q
            yield ubar, vbar, u, v

    def solve(self, ix, iy, it) -> np.ndarray:
        """The forward's flow, holding only the current iterate."""
        for _, _, u, v in self._iterates(ix, iy, it):
            pass
        return np.stack([u, v], axis=-1)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        ix, iy, it = inputs
        averages = []
        for ubar, vbar, u, v in self._iterates(ix, iy, it):
            averages.append((ubar, vbar))
        ctx.update(ix=ix, iy=iy, it=it, averages=averages)
        return (np.stack([u, v], axis=-1),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (g,) = cotangents
        ix, iy, it = ctx["ix"], ctx["iy"], ctx["it"]
        den = self._denominator(ix, iy)
        gu, gv = g[:, :, 0], g[:, :, 1]
        sums = None
        for ubar, vbar in reversed(ctx["averages"]):
            q = self._residual(ix, iy, it, ubar, vbar, den)
            g_q = -(ix * gu + iy * gv)
            g_num = g_q / den
            g_den = -q * g_q / den
            g_ix = -q * gu + (ubar * g_num + 2.0 * ix * g_den)
            g_iy = -q * gv + (vbar * g_num + 2.0 * iy * g_den)
            terms = (g_ix, g_iy, g_num)
            sums = terms if sums is None else tuple(a + b for a, b in zip(sums, terms))
            gu = stencils.neighbor_average_adjoint(gu + ix * g_num)
            gv = stencils.neighbor_average_adjoint(gv + iy * g_num)
        return sums


class FlowEstimator(Protocol):
    """Deterministic differentiable flow estimator usable inside attacks."""

    def estimate(self, frame1: Image, frame2: Image) -> FlowField: ...

    def forward_on_tape(
        self, tape: StageTape, frame1: TapeValue, frame2: TapeValue
    ) -> TapeValue: ...


class HornSchunck:
    def __init__(self, config: HornSchunckConfig | None = None):
        self.config = config or HornSchunckConfig()
        self._solver = HornSchunckSolveStage(self.config.alpha, self.config.iterations)

    def forward_on_tape(
        self, tape: StageTape, frame1: TapeValue, frame2: TapeValue
    ) -> TapeValue:
        if frame1.array.shape != frame2.array.shape:
            raise ValueError("frame shapes differ")
        g1 = tape.apply(LuminanceStage(), frame1)
        g2 = tape.apply(LuminanceStage(), frame2)
        ix, iy, it = tape.apply(FrameDerivativesStage(), g1, g2)
        return tape.apply(self._solver, ix, iy, it)

    def estimate(self, frame1: Image, frame2: Image) -> FlowField:
        """The flow of `forward_on_tape`, computed without a tape."""
        if frame1.data.shape != frame2.data.shape:
            raise ValueError("frame shapes differ")
        g1, g2 = LuminanceStage()(frame1.data), LuminanceStage()(frame2.data)
        return FlowField(self._solver.solve(*FrameDerivativesStage()(g1, g2)))
