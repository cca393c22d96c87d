"""Differentiable dense flow estimation with an unrolled Horn-Schunck solver.

The solver runs a fixed number of Jacobi iterations
    u <- ubar - Ix (Ix ubar + Iy vbar + It) / (alpha^2 + Ix^2 + Iy^2)
(and symmetrically for v), where ubar/vbar are 4-neighbor averages with
replicate boundary and the flow is initialized at zero.  All iterations are
one exact-gradient stage, fused in place on a stacked, padded u/v state, so
the reverse pass reaches both input frames; its adjoint gathers from a
zero-bordered padded cotangent.  `HornSchunck.estimate` runs the same loop
without a tape, keeping one iterate.  `tests/hs_oracle.py` records the
iterations one stage each and must agree with the fused stage bit for bit.

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


def _residual(q, t, ix, iy, it, den, ubar, vbar):
    """q = (Ix ubar + Iy vbar + It) / den in place, with `t` as scratch; the
    forward and the backward's recomputation share this order."""
    np.multiply(ix, ubar, out=q)
    np.multiply(iy, vbar, out=t)
    q += t
    q += it
    q /= den


class HornSchunckSolveStage(Stage):
    """(Ix, Iy, It) -> HxWx2 flow after `iterations` updates from zero flow.

    The updates run in place on one stacked (2, H+2, W+2) u/v state whose
    replicate border is refreshed by four slice copies, so an iteration
    allocates nothing.  On a tape, iteration k writes its stacked
    (ubar_k, vbar_k) into row k of one (iterations, 2, H, W) block
    (16 B/px/iteration), allocated once per forward.  The exact backward
    runs the adjoint updates in reverse, recomputing q_k from those
    averages.  Its neighbour-average adjoint gathers from a zero-bordered
    padded cotangent in the order in which a scatter into a zero pad adds,
    then folds the border back.  It sums the Ix/Iy/It cotangents from the
    last iteration to the first, as a tape of one record per iteration
    would, so both give bit-identical gradients.
    """

    name = "horn-schunck-solve"

    def __init__(self, alpha: float, iterations: int):
        self.alpha2 = float(alpha) ** 2
        self.iterations = iterations

    def _denominator(self, ix, iy):
        return self.alpha2 + ix * ix + iy * iy

    def _run(self, ix, iy, it, averages: np.ndarray | None = None) -> np.ndarray:
        """The flow.  Iteration k's stacked (ubar, vbar) is written to
        `averages[k]` if an (iterations, 2, H, W) array is given, and
        overwritten otherwise."""
        h, w = ix.shape
        den = self._denominator(ix, iy)
        state = np.zeros((2, h + 2, w + 2))
        u, v = state[:, 1:-1, 1:-1]
        bar = np.empty((2, h, w))
        q, t = np.empty((2, h, w))
        for k in range(self.iterations):
            state[:, 0, 1:-1] = state[:, 1, 1:-1]
            state[:, -1, 1:-1] = state[:, -2, 1:-1]
            state[:, 1:-1, 0] = state[:, 1:-1, 1]
            state[:, 1:-1, -1] = state[:, 1:-1, -2]
            if averages is not None:
                bar = averages[k]
            np.add(state[:, 2:, 1:-1], state[:, :-2, 1:-1], out=bar)
            bar += state[:, 1:-1, 2:]
            bar += state[:, 1:-1, :-2]
            bar *= 0.25
            ubar, vbar = bar
            _residual(q, t, ix, iy, it, den, ubar, vbar)
            np.multiply(ix, q, out=t)
            np.subtract(ubar, t, out=u)
            np.multiply(iy, q, out=t)
            np.subtract(vbar, t, out=v)
        return np.stack([u, v], axis=-1)

    def solve(self, ix, iy, it) -> np.ndarray:
        """The forward's flow, holding only the current iterate."""
        return self._run(ix, iy, it)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        ix, iy, it = inputs
        averages = np.empty((self.iterations, 2, *ix.shape))
        flow = self._run(ix, iy, it, averages)
        ctx.update(ix=ix, iy=iy, it=it, averages=averages)
        return (flow,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (g,) = cotangents
        ix, iy, it = ctx["ix"], ctx["iy"], ctx["it"]
        h, w = ix.shape
        den = self._denominator(ix, iy)
        ix2, iy2 = 2.0 * ix, 2.0 * iy
        grad = np.moveaxis(g, -1, 0).copy()
        gu, gv = grad
        padded = np.zeros((2, h + 2, w + 2))
        inner = padded[:, 1:-1, 1:-1]
        # -0 is the exact additive identity: the first iteration's terms
        # enter the sums unchanged, zero signs included.
        sums = np.full((3, h, w), -0.0)
        q, s, r, g_den, t, term = np.empty((6, h, w))
        for ubar, vbar in reversed(ctx["averages"]):
            _residual(q, t, ix, iy, it, den, ubar, vbar)
            # With s = Ix gu + Iy gv, the chain rule's g_q = -s,
            # g_num = g_q / den = -r and g_den = -q g_q / den = q s / den.
            # Negation is exact, so every term below is its term bit for bit.
            np.multiply(ix, gu, out=s)
            np.multiply(iy, gv, out=t)
            s += t
            np.divide(s, den, out=r)
            np.multiply(q, s, out=g_den)
            g_den /= den
            # g_Ix = -q gu + (ubar g_num + 2 Ix g_den), and g_Iy likewise.
            for total, cot, avg, i2 in ((sums[0], gu, ubar, ix2), (sums[1], gv, vbar, iy2)):
                np.multiply(i2, g_den, out=term)
                np.multiply(avg, r, out=t)
                term -= t
                np.multiply(q, cot, out=t)
                term -= t
                total += term
            sums[2] -= r
            # The (ubar, vbar) cotangent (gu, gv) + (Ix, Iy) g_num, gathered
            # from the zero-bordered pad in the order ((up + down) + left) +
            # right in which the zero-pad scatter adds, then the border folds.
            np.multiply(ix, r, out=t)
            np.subtract(gu, t, out=inner[0])
            np.multiply(iy, r, out=t)
            np.subtract(gv, t, out=inner[1])
            np.add(padded[:, :-2, 1:-1], padded[:, 2:, 1:-1], out=grad)
            grad += padded[:, 1:-1, :-2]
            grad += padded[:, 1:-1, 2:]
            grad[:, 0] += inner[:, 0]
            grad[:, -1] += inner[:, -1]
            grad[:, :, 0] += inner[:, :, 0]
            grad[:, :, -1] += inner[:, :, -1]
            # The scatter starts each pixel at +0, so where all its terms are
            # -0 it holds +0; adding +0 gives the gather the same zero sign.
            grad += 0.0
            grad *= 0.25
        return tuple(sums)


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
