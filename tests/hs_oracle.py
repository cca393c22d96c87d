"""Per-iteration Horn-Schunck oracle for `HornSchunckSolveStage`.

The unrolled solver recorded literally: one `JacobiIterationStage` record per
update, closed by `PackFlowStage`.  The fused stage must reproduce this
chain's flow and gradients bit for bit.
"""

import numpy as np

from flowpatch.diff import stencils
from flowpatch.diff.stage import Arrays, Stage
from flowpatch.flow import FrameDerivativesStage, LuminanceStage


class JacobiIterationStage(Stage):
    """One Horn-Schunck update; exact backward to (u, v, Ix, Iy, It)."""

    name = "jacobi-iteration"

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


def oracle_flow_on_tape(tape, frame1, frame2, alpha: float, iterations: int):
    """`HornSchunck.forward_on_tape` as `iterations` + 4 tape records."""
    g1 = tape.apply(LuminanceStage(), frame1)
    g2 = tape.apply(LuminanceStage(), frame2)
    ix, iy, it = tape.apply(FrameDerivativesStage(), g1, g2)
    u = tape.source(np.zeros(g1.array.shape))
    v = tape.source(np.zeros(g1.array.shape))
    iterate = JacobiIterationStage(alpha)
    for _ in range(iterations):
        u, v = tape.apply(iterate, u, v, ix, iy, it)
    return tape.apply(PackFlowStage(), u, v)
