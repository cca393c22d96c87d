"""Per-iteration Horn-Schunck oracle for `HornSchunckSolveStage`.

The unrolled solver recorded literally: one `JacobiIterationStage` record per
update, closed by `PackFlowStage`, with the 4-neighbour average built from
`stencils.pad` and its adjoint as a scatter into a zero pad folded back by
`stencils.pad_adjoint`.  The fused stage must reproduce this chain's flow and
gradients bit for bit.
"""

import numpy as np

from flowpatch.diff import stencils
from flowpatch.diff.stage import Arrays, Stage
from flowpatch.flow import FrameDerivativesStage, LuminanceStage


def neighbor_average(x: np.ndarray) -> np.ndarray:
    """4-neighbour mean with replicated boundary (the Horn-Schunck update)."""
    p = stencils.pad(x, "replicate")
    return 0.25 * (p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2])


def neighbor_average_adjoint(g: np.ndarray) -> np.ndarray:
    gp = np.zeros((g.shape[0] + 2, g.shape[1] + 2) + g.shape[2:])
    gp[2:, 1:-1] += g
    gp[:-2, 1:-1] += g
    gp[1:-1, 2:] += g
    gp[1:-1, :-2] += g
    return 0.25 * stencils.pad_adjoint(gp, "replicate")


class JacobiIterationStage(Stage):
    """One Horn-Schunck update; exact backward to (u, v, Ix, Iy, It)."""

    name = "jacobi-iteration"

    def __init__(self, alpha: float):
        self.alpha2 = float(alpha) ** 2

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        u, v, ix, iy, it = inputs
        ubar = neighbor_average(u)
        vbar = neighbor_average(v)
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

        g_u = neighbor_average_adjoint(g_ubar)
        g_v = neighbor_average_adjoint(g_vbar)
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


def oracle_solve_on_tape(tape, ix, iy, it, alpha: float, iterations: int):
    """`HornSchunckSolveStage` as `iterations` + 1 tape records."""
    u = tape.source(np.zeros(ix.array.shape))
    v = tape.source(np.zeros(ix.array.shape))
    iterate = JacobiIterationStage(alpha)
    for _ in range(iterations):
        u, v = tape.apply(iterate, u, v, ix, iy, it)
    return tape.apply(PackFlowStage(), u, v)


def oracle_flow_on_tape(tape, frame1, frame2, alpha: float, iterations: int):
    """`HornSchunck.forward_on_tape` as `iterations` + 4 tape records."""
    g1 = tape.apply(LuminanceStage(), frame1)
    g2 = tape.apply(LuminanceStage(), frame2)
    ix, iy, it = tape.apply(FrameDerivativesStage(), g1, g2)
    return oracle_solve_on_tape(tape, ix, iy, it, alpha, iterations)
