"""Oracles for the defences: the block vote by enumeration, and a
stage-per-operation chain for `defend_on_tape`.

The defences recorded one operation per stage: the raw derivative-magnitude
map, its min-max normalisation, the block vote, ILP's re-evaluation and
Telea, or LGS's removal split into the factor b*Gbar*M, the clip to [0, 1]
and the darkening I*(1 - clip).  The fused map and removal stages must
reproduce this chain's images, masks and tape gradients bit for bit.
`brute_force_vote` marks a pixel by visiting every block that covers it.
"""

import numpy as np

from flowpatch.defense import BlockVoteStage, IlpReevaluateStage, TeleaInpaintStage, block_starts
from flowpatch.defense.pipeline import DERIVATIVE_ORDER, LGS
from flowpatch.diff import stencils
from flowpatch.diff.stage import Arrays, Stage
from flowpatch.flow import LuminanceStage


def brute_force_vote(gbar, block, overlap, threshold):
    """Independent oracle: per pixel, enumerate every covering block position
    and mark the pixel if any enclosing block has mean strictly above t."""
    h, w = gbar.shape
    stride = block - overlap
    rows = block_starts(h, block, stride)
    cols = block_starts(w, block, stride)
    mask = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            for r in rows:
                for c in cols:
                    if not (r <= i < r + block and c <= j < c + block):
                        continue
                    if gbar[r : r + block, c : c + block].sum() / (block * block) > threshold:
                        mask[i, j] = 1.0
    return mask


class MagnitudeMapStage(Stage):
    """HxWx3 image -> HxW derivative magnitude of the luminance, not normalised."""

    def __init__(self, order: str):
        self.order = stencils.check_order(order)
        self.name = f"magnitude-map-{order}"
        self.luminance = LuminanceStage(1.0)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (gray,) = self.luminance.forward(ctx, inputs)
        g, ctx["saved"] = stencils.derivative_magnitude(gray, self.order, "replicate")
        return (g,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        ugray = stencils.derivative_magnitude_adjoint(u, self.order, "replicate", ctx["saved"])
        return self.luminance.backward(ctx, (ugray,))


class NormalizeMapStage(Stage):
    """(G - min) / (max - min); a constant map normalizes to all zeros."""

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


class SmoothingFactorStage(Stage):
    """(Gbar, M) -> b * Gbar * M, elementwise."""

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


class ClipStage(Stage):
    """y = clip(x, lo, hi); backward zeroes the cotangent where the clip
    saturated (boundary values count as inside)."""

    name = "clip"

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        self.lo, self.hi = float(lo), float(hi)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (x,) = inputs
        ctx["inside"] = (x >= self.lo) & (x <= self.hi)
        return (np.clip(x, self.lo, self.hi),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        return (cotangents[0] * ctx["inside"],)


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


def oracle_defend_on_tape(tape, image, cfg):
    """`defend_on_tape` with one stage per operation; returns (defended
    image value, final mask value)."""
    gmap = tape.apply(MagnitudeMapStage(DERIVATIVE_ORDER[cfg.kind]), image)
    gbar = tape.apply(NormalizeMapStage(), gmap)
    mask = tape.apply(BlockVoteStage(cfg.block, cfg.overlap, cfg.threshold), gbar)
    if cfg.kind == LGS:
        factor = tape.apply(SmoothingFactorStage(cfg.b_lgs), gbar, mask)
        clipped = tape.apply(ClipStage(0.0, 1.0), factor)
        defended = tape.apply(DarkenStage(), clipped, image)
        return defended, mask
    final_mask = tape.apply(IlpReevaluateStage(cfg.s_ilp, cfg.t_ilp), mask, gbar)
    defended = tape.apply(TeleaInpaintStage(cfg.r_telea), image, final_mask)
    return defended, final_mask
