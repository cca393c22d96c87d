"""Block voting on normalized gradient maps and the pixel-wise reevaluation.

A pixel is marked adversarial when any enclosing KxK block (stride K-O, last
block row/column clamped to the border so every pixel is covered) has a block
mean strictly above the threshold t.  Both operations shatter gradients, so
their backward passes are the BPDA identity surrogate.
"""

from __future__ import annotations

import numpy as np

from ..diff.stage import Arrays, BPDA, Stage


def block_starts(extent: int, block: int, stride: int) -> list[int]:
    """Start offsets of blocks covering [0, extent); the last start is clamped
    to extent - block."""
    if block > extent:
        raise ValueError(f"block size {block} exceeds raster side {extent}")
    starts = list(range(0, extent - block + 1, stride))
    if starts[-1] != extent - block:
        starts.append(extent - block)
    return starts


class BlockVoteStage(Stage):
    """normalized map -> binary mask; BPDA backward is the identity."""

    name = "block-vote"
    gradient_kind = BPDA

    def __init__(self, block: int, overlap: int, threshold: float):
        if not 0 < overlap < block:
            raise ValueError(f"overlap must satisfy 0 < O < K, got K={block} O={overlap}")
        self.block = block
        self.overlap = overlap
        self.threshold = float(threshold)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (gbar,) = inputs
        h, w = gbar.shape
        k, stride = self.block, self.block - self.overlap
        area = float(k * k)
        mask = np.zeros((h, w))
        for r in block_starts(h, k, stride):
            for c in block_starts(w, k, stride):
                if gbar[r : r + k, c : c + k].sum() / area > self.threshold:
                    mask[r : r + k, c : c + k] = 1.0
        return (mask,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        return (cotangents[0].copy(),)


class IlpReevaluateStage(Stage):
    """(mask, normalized map) -> mask kept where s * Gbar > t_ilp.

    BPDA backward passes the cotangent unchanged along the mask path and
    contributes nothing to the map input.
    """

    name = "ilp-reevaluate"
    gradient_kind = BPDA

    def __init__(self, scale: float, threshold: float):
        self.scale = float(scale)
        self.threshold = float(threshold)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        mask, gbar = inputs
        keep = (self.scale * gbar > self.threshold).astype(np.float64)
        return (mask * keep,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        return (u.copy(), np.zeros_like(u))

