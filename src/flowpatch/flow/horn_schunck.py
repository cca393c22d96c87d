"""Differentiable dense flow estimation with an unrolled Horn-Schunck solver.

The solver runs a fixed number of Jacobi iterations
    u <- ubar - Ix (Ix ubar + Iy vbar + It) / (alpha^2 + Ix^2 + Iy^2)
(and symmetrically for v), where ubar/vbar are 4-neighbor averages with
replicate boundary and the flow is initialized at zero.  All iterations are
one exact-gradient stage, fused in place on the flat padded rows of a stacked
u/v state, so the reverse pass reaches both input frames; its adjoint gathers
from a zero-bordered padded cotangent.  `HornSchunck.estimate` runs it on
constant frames, forward only, keeping one iterate.  `tests/hs_oracle.py`
records the iterations one stage each; the fused stage matches it bit for bit.

Luminance is scaled to [0, 255] before differentiation; the smoothness weight
is calibrated against 8-bit-scale image gradients and the flow units
(pixels/frame) are unaffected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..core.raster import FlowField, Image, LUMA_WEIGHTS
from ..diff import stencils
from ..diff.stage import (
    ALL, Arrays, Stage, StageTape, TapeValue, support_rows, support_union
)
from ..errors import check_int

LUMA_SCALE = 255.0


@dataclass(frozen=True)
class HornSchunckConfig:
    alpha: float = 15.0
    iterations: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")
        check_int("iterations", self.iterations)
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")


class LuminanceStage(Stage):
    """HxWx3 image -> scaled HxW Rec.601 luminance; linear, exact backward.
    Support: pixel to pixel."""

    name = "luminance"

    def __init__(self, scale: float = LUMA_SCALE):
        self.scale = float(scale)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (image,) = inputs
        return (self.scale * (image @ np.asarray(LUMA_WEIGHTS)),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        return (self.scale * u[:, :, None] * np.asarray(LUMA_WEIGHTS),)

    def support(self, ctx, needed):
        return needed[0]


class FrameDerivativesStage(Stage):
    """(g1, g2) -> (Ix, Iy, It): central differences averaged over both frames
    and the temporal difference g2 - g1.  Linear, exact backward.  Support:
    the union of the frames' pixels, widened by one column each way for Ix
    and by one row each way for Iy, and as it is for It."""

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

    def support(self, ctx, needed):
        active = support_union(*needed)
        if active is ALL:
            return ALL
        cols, rows = active.copy(), active.copy()
        cols[:, 1:] |= active[:, :-1]
        cols[:, :-1] |= active[:, 1:]
        rows[1:] |= active[:-1]
        rows[:-1] |= active[1:]
        return (cols, rows, active)


# Bytes in a cache line.  numpy starts an array of 128 KB or more 16 bytes
# past a page, so without this every vector store would straddle two lines.
CACHE_LINE = 64

# The sweeps' scalar operands as numpy scalars: a ufunc call took longer with
# a Python float operand in a standalone probe, with the same bits.
QUARTER, ZERO = np.float64(0.25), np.float64(0.0)


def aligned_array(
    shape: tuple[int, ...], fill: float | None = None, lead: int | None = None
) -> np.ndarray:
    """A float64 array of `shape`, set to `fill` unless it is None.

    With `lead` None it is C-contiguous and starts on a `CACHE_LINE`
    boundary.  Otherwise each row, a run of the last axis, starts a whole
    number of cache lines after the one before, so that element `lead` of
    every row starts on a line: the rows are contiguous and the array is a
    view of a buffer whose row pitch is the last axis rounded up to a whole
    number of lines.  Splitting the last axis of such a view still gives a
    view."""
    line = CACHE_LINE // 8
    *outer, length = shape
    rows = math.prod(outer)
    pitch = length if lead is None else -(-length // line) * line
    buffer = np.empty(rows * pitch + line)
    start = -(buffer.__array_interface__["data"][0] // 8 + (lead or 0)) % line
    out = buffer[start:start + rows * pitch].reshape(rows, pitch)[:, :length].reshape(shape)
    if fill is not None:
        out.fill(fill)
    return out


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

    The solve runs on flat padded rows.  With P = W + 2, the u/v state is
    one stacked (2, (H+2)*P) array of the replicate-padded fields, row after
    row, so the interior rows are the flat range [P, P + H*P) and their up,
    down, left and right neighbours are that range shifted by -P, +P, -1 and
    +1: every neighbour read is one contiguous pass.  Ix, Iy and It become
    H*P rows with zero border columns, where den = alpha^2.  The border
    columns of a pass hold finite values that no interior pixel reads, and
    the iteration's four border copies overwrite them.

    Once an iteration has its averages (ubar, vbar), the old iterate is
    dead, so the iterate is its own scratch: q goes into u with v as the
    scratch, then v = vbar - Iy q and u = ubar - Ix q are written in place.
    A forward sweep then touches eight arrays of H*P values: the stacked
    state and averages, Ix, Iy, It and den.  Every range of H*P values, or
    of the band's, that a sweep stores into starts on a 64-byte cache line
    (`aligned_array`): the interior range [P, P + H*P) of each state row,
    each averages row, each scratch array and each row of the backward's
    sums on the band.  The row pitch P is not widened, so only the start of
    each range is aligned, not each image row in it.  An iteration
    allocates nothing.

    The rows [r0, r1) that bound the pixels of `ctx["needed"]` form the
    band, the flat range [r0 P, r1 P).  Iteration k keeps its stacked
    (ubar_k, vbar_k) on the band in row k of one (iterations, 2, (r1 - r0) P)
    block, 16 B per padded band pixel per iteration, allocated once per
    forward; a band of every row is written in place, and an empty band
    allocates none.  The exact backward runs the adjoint updates in reverse,
    recomputing q_k on the band from those averages.  Its neighbour-average
    adjoint gathers from a padded cotangent whose border rows and columns
    are zero, in the order in which a scatter into a zero pad adds, then
    folds the border back.  The interior of that padded cotangent is dead
    until the gather's input is written, so it is the scratch for Iy gv,
    and s = Ix gu + Iy gv becomes r = s / den in place once the band has
    read s.  Outside the band a backward sweep then touches eight such
    arrays too: Ix, Iy, den, s and the stacked adjoint state and its pad.
    The backward sums the Ix/Iy/It cotangents from the last iteration to
    the first, as a tape of one record per iteration would, so both give
    bit-identical gradients, and returns the interior columns of the three
    sums.

    The adjoint state (gu, gv) needs every pixel, but the residual q, the
    den cotangent and the three sums feed only the returned cotangents, so
    that work runs on the band only, with the same operations in the same
    order; outside it the cotangents are zero.  Support: the default, every
    pixel, since each flow pixel depends on the whole image.
    """

    name = "horn-schunck-solve"

    def __init__(self, alpha: float, iterations: int):
        self.alpha2 = float(alpha) ** 2
        self.iterations = iterations

    def _denominator(self, ix, iy):
        return self.alpha2 + ix * ix + iy * iy

    @staticmethod
    def _rows(ix, iy, it):
        """Ix, Iy and It as flat H*(W+2) rows with zero border columns."""
        h, w = ix.shape
        rows = []
        for x in (ix, iy, it):
            row = aligned_array((h, w + 2), 0.0)
            row[:, 1:-1] = x
            rows.append(row.reshape(-1))
        return tuple(rows)

    def _run(self, shape, ix, iy, it, averages, band) -> np.ndarray:
        """The HxW flow from the `_rows` of the inputs.  Iteration k's
        stacked (ubar, vbar) on the flat range `band` are written to
        `averages[k]` unless `averages` is None."""
        h, w = shape
        p = w + 2
        n = h * p
        den = self._denominator(ix, iy)
        state = aligned_array((2, n + 2 * p), 0.0, lead=p)
        grid = state.reshape(2, h + 2, p)
        u, v = state[:, p:p + n]
        up, down = state[:, :n], state[:, 2 * p:]
        left, right = state[:, p - 1:p - 1 + n], state[:, p + 1:p + 1 + n]
        bar = aligned_array((2, n), lead=0)
        in_place = averages is not None and averages.shape[-1] == n
        for k in range(self.iterations):
            grid[:, 0, 1:-1] = grid[:, 1, 1:-1]
            grid[:, -1, 1:-1] = grid[:, -2, 1:-1]
            grid[:, 1:-1, 0] = grid[:, 1:-1, 1]
            grid[:, 1:-1, -1] = grid[:, 1:-1, -2]
            if in_place:
                bar = averages[k]
            np.add(down, up, out=bar)
            bar += right
            bar += left
            bar *= QUARTER
            if averages is not None and not in_place:
                averages[k] = bar[:, band]
            ubar, vbar = bar
            _residual(u, v, ix, iy, it, den, ubar, vbar)
            np.multiply(iy, u, out=v)
            np.subtract(vbar, v, out=v)
            np.multiply(ix, u, out=u)
            np.subtract(ubar, u, out=u)
        return np.stack(tuple(grid[:, 1:-1, 1:-1]), axis=-1)

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        ix, iy, it = inputs
        h, w = ix.shape
        r0, r1 = support_rows(support_union(*ctx["needed"]), h)
        band = slice(r0 * (w + 2), r1 * (w + 2))
        rows = self._rows(ix, iy, it)
        averages = None
        if r1 > r0:
            averages = aligned_array((self.iterations, 2, band.stop - band.start), lead=0)
        flow = self._run(ix.shape, *rows, averages, band)
        ctx.update(shape=ix.shape, rows=rows, averages=averages, band=band)
        return (flow,)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (g,) = cotangents
        ix, iy, it = ctx["rows"]
        h, w = ctx["shape"]
        p = w + 2
        n = h * p
        # The Ix/Iy/It cotangents are summed on the forward's band.
        band = ctx["band"]
        den = self._denominator(ix, iy)
        bix, biy, bit, bden = ix[band], iy[band], it[band], den[band]
        ix2, iy2 = 2.0 * bix, 2.0 * biy
        grad = aligned_array((2, n), 0.0, lead=0)
        grad_grid = grad.reshape(2, h, p)
        grad_grid[:, :, 1:-1] = np.moveaxis(g, -1, 0)
        gu, gv = grad
        padded = aligned_array((2, n + 2 * p), 0.0, lead=p)
        inner = padded[:, p:p + n]
        inner_grid = inner.reshape(2, h, p)
        up, down = padded[:, :n], padded[:, 2 * p:]
        left, right = padded[:, p - 1:p - 1 + n], padded[:, p + 1:p + 1 + n]
        # -0 is the exact additive identity: the first iteration's terms
        # enter the sums unchanged, zero signs included.
        sums = aligned_array((3, n), -0.0, lead=band.start)
        totals = sums[:, band]
        s = aligned_array((n,))
        q, g_den, term, bt = (aligned_array((band.stop - band.start,)) for _ in range(4))
        bgrad = (gu[band], gv[band])
        for bar in reversed(ctx["averages"]):
            # With s = Ix gu + Iy gv, the chain rule's g_q = -s,
            # g_num = g_q / den = -r and g_den = -q g_q / den = q s / den.
            # Negation is exact, so every term below is its term bit for bit.
            # r = s / den replaces s in place once g_den has read s.
            np.multiply(ix, gu, out=s)
            np.multiply(iy, gv, out=inner[0])
            s += inner[0]
            _residual(q, bt, bix, biy, bit, bden, *bar)
            np.multiply(q, s[band], out=g_den)
            g_den /= bden
            s /= den
            br = s[band]
            # g_Ix = -q gu + (ubar g_num + 2 Ix g_den), and g_Iy likewise.
            for total, cot, avg, i2 in zip(totals, bgrad, bar, (ix2, iy2)):
                np.multiply(i2, g_den, out=term)
                np.multiply(avg, br, out=bt)
                term -= bt
                np.multiply(q, cot, out=bt)
                term -= bt
                total += term
            totals[2] -= br
            # The (ubar, vbar) cotangent (gu, gv) + (Ix, Iy) g_num, with its
            # border columns zeroed, gathered from the zero-bordered pad in
            # the order ((up + down) + left) + right in which the zero-pad
            # scatter adds, then the border folds.
            np.multiply(ix, s, out=inner[0])
            np.subtract(gu, inner[0], out=inner[0])
            np.multiply(iy, s, out=inner[1])
            np.subtract(gv, inner[1], out=inner[1])
            inner_grid[:, :, 0] = ZERO
            inner_grid[:, :, -1] = ZERO
            np.add(up, down, out=grad)
            grad += left
            grad += right
            # The fold: first and last rows, then the first and last interior
            # columns, which are padded columns 1 and P - 2.
            grad[:, :p] += inner[:, :p]
            grad[:, -p:] += inner[:, -p:]
            grad_grid[:, :, 1] += inner_grid[:, :, 1]
            grad_grid[:, :, -2] += inner_grid[:, :, -2]
            # The scatter starts each pixel at +0, so where all its terms are
            # -0 it holds +0; adding +0 gives the gather the same zero sign.
            grad += ZERO
            grad *= QUARTER
        return tuple(sums.reshape(3, h, p)[:, :, 1:-1])


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
        """The flow of `forward_on_tape` on constant frames, forward only."""
        tape = StageTape()
        flow = self.forward_on_tape(tape, tape.constant(frame1.data), tape.constant(frame2.data))
        return FlowField(flow.array)
