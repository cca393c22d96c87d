"""Stage-granular reverse pass.

Every pipeline step (gradient map, voting, smoothing, inpaint, the whole flow
solve, bilinear placement, loss, ...) is one `Stage` with a forward map
and a vector-Jacobian product.  A `StageTape` records applications of stages
during one forward evaluation; `backward` replays them in exact reverse order,
accumulating cotangents for values consumed by several stages.

Stages carry `gradient_kind`:
  "exact" - backward agrees with central finite differences of forward;
  "bpda"  - backward is a surrogate rule, exempt from that agreement.

What is differentiated is decided when a value is recorded, the activity
analysis of reverse-mode AD (Griewank & Walther, "Evaluating Derivatives",
SIAM 2008).  `source` registers a differentiated leaf and `constant` one
that no gradient reaches.  A value carries its array and its *support*:
the pixels whose cotangent can reach a source.  A support is None (no
pixel), `ALL` (every pixel) or an HxW boolean array over the value's first
two axes.  `apply` gives every forward its inputs' supports in
`ctx["needed"]`; a direct stage call is `apply` on constants, and
`grad_check` gives `ALL` for each input.  So a forward may keep only what a
backward at those pixels reads, and `Stage.support` maps them to those of
its outputs by the stage's backward, BPDA rules included.  A forward with
no active input is forward only: the tape keeps no record of it, so a tape
of constants holds nothing.  A backward may leave the cotangent of an input
pixel outside `ctx["needed"]` unset, and return anything there.  A tape of
sources only is the full reverse pass.

This is deliberately not a general expression-graph autodiff: stages are the
only differentiation unit, and all gradient math runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Arrays = tuple[np.ndarray, ...]

EXACT = "exact"
BPDA = "bpda-surrogate"


class _AllPixels:
    def __repr__(self) -> str:
        return "ALL"


# The support of a value all of whose pixels are active.
ALL = _AllPixels()


def support_union(*supports):
    """The pixels in any of `supports`."""
    active = [s for s in supports if s is not None]
    if not active:
        return None
    if any(s is ALL for s in active):
        return ALL
    return np.logical_or.reduce(active)


def support_where(support, keep: np.ndarray):
    """The pixels of `support` at which the HxW boolean `keep` holds."""
    if support is None:
        return None
    out = keep if support is ALL else support & keep
    return out if out.any() else None


def support_box(support, shape: tuple[int, int]) -> tuple[int, int, int, int]:
    """The rows [r0, r1) and columns [c0, c1) that bound `support` on an
    image of `shape`, as (r0, r1, c0, c1); all zero when it has no pixel."""
    h, w = shape
    if support is ALL:
        return 0, h, 0, w
    if support is None or not support.any():
        return 0, 0, 0, 0
    rows, cols = np.flatnonzero(support.any(axis=1)), np.flatnonzero(support.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


class Stage:
    """One named pipeline step with a forward map and a VJP."""

    name = "stage"
    gradient_kind = EXACT

    def forward(self, ctx: dict, inputs: Arrays) -> Arrays:
        raise NotImplementedError

    def backward(self, ctx: dict, cotangents: Arrays) -> Arrays:
        """Map output cotangents to input cotangents (same shapes as inputs)."""
        raise NotImplementedError

    def support(self, ctx: dict, needed: tuple):
        """The support of each output, as a tuple, or one support for every
        output, given the inputs' (at least one active) after the forward:
        the output pixels whose cotangent the backward passes to an active
        input pixel.  The default, every output pixel, is always safe."""
        return ALL

    def __call__(self, *inputs: np.ndarray):
        """`StageTape.apply` on constants: forward only; unwraps single outputs."""
        tape = StageTape()
        out = tape.apply(self, *map(tape.constant, inputs))
        return out.array if isinstance(out, TapeValue) else tuple(v.array for v in out)


@dataclass(frozen=True, eq=False)
class TapeValue:
    """An array and its support.  Equal only to itself, and tied to no tape:
    a value of one tape may be an input on another."""

    array: np.ndarray
    support: object


@dataclass
class _Record:
    stage: Stage
    ctx: dict
    inputs: tuple[TapeValue, ...]
    outputs: tuple[TapeValue, ...]


class StageTape:
    """Ordered record of stage applications for one forward evaluation.

    `source` and `constant` register leaf inputs and `apply` records one
    stage on earlier values, so any fan-in/fan-out wiring can be recorded.
    """

    def __init__(self):
        self._records: list[_Record] = []
        self._grads: dict[TapeValue, np.ndarray] | None = None

    def source(self, array: np.ndarray) -> TapeValue:
        """Register a differentiated leaf input value."""
        return TapeValue(np.asarray(array, dtype=np.float64), ALL)

    def constant(self, array: np.ndarray) -> TapeValue:
        """Register a leaf input value that no gradient reaches."""
        return TapeValue(np.asarray(array, dtype=np.float64), None)

    def apply(self, stage: Stage, *inputs: TapeValue):
        needed = tuple(v.support for v in inputs)
        ctx: dict = {"needed": needed}
        outputs = stage.forward(ctx, tuple(v.array for v in inputs))
        active = any(s is not None for s in needed)
        rule = stage.support(ctx, needed) if active else None
        supports = rule if isinstance(rule, tuple) else (rule,) * len(outputs)
        values = tuple(
            TapeValue(np.asarray(out, dtype=np.float64), s) for out, s in zip(outputs, supports)
        )
        if active:
            self._records.append(_Record(stage, ctx, inputs, values))
        self._grads = None
        return values[0] if len(values) == 1 else values

    def backward(self, value: TapeValue, cotangent: np.ndarray | float = 1.0) -> None:
        """Reverse pass seeded with d(objective)/d(value) = cotangent.  It
        runs once per tape: a stage's backward may consume what its forward
        kept."""
        seed = np.broadcast_to(np.asarray(cotangent, dtype=np.float64), value.array.shape)
        grads = {value: np.array(seed)}
        for rec in reversed(self._records):
            cots = tuple(grads.get(v, np.zeros_like(v.array)) for v in rec.outputs)
            if all(np.all(c == 0) for c in cots):
                continue
            in_cots = rec.stage.backward(rec.ctx, cots)
            for v, g in zip(rec.inputs, in_cots):
                if v.support is None:
                    continue
                if v in grads:
                    grads[v] = grads[v] + g
                else:
                    grads[v] = np.asarray(g, dtype=np.float64)
        self._grads = grads

    def grad(self, value: TapeValue) -> np.ndarray:
        """The gradient of a value whose support is every pixel; raises
        ValueError for any other value, whose gradient the last backward
        computed in part or not at all."""
        if self._grads is None:
            raise RuntimeError("backward() has not been run on this tape")
        support = value.support
        if support is None or (support is not ALL and not support.all()):
            raise ValueError("the reverse pass does not differentiate every pixel of this value")
        return self._grads.get(value, np.zeros_like(value.array))
