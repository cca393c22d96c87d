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
that no gradient reaches.  Every value has a *support*: the pixels whose
cotangent can reach a source.  A support is None (no pixel), `ALL` (every
pixel) or an HxW boolean array over the value's first two axes.  Every
forward is given its inputs' supports in `ctx["needed"]`: `apply` hands
it those of the recorded inputs, a direct stage call none and `grad_check`
`ALL` for each input.  So a forward may keep only what a backward at those
pixels reads, and `Stage.support` maps them to those of its outputs by the
stage's backward, BPDA rules included.  A forward with no active input is
forward only: its outputs are kept, but nothing for a backward.  A
backward may leave the cotangent of an input pixel outside
`ctx["needed"]` unset, and return anything there.  A tape of sources only
is the full reverse pass.

This is deliberately not a general expression-graph autodiff: stages are the
only differentiation unit, and all gradient math runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def support_rows(support, height: int) -> tuple[int, int]:
    """The rows [r0, r1) that bound `support` on an image of `height` rows."""
    if support is ALL:
        return 0, height
    rows = np.flatnonzero(support.any(axis=1)) if support is not None else ()
    return (int(rows[0]), int(rows[-1]) + 1) if len(rows) else (0, 0)


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
        """Run forward only, as on a tape of constants; unwraps single outputs."""
        arrays = tuple(np.asarray(a, dtype=np.float64) for a in inputs)
        out = self.forward({"needed": (None,) * len(arrays)}, arrays)
        return out[0] if len(out) == 1 else out


@dataclass(frozen=True)
class TapeValue:
    """Handle to one array slot on a tape."""

    tape: "StageTape" = field(repr=False)
    slot: int

    @property
    def array(self) -> np.ndarray:
        return self.tape._values[self.slot]


@dataclass
class _Record:
    stage: Stage
    ctx: dict
    input_slots: tuple[int, ...]
    output_slots: tuple[int, ...]


class StageTape:
    """Ordered record of stage applications for one forward evaluation.

    `source` and `constant` register leaf inputs and `apply` records one
    stage on earlier values, so any fan-in/fan-out wiring can be recorded.
    """

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._support: list = []
        self._records: list[_Record] = []
        self._grads: dict[int, np.ndarray] | None = None

    def _append(self, array: np.ndarray, support) -> TapeValue:
        self._values.append(np.asarray(array, dtype=np.float64))
        self._support.append(support)
        return TapeValue(self, len(self._values) - 1)

    def source(self, array: np.ndarray) -> TapeValue:
        """Register a differentiated leaf input value."""
        return self._append(array, ALL)

    def constant(self, array: np.ndarray) -> TapeValue:
        """Register a leaf input value that no gradient reaches."""
        return self._append(array, None)

    def apply(self, stage: Stage, *inputs: TapeValue):
        needed = tuple(self._support[v.slot] for v in inputs)
        ctx: dict = {"needed": needed}
        outputs = stage.forward(ctx, tuple(v.array for v in inputs))
        active = any(s is not None for s in needed)
        rule = stage.support(ctx, needed) if active else None
        supports = rule if isinstance(rule, tuple) else (rule,) * len(outputs)
        values = tuple(self._append(out, s) for out, s in zip(outputs, supports))
        if active:
            self._records.append(
                _Record(stage, ctx, tuple(v.slot for v in inputs), tuple(v.slot for v in values))
            )
        self._grads = None
        return values[0] if len(values) == 1 else values

    def backward(self, value: TapeValue, cotangent: np.ndarray | float = 1.0) -> None:
        """Reverse pass seeded with d(objective)/d(value) = cotangent."""
        grads: dict[int, np.ndarray] = {}
        seed = np.broadcast_to(np.asarray(cotangent, dtype=np.float64), value.array.shape)
        grads[value.slot] = np.array(seed)
        for rec in reversed(self._records):
            cots = tuple(
                grads.get(s, np.zeros_like(self._values[s])) for s in rec.output_slots
            )
            if all(np.all(c == 0) for c in cots):
                continue
            in_cots = rec.stage.backward(rec.ctx, cots)
            for slot, g, need in zip(rec.input_slots, in_cots, rec.ctx["needed"]):
                if need is None:
                    continue
                if slot in grads:
                    grads[slot] = grads[slot] + g
                else:
                    grads[slot] = np.asarray(g, dtype=np.float64)
        self._grads = grads

    def grad(self, value: TapeValue) -> np.ndarray:
        """The gradient of a value whose support is every pixel; raises
        ValueError for any other value, whose gradient the last backward
        computed in part or not at all."""
        if self._grads is None:
            raise RuntimeError("backward() has not been run on this tape")
        support = self._support[value.slot]
        if support is None or (support is not ALL and not support.all()):
            raise ValueError("the reverse pass does not differentiate every pixel of this value")
        return self._grads.get(value.slot, np.zeros_like(value.array))
