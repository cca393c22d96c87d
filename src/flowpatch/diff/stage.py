"""Stage-granular reverse pass.

Every pipeline step (gradient map, voting, smoothing, inpaint, the whole flow
solve, bilinear placement, loss, ...) is one `Stage` with a forward map
and a vector-Jacobian product.  A `StageTape` records applications of stages
during one forward evaluation; `backward` replays them in exact reverse order,
accumulating cotangents for values consumed by several stages.

Stages carry `gradient_kind`:
  "exact" - backward agrees with central finite differences of forward;
  "bpda"  - backward is a surrogate rule, exempt from that agreement.

`backward(..., wrt=values)` differentiates only what reaches `wrt`, the
activity analysis of reverse-mode AD (Griewank & Walther, "Evaluating
Derivatives", SIAM 2008).  One forward sweep over the records gives each
value its *support*: the pixels whose cotangent can reach a `wrt` value.
A support is None (no pixel), `ALL` (every pixel) or an HxW boolean array
over the value's first two axes.  `Stage.support` maps the supports of a
record's inputs to those of its outputs by the stage's backward, BPDA rules
included.  A record with no active input is skipped, and the others find
their inputs' supports in `ctx["needed"]`: a backward may leave the
cotangent of a pixel outside them unset, and return anything there.

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

    def support(self, ctx: dict, in_supports: tuple):
        """The support of each output, as a tuple, or one support for every
        output, given the inputs' (at least one active): the output pixels
        whose cotangent the backward passes to an active input pixel.  The
        default, every output pixel, is always safe."""
        return ALL

    def __call__(self, *inputs: np.ndarray):
        """Run forward statelessly (no tape); unwraps single outputs."""
        out = self.forward({}, tuple(np.asarray(a, dtype=np.float64) for a in inputs))
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

    `source` registers leaf inputs and `apply` records one stage on earlier
    values, so any fan-in/fan-out wiring can be recorded.
    """

    def __init__(self):
        self._values: list[np.ndarray] = []
        self._records: list[_Record] = []
        self._grads: dict[int, np.ndarray] | None = None
        self._wrt: set[int] | None = None

    def source(self, array: np.ndarray) -> TapeValue:
        """Register a leaf input value."""
        self._values.append(np.asarray(array, dtype=np.float64))
        return TapeValue(self, len(self._values) - 1)

    def apply(self, stage: Stage, *inputs: TapeValue):
        ctx: dict = {}
        in_arrays = tuple(v.array for v in inputs)
        outputs = stage.forward(ctx, in_arrays)
        slots = []
        for out in outputs:
            self._values.append(np.asarray(out, dtype=np.float64))
            slots.append(len(self._values) - 1)
        self._records.append(
            _Record(stage, ctx, tuple(v.slot for v in inputs), tuple(slots))
        )
        self._grads = None
        values = tuple(TapeValue(self, s) for s in slots)
        return values[0] if len(values) == 1 else values

    def _supports(self, wrt) -> list:
        """Each value's support, swept forward from `wrt` (all pixels)."""
        supports: list = [None] * len(self._values)
        for v in wrt:
            supports[v.slot] = ALL
        for rec in self._records:
            ins = tuple(supports[s] for s in rec.input_slots)
            if all(s is None for s in ins):
                continue
            outs = rec.stage.support(rec.ctx, ins)
            if not isinstance(outs, tuple):
                outs = (outs,) * len(rec.output_slots)
            for slot, out in zip(rec.output_slots, outs):
                supports[slot] = support_union(supports[slot], out)
        return supports

    def backward(
        self, value: TapeValue, cotangent: np.ndarray | float = 1.0, wrt=None
    ) -> None:
        """Reverse pass seeded with d(objective)/d(value) = cotangent.  With
        `wrt`, a sequence of values, only what reaches them is computed and
        `grad` answers for them alone; their gradients are the full pass's."""
        supports = None if wrt is None else self._supports(wrt)
        grads: dict[int, np.ndarray] = {}
        seed = np.broadcast_to(np.asarray(cotangent, dtype=np.float64), value.array.shape)
        grads[value.slot] = np.array(seed)
        for rec in reversed(self._records):
            if supports is None:
                needed = (ALL,) * len(rec.input_slots)
            else:
                needed = tuple(supports[s] for s in rec.input_slots)
                if all(s is None for s in needed):
                    continue
            cots = tuple(
                grads.get(s, np.zeros_like(self._values[s])) for s in rec.output_slots
            )
            if all(np.all(c == 0) for c in cots):
                continue
            rec.ctx["needed"] = needed
            in_cots = rec.stage.backward(rec.ctx, cots)
            for slot, g, need in zip(rec.input_slots, in_cots, needed):
                if need is None:
                    continue
                if slot in grads:
                    grads[slot] = grads[slot] + g
                else:
                    grads[slot] = np.asarray(g, dtype=np.float64)
        self._grads = grads
        self._wrt = None if wrt is None else {v.slot for v in wrt}

    def grad(self, value: TapeValue) -> np.ndarray:
        if self._grads is None:
            raise RuntimeError("backward() has not been run on this tape")
        if self._wrt is not None and value.slot not in self._wrt:
            raise ValueError("the last backward() did not differentiate this value (not in wrt)")
        return self._grads.get(value.slot, np.zeros_like(value.array))
