"""Stage-granular reverse pass.

Every pipeline step (gradient map, voting, smoothing, inpaint, the whole flow
solve, bilinear placement, loss, ...) is one `Stage` with a forward map
and a vector-Jacobian product.  A `StageTape` records applications of stages
during one forward evaluation; `backward` replays them in exact reverse order,
accumulating cotangents for values consumed by several stages.

Stages carry `gradient_kind`:
  "exact" - backward agrees with central finite differences of forward;
  "bpda"  - backward is a surrogate rule, exempt from that agreement.

This is deliberately not a general expression-graph autodiff: stages are the
only differentiation unit, and all gradient math runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Arrays = tuple[np.ndarray, ...]

EXACT = "exact"
BPDA = "bpda-surrogate"


class Stage:
    """One named pipeline step with a forward map and a VJP."""

    name = "stage"
    gradient_kind = EXACT

    def forward(self, ctx: dict, inputs: Arrays) -> Arrays:
        raise NotImplementedError

    def backward(self, ctx: dict, cotangents: Arrays) -> Arrays:
        """Map output cotangents to input cotangents (same shapes as inputs)."""
        raise NotImplementedError

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
            for slot, g in zip(rec.input_slots, in_cots):
                if slot in grads:
                    grads[slot] = grads[slot] + g
                else:
                    grads[slot] = np.asarray(g, dtype=np.float64)
        self._grads = grads

    def grad(self, value: TapeValue) -> np.ndarray:
        if self._grads is None:
            raise RuntimeError("backward() has not been run on this tape")
        return self._grads.get(value.slot, np.zeros_like(value.array))
