"""Patch training: sign/plain gradient steps under clip or tanh box handling.

One training step samples a frame pair and a random pose, composites the
patch into both frames, pushes the result through the (optionally defended)
estimator on a stage tape, and takes one optimizer step on the patch
parameters from the reverse pass.  The reference flow of a frame pair is
its flow through the defended clean pipeline: given by the caller, or
computed when the pair is first drawn and kept.  `save_patch` writes a
trained patch's artefacts, and `load_patch` is the one reader of them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ..core.ppm import read_ppm, write_ppm
from ..core.raster import FlowField, Image
from ..defense.pipeline import DERIVATIVE_ORDER, DefenseConfig, defend_on_tape, defended_flow
from ..diff.elementwise import AddWeightedStage, CovMaterializeStage
from ..diff.stage import StageTape
from ..errors import DivergenceError, FormatError, check_int
from ..flow.horn_schunck import FlowEstimator
from .losses import AWARENESS_DEFENSE, AcsLossStage, PatchPenaltyStage, VANILLA
from .patch import CLIP, COV, Patch, random_patch
from .placement import (
    PlacementGeometry, PlacePatchStage, check_fit, placement_geometry, sample_pose
)

IFGSM = "ifgsm"
SGD = "sgd"


@dataclass(frozen=True)
class AttackConfig:
    awareness: str = VANILLA
    optimizer: str = IFGSM
    learning_rate: float = 0.1
    box: str = CLIP
    steps: int = 300
    alpha_penalty: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if self.awareness not in AWARENESS_DEFENSE:
            raise ValueError(f"unknown awareness {self.awareness!r}")
        if self.optimizer not in (IFGSM, SGD):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.box not in (CLIP, COV):
            raise ValueError(f"unknown box constraint {self.box!r}")
        if not 0 <= self.learning_rate < float("inf"):  # NaN too
            raise ValueError(f"learning rate must be >= 0 and finite, got {self.learning_rate!r}")
        check_int("steps", self.steps)
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not np.isfinite(self.alpha_penalty):
            raise ValueError(f"alpha_penalty must be finite, got {self.alpha_penalty!r}")
        check_int("seed", self.seed)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")


def optimizer_step(patch: Patch, gradient: np.ndarray, cfg: AttackConfig) -> Patch:
    """One descent step on the patch parameter; clip mode re-projects to [0,1]."""
    if cfg.optimizer == IFGSM:
        updated = patch.param - cfg.learning_rate * np.sign(gradient)
    else:
        updated = patch.param - cfg.learning_rate * gradient
    if patch.parameterization == CLIP:
        updated = np.clip(updated, 0.0, 1.0)
    return patch.with_param(updated)


@dataclass
class TrainResult:
    patch: Patch
    losses: list[float] = field(default_factory=list)


def save_patch(stem: str | Path, patch: Patch, cfg: AttackConfig) -> None:
    """Write `<stem>.ppm` (an 8-bit preview), `<stem>.npy` (the float64
    `patch.materialize()` values that evaluation uses) and the `<stem>.txt`
    sidecar with the patch shape and its training configuration."""
    write_ppm(patch.to_image(), f"{stem}.ppm")
    np.save(f"{stem}.npy", patch.materialize())
    sidecar = {
        "side": patch.side,
        "parameterization": patch.parameterization,
        **dataclasses.asdict(cfg),
    }
    Path(f"{stem}.txt").write_text("".join(f"{k}={v}\n" for k, v in sidecar.items()))


def load_patch(path: str | Path) -> Patch:
    """The `clip` patch of the values at `path`: a `.npy` or an 8-bit `.ppm`;
    FormatError unless it holds a side x side x 3 array of values in [0, 1]."""
    try:
        values = np.load(path) if str(path).endswith(".npy") else read_ppm(path).data
        return Patch(len(values), CLIP, values)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"{path} holds no patch: {exc}") from None


def _diverged(step: int, what: str, cfg: AttackConfig) -> DivergenceError:
    return DivergenceError(
        f"optimization diverged at step {step}: {what} "
        f"(awareness={cfg.awareness}, optimizer={cfg.optimizer}, "
        f"lr={cfg.learning_rate})"
    )


def _loss_and_gradient(
    estimator: FlowEstimator,
    defense: DefenseConfig | None,
    cfg: AttackConfig,
    patch: Patch,
    frame1: Image,
    frame2: Image,
    reference: np.ndarray,
    geometry: PlacementGeometry,
) -> tuple[float, np.ndarray | None]:
    """One training step's loss and, if it is finite, its gradient on the
    patch parameter (None otherwise).  The step's tape, solve block
    included, is freed on return, before the next step records its own."""
    tape = StageTape()
    param = tape.source(patch.param)
    values = tape.apply(CovMaterializeStage(), param) if patch.parameterization == COV else param
    attacked1, attacked2 = tape.apply(
        PlacePatchStage(geometry, patch.side),
        tape.constant(frame1.data),
        tape.constant(frame2.data),
        values,
    )
    if defense is not None:
        attacked1, _ = defend_on_tape(tape, attacked1, defense)
        attacked2, _ = defend_on_tape(tape, attacked2, defense)
    flow = estimator.forward_on_tape(tape, attacked1, attacked2)
    loss = tape.apply(AcsLossStage(reference, geometry.mask), flow)
    order = DERIVATIVE_ORDER.get(AWARENESS_DEFENSE[cfg.awareness])
    if order is not None:
        penalty = tape.apply(PatchPenaltyStage(order, patch.validity), values)
        loss = tape.apply(AddWeightedStage(cfg.alpha_penalty), loss, penalty)
    value = float(loss.array)
    if not np.isfinite(value):
        return value, None
    tape.backward(loss, 1.0)
    return value, tape.grad(param)


def train_patch(
    estimator: FlowEstimator,
    defense: DefenseConfig | None,
    dataset: Sequence[tuple[Image, Image]],
    cfg: AttackConfig,
    patch_side: int,
    references: Sequence[FlowField] | None = None,
) -> TrainResult:
    """Optimize a patch for `cfg.steps` steps; raises PlacementError before
    anything is drawn unless `patch_side` fits every pair's frames, and
    DivergenceError in the step whose loss or gradient is non-finite.
    Deterministic for a fixed config (seeded poses and initialization).
    `references`, when given, are the defended clean flows of `dataset`, one
    per pair."""
    if not dataset:
        raise ValueError("dataset is empty")
    if references is not None and len(references) != len(dataset):
        raise ValueError(f"{len(references)} reference flows for {len(dataset)} pairs")
    for frame1, _ in dataset:
        check_fit(patch_side, (frame1.height, frame1.width))
    rng = np.random.default_rng(cfg.seed)
    patch = random_patch(patch_side, cfg.box, rng)

    cached = {i: flow.data for i, flow in enumerate(references or ())}
    losses: list[float] = []

    for step in range(cfg.steps):
        idx = int(rng.integers(len(dataset)))
        frame1, frame2 = dataset[idx]
        if idx not in cached:
            cached[idx] = defended_flow(estimator, defense, frame1, frame2)[0].data
        pose = sample_pose(rng, patch.side, (frame1.height, frame1.width))
        geometry = placement_geometry(pose, patch.side, (frame1.height, frame1.width))

        value, gradient = _loss_and_gradient(
            estimator, defense, cfg, patch, frame1, frame2, cached[idx], geometry
        )
        if gradient is None:
            raise _diverged(step, f"loss {value!r}", cfg)
        losses.append(value)
        if not np.all(np.isfinite(gradient)):
            raise _diverged(step, "non-finite gradient", cfg)
        patch = optimizer_step(patch, gradient, cfg)
        # Dropped before the next step records its tape: a gradient that the
        # allocator placed just above the freed solve block would keep the
        # next step's block from reusing its pages (peak RSS +23 MB when
        # training on 64x128 frames).
        del gradient

    return TrainResult(patch=patch, losses=losses)
