"""Detect-and-remove defense pipelines and their tape (BPDA) form.

Each step is one stage.  LGS: normalized first-order map -> block vote ->
multiplicative darkening of voted pixels.  ILP: normalized second-order map
-> block vote -> pixel-wise reevaluation -> fast-marching inpainting of
surviving pixels.  A defended pipeline defends each frame, then estimates
flow on the pair.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.raster import FlowField, Image, PixelMask
from ..diff.stage import StageTape, TapeValue
from ..errors import PlacementError, check_int
from ..flow.horn_schunck import FlowEstimator
from .inpaint import TeleaInpaintStage
from .maps import GradientMagnitudeStage
from .smoothing import LgsSmoothStage
from .voting import BlockVoteStage, IlpReevaluateStage

NO_DEFENSE = "none"
LGS = "lgs"
ILP = "ilp"
# The derivative order each defense scores on; an attack aware of a defense
# penalizes its patch with the same order.
DERIVATIVE_ORDER = {LGS: "first", ILP: "second"}
# Every defense and the DefenseConfig fields it reads, checked by
# `defense_config` only.
DEFENSE_FIELDS = {
    NO_DEFENSE: (),
    LGS: ("block", "overlap", "threshold", "b_lgs"),
    ILP: ("block", "overlap", "threshold", "s_ilp", "t_ilp", "r_telea"),
}
DEFENSES = tuple(DEFENSE_FIELDS)


@dataclass(frozen=True)
class DefenseConfig:
    """Hyperparameters for either defense; defaults are the tuned values
    (K=16, O=8, t=0.15, t_ilp=0.5, s_ilp=15, b_lgs=15, r_telea=5)."""

    kind: str
    block: int = 16
    overlap: int = 8
    threshold: float = 0.15
    b_lgs: float = 15.0
    s_ilp: float = 15.0
    t_ilp: float = 0.5
    r_telea: int = 5

    def __post_init__(self):
        if self.kind not in (LGS, ILP):
            raise ValueError(f"unknown defense kind {self.kind!r}")
        for name in ("block", "overlap", "r_telea"):
            check_int(name, getattr(self, name))
        if not 0 < self.overlap < self.block:
            raise ValueError("block overlap must satisfy 0 < O < K")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("vote threshold must lie in [0, 1]")
        if not 0.0 <= self.t_ilp <= 1.0:
            raise ValueError("t_ilp must lie in [0, 1]")
        for name, value in (("b_lgs", self.b_lgs), ("s_ilp", self.s_ilp)):
            if not 0 < value < float("inf"):  # NaN too
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.r_telea < 1:
            raise ValueError("r_telea must be >= 1")


class UnreadFieldError(ValueError):
    """A defense was given a field that it does not read."""

    def __init__(self, defense: str, field: str):
        super().__init__(f"defense {defense!r} does not read {field!r}")
        self.field = field


def defense_config(name: str, **fields) -> DefenseConfig | None:
    """Defense `name` with the given `DefenseConfig` fields, None for "none"; ValueError
    for an unknown name or invalid value, UnreadFieldError for a field it does not read."""
    if name not in DEFENSE_FIELDS:
        raise ValueError(f"unknown defense {name!r}, expected one of {', '.join(DEFENSES)}")
    for key in fields:
        if key not in DEFENSE_FIELDS[name]:
            raise UnreadFieldError(name, key)
    return None if name == NO_DEFENSE else DefenseConfig(name, **fields)


def check_block(cfg: DefenseConfig | None, frame_shape: tuple[int, int]) -> None:
    """Raise PlacementError unless the defense's voting blocks fit a frame
    of `frame_shape`; no defense fits every frame."""
    h, w = frame_shape
    if cfg is not None and cfg.block > min(h, w):
        raise PlacementError(f"defense block {cfg.block} cannot fit a {h}x{w} frame")


def lgs_config(**overrides) -> DefenseConfig:
    return DefenseConfig(kind=LGS, **overrides)


def ilp_config(**overrides) -> DefenseConfig:
    return DefenseConfig(kind=ILP, **overrides)


def defend_on_tape(tape: StageTape, image: TapeValue, cfg: DefenseConfig):
    """Record the defense's forward pass on a tape (BPDA surrogates included).

    Returns (defended image value, final mask value).
    """
    gbar = tape.apply(GradientMagnitudeStage(DERIVATIVE_ORDER[cfg.kind]), image)
    mask = tape.apply(BlockVoteStage(cfg.block, cfg.overlap, cfg.threshold), gbar)
    if cfg.kind == LGS:
        return tape.apply(LgsSmoothStage(cfg.b_lgs), gbar, mask, image), mask
    final_mask = tape.apply(IlpReevaluateStage(cfg.s_ilp, cfg.t_ilp), mask, gbar)
    defended = tape.apply(TeleaInpaintStage(cfg.r_telea), image, final_mask)
    return defended, final_mask


def defend(image: Image, cfg: DefenseConfig) -> tuple[Image, PixelMask]:
    """Apply a defense outside any tape; returns (defended image, final mask)."""
    tape = StageTape()
    defended, mask = defend_on_tape(tape, tape.constant(image.data), cfg)
    return Image(defended.array), PixelMask(mask.array)


def defended_flow(
    estimator: FlowEstimator,
    defense: DefenseConfig | None,
    frame1: Image,
    frame2: Image,
) -> tuple[FlowField, tuple[PixelMask, PixelMask] | None]:
    """Flow of a pair through the pipeline, all outside any tape: both frames
    defended (when there is a defense), then the estimator.  Returns the flow
    and the two frames' final masks from `defend`, None without a defense."""
    if defense is None:
        return estimator.estimate(frame1, frame2), None
    (frame1, mask1), (frame2, mask2) = defend(frame1, defense), defend(frame2, defense)
    return estimator.estimate(frame1, frame2), (mask1, mask2)
