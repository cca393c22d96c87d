from .maps import GradientMagnitudeStage
from .voting import BlockVoteStage, IlpReevaluateStage, block_starts
from .smoothing import LgsSmoothStage
from .inpaint import TeleaInpaintStage, telea_inpaint_array
from .pipeline import (
    DefenseConfig,
    LGS,
    ILP,
    defend,
    defend_on_tape,
    defend_pair,
    defend_pair_on_tape,
    defended_flow,
    lgs_config,
    ilp_config,
)

__all__ = [
    "GradientMagnitudeStage",
    "BlockVoteStage",
    "IlpReevaluateStage",
    "block_starts",
    "LgsSmoothStage",
    "TeleaInpaintStage",
    "telea_inpaint_array",
    "DefenseConfig",
    "LGS",
    "ILP",
    "defend",
    "defend_on_tape",
    "defend_pair",
    "defend_pair_on_tape",
    "defended_flow",
    "lgs_config",
    "ilp_config",
]
