from .maps import GradientMagnitudeStage, NormalizeMapStage
from .voting import BlockVoteStage, IlpReevaluateStage, block_starts
from .smoothing import SmoothingFactorStage, DarkenStage
from .inpaint import TeleaInpaintStage, telea_inpaint_array
from .pipeline import (
    DefenseConfig,
    LGS,
    ILP,
    defend,
    defend_on_tape,
    defended_flow,
    lgs_config,
    ilp_config,
)

__all__ = [
    "GradientMagnitudeStage",
    "NormalizeMapStage",
    "BlockVoteStage",
    "IlpReevaluateStage",
    "block_starts",
    "SmoothingFactorStage",
    "DarkenStage",
    "TeleaInpaintStage",
    "telea_inpaint_array",
    "DefenseConfig",
    "LGS",
    "ILP",
    "defend",
    "defend_on_tape",
    "defended_flow",
    "lgs_config",
    "ilp_config",
]
