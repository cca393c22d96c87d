from .maps import (
    GradientMagnitudeStage,
    NormalizeMapStage,
    gradient_magnitude,
    normalize_map,
)
from .voting import (
    BlockVoteStage,
    IlpReevaluateStage,
    block_starts,
    block_vote_mask,
    ilp_reevaluate,
)
from .smoothing import SmoothingFactorStage, DarkenStage, lgs_smooth
from .inpaint import TeleaInpaintStage, telea_inpaint, telea_inpaint_array
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
    "gradient_magnitude",
    "normalize_map",
    "BlockVoteStage",
    "IlpReevaluateStage",
    "block_starts",
    "block_vote_mask",
    "ilp_reevaluate",
    "SmoothingFactorStage",
    "DarkenStage",
    "lgs_smooth",
    "TeleaInpaintStage",
    "telea_inpaint",
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
