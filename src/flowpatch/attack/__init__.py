from .patch import (
    CLIP,
    COV,
    Patch,
    PatchPose,
    circular_validity,
    manual_patch,
    random_patch,
)
from .placement import (
    PlacePatchStage,
    PlacementGeometry,
    place_patch,
    placement_geometry,
    sample_pose,
)
from .losses import (
    AcsLossStage,
    ILP_AWARE,
    LGS_AWARE,
    PatchPenaltyStage,
    VANILLA,
)
from .optimize import (
    IFGSM,
    SGD,
    AttackConfig,
    TrainResult,
    optimizer_step,
    save_patch,
    train_patch,
)

__all__ = [
    "CLIP",
    "COV",
    "Patch",
    "PatchPose",
    "circular_validity",
    "manual_patch",
    "random_patch",
    "PlacePatchStage",
    "PlacementGeometry",
    "place_patch",
    "placement_geometry",
    "sample_pose",
    "AcsLossStage",
    "ILP_AWARE",
    "LGS_AWARE",
    "PatchPenaltyStage",
    "VANILLA",
    "IFGSM",
    "SGD",
    "AttackConfig",
    "TrainResult",
    "optimizer_step",
    "save_patch",
    "train_patch",
]
