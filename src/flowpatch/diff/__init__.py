from .stage import Stage, StageTape, TapeValue, EXACT, BPDA
from .check import grad_check, GradCheckReport
from .elementwise import (
    ScaleStage,
    ClipStage,
    CovMaterializeStage,
    AddWeightedStage,
)

__all__ = [
    "Stage",
    "StageTape",
    "TapeValue",
    "EXACT",
    "BPDA",
    "grad_check",
    "GradCheckReport",
    "ScaleStage",
    "ClipStage",
    "CovMaterializeStage",
    "AddWeightedStage",
]
