from .stage import ALL, Stage, StageTape, TapeValue, EXACT, BPDA
from .check import grad_check, GradCheckReport
from .elementwise import CovMaterializeStage, AddWeightedStage

__all__ = [
    "ALL",
    "Stage",
    "StageTape",
    "TapeValue",
    "EXACT",
    "BPDA",
    "grad_check",
    "GradCheckReport",
    "CovMaterializeStage",
    "AddWeightedStage",
]
