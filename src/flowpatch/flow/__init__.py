from .horn_schunck import (
    FlowEstimator,
    FrameDerivativesStage,
    HornSchunck,
    HornSchunckConfig,
    HornSchunckSolveStage,
    LuminanceStage,
)

__all__ = [
    "FlowEstimator",
    "FrameDerivativesStage",
    "HornSchunck",
    "HornSchunckConfig",
    "HornSchunckSolveStage",
    "LuminanceStage",
]
