from .horn_schunck import (
    FlowEstimator,
    FrameDerivativesStage,
    HornSchunck,
    HornSchunckConfig,
    JacobiIterationStage,
    LuminanceStage,
    PackFlowStage,
)

__all__ = [
    "FlowEstimator",
    "FrameDerivativesStage",
    "HornSchunck",
    "HornSchunckConfig",
    "JacobiIterationStage",
    "LuminanceStage",
    "PackFlowStage",
]
