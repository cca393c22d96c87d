from .dataset import (
    DatasetIndex,
    ingest_dataset,
    load_frames,
    synth_dataset,
)
from .experiment import ExperimentConfig, ExperimentResult, GridCell, run_experiment

__all__ = [
    "DatasetIndex",
    "ingest_dataset",
    "load_frames",
    "synth_dataset",
    "ExperimentConfig",
    "ExperimentResult",
    "GridCell",
    "run_experiment",
]
