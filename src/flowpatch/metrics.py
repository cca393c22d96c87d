"""Endpoint-error metrics and pipeline evaluation.

Quality compares a method's unattacked prediction to the ground truth over
all (valid) pixels; robustness compares the unattacked and attacked
predictions of the same defended method over the pixels outside the patch
footprint.  Lower is better for both.  Both start from the pipeline's
`clean_flows`, which the caller computes once and passes in.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .attack.patch import Patch
from .attack.placement import place_patch, sample_pose
from .core.raster import FlowField, Image, PixelMask
from .defense.pipeline import DefenseConfig, defended_flow
from .flow.horn_schunck import FlowEstimator


def epe(reference: FlowField, flow: FlowField, valid: PixelMask | None = None) -> float:
    """Mean endpoint error; an optional validity mask restricts the mean to
    pixels where ground truth exists (sparse annotations)."""
    if reference.data.shape != flow.data.shape:
        raise ValueError("flow shapes differ")
    errors = np.linalg.norm(reference.data - flow.data, axis=2)
    if valid is None:
        return float(errors.mean())
    keep = valid.data == 1
    if not keep.any():
        raise ValueError("validity mask excludes every pixel")
    return float(errors[keep].mean())


def epe_excl(flow_a: FlowField, flow_b: FlowField, patch_mask: PixelMask) -> float:
    """Mean endpoint error over pixels outside the patch footprint."""
    if flow_a.data.shape != flow_b.data.shape:
        raise ValueError("flow shapes differ")
    outside = patch_mask.data == 0
    if not outside.any():
        raise ValueError("patch mask covers every pixel")
    errors = np.linalg.norm(flow_a.data - flow_b.data, axis=2)
    return float(errors[outside].mean())


@dataclass(frozen=True)
class EvalRecord:
    frame_id: str
    defense: str
    attack: str
    epe_quality: float | None
    epe_robustness: float | None

    def __post_init__(self):
        for value in (self.epe_quality, self.epe_robustness):
            if value is not None and not (np.isfinite(value) and value >= 0):
                raise ValueError(f"metric value {value!r} must be finite and >= 0")


@dataclass(frozen=True)
class EvalFrame:
    """One dataset item for evaluation.  Raises ValueError unless both frames
    have one shape and the ground truth and validity mask their size."""

    frame_id: str
    frame1: Image
    frame2: Image
    ground_truth: FlowField | None = None
    valid: PixelMask | None = None

    def __post_init__(self):
        shape = self.frame1.data.shape
        if self.frame2.data.shape != shape:
            raise ValueError(f"frame2 is {self.frame2.data.shape}, frame1 {shape}")
        for name, item in (("ground truth", self.ground_truth), ("validity mask", self.valid)):
            if item is not None and item.data.shape[:2] != shape[:2]:
                raise ValueError(f"{name} is {item.data.shape[:2]}, frames {shape[:2]}")


@dataclass
class EvalAggregate:
    defense: str
    attack: str
    mean_quality: float | None
    mean_robustness: float | None
    count: int


def clean_flows(
    estimator: FlowEstimator, defense: DefenseConfig | None, frames: Sequence[EvalFrame]
) -> list[FlowField]:
    """The pipeline's clean (unattacked) flow of each frame pair: the
    reference of its quality, its robustness and defence-aware training."""
    return [defended_flow(estimator, defense, f.frame1, f.frame2) for f in frames]


def evaluate_pipeline(
    estimator: FlowEstimator,
    defense: DefenseConfig | None,
    patch: Patch | None,
    dataset: Sequence[EvalFrame],
    clean: Sequence[FlowField],
    seed: int = 0,
    attack_label: str = "none",
) -> tuple[list[EvalRecord], EvalAggregate]:
    """Per frame, given the pipeline's `clean_flows` of `dataset`: quality EPE
    of the clean flow against ground truth (None for a frame without it) and,
    with a patch, robustness EPE outside the footprint between the clean flow
    and the flow of the pair attacked at a pose drawn from a `seed` stream."""
    defense_label = defense.kind if defense is not None else "none"
    rng = np.random.default_rng(seed)
    records = []
    for item, flow_clean in zip(dataset, clean, strict=True):
        quality = None
        if item.ground_truth is not None:
            quality = epe(item.ground_truth, flow_clean, item.valid)

        robustness = None
        if patch is not None:
            pose = sample_pose(rng, patch.side, (item.frame1.height, item.frame1.width))
            attacked1, attacked2, footprint = place_patch(item.frame1, item.frame2, patch, pose)
            flow_attacked = defended_flow(estimator, defense, attacked1, attacked2)
            robustness = epe_excl(flow_clean, flow_attacked, footprint)

        records.append(
            EvalRecord(item.frame_id, defense_label, attack_label, quality, robustness)
        )
    return records, aggregate_records(records, defense_label, attack_label)


def aggregate_records(
    records: Sequence[EvalRecord], defense: str, attack: str
) -> EvalAggregate:
    qualities = [r.epe_quality for r in records if r.epe_quality is not None]
    robustness = [r.epe_robustness for r in records if r.epe_robustness is not None]
    return EvalAggregate(
        defense=defense,
        attack=attack,
        mean_quality=float(np.mean(qualities)) if qualities else None,
        mean_robustness=float(np.mean(robustness)) if robustness else None,
        count=len(records),
    )


def write_records_csv(records: Sequence[EvalRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", "defense", "attack", "quality_epe", "robustness_epe"])
        for r in records:
            writer.writerow(
                [
                    r.frame_id,
                    r.defense,
                    r.attack,
                    format_metric(r.epe_quality),
                    format_metric(r.epe_robustness),
                ]
            )


def format_metric(value: float | None) -> str:
    """A metric as a CSV field: six decimals, empty when missing."""
    return "" if value is None else f"{value:.6f}"
