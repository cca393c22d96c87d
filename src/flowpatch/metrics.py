"""Endpoint-error metrics, the two scoring passes and the CSV writer.

Quality compares a method's unattacked prediction to the ground truth over
all (valid) pixels; robustness compares the unattacked and attacked
predictions of the same defended method over the pixels outside the patch
footprint.  Lower is better for both.  Scoring is two passes, and each
keeps what it computes.  `clean_flows` runs a pipeline once per frame and
returns a `CleanRecord`: the clean flow, the defense's final masks of both
clean frames and the quality.  `evaluate_pipeline` takes those records and
a patch and returns a `ScoredRecord` per (frame, pose): the robustness, the
patch footprint and the defense's final masks of both attacked frames.
`mean_epe` averages a column of either; labelling and writing the values is
the caller's, through `format_metric` and `write_csv`, the one writer of
every CSV flowpatch produces.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

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
class EvalFrame:
    """One dataset item for evaluation.  Raises ValueError unless both frames
    have one shape, the ground truth and validity mask their size, and the
    validity mask keeps at least one pixel."""

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
        if self.valid is not None and not self.valid.data.any():
            raise ValueError("validity mask excludes every pixel")


class CleanRecord(NamedTuple):
    """A pipeline's pass over one unattacked pair: its flow, the defense's
    final masks of frame 1 and frame 2 (None without a defense) and the
    quality EPE (None for a frame without ground truth)."""

    flow: FlowField
    masks: tuple[PixelMask, PixelMask] | None
    quality: float | None


class ScoredRecord(NamedTuple):
    """A patch scored on one pair at one pose: the robustness EPE, the
    footprint, and the defense's final masks of both attacked frames (None
    without a defense)."""

    robustness: float
    footprint: PixelMask
    masks: tuple[PixelMask, PixelMask] | None


def clean_flows(
    estimator: FlowEstimator, defense: DefenseConfig | None, frames: Sequence[EvalFrame]
) -> list[CleanRecord]:
    """One `CleanRecord` per frame: the pipeline's clean flow, the reference
    of its robustness and of defense-aware training, with its masks and
    quality."""
    records = []
    for item in frames:
        flow, masks = defended_flow(estimator, defense, item.frame1, item.frame2)
        quality = None if item.ground_truth is None else epe(item.ground_truth, flow, item.valid)
        records.append(CleanRecord(flow, masks, quality))
    return records


def evaluate_pipeline(
    estimator: FlowEstimator,
    defense: DefenseConfig | None,
    patch: Patch,
    frames: Sequence[EvalFrame],
    clean: Sequence[CleanRecord],
    seed: int = 0,
) -> list[ScoredRecord]:
    """One `ScoredRecord` per frame, given the pipeline's `clean_flows` of
    `frames`: the pair attacked at a pose drawn from a `seed` stream, one
    pose per frame in order, and scored against the clean flow."""
    rng = np.random.default_rng(seed)
    records = []
    for item, reference in zip(frames, clean, strict=True):
        pose = sample_pose(rng, patch.side, (item.frame1.height, item.frame1.width))
        attacked1, attacked2, footprint = place_patch(item.frame1, item.frame2, patch, pose)
        flow, masks = defended_flow(estimator, defense, attacked1, attacked2)
        records.append(ScoredRecord(epe_excl(reference.flow, flow, footprint), footprint, masks))
    return records


def mean_epe(values: Iterable[float | None]) -> float | None:
    """Mean of the values that are not None; None when none are."""
    present = [v for v in values if v is not None]
    return float(np.mean(present)) if present else None


def format_metric(value: float | None) -> str:
    """A metric as a CSV field: six decimals, empty when missing."""
    return "" if value is None else f"{value:.6f}"


def write_csv(path: str | Path, header: str, rows: Iterable[Sequence]) -> None:
    """Write a CSV under the comma-joined column names `header`, one line per
    row, with LF line endings; a field is quoted only where it holds a comma,
    a quote or a line break."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    writer.writerows(rows)
    Path(path).write_text(buf.getvalue())
