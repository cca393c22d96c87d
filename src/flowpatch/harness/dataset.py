"""Synthetic frame-pair generation and directory ingestion.

Synthetic scenes are analytic: a tilted brightness plane plus non-overlapping
Gaussian blobs.  Frame 2 evaluates the same analytic layers at rigidly
translated positions (background translation for the plane, per-blob
translations for the blobs), so the ground-truth flow is known exactly and no
resampling error enters.  Directory layout: NNNN_1.ppm, NNNN_2.ppm, optional
NNNN.flo ground truth, optional NNNN_valid.ppm validity mask.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..core.floio import read_flo, write_flo
from ..core.ppm import image_to_mask, read_ppm, write_ppm
from ..core.raster import FlowField, Image
from ..errors import NoFramesError, check_int
from ..metrics import EvalFrame

_FRAME1_RE = re.compile(r"^(\d+)_1\.ppm$")


@dataclass
class DatasetIndex:
    frames: list[EvalFrame] = field(default_factory=list)
    report: list[str] = field(default_factory=list)


def ingest_dataset(root) -> DatasetIndex:
    """Load the frame pairs under `root`, reading each file once; a pair
    whose files are missing or do not parse ("unreadable"), or that
    `EvalFrame` rejects ("rejected"), is skipped and listed in the report."""
    root = Path(root)
    index = DatasetIndex()
    frame1_files = sorted(p for p in root.glob("*_1.ppm") if _FRAME1_RE.match(p.name))
    if not frame1_files:
        index.report.append(f"warning: no frame pairs found under {root}")
        return index
    for frame1 in frame1_files:
        frame_id = _FRAME1_RE.match(frame1.name).group(1)
        frame2 = root / f"{frame_id}_2.ppm"
        if not frame2.exists():
            index.report.append(f"{frame_id}: missing {frame2.name}, pair skipped")
            continue
        gt = root / f"{frame_id}.flo"
        valid = root / f"{frame_id}_valid.ppm"
        try:
            files = (
                read_ppm(frame1),
                read_ppm(frame2),
                read_flo(gt) if gt.exists() else None,
                image_to_mask(read_ppm(valid)) if valid.exists() else None,
            )
        except Exception as exc:  # noqa: BLE001 - report and skip bad pairs
            index.report.append(f"{frame_id}: unreadable ({exc}), pair skipped")
            continue
        try:
            index.frames.append(EvalFrame(frame_id, *files))
        except ValueError as exc:
            index.report.append(f"{frame_id}: rejected ({exc}), pair skipped")
    return index


def load_dataset(root) -> DatasetIndex:
    """`ingest_dataset(root)`; raises NoFramesError, whose message is the
    report and "no frame pairs found", unless a pair loads."""
    index = ingest_dataset(root)
    if not index.frames:
        raise NoFramesError("\n".join([*index.report, "no frame pairs found"]))
    return index


def load_frames(index: DatasetIndex) -> list[EvalFrame]:
    """The frames `ingest_dataset` loaded."""
    return index.frames


def _scene(height: int, width: int, rng: np.random.Generator):
    """Analytic layers: (plane params, blob list, background and blob motions)."""
    # ranges keep every rendered value inside [0.05, 0.95] by construction
    base = rng.uniform(0.45, 0.55)
    slope_x = rng.uniform(-0.06, 0.06)
    slope_y = rng.uniform(-0.06, 0.06)
    background = np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2)])

    blobs = []
    n_blobs = int(rng.integers(2, 5))
    for _ in range(n_blobs):
        for _attempt in range(40):
            sigma = rng.uniform(4.0, 9.0)
            cy = rng.uniform(8.0, height - 8.0)
            cx = rng.uniform(8.0, width - 8.0)
            if all((cy - b["cy"]) ** 2 + (cx - b["cx"]) ** 2 > (2.5 * (sigma + b["sigma"])) ** 2 for b in blobs):
                break
        else:
            continue
        amp = rng.uniform(0.12, 0.26) * (1 if rng.uniform() < 0.5 else -1)
        delta = np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)])
        blobs.append(
            {"cy": cy, "cx": cx, "sigma": sigma, "amp": amp, "motion": background + delta}
        )
    tints = rng.uniform(-0.02, 0.02, 3)
    return base, slope_x, slope_y, background, blobs, tints


def _render(height, width, base, slope_x, slope_y, blobs, tints, shift_bg, shifted_blobs):
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    plane = (
        base
        + slope_x * (xx - shift_bg[0]) / width
        + slope_y * (yy - shift_bg[1]) / height
    )
    luma = plane
    for blob, offset in zip(blobs, shifted_blobs):
        cy, cx = blob["cy"] + offset[1], blob["cx"] + offset[0]
        luma = luma + blob["amp"] * np.exp(
            -(((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * blob["sigma"] ** 2))
        )
    data = luma[:, :, None] + tints[None, None, :]
    return Image(np.clip(data, 0.0, 1.0))


def check_synth(count: int, height: int, width: int, seed: int) -> None:
    """Raise TypeError for an argument that is not an integer and ValueError
    for one out of range: the arguments `synth_dataset` rejects."""
    for name, value in (("count", count), ("height", height), ("width", width), ("seed", seed)):
        check_int(name, value)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if height < 24 or width < 24:
        raise ValueError("frames must be at least 24x24 to leave patch margin")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def synth_dataset(count: int, height: int, width: int, seed: int, out_dir) -> Path:
    """Write `count` deterministic scenes with exact ground-truth flow; the
    arguments are checked (`check_synth`) before anything is written."""
    check_synth(count, height, width, seed)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        base, sx, sy, background, blobs, tints = _scene(height, width, rng)
        zero = np.zeros(2)
        frame1 = _render(
            height, width, base, sx, sy, blobs, tints, zero, [zero] * len(blobs)
        )
        frame2 = _render(
            height,
            width,
            base,
            sx,
            sy,
            blobs,
            tints,
            background,
            [b["motion"] for b in blobs],
        )
        flow = np.empty((height, width, 2))
        flow[:, :] = background
        yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
        for blob in blobs:
            region = (yy - blob["cy"]) ** 2 + (xx - blob["cx"]) ** 2 <= (
                2.5 * blob["sigma"]
            ) ** 2
            flow[region] = blob["motion"]
        write_ppm(frame1, out_dir / f"{i:04d}_1.ppm")
        write_ppm(frame2, out_dir / f"{i:04d}_2.ppm")
        write_flo(FlowField(flow), out_dir / f"{i:04d}.flo")
    return out_dir
