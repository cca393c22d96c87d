"""Compositing a patch into a frame pair under a rotation/scale/translation pose.

The pose maps patch coordinates to frame coordinates; compositing inverts it
per output pixel and bilinearly samples the patch.  A pixel receives patch
content when its pre-image lies strictly inside the circular validity disk
and the bilinear support is available; everything else keeps the original
frame value bit-for-bit.  The same pose is applied to both frames, so the
patch's true motion is zero.  Sampling is linear in the patch values, giving
an exact backward pass to them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.raster import Image, PixelMask
from ..diff.stage import Arrays, Stage, support_union, support_where
from ..errors import PlacementError
from .patch import Patch, PatchPose


@dataclass(frozen=True)
class PlacementGeometry:
    """Precomputed sampling data for one (pose, patch side, frame shape)."""

    frame_shape: tuple[int, int]
    rows: np.ndarray  # valid frame pixel rows
    cols: np.ndarray  # valid frame pixel cols
    corner_r: np.ndarray  # floor patch row per valid pixel
    corner_c: np.ndarray
    frac_r: np.ndarray
    frac_c: np.ndarray
    mask: np.ndarray  # HxW float footprint

    @property
    def weights(self) -> tuple[np.ndarray, ...]:
        fr, fc = self.frac_r, self.frac_c
        return ((1 - fr) * (1 - fc), (1 - fr) * fc, fr * (1 - fc), fr * fc)


def placement_geometry(
    pose: PatchPose, side: int, frame_shape: tuple[int, int]
) -> PlacementGeometry:
    h, w = frame_shape
    radius = pose.radius(side)
    cr, cc = pose.center
    if cr - radius < 0 or cr + radius > h - 1 or cc - radius < 0 or cc + radius > w - 1:
        raise PlacementError(
            f"footprint of radius {radius:.2f} at ({cr:.1f}, {cc:.1f}) "
            f"exceeds the {h}x{w} frame"
        )

    r_lo, r_hi = max(0, int(np.floor(cr - radius)) - 1), min(h, int(np.ceil(cr + radius)) + 2)
    c_lo, c_hi = max(0, int(np.floor(cc - radius)) - 1), min(w, int(np.ceil(cc + radius)) + 2)
    yy, xx = np.mgrid[r_lo:r_hi, c_lo:c_hi]

    theta = np.deg2rad(pose.rotation)
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    pc = (side - 1) / 2.0
    dy, dx = (yy - cr) / pose.scale, (xx - cc) / pose.scale
    # Inverse rotation of the pose about the patch center.
    pr = cos_t * dy + sin_t * dx + pc
    pcol = -sin_t * dy + cos_t * dx + pc

    inside_circle = (pr - pc) ** 2 + (pcol - pc) ** 2 < (side / 2.0) ** 2
    supported = (pr >= 0) & (pr <= side - 1) & (pcol >= 0) & (pcol <= side - 1)
    valid = inside_circle & supported

    rows = yy[valid]
    cols = xx[valid]
    pr, pcol = pr[valid], pcol[valid]
    corner_r = np.floor(pr).astype(int)
    corner_c = np.floor(pcol).astype(int)
    frac_r = pr - corner_r
    frac_c = pcol - corner_c

    mask = np.zeros((h, w))
    mask[rows, cols] = 1.0
    return PlacementGeometry(
        (h, w), rows, cols, corner_r, corner_c, frac_r, frac_c, mask
    )


def _sample(geometry: PlacementGeometry, values: np.ndarray) -> np.ndarray:
    side = values.shape[0]
    r0, c0 = geometry.corner_r, geometry.corner_c
    r1 = np.minimum(r0 + 1, side - 1)
    c1 = np.minimum(c0 + 1, side - 1)
    w00, w01, w10, w11 = geometry.weights
    return (
        w00[:, None] * values[r0, c0]
        + w01[:, None] * values[r0, c1]
        + w10[:, None] * values[r1, c0]
        + w11[:, None] * values[r1, c1]
    )


def _scatter(geometry: PlacementGeometry, side: int, cotangent: np.ndarray) -> np.ndarray:
    grad = np.zeros((side, side, 3))
    r0, c0 = geometry.corner_r, geometry.corner_c
    r1 = np.minimum(r0 + 1, side - 1)
    c1 = np.minimum(c0 + 1, side - 1)
    pulled = cotangent[geometry.rows, geometry.cols]
    for w, rr, cc in zip(geometry.weights, (r0, r0, r1, r1), (c0, c1, c0, c1)):
        np.add.at(grad, (rr, cc), w[:, None] * pulled)
    return grad


class PlacePatchStage(Stage):
    """(frame1, frame2, patch values) -> composited frames; exact backward.
    Support: the footprint's pixels in both frames if the patch values are
    active, and each frame's own pixels outside the footprint."""

    name = "place-patch"

    def __init__(self, geometry: PlacementGeometry, side: int):
        self.geometry = geometry
        self.side = side

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        frame1, frame2, values = inputs
        g = self.geometry
        sampled = _sample(g, values)
        out1, out2 = frame1.copy(), frame2.copy()
        out1[g.rows, g.cols] = sampled
        out2[g.rows, g.cols] = sampled
        return (out1, out2)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        u1, u2 = cotangents
        g = self.geometry
        covered = (g.mask != 0)[:, :, None]
        d_patch = _scatter(g, self.side, u1) + _scatter(g, self.side, u2)
        return (np.where(covered, 0.0, u1), np.where(covered, 0.0, u2), d_patch)

    def support(self, ctx, needed):
        *frames, values = needed
        covered = self.geometry.mask != 0
        patch = covered if values is not None else None
        return tuple(support_union(support_where(f, ~covered), patch) for f in frames)


def place_patch(
    frame1: Image, frame2: Image, patch: Patch, pose: PatchPose
) -> tuple[Image, Image, PixelMask]:
    geometry = placement_geometry(pose, patch.side, (frame1.height, frame1.width))
    stage = PlacePatchStage(geometry, patch.side)
    out1, out2 = stage(frame1.data, frame2.data, patch.materialize())
    return Image(out1), Image(out2), PixelMask(geometry.mask)


MAX_SCALE = 1.05


def check_fit(side: int, frame_shape: tuple[int, int]) -> None:
    """Raise PlacementError unless `side` >= 1 and a patch of that side fits
    the frame at every scale `sample_pose` draws, up to `MAX_SCALE`."""
    h, w = frame_shape
    if side < 1 or MAX_SCALE * side > min(h, w) - 1:
        raise PlacementError(f"patch side {side} cannot fit a {h}x{w} frame")


def sample_pose(
    rng: np.random.Generator, side: int, frame_shape: tuple[int, int]
) -> PatchPose:
    """Training/evaluation jitter: uniform center over all feasible positions,
    rotation in [-10, 10] degrees, scale in [0.95, 1.05].  The fit is checked
    before anything is drawn, so a side fits on every draw or on none."""
    check_fit(side, frame_shape)
    h, w = frame_shape
    scale = float(rng.uniform(0.95, MAX_SCALE))
    rotation = float(rng.uniform(-10.0, 10.0))
    radius = scale * side / 2.0
    row = float(rng.uniform(radius, h - 1 - radius))
    col = float(rng.uniform(radius, w - 1 - radius))
    return PatchPose((row, col), rotation, scale)
