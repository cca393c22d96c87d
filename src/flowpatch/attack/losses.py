"""Attack objectives: cosine-similarity flow loss and patch smoothness penalties.

The cosine loss averages the per-pixel similarity between the reference and
adversarial flows over pixels outside the patch footprint; minimizing it
drives the adversarial flow toward the inverse of the reference (-1).  The
penalties sum per-channel derivative magnitudes over the valid patch disk and
give the optimizer signal where BPDA zeroes the flow-loss gradient.
"""

from __future__ import annotations

import numpy as np

from ..diff import stencils
from ..diff.stage import Arrays, Stage

EPS_NORM = 1e-9

VANILLA = "vanilla"
LGS_AWARE = "lgs"
ILP_AWARE = "ilp"


class AcsLossStage(Stage):
    """adversarial flow -> scalar mean cosine similarity to a fixed reference.

    Pixels under the excluded mask or with a degenerate norm (< 1e-9) on
    either side contribute zero similarity and zero gradient.
    """

    name = "acs-loss"

    def __init__(self, reference: np.ndarray, excluded: np.ndarray | None = None):
        self.reference = np.asarray(reference, dtype=np.float64)
        h, w = self.reference.shape[:2]
        if excluded is None:
            excluded = np.zeros((h, w))
        self.included = np.asarray(excluded) == 0
        self.count = int(self.included.sum())
        if self.count == 0:
            raise ValueError("excluded mask covers every pixel")

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (adv,) = inputs
        ref = self.reference
        ref_norm = np.linalg.norm(ref, axis=2)
        adv_norm = np.linalg.norm(adv, axis=2)
        ok = (ref_norm >= EPS_NORM) & (adv_norm >= EPS_NORM) & self.included
        dots = (ref * adv).sum(axis=2)
        denom = np.where(ok, ref_norm * adv_norm, 1.0)
        sim = np.where(ok, dots / denom, 0.0)
        ctx.update(adv=adv, adv_norm=adv_norm, ref_norm=ref_norm, ok=ok, sim=sim)
        return (np.asarray(sim.sum() / self.count),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        adv, ok, sim = ctx["adv"], ctx["ok"], ctx["sim"]
        ref_norm = np.where(ok, ctx["ref_norm"], 1.0)
        adv_norm = np.where(ok, ctx["adv_norm"], 1.0)
        grad = self.reference / (ref_norm * adv_norm)[:, :, None] - (
            sim / adv_norm**2
        )[:, :, None] * adv
        grad *= ok[:, :, None]
        return (grad * (float(u) / self.count),)


class PatchPenaltyStage(Stage):
    """patch values -> scalar sum of per-channel derivative magnitudes over the
    valid disk.  order="first" uses the gradient magnitude, order="second" the
    absolute Laplacian; borders are linearly extrapolated so ramps have zero
    curvature.  Subgradient 0 at zero magnitude."""

    def __init__(self, order: str, validity: np.ndarray):
        if order not in ("first", "second"):
            raise ValueError(f"unknown derivative order {order!r}")
        self.order = order
        self.validity = validity.astype(np.float64)
        self.name = f"patch-penalty-{order}"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (values,) = inputs
        total = 0.0
        ctx["per_channel"] = []
        for ch in range(values.shape[2]):
            plane = values[:, :, ch]
            if self.order == "first":
                gx = stencils.diff_x_extrapolated(plane)
                gy = stencils.diff_y_extrapolated(plane)
                mag = np.sqrt(gx * gx + gy * gy)
                ctx["per_channel"].append((gx, gy, mag))
            else:
                lap = stencils.laplacian_extrapolated(plane)
                mag = np.abs(lap)
                ctx["per_channel"].append((lap, mag))
            total += float((mag * self.validity).sum())
        return (np.asarray(total),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        scale = float(u)
        grad = np.zeros(ctx["per_channel"][0][0].shape + (len(ctx["per_channel"]),))
        for ch, saved in enumerate(ctx["per_channel"]):
            if self.order == "first":
                gx, gy, mag = saved
                safe = np.where(mag > 0, mag, 1.0)
                sel = scale * self.validity * (mag > 0) / safe
                grad[:, :, ch] = stencils.diff_x_extrapolated_adjoint(
                    sel * gx
                ) + stencils.diff_y_extrapolated_adjoint(sel * gy)
            else:
                lap, _ = saved
                sel = scale * self.validity * np.sign(lap)
                grad[:, :, ch] = stencils.laplacian_extrapolated_adjoint(sel)
        return (grad,)

