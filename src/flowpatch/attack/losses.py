"""Attack objectives: cosine-similarity flow loss and patch smoothness penalties.

The cosine loss averages the per-pixel similarity between the reference and
adversarial flows over pixels outside the patch footprint; minimizing it
drives the adversarial flow toward the inverse of the reference (-1).  The
penalties sum per-channel derivative magnitudes over the valid patch disk and
give the optimizer signal where BPDA zeroes the flow-loss gradient; they use
the same derivative-magnitude operator as the defense maps, with the
extrapolate pad instead of the replicate one.
"""

from __future__ import annotations

import numpy as np

from ..defense.pipeline import ILP, LGS, NO_DEFENSE
from ..diff import stencils
from ..diff.stage import Arrays, Stage

EPS_NORM = 1e-9

VANILLA = "vanilla"
# A defense-aware attack is named after the defense it trains against.
LGS_AWARE = LGS
ILP_AWARE = ILP
# The defense each attack awareness trains against.
AWARENESS_DEFENSE = {VANILLA: NO_DEFENSE, LGS_AWARE: LGS, ILP_AWARE: ILP}


class AcsLossStage(Stage):
    """adversarial flow -> scalar mean cosine similarity to a fixed reference.

    Pixels under the excluded mask or with a degenerate norm (< 1e-9) on
    either side contribute zero similarity and zero gradient.
    """

    name = "acs-loss"

    def __init__(self, reference: np.ndarray, excluded: np.ndarray):
        self.reference = np.asarray(reference, dtype=np.float64)
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
    absolute Laplacian (`stencils.derivative_magnitude` on all channels at
    once); the extrapolate pad continues the borders linearly, so ramps have
    zero curvature.  Subgradient 0 at zero magnitude."""

    def __init__(self, order: str, validity: np.ndarray):
        self.order = stencils.check_order(order)
        self.validity = validity.astype(np.float64)
        self.name = f"patch-penalty-{order}"

    def forward(self, ctx, inputs: Arrays) -> Arrays:
        (values,) = inputs
        mag, ctx["saved"] = stencils.derivative_magnitude(values, self.order, "extrapolate")
        # One sum per channel, added in channel order: a single sum over all
        # three axes would round differently.
        total = sum(float((mag[:, :, ch] * self.validity).sum()) for ch in range(mag.shape[2]))
        return (np.asarray(total),)

    def backward(self, ctx, cotangents: Arrays) -> Arrays:
        (u,) = cotangents
        weight = float(u) * self.validity[:, :, None]
        saved = ctx["saved"]
        return (stencils.derivative_magnitude_adjoint(weight, self.order, "extrapolate", saved),)
