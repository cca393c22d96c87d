"""Central finite-difference verification of stage VJPs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stage import ALL, EXACT, Stage


@dataclass
class GradCheckReport:
    stage: str
    max_rel_error: float
    tol: float
    n_coords: int

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def grad_check(
    stage: Stage,
    inputs,
    h: float = 1e-4,
    tol: float = 1e-4,
    max_coords: int = 64,
    rng: np.random.Generator | None = None,
) -> GradCheckReport:
    """Compare stage.backward against central differences of stage.forward.

    Inputs must sit strictly inside any non-smooth kink by a margin larger
    than h.  At most `max_coords` coordinates are probed per input tensor,
    chosen by a seeded generator.  Relative error uses max(1, |fd|) in the
    denominator.  Only meaningful for gradient_kind="exact" stages.  Each
    forward, the VJP's and every probe's, is given `ALL` for each input in
    `ctx["needed"]`, as on a tape of sources.
    """
    if stage.gradient_kind != EXACT:
        raise ValueError(f"{stage.name}: finite differences only check exact stages")
    rng = rng or np.random.default_rng(0)
    if isinstance(inputs, np.ndarray):
        inputs = (inputs,)
    xs = [np.array(x, dtype=np.float64) for x in inputs]

    needed = (ALL,) * len(xs)
    ctx: dict = {"needed": needed}
    outputs = stage.forward(ctx, tuple(xs))
    cotangents = tuple(rng.standard_normal(o.shape) for o in outputs)
    vjps = stage.backward(ctx, cotangents)

    def objective(probe_xs) -> float:
        outs = stage.forward({"needed": needed}, tuple(probe_xs))
        return float(sum(np.sum(u * o) for u, o in zip(cotangents, outs)))

    max_rel = 0.0
    n_checked = 0
    for k, x in enumerate(xs):
        flat = x.reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords else rng.choice(n, max_coords, False)
        for c in coords:
            bump = np.zeros(n)
            bump[c] = h
            plus = [q.copy() for q in xs]
            minus = [q.copy() for q in xs]
            plus[k] = (flat + bump).reshape(x.shape)
            minus[k] = (flat - bump).reshape(x.shape)
            fd = (objective(plus) - objective(minus)) / (2.0 * h)
            vjp = float(np.asarray(vjps[k]).reshape(-1)[c])
            rel = abs(vjp - fd) / max(1.0, abs(fd))
            max_rel = max(max_rel, rel)
            n_checked += 1
    return GradCheckReport(stage.name, max_rel, tol, n_checked)
