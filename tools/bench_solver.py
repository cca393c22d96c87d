"""Time and measure `HornSchunckSolveStage` in one source tree.

    python tools/bench_solver.py [--src SRC] [--label change]
                                 [--out BENCH_solver.json] [--repeats 7]

Run from the repository root.  `--src` is the `src` directory of the tree to
time (default: this checkout's), so a before/after pair is two runs of this
script on the same machine, one with `--src` pointing at a checkout of the
older commit.  The flags and the entry file are those of `bench_common.py`.

For each size the inputs are the frame derivatives of the first pair of
`synth_dataset(1, h, w, seed=7, ...)`, the scene the benchmark's workloads
use, solved with 200 iterations.  Forward, backward and `solve` times are
the best of `--repeats` calls; the tape memory is what the forward's context
holds (tracemalloc, output flow included) and the backward's the peak above
that.  `train_step_s` is the best of `--repeats` one-step vanilla
`train_patch` calls (patch side 24, I-FGSM, `clip`) on the same pair with
its reference flow given, so it times placement, the solve on a tape, the
loss and the backward that training runs, through APIs every version of
the tree has.  Before timing anything the script checks that the stage's flow and
both frame gradients equal the per-iteration chain of `tests/hs_oracle.py`
bit for bit, and exits non-zero if they do not.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from bench_common import SCENE_SEED, best_of, parse_args, scene, write_entry

SIZES = ((64, 128), (128, 256))
ITERATIONS = 200
ALPHA = 15.0
PATCH_SIDE = 24


def check_oracle() -> None:
    """Exit unless the fused stage reproduces the oracle chain bit for bit."""
    from flowpatch.diff import StageTape
    from flowpatch.flow import HornSchunck, HornSchunckConfig
    from hs_oracle import oracle_flow_on_tape

    rng = np.random.default_rng(10)
    frames = [rng.uniform(0, 1, (13, 21, 3)) for _ in range(2)]
    cot = rng.standard_normal((13, 21, 2))
    est = HornSchunck(HornSchunckConfig(alpha=ALPHA, iterations=ITERATIONS))
    results = []
    for forward in (
        est.forward_on_tape,
        lambda tape, a, b: oracle_flow_on_tape(tape, a, b, ALPHA, ITERATIONS),
    ):
        tape = StageTape()
        v1, v2 = tape.source(frames[0]), tape.source(frames[1])
        flow = forward(tape, v1, v2)
        tape.backward(flow, cot)
        results.append([flow.array, tape.grad(v1), tape.grad(v2)])
    for name, got, want in zip(("flow", "frame-1 gradient", "frame-2 gradient"), *results):
        if got.tobytes() != want.tobytes():
            raise SystemExit(f"13x21: the solve stage's {name} differs from tests/hs_oracle.py")


def derivatives(h: int, w: int):
    from flowpatch.flow import FrameDerivativesStage, LuminanceStage

    pair = scene(h, w)
    g1, g2 = LuminanceStage()(pair.frame1.data), LuminanceStage()(pair.frame2.data)
    return FrameDerivativesStage()(g1, g2)


def train_step_s(h: int, w: int, repeats: int) -> float:
    """Best time of one vanilla training step with the reference flow given."""
    from flowpatch.attack import AttackConfig, train_patch
    from flowpatch.flow import HornSchunck, HornSchunckConfig

    pair = scene(h, w)
    estimator = HornSchunck(HornSchunckConfig(alpha=ALPHA, iterations=ITERATIONS))
    dataset = [(pair.frame1, pair.frame2)]
    references = [estimator.estimate(pair.frame1, pair.frame2)]
    cfg = AttackConfig(steps=1, seed=SCENE_SEED)
    return best_of(
        lambda: train_patch(estimator, None, dataset, cfg, PATCH_SIDE, references), repeats
    )


def bench_size(h: int, w: int, repeats: int) -> dict:
    from flowpatch.flow import HornSchunckSolveStage

    inputs = derivatives(h, w)
    cot = np.random.default_rng(SCENE_SEED).standard_normal((h, w, 2))
    stage = HornSchunckSolveStage(ALPHA, ITERATIONS)
    forward_s = backward_s = float("inf")
    for _ in range(repeats):
        ctx = {}
        start = time.perf_counter()
        stage.forward(ctx, inputs)
        middle = time.perf_counter()
        stage.backward(ctx, (cot,))
        forward_s = min(forward_s, middle - start)
        backward_s = min(backward_s, time.perf_counter() - middle)
    del ctx
    solve_s = best_of(lambda: stage.solve(*inputs), repeats)
    ctx = {}
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        stage.forward(ctx, inputs)
        held = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        stage.backward(ctx, (cot,))
        backward_peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    return {
        "size": f"{h}x{w}",
        "forward_s": round(forward_s, 5),
        "backward_s": round(backward_s, 5),
        "solve_s": round(solve_s, 5),
        "tape_mb": round(held / 1e6, 3),
        "backward_peak_mb": round(backward_peak / 1e6, 3),
        "train_step_s": round(train_step_s(h, w, repeats), 5),
    }


def main(argv=None) -> None:
    args = parse_args(__doc__, "BENCH_solver.json", argv)
    check_oracle()
    write_entry(
        args,
        f"HornSchunckSolveStage(alpha={ALPHA:g}, iterations={ITERATIONS}) "
        f"on the frame derivatives of synth_dataset(1, h, w, seed={SCENE_SEED}). "
        "Time: best of `repeats` calls. Memory: tracemalloc, what the "
        "forward's context holds and the backward's peak above it. "
        f"train_step_s: one vanilla train_patch step, patch side {PATCH_SIDE}, "
        "reference flow given",
        [bench_size(h, w, args.repeats) for h, w in SIZES],
    )


if __name__ == "__main__":
    main()
