"""Time and measure the scalar Telea oracle against `telea_inpaint_array`.

    python tools/bench_telea.py [--out BENCH_telea.json] [--repeats 7]

Run from the repository root.  The oracle (`tests/telea_oracle.py`) is the
scalar loop that the vectorised path replaced, so its columns are the
"before" and the vectorised ones the "after".  For each size the inputs are
the ILP-flagged masks of both frames of `synth_dataset(1, h, w, seed=7, ...)`,
the scene the benchmark's workloads use, inpainted with the default radius.
Each implementation's time is the best of `--repeats` calls per frame, summed
over the two frames, and its memory the tracemalloc peak of one call on frame
1; the outputs must be bit-identical.  Results and machine information are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from flowpatch.defense import defend, ilp_config, telea_inpaint_array  # noqa: E402
from flowpatch.harness import ingest_dataset, synth_dataset  # noqa: E402
from telea_oracle import telea_oracle  # noqa: E402

SIZES = ((32, 64), (64, 128), (128, 256))
SCENE_SEED = 7


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def bench_size(h: int, w: int, radius: int, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        frames = ingest_dataset(synth_dataset(1, h, w, SCENE_SEED, tmp)).frames
    pair = (frames[0].frame1, frames[0].frame2)
    images = [frame.data for frame in pair]
    masks = [defend(frame, ilp_config())[1].data for frame in pair]
    oracle_s = new_s = 0.0
    for image, mask in zip(images, masks):
        before, after = telea_oracle(image, mask, radius), telea_inpaint_array(image, mask, radius)
        if before.tobytes() != after.tobytes():
            raise SystemExit(f"{h}x{w}: telea_inpaint_array differs from the oracle")
        oracle_s += best_of(lambda: telea_oracle(image, mask, radius), repeats)
        new_s += best_of(lambda: telea_inpaint_array(image, mask, radius), repeats)
    return {
        "size": f"{h}x{w}",
        "inpainted_px": int(sum(np.count_nonzero(m > 0) for m in masks)),
        "oracle_s": round(oracle_s, 5),
        "vectorised_s": round(new_s, 5),
        "speedup": round(oracle_s / new_s, 2),
        "oracle_peak_mb": round(peak_mb(lambda: telea_oracle(images[0], masks[0], radius)), 3),
        "vectorised_peak_mb": round(
            peak_mb(lambda: telea_inpaint_array(images[0], masks[0], radius)), 3
        ),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_telea.json")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    radius = ilp_config().r_telea
    result = {
        "benchmark": "before: tests/telea_oracle.py, the scalar loop; after: "
                     f"telea_inpaint_array. Time: best of {args.repeats} per frame, "
                     "summed over two frames. Memory: tracemalloc peak of one call on frame 1",
        "scene": f"synth_dataset(1, h, w, seed={SCENE_SEED}), ILP masks of frame 1 and frame 2",
        "radius": radius,
        "machine": machine(),
        "results": [bench_size(h, w, radius, args.repeats) for h, w in SIZES],
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for row in result["results"]:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
