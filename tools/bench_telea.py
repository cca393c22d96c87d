"""Time and measure `telea_inpaint_array` in one source tree.

    python tools/bench_telea.py [--src SRC] [--label change]
                                [--out BENCH_telea.json] [--repeats 7]

Run from the repository root.  `--src` is the `src` directory of the tree to
time (default: this checkout's), so a before/after pair is two runs of this
script on the same machine, one with `--src` pointing at a checkout of the
older commit.  The entry is stored in `--out` under `--label`, replacing an
entry of that label and keeping the others.

For each size the inputs are the ILP-flagged masks of both frames of
`synth_dataset(1, h, w, seed=7, ...)`, the scene the benchmark's workloads
use, inpainted with the default radius.  The time is the best of `--repeats`
calls per frame, summed over the two frames, and the memory the tracemalloc
peak of one call on frame 1.  Before timing anything the script checks that
every output equals the scalar loop of `tests/telea_oracle.py` bit for bit,
and exits non-zero if one does not.
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


def inputs(h: int, w: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(image, ILP mask) of both frames of the benchmark scene at h x w."""
    from flowpatch.defense import defend, ilp_config
    from flowpatch.harness import ingest_dataset, synth_dataset

    with tempfile.TemporaryDirectory() as tmp:
        pair = ingest_dataset(synth_dataset(1, h, w, SCENE_SEED, tmp)).frames[0]
    return [(frame.data, defend(frame, ilp_config())[1].data) for frame in (pair.frame1, pair.frame2)]


def check_oracle(cases, radius: int) -> None:
    """Exit unless `telea_inpaint_array` reproduces the oracle bit for bit."""
    from flowpatch.defense import telea_inpaint_array
    from telea_oracle import telea_oracle

    for size, frames in cases.items():
        for image, mask in frames:
            got, want = telea_inpaint_array(image, mask, radius), telea_oracle(image, mask, radius)
            if got.tobytes() != want.tobytes():
                raise SystemExit(f"{size}: telea_inpaint_array differs from tests/telea_oracle.py")


def bench_size(size: str, frames, radius: int, repeats: int) -> dict:
    from flowpatch.defense import telea_inpaint_array

    elapsed = sum(
        best_of(lambda: telea_inpaint_array(image, mask, radius), repeats)
        for image, mask in frames
    )
    image, mask = frames[0]
    return {
        "size": size,
        "inpainted_px": int(sum(np.count_nonzero(m > 0) for _, m in frames)),
        "time_s": round(elapsed, 5),
        "peak_mb": round(peak_mb(lambda: telea_inpaint_array(image, mask, radius)), 3),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, default=Path("BENCH_telea.json"))
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import flowpatch
    from flowpatch.defense import ilp_config

    if src not in Path(flowpatch.__file__).resolve().parents:
        raise SystemExit(f"flowpatch was imported from {flowpatch.__file__}, not from {src}")
    radius = ilp_config().r_telea
    cases = {f"{h}x{w}": inputs(h, w) for h, w in SIZES}
    check_oracle(cases, radius)
    entry = {
        "label": args.label,
        "repeats": args.repeats,
        "machine": machine(),
        "results": [bench_size(size, frames, radius, args.repeats) for size, frames in cases.items()],
    }
    entries = json.loads(args.out.read_text())["entries"] if args.out.exists() else []
    result = {
        "benchmark": f"telea_inpaint_array at radius {radius} on the ILP masks of both frames "
                     f"of synth_dataset(1, h, w, seed={SCENE_SEED}). Time: best of `repeats` "
                     "calls per frame, summed over the two frames. Memory: tracemalloc peak "
                     "of one call on frame 1",
        "entries": [e for e in entries if e["label"] != args.label] + [entry],
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for row in entry["results"]:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
