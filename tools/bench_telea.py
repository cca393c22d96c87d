"""Time and measure `telea_inpaint_array` in one source tree.

    python tools/bench_telea.py [--src SRC] [--label change]
                                [--out BENCH_telea.json] [--repeats 7]

Run from the repository root.  `--src` is the `src` directory of the tree to
time (default: this checkout's), so a before/after pair is two runs of this
script on the same machine, one with `--src` pointing at a checkout of the
older commit.  The flags and the entry file are those of `bench_common.py`.

For each size the inputs are the ILP-flagged masks of both frames of
`synth_dataset(1, h, w, seed=7, ...)`, the scene the benchmark's workloads
use, inpainted with the default radius.  The time is the best of `--repeats`
calls per frame, summed over the two frames, and the memory the tracemalloc
peak of one call on frame 1.  Before timing anything the script checks that
every output equals the scalar loop of `tests/telea_oracle.py` bit for bit,
and exits non-zero if one does not.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from bench_common import SCENE_SEED, best_of, parse_args, scene, write_entry

SIZES = ((32, 64), (64, 128), (128, 256))


def peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def inputs(h: int, w: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(image, ILP mask) of both frames of the benchmark scene at h x w."""
    from flowpatch.defense import defend, ilp_config

    pair = scene(h, w)
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
    args = parse_args(__doc__, "BENCH_telea.json", argv)
    from flowpatch.defense import ilp_config

    radius = ilp_config().r_telea
    cases = {f"{h}x{w}": inputs(h, w) for h, w in SIZES}
    check_oracle(cases, radius)
    write_entry(
        args,
        f"telea_inpaint_array at radius {radius} on the ILP masks of both frames "
        f"of synth_dataset(1, h, w, seed={SCENE_SEED}). Time: best of `repeats` "
        "calls per frame, summed over the two frames. Memory: tracemalloc peak "
        "of one call on frame 1",
        [bench_size(size, frames, radius, args.repeats) for size, frames in cases.items()],
    )


if __name__ == "__main__":
    main()
