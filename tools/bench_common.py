"""Plumbing shared by the layer benchmarks `bench_solver.py` and `bench_telea.py`.

Each script takes `--src` (the `src` directory of the tree to time, default
this checkout's), `--label`, `--out` and `--repeats`, measures one layer on
the scene the benchmark's workloads use, and adds its entry to `--out` under
`--label`, keeping the others.  A label that `--out` already holds exits
non-zero before anything is timed, so a committed entry is never replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCENE_SEED = 7


def parse_args(doc: str, default_out: str, argv=None) -> argparse.Namespace:
    """The common flags; exits if `--out` already holds `--label`, puts
    `--src` and `tests/` first on `sys.path` and exits unless `flowpatch`
    then imports from `--src`."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    parser.add_argument("--label", default="change")
    parser.add_argument("--out", type=Path, default=Path(default_out))
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    if any(e["label"] == args.label for e in read_entries(args.out)):
        raise SystemExit(f"{args.out} already holds an entry labelled {args.label!r}")
    src = args.src.resolve()
    sys.path[:0] = [str(src), str(ROOT / "tests")]
    import flowpatch

    if src not in Path(flowpatch.__file__).resolve().parents:
        raise SystemExit(f"flowpatch was imported from {flowpatch.__file__}, not from {src}")
    return args


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def scene(h: int, w: int):
    """The first pair of `synth_dataset(1, h, w, seed=SCENE_SEED)`, an `EvalFrame`."""
    from flowpatch.harness import ingest_dataset, synth_dataset

    with tempfile.TemporaryDirectory() as tmp:
        return ingest_dataset(synth_dataset(1, h, w, SCENE_SEED, tmp)).frames[0]


def read_entries(path: Path) -> list[dict]:
    """The entries stored in `path`, none if it does not exist."""
    return json.loads(path.read_text())["entries"] if path.exists() else []


def write_entry(args: argparse.Namespace, benchmark: str, results: list[dict]) -> None:
    """Add `results` to `args.out` under `args.label` and print them."""
    entry = {
        "label": args.label,
        "repeats": args.repeats,
        "machine": machine(),
        "results": results,
    }
    result = {"benchmark": benchmark, "entries": read_entries(args.out) + [entry]}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    for row in results:
        print(json.dumps(row))
