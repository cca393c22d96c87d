"""Benchmark of flowpatch's patch training and experiment grid.

    python3 perfbench/run.py --workload train_vanilla --seed 1 --seconds 35 --trace 0

Run from the repository root.  One process runs one workload (see
perfbench/README.md): it sets the workload up, runs timed operations until
their summed wall time reaches --seconds, checks every output outside the
timed regions, prints a `detail` line and, as the last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  --trace 0 reports the
end-to-end metrics; --trace 1 alternates untraced and traced operations and
reports the per-layer metrics and the tracing overhead.  A calibration loop
runs before and after every op; op_s scales each op's wall time by it, so
that the host's drifting speed does not show as a change of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUNS_DIR = BENCH_DIR / "runs"
WORKLOADS = ("train_vanilla", "train_ilp", "experiment")
SETUP_REPEATS = 5
# op_s scales each op's wall time to a host on which calibrate() takes this
# long (README: host drift).
REFERENCE_CALIBRATION_S = 0.010


def pin_environment() -> None:
    """One BLAS thread, the experiment's single in-process worker, and the
    program from this checkout's sources."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("FLOWPATCH_WORKERS", None)
    sys.path.insert(0, str(ROOT / "src"))


def set_up(name: str, seed: int, run_dir: Path):
    """Import flowpatch, write and load the workload's scenes."""
    start = time.perf_counter()
    import flowpatch
    import workloads

    source = Path(flowpatch.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise ImportError(f"flowpatch was imported from {source}, not from {ROOT / 'src'}")
    workload = workloads.WORKLOADS[name](seed, run_dir)
    return workload, time.perf_counter() - start


def setup_samples(args, run_dir: Path, first: float) -> list[float]:
    """The in-process set-up plus SETUP_REPEATS - 1 more, each in a fresh
    interpreter so that the import is paid again."""
    samples = [first]
    for k in range(1, SETUP_REPEATS):
        probe_dir = run_dir / f"setup{k}"
        done = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed",
             str(args.seed), "--setup-probe", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_dir)
    return samples


def calibrate() -> float:
    """A fixed pure-Python and numpy loop; its time tracks the host's speed."""
    import numpy as np  # not at module level: set-up times numpy's import

    start = time.perf_counter()
    total = 0
    for k in range(100_000):
        total += k & 7
    a = np.linspace(0.0, 1.0, 1 << 15)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0) - 0.5
    return time.perf_counter() - start


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def tail(values: list[float]) -> dict:
    """The highest percentile with at least ten samples beyond it (>= 40 ops)."""
    if len(values) < 40:
        return {}
    p = int(100 * (1 - 10 / len(values)))
    return {f"op_s_p{p}": statistics.quantiles(values, n=100)[p - 1]}


def tape_peak_mb(workload) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        workload.one_step()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    pin_environment()

    if args.setup_probe is not None:
        shutil.rmtree(args.setup_probe, ignore_errors=True)
        _, seconds = set_up(args.workload, args.seed, args.setup_probe)
        print(json.dumps({"setup_s": seconds}))
        return 0

    run_dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload, first_setup = set_up(args.workload, args.seed, run_dir / "main")
    setups = [first_setup] if args.trace else setup_samples(args, run_dir, first_setup)

    tracer = None
    if args.trace:
        from spans import UNITS, Tracer, clean_keys

        tracer = Tracer(clean_keys(workload.pairs, workload.clean_defenses))
    start = time.perf_counter()
    deep_errors = workload.deep_checks()
    deep_checks_s = time.perf_counter() - start

    durations, scaled, traced, untraced, calibration = [], [], [], [], []
    attempted = failed = 0
    correct = True
    while sum(durations) < args.seconds or (tracer is not None and not traced):
        i = attempted
        # A traced run repeats each op's inputs, untraced then traced, so
        # that the overhead ratio compares equal work.
        tracing = tracer is not None and i % 2 == 1
        before = calibrate()
        if tracing:
            tracer.begin_op()
            tracer.install()
        start = time.perf_counter()
        try:
            result = workload.op(i if tracer is None else i // 2)
        except Exception:  # noqa: BLE001 - a failed op is counted, the run goes on
            result = None
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        if tracing:
            tracer.uninstall()
            tracer.end_op()
        after = calibrate()
        durations.append(elapsed)
        calibration += [before, after]
        scaled.append(elapsed * REFERENCE_CALIBRATION_S / statistics.fmean((before, after)))
        (traced if tracing else untraced).append(scaled[-1])
        attempted += 1
        errors = [] if result is None else workload.check_op(i, result)
        if i == 0:
            errors += deep_errors
        if errors:
            correct = False
            print("\n".join(errors), file=sys.stderr)
        if result is None or errors:
            failed += 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(durations),
        "op_s_median": statistics.median(scaled),
        "op_s_quartiles": quartiles(scaled),
        **tail(scaled),
        "op_wall_s_median": statistics.median(durations),
        "op_wall_s_quartiles": quartiles(durations),
        "calibration_ms_median": 1000 * statistics.median(calibration),
        "setup_s_samples": setups,
        "deep_checks_s": deep_checks_s,
    }
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        layers = tracer.layer_medians()
        layers["diff.tape_peak_mb"] = tape_peak_mb(workload)
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
        detail.update(traced_ops=len(traced), untraced_ops=len(untraced))
        tracer.write(run_dir / "spans.csv")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in UNITS.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps({"detail": detail, **result}, indent=1))
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
