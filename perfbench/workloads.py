"""The benchmark's workloads: patch training without and with ILP, and the
experiment grid.

Constructing a workload is its set-up: it synthesises the scenes with the
program, writes them and loads them back.  `op(i)` is one timed operation.
`check_op` and `deep_checks` compare the program's outputs with the
independent computations in `reference.py` and with properties the program
documents; `run.py` runs them outside every timed region.
"""

from __future__ import annotations

import csv
import math
import shutil
from pathlib import Path

import numpy as np

from flowpatch.attack import (
    CLIP,
    ILP_AWARE,
    VANILLA,
    AcsLossStage,
    AttackConfig,
    PlacePatchStage,
    placement_geometry,
    random_patch,
    sample_pose,
    train_patch,
)
from flowpatch.defense import defend_on_tape, ilp_config, lgs_config
from flowpatch.diff import StageTape
from flowpatch.flow import HornSchunck, HornSchunckConfig
from flowpatch.harness import (
    ExperimentConfig,
    ingest_dataset,
    load_frames,
    run_experiment,
    synth_dataset,
)

import reference

# The scenes are fixed: ILP flags 10% to 40% of a clean frame depending on
# the scene, and Telea's cost follows, so scenes drawn from the workload seed
# would make a run's median depend on the draw.  The workload seed drives
# everything else: patch initialisations, poses, pair order and grid seeds.
SCENE_SEED = 7

# Tolerances, set from measured errors (README): the two solvers differ by
# at most 3e-15 px, gradients and finite differences by at most 6e-12.
HS_ATOL = 1e-12  # flow, pixels/frame: HornSchunck.estimate vs reference.py
# Fourth-order central differences: at some poses the loss curves so
# strongly that second-order ones at step 1e-4 err by 3e-4 relative.
FD_STEP = 3e-5
FD_RTOL = 1e-5
FD_ATOL = 1e-11
FILL_SLACK = 1e-12  # rounding of Telea's normalised weighted sum


class Workload:
    name = ""
    count = 3
    height, width = 64, 128
    patch_side = 24
    iterations = 200
    steps = 1
    awareness = VANILLA
    defense = None
    # Defences (None: none) whose clean defended flows the program computes,
    # for metrics.clean_flow_reuse in the traced run.
    clean_defenses = (None,)

    def __init__(self, seed: int, run_dir: Path):
        self.seed = seed
        self.run_dir = run_dir
        scenes = synth_dataset(self.count, self.height, self.width, SCENE_SEED,
                               run_dir / "scenes")
        self.frames = load_frames(ingest_dataset(scenes))
        self.pairs = [(f.frame1, f.frame2) for f in self.frames]
        self.estimator = HornSchunck(HornSchunckConfig(iterations=self.iterations))

    def op_seed(self, i: int) -> int:
        return self.seed * 100_000 + i

    def attack_config(self, i: int, steps: int) -> AttackConfig:
        return AttackConfig(awareness=self.awareness, steps=steps, seed=self.op_seed(i))

    def op(self, i: int):
        return train_patch(self.estimator, self.defense, self.pairs,
                           self.attack_config(i, self.steps), patch_side=self.patch_side)

    def one_step(self):
        """One training step of the workload's kind (for tracemalloc)."""
        return train_patch(self.estimator, self.defense, self.pairs,
                           self.attack_config(0, 1), patch_side=self.patch_side)

    def check_op(self, i: int, result) -> list[str]:
        """(e): finite losses, vanilla losses in [-1, 1], clip patch in [0, 1]."""
        errors = []
        losses = np.asarray(result.losses)
        if losses.shape != (self.steps,) or not np.all(np.isfinite(losses)):
            errors.append(f"op {i}: losses {result.losses!r}")
        elif self.awareness == VANILLA and np.any(np.abs(losses) > 1.0):
            errors.append(f"op {i}: vanilla loss outside [-1, 1]: {result.losses!r}")
        param = result.patch.param
        if result.patch.parameterization != CLIP or param.min() < 0 or param.max() > 1:
            errors.append(f"op {i}: trained clip patch leaves [0, 1]")
        return errors

    def deep_checks(self) -> list[str]:
        return self.check_flow()

    def check_flow(self) -> list[str]:
        """(a): HornSchunck.estimate against the plain-numpy solver."""
        errors = []
        for f in self.frames:
            got = self.estimator.estimate(f.frame1, f.frame2).data
            want = reference.horn_schunck(f.frame1.data, f.frame2.data,
                                          iterations=self.iterations)
            diff = float(np.abs(got - want).max())
            if not diff <= HS_ATOL:
                errors.append(f"pair {f.frame_id}: estimate differs from reference by {diff:.3g}")
        return errors

    def attacked_tape(self):
        """One training step on the first pair, on a tape built from the
        public stage API: seeded patch and pose, placement, optional defence,
        flow, ACS loss, backward.  Returns (tape, patch parameter, attacked
        frames, (defended frame, mask) per frame, placement stage, loss
        stage)."""
        frame1, frame2 = self.pairs[0]
        rng = np.random.default_rng(self.op_seed(0))
        patch = random_patch(self.patch_side, CLIP, rng)
        shape = (frame1.height, frame1.width)
        geometry = placement_geometry(sample_pose(rng, self.patch_side, shape),
                                      self.patch_side, shape)
        place = PlacePatchStage(geometry, self.patch_side)
        loss_stage = AcsLossStage(
            reference.horn_schunck(frame1.data, frame2.data, iterations=self.iterations),
            geometry.mask)
        tape = StageTape()
        param = tape.source(patch.param)
        attacked = tape.apply(place, tape.source(frame1.data), tape.source(frame2.data), param)
        defended = [(a, None) if self.defense is None else defend_on_tape(tape, a, self.defense)
                    for a in attacked]
        flow = self.estimator.forward_on_tape(tape, defended[0][0], defended[1][0])
        loss = tape.apply(loss_stage, flow)
        tape.backward(loss, 1.0)
        return tape, param, attacked, defended, place, loss_stage


class TrainVanilla(Workload):
    name = "train_vanilla"
    count = 3
    height, width = 128, 256

    def deep_checks(self) -> list[str]:
        return self.check_flow() + self.check_gradient()

    def check_gradient(self) -> list[str]:
        """(c): tape gradient of one step's loss against central differences
        of the forward pipeline, whose flow comes from reference.py."""
        frame1, frame2 = self.pairs[0]
        tape, param, _, _, place, loss_stage = self.attacked_tape()
        grad = tape.grad(param)

        def loss_at(coord, step):
            values = param.array.copy()
            values[coord] += step
            a1, a2 = place(frame1.data, frame2.data, values)
            return float(loss_stage(reference.horn_schunck(a1, a2, iterations=self.iterations)))

        # Interior patch values barely reach the loss, which ignores the
        # footprint; probe near the disk's rim and at the largest gradient.
        s, c = self.patch_side, (self.patch_side - 1) // 2
        coords = [(c, 1, 0), (1, c + 1, 1), (c + 1, s - 2, 2),
                  np.unravel_index(int(np.abs(grad).argmax()), grad.shape)]
        errors, largest = [], 0.0
        for coord in coords:
            h = FD_STEP
            fd = (8 * (loss_at(coord, h) - loss_at(coord, -h))
                  - (loss_at(coord, 2 * h) - loss_at(coord, -2 * h))) / (12 * h)
            largest = max(largest, abs(fd))
            if not abs(grad[coord] - fd) <= FD_ATOL + FD_RTOL * abs(fd):
                errors.append(f"patch {tuple(map(int, coord))}: tape gradient "
                              f"{grad[coord]:.9g}, finite difference {fd:.9g}")
        if largest < 100 * FD_ATOL:
            errors.append(f"finite differences all below {100 * FD_ATOL:g}: check is vacuous")
        return errors


class TrainIlp(Workload):
    name = "train_ilp"
    # One pair, so every op computes the same clean defended reference flow.
    count = 1
    steps = 2
    awareness = ILP_AWARE
    defense = ilp_config()
    clean_defenses = (defense,)

    def deep_checks(self) -> list[str]:
        return self.check_flow() + self.check_bpda()

    def check_bpda(self) -> list[str]:
        """(d): ILP leaves unmasked pixels bit-for-bit, fills by convex
        combination, and its backward is zero at inpainted pixels."""
        tape, _, attacked, defended, _, _ = self.attacked_tape()
        errors = []
        for k, (frame, (out, mask)) in enumerate(zip(attacked, defended)):
            inside = mask.array > 0
            before, after = frame.array, out.array
            if not inside.any():
                errors.append(f"frame {k}: ILP flagged no pixel of the attacked frame")
                continue
            if not np.array_equal(after[~inside], before[~inside]):
                errors.append(f"frame {k}: ILP changed pixels outside its mask")
            known = before[~inside]
            filled = after[inside]
            if np.any(filled < known.min(axis=0) - FILL_SLACK) or np.any(
                filled > known.max(axis=0) + FILL_SLACK
            ):
                errors.append(f"frame {k}: inpainted values leave the known range")
            if np.any(tape.grad(frame)[inside] != 0):
                errors.append(f"frame {k}: nonzero gradient at inpainted pixels")
        return errors


PER_SEED_KEYS = ("awareness", "optimizer", "lr", "box", "seed", "defense")
SEED_MEAN_KEYS = ("awareness", "optimizer", "lr", "box", "defense")


class Experiment(Workload):
    name = "experiment"
    # The default grid's 3 defences x 3 awarenesses with one seed, on one
    # pair at half the default frame size and patch side, with 50 solver
    # iterations and one training step, so that a run holds many ops.
    count = 1
    height, width = 32, 64
    patch_side = 12
    iterations = 50
    steps = 1
    clean_defenses = (None, lgs_config(), ilp_config())

    def __init__(self, seed: int, run_dir: Path):
        super().__init__(seed, run_dir)
        self.first_csvs: dict[str, bytes] | None = None
        self.ops_run = 0

    def config(self, out: Path) -> ExperimentConfig:
        return ExperimentConfig(
            output_dir=str(out),
            synthetic={"count": self.count, "height": self.height,
                       "width": self.width, "seed": SCENE_SEED},
            estimator={"alpha": 15.0, "iterations": self.iterations},
            steps=self.steps,
            patch_side=self.patch_side,
            seeds=(self.seed,),
            eval_seed=1234 + self.seed,
            workers=1,
        )

    def op(self, i: int):
        out = self.run_dir / f"op{self.ops_run}"
        self.ops_run += 1
        return out, run_experiment(self.config(out))

    def check_op(self, i: int, outcome) -> list[str]:
        """(f) on every op; (b) on the first op whose CSVs the later ops must
        reproduce byte for byte."""
        out, result = outcome
        if result.hard_failures:
            return [f"op {i}: {result.hard_failures} hard failures: {result.report}"]
        names = ("per_seed.csv", "seed_mean.csv", "headline.csv", "scatter.csv")
        missing = [n for n in names if not (out / n).is_file()]
        if missing:
            return [f"op {i}: missing {missing}"]
        csvs = {n: (out / n).read_bytes() for n in names}
        if self.first_csvs is not None:
            errors = [f"op {i}: {n} differs from the first op's" for n in names
                      if csvs[n] != self.first_csvs[n]]
            if not errors:
                shutil.rmtree(out)
            return errors
        errors = self.check_tables(out) + self.check_quality(out)
        if not errors:
            self.first_csvs = csvs
        return errors

    def check_tables(self, out: Path) -> list[str]:
        cfg = self.config(out)
        cells = [(a, c.optimizer, f"{c.learning_rate:g}", c.box)
                 for a in cfg.awareness for c in cfg.attack_grid]
        expected = {
            "per_seed.csv": (PER_SEED_KEYS, {cell + (str(s), d) for cell in cells
                                             for s in cfg.seeds for d in cfg.defenses}),
            "seed_mean.csv": (SEED_MEAN_KEYS, {cell + (d,) for cell in cells
                                               for d in cfg.defenses}),
            "headline.csv": (("defense", "attack"), {(d, a) for d in cfg.defenses
                                                     for a in cfg.awareness}),
            "scatter.csv": (("label",), {(d,) for d in cfg.defenses}),
        }
        errors = []
        for name, (keys, want) in expected.items():
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            got = [tuple(r[k] for k in keys) for r in rows]
            if len(got) != len(set(got)) or set(got) != want:
                errors.append(f"{name}: rows {sorted(got)} are not one per {keys}")
            for r in rows:
                if r.get("status", "ok") != "ok":
                    errors.append(f"{name}: status {r['status']} in {r}")
                for k in ("quality_epe", "robustness_epe"):
                    value = float(r[k]) if r[k] else math.nan
                    if not (math.isfinite(value) and value >= 0):
                        errors.append(f"{name}: {k}={r[k]!r} in {r}")
        return errors

    def check_quality(self, out: Path) -> list[str]:
        """(b): quality_epe of `none` is the EPE of the reference flow of the
        frames the experiment wrote, against the .flo ground truth."""
        data = out / "dataset"
        values = [
            reference.epe(reference.read_flo(flo), reference.horn_schunck(
                reference.read_ppm(data / f"{flo.stem}_1.ppm"),
                reference.read_ppm(data / f"{flo.stem}_2.ppm"), iterations=self.iterations))
            for flo in sorted(data.glob("*.flo"))
        ]
        want = f"{float(np.mean(values)):.6f}"
        with open(out / "per_seed.csv", newline="") as fh:
            got = {r["quality_epe"] for r in csv.DictReader(fh) if r["defense"] == "none"}
        if got != {want}:
            return [f"quality_epe of none is {sorted(got)}, reference gives {want}"]
        return []


WORKLOADS = {w.name: w for w in (TrainVanilla, TrainIlp, Experiment)}
