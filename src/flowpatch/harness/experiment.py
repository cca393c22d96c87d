"""Experiment orchestration: train a grid of patches, evaluate the full
defense x attack matrix, and emit deterministic CSV summaries.

Grid cells are (awareness, optimizer, learning rate, box, seed).  Each cell
trains one patch against the awareness-matched defense and saves it; each
saved .npy is then read back and scored against every configured defense.  A
defense's clean records (`clean_flows`, one pass per frame) give its quality
column, the reference of every robustness value and the target of the cells
trained against it; each robustness value is the mean over the scored
records of `evaluate_pipeline`.  A cell's CSV fields are formatted once and
also name its patch files.  Each seed's result is grouped by (cell fields, defense) in
seed_mean.csv's order, so one pass over the groups gives the seed means and
the headline maxima.  Unknown names, overrides of a field the defense does
not read, empty or repeated grid axes, cells whose fields coincide, a
negative or NaN learning rate, a negative seed or `eval_seed`, `steps` or
`workers` below 1, an integer field (`steps`, a seed, `eval_seed`,
`workers`, `patch_side`, the estimator's `iterations`, a defense's `block`,
`overlap` or `r_telea`, a synthetic argument) that holds a float or a bool,
an invalid synthetic block, a given dataset without a loadable pair, a
`patch_side` that does not fit the frames at the largest pose scale and a
defense block larger than a frame side fail before anything is written;
`plan_experiment` runs every one of these checks that needs no data.
Diverged cells are recorded as "div" and the run continues; unexpected
errors and an unreadable saved patch mark the cell "fail" without touching
other cells.  Identical configs (seeds included) produce byte-identical CSVs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..attack.losses import AWARENESS_DEFENSE
from ..attack.optimize import AttackConfig, load_patch, save_patch, train_patch
from ..attack.placement import check_fit
from ..defense.pipeline import DEFENSES, DefenseConfig, check_block, defense_config
from ..errors import DivergenceError, check_int
from ..flow.horn_schunck import HornSchunck, HornSchunckConfig
from ..metrics import clean_flows, evaluate_pipeline, format_metric, mean_epe, write_csv
from .dataset import check_synth, load_dataset, synth_dataset


@dataclass(frozen=True)
class GridCell:
    optimizer: str
    learning_rate: float
    box: str


@dataclass(frozen=True)
class ExperimentConfig:
    """Desk-scale defaults: 64x128 synthetic frames, patch side 24, 300
    training steps, 2 seeds."""

    output_dir: str
    data_dir: str | None = None
    synthetic: dict = field(
        default_factory=lambda: {"count": 3, "height": 64, "width": 128, "seed": 7}
    )
    estimator: dict = field(default_factory=lambda: {"alpha": 15.0, "iterations": 200})
    defenses: tuple[str, ...] = DEFENSES
    defense_overrides: dict = field(default_factory=dict)
    awareness: tuple[str, ...] = tuple(AWARENESS_DEFENSE)
    attack_grid: tuple[GridCell, ...] = (GridCell("ifgsm", 0.1, "clip"),)
    steps: int = 300
    alpha_penalty: float = 1e-8
    patch_side: int = 24
    seeds: tuple[int, ...] = (0, 1)
    eval_seed: int = 1234
    workers: int = 1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        if "attack_grid" in data:
            data["attack_grid"] = tuple(
                GridCell(**c) if isinstance(c, dict) else c for c in data["attack_grid"]
            )
        for key in ("defenses", "awareness", "seeds"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    def config_hash(self) -> str:
        """Hash of the result-determining fields (where outputs land and how
        many workers ran do not change any produced value)."""
        data = self.to_dict()
        data.pop("output_dir")
        data.pop("workers")
        canonical = json.dumps(data, sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]

    def make_estimator(self) -> HornSchunck:
        """Raises TypeError for a key that is not a `HornSchunckConfig` field."""
        return HornSchunck(HornSchunckConfig(**self.estimator))


def _train_task(args) -> tuple[str, str]:
    """Worker for one training cell: trains its patch and saves it under
    `stem`.  Returns ("ok", ""), or ("div" | "fail", error text)."""
    (cfg, attack_cfg, stem, pairs, defense, references) = args
    try:
        patch = train_patch(
            cfg.make_estimator(), defense, pairs, attack_cfg,
            patch_side=cfg.patch_side, references=references,
        ).patch
        save_patch(stem, patch, attack_cfg)
        return "ok", ""
    except DivergenceError as exc:
        return "div", str(exc)
    except Exception as exc:  # noqa: BLE001 - crash isolation per grid cell
        return "fail", f"{type(exc).__name__}: {exc}"


@dataclass
class ExperimentResult:
    output_dir: Path
    hard_failures: int
    report: list[str]


@dataclass(frozen=True)
class ExperimentPlan:
    """What a run derives from its config before it writes anything."""

    estimator: HornSchunck
    # Each (awareness, cell, seed)'s CSV fields, which also name its patch
    # files, and its training config.
    tasks: list[tuple[tuple[str, ...], AttackConfig]]
    # The defenses evaluated or trained against, in first-use order, and
    # every defense config, the overridden ones included.
    used: tuple[str, ...]
    defenses: dict[str, DefenseConfig | None]
    # `synth_dataset`'s arguments, or None when `data_dir` is given.
    scenes: dict | None


def _check_frames(cfg: ExperimentConfig, used, defenses, shape: tuple[int, int]) -> None:
    """Raise PlacementError unless the patch side, at the largest pose
    scale, and the voting blocks of the `used` defenses fit frames of `shape`."""
    check_fit(cfg.patch_side, shape)
    for name in used:
        check_block(defenses[name], shape)


def plan_experiment(cfg: ExperimentConfig) -> ExperimentPlan:
    """Every check that needs no data, so that a config `run_experiment`
    would reject fails here, before anything is read or written."""
    estimator = cfg.make_estimator()
    # A grid cell's CSV fields, which also name its patch files, so two
    # cells whose fields coincide count as a repeat.
    names = [(c.optimizer, f"{c.learning_rate:g}", c.box) for c in cfg.attack_grid]
    for axis, values in (
        ("defenses", cfg.defenses),
        ("awareness", cfg.awareness),
        ("attack_grid", names),
        ("seeds", cfg.seeds),
    ):
        if not values or len(set(values)) != len(values):
            raise ValueError(f"{axis} must be non-empty without repeats, got {values!r}")
    for name in ("eval_seed", "workers", "patch_side"):
        check_int(name, getattr(cfg, name))
    if cfg.eval_seed < 0:
        raise ValueError(f"eval_seed must be >= 0, got {cfg.eval_seed!r}")
    if cfg.workers < 1:
        raise ValueError(f"workers must be >= 1, got {cfg.workers!r}")
    # An unknown awareness, optimizer or box, a negative or NaN learning
    # rate, a seed that is not an integer >= 0 or `steps` that is not an
    # integer >= 1 fails in its AttackConfig.
    tasks = [
        (
            (awareness, *name),
            AttackConfig(
                awareness=awareness, **dataclasses.asdict(cell), steps=cfg.steps,
                alpha_penalty=cfg.alpha_penalty, seed=seed,
            ),
        )
        for awareness in cfg.awareness
        for cell, name in zip(cfg.attack_grid, names)
        for seed in cfg.seeds
    ]
    # A misspelt override fails in its defense config.
    used = tuple(dict.fromkeys([*cfg.defenses, *(AWARENESS_DEFENSE[a] for a in cfg.awareness)]))
    overrides = cfg.defense_overrides
    defenses = {n: defense_config(n, **overrides.get(n, {})) for n in [*used, *overrides]}
    # The patch side and the blocks of the defenses run must fit the
    # synthetic frames.
    scenes = None
    if cfg.data_dir is None:
        check_synth(**cfg.synthetic)
        scenes = {**cfg.synthetic, "out_dir": Path(cfg.output_dir) / "dataset"}
        _check_frames(cfg, used, defenses, (scenes["height"], scenes["width"]))
    return ExperimentPlan(estimator, tasks, used, defenses, scenes)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    plan = plan_experiment(cfg)
    estimator, tasks, used, defenses = plan.estimator, plan.tasks, plan.used, plan.defenses
    # A given dataset is loaded, or the synthetic scenes are written under
    # the output directory, before anything else is written.  The patch side
    # and the blocks of the defenses run must fit every frame.
    out = Path(cfg.output_dir)
    index = load_dataset(cfg.data_dir if plan.scenes is None else synth_dataset(**plan.scenes))
    for frame in index.frames:
        _check_frames(cfg, used, defenses, (frame.frame1.height, frame.frame1.width))
    (out / "patches").mkdir(parents=True, exist_ok=True)
    config_hash = cfg.config_hash()
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
    report = list(index.report)
    frames = index.frames
    pairs = [(f.frame1, f.frame2) for f in frames]

    # The clean record of each defended pipeline, once per frame: its quality
    # (Table-1 axis), the reference of every robustness value and the target
    # of the cells trained against it.
    clean = {name: clean_flows(estimator, defenses[name], frames) for name in used}
    quality = {
        name: format_metric(mean_epe(record.quality for record in clean[name]))
        for name in cfg.defenses
    }

    stems = ["_".join(fields) + f"_seed{attack.seed}" for fields, attack in tasks]
    worker_args = [
        (cfg, attack, out / "patches" / stem, pairs)
        + (defenses[AWARENESS_DEFENSE[fields[0]]],
           [record.flow for record in clean[AWARENESS_DEFENSE[fields[0]]]])
        for (fields, attack), stem in zip(tasks, stems)
    ]
    if cfg.workers > 1:
        # Imported here: it loads multiprocessing, which a one-process run
        # does not need at start-up.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_train_task, worker_args))
    else:
        outcomes = [_train_task(a) for a in worker_args]

    # Robustness of every saved patch, read once from its .npy (an unreadable
    # one fails its cell), against every configured defense; each seed's
    # (status, robustness) is grouped by (cell fields, defense) in seed_mean.csv's order.
    per_seed = []
    groups: dict[tuple, list[tuple[str, float | None]]] = {}
    hard_failures = 0
    for (fields, attack), stem, (status, message) in zip(tasks, stems, outcomes):
        if status == "ok":
            try:
                patch = load_patch(out / "patches" / f"{stem}.npy")
            except Exception as exc:  # noqa: BLE001 - crash isolation
                status, message = "fail", f"{type(exc).__name__}: {exc}"
        if status != "ok":
            report.append(f"{stem}: {status} ({message})")
            hard_failures += status == "fail"
        for defense in cfg.defenses:
            row_status, robustness = status, None
            if status == "ok":
                try:
                    robustness = mean_epe(record.robustness for record in evaluate_pipeline(
                        estimator, defenses[defense], patch, frames, clean[defense],
                        seed=cfg.eval_seed,
                    ))
                except Exception as exc:  # noqa: BLE001 - crash isolation
                    hard_failures += 1
                    report.append(f"{stem}/eval/{defense}: {type(exc).__name__}: {exc}")
                    row_status = "fail"
            groups.setdefault((fields, defense), []).append((row_status, robustness))
            per_seed.append(
                [config_hash, *fields, str(attack.seed), defense, row_status, quality[defense],
                 format_metric(robustness)]
            )

    # Seed means, and per (defense, attack awareness) the first cell with the
    # largest mean robustness, i.e. the strongest adversarial configuration.
    seed_mean = []
    strongest: dict[tuple[str, str], tuple[float, tuple]] = {}
    for (fields, defense), results in groups.items():
        ok = [robustness for status, robustness in results if status == "ok"]
        robustness = mean_epe(ok)
        status = ("ok" if len(ok) == len(results) else "partial") if ok else results[0][0]
        seed_mean.append(
            [config_hash, *fields, defense, status, str(len(ok)), quality[defense],
             format_metric(robustness)]
        )
        key = (defense, fields[0])
        if ok and (key not in strongest or robustness > strongest[key][0]):
            strongest[key] = (robustness, fields)
    write_csv(
        out / "per_seed.csv",
        "config,awareness,optimizer,lr,box,seed,defense,status,quality_epe,robustness_epe",
        per_seed,
    )
    write_csv(
        out / "seed_mean.csv",
        "config,awareness,optimizer,lr,box,defense,status,n_seeds,quality_epe,robustness_epe",
        seed_mean,
    )
    write_csv(
        out / "headline.csv",
        "config,defense,attack,optimizer,lr,box,quality_epe,robustness_epe",
        [
            [config_hash, defense, *fields, quality[defense], format_metric(robustness)]
            for (defense, _), (robustness, fields) in sorted(strongest.items())
        ],
    )
    # Full-pipeline points: each defense with the attack aware of it.
    defense_attack = {d: a for a, d in AWARENESS_DEFENSE.items()}
    scatter = [(d, strongest.get((d, defense_attack[d]))) for d in cfg.defenses]
    write_csv(
        out / "scatter.csv",
        "quality_epe,robustness_epe,label",
        [[quality[d], format_metric(s[0]), d] for d, s in scatter if s is not None],
    )
    # A run with nothing to report leaves no report.txt, not even an
    # earlier run's.
    if report:
        (out / "report.txt").write_text("\n".join(report) + "\n")
    else:
        (out / "report.txt").unlink(missing_ok=True)
    return ExperimentResult(out, hard_failures, report)

