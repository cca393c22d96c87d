"""Experiment orchestration: train a grid of patches, evaluate the full
defense x attack matrix, and emit deterministic CSV summaries.

Grid cells are (awareness, optimizer, learning rate, box, seed).  Each cell
trains one patch against the awareness-matched defense; every trained patch
is then evaluated against every configured defense, relative to that
defense's clean flows, which are computed once per frame and also give the
quality column.  Diverged cells are recorded as "div" and the run continues;
unexpected errors mark the cell "fail" without touching other cells.
Identical configs (seeds included) produce byte-identical CSVs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..attack.losses import ILP_AWARE, LGS_AWARE, VANILLA
from ..attack.optimize import AttackConfig, save_patch, train_patch
from ..attack.patch import Patch
from ..core.raster import Image
from ..defense.pipeline import DefenseConfig, defended_flow, ilp_config, lgs_config
from ..errors import DivergenceError
from ..flow.horn_schunck import HornSchunck, HornSchunckConfig
from ..metrics import EvalRecord, aggregate_records, epe, format_metric, robustness_epe
from .dataset import ingest_dataset, load_frames, synth_dataset

NO_DEFENSE = "none"


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
    defenses: tuple[str, ...] = (NO_DEFENSE, "lgs", "ilp")
    defense_overrides: dict = field(default_factory=dict)
    awareness: tuple[str, ...] = (VANILLA, LGS_AWARE, ILP_AWARE)
    attack_grid: tuple[GridCell, ...] = (GridCell("ifgsm", 0.1, "clip"),)
    steps: int = 300
    alpha_penalty: float = 1e-8
    patch_side: int = 24
    seeds: tuple[int, ...] = (0, 1)
    eval_seed: int = 1234
    workers: int = 1

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["attack_grid"] = [dataclasses.asdict(c) for c in self.attack_grid]
        return data

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

    def defense_config(self, name: str) -> DefenseConfig | None:
        if name == NO_DEFENSE:
            return None
        overrides = self.defense_overrides.get(name, {})
        return lgs_config(**overrides) if name == "lgs" else ilp_config(**overrides)

    def make_estimator(self) -> HornSchunck:
        """Raises TypeError for a key that is not a `HornSchunckConfig` field."""
        return HornSchunck(HornSchunckConfig(**self.estimator))


def _awareness_defense(cfg: ExperimentConfig, awareness: str) -> DefenseConfig | None:
    return cfg.defense_config(NO_DEFENSE if awareness == VANILLA else awareness)


def _train_task(args) -> dict:
    """Worker for one training cell; returns a plain picklable result."""
    (cfg_dict, awareness, cell, seed, pair_arrays) = args
    cfg = ExperimentConfig.from_dict(cfg_dict)
    pairs = [(Image(a), Image(b)) for a, b in pair_arrays]
    try:
        attack_cfg = AttackConfig(
            awareness=awareness,
            optimizer=cell.optimizer,
            learning_rate=cell.learning_rate,
            box=cell.box,
            steps=cfg.steps,
            alpha_penalty=cfg.alpha_penalty,
            seed=seed,
        )
        result = train_patch(
            cfg.make_estimator(),
            _awareness_defense(cfg, awareness),
            pairs,
            attack_cfg,
            patch_side=cfg.patch_side,
        )
        return {"status": "ok", "param": result.patch.param, "attack": attack_cfg}
    except DivergenceError as exc:
        return {"status": "div", "error": str(exc)}
    except Exception as exc:  # noqa: BLE001 - crash isolation per grid cell
        return {"status": "fail", "error": f"{type(exc).__name__}: {exc}"}


@dataclass
class ExperimentResult:
    output_dir: Path
    hard_failures: int
    report: list[str]


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    estimator = cfg.make_estimator()
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "patches").mkdir(exist_ok=True)
    config_hash = cfg.config_hash()
    (out / "config.json").write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))

    if cfg.data_dir is not None:
        index = ingest_dataset(cfg.data_dir)
    else:
        index = ingest_dataset(synth_dataset(out_dir=out / "dataset", **cfg.synthetic))
    report = list(index.report)
    frames = load_frames(index)
    if not frames:
        raise ValueError("experiment dataset is empty")
    pair_arrays = [(f.frame1.data, f.frame2.data) for f in frames]

    # The clean flow of each defended pipeline, once per frame: its quality
    # (Table-1 axis) and the reference of every patch's robustness.
    clean = {}
    quality: dict[str, float | None] = {}
    for name in cfg.defenses:
        defense = cfg.defense_config(name)
        clean[name] = [
            defended_flow(estimator, defense, f.frame1, f.frame2) for f in frames
        ]
        records = [
            EvalRecord(f.frame_id, name, "none", epe(f.ground_truth, flow, f.valid), None)
            for f, flow in zip(frames, clean[name])
            if f.ground_truth is not None
        ]
        quality[name] = aggregate_records(records, name, "none").mean_quality

    tasks = [
        (awareness, cell, seed)
        for awareness in cfg.awareness
        for cell in cfg.attack_grid
        for seed in cfg.seeds
    ]
    worker_args = [
        (cfg.to_dict(), awareness, cell, seed, pair_arrays)
        for (awareness, cell, seed) in tasks
    ]
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(_train_task, worker_args))
    else:
        outcomes = [_train_task(a) for a in worker_args]

    # Robustness of every trained patch against every configured defense.
    per_seed_rows: list[dict] = []
    hard_failures = 0
    for (awareness, cell, seed), outcome in zip(tasks, outcomes):
        tag = f"{awareness}_{cell.optimizer}_{cell.learning_rate:g}_{cell.box}_seed{seed}"
        status = outcome["status"]
        if status == "ok":
            patch = Patch(cfg.patch_side, cell.box, outcome["param"])
            save_patch(out / "patches" / tag, patch, outcome["attack"])
        else:
            report.append(f"{tag}: {status} ({outcome['error']})")
            hard_failures += status == "fail"
        for defense in cfg.defenses:
            row = {
                "awareness": awareness,
                "cell": cell,
                "seed": seed,
                "defense": defense,
                "status": status,
                "robustness": None,
            }
            if status == "ok":
                try:
                    row["robustness"] = _robustness(
                        cfg, estimator, defense, awareness, patch, frames, clean[defense]
                    )
                except Exception as exc:  # noqa: BLE001 - crash isolation
                    hard_failures += 1
                    report.append(f"{tag}/eval/{defense}: {type(exc).__name__}: {exc}")
                    row["status"] = "fail"
            per_seed_rows.append(row)

    def epe_fields(defense: str, robustness: float | None) -> list[str]:
        return [format_metric(quality.get(defense)), format_metric(robustness)]

    mean_rows = _mean_rows(cfg, per_seed_rows)
    headline = _headline(mean_rows)
    _write_csv(
        out / "per_seed.csv",
        "config,awareness,optimizer,lr,box,seed,defense,status,quality_epe,robustness_epe",
        [
            [config_hash, *_cell_fields(r), str(r["seed"]), r["defense"], r["status"]]
            + epe_fields(r["defense"], r["robustness"])
            for r in per_seed_rows
        ],
    )
    _write_csv(
        out / "seed_mean.csv",
        "config,awareness,optimizer,lr,box,defense,status,n_seeds,quality_epe,robustness_epe",
        [
            [config_hash, *_cell_fields(r), r["defense"], r["status"], str(r["n_seeds"])]
            + epe_fields(r["defense"], r["robustness"])
            for r in mean_rows
        ],
    )
    _write_csv(
        out / "headline.csv",
        "config,defense,attack,optimizer,lr,box,quality_epe,robustness_epe",
        [
            [config_hash, defense, *_cell_fields(r)] + epe_fields(defense, r["robustness"])
            for (defense, _), r in sorted(headline.items())
        ],
    )
    # Full-pipeline points: each defense with the attack aware of it.
    pipeline_attack = {NO_DEFENSE: VANILLA, "lgs": LGS_AWARE, "ilp": ILP_AWARE}
    scatter = [(d, headline.get((d, pipeline_attack.get(d)))) for d in cfg.defenses]
    _write_csv(
        out / "scatter.csv",
        "quality_epe,robustness_epe,label",
        [epe_fields(d, r["robustness"]) + [d] for d, r in scatter if r is not None],
    )
    if report:
        (out / "report.txt").write_text("\n".join(report) + "\n")
    return ExperimentResult(out, hard_failures, report)


def _robustness(cfg, estimator, defense, awareness, patch, frames, flows) -> float:
    """Mean robustness EPE of one patch against one defense; the poses come
    from a fresh `eval_seed` stream, as in `evaluate_pipeline`."""
    rng = np.random.default_rng(cfg.eval_seed)
    defense_cfg = cfg.defense_config(defense)
    records = [
        EvalRecord(
            f.frame_id,
            defense,
            awareness,
            None,
            robustness_epe(estimator, defense_cfg, patch, f, flow, rng),
        )
        for f, flow in zip(frames, flows)
    ]
    return aggregate_records(records, defense, awareness).mean_robustness


def _cell_fields(row: dict) -> list[str]:
    cell = row["cell"]
    return [row["awareness"], cell.optimizer, f"{cell.learning_rate:g}", cell.box]


def _write_csv(path: Path, header: str, rows: list[list[str]]) -> None:
    """Write one of the experiment's CSVs: comma-joined fields without
    quoting, one row per line."""
    path.write_text("\n".join([header, *(",".join(row) for row in rows)]) + "\n")


def _mean_rows(cfg, per_seed_rows) -> list[dict]:
    rows = []
    for awareness in cfg.awareness:
        for cell in cfg.attack_grid:
            for defense in cfg.defenses:
                group = [
                    r
                    for r in per_seed_rows
                    if r["awareness"] == awareness
                    and r["cell"] == cell
                    and r["defense"] == defense
                ]
                ok = [r for r in group if r["status"] == "ok"]
                if ok:
                    status = "ok" if len(ok) == len(group) else "partial"
                    robustness = float(np.mean([r["robustness"] for r in ok]))
                else:
                    status = group[0]["status"] if group else "fail"
                    robustness = None
                rows.append(
                    {
                        "awareness": awareness,
                        "cell": cell,
                        "defense": defense,
                        "status": status,
                        "n_seeds": len(ok),
                        "robustness": robustness,
                    }
                )
    return rows


def _headline(mean_rows) -> dict:
    """Per (defense, attack awareness): the grid cell with the largest mean
    robustness, i.e. the strongest adversarial configuration."""
    headline: dict[tuple[str, str], dict] = {}
    for r in mean_rows:
        if r["robustness"] is None:
            continue
        key = (r["defense"], r["awareness"])
        if key not in headline or r["robustness"] > headline[key]["robustness"]:
            headline[key] = r
    return headline
