"""Command-line interface.

Subcommands: synth, flow, defend, attack-train, evaluate, experiment.
`experiment --workers N` trains grid cells in N processes.  Each command
builds its configs from its flags (and `--config`) before it reads data.
One rule: an attack, defense or estimator flag value that its config
rejects, a defense flag that the chosen defense does not read, a `synth`
argument or experiment config that would be rejected (an integer field
that holds a float or a bool included), an unreadable or malformed
`--patch` or `--config` file and a patch side or defense block that cannot
fit the frames exit 2 with a message, nothing written.  No loadable frame
pair, an `attack-train` run that diverges (the message names the step; no
patch is written) or a hard-failed grid cell exits 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .attack.losses import AWARENESS_DEFENSE, VANILLA
from .attack.optimize import IFGSM, SGD, AttackConfig, load_patch, save_patch, train_patch
from .attack.patch import CLIP, COV
from .core.colorize import flow_to_color
from .core.floio import write_flo
from .core.ppm import mask_to_image, write_ppm
from .defense.pipeline import (
    DEFENSES, NO_DEFENSE, UnreadFieldError, check_block, defend, defense_config
)
from .errors import DivergenceError, FormatError, NoFramesError, PlacementError
from .flow.horn_schunck import HornSchunck, HornSchunckConfig
from .harness.dataset import check_synth, load_dataset, synth_dataset
from .harness.experiment import ExperimentConfig, plan_experiment, run_experiment
from .metrics import EvalFrame, clean_flows, evaluate_pipeline, format_metric, mean_epe, write_csv

# Attack, defense and estimator flags are absent unless given, so their
# defaults live in the config classes only.
ATTACK_FIELDS = tuple(f.name for f in dataclasses.fields(AttackConfig))
# The flag, type and help of each HornSchunckConfig and DefenseConfig field.
ESTIMATOR_FLAGS = {
    "alpha": ("--alpha", float, "smoothness weight"),
    "iterations": ("--iters", int, "solver iterations"),
}
DEFENSE_FLAGS = {
    "block": ("--k", int, "block size K"),
    "overlap": ("--o", int, "block overlap O"),
    "threshold": ("--t", float, "vote threshold t"),
    "b_lgs": ("--b-lgs", float, None),
    "s_ilp": ("--s-ilp", float, None),
    "t_ilp": ("--t-ilp", float, None),
    "r_telea": ("--r-telea", int, None),
}


def _given(args, fields) -> dict:
    return {f: getattr(args, f) for f in fields if hasattr(args, f)}


def _estimator(args) -> HornSchunck:
    return HornSchunck(HornSchunckConfig(**_given(args, ESTIMATOR_FLAGS)))


def _defense(args, option: str, name: str):
    """Defense `name`, chosen by `--<option>`, with the defense flags given."""
    try:
        return defense_config(name, **_given(args, DEFENSE_FLAGS))
    except UnreadFieldError as exc:
        flag = DEFENSE_FLAGS[exc.field][0]
        raise ValueError(f"--{option} {getattr(args, option)} does not read {flag}") from None


def _attack_configs(args) -> dict:
    return {
        "defense": _defense(args, "awareness", AWARENESS_DEFENSE[args.awareness]),
        "cfg": AttackConfig(**_given(args, ATTACK_FIELDS)),
        "estimator": _estimator(args),
    }


def _evaluate_configs(args) -> dict:
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    return {"defense": _defense(args, "defense", args.defense), "estimator": _estimator(args)}


def _experiment_configs(args) -> dict:
    """The `--config` file's fields (or output to experiment_out) under the flags given."""
    data = {"output_dir": "experiment_out"}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    given = _given(args, ("output_dir", "steps", "patch_side", "workers"))
    cfg = ExperimentConfig.from_dict({**data, **given})
    plan_experiment(cfg)
    return {"cfg": cfg}


def _synth_configs(args) -> dict:
    check_synth(args.count, args.height, args.width, args.seed)
    return {}


def _add_flags(parser, flags):
    for dest, (flag, kind, help_text) in flags.items():
        parser.add_argument(flag, type=kind, dest=dest, default=argparse.SUPPRESS, help=help_text)


def _load_pairs(data_dir, defense=None) -> list[EvalFrame]:
    """The loadable frame pairs under `data_dir`, at least one (NoFramesError
    otherwise), each fitting the defense's voting blocks (PlacementError
    otherwise); the pairs skipped are reported on stderr."""
    index = load_dataset(data_dir)
    for line in index.report:
        print(line, file=sys.stderr)
    for frame in index.frames:
        check_block(defense, (frame.frame1.height, frame.frame1.width))
    return index.frames


def cmd_synth(args) -> int:
    synth_dataset(args.count, args.height, args.width, args.seed, args.out)
    print(f"wrote {args.count} scene(s) to {args.out}")
    return 0


def cmd_flow(args, estimator) -> int:
    frames = _load_pairs(args.in_dir)
    flow = estimator.estimate(frames[0].frame1, frames[0].frame2)
    write_flo(flow, args.out)
    if args.viz:
        write_ppm(flow_to_color(flow), args.viz)
    print(f"wrote {args.out}")
    return 0


def cmd_defend(args, defense) -> int:
    frames = _load_pairs(args.in_dir, defense)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        for tag, image in (("1", frame.frame1), ("2", frame.frame2)):
            defended, mask = defend(image, defense)
            write_ppm(defended, out_dir / f"{frame.frame_id}_{tag}_defended.ppm")
            write_ppm(mask_to_image(mask), out_dir / f"{frame.frame_id}_{tag}_mask.ppm")
    print(f"defended {len(frames)} pair(s) into {out_dir}")
    return 0


def cmd_attack_train(args, defense, cfg, estimator) -> int:
    frames = _load_pairs(args.data, defense)
    pairs = [(f.frame1, f.frame2) for f in frames]
    result = train_patch(estimator, defense, pairs, cfg, patch_side=args.patch_side)
    stem = args.out.removesuffix(".ppm")
    save_patch(stem, result.patch, cfg)
    if args.log:
        losses = ([i, f"{loss:.8f}"] for i, loss in enumerate(result.losses))
        write_csv(args.log, "step,loss", losses)
    print(f"trained patch saved to {stem}.ppm (final loss {result.losses[-1]:.4f})")
    return 0


def cmd_evaluate(args, defense, estimator) -> int:
    frames = _load_pairs(args.data, defense)
    patch = load_patch(args.patch) if args.patch else None
    clean = clean_flows(estimator, defense, frames)
    quality = [record.quality for record in clean]
    robustness = [None] * len(frames)
    attack = "none"
    if patch is not None:
        scored = evaluate_pipeline(estimator, defense, patch, frames, clean, seed=args.seed)
        robustness = [record.robustness for record in scored]
        attack = args.attack_label
    rows = ([f.frame_id, args.defense, attack, format_metric(q), format_metric(r)]
            for f, q, r in zip(frames, quality, robustness))
    write_csv(args.out, "frame,defense,attack,quality_epe,robustness_epe", rows)
    print(
        f"defense={args.defense} attack={attack} quality={mean_epe(quality)} "
        f"robustness={mean_epe(robustness)}"
    )
    return 0


def cmd_experiment(args, cfg) -> int:
    result = run_experiment(cfg)
    for line in result.report:
        print(line, file=sys.stderr)
    print(f"experiment outputs in {result.output_dir}")
    return 1 if result.hard_failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowpatch",
        description="Patch attacks and detect-and-remove defenses for optical flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--count", type=int, default=3)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--width", type=int, default=128)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth, configs=_synth_configs)

    p = sub.add_parser("flow", help="estimate flow for the first pair in a directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--viz", default=None)
    _add_flags(p, ESTIMATOR_FLAGS)
    p.set_defaults(func=cmd_flow, configs=lambda args: {"estimator": _estimator(args)})

    p = sub.add_parser("defend", help="apply a defense to every pair in a directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--defense", choices=[d for d in DEFENSES if d != NO_DEFENSE], required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, DEFENSE_FLAGS)
    p.set_defaults(
        func=cmd_defend, configs=lambda args: {"defense": _defense(args, "defense", args.defense)}
    )

    p = sub.add_parser("attack-train", help="train an adversarial patch")
    p.add_argument("--data", required=True)
    p.add_argument("--awareness", choices=list(AWARENESS_DEFENSE), default=VANILLA)
    for flag, dest, kind, choices in (
        ("--optimizer", "optimizer", str, (IFGSM, SGD)),
        ("--lr", "learning_rate", float, None),
        ("--box", "box", str, (CLIP, COV)),
        ("--steps", "steps", int, None),
        ("--alpha-penalty", "alpha_penalty", float, None),
        ("--seed", "seed", int, None),
    ):
        p.add_argument(flag, type=kind, dest=dest, choices=choices, default=argparse.SUPPRESS)
    p.add_argument("--patch-side", type=int, default=24, dest="patch_side")
    p.add_argument(
        "--out", required=True, help="patch PPM; .npy values and .txt sidecar beside it"
    )
    p.add_argument("--log", default=None)
    _add_flags(p, DEFENSE_FLAGS)
    _add_flags(p, ESTIMATOR_FLAGS)
    p.set_defaults(func=cmd_attack_train, configs=_attack_configs)

    p = sub.add_parser("evaluate", help="quality/robustness of a pipeline")
    p.add_argument("--data", required=True)
    p.add_argument("--defense", choices=DEFENSES, default=NO_DEFENSE)
    p.add_argument(
        "--patch", default=None, help="patch .npy (evaluated values) or 8-bit .ppm"
    )
    p.add_argument(
        "--attack-label", default="vanilla", dest="attack_label",
        help="attack name of the --patch rows (unattacked rows are labelled none)",
    )
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", required=True)
    _add_flags(p, DEFENSE_FLAGS)
    _add_flags(p, ESTIMATOR_FLAGS)
    p.set_defaults(func=cmd_evaluate, configs=_evaluate_configs)

    p = sub.add_parser("experiment", help="run a full defense x attack grid")
    p.add_argument("--config", default=None, help="JSON ExperimentConfig")
    p.add_argument("--out", dest="output_dir", default=argparse.SUPPRESS)
    for flag in ("--steps", "--patch-side", "--workers"):
        p.add_argument(flag, type=int, default=argparse.SUPPRESS)
    p.set_defaults(func=cmd_experiment, configs=_experiment_configs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        configs = args.configs(args)
    except (OSError, TypeError, ValueError) as exc:
        parser.error(str(exc))
    try:
        return args.func(args, **configs)
    except (OSError, FormatError, PlacementError) as exc:
        parser.error(str(exc))
    except (NoFramesError, DivergenceError) as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
