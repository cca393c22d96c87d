"""Command-line interface.

Subcommands: synth, flow, defend, attack-train, evaluate, experiment.
`experiment --workers N` trains grid cells in N processes.  Exit code 0 iff
no grid cell hard-failed; an unreadable input file, a malformed one or a
patch side that cannot fit the frames prints a message and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .attack.optimize import AttackConfig, load_patch, save_patch, train_patch
from .core.colorize import flow_to_color
from .core.floio import write_flo
from .core.ppm import mask_to_image, write_ppm
from .defense.pipeline import DEFENSE_FIELDS, DefenseConfig, defend
from .errors import FormatError, PlacementError
from .flow.horn_schunck import HornSchunck, HornSchunckConfig
from .harness.dataset import ingest_dataset, synth_dataset
from .harness.experiment import ExperimentConfig, run_experiment
from .metrics import (
    EvalFrame, clean_flows, evaluate_pipeline, format_metric, mean_epe, write_csv
)

# Attack, defense and estimator flags are absent unless given, so their
# defaults live in the config classes only.
ATTACK_FIELDS = tuple(f.name for f in dataclasses.fields(AttackConfig))
DEFENSE_FLAGS = (
    ("--k", "block", int, "block size K"),
    ("--o", "overlap", int, "block overlap O"),
    ("--t", "threshold", float, "vote threshold t"),
    ("--b-lgs", "b_lgs", float, None),
    ("--s-ilp", "s_ilp", float, None),
    ("--t-ilp", "t_ilp", float, None),
    ("--r-telea", "r_telea", int, None),
)


def _given(args, fields) -> dict:
    return {f: getattr(args, f) for f in fields if hasattr(args, f)}


def _estimator(args) -> HornSchunck:
    return HornSchunck(HornSchunckConfig(**_given(args, ("alpha", "iterations"))))


def _defense_from_args(args, kind) -> DefenseConfig:
    return DefenseConfig(kind=kind, **_given(args, DEFENSE_FIELDS[kind]))


def _unread_defense_flag(args) -> str | None:
    """An error naming the first given defence flag that the chosen defence
    (`--defense` or `--awareness`) does not read, None if every one is read."""
    option = "defense" if hasattr(args, "defense") else "awareness"
    kind = getattr(args, option, None)
    for flag, dest, _, _ in DEFENSE_FLAGS:
        if hasattr(args, dest) and dest not in DEFENSE_FIELDS.get(kind, ()):
            return f"--{option} {kind} does not read {flag}"
    return None


def _add_defense_flags(parser):
    for flag, dest, kind, help_text in DEFENSE_FLAGS:
        parser.add_argument(
            flag, type=kind, dest=dest, default=argparse.SUPPRESS, help=help_text
        )


def _add_estimator_flags(parser):
    parser.add_argument(
        "--alpha", type=float, default=argparse.SUPPRESS, help="smoothness weight"
    )
    parser.add_argument(
        "--iters",
        type=int,
        default=argparse.SUPPRESS,
        dest="iterations",
        help="solver iterations",
    )


def _load_pairs(data_dir) -> list[EvalFrame]:
    """The loadable frame pairs under `data_dir`; the pairs skipped, and an
    empty result, are reported on stderr."""
    index = ingest_dataset(data_dir)
    for line in index.report:
        print(line, file=sys.stderr)
    if not index.frames:
        print("no frame pairs found", file=sys.stderr)
    return index.frames


def cmd_synth(args) -> int:
    synth_dataset(args.count, args.height, args.width, args.seed, args.out)
    print(f"wrote {args.count} scene(s) to {args.out}")
    return 0


def cmd_flow(args) -> int:
    frames = _load_pairs(args.in_dir)
    if not frames:
        return 1
    estimator = _estimator(args)
    flow = estimator.estimate(frames[0].frame1, frames[0].frame2)
    write_flo(flow, args.out)
    if args.viz:
        write_ppm(flow_to_color(flow), args.viz)
    print(f"wrote {args.out}")
    return 0


def cmd_defend(args) -> int:
    cfg = _defense_from_args(args, args.defense)
    frames = _load_pairs(args.in_dir)
    if not frames:
        return 1
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for frame in frames:
        for tag, image in (("1", frame.frame1), ("2", frame.frame2)):
            defended, mask = defend(image, cfg)
            write_ppm(defended, out_dir / f"{frame.frame_id}_{tag}_defended.ppm")
            write_ppm(mask_to_image(mask), out_dir / f"{frame.frame_id}_{tag}_mask.ppm")
    print(f"defended {len(frames)} pair(s) into {out_dir}")
    return 0


def cmd_attack_train(args) -> int:
    frames = _load_pairs(args.data)
    if not frames:
        return 1
    pairs = [(f.frame1, f.frame2) for f in frames]
    cfg = AttackConfig(**_given(args, ATTACK_FIELDS))
    defense = None
    if args.awareness != "vanilla":
        defense = _defense_from_args(args, args.awareness)
    result = train_patch(
        _estimator(args), defense, pairs, cfg, patch_side=args.patch_side
    )
    stem = args.out.removesuffix(".ppm")
    save_patch(stem, result.patch, cfg)
    if args.log:
        losses = ([i, f"{loss:.8f}"] for i, loss in enumerate(result.losses))
        write_csv(args.log, "step,loss", losses)
    print(f"trained patch saved to {stem}.ppm (final loss {result.losses[-1]:.4f})")
    return 0


def cmd_evaluate(args) -> int:
    frames = _load_pairs(args.data)
    if not frames:
        return 1
    defense = None if args.defense == "none" else _defense_from_args(args, args.defense)
    patch = load_patch(args.patch) if args.patch else None
    estimator = _estimator(args)
    scores = evaluate_pipeline(
        estimator, defense, patch, frames, clean_flows(estimator, defense, frames), seed=args.seed
    )
    attack = args.attack_label if patch is not None else "none"
    write_csv(
        args.out,
        "frame,defense,attack,quality_epe,robustness_epe",
        (
            [f.frame_id, args.defense, attack, format_metric(q), format_metric(r)]
            for f, (q, r) in zip(frames, scores)
        ),
    )
    print(
        f"defense={args.defense} attack={attack} quality={mean_epe(q for q, _ in scores)} "
        f"robustness={mean_epe(r for _, r in scores)}"
    )
    return 0


def cmd_experiment(args) -> int:
    if args.config:
        cfg = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        cfg = ExperimentConfig(output_dir=args.out or "experiment_out")
    overrides = {}
    if args.out:
        overrides["output_dir"] = args.out
    if args.steps is not None:
        overrides["steps"] = args.steps
    if args.patch_side is not None:
        overrides["patch_side"] = args.patch_side
    if args.workers is not None:
        overrides["workers"] = args.workers
    if overrides:
        cfg = ExperimentConfig.from_dict({**cfg.to_dict(), **overrides})
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
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("flow", help="estimate flow for the first pair in a directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--viz", default=None)
    _add_estimator_flags(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("defend", help="apply a defense to every pair in a directory")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--defense", choices=["lgs", "ilp"], required=True)
    p.add_argument("--out", required=True)
    _add_defense_flags(p)
    p.set_defaults(func=cmd_defend)

    p = sub.add_parser("attack-train", help="train an adversarial patch")
    p.add_argument("--data", required=True)
    p.add_argument("--awareness", choices=["vanilla", "lgs", "ilp"], default="vanilla")
    for flag, dest, kind, choices in (
        ("--optimizer", "optimizer", str, ["ifgsm", "sgd"]),
        ("--lr", "learning_rate", float, None),
        ("--box", "box", str, ["clip", "cov"]),
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
    _add_defense_flags(p)
    _add_estimator_flags(p)
    p.set_defaults(func=cmd_attack_train)

    p = sub.add_parser("evaluate", help="quality/robustness of a pipeline")
    p.add_argument("--data", required=True)
    p.add_argument("--defense", choices=["none", "lgs", "ilp"], default="none")
    p.add_argument(
        "--patch", default=None, help="patch .npy (evaluated values) or 8-bit .ppm"
    )
    p.add_argument(
        "--attack-label", default="vanilla", dest="attack_label",
        help="attack name of the --patch rows (unattacked rows are labelled none)",
    )
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", required=True)
    _add_defense_flags(p)
    _add_estimator_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a full defense x attack grid")
    p.add_argument("--config", default=None, help="JSON ExperimentConfig")
    p.add_argument("--out", default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--patch-side", type=int, default=None, dest="patch_side")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    unread = _unread_defense_flag(args)
    if unread:
        parser.error(unread)
    try:
        return args.func(args)
    except (OSError, FormatError, PlacementError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
