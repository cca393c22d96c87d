import argparse
import csv
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from flowpatch.attack import CLIP, COV, IFGSM, SGD, AttackConfig, Patch
from flowpatch.attack.losses import AWARENESS_DEFENSE
from flowpatch.cli import build_parser, main
from flowpatch.core import FlowField, Image, PixelMask, mask_to_image, write_flo, write_ppm
from flowpatch.defense import defend, ilp_config, lgs_config, pipeline
from flowpatch.defense.pipeline import DEFENSES, NO_DEFENSE, defense_config
from flowpatch.errors import DivergenceError, NoFramesError, PlacementError
from flowpatch.flow import HornSchunck, HornSchunckConfig
from flowpatch.harness import (
    ExperimentConfig,
    GridCell,
    dataset,
    experiment,
    ingest_dataset,
    load_frames,
    run_experiment,
    synth_dataset,
)


def write_valid(path, height, width, fill=1):
    write_ppm(mask_to_image(PixelMask(np.full((height, width), fill))), path)


# The ways a pair's files can be malformed, each with the word its report
# line gives it: "unreadable" for a file that does not parse, "rejected" for
# files that parse but do not make a pair.  Each rewrites one file of pair
# `frame_id` under `root`, whose frames are 32x48.
SPOILERS = {
    "corrupt-valid": ("unreadable", lambda root, frame_id: (
        root / f"{frame_id}_valid.ppm").write_bytes(b"P6\nnot a ppm")),
    "frame2-size": ("rejected", lambda root, frame_id: write_ppm(
        Image(np.full((16, 16, 3), 0.5)), root / f"{frame_id}_2.ppm")),
    "flo-size": ("rejected", lambda root, frame_id: write_flo(
        FlowField(np.zeros((16, 16, 2))), root / f"{frame_id}.flo")),
    "valid-size": ("rejected", lambda root, frame_id: write_valid(
        root / f"{frame_id}_valid.ppm", 16, 16)),
    "valid-empty": ("rejected", lambda root, frame_id: write_valid(
        root / f"{frame_id}_valid.ppm", 32, 48, fill=0)),
}


class TestSynth:
    def test_single_scene_file_count(self, tmp_path):
        synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["0000.flo", "0000_1.ppm", "0000_2.ppm"]

    def test_ground_truth_constant_for_global_shift(self, tmp_path):
        # scenes with zero blobs reduce to a pure background translation
        synth_dataset(4, 32, 48, seed=3, out_dir=tmp_path)
        for frame in ingest_dataset(tmp_path).frames:
            gt = frame.ground_truth.data
            background = gt[0, 0]
            outside_blobs = np.all(gt == background, axis=2)
            # background region is constant by construction
            assert outside_blobs.sum() > 0
            values = {tuple(v) for v in gt.reshape(-1, 2)}
            assert len(values) <= 5  # background + up to 4 blob motions

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_dataset(2, 32, 48, seed=9, out_dir=a)
        synth_dataset(2, 32, 48, seed=9, out_dir=b)
        for name in ("0000_1.ppm", "0000_2.ppm", "0000.flo", "0001_1.ppm"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_scene_index_stable_under_count(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        synth_dataset(1, 32, 48, seed=4, out_dir=a)
        synth_dataset(3, 32, 48, seed=4, out_dir=b)
        assert (a / "0000_1.ppm").read_bytes() == (b / "0000_1.ppm").read_bytes()

    @pytest.mark.parametrize(
        "args, message",
        [((0, 32, 48, 0), "count must be >= 1"), ((1, 16, 48, 0), "24x24"),
         ((1, 32, 48, -1), "seed must be >= 0, got -1")],
        ids=["count", "size", "seed"],
    )
    def test_rejected_before_writing(self, tmp_path, args, message):
        with pytest.raises(ValueError, match=message):
            synth_dataset(*args, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_frames_in_unit_range(self, tmp_path):
        synth_dataset(2, 32, 48, seed=5, out_dir=tmp_path)
        for f in ingest_dataset(tmp_path).frames:
            for img in (f.frame1, f.frame2):
                assert img.data.min() >= 0.0 and img.data.max() <= 1.0


class TestIngest:
    def test_empty_directory(self, tmp_path):
        index = ingest_dataset(tmp_path)
        assert index.frames == []
        assert any("warning" in line for line in index.report)

    def test_complete_pair_with_gt(self, tmp_path):
        synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path)
        index = ingest_dataset(tmp_path)
        assert len(index.frames) == 1
        assert index.frames[0].ground_truth is not None

    def test_orphan_pair_skipped_with_report(self, tmp_path):
        synth_dataset(2, 32, 48, seed=0, out_dir=tmp_path)
        (tmp_path / "0001_2.ppm").unlink()
        index = ingest_dataset(tmp_path)
        assert len(index.frames) == 1
        assert any("0001" in line for line in index.report)

    def test_unreadable_pair_skipped(self, tmp_path):
        synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path)
        (tmp_path / "0000_2.ppm").write_bytes(b"P5\nnot a ppm")
        index = ingest_dataset(tmp_path)
        assert index.frames == []
        assert any("unreadable" in line for line in index.report)

    @pytest.mark.parametrize("kind", SPOILERS)
    def test_malformed_pair_skipped_with_one_report_line(self, tmp_path, kind):
        synth_dataset(3, 32, 48, seed=0, out_dir=tmp_path)
        write_valid(tmp_path / "0000_valid.ppm", 32, 48)
        word, spoil = SPOILERS[kind]
        spoil(tmp_path, "0001")
        index = ingest_dataset(tmp_path)
        assert [f.frame_id for f in index.frames] == ["0000", "0002"]
        assert index.frames[0].valid.data.all()
        assert len(index.report) == 1
        assert index.report[0].startswith(f"0001: {word} (")
        assert index.report[0].endswith("), pair skipped")

    def test_each_file_parsed_once(self, tmp_path, monkeypatch):
        synth_dataset(2, 32, 48, seed=0, out_dir=tmp_path)
        write_valid(tmp_path / "0000_valid.ppm", 32, 48)
        calls = Counter()

        def counted(read):
            def wrapper(path):
                calls[Path(path).name] += 1
                return read(path)

            return wrapper

        for name in ("read_ppm", "read_flo"):
            monkeypatch.setattr(dataset, name, counted(getattr(dataset, name)))
        frames = load_frames(ingest_dataset(tmp_path))
        assert [f.frame_id for f in frames] == ["0000", "0001"]
        assert calls == Counter({p.name: 1 for p in tmp_path.iterdir()})


class TestCli:
    def test_evaluate_reports_skipped_pairs(self, tmp_path, capsys):
        synth_dataset(2, 32, 48, seed=0, out_dir=tmp_path / "data")
        (tmp_path / "data" / "0001_2.ppm").unlink()
        code = main(
            [
                "evaluate",
                "--data", str(tmp_path / "data"),
                "--iters", "5",
                "--out", str(tmp_path / "eval.csv"),
            ]
        )
        assert code == 0
        assert "0001: missing 0001_2.ppm, pair skipped" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["flow", "defend", "evaluate"])
    def test_commands_run_on_the_pairs_left(self, tmp_path, capsys, command):
        data = tmp_path / "data"
        synth_dataset(len(SPOILERS) + 1, 32, 48, seed=0, out_dir=data)
        for i, (_, spoil) in enumerate(SPOILERS.values()):
            spoil(data, f"{i:04d}")
        out = tmp_path / "out"
        argv = {
            "flow": ["flow", "--in", str(data), "--iters", "5", "--out", str(out)],
            "defend": ["defend", "--in", str(data), "--defense", "lgs", "--out", str(out)],
            "evaluate": ["evaluate", "--data", str(data), "--iters", "5", "--out", str(out)],
        }[command]
        assert main(argv) == 0
        skipped = capsys.readouterr().err.splitlines()
        assert [line.split(" (")[0] for line in skipped] == [
            f"{i:04d}: {word}" for i, (word, _) in enumerate(SPOILERS.values())
        ]
        left = f"{len(SPOILERS):04d}"
        if command == "defend":
            assert {p.name[:4] for p in out.iterdir()} == {left}
        if command == "evaluate":
            with open(out, newline="") as fh:
                assert [r["frame"] for r in csv.DictReader(fh)] == [left]

    @pytest.mark.parametrize("label", [[], ["--attack-label", "lgs"]], ids=["default", "given"])
    def test_unattacked_rows_labelled_none(self, tmp_path, label):
        synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path / "data")
        out = tmp_path / "eval.csv"
        argv = ["evaluate", "--data", str(tmp_path / "data"), "--iters", "5", "--out", str(out)]
        assert main(argv + label) == 0
        with open(out, newline="") as fh:
            assert [r["attack"] for r in csv.DictReader(fh)] == ["none"]

    def test_evaluate_writes_one_lf_row_per_frame(self, tmp_path):
        synth_dataset(2, 32, 48, seed=0, out_dir=tmp_path / "data")
        out = tmp_path / "eval.csv"
        argv = ["evaluate", "--data", str(tmp_path / "data"), "--iters", "5", "--out", str(out)]
        assert main(argv) == 0
        text = out.read_bytes()
        assert b"\r" not in text
        lines = text.decode().splitlines()
        assert lines[0] == "frame,defense,attack,quality_epe,robustness_epe"
        assert [line.split(",")[0] for line in lines[1:]] == ["0000", "0001"]

    def test_evaluate_quotes_a_label_with_a_comma(self, tmp_path):
        data = synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path / "data")
        np.save(tmp_path / "patch.npy", np.full((10, 10, 3), 0.5))
        out = tmp_path / "eval.csv"
        argv = ["evaluate", "--data", str(data), "--iters", "5", "--out", str(out)]
        argv += ["--patch", str(tmp_path / "patch.npy"), "--attack-label", "a,b"]
        assert main(argv) == 0
        with open(out, newline="") as fh:
            [row] = list(csv.DictReader(fh))
        assert row["attack"] == "a,b"
        assert row["robustness_epe"] != ""

    def test_attack_train_log(self, tmp_path):
        data = synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path / "data")
        log = tmp_path / "log.csv"
        argv = ["attack-train", "--data", str(data), "--steps", "2", "--patch-side", "10"]
        argv += ["--iters", "5", "--out", str(tmp_path / "p.ppm"), "--log", str(log)]
        assert main(argv) == 0
        with open(log, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "loss"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        assert b"\r" not in log.read_bytes()

    # The penalty overflows to an infinite loss at step 0.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_attack_train_divergence_exits_1_without_a_patch(self, tmp_path, capsys):
        data = synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path / "data")
        argv = ["attack-train", "--data", str(data), "--awareness", "lgs", "--alpha-penalty",
                "1e308", "--steps", "2", "--patch-side", "10", "--iters", "5"]
        argv += ["--out", str(tmp_path / "p.ppm"), "--log", str(tmp_path / "log.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("optimization diverged at step 0: loss inf")
        assert [p.name for p in tmp_path.iterdir()] == ["data"]

    def test_defend_without_pairs_fails(self, tmp_path, capsys):
        code = main(
            ["defend", "--in", str(tmp_path), "--defense", "lgs", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "no frame pairs found" in capsys.readouterr().err

    def test_experiment_without_pairs_fails_like_the_other_commands(self, tmp_path, capsys):
        data, out = tmp_path / "data", tmp_path / "run"
        data.mkdir()
        assert main(["flow", "--in", str(data), "--out", str(tmp_path / "f.flo")]) == 1
        flow_err = capsys.readouterr().err
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"output_dir": str(out), "data_dir": str(data)}))
        assert main(["experiment", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == flow_err
        assert err.splitlines()[-1] == "no frame pairs found"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["defend", "--in", "d", "--defense", "lgs"], {"defense": lgs_config()}),
            (["defend", "--in", "d", "--defense", "ilp"], {"defense": ilp_config()}),
            (["attack-train", "--data", "d"], {"defense": None, "cfg": AttackConfig()}),
            (["attack-train", "--data", "d", "--awareness", "lgs"],
             {"defense": lgs_config(), "cfg": AttackConfig(awareness="lgs")}),
            (["attack-train", "--data", "d", "--awareness", "ilp"],
             {"defense": ilp_config(), "cfg": AttackConfig(awareness="ilp")}),
            (["evaluate", "--data", "d"], {"defense": None}),
            (["evaluate", "--data", "d", "--defense", "lgs"], {"defense": lgs_config()}),
            (["evaluate", "--data", "d", "--defense", "ilp"], {"defense": ilp_config()}),
            (["flow", "--in", "d"], {}),
            (["experiment"], {"cfg": ExperimentConfig("experiment_out")}),
        ],
        ids=[
            "defend-lgs", "defend-ilp", "attack-train", "attack-train-lgs", "attack-train-ilp",
            "evaluate", "evaluate-lgs", "evaluate-ilp", "flow", "experiment",
        ],
    )
    def test_flag_defaults_are_the_config_defaults(self, argv, expected):
        if argv[0] in ("flow", "attack-train", "evaluate"):
            expected["estimator"] = HornSchunckConfig()
        out = [] if argv[0] == "experiment" else ["--out", "o"]
        args = build_parser().parse_args(argv + out)
        configs = args.configs(args)
        if "estimator" in configs:
            configs["estimator"] = configs["estimator"].config
        assert configs == expected

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["defend", "--in", "{data}", "--defense", "ilp", "--b-lgs", "3"],
             "--defense ilp does not read --b-lgs"),
            (["attack-train", "--data", "{data}", "--awareness", "vanilla", "--k", "8"],
             "--awareness vanilla does not read --k"),
            (["evaluate", "--data", "{data}", "--defense", "none", "--t", "0.2"],
             "--defense none does not read --t"),
        ],
        ids=["defend", "attack-train", "evaluate"],
    )
    def test_unread_defense_flag_exits_2(self, tmp_path, capsys, argv, message):
        data = synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path / "data")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(data=data) for arg in argv] + ["--out", str(out)])
        assert exit_info.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["evaluate", "--data", "{data}", "--iters", "2", "--patch", "{data}/missing.npy"],
             "No such file or directory"),
            (["attack-train", "--data", "{data}", "--iters", "2", "--patch-side", "31",
              "--steps", "1"], "patch side 31 cannot fit a 32x48 frame"),
            (["attack-train", "--data", "{data}", "--iters", "2", "--patch-side", "-3",
              "--steps", "1"], "patch side -3 cannot fit a 32x48 frame"),
            (["evaluate", "--data", "{data}", "--iters", "2", "--patch", "{inputs}/text.npy"],
             "text.npy holds no patch: "),
            (["evaluate", "--data", "{data}", "--iters", "2", "--patch", "{inputs}/4x4.npy"],
             "4x4.npy holds no patch: patch parameter must be 4x4x3"),
            (["evaluate", "--data", "{data}", "--iters", "2", "--patch", "{inputs}/4x6.ppm"],
             "4x6.ppm holds no patch: patch parameter must be 4x4x3"),
            (["defend", "--in", "{data}", "--defense", "lgs", "--k", "4", "--o", "5"],
             "block overlap must satisfy 0 < O < K"),
            (["attack-train", "--data", "{data}", "--lr", "-1"], "learning rate must be >= 0"),
            (["attack-train", "--data", "{data}", "--lr", "inf"],
             "learning rate must be >= 0 and finite, got inf"),
            (["attack-train", "--data", "{data}", "--steps", "0"], "steps must be >= 1"),
            (["attack-train", "--data", "{data}", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["evaluate", "--data", "{data}", "--iters", "0"], "iterations must be >= 1"),
            (["evaluate", "--data", "{data}", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (["experiment", "--config", "{inputs}/malformed.json"],
             "malformed.json: Expecting property name"),
            (["experiment", "--config", "{inputs}/unknown-key.json"],
             "unexpected keyword argument 'stpes'"),
            (["experiment", "--steps", "0"], "steps must be >= 1"),
            (["experiment", "--workers", "0"], "workers must be >= 1, got 0"),
            (["experiment", "--config", "{inputs}/no-defenses.json"],
             "defenses must be non-empty without repeats, got ()"),
            (["experiment", "--config", "{inputs}/zero-workers.json"],
             "workers must be >= 1, got 0"),
            (["experiment", "--config", "{inputs}/small-scenes.json"], "24x24"),
            (["synth", "--seed", "-1"], "seed must be >= 0, got -1"),
            (["synth", "--count", "0"], "count must be >= 1, got 0"),
            (["flow", "--in", "{data}", "--alpha", "nan"],
             "alpha must be finite and positive, got nan"),
            (["flow", "--in", "{data}", "--alpha", "inf"],
             "alpha must be finite and positive, got inf"),
            (["defend", "--in", "{data}", "--defense", "lgs", "--b-lgs", "nan"],
             "b_lgs must be finite and positive, got nan"),
            (["defend", "--in", "{data}", "--defense", "ilp", "--s-ilp", "inf"],
             "s_ilp must be finite and positive, got inf"),
            (["attack-train", "--data", "{data}", "--awareness", "lgs", "--alpha-penalty", "nan"],
             "alpha_penalty must be finite, got nan"),
            (["experiment", "--config", "{inputs}/nan-penalty.json"],
             "alpha_penalty must be finite, got nan"),
            (["defend", "--in", "{data}", "--defense", "lgs", "--k", "40", "--o", "8"],
             "defense block 40 cannot fit a 32x48 frame"),
            (["evaluate", "--data", "{data}", "--defense", "lgs", "--k", "40", "--o", "8"],
             "defense block 40 cannot fit a 32x48 frame"),
            (["attack-train", "--data", "{data}", "--awareness", "ilp", "--k", "40", "--o", "8"],
             "defense block 40 cannot fit a 32x48 frame"),
            (["experiment", "--config", "{inputs}/large-block.json"],
             "defense block 40 cannot fit a 32x48 frame"),
            (["experiment", "--config", "{inputs}/data-large-block.json"],
             "defense block 40 cannot fit a 32x48 frame"),
            (["experiment", "--config", "{inputs}/float-steps.json"],
             "steps must be an integer, got 1.5"),
            (["experiment", "--config", "{inputs}/bool-penalty.json"],
             "alpha_penalty must be a real number, got True"),
        ],
        ids=[
            "missing-patch", "side-too-large", "negative-side", "text-npy", "4x4-npy", "4x6-ppm",
            "overlap-not-below-block", "negative-lr", "inf-lr", "zero-steps", "negative-attack-seed",
            "zero-iters", "negative-eval-seed", "malformed-config", "unknown-config-key",
            "experiment-zero-steps", "experiment-zero-workers", "experiment-no-defenses",
            "experiment-config-zero-workers", "experiment-small-scenes", "synth-negative-seed",
            "synth-zero-count", "nan-alpha", "inf-alpha", "nan-b-lgs", "inf-s-ilp",
            "nan-alpha-penalty", "experiment-nan-alpha-penalty", "defend-large-block",
            "evaluate-large-block", "attack-train-large-block", "experiment-large-block",
            "experiment-data-large-block", "experiment-float-steps",
            "experiment-bool-alpha-penalty",
        ],
    )
    def test_input_error_exits_2_with_a_message(self, tmp_path, capsys, argv, message):
        data = synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path / "data")
        inputs = tmp_path / "inputs"
        inputs.mkdir()
        (inputs / "text.npy").write_text("not an array\n")
        np.save(inputs / "4x4.npy", np.full((4, 4), 0.5))
        write_ppm(Image(np.full((4, 6, 3), 0.5)), inputs / "4x6.ppm")
        (inputs / "malformed.json").write_text('{"steps": 2,}')
        (inputs / "unknown-key.json").write_text('{"stpes": 2}')
        (inputs / "no-defenses.json").write_text('{"defenses": []}')
        (inputs / "zero-workers.json").write_text('{"workers": 0}')
        (inputs / "small-scenes.json").write_text('{"synthetic": {"count": 1, "height": 16, '
                                                   '"width": 48, "seed": 2}}')
        (inputs / "nan-penalty.json").write_text('{"alpha_penalty": NaN}')
        (inputs / "float-steps.json").write_text('{"steps": 1.5}')
        (inputs / "bool-penalty.json").write_text('{"alpha_penalty": true}')
        large_block = {"defense_overrides": {"lgs": {"block": 40}}}
        (inputs / "large-block.json").write_text(json.dumps(
            {"synthetic": {"count": 1, "height": 32, "width": 48, "seed": 2}, **large_block}))
        (inputs / "data-large-block.json").write_text(json.dumps(
            {"data_dir": str(data), **large_block}))
        given = sorted(tmp_path.rglob("*"))
        out = tmp_path / "out.ppm"
        with pytest.raises(SystemExit) as exit_info:
            main([arg.format(data=data, inputs=inputs) for arg in argv] + ["--out", str(out)])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == given

    def test_given_flags_reach_the_configs(self):
        for argv, expected in [
            (["defend", "--in", "d", "--defense", "ilp", "--t", "0.2", "--s-ilp", "9",
              "--t-ilp", "0.4", "--r-telea", "3"],
             {"defense": ilp_config(threshold=0.2, s_ilp=9.0, t_ilp=0.4, r_telea=3)}),
            (["attack-train", "--data", "d", "--awareness", "ilp", "--optimizer", "sgd",
              "--lr", "0.5", "--box", "cov", "--steps", "3", "--alpha-penalty", "0.25",
              "--seed", "4", "--k", "8", "--o", "2", "--alpha", "9", "--iters", "7"],
             {"defense": ilp_config(block=8, overlap=2),
              "cfg": AttackConfig("ilp", "sgd", 0.5, "cov", 3, 0.25, 4),
              "estimator": HornSchunckConfig(alpha=9.0, iterations=7)}),
            (["evaluate", "--data", "d", "--defense", "lgs", "--k", "8", "--o", "2",
              "--b-lgs", "3", "--iters", "7"],
             {"defense": lgs_config(block=8, overlap=2, b_lgs=3.0),
              "estimator": HornSchunckConfig(iterations=7)}),
            (["flow", "--in", "d", "--alpha", "9"], {"estimator": HornSchunckConfig(alpha=9.0)}),
            (["experiment", "--steps", "3", "--patch-side", "12", "--workers", "2"],
             {"cfg": ExperimentConfig("o", steps=3, patch_side=12, workers=2)}),
        ]:
            args = build_parser().parse_args(argv + ["--out", "o"])
            configs = args.configs(args)
            if "estimator" in configs:
                configs["estimator"] = configs["estimator"].config
            assert configs == expected, argv

    def test_choices_are_the_owning_tables(self):
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        choices = {
            (name, action.dest): list(action.choices)
            for name, sub in commands.choices.items()
            for action in sub._actions
            if action.choices is not None
        }
        assert choices == {
            ("defend", "defense"): [d for d in DEFENSES if d != NO_DEFENSE],
            ("attack-train", "awareness"): list(AWARENESS_DEFENSE),
            ("attack-train", "optimizer"): [IFGSM, SGD],
            ("attack-train", "box"): [CLIP, COV],
            ("evaluate", "defense"): list(DEFENSES),
        }


CELL = GridCell("ifgsm", 0.1, "clip")
SYNTHETIC = {"count": 1, "height": 32, "width": 48, "seed": 2}


def tiny_config(out_dir, **overrides) -> ExperimentConfig:
    base = dict(
        output_dir=str(out_dir),
        synthetic=SYNTHETIC,
        estimator={"alpha": 15.0, "iterations": 25},
        defenses=("none", "lgs"),
        awareness=("vanilla",),
        attack_grid=(CELL,),
        steps=4,
        patch_side=10,
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperiment:
    def test_unknown_estimator_key_rejected_before_writing(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", estimator={"iters": 50})
        with pytest.raises(TypeError, match="iters"):
            run_experiment(cfg)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "overrides, error, name",
        [
            ({"defenses": ("none", "lgs-typo")}, ValueError, "lgs-typo"),
            ({"defense_overrides": {"LGS": {"block": 8}}}, ValueError, "LGS"),
            ({"defense_overrides": {"lgs": {"blok": 8}}}, ValueError, "lgs.*blok"),
            ({"defense_overrides": {"none": {"block": 8}}}, ValueError, "none"),
            ({"defense_overrides": {"ilp": {"b_lgs": 3}}}, ValueError, "ilp.*b_lgs"),
            ({"defense_overrides": {"lgs": {"r_telea": 2}}}, ValueError, "lgs.*r_telea"),
            ({"awareness": ("vanilla", "lgs-aware")}, ValueError, "lgs-aware"),
            ({"seeds": ()}, ValueError, "seeds"),
            ({"seeds": (0, 0)}, ValueError, "seeds"),
            ({"awareness": ()}, ValueError, "awareness"),
            ({"awareness": ("vanilla", "vanilla")}, ValueError, "awareness"),
            ({"attack_grid": ()}, ValueError, "attack_grid"),
            ({"attack_grid": (GridCell("ifgsm", 0.1, "clip"),) * 2}, ValueError, "attack_grid"),
            ({"defenses": ()}, ValueError, "defenses"),
            ({"defenses": ("none", "lgs", "none")}, ValueError, "defenses"),
            # 0.1 and 0.1000001 both print as 0.1 in the lr field
            (
                {"attack_grid": (CELL, GridCell("ifgsm", 0.1000001, "clip"))},
                ValueError,
                "attack_grid",
            ),
            ({"attack_grid": (CELL, GridCell("if,gsm", 0.1, "clip"))}, ValueError, "if,gsm"),
            ({"attack_grid": (CELL, GridCell("ifgsm", 0.1, "cilp"))}, ValueError, "cilp"),
            ({"attack_grid": (CELL, GridCell("ifgsm", -1.0, "clip"))}, ValueError, "learning rate"),
            ({"attack_grid": (CELL, GridCell("ifgsm", float("nan"), "clip"))}, ValueError, "nan"),
            ({"attack_grid": (CELL, GridCell("ifgsm", float("inf"), "clip"))}, ValueError, "inf"),
            ({"steps": 0}, ValueError, "steps"),
            ({"seeds": (0, -1)}, ValueError, "seed must be >= 0, got -1"),
            ({"eval_seed": -5}, ValueError, "eval_seed must be >= 0, got -5"),
            ({"workers": 0}, ValueError, "workers must be >= 1, got 0"),
            ({"workers": -2}, ValueError, "workers must be >= 1, got -2"),
            ({"synthetic": {**SYNTHETIC, "hieght": 32}}, TypeError, "hieght"),
            ({"synthetic": {**SYNTHETIC, "height": 16}}, ValueError, "24x24"),
            ({"synthetic": {**SYNTHETIC, "count": 0}}, ValueError, "count"),
            ({"synthetic": {**SYNTHETIC, "seed": -1}}, ValueError, "seed must be >= 0, got -1"),
            # 1.05 x 31 px does not fit the 31 px a 32-row frame leaves
            ({"patch_side": 31}, PlacementError, "patch side 31 cannot fit a 32x48"),
            ({"patch_side": 0}, PlacementError, "patch side 0"),
            ({"patch_side": -3}, PlacementError, "patch side -3"),
            ({"estimator": {"alpha": float("nan")}}, ValueError, "alpha must be finite.*nan"),
            ({"estimator": {"alpha": float("inf")}}, ValueError, "alpha must be finite.*inf"),
            ({"defense_overrides": {"lgs": {"b_lgs": float("nan")}}}, ValueError, "b_lgs.*nan"),
            ({"defense_overrides": {"ilp": {"s_ilp": float("nan")}}}, ValueError, "s_ilp.*nan"),
            ({"alpha_penalty": float("nan")}, ValueError, "alpha_penalty must be finite, got nan"),
            ({"alpha_penalty": float("-inf")}, ValueError, "alpha_penalty.*-inf"),
            ({"defense_overrides": {"lgs": {"block": 40}}}, PlacementError,
             "defense block 40 cannot fit a 32x48 frame"),
            ({"data_dir": "{data}", "defense_overrides": {"lgs": {"block": 40}}}, PlacementError,
             "defense block 40 cannot fit a 32x48 frame"),
            ({"steps": 1.5}, TypeError, "steps must be an integer, got 1.5"),
            ({"patch_side": 10.5}, TypeError, "patch_side must be an integer, got 10.5"),
            ({"seeds": (0.5,)}, TypeError, "seed must be an integer, got 0.5"),
            ({"seeds": (True,)}, TypeError, "seed must be an integer, got True"),
            ({"eval_seed": 3.5}, TypeError, "eval_seed must be an integer, got 3.5"),
            ({"workers": 1.5}, TypeError, "workers must be an integer, got 1.5"),
            ({"estimator": {"alpha": 15.0, "iterations": 5.5}}, TypeError,
             "iterations must be an integer, got 5.5"),
            ({"synthetic": {**SYNTHETIC, "height": 32.5}}, TypeError,
             "height must be an integer, got 32.5"),
            ({"defense_overrides": {"lgs": {"block": 16.5}}}, TypeError,
             "block must be an integer, got 16.5"),
            ({"defense_overrides": {"ilp": {"r_telea": 2.5}}}, TypeError,
             "r_telea must be an integer, got 2.5"),
            ({"estimator": {"alpha": True}}, TypeError, "alpha must be a real number, got True"),
            ({"attack_grid": (GridCell("ifgsm", True, "clip"),)}, TypeError,
             "learning_rate must be a real number, got True"),
            ({"alpha_penalty": False}, TypeError,
             "alpha_penalty must be a real number, got False"),
            ({"defense_overrides": {"lgs": {"threshold": True}}}, TypeError,
             "threshold must be a real number, got True"),
            ({"defense_overrides": {"lgs": {"b_lgs": True}}}, TypeError,
             "b_lgs must be a real number, got True"),
            ({"defense_overrides": {"ilp": {"s_ilp": True}}}, TypeError,
             "s_ilp must be a real number, got True"),
            ({"defense_overrides": {"ilp": {"t_ilp": False}}}, TypeError,
             "t_ilp must be a real number, got False"),
        ],
        ids=[
            "defense",
            "override-key",
            "override-field",
            "override-none",
            "override-unread-ilp",
            "override-unread-lgs",
            "awareness",
            "seeds-empty",
            "seeds-repeated",
            "awareness-empty",
            "awareness-repeated",
            "attack-grid-empty",
            "attack-grid-repeated",
            "defenses-empty",
            "defenses-repeated",
            "attack-grid-same-fields",
            "optimizer",
            "box",
            "learning-rate",
            "learning-rate-nan",
            "learning-rate-inf",
            "steps",
            "seed-negative",
            "eval-seed-negative",
            "workers-zero",
            "workers-negative",
            "synthetic-key",
            "synthetic-size",
            "synthetic-count",
            "synthetic-seed",
            "patch-side-31",
            "patch-side-0",
            "patch-side-negative",
            "alpha-nan",
            "alpha-inf",
            "b-lgs-nan",
            "s-ilp-nan",
            "alpha-penalty-nan",
            "alpha-penalty-inf",
            "block-40",
            "data-block-40",
            "steps-float",
            "patch-side-float",
            "seed-float",
            "seed-bool",
            "eval-seed-float",
            "workers-float",
            "iterations-float",
            "synthetic-height-float",
            "block-float",
            "r-telea-float",
            "alpha-bool",
            "learning-rate-bool",
            "alpha-penalty-bool",
            "threshold-bool",
            "b-lgs-bool",
            "s-ilp-bool",
            "t-ilp-bool",
        ],
    )
    def test_unknown_names_rejected_before_writing(self, tmp_path, overrides, error, name):
        if overrides.get("data_dir") == "{data}":
            data = synth_dataset(out_dir=tmp_path / "data", **SYNTHETIC)
            overrides = {**overrides, "data_dir": str(data)}
        cfg = tiny_config(tmp_path / "run", **overrides)
        with pytest.raises(error, match=name):
            run_experiment(cfg)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("spoil", [False, True], ids=["empty", "malformed"])
    def test_data_without_loadable_pair_rejected_before_writing(self, tmp_path, spoil):
        data = tmp_path / "data"
        data.mkdir()
        if spoil:
            synth_dataset(len(SPOILERS), 32, 48, seed=0, out_dir=data)
            for i, (_, spoil_pair) in enumerate(SPOILERS.values()):
                spoil_pair(data, f"{i:04d}")
        cfg = tiny_config(tmp_path / "run", data_dir=str(data))
        with pytest.raises(NoFramesError, match="no frame pairs found"):
            run_experiment(cfg)
        assert not (tmp_path / "run").exists()

    def test_runs_with_synth_dataset_behind_a_plain_wrapper(self, tmp_path, monkeypatch):
        # A tracer that times synth_dataset binds it as (*args, **kwargs).
        synth = experiment.synth_dataset

        def wrapped(*args, **kwargs):
            return synth(*args, **kwargs)

        monkeypatch.setattr(experiment, "synth_dataset", wrapped)
        result = run_experiment(tiny_config(tmp_path / "run", steps=1))
        assert result.hard_failures == 0
        assert sorted(p.name for p in (tmp_path / "run" / "dataset").iterdir()) == [
            "0000.flo", "0000_1.ppm", "0000_2.ppm"
        ]

    def test_patch_side_too_large_for_given_data_rejected_before_writing(self, tmp_path):
        data = synth_dataset(out_dir=tmp_path / "data", **SYNTHETIC)
        cfg = tiny_config(tmp_path / "run", data_dir=str(data), patch_side=30)
        with pytest.raises(PlacementError, match="patch side 30 cannot fit a 32x48"):
            run_experiment(cfg)
        assert not (tmp_path / "run").exists()

    def test_clean_rerun_leaves_no_stale_report(self, tmp_path):
        data = synth_dataset(out_dir=tmp_path / "data", **{**SYNTHETIC, "count": 2})
        SPOILERS["valid-empty"][1](data, "0001")
        cfg = tiny_config(tmp_path / "run", data_dir=str(data))
        skipped = "0001: rejected (validity mask excludes every pixel), pair skipped"
        assert run_experiment(cfg).report == [skipped]
        assert (tmp_path / "run" / "report.txt").read_text() == skipped + "\n"
        (data / "0001_valid.ppm").unlink()
        assert run_experiment(cfg).report == []
        assert not (tmp_path / "run" / "report.txt").exists()

    def test_data_dir_run_makes_output_dir(self, tmp_path):
        data = synth_dataset(out_dir=tmp_path / "data", **SYNTHETIC)
        result = run_experiment(tiny_config(tmp_path / "new" / "run", data_dir=str(data)))
        assert result.hard_failures == 0
        assert sorted(p.name for p in result.output_dir.iterdir()) == [
            "config.json", "headline.csv", "patches", "per_seed.csv", "scatter.csv",
            "seed_mean.csv",
        ]

    def test_each_clean_flow_computed_once(self, tmp_path, monkeypatch):
        cfg = tiny_config(
            tmp_path / "run",
            synthetic={"count": 2, "height": 32, "width": 48, "seed": 2},
            awareness=("vanilla", "lgs", "ilp"),
        )
        scenes = synth_dataset(out_dir=tmp_path / "scenes", **cfg.synthetic)
        clean = {}  # frame bytes of each clean (defended) pair -> (defense, frame)
        for name in ("none", "lgs", "ilp"):
            defense = defense_config(name)
            for f in ingest_dataset(scenes).frames:
                pair = (f.frame1, f.frame2)
                if defense is not None:
                    pair = tuple(defend(frame, defense)[0] for frame in pair)
                clean[pair[0].data.tobytes() + pair[1].data.tobytes()] = (name, f.frame_id)
        assert len(clean) == 6
        calls = Counter()
        estimate = HornSchunck.estimate

        def counted(self, frame1, frame2):
            key = clean.get(frame1.data.tobytes() + frame2.data.tobytes())
            if key is not None:
                calls[key] += 1
            return estimate(self, frame1, frame2)

        monkeypatch.setattr(HornSchunck, "estimate", counted)
        assert run_experiment(cfg).hard_failures == 0
        assert calls == Counter(dict.fromkeys(clean.values(), 1))

    def test_defend_calls_per_run(self, tmp_path, monkeypatch):
        # A pair is defended, both frames at once, once for each defended
        # clean record and once for each scored record of a defended
        # defense; training records its defense on the tape instead.
        cfg = tiny_config(
            tmp_path / "run",
            synthetic={"count": 2, "height": 32, "width": 48, "seed": 2},
            defenses=("none", "lgs", "ilp"),
            awareness=("vanilla", "lgs", "ilp"),
        )
        calls = Counter()
        original = pipeline.defend_pair

        def counted(frame1, frame2, defense):
            calls[defense.kind] += 1
            return original(frame1, frame2, defense)

        monkeypatch.setattr(pipeline, "defend_pair", counted)
        assert run_experiment(cfg).hard_failures == 0
        pairs, patches = 2, len(cfg.awareness)
        assert calls == {"lgs": pairs * (1 + patches), "ilp": pairs * (1 + patches)}

    def test_single_cell_outputs(self, tmp_path):
        result = run_experiment(tiny_config(tmp_path / "run"))
        assert result.hard_failures == 0
        out = result.output_dir
        for name in ("per_seed.csv", "seed_mean.csv", "headline.csv", "scatter.csv", "config.json"):
            assert (out / name).exists(), name
        per_seed = (out / "per_seed.csv").read_text().strip().splitlines()
        assert len(per_seed) == 1 + 2  # header + 1 cell x 2 defenses
        patches = list((out / "patches").glob("*.ppm"))
        assert len(patches) == 1

    def test_rows_carry_config_hash(self, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        result = run_experiment(cfg)
        body = (result.output_dir / "per_seed.csv").read_text().splitlines()[1:]
        assert all(line.startswith(cfg.config_hash()) for line in body)

    def test_seed_average_matches_per_seed_mean(self, tmp_path):
        cfg = tiny_config(tmp_path / "run", seeds=(0, 1))
        result = run_experiment(cfg)
        per_seed = (result.output_dir / "per_seed.csv").read_text().splitlines()[1:]
        mean = (result.output_dir / "seed_mean.csv").read_text().splitlines()[1:]
        values = {}
        for line in per_seed:
            parts = line.split(",")
            values.setdefault(parts[6], []).append(float(parts[9]))
        for line in mean:
            parts = line.split(",")
            expected = np.mean(values[parts[5]])
            assert np.isclose(float(parts[9]), expected, atol=5e-7)

    def test_byte_identical_reruns(self, tmp_path):
        cfg_a = tiny_config(tmp_path / "a")
        cfg_b = tiny_config(tmp_path / "b")
        ra = run_experiment(cfg_a)
        rb = run_experiment(cfg_b)
        for name in ("per_seed.csv", "seed_mean.csv", "headline.csv", "scatter.csv"):
            a_text = (ra.output_dir / name).read_text()
            b_text = (rb.output_dir / name).read_text()
            assert a_text == b_text, name

    def test_parallel_workers_identical_outputs(self, tmp_path):
        serial = run_experiment(tiny_config(tmp_path / "serial", seeds=(0, 1)))
        parallel = run_experiment(
            tiny_config(tmp_path / "parallel", seeds=(0, 1), workers=2)
        )
        for name in ("per_seed.csv", "seed_mean.csv", "headline.csv"):
            assert (serial.output_dir / name).read_text() == (
                parallel.output_dir / name
            ).read_text()

    def test_process_pool_not_imported_with_the_harness(self):
        # Only a run with workers > 1 imports the process pool, so a
        # one-process run does not pay for multiprocessing at start-up.
        src = Path(experiment.__file__).resolve().parents[2]
        code = (
            "import sys, flowpatch.harness; "
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert done.stdout.strip() == "[]"

    def test_failing_cell_isolated(self, tmp_path, monkeypatch):
        train_patch = experiment.train_patch

        def crashing(estimator, defense, pairs, attack_cfg, **kwargs):
            if attack_cfg.learning_rate == 0.05:
                raise RuntimeError("training crashed on purpose")
            return train_patch(estimator, defense, pairs, attack_cfg, **kwargs)

        monkeypatch.setattr(experiment, "train_patch", crashing)
        cfg = tiny_config(
            tmp_path / "run",
            attack_grid=(GridCell("ifgsm", 0.1, "clip"), GridCell("ifgsm", 0.05, "clip")),
        )
        result = run_experiment(cfg)
        assert result.hard_failures > 0
        lines = (result.output_dir / "per_seed.csv").read_text().splitlines()[1:]
        by_lr = {line.split(",")[3]: line.split(",")[7] for line in lines}
        assert by_lr["0.1"] == "ok"
        assert by_lr["0.05"] == "fail"
        headline = (result.output_dir / "headline.csv").read_text().splitlines()
        assert len(headline) > 1  # good cell still produced results

    def test_headline_picks_max_robustness(self, tmp_path):
        cfg = tiny_config(
            tmp_path / "run",
            attack_grid=(GridCell("ifgsm", 0.1, "clip"), GridCell("ifgsm", 0.01, "clip")),
        )
        result = run_experiment(cfg)
        mean_lines = (result.output_dir / "seed_mean.csv").read_text().splitlines()[1:]
        best = {}
        for line in mean_lines:
            parts = line.split(",")
            key = (parts[5], parts[1])
            rob = float(parts[9])
            if key not in best or rob > best[key]:
                best[key] = rob
        headline = (result.output_dir / "headline.csv").read_text().splitlines()[1:]
        for line in headline:
            parts = line.split(",")
            assert np.isclose(float(parts[7]), best[(parts[1], parts[2])])

    def test_every_cell_saves_its_own_patch(self, tmp_path):
        awareness = ("vanilla", "lgs")
        grid = (GridCell("ifgsm", 0.1, "clip"), GridCell("ifgsm", 0.1, "cov"))
        cfg = tiny_config(
            tmp_path / "run", awareness=awareness, attack_grid=grid, seeds=(0, 1), steps=1
        )
        result = run_experiment(cfg)
        assert result.hard_failures == 0
        patches = result.output_dir / "patches"
        tags = [(a, c.box, s) for a in awareness for c in grid for s in cfg.seeds]
        expected = {
            f"{a}_ifgsm_0.1_{box}_seed{s}.{ext}"
            for a, box, s in tags
            for ext in ("npy", "ppm", "txt")
        }
        assert {p.name for p in patches.iterdir()} == expected
        for a, box, s in tags:
            sidecar = (patches / f"{a}_ifgsm_0.1_{box}_seed{s}.txt").read_text()
            fields = dict(line.split("=", 1) for line in sidecar.splitlines())
            assert (fields["awareness"], fields["box"], fields["seed"]) == (a, box, str(s))

    def test_saved_patch_reproduces_its_row(self, tmp_path, capsys):
        grid = (GridCell("ifgsm", 0.1, "clip"), GridCell("ifgsm", 0.1, "cov"))
        cfg = tiny_config(tmp_path / "run", attack_grid=grid)
        out = run_experiment(cfg).output_dir
        with open(out / "per_seed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["defense"] for r in rows} == {"none", "lgs"}
        for r in rows:
            stem = f"{r['awareness']}_{r['optimizer']}_{r['lr']}_{r['box']}_seed{r['seed']}"
            code = main(
                [
                    "evaluate",
                    "--data", str(out / "dataset"),
                    "--defense", r["defense"],
                    "--patch", str(out / "patches" / f"{stem}.npy"),
                    "--seed", str(cfg.eval_seed),
                    "--iters", str(cfg.estimator["iterations"]),
                    "--out", str(tmp_path / "eval.csv"),
                ]
            )
            assert code == 0
            printed = capsys.readouterr().out
            robustness = float(printed.rsplit("robustness=", 1)[1])
            assert f"{robustness:.6f}" == r["robustness_epe"], (stem, r["defense"])

    def test_rows_score_the_saved_patch(self, tmp_path, monkeypatch, capsys):
        # Every cell saves a gray patch instead of the one it trained, so
        # every robustness is the gray patch's, as `evaluate --patch` gives it.
        # Each cell's .npy is read once, not once per defense.
        save_patch, load_patch = experiment.save_patch, experiment.load_patch
        loaded = Counter()

        def saving_gray(stem, patch, cfg):
            save_patch(stem, Patch(patch.side, "clip", np.full(patch.param.shape, 0.5)), cfg)

        def counted(path):
            loaded[Path(path).name] += 1
            return load_patch(path)

        monkeypatch.setattr(experiment, "save_patch", saving_gray)
        monkeypatch.setattr(experiment, "load_patch", counted)
        grid = (GridCell("ifgsm", 0.1, "clip"), GridCell("ifgsm", 0.1, "cov"))
        cfg = tiny_config(tmp_path / "run", attack_grid=grid)
        out = run_experiment(cfg).output_dir
        assert loaded == {f"vanilla_ifgsm_0.1_{box}_seed0.npy": 1 for box in ("clip", "cov")}
        gray = out / "patches" / "vanilla_ifgsm_0.1_clip_seed0.npy"
        assert np.all(np.load(gray) == 0.5)
        expected = {}
        for defense in cfg.defenses:
            argv = ["evaluate", "--data", str(out / "dataset"), "--defense", defense,
                    "--patch", str(gray), "--seed", str(cfg.eval_seed),
                    "--iters", str(cfg.estimator["iterations"]), "--out", str(tmp_path / "e.csv")]
            assert main(argv) == 0
            expected[defense] = float(capsys.readouterr().out.rsplit("robustness=", 1)[1])
        with open(out / "per_seed.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for r in rows:
            assert (r["status"], r["robustness_epe"]) == (
                "ok", f"{expected[r['defense']]:.6f}"
            ), (r["box"], r["defense"])

    @pytest.mark.parametrize(
        "spoil, error",
        [
            (lambda npy: npy.unlink(), "FileNotFoundError"),
            (lambda npy: npy.write_text("not an array\n"), "FormatError"),
            (lambda npy: np.save(npy, np.full((4, 4), 0.5)), "FormatError"),
        ],
        ids=["missing", "text", "4x4"],
    )
    def test_unreadable_saved_patch_fails_its_cell(self, tmp_path, monkeypatch, spoil, error):
        save_patch = experiment.save_patch

        def spoiling_cov_npy(stem, patch, cfg):
            save_patch(stem, patch, cfg)
            if cfg.box == "cov":
                spoil(Path(f"{stem}.npy"))

        monkeypatch.setattr(experiment, "save_patch", spoiling_cov_npy)
        grid = (GridCell("ifgsm", 0.1, "clip"), GridCell("ifgsm", 0.1, "cov"))
        result = run_experiment(tiny_config(tmp_path / "run", attack_grid=grid))
        assert result.hard_failures == 1
        assert len(result.report) == 1
        assert result.report[0].startswith(f"vanilla_ifgsm_0.1_cov_seed0: fail ({error}")
        with open(result.output_dir / "per_seed.csv", newline="") as fh:
            status = {(r["box"], r["defense"]): (r["status"], r["robustness_epe"])
                      for r in csv.DictReader(fh)}
        assert {k: s for k, (s, _) in status.items()} == {
            ("clip", "none"): "ok", ("clip", "lgs"): "ok",
            ("cov", "none"): "fail", ("cov", "lgs"): "fail",
        }
        assert status["cov", "none"][1] == status["cov", "lgs"][1] == ""
        assert (result.output_dir / "report.txt").read_text() == result.report[0] + "\n"

    def test_workers_come_from_the_config_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLOWPATCH_WORKERS", "two")
        result = run_experiment(tiny_config(tmp_path / "run"))
        assert result.hard_failures == 0

    def test_div_partial_and_fail_rows(self, tmp_path, monkeypatch):
        # Training diverges for seed 1 and for lr 0.05; evaluating the
        # lgs-aware patch under lgs raises.  Scoring reads the saved .npy, so
        # that patch is found by its values.
        train_patch = experiment.train_patch
        evaluate_pipeline = experiment.evaluate_pipeline
        lgs_aware = []

        def diverging(estimator, defense, pairs, attack_cfg, **kwargs):
            if attack_cfg.seed == 1 or attack_cfg.learning_rate == 0.05:
                raise DivergenceError("diverged on purpose")
            result = train_patch(estimator, defense, pairs, attack_cfg, **kwargs)
            if attack_cfg.awareness == "lgs":
                lgs_aware.append(result.patch)
            return result

        def failing(estimator, defense, patch, frames, clean, **kwargs):
            if defense is not None and any(
                np.array_equal(patch.param, p.materialize()) for p in lgs_aware
            ):
                raise RuntimeError("evaluation failed on purpose")
            return evaluate_pipeline(estimator, defense, patch, frames, clean, **kwargs)

        monkeypatch.setattr(experiment, "train_patch", diverging)
        monkeypatch.setattr(experiment, "evaluate_pipeline", failing)
        cfg = tiny_config(
            tmp_path / "run",
            awareness=("vanilla", "lgs"),
            attack_grid=(CELL, GridCell("ifgsm", 0.05, "clip")),
            seeds=(0, 1),
        )
        result = run_experiment(cfg)
        assert result.hard_failures == 1

        def table(name, *keys):
            with open(result.output_dir / name, newline="") as fh:
                return {tuple(r[k] for k in keys): r for r in csv.DictReader(fh)}

        per_seed = table("per_seed.csv", "awareness", "lr", "seed", "defense")
        assert {k: r["status"] for k, r in per_seed.items()} == {
            (a, lr, s, d): "div" if s == "1" or lr == "0.05" else
            "fail" if (a, d) == ("lgs", "lgs") else "ok"
            for a in cfg.awareness for lr in ("0.1", "0.05") for s in ("0", "1")
            for d in cfg.defenses
        }
        assert per_seed["lgs", "0.1", "0", "lgs"]["robustness_epe"] == ""
        mean = table("seed_mean.csv", "awareness", "lr", "defense")
        assert [(r["status"], r["n_seeds"]) for r in mean.values()] == [
            ("partial", "1"), ("partial", "1"), ("div", "0"), ("div", "0"),
            ("partial", "1"), ("fail", "0"), ("div", "0"), ("div", "0"),
        ]
        for (a, lr, d), r in mean.items():
            survivor = per_seed[a, lr, "0", d]["robustness_epe"]
            assert r["robustness_epe"] == (survivor if r["status"] == "partial" else "")
        # Cells without a mean (lr 0.05, and the lgs-aware patch under lgs)
        # are left out of the headline, and with them lgs from the scatter.
        headline = table("headline.csv", "defense", "attack", "lr")
        assert sorted(headline) == [
            ("lgs", "vanilla", "0.1"), ("none", "lgs", "0.1"), ("none", "vanilla", "0.1")
        ]
        assert list(table("scatter.csv", "label")) == [("none",)]
        assert {line.split(":")[0] for line in result.report} == {
            *(f"{a}_ifgsm_{lr}_clip_seed{s}" for a in cfg.awareness
              for lr, s in (("0.1", 1), ("0.05", 0), ("0.05", 1))),
            "lgs_ifgsm_0.1_clip_seed0/eval/lgs",
        }

    def test_experiment_command(self, tmp_path, monkeypatch):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(tiny_config(tmp_path / "a").to_dict()))
        assert main(["experiment", "--config", str(config)]) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["experiment", "--config", str(a / "config.json"), "--out", str(b)]) == 0
        names = ["per_seed.csv", "seed_mean.csv", "headline.csv", "scatter.csv"]
        names += [f"patches/{p.name}" for p in (a / "patches").iterdir()]
        assert len(names) == 4 + 3
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        def crashing(*args, **kwargs):
            raise RuntimeError("training crashed on purpose")

        monkeypatch.setattr(experiment, "train_patch", crashing)
        config.write_text(json.dumps(tiny_config(tmp_path / "c").to_dict()))
        assert main(["experiment", "--config", str(config)]) == 1
