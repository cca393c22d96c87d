import csv
from collections import Counter

import numpy as np
import pytest

from flowpatch.cli import _defense_from_args, _estimator, build_parser, main
from flowpatch.core import read_flo, read_ppm
from flowpatch.defense import defend, ilp_config, lgs_config
from flowpatch.flow import HornSchunck, HornSchunckConfig
from flowpatch.harness import (
    ExperimentConfig,
    GridCell,
    ingest_dataset,
    load_frames,
    run_experiment,
    synth_dataset,
)


class TestSynth:
    def test_single_scene_file_count(self, tmp_path):
        synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["0000.flo", "0000_1.ppm", "0000_2.ppm"]

    def test_ground_truth_constant_for_global_shift(self, tmp_path):
        # scenes with zero blobs reduce to a pure background translation
        synth_dataset(4, 32, 48, seed=3, out_dir=tmp_path)
        for entry in ingest_dataset(tmp_path).entries:
            flow = read_flo(entry.ground_truth)
            gt = flow.data
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

    def test_frames_in_unit_range(self, tmp_path):
        synth_dataset(2, 32, 48, seed=5, out_dir=tmp_path)
        for f in load_frames(ingest_dataset(tmp_path)):
            for img in (f.frame1, f.frame2):
                assert img.data.min() >= 0.0 and img.data.max() <= 1.0


class TestIngest:
    def test_empty_directory(self, tmp_path):
        index = ingest_dataset(tmp_path)
        assert index.entries == []
        assert any("warning" in line for line in index.report)

    def test_complete_pair_with_gt(self, tmp_path):
        synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path)
        index = ingest_dataset(tmp_path)
        assert len(index.entries) == 1
        assert index.entries[0].ground_truth is not None

    def test_orphan_pair_skipped_with_report(self, tmp_path):
        synth_dataset(2, 32, 48, seed=0, out_dir=tmp_path)
        (tmp_path / "0001_2.ppm").unlink()
        index = ingest_dataset(tmp_path)
        assert len(index.entries) == 1
        assert any("0001" in line for line in index.report)

    def test_unreadable_pair_skipped(self, tmp_path):
        synth_dataset(1, 32, 48, seed=0, out_dir=tmp_path)
        (tmp_path / "0000_2.ppm").write_bytes(b"P5\nnot a ppm")
        index = ingest_dataset(tmp_path)
        assert index.entries == []
        assert any("unreadable" in line for line in index.report)


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

    def test_defend_without_pairs_fails(self, tmp_path, capsys):
        code = main(
            ["defend", "--in", str(tmp_path), "--defense", "lgs", "--out", str(tmp_path / "out")]
        )
        assert code == 1
        assert "no frame pairs found" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["attack-train", "evaluate"])
    def test_flag_defaults_are_the_config_defaults(self, command):
        args = build_parser().parse_args([command, "--data", "d", "--out", "o"])
        assert _defense_from_args(args, "lgs") == lgs_config()
        assert _defense_from_args(args, "ilp") == ilp_config()
        assert _estimator(args).config == HornSchunckConfig()

    def test_given_flags_reach_the_configs(self):
        argv = ["evaluate", "--data", "d", "--out", "o", "--k", "8", "--o", "2"]
        args = build_parser().parse_args(argv + ["--r-telea", "3", "--iters", "7"])
        assert _defense_from_args(args, "lgs") == lgs_config(block=8, overlap=2)
        assert _defense_from_args(args, "ilp") == ilp_config(block=8, overlap=2, r_telea=3)
        assert _estimator(args).config == HornSchunckConfig(iterations=7)


def tiny_config(out_dir, **overrides) -> ExperimentConfig:
    base = dict(
        output_dir=str(out_dir),
        synthetic={"count": 1, "height": 32, "width": 48, "seed": 2},
        estimator={"alpha": 15.0, "iterations": 25},
        defenses=("none", "lgs"),
        awareness=("vanilla",),
        attack_grid=(GridCell("ifgsm", 0.1, "clip"),),
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
            ({"defense_overrides": {"lgs": {"blok": 8}}}, TypeError, "blok"),
            ({"defense_overrides": {"none": {"block": 8}}}, ValueError, "none"),
            ({"awareness": ("vanilla", "lgs-aware")}, ValueError, "lgs-aware"),
        ],
        ids=["defense", "override-key", "override-field", "override-none", "awareness"],
    )
    def test_unknown_names_rejected_before_writing(self, tmp_path, overrides, error, name):
        cfg = tiny_config(tmp_path / "run", **overrides)
        with pytest.raises(error, match=name):
            run_experiment(cfg)
        assert not (tmp_path / "run").exists()

    def test_each_clean_flow_computed_once(self, tmp_path, monkeypatch):
        cfg = tiny_config(
            tmp_path / "run",
            synthetic={"count": 2, "height": 32, "width": 48, "seed": 2},
            awareness=("vanilla", "lgs", "ilp"),
        )
        scenes = synth_dataset(out_dir=tmp_path / "scenes", **cfg.synthetic)
        clean = {}  # frame bytes of each clean (defended) pair -> (defense, frame)
        for name in ("none", "lgs", "ilp"):
            defense = cfg.defense_config(name)
            for f in load_frames(ingest_dataset(scenes)):
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

    def test_failing_cell_isolated(self, tmp_path):
        cfg = tiny_config(
            tmp_path / "run",
            attack_grid=(
                GridCell("ifgsm", 0.1, "clip"),
                GridCell("ifgsm", -1.0, "clip"),  # invalid lr -> cell fails
            ),
        )
        result = run_experiment(cfg)
        assert result.hard_failures > 0
        lines = (result.output_dir / "per_seed.csv").read_text().splitlines()[1:]
        by_lr = {line.split(",")[3]: line.split(",")[7] for line in lines}
        assert by_lr["0.1"] == "ok"
        assert by_lr["-1"] == "fail"
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

    def test_workers_come_from_the_config_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLOWPATCH_WORKERS", "two")
        result = run_experiment(tiny_config(tmp_path / "run"))
        assert result.hard_failures == 0
