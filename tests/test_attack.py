import dataclasses
import tracemalloc

import numpy as np
import pytest

from flowpatch.attack import (
    AcsLossStage,
    AttackConfig,
    Patch,
    PatchPenaltyStage,
    PatchPose,
    PlacePatchStage,
    load_patch,
    manual_patch,
    optimizer_step,
    place_patch,
    placement_geometry,
    random_patch,
    sample_pose,
    save_patch,
    train_patch,
)
from flowpatch.core import Image, read_ppm, write_ppm
from flowpatch.defense import lgs_config
from flowpatch.diff import AddWeightedStage, Stage, grad_check
from flowpatch.errors import DivergenceError, FormatError, PlacementError
from flowpatch.flow import HornSchunck, HornSchunckConfig
from flowpatch.harness import ingest_dataset, synth_dataset
from flowpatch.metrics import EvalFrame, clean_flows


def flat_frames(h=32, w=48, value=0.5):
    return Image(np.full((h, w, 3), value)), Image(np.full((h, w, 3), value))


def penalty(patch, order):
    return float(PatchPenaltyStage(order, patch.validity)(patch.materialize()))


class ScaleStage(Stage):
    """y = factor * x."""

    name = "scale"

    def __init__(self, factor):
        self.factor = factor

    def forward(self, ctx, inputs):
        return (self.factor * inputs[0],)

    def backward(self, ctx, cotangents):
        return (self.factor * cotangents[0],)


class TestPatchModel:
    def test_manual_patch_2x2(self):
        p = manual_patch(2, 1)
        expected = np.array([[0.0, 1.0], [1.0, 0.0]])
        for ch in range(3):
            assert np.array_equal(p.materialize()[:, :, ch], expected)

    def test_manual_patch_cell_borders_jump_by_one(self):
        p = manual_patch(12, cell=2).materialize()[:, :, 0]
        for r in range(12):
            for c in range(0, 12 - 2, 2):
                assert abs(p[r, c + 2] - p[r, c + 1]) == 1.0

    def test_cov_materialization_limits(self):
        p = Patch(2, "cov", np.zeros((2, 2, 3)))
        assert np.all(p.materialize() == 0.5)
        hot = Patch(2, "cov", np.full((2, 2, 3), 40.0))
        cold = Patch(2, "cov", np.full((2, 2, 3), -40.0))
        assert np.allclose(hot.materialize(), 1.0)
        assert np.allclose(cold.materialize(), 0.0)
        # open range at any representable tanh argument below saturation
        mid = Patch(2, "cov", np.full((2, 2, 3), 18.0))
        assert np.all(mid.materialize() < 1.0)
        assert np.all(Patch(2, "cov", np.full((2, 2, 3), -18.0)).materialize() > 0.0)

    def test_clip_patch_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Patch(2, "clip", np.full((2, 2, 3), 1.5))

    @pytest.mark.parametrize("box", ["clip", "cov"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_patch_rejects_non_finite(self, box, bad):
        param = np.full((2, 2, 3), 0.5)
        param[1, 0, 2] = bad
        with pytest.raises(ValueError):
            Patch(2, box, param)

    def test_random_patch_in_range_both_boxes(self):
        rng = np.random.default_rng(0)
        for box in ("clip", "cov"):
            p = random_patch(8, box, rng)
            vals = p.materialize()
            assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_load_patch_reads_what_save_patch_wrote(self, tmp_path):
        patch = random_patch(6, "cov", np.random.default_rng(0))
        save_patch(tmp_path / "p", patch, AttackConfig(box="cov"))
        saved = load_patch(tmp_path / "p.npy")
        assert (saved.side, saved.parameterization) == (6, "clip")
        assert saved.param.tobytes() == patch.materialize().tobytes()
        preview = load_patch(str(tmp_path / "p.ppm"))
        assert np.array_equal(preview.param, read_ppm(tmp_path / "p.ppm").data)
        with pytest.raises(FileNotFoundError):
            load_patch(tmp_path / "missing.npy")

    @pytest.mark.parametrize(
        "name, write, message",
        [
            ("text.npy", lambda path: path.write_text("not an array\n"), "pickled"),
            ("4x4.npy", lambda path: np.save(path, np.full((4, 4), 0.5)), "must be 4x4x3"),
            ("4x6.ppm", lambda path: write_ppm(Image(np.full((4, 6, 3), 0.5)), path),
             "must be 4x4x3"),
            ("scalar.npy", lambda path: np.save(path, 0.5), "unsized"),
            ("range.npy", lambda path: np.save(path, np.full((4, 4, 3), 2.0)), r"\[0, 1\]"),
        ],
        ids=["text-npy", "4x4-npy", "4x6-ppm", "scalar-npy", "out-of-range-npy"],
    )
    def test_load_patch_rejects_a_file_without_a_patch(self, tmp_path, name, write, message):
        write(tmp_path / name)
        with pytest.raises(FormatError, match=f"{name} holds no patch: .*{message}"):
            load_patch(tmp_path / name)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            AttackConfig(seed=-1)


class TestPlacement:
    def test_identity_pose_copies_patch_values(self):
        # odd side keeps the patch grid aligned with an integer frame center
        f1, f2 = flat_frames()
        patch = manual_patch(9, 3)
        pose = PatchPose((16.0, 20.0), 0.0, 1.0)
        out1, out2, mask = place_patch(f1, f2, patch, pose)
        validity = patch.validity
        values = patch.materialize()
        rows, cols = np.where(mask.data == 1)
        for r, c in zip(rows, cols):
            pr, pc = r - 12, c - 16
            assert validity[pr, pc]
            assert np.array_equal(out1.data[r, c], values[pr, pc])
        assert np.array_equal(out1.data, out2.data)

    def test_footprint_area_matches_brute_force_circle_count(self):
        # half-integer center aligns the even-sided patch grid with the frame
        side = 24
        f1, f2 = flat_frames(64, 64)
        pose = PatchPose((32.5, 32.5), 0.0, 1.0)
        _, _, mask = place_patch(f1, f2, random_patch(side, "clip", np.random.default_rng(1)), pose)
        center = (side - 1) / 2.0
        count = sum(
            1
            for r in range(side)
            for c in range(side)
            if (r - center) ** 2 + (c - center) ** 2 < (side / 2.0) ** 2
        )
        assert mask.data.sum() == count

    def test_pixels_outside_mask_bit_identical(self):
        rng = np.random.default_rng(2)
        f1 = Image(rng.uniform(0, 1, (40, 40, 3)))
        f2 = Image(rng.uniform(0, 1, (40, 40, 3)))
        patch = random_patch(10, "clip", rng)
        pose = PatchPose((20.3, 17.8), 7.0, 1.02)
        out1, out2, mask = place_patch(f1, f2, patch, pose)
        outside = mask.data == 0
        assert np.array_equal(out1.data[outside], f1.data[outside])
        assert np.array_equal(out2.data[outside], f2.data[outside])

    def test_out_of_bounds_pose_rejected(self):
        f1, f2 = flat_frames(32, 32)
        patch = random_patch(16, "clip", np.random.default_rng(3))
        with pytest.raises(PlacementError):
            place_patch(f1, f2, patch, PatchPose((4.0, 16.0), 0.0, 1.0))

    def test_bilinear_placement_gradient_exact(self):
        rng = np.random.default_rng(4)
        geometry = placement_geometry(PatchPose((4.1, 3.7), 12.0, 1.0), 4, (8, 8))
        stage = PlacePatchStage(geometry, 4)
        inputs = (
            rng.uniform(0, 1, (8, 8, 3)),
            rng.uniform(0, 1, (8, 8, 3)),
            rng.uniform(0, 1, (4, 4, 3)),
        )
        report = grad_check(stage, inputs)
        assert report.passed, report

    @pytest.mark.parametrize("side, fits", [(29, True), (30, False), (31, False), (32, False)])
    def test_fit_does_not_depend_on_the_draw(self, side, fits):
        # 1.05 * side against the 31 px a 32-row frame leaves: every draw fits
        # or none does, and a rejected side draws nothing.
        rng = np.random.default_rng(0)
        for _ in range(300):
            state = rng.bit_generator.state
            if fits:
                placement_geometry(sample_pose(rng, side, (32, 48)), side, (32, 48))
            else:
                with pytest.raises(PlacementError, match=f"patch side {side} cannot fit"):
                    sample_pose(rng, side, (32, 48))
                assert rng.bit_generator.state == state

    @pytest.mark.parametrize("side", [0, -3])
    def test_non_positive_side_rejected(self, side):
        with pytest.raises(PlacementError, match=f"patch side {side} cannot fit"):
            sample_pose(np.random.default_rng(0), side, (32, 48))

    def test_sampled_poses_always_placeable(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pose = sample_pose(rng, 24, (64, 128))
            placement_geometry(pose, 24, (64, 128))  # must not raise
            assert -10 <= pose.rotation <= 10
            assert 0.95 <= pose.scale <= 1.05


class TestAcsLoss:
    def test_parallel_flows_give_one(self):
        flow = np.full((4, 4, 2), 1.5)
        assert np.isclose(AcsLossStage(flow, np.zeros((4, 4)))(flow), 1.0)

    def test_antiparallel_flows_give_minus_one(self):
        flow = np.full((4, 4, 2), 1.5)
        assert np.isclose(AcsLossStage(flow, np.zeros((4, 4)))(-flow), -1.0)

    def test_half_orthogonal_gives_half(self):
        ref = np.tile([1.0, 0.0], (4, 4, 1))
        adv = np.tile([1.0, 0.0], (4, 4, 1))
        adv[:, 2:] = [0.0, 1.0]
        assert np.isclose(AcsLossStage(ref, np.zeros((4, 4)))(adv), 0.5)

    def test_full_mask_is_error(self):
        with pytest.raises(ValueError):
            AcsLossStage(np.ones((2, 2, 2)), np.ones((2, 2)))

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ref = rng.standard_normal((5, 5, 2))
            adv = rng.standard_normal((5, 5, 2))
            mask = (rng.uniform(0, 1, (5, 5)) < 0.3).astype(np.float64)
            val = AcsLossStage(ref, mask)(adv)
            assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12

    def test_exact_gradient(self):
        rng = np.random.default_rng(7)
        ref = rng.standard_normal((5, 5, 2))
        excluded = np.zeros((5, 5))
        excluded[2, 2] = 1
        report = grad_check(AcsLossStage(ref, excluded), rng.standard_normal((5, 5, 2)))
        assert report.passed, report


class TestPatchPenalty:
    def test_constant_patch_zero_both_orders(self):
        p = Patch(8, "clip", np.full((8, 8, 3), 0.6))
        assert penalty(p, "first") == 0.0
        assert penalty(p, "second") == 0.0

    def test_linear_ramp_zero_curvature_positive_slope(self):
        ramp = np.tile(np.linspace(0, 1, 8), (8, 1))
        p = Patch(8, "clip", np.repeat(ramp[:, :, None], 3, axis=2))
        assert penalty(p, "second") == pytest.approx(0.0, abs=1e-12)
        assert penalty(p, "first") > 0.0

    def test_checkerboard_exceeds_constant_and_ramp(self):
        # cell=2: the smallest cell whose pattern registers on both central
        # difference orders (period-2 patterns are invisible to first order).
        side = 12
        checker = manual_patch(side, cell=2)
        ramp = Patch(
            side,
            "clip",
            np.repeat(np.tile(np.linspace(0, 1, side), (side, 1))[:, :, None], 3, axis=2),
        )
        const = Patch(side, "clip", np.full((side, side, 3), 0.5))
        for order in ("first", "second"):
            assert penalty(checker, order) > penalty(ramp, order)
            assert penalty(checker, order) > penalty(const, order)

    def test_one_pixel_checkerboard_maximizes_second_order(self):
        side = 12
        assert penalty(manual_patch(side, 1), "second") > penalty(
            manual_patch(side, 2), "second"
        )

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="derivative order"):
            PatchPenaltyStage("third", np.ones((6, 6)))

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_exact_gradient(self, order):
        rng = np.random.default_rng(8)
        from flowpatch.attack import circular_validity

        stage = PatchPenaltyStage(order, circular_validity(6))
        report = grad_check(stage, rng.uniform(0, 1, (6, 6, 3)))
        assert report.passed, report


class TestAttackLoss:
    """The objective `train_patch` records: the ACS loss plus alpha times the
    awareness's patch penalty, summed by `AddWeightedStage`."""

    def test_alpha_zero_reduces_to_acs(self):
        # Without a defense, awareness only adds the penalty term, so at
        # alpha 0 aware training is vanilla training, loss for loss.
        estimator = HornSchunck(HornSchunckConfig(iterations=40))
        cfg = AttackConfig(steps=4, learning_rate=0.1, alpha_penalty=0.0, seed=5)
        vanilla = train_patch(estimator, None, tiny_dataset(), cfg, patch_side=8)
        for awareness in ("lgs", "ilp"):
            aware_cfg = dataclasses.replace(cfg, awareness=awareness)
            aware = train_patch(estimator, None, tiny_dataset(), aware_cfg, patch_side=8)
            assert aware.losses == vanilla.losses
            assert np.array_equal(aware.patch.param, vanilla.patch.param)

    def test_constant_patch_all_losses_equal(self):
        rng = np.random.default_rng(9)
        ref = rng.standard_normal((6, 6, 2))
        adv = rng.standard_normal((6, 6, 2))
        base = AcsLossStage(ref, np.zeros((6, 6)))(adv)
        const = Patch(4, "clip", np.full((4, 4, 3), 0.3))
        for order in ("first", "second"):
            assert AddWeightedStage(1e-8)(base, penalty(const, order)) == base

    def test_weighted_sum_arithmetic(self):
        # alpha=1e-8, penalty=1e6, acs=-0.5 -> loss -0.49
        stage = AddWeightedStage(1e-8)
        assert np.isclose(stage(-0.5, 1e6), -0.49)
        d_acs, d_penalty = stage.backward({}, (np.array(1.0),))
        assert d_acs == 1.0 and d_penalty == 1e-8


class TestOptimizerStep:
    def test_ifgsm_clip_clamps_at_zero(self):
        patch = Patch(2, "clip", np.full((2, 2, 3), 0.05))
        cfg = AttackConfig(optimizer="ifgsm", learning_rate=0.1, box="clip")
        out = optimizer_step(patch, np.ones((2, 2, 3)), cfg)
        assert np.all(out.param == 0.0)

    def test_sgd_zero_gradient_is_identity(self):
        patch = Patch(2, "clip", np.full((2, 2, 3), 0.4))
        cfg = AttackConfig(optimizer="sgd", learning_rate=10.0, box="clip")
        out = optimizer_step(patch, np.zeros((2, 2, 3)), cfg)
        assert np.array_equal(out.param, patch.param)

    def test_cov_step_stays_in_open_range(self):
        patch = Patch(2, "cov", np.zeros((2, 2, 3)))
        cfg = AttackConfig(optimizer="sgd", learning_rate=10.0, box="cov")
        out = optimizer_step(patch, np.ones((2, 2, 3)), cfg)
        vals = out.materialize()
        assert np.all(vals > 0.0) and np.all(vals < 1.0)

    def test_materialized_in_range_after_many_steps(self):
        rng = np.random.default_rng(10)
        for box in ("clip", "cov"):
            patch = random_patch(4, box, rng)
            cfg = AttackConfig(optimizer="ifgsm", learning_rate=0.3, box=box)
            for _ in range(20):
                patch = optimizer_step(patch, rng.standard_normal((4, 4, 3)), cfg)
                vals = patch.materialize()
                assert vals.min() >= 0.0 and vals.max() <= 1.0


def tiny_dataset(h=24, w=40, n=2, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(n):
        cy, cx = rng.uniform(8, h - 8), rng.uniform(8, w - 8)
        base = 0.3 + 0.001 * xx
        blob = 0.35 * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 18.0))
        f1 = base + blob
        blob2 = 0.35 * np.exp(-(((yy - cy) ** 2 + (xx - cx - 1.0) ** 2) / 18.0))
        f2 = base + blob2
        pairs.append(
            (
                Image(np.repeat(f1[:, :, None], 3, axis=2)),
                Image(np.repeat(f2[:, :, None], 3, axis=2)),
            )
        )
    return pairs


class TestTraining:
    ESTIMATOR = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=40))

    def test_single_step_zero_lr_keeps_patch(self):
        cfg = AttackConfig(steps=1, learning_rate=0.0, seed=3)
        result = train_patch(self.ESTIMATOR, None, tiny_dataset(), cfg, patch_side=8)
        rng = np.random.default_rng(3)
        initial = random_patch(8, "clip", rng)
        assert np.array_equal(result.patch.param, initial.param)

    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError):
            AttackConfig(steps=0)

    def test_training_improves_best_loss(self):
        cfg = AttackConfig(steps=40, learning_rate=0.05, seed=1)
        result = train_patch(self.ESTIMATOR, None, tiny_dataset(), cfg, patch_side=8)
        assert len(result.losses) == 40
        assert min(result.losses) < result.losses[0]

    def test_given_references_equal_computed_ones(self):
        pairs = tiny_dataset()
        frames = [EvalFrame(str(i), a, b) for i, (a, b) in enumerate(pairs)]
        defense = lgs_config()
        references = [record.flow for record in clean_flows(self.ESTIMATOR, defense, frames)]
        cfg = AttackConfig(awareness="lgs", steps=4, learning_rate=0.1, seed=5)
        computed = train_patch(self.ESTIMATOR, defense, pairs, cfg, patch_side=8)
        given = train_patch(
            self.ESTIMATOR, defense, pairs, cfg, patch_side=8, references=references
        )
        assert given.losses == computed.losses
        assert np.array_equal(given.patch.param, computed.patch.param)
        # the given flows are the ones trained against
        undefended = [record.flow for record in clean_flows(self.ESTIMATOR, None, frames)]
        other = train_patch(
            self.ESTIMATOR, defense, pairs, cfg, patch_side=8, references=undefended
        )
        assert other.losses != computed.losses
        with pytest.raises(ValueError, match="1 reference flows for 2 pairs"):
            train_patch(
                self.ESTIMATOR, defense, pairs, cfg, patch_side=8, references=references[:1]
            )

    @pytest.mark.parametrize("side", [-3, 0])
    def test_non_positive_side_rejected_before_any_draw(self, side):
        cfg = AttackConfig(steps=1, seed=0)
        with pytest.raises(PlacementError, match=f"patch side {side} cannot fit"):
            train_patch(self.ESTIMATOR, None, tiny_dataset(), cfg, patch_side=side)

    def test_side_checked_against_every_pair(self):
        # Seed 0 draws only the second pair, which the side fits; the first
        # pair is too small for it and still fails the run before step 0.
        small = Image(np.full((8, 8, 3), 0.5))
        pairs = [(small, small), tiny_dataset(n=1)[0]]
        cfg = AttackConfig(steps=1, seed=0)
        with pytest.raises(PlacementError, match="patch side 8 cannot fit a 8x8 frame"):
            train_patch(self.ESTIMATOR, None, pairs, cfg, patch_side=8)

    @staticmethod
    def training_peak_over_block():
        """The tracemalloc peak of a 2-step vanilla `train_patch` (patch side
        8, 64x128 frames, 200 iterations), in units of the solve's full
        (iterations, 2, H*(W+2)) block."""
        h, w, iterations = 64, 128, 200
        rng = np.random.default_rng(13)
        frames = [Image(rng.uniform(0, 1, (h, w, 3))) for _ in range(2)]
        estimator = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=iterations))
        reference = [estimator.estimate(*frames)]
        cfg = AttackConfig(steps=2, seed=0)
        block = iterations * 16 * h * (w + 2)
        tracemalloc.start()
        try:
            train_patch(estimator, None, [tuple(frames)], cfg, 8, references=reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / block

    def test_lgs_aware_step_keeps_saved_states_not_every_average(self, tmp_path):
        # The LGS map couples every pixel to the patch, so the solve's box is
        # every pixel; it keeps 13 saved states and 15 iterations' averages
        # (about 3.8 MB here) in place of 200 iterations' (26.6 MB).
        frame = ingest_dataset(synth_dataset(1, 64, 128, 7, tmp_path)).frames[0]
        estimator = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=200))
        cfg = AttackConfig(awareness="lgs", steps=1, seed=0)
        tracemalloc.start()
        try:
            train_patch(estimator, lgs_config(), [(frame.frame1, frame.frame2)], cfg, 24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6, peak / 1e6

    def test_one_tape_alive_at_a_time(self):
        # A step's tape holds the solve's block of averages, on the
        # footprint's rows only; it is freed before the next step records
        # its own.  Two tapes alive at once would hold two blocks.
        ratio = self.training_peak_over_block()
        assert ratio < 1.5, ratio

    def test_training_stores_only_the_footprint_band(self):
        # The frames are constants, so the solve keeps its averages on the
        # box that reaches the patch: about 0.11 of the full block (0.24 on
        # the box's rows, 1.10 when it kept every row).
        ratio = self.training_peak_over_block()
        assert ratio < 0.2, ratio

    def test_seeded_determinism(self):
        cfg = AttackConfig(steps=5, learning_rate=0.1, seed=11)
        a = train_patch(self.ESTIMATOR, None, tiny_dataset(), cfg, patch_side=8)
        b = train_patch(self.ESTIMATOR, None, tiny_dataset(), cfg, patch_side=8)
        assert np.array_equal(a.patch.param, b.patch.param)
        assert a.losses == b.losses

    # The inf flow makes the ACS loss divide inf by inf: the divergence tested.
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_divergence_guard(self):
        class ExplodingEstimator(HornSchunck):
            # sane on the first training pass, inf from the second on
            calls = 0

            def forward_on_tape(self, tape, f1, f2):
                value = super().forward_on_tape(tape, f1, f2)
                type(self).calls += 1
                if type(self).calls > 1:
                    value = tape.apply(ScaleStage(np.inf), value)
                return value

        cfg = AttackConfig(steps=3, learning_rate=0.1, seed=2)
        with pytest.raises(DivergenceError):
            train_patch(
                ExplodingEstimator(HornSchunckConfig(iterations=5)),
                None,
                tiny_dataset(),
                cfg,
                patch_side=8,
            )

    def test_non_finite_gradient_raises_in_its_step(self):
        class NanBackwardStage(Stage):
            name = "nan-backward"

            def forward(self, ctx, inputs):
                return (inputs[0],)

            def backward(self, ctx, cotangents):
                return (np.full_like(cotangents[0], np.nan),)

        class NanGradientEstimator(HornSchunck):
            # finite flow and loss, NaN gradient on the attack pass
            def forward_on_tape(self, tape, f1, f2):
                flow = super().forward_on_tape(tape, f1, f2)
                return tape.apply(NanBackwardStage(), flow)

        cfg = AttackConfig(steps=1, learning_rate=0.1, seed=2)
        with pytest.raises(DivergenceError, match="step 0: non-finite gradient"):
            train_patch(
                NanGradientEstimator(HornSchunckConfig(iterations=5)),
                None,
                tiny_dataset(),
                cfg,
                patch_side=8,
            )
