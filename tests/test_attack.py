import numpy as np
import pytest

from flowpatch.attack import (
    AcsLossStage,
    AttackConfig,
    Patch,
    PatchPenaltyStage,
    PatchPose,
    PlacePatchStage,
    acs_loss,
    attack_loss,
    manual_patch,
    optimizer_step,
    patch_penalty,
    place_patch,
    placement_geometry,
    random_patch,
    sample_pose,
    train_patch,
)
from flowpatch.core import FlowField, Image, PixelMask
from flowpatch.diff import Stage, StageTape, grad_check
from flowpatch.errors import DivergenceError, PlacementError
from flowpatch.flow import HornSchunck, HornSchunckConfig


def flat_frames(h=32, w=48, value=0.5):
    return Image(np.full((h, w, 3), value)), Image(np.full((h, w, 3), value))


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
        assert mask.count() == count

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

    def test_sampled_poses_always_placeable(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            pose = sample_pose(rng, 24, (64, 128))
            placement_geometry(pose, 24, (64, 128))  # must not raise
            assert -10 <= pose.rotation <= 10
            assert 0.95 <= pose.scale <= 1.05


class TestAcsLoss:
    def test_parallel_flows_give_one(self):
        flow = FlowField(np.full((4, 4, 2), 1.5))
        mask = PixelMask(np.zeros((4, 4), np.uint8))
        assert np.isclose(acs_loss(flow, flow, mask), 1.0)

    def test_antiparallel_flows_give_minus_one(self):
        flow = FlowField(np.full((4, 4, 2), 1.5))
        neg = FlowField(-flow.data)
        mask = PixelMask(np.zeros((4, 4), np.uint8))
        assert np.isclose(acs_loss(flow, neg, mask), -1.0)

    def test_half_orthogonal_gives_half(self):
        ref = FlowField(np.tile([1.0, 0.0], (4, 4, 1)))
        adv = np.tile([1.0, 0.0], (4, 4, 1))
        adv[:, 2:] = [0.0, 1.0]
        mask = PixelMask(np.zeros((4, 4), np.uint8))
        assert np.isclose(acs_loss(ref, FlowField(adv), mask), 0.5)

    def test_full_mask_is_error(self):
        with pytest.raises(ValueError):
            AcsLossStage(np.ones((2, 2, 2)), np.ones((2, 2)))

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ref = rng.standard_normal((5, 5, 2))
            adv = rng.standard_normal((5, 5, 2))
            mask = PixelMask((rng.uniform(0, 1, (5, 5)) < 0.3).astype(np.uint8))
            val = acs_loss(FlowField(ref), FlowField(adv), mask)
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
        assert patch_penalty(p, "first") == 0.0
        assert patch_penalty(p, "second") == 0.0

    def test_linear_ramp_zero_curvature_positive_slope(self):
        ramp = np.tile(np.linspace(0, 1, 8), (8, 1))
        p = Patch(8, "clip", np.repeat(ramp[:, :, None], 3, axis=2))
        assert patch_penalty(p, "second") == pytest.approx(0.0, abs=1e-12)
        assert patch_penalty(p, "first") > 0.0

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
            assert patch_penalty(checker, order) > patch_penalty(ramp, order)
            assert patch_penalty(checker, order) > patch_penalty(const, order)

    def test_one_pixel_checkerboard_maximizes_second_order(self):
        side = 12
        assert patch_penalty(manual_patch(side, 1), "second") > patch_penalty(
            manual_patch(side, 2), "second"
        )

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_exact_gradient(self, order):
        rng = np.random.default_rng(8)
        from flowpatch.attack import circular_validity

        stage = PatchPenaltyStage(order, circular_validity(6))
        report = grad_check(stage, rng.uniform(0, 1, (6, 6, 3)))
        assert report.passed, report


class TestAttackLoss:
    def _parts(self):
        rng = np.random.default_rng(9)
        ref = FlowField(rng.standard_normal((6, 6, 2)))
        adv = FlowField(rng.standard_normal((6, 6, 2)))
        mask = PixelMask(np.zeros((6, 6), np.uint8))
        patch = random_patch(4, "clip", rng)
        return ref, adv, mask, patch

    def test_alpha_zero_reduces_to_acs(self):
        ref, adv, mask, patch = self._parts()
        base = acs_loss(ref, adv, mask)
        for awareness in ("vanilla", "lgs", "ilp"):
            assert np.isclose(attack_loss(ref, adv, patch, mask, awareness, 0.0), base)

    def test_constant_patch_all_losses_equal(self):
        ref, adv, mask, _ = self._parts()
        const = Patch(4, "clip", np.full((4, 4, 3), 0.3))
        base = attack_loss(ref, adv, const, mask, "vanilla", 1e-8)
        assert attack_loss(ref, adv, const, mask, "lgs", 1e-8) == base
        assert attack_loss(ref, adv, const, mask, "ilp", 1e-8) == base

    def test_weighted_sum_arithmetic(self):
        # alpha=1e-8, penalty=1e6, acs=-0.5 -> loss -0.49
        assert np.isclose(-0.5 + 1e-8 * 1e6, -0.49)


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

    def test_seeded_determinism(self):
        cfg = AttackConfig(steps=5, learning_rate=0.1, seed=11)
        a = train_patch(self.ESTIMATOR, None, tiny_dataset(), cfg, patch_side=8)
        b = train_patch(self.ESTIMATOR, None, tiny_dataset(), cfg, patch_side=8)
        assert np.array_equal(a.patch.param, b.patch.param)
        assert a.losses == b.losses

    def test_divergence_guard(self):
        class ExplodingEstimator(HornSchunck):
            # sane on the first training pass, inf from the second on
            calls = 0

            def forward_on_tape(self, tape, f1, f2):
                value = super().forward_on_tape(tape, f1, f2)
                type(self).calls += 1
                if type(self).calls > 1:
                    from flowpatch.diff import ScaleStage

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
