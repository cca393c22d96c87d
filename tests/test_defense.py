import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpatch.core import Image
from flowpatch.defense import (
    BlockVoteStage,
    DarkenStage,
    DefenseConfig,
    GradientMagnitudeStage,
    IlpReevaluateStage,
    NormalizeMapStage,
    SmoothingFactorStage,
    block_starts,
    defend,
    ilp_config,
    lgs_config,
)
from flowpatch.diff import ClipStage, grad_check


def brute_force_vote(gbar, block, overlap, threshold):
    """Independent oracle: per pixel, enumerate every covering block position
    and mark the pixel if any enclosing block has mean strictly above t."""
    h, w = gbar.shape
    stride = block - overlap
    rows = block_starts(h, block, stride)
    cols = block_starts(w, block, stride)
    mask = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            for r in rows:
                for c in cols:
                    encloses = r <= i < r + block and c <= j < c + block
                    if not encloses:
                        continue
                    mean = gbar[r : r + block, c : c + block].sum() / (block * block)
                    if mean > threshold:
                        mask[i, j] = 1.0
    return mask


class TestGradientMagnitude:
    def test_constant_image_both_orders(self):
        img = np.full((5, 5, 3), 0.4)
        assert np.all(GradientMagnitudeStage("first")(img) == 0)
        assert np.all(GradientMagnitudeStage("second")(img) == 0)

    def test_ramp_first_order_interior(self):
        w = 8
        ramp = np.tile(np.arange(w) / w, (6, 1))
        g = GradientMagnitudeStage("first")(np.repeat(ramp[:, :, None], 3, axis=2))
        assert np.allclose(g[:, 1:-1], 1.0 / w)

    def test_impulse_second_order_center(self):
        # Hand-applied 5-point stencil: |4 neighbors*0 - 4*a| = 4a at the peak.
        a = 0.3
        data = np.zeros((5, 5, 1))
        data[2, 2, 0] = a
        g = GradientMagnitudeStage("second")(data)
        assert np.isclose(g[2, 2], 4 * a)

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError, match="derivative order"):
            GradientMagnitudeStage("third")

    @pytest.mark.parametrize("order", ["first", "second"])
    def test_exact_backward(self, order):
        rng = np.random.default_rng(4)
        report = grad_check(
            GradientMagnitudeStage(order), rng.uniform(0.1, 0.9, (6, 6, 3))
        )
        assert report.passed, report

    @pytest.mark.parametrize("order", ["first", "second"])
    @pytest.mark.parametrize("shape", [(6, 6), (6, 6, 1)])
    def test_gray_input_backward_keeps_its_shape(self, order, shape):
        rng = np.random.default_rng(5)
        image = rng.uniform(0.1, 0.9, shape)
        stage = GradientMagnitudeStage(order)
        ctx = {}
        stage.forward(ctx, (image,))
        (back,) = stage.backward(ctx, (rng.standard_normal((6, 6)),))
        assert back.shape == shape
        report = grad_check(stage, image)
        assert report.passed, report


class TestNormalizeMap:
    def test_direct_evaluation(self):
        out = NormalizeMapStage()(np.array([[0.0, 2.0], [4.0, 8.0]]))
        assert np.allclose(out, [[0.0, 0.25], [0.5, 1.0]])

    def test_constant_map_to_zeros(self):
        out = NormalizeMapStage()(np.full((3, 3), 2.5))
        assert np.all(out == 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_idempotent(self, seed):
        g = np.random.default_rng(seed).uniform(0, 5, (4, 5))
        once = NormalizeMapStage()(g)
        assert np.allclose(NormalizeMapStage()(once), once)

    def test_exact_backward(self):
        rng = np.random.default_rng(8)
        report = grad_check(NormalizeMapStage(), rng.uniform(0, 3, (5, 5)))
        assert report.passed, report


class TestBlockVote:
    def test_all_zero_map(self):
        mask = BlockVoteStage(2, 1, 0.0)(np.zeros((6, 6)))
        assert mask.sum() == 0

    def test_single_hot_corner(self):
        g = np.zeros((4, 4))
        g[0, 0] = 1.0
        mask = BlockVoteStage(2, 1, 0.2)(g)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 1
        assert np.array_equal(mask, expected)

    @pytest.mark.parametrize("block,overlap", [(2, 1), (3, 1), (4, 2)])
    def test_matches_brute_force_enumeration(self, block, overlap):
        rng = np.random.default_rng(101)
        for _ in range(25):
            h = int(rng.integers(block, 9))
            w = int(rng.integers(block, 9))
            gbar = rng.uniform(0, 1, (h, w))
            t = float(rng.uniform(0, 1))
            ours = BlockVoteStage(block, overlap, t)(gbar)
            assert np.array_equal(ours, brute_force_vote(gbar, block, overlap, t))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.floats(0, 1), st.floats(0, 1))
    def test_monotone_in_threshold(self, seed, t1, t2):
        t1, t2 = sorted((t1, t2))
        g = np.random.default_rng(seed).uniform(0, 1, (6, 7))
        low = BlockVoteStage(2, 1, t1)(g)
        high = BlockVoteStage(2, 1, t2)(g)
        assert np.all(high <= low)

    def test_block_larger_than_image_is_error(self):
        with pytest.raises(ValueError):
            BlockVoteStage(8, 4, 0.1)(np.zeros((4, 4)))

    def test_bpda_backward_is_identity(self):
        stage = BlockVoteStage(2, 1, 0.1)
        ctx = {}
        stage.forward(ctx, (np.random.default_rng(0).uniform(0, 1, (4, 4)),))
        u = np.arange(16.0).reshape(4, 4)
        (back,) = stage.backward(ctx, (u,))
        assert np.array_equal(back, u)


class TestIlpReevaluate:
    def test_zero_map_clears_everything(self):
        out = IlpReevaluateStage(15, 0.5)(np.ones((3, 3)), np.zeros((3, 3)))
        assert out.sum() == 0

    def test_direct_evaluation(self):
        out = IlpReevaluateStage(15, 0.5)(np.ones((2, 2)), np.full((2, 2), 0.1))
        assert out.sum() == 4  # 1.5 > 0.5 keeps all

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_output_subset_of_mask(self, seed):
        rng = np.random.default_rng(seed)
        mask = rng.integers(0, 2, (5, 5)).astype(np.float64)
        gbar = rng.uniform(0, 1, (5, 5))
        out = IlpReevaluateStage(15, 0.5)(mask, gbar)
        assert np.all(out <= mask)

    def test_bpda_backward_identity_on_mask_path(self):
        stage = IlpReevaluateStage(15, 0.5)
        ctx = {}
        rng = np.random.default_rng(1)
        stage.forward(ctx, (rng.integers(0, 2, (4, 4)).astype(float), rng.uniform(0, 1, (4, 4))))
        u = rng.standard_normal((4, 4))
        mask_cot, map_cot = stage.backward(ctx, (u,))
        assert np.array_equal(mask_cot, u)
        assert np.all(map_cot == 0)


class TestLgsSmooth:
    """The LGS removal step of `defend_on_tape`: factor, clip, darken."""

    @staticmethod
    def smooth(image, gbar, mask, strength):
        factor = SmoothingFactorStage(strength)(gbar, mask)
        return DarkenStage()(ClipStage(0.0, 1.0)(factor), image)

    def test_empty_mask_is_identity(self):
        rng = np.random.default_rng(2)
        img = rng.uniform(0, 1, (4, 4, 3))
        gbar = rng.uniform(0, 1, (4, 4))
        out = self.smooth(img, gbar, np.zeros((4, 4)), 15)
        assert np.array_equal(out, img)

    def test_saturated_factor_blackens(self):
        img = np.full((2, 2, 3), 0.7)
        gbar = np.full((2, 2), 0.5)  # b*G = 7.5 -> clipped to 1
        out = self.smooth(img, gbar, np.ones((2, 2)), 15)
        assert np.all(out == 0)

    def test_partial_smoothing_value(self):
        img = np.full((1, 1, 3), 0.5)
        gbar = np.full((1, 1), 0.04)  # factor 0.6 -> keep 0.4
        out = self.smooth(img, gbar, np.ones((1, 1)), 15)
        assert np.allclose(out, 0.2)

    def test_is_the_step_defend_runs(self):
        img = np.random.default_rng(6).uniform(0, 1, (20, 20, 3))
        cfg = lgs_config(block=4, overlap=2)
        defended, mask = defend(Image(img), cfg)
        assert mask.count() > 0
        gbar = NormalizeMapStage()(GradientMagnitudeStage("first")(img))
        out = self.smooth(img, gbar, mask.data, cfg.b_lgs)
        assert np.array_equal(out, defended.data)


class TestDefendPipelines:
    def test_constant_image_untouched(self):
        img = Image(np.full((20, 24, 3), 0.5))
        for cfg in (lgs_config(block=8, overlap=4), ilp_config(block=8, overlap=4)):
            out, mask = defend(img, cfg)
            assert mask.count() == 0
            assert np.array_equal(out.data, img.data)

    def test_output_stays_in_unit_range(self):
        rng = np.random.default_rng(3)
        img = Image(rng.uniform(0, 1, (20, 20, 3)))
        for cfg in (lgs_config(block=4, overlap=2), ilp_config(block=4, overlap=2)):
            out, _ = defend(img, cfg)
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DefenseConfig(kind="lgs", block=8, overlap=8)
        with pytest.raises(ValueError):
            DefenseConfig(kind="other")
        with pytest.raises(ValueError):
            DefenseConfig(kind="ilp", threshold=1.5)
