import numpy as np
import pytest
from defense_oracle import (
    MagnitudeMapStage, NormalizeMapStage, brute_force_vote, oracle_defend_on_tape
)
from hypothesis import given, settings, strategies as st

from flowpatch.attack import AcsLossStage, PlacePatchStage, placement_geometry, sample_pose
from flowpatch.core import Image
from flowpatch.defense import (
    BlockVoteStage,
    DefenseConfig,
    GradientMagnitudeStage,
    IlpReevaluateStage,
    LgsSmoothStage,
    defend,
    defend_on_tape,
    defend_pair_on_tape,
    defended_flow,
    ilp_config,
    lgs_config,
)
from flowpatch.diff import ALL, Stage, StageTape, grad_check
from flowpatch.defense import inpaint
from flowpatch.flow import HornSchunck, HornSchunckConfig


def same_bytes(a, b) -> bool:
    """Equal shape, dtype and bytes: signed zeros count."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestGradientMagnitude:
    """The map's derivative magnitude, seen through its normalization."""

    def test_constant_image_both_orders(self):
        img = np.full((5, 5, 3), 0.4)
        assert np.all(GradientMagnitudeStage("first")(img) == 0)
        assert np.all(GradientMagnitudeStage("second")(img) == 0)

    def test_ramp_first_order_interior(self):
        # |Ix| = 1/w inside, 1/(2w) in the replicate-padded border columns.
        w = 8
        ramp = np.tile(np.arange(w) / w, (6, 1))
        g = GradientMagnitudeStage("first")(np.repeat(ramp[:, :, None], 3, axis=2))
        assert np.allclose(g[:, 1:-1], 1.0)
        assert np.allclose(g[:, [0, -1]], 0.0)

    def test_impulse_second_order_center(self):
        # Hand-applied 5-point stencil on the peak's luminance L:
        # |4 neighbors*0 - 4*L| = 4L at the peak and L at its four
        # neighbours, so 1 and 1/4 once normalized.
        data = np.zeros((5, 5, 3))
        data[2, 2] = 0.3
        g = GradientMagnitudeStage("second")(data)
        assert g[2, 2] == 1.0
        assert np.allclose(g[[1, 3, 2, 2], [2, 2, 1, 3]], 0.25)

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


class TestNormalizeMap:
    """The min-max normalization inside `GradientMagnitudeStage`."""

    def test_direct_evaluation(self):
        # Equal channels have the luminance L = s v, s the weights' sum:
        # G = |d/dx| of columns 0, 1, 3, 7 with replicate ends is
        # s (0.5, 1.5, 3, 2), and the normalization cancels s.
        img = np.repeat(np.array([[0.0, 1.0, 3.0, 7.0]])[:, :, None], 3, axis=2)
        out = GradientMagnitudeStage("first")(img)
        assert np.allclose(out, [[0.0, 1 / 2.5, 2.5 / 2.5, 1.5 / 2.5]])

    def test_constant_map_to_zeros(self):
        for order in ("first", "second"):
            stage, ctx = GradientMagnitudeStage(order), {"needed": (ALL,)}
            (out,) = stage.forward(ctx, (np.full((3, 3, 3), 2.5),))
            assert np.all(out == 0)
            (back,) = stage.backward(ctx, (np.ones((3, 3)),))
            assert np.all(back == 0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_idempotent(self, seed):
        img = np.random.default_rng(seed).uniform(0, 1, (4, 5, 3))
        once = GradientMagnitudeStage("first")(img)
        assert once.min() == 0.0 and once.max() == 1.0
        assert np.allclose((once - once.min()) / (once.max() - once.min()), once)

    def test_exact_backward(self):
        # The fused backward is the magnitude's adjoint after the
        # normalization's, bit for bit, and passes the finite differences.
        rng = np.random.default_rng(8)
        for order in ("first", "second"):
            img = rng.uniform(0.1, 0.9, (5, 5, 3))
            u = rng.standard_normal((5, 5))
            stage, ctx = GradientMagnitudeStage(order), {"needed": (ALL,)}
            stage.forward(ctx, (img,))
            tape = StageTape()
            source = tape.source(img)
            gbar = tape.apply(NormalizeMapStage(), tape.apply(MagnitudeMapStage(order), source))
            tape.backward(gbar, u)
            assert same_bytes(stage.backward(ctx, (u,))[0], tape.grad(source))
            report = grad_check(stage, img)
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
        ctx = {"needed": (ALL,)}
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
        ctx = {"needed": (ALL,) * 2}
        rng = np.random.default_rng(1)
        stage.forward(ctx, (rng.integers(0, 2, (4, 4)).astype(float), rng.uniform(0, 1, (4, 4))))
        u = rng.standard_normal((4, 4))
        mask_cot, map_cot = stage.backward(ctx, (u,))
        assert np.array_equal(mask_cot, u)
        assert np.all(map_cot == 0)


class TestLgsSmooth:
    """The LGS removal step of `defend_on_tape`: I * (1 - clip(b * Gbar * M))."""

    @staticmethod
    def smooth(image, gbar, mask, strength):
        return LgsSmoothStage(strength)(gbar, mask, image)

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
        assert mask.data.any()
        gbar = GradientMagnitudeStage("first")(img)
        out = self.smooth(img, gbar, mask.data, cfg.b_lgs)
        assert np.array_equal(out, defended.data)


ORACLE_ESTIMATOR = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=20))


def attack_on_tape(defend_fn, cfg, frame1, frame2, patch):
    """A patch placed on both frames, each frame defended by `defend_fn`,
    then the flow and the ACS loss, differentiated on one tape.  Returns
    [defended 1, mask 1, defended 2, mask 2, d/dpatch, d/dframe1,
    d/dframe2] and the records each defended frame added."""
    side, shape = patch.shape[0], frame1.shape[:2]
    geometry = placement_geometry(sample_pose(np.random.default_rng(0), side, shape), side, shape)
    tape = StageTape()
    f1, f2, p = tape.source(frame1), tape.source(frame2), tape.source(patch)
    values, records = [], []
    for attacked in tape.apply(PlacePatchStage(geometry, side), f1, f2, p):
        before = len(tape._records)
        values += defend_fn(tape, attacked, cfg)
        records.append(len(tape._records) - before)
    flow = ORACLE_ESTIMATOR.forward_on_tape(tape, values[0], values[2])
    reference = np.random.default_rng(1).standard_normal(shape + (2,))
    tape.backward(tape.apply(AcsLossStage(reference, geometry.mask), flow), 1.0)
    return [v.array for v in values] + [tape.grad(v) for v in (p, f1, f2)], records


class TestDefendMatchesOracleChain:
    """`defend_on_tape` against the one-stage-per-operation chain of
    `tests/defense_oracle.py`: images, masks and gradients bit for bit."""

    RECORDS = {"lgs": 3, "ilp": 4}

    @pytest.mark.parametrize("kind", ["lgs", "ilp"])
    def test_attack_pass_is_bit_identical(self, kind):
        # Smooth frames, so that the defense flags the patch's surroundings
        # but not the whole frame.
        rng = np.random.default_rng(11)
        y, x = np.mgrid[0:32, 0:48]
        scene = 0.5 + 0.2 * np.sin(x / 6.0) * np.cos(y / 5.0)
        frame1, frame2 = scene[:, :, None] + 0.005 * rng.standard_normal((2, 32, 48, 3))
        patch = rng.uniform(0, 1, (10, 10, 3))
        # The Laplacian map of a noise patch is sparse: at t = 0.15 no
        # 16x16 block around it votes, so ILP votes at t = 0.05.
        cfg = DefenseConfig(kind, threshold=0.15 if kind == "lgs" else 0.05)
        fused, records = attack_on_tape(defend_on_tape, cfg, frame1, frame2, patch)
        oracle, _ = attack_on_tape(oracle_defend_on_tape, cfg, frame1, frame2, patch)
        assert records == [self.RECORDS[kind]] * 2
        for a, b in zip(fused, oracle):
            assert same_bytes(a, b)
        defended, mask = fused[0], fused[1]
        assert 0 < mask.mean() < 0.5
        if kind == "lgs":
            # Voted pixels both saturated (b * Gbar >= 1, blackened) and not.
            black = np.all(defended == 0, axis=2)
            assert np.any(black & (mask > 0)) and np.any(~black & (mask > 0))
        assert np.any(fused[4] != 0)

    @pytest.mark.parametrize("kind", ["lgs", "ilp"])
    @pytest.mark.parametrize("scene", ["noise", "constant"])
    def test_single_frame_is_bit_identical(self, kind, scene):
        rng = np.random.default_rng(12)
        image = rng.uniform(0, 1, (24, 32, 3)) if scene == "noise" else np.full((24, 32, 3), 0.4)
        cotangent = rng.standard_normal(image.shape)
        cfg = DefenseConfig(kind)
        results = []
        for defend_fn in (defend_on_tape, oracle_defend_on_tape):
            tape = StageTape()
            source = tape.source(image)
            defended, mask = defend_fn(tape, source, cfg)
            tape.backward(defended, cotangent)
            results.append((defended.array, mask.array, tape.grad(source), len(tape._records)))
        (*fused, records), (*oracle, _) = results
        assert records == self.RECORDS[kind]
        for a, b in zip(fused, oracle):
            assert same_bytes(a, b)
        if scene == "constant":
            assert not fused[1].any() and np.array_equal(fused[0], image)


class TestDefendPipelines:
    def test_constant_image_untouched(self):
        img = Image(np.full((20, 24, 3), 0.5))
        for cfg in (lgs_config(block=8, overlap=4), ilp_config(block=8, overlap=4)):
            out, mask = defend(img, cfg)
            assert not mask.data.any()
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


class TestDefendPair:
    """`defend_pair_on_tape` against each frame's `defend_on_tape`: images,
    masks and gradients bit for bit, and one Telea pass when ILP's two final
    masks are equal."""

    # As in TestDefendMatchesOracleChain: at t = 0.15 ILP votes no block.
    THRESHOLD = {"lgs": 0.15, "ilp": 0.05}

    @staticmethod
    def frames(pair):
        # A smooth scene with a noise square, which both defenses flag; the
        # unequal pair moves the square.
        rng = np.random.default_rng(31)
        y, x = np.mgrid[0:24, 0:32]
        scene = np.repeat((0.5 + 0.2 * np.sin(x / 6.0) * np.cos(y / 5.0))[:, :, None], 3, axis=2)
        noise = rng.uniform(0, 1, (8, 8, 3))
        frame1, frame2 = scene.copy(), scene.copy()
        frame1[4:12, 6:14] = noise
        if pair == "equal":
            frame2[4:12, 6:14] = noise
        else:
            frame2[12:20, 18:26] = noise
        return frame1, frame2

    @pytest.mark.parametrize("pair", ["equal", "unequal"])
    @pytest.mark.parametrize("kind", ["lgs", "ilp"])
    def test_pair_is_each_frames_defense(self, kind, pair):
        frames = self.frames(pair)
        cotangents = np.random.default_rng(32).standard_normal((2, 24, 32, 3))
        cfg = DefenseConfig(kind, threshold=self.THRESHOLD[kind])
        results = []
        for together in (True, False):
            tape = StageTape()
            sources = [tape.source(f) for f in frames]
            if together:
                out = defend_pair_on_tape(tape, *sources, cfg)
            else:
                out = [defend_on_tape(tape, v, cfg) for v in sources]
            # The sum of each defended frame against its cotangent.
            total = tape.apply(PairDotStage(cotangents), out[0][0], out[1][0])
            tape.backward(total, 1.0)
            results.append([a for d, m in out for a in (d.array, m.array)]
                           + [tape.grad(v) for v in sources])
        together, apart = results
        assert 0 < together[1].mean() < 1 and 0 < together[3].mean() < 1
        assert np.array_equal(together[1], together[3]) == (pair == "equal")
        for a, b in zip(together, apart):
            assert same_bytes(a, b)

    @pytest.mark.parametrize("pair, passes", [("equal", 1), ("unequal", 2)])
    def test_defended_flow_inpaints_equal_masks_once(self, monkeypatch, pair, passes):
        calls = []
        original = inpaint.telea_inpaint_array

        def counted(image, mask, radius):
            calls.append(image.shape)
            return original(image, mask, radius)

        monkeypatch.setattr(inpaint, "telea_inpaint_array", counted)
        frames = [Image(f) for f in self.frames(pair)]
        _, (mask1, mask2) = defended_flow(
            HornSchunck(HornSchunckConfig(iterations=3)),
            ilp_config(threshold=self.THRESHOLD["ilp"]), *frames)
        assert np.array_equal(mask1.data, mask2.data) == (pair == "equal")
        assert calls == ([(24, 32, 6)] if passes == 1 else [(24, 32, 3)] * 2)


class PairDotStage(Stage):
    """(a, b) -> sum(ca a) + sum(cb b) for fixed cotangents (ca, cb)."""

    name = "pair-dot"

    def __init__(self, cotangents):
        self.cotangents = cotangents

    def forward(self, ctx, inputs):
        return (np.array(sum(float(np.sum(c * x)) for c, x in zip(self.cotangents, inputs))),)

    def backward(self, ctx, cotangents):
        (g,) = cotangents
        return tuple(g * c for c in self.cotangents)
