"""Activity analysis on the tape: each stage's support rule, and pruned
backward passes (frames registered with `StageTape.constant`) against full
ones (every leaf a source)."""

import tracemalloc

import numpy as np
import pytest

from flowpatch.attack import optimize
from flowpatch.attack.losses import AWARENESS_DEFENSE
from flowpatch.attack.optimize import AttackConfig, _loss_and_gradient
from flowpatch.attack.patch import PatchPose, random_patch
from flowpatch.attack.placement import PlacePatchStage, placement_geometry
from flowpatch.defense.inpaint import TeleaInpaintStage
from flowpatch.defense.pipeline import defense_config
from flowpatch.diff import ALL, CovMaterializeStage, Stage, StageTape
from flowpatch.diff.stage import support_box, support_union, support_where
from flowpatch.flow import (
    FrameDerivativesStage, HornSchunck, HornSchunckConfig, HornSchunckSolveStage, LuminanceStage
)
from flowpatch.harness import ingest_dataset, synth_dataset

H, W = 12, 17


def region(rows, cols, shape=(H, W)):
    out = np.zeros(shape, dtype=bool)
    out[rows, cols] = True
    return out


def as_tuple(supports, count):
    return supports if isinstance(supports, tuple) else (supports,) * count


def noisy(cot, support, rng):
    """`cot` with noise at every pixel outside `support`."""
    if support is ALL:
        return cot
    outside = np.ones(cot.shape[:2], dtype=bool) if support is None else ~support
    out = cot.copy()
    out[outside] += rng.standard_normal(out[outside].shape)
    return out


def check_rule(stage, inputs, needed, seed=0):
    """The stage's forward with `ctx["needed"]` set to the input supports is
    bit for bit the full one, and its VJP at active input pixels, with noise
    at every inactive output pixel, is bit for bit the full VJP there."""
    rng = np.random.default_rng(seed)
    full_ctx, ctx = {"needed": (ALL,) * len(inputs)}, {"needed": tuple(needed)}
    outputs = stage.forward(full_ctx, tuple(inputs))
    pruned_outputs = stage.forward(ctx, tuple(inputs))
    for want, got in zip(outputs, pruned_outputs):
        assert got.tobytes() == want.tobytes()
    outs = as_tuple(stage.support(ctx, tuple(needed)), len(outputs))
    cots = tuple(rng.standard_normal(o.shape) for o in outputs)
    full = stage.backward(full_ctx, cots)
    pruned = stage.backward(ctx, tuple(noisy(c, s, rng) for c, s in zip(cots, outs)))
    for want, got, support in zip(full, pruned, needed):
        if support is None:
            continue
        pick = (slice(None),) if support is ALL else support
        assert got[pick].tobytes() == want[pick].tobytes()
    return outs


class TestSupportAlgebra:
    def test_union(self):
        a, b = region(2, 3), region(5, slice(4, 9))
        assert support_union() is None and support_union(None, None) is None
        assert np.array_equal(support_union(None, a), a)
        assert support_union(a, None, ALL) is ALL
        assert np.array_equal(support_union(a, b), a | b)

    def test_where_and_rows(self):
        a = region(slice(3, 6), slice(2, 8))
        assert support_where(None, a) is None
        assert support_where(ALL, a) is a
        assert support_where(a, ~a) is None
        assert support_box(a, (H, W)) == (3, 6, 2, 8)
        assert support_box(a | region(9, 0), (H, W)) == (3, 10, 0, 8)
        assert support_box(ALL, (H, W)) == (0, H, 0, W)
        assert support_box(None, (H, W)) == (0, 0, 0, 0)
        assert support_box(region(slice(0, 0), 0), (H, W)) == (0, 0, 0, 0)


class TestStageRules:
    def test_default_rule_is_every_pixel(self):
        assert Stage().support({}, (None, region(1, 1))) is ALL

    def test_luminance_is_pixelwise(self):
        active = region(slice(4, 7), slice(3, 9))
        image = np.random.default_rng(1).uniform(0, 1, (H, W, 3))
        (out,) = check_rule(LuminanceStage(), [image], [active])
        assert out is active

    @pytest.mark.parametrize("where", [(slice(4, 7), slice(3, 9)), (0, 0), (H - 1, W - 1)],
                             ids=["inside", "top-left", "bottom-right"])
    def test_frame_derivatives_widen_ix_by_columns_and_iy_by_rows(self, where):
        rng = np.random.default_rng(2)
        active = region(*where)
        g1, g2 = rng.uniform(0, 255, (2, H, W))
        ix, iy, it = check_rule(FrameDerivativesStage(), [g1, g2], [active, None])
        cols, rows = np.zeros_like(active), np.zeros_like(active)
        for r, c in zip(*np.nonzero(active)):
            cols[r, max(c - 1, 0):c + 2] = True
            rows[max(r - 1, 0):r + 2, c] = True
        assert np.array_equal(ix, cols) and np.array_equal(iy, rows)
        assert np.array_equal(it, active)

    @pytest.mark.parametrize("rows", [slice(0, 3), slice(4, 7), slice(H - 2, H)],
                             ids=["top", "middle", "bottom"])
    def test_solver_band_matches_full_backward(self, rows):
        rng = np.random.default_rng(3)
        inputs = [rng.standard_normal((H, W)) * 20 for _ in range(3)]
        band = region(rows, slice(2, 5))
        supports = check_rule(HornSchunckSolveStage(15.0, 12), inputs, [band, None, band])
        assert supports == (ALL,)

    @pytest.mark.parametrize("where", [(slice(3, 8), slice(0, 4)), (slice(3, 8), slice(W - 4, W)),
                                       (slice(3, 8), slice(0, W)), (6, 9)],
                             ids=["column-0", "last-column", "every-column", "pixel"])
    def test_solver_box_matches_full_backward(self, where):
        rng = np.random.default_rng(15)
        inputs = [rng.standard_normal((H, W)) * 20 for _ in range(3)]
        box = region(*where)
        supports = check_rule(HornSchunckSolveStage(15.0, 12), inputs, [box, None, box])
        assert supports == (ALL,)

    def test_solver_returns_zeros_outside_the_band(self):
        # The averages and the Ix/Iy/It cotangents cover the bounding box of
        # the needed pixels, rows 4-6 and columns 3-7, and nothing else.
        rng = np.random.default_rng(4)
        inputs = tuple(rng.standard_normal((H, W)) * 20 for _ in range(3))
        stage = HornSchunckSolveStage(15.0, 12)
        ctx = {"needed": (region(5, slice(3, 8)), None, region(slice(4, 7), 5))}
        (flow,) = stage.forward(ctx, inputs)
        assert ctx["averages"].shape == (12, 2, 3 * 5)
        box = region(slice(4, 7), slice(3, 8))
        for cot in stage.backward(ctx, (rng.standard_normal(flow.shape),)):
            assert np.all(cot[~box] == 0) and np.all(cot[box] != 0)

    @pytest.mark.parametrize("awareness", ["lgs", "all-source"])
    def test_every_pixel_keeps_saved_states_and_one_segment(
        self, scene_pair, monkeypatch, awareness
    ):
        # An LGS-aware step couples every pixel to the patch, and a tape of
        # sources needs every pixel: the box is every padded row.  The solve
        # runs 5 iterations as segments of 3 and 2, and keeps the padded
        # state at the start of the second and one segment's averages.
        frame1, frame2 = scene_pair
        kept = []
        forward = HornSchunckSolveStage.forward

        def spy(stage, ctx, inputs):
            out = forward(stage, ctx, inputs)
            kept.append(dict(ctx))
            return out

        monkeypatch.setattr(HornSchunckSolveStage, "forward", spy)
        if awareness == "all-source":
            monkeypatch.setattr(optimize, "StageTape", FullTape)
        patch = random_patch(SIDE, "clip", np.random.default_rng(9))
        _loss_and_gradient(
            HornSchunck(HornSchunckConfig(iterations=5)), defense_config("lgs"),
            AttackConfig(awareness="lgs"), patch, frame1, frame2,
            np.zeros((40, 64, 2)), placement_geometry(POSES[1], SIDE, (40, 64)),
        )
        (ctx,) = kept
        assert ctx["box"].whole and ctx["box"].size == 40 * 66
        assert ctx["saved"].shape == (1, 2, 42 * 66)
        assert ctx["averages"].shape == (3, 2, 40 * 66)

    def test_solver_forward_holds_only_the_band(self):
        # The averages of the 10x10 box, 16 B per box pixel and iteration
        # with each stacked row of 100 values padded to whole cache lines
        # (104 values), and the three input rows; the flow is not kept.
        h, w, iterations = 64, 128, 200
        rng = np.random.default_rng(14)
        inputs = tuple(rng.standard_normal((h, w)) * 20 for _ in range(3))
        box = region(slice(30, 40), slice(50, 60), (h, w))
        ctx = {"needed": (box, None, box)}
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            HornSchunckSolveStage(15.0, iterations).forward(ctx, inputs)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        averages, rows = iterations * 2 * 104 * 8, 3 * h * (w + 2) * 8
        assert held <= averages + rows + 2**12, held - averages - rows

    @pytest.mark.parametrize("active", [(False, False, True), (True, False, False),
                                        (True, True, True)], ids=["patch", "frame", "all"])
    def test_placement(self, active):
        rng = np.random.default_rng(5)
        geometry = placement_geometry(PatchPose((6.0, 8.0), 7.0, 1.0), 9, (H, W))
        inputs = [rng.uniform(0, 1, (H, W, 3)), rng.uniform(0, 1, (H, W, 3)),
                  rng.uniform(0, 1, (9, 9, 3))]
        frame = region(slice(2, 10), slice(1, 14))
        supports = [(frame if i < 2 else ALL) if on else None for i, on in enumerate(active)]
        out1, out2 = check_rule(PlacePatchStage(geometry, 9), inputs, supports)
        covered = geometry.mask != 0
        want = (frame & ~covered if active[0] else False) | (covered if active[2] else False)
        assert np.array_equal(out1, want)
        assert (out2 is None) if not (active[1] or active[2]) else out2.any()

    def test_telea_keeps_the_unmasked_image_pixels(self):
        rng = np.random.default_rng(6)
        image = rng.uniform(0, 1, (H, W, 3))
        mask = region(slice(3, 7), slice(5, 11)).astype(float)
        active = region(slice(2, 9), slice(2, 9))
        (out,) = check_rule(TeleaInpaintStage(3), [image, mask], [active, ALL])
        assert np.array_equal(out, active & (mask == 0))
        ctx = {"needed": (ALL,) * 2}
        TeleaInpaintStage(3).forward(ctx, (image, mask))
        assert TeleaInpaintStage(3).support(ctx, (None, ALL)) is None
        assert TeleaInpaintStage(3).support(ctx, (mask == 1, ALL)) is None

    def test_cov_materialize_is_elementwise(self):
        values = np.random.default_rng(7).standard_normal((5, 5, 3))
        active = region(slice(1, 3), slice(0, 4), (5, 5))
        (out,) = check_rule(CovMaterializeStage(), [values], [active])
        assert out is active


class TestPrunedBackward:
    def test_grad_answers_only_where_every_pixel_is_differentiated(self):
        tape = StageTape()
        a, b = tape.source(np.ones((4, 5, 3))), tape.constant(np.ones((4, 5, 3)))
        gray = tape.apply(LuminanceStage(), a)
        total = tape.apply(LuminanceStage(), b)
        tape.backward(gray, 1.0)
        assert np.all(tape.grad(a) == LuminanceStage().scale * np.asarray([0.299, 0.587, 0.114]))
        assert np.all(tape.grad(gray) == 1.0)
        for value in (b, total):
            with pytest.raises(ValueError, match="every pixel"):
                tape.grad(value)

    def test_grad_of_a_partial_support_raises(self):
        tape = StageTape()
        image = tape.source(np.random.default_rng(11).uniform(0, 1, (H, W, 3)))
        mask = tape.constant(region(slice(3, 7), slice(5, 11)).astype(float))
        inpainted = tape.apply(TeleaInpaintStage(3), image, mask)
        tape.backward(inpainted, 1.0)
        assert tape.grad(image)[3:7, 5:11].sum() == 0 and np.all(tape.grad(image)[0] == 1)
        with pytest.raises(ValueError, match="every pixel"):
            tape.grad(inpainted)

    def test_grad_of_placed_frames_of_an_all_source_tape(self):
        rng = np.random.default_rng(12)
        geometry = placement_geometry(PatchPose((6.0, 8.0), 7.0, 1.0), 9, (H, W))
        tape = StageTape()
        patch = tape.source(rng.uniform(0, 1, (9, 9, 3)))
        frames = [tape.source(rng.uniform(0, 1, (H, W, 3))) for _ in range(2)]
        placed = tape.apply(PlacePatchStage(geometry, 9), *frames, patch)
        assert all(v.support.all() for v in placed)
        flow = HornSchunck(HornSchunckConfig(iterations=5)).forward_on_tape(tape, *placed)
        tape.backward(flow, rng.standard_normal(flow.array.shape))
        covered = geometry.mask != 0
        for frame, value in zip(frames, placed):
            assert np.array_equal(tape.grad(frame)[~covered], tape.grad(value)[~covered])
            assert np.all(tape.grad(frame)[covered] == 0)

    def test_source_of_another_tape_is_differentiated(self):
        rng = np.random.default_rng(13)
        geometry = placement_geometry(PatchPose((6.0, 8.0), 7.0, 1.0), 9, (H, W))
        patch = rng.uniform(0, 1, (9, 9, 3))
        frames = [rng.uniform(0, 1, (H, W, 3)) for _ in range(2)]
        cotangent = rng.standard_normal((H, W, 2))

        def patch_gradient(tape, value):
            placed = tape.apply(PlacePatchStage(geometry, 9), *map(tape.constant, frames), value)
            flow = HornSchunck(HornSchunckConfig(iterations=5)).forward_on_tape(tape, *placed)
            tape.backward(flow, cotangent)
            return tape.grad(value)

        full = FullTape()
        elsewhere = StageTape().source(patch)
        assert np.array_equal(patch_gradient(StageTape(), elsewhere),
                              patch_gradient(full, full.source(patch)))

    def test_records_without_an_active_input_are_skipped(self):
        calls = []

        class Counted(LuminanceStage):
            def backward(self, ctx, cotangents):
                calls.append(ctx["needed"])
                return super().backward(ctx, cotangents)

        for tape in (StageTape(), FullTape()):
            a, b = tape.source(np.ones((4, 5, 3))), tape.constant(np.ones((4, 5, 3)))
            ga, gb = tape.apply(Counted(), a), tape.apply(Counted(), b)
            both = tape.apply(FrameDerivativesStage(), ga, gb)[2]
            tape.backward(both, 1.0)
        assert calls == [(ALL,), (ALL,), (ALL,)]

    def test_constant_only_forward_runs_no_support_rule(self):
        class Ruled(LuminanceStage):
            def support(self, ctx, needed):
                raise AssertionError("support rule run on constants")

        tape = StageTape()
        gray = tape.apply(Ruled(), tape.constant(np.ones((4, 5, 3))))
        assert gray.support is None
        assert tape._records == []


@pytest.fixture(scope="module")
def scene_pair(tmp_path_factory):
    root = synth_dataset(1, 40, 64, seed=7, out_dir=tmp_path_factory.mktemp("scene"))
    frame = ingest_dataset(root).frames[0]
    return frame.frame1, frame.frame2


class FullTape(StageTape):
    """A tape whose constants are sources: the unpruned reverse pass."""

    constant = StageTape.source


SIDE = 14
# The footprint of radius 7 at the top rows, in the middle and at the
# bottom rows of the 40x64 frame; with the row dilation of Iy the box
# reaches row 0 and row 39.
POSES = [PatchPose((7.0, 20.0), 0.0, 1.0), PatchPose((19.3, 31.7), 8.0, 0.97),
         PatchPose((32.0, 50.0), -6.0, 1.0)]


@pytest.mark.parametrize("pose", POSES, ids=["top", "middle", "bottom"])
@pytest.mark.parametrize("box", ["clip", "cov"])
@pytest.mark.parametrize("awareness", list(AWARENESS_DEFENSE))
def test_pruned_patch_gradient_is_the_full_one(scene_pair, monkeypatch, awareness, box, pose):
    frame1, frame2 = scene_pair
    estimator = HornSchunck(HornSchunckConfig(iterations=30))
    defense = defense_config(AWARENESS_DEFENSE[awareness])
    cfg = AttackConfig(awareness=awareness, box=box)
    patch = random_patch(SIDE, box, np.random.default_rng(9))
    geometry = placement_geometry(pose, SIDE, (40, 64))
    reference = np.random.default_rng(10).standard_normal((40, 64, 2))
    args = (estimator, defense, cfg, patch, frame1, frame2, reference, geometry)
    pruned = _loss_and_gradient(*args)
    monkeypatch.setattr(optimize, "StageTape", FullTape)
    full = _loss_and_gradient(*args)
    assert pruned[0] == full[0]
    assert pruned[1].tobytes() == full[1].tobytes()
    assert np.any(pruned[1] != 0)
