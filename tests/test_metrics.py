import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpatch.attack import Patch, manual_patch, place_patch, sample_pose
from flowpatch.core import FlowField, Image, PixelMask
from flowpatch.defense import defend
from flowpatch.defense.pipeline import defense_config
from flowpatch.flow import HornSchunck, HornSchunckConfig
from flowpatch.harness import ingest_dataset, synth_dataset
from flowpatch.metrics import (
    EvalFrame,
    clean_flows,
    epe,
    epe_excl,
    evaluate_pipeline,
    mean_epe,
    write_csv,
)


def field(value, h=2, w=2):
    return FlowField(np.tile(np.asarray(value, dtype=float), (h, w, 1)))


class TestEpe:
    def test_identical_fields_zero(self):
        f = FlowField(np.random.default_rng(0).standard_normal((3, 3, 2)))
        assert epe(f, f) == 0.0

    def test_three_four_five(self):
        assert epe(field((0.0, 0.0)), field((3.0, 4.0))) == 5.0

    def test_half_offset(self):
        a = np.zeros((2, 2, 2))
        b = np.zeros((2, 2, 2))
        b[0, :, 0] = 1.0  # half the pixels offset by (1,0)
        assert epe(FlowField(a), FlowField(b)) == 0.5

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        a = FlowField(rng.standard_normal((4, 4, 2)))
        b = FlowField(rng.standard_normal((4, 4, 2)))
        assert epe(a, b) == epe(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            epe(field((0, 0), 2, 2), field((0, 0), 2, 3))

    def test_validity_mask_restricts_mean(self):
        a = FlowField(np.zeros((1, 2, 2)))
        b = np.zeros((1, 2, 2))
        b[0, 0] = (3.0, 4.0)
        valid = PixelMask(np.array([[1, 0]], dtype=np.uint8))
        assert epe(a, FlowField(b), valid) == 5.0


class TestEpeExcl:
    def test_empty_mask_equals_epe(self):
        rng = np.random.default_rng(2)
        a = FlowField(rng.standard_normal((4, 5, 2)))
        b = FlowField(rng.standard_normal((4, 5, 2)))
        mask = PixelMask(np.zeros((4, 5), np.uint8))
        assert epe_excl(a, b, mask) == epe(a, b)

    def test_differences_inside_mask_ignored(self):
        a = np.zeros((3, 3, 2))
        b = np.zeros((3, 3, 2))
        b[1, 1] = (7.0, -3.0)
        mask = np.zeros((3, 3), np.uint8)
        mask[1, 1] = 1
        assert epe_excl(FlowField(a), FlowField(b), PixelMask(mask)) == 0.0

    def test_single_surviving_pixel(self):
        a = np.zeros((2, 1, 2))
        b = np.zeros((2, 1, 2))
        b[1, 0] = (0.0, 2.0)
        mask = PixelMask(np.array([[1], [0]], dtype=np.uint8))
        assert epe_excl(FlowField(a), FlowField(b), mask) == 2.0

    def test_all_ones_mask_error(self):
        f = field((0.0, 0.0))
        with pytest.raises(ValueError):
            epe_excl(f, f, PixelMask(np.ones((2, 2), np.uint8)))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_bit_invariant_to_changes_inside_mask(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 6, 2))
        b = rng.standard_normal((5, 6, 2))
        mask = (rng.uniform(0, 1, (5, 6)) < 0.4).astype(np.uint8)
        mask[0, 0] = 0  # keep at least one pixel outside
        baseline = epe_excl(FlowField(a), FlowField(b), PixelMask(mask))
        a2, b2 = a.copy(), b.copy()
        inside = mask == 1
        a2[inside] = rng.standard_normal((int(inside.sum()), 2)) * 100
        b2[inside] = rng.standard_normal((int(inside.sum()), 2)) * 100
        assert epe_excl(FlowField(a2), FlowField(b2), PixelMask(mask)) == baseline


class TestMeanEpe:
    def test_none_values_skipped(self):
        assert mean_epe([2.0, None, 4.0, None]) == 3.0

    @pytest.mark.parametrize("values", [[], [None, None]], ids=["empty", "all-none"])
    def test_no_values_gives_none(self, values):
        assert mean_epe(values) is None

    def test_equals_numpy_mean(self):
        values = list(np.random.default_rng(3).uniform(0, 10, 20))
        assert mean_epe(iter(values)) == float(np.mean(values))


class TestWriteCsv:
    def test_lf_lines_and_minimal_quoting(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, "a,b", [["1", "x,y"], [2, 'say "hi"']])
        assert path.read_bytes() == b'a,b\n1,"x,y"\n2,"say ""hi"""\n'


class TestEvalFrame:
    @pytest.mark.parametrize(
        "frame2, ground_truth, valid, name",
        [
            ((8, 10, 3), None, None, "frame2"),
            ((8, 12, 3), (8, 10), None, "ground truth"),
            ((8, 12, 3), None, (12, 8), "validity mask"),
        ],
        ids=["frame2-size", "ground-truth", "valid"],
    )
    def test_mismatched_shapes_rejected(self, frame2, ground_truth, valid, name):
        frame1 = Image(np.zeros((8, 12, 3)))
        with pytest.raises(ValueError, match=name):
            EvalFrame(
                "0000",
                frame1,
                Image(np.zeros(frame2)),
                None if ground_truth is None else FlowField(np.zeros((*ground_truth, 2))),
                None if valid is None else PixelMask(np.ones(valid)),
            )


class TestEvaluatePipeline:
    def _dataset(self):
        h, w = 20, 28
        yy, xx = np.mgrid[0:h, 0:w]
        blob = 0.3 + 0.4 * np.exp(-(((yy - 10.0) ** 2 + (xx - 14.0) ** 2) / 16.0))
        blob2 = 0.3 + 0.4 * np.exp(-(((yy - 10.0) ** 2 + (xx - 15.0) ** 2) / 16.0))
        gt = np.zeros((h, w, 2))
        gt[:, :, 0] = 1.0
        return [
            EvalFrame(
                "0000",
                Image(np.repeat(blob[:, :, None], 3, axis=2)),
                Image(np.repeat(blob2[:, :, None], 3, axis=2)),
                FlowField(gt),
            )
        ]

    def test_no_patch_quality_only(self):
        est = HornSchunck(HornSchunckConfig(iterations=30))
        ds = self._dataset()
        [record] = clean_flows(est, None, ds)
        assert record.masks is None
        assert record.quality is not None and record.quality >= 0
        assert record.quality == epe(ds[0].ground_truth, record.flow)
        patch = Patch(6, "clip", np.full((6, 6, 3), 0.3))
        with pytest.raises(ValueError):  # one clean record per frame
            evaluate_pipeline(est, None, patch, ds, [])

    def test_noop_patch_zero_robustness(self):
        # patch content identical to the frame content underneath -> f_D^A = f_D
        est = HornSchunck(HornSchunckConfig(iterations=20))
        constant = Image(np.full((20, 28, 3), 0.3))
        ds = [EvalFrame("0000", constant, constant, FlowField(np.zeros((20, 28, 2))))]
        patch = Patch(6, "clip", np.full((6, 6, 3), 0.3))
        [record] = evaluate_pipeline(est, None, patch, ds, clean_flows(est, None, ds), seed=0)
        assert record.robustness == 0.0


class TestRecords:
    """Each record keeps what `defend` and `place_patch` computed for it."""

    ESTIMATOR = HornSchunck(HornSchunckConfig(iterations=5))
    SEED = 11

    @pytest.fixture(scope="class")
    def frames(self, tmp_path_factory):
        root = synth_dataset(2, 32, 48, seed=0, out_dir=tmp_path_factory.mktemp("records"))
        return ingest_dataset(root).frames

    def scored_and_placed(self, defense, frames):
        """The clean and scored records of a checkerboard patch, which both
        defenses flag, and the attacked frames and footprint of each frame at
        the pose drawn from `SEED`."""
        patch = manual_patch(12, cell=2)
        clean = clean_flows(self.ESTIMATOR, defense, frames)
        scored = evaluate_pipeline(self.ESTIMATOR, defense, patch, frames, clean, seed=self.SEED)
        rng = np.random.default_rng(self.SEED)
        placed = [
            place_patch(f.frame1, f.frame2, patch, sample_pose(rng, patch.side, (32, 48)))
            for f in frames
        ]
        return clean, scored, placed

    @pytest.mark.parametrize("name", ["lgs", "ilp"])
    def test_masks_are_the_defenses(self, frames, name):
        defense = defense_config(name)
        clean, scored, placed = self.scored_and_placed(defense, frames)
        for item, reference in zip(frames, clean, strict=True):
            for mask, frame in zip(reference.masks, (item.frame1, item.frame2), strict=True):
                assert np.array_equal(mask.data, defend(frame, defense)[1].data)
        flagged = 0
        for reference, record, (attacked1, attacked2, footprint) in zip(
            clean, scored, placed, strict=True
        ):
            assert np.array_equal(record.footprint.data, footprint.data)
            defended = [defend(a, defense) for a in (attacked1, attacked2)]
            for mask, (_, want) in zip(record.masks, defended, strict=True):
                assert np.array_equal(mask.data, want.data)
                flagged += want.data.sum()
            flow = self.ESTIMATOR.estimate(defended[0][0], defended[1][0])
            assert record.robustness == epe_excl(reference.flow, flow, footprint)
        assert flagged > 0

    def test_no_defense_no_masks(self, frames):
        clean, scored, placed = self.scored_and_placed(None, frames)
        for item, reference in zip(frames, clean, strict=True):
            assert reference.masks is None
            assert reference.quality == epe(item.ground_truth, reference.flow)
        for record, (_, _, footprint) in zip(scored, placed, strict=True):
            assert record.masks is None
            assert np.array_equal(record.footprint.data, footprint.data)
