import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flowpatch.core import FlowField, Image, PixelMask
from flowpatch.flow import HornSchunck, HornSchunckConfig
from flowpatch.metrics import (
    EvalAggregate,
    EvalFrame,
    EvalRecord,
    aggregate_records,
    clean_flows,
    epe,
    epe_excl,
    evaluate_pipeline,
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


class TestRecordsAndTable:
    def test_record_rejects_negative(self):
        with pytest.raises(ValueError):
            EvalRecord("0", "none", "none", -1.0, None)

    def test_single_record_row(self):
        agg = aggregate_records(
            [EvalRecord("0", "lgs", "vanilla", 2.0, 3.0)], "lgs", "vanilla"
        )
        assert agg == EvalAggregate(
            defense="lgs",
            attack="vanilla",
            mean_quality=2.0,
            mean_robustness=3.0,
            count=1,
        )

    def test_two_records_average(self):
        agg = aggregate_records(
            [
                EvalRecord("0", "lgs", "vanilla", 2.0, 3.0),
                EvalRecord("1", "lgs", "vanilla", 4.0, 5.0),
            ],
            "lgs",
            "vanilla",
        )
        assert agg.mean_quality == 3.0
        assert agg.mean_robustness == 4.0

    def test_aggregate_matches_brute_force(self):
        rng = np.random.default_rng(3)
        records = [
            EvalRecord(str(i), "none", "vanilla", float(q), float(r))
            for i, (q, r) in enumerate(rng.uniform(0, 10, (20, 2)))
        ]
        agg = aggregate_records(records, "none", "vanilla")
        assert np.isclose(
            agg.mean_quality, sum(r.epe_quality for r in records) / 20
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
        records, agg = evaluate_pipeline(est, None, None, ds, clean_flows(est, None, ds))
        assert agg.mean_robustness is None
        assert agg.mean_quality is not None and agg.mean_quality >= 0
        assert records[0].epe_robustness is None
        with pytest.raises(ValueError):  # one clean flow per frame
            evaluate_pipeline(est, None, None, ds, [])

    def test_noop_patch_zero_robustness(self):
        # patch content identical to the frame content underneath -> f_D^A = f_D
        est = HornSchunck(HornSchunckConfig(iterations=20))
        data = self._dataset()
        frame = data[0]
        from flowpatch.attack import Patch
        from flowpatch.attack.placement import placement_geometry, sample_pose

        rng = np.random.default_rng(0)
        pose = sample_pose(rng, 6, (20, 28))
        constant = Image(np.full((20, 28, 3), 0.3))
        ds = [EvalFrame("0000", constant, constant, FlowField(np.zeros((20, 28, 2))))]
        patch = Patch(6, "clip", np.full((6, 6, 3), 0.3))
        records, agg = evaluate_pipeline(est, None, patch, ds, clean_flows(est, None, ds), seed=0)
        assert agg.mean_robustness == 0.0
