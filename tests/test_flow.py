import tracemalloc

import numpy as np
import pytest
from hs_oracle import JacobiIterationStage, oracle_flow_on_tape, oracle_solve_on_tape

from flowpatch.core import Image
from flowpatch.diff import ALL, StageTape, grad_check
from flowpatch.flow import (
    FrameDerivativesStage,
    HornSchunck,
    HornSchunckConfig,
    HornSchunckSolveStage,
    LuminanceStage,
)
from flowpatch.flow.horn_schunck import CACHE_LINE, aligned_array


def blob_frame(h, w, cy, cx, sigma=8.0, amp=0.4, base=0.3):
    yy, xx = np.mgrid[0:h, 0:w]
    g = base + amp * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * sigma**2)))
    return Image(np.repeat(g[:, :, None], 3, axis=2))


class TestForward:
    def test_identical_frames_give_exactly_zero_flow(self):
        frame = blob_frame(16, 16, 8, 8)
        flow = HornSchunck(HornSchunckConfig(iterations=50)).estimate(frame, frame)
        assert np.all(flow.data == 0.0)

    def test_translated_blob_recovers_horizontal_motion(self):
        # Golden value recorded from the synthetic-translation oracle:
        # a smooth blob shifted by exactly (1, 0) px between frames.
        f1 = blob_frame(64, 64, 32.0, 32.0)
        f2 = blob_frame(64, 64, 32.0, 33.0)
        flow = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=200)).estimate(f1, f2)
        yy, xx = np.mgrid[0:64, 0:64]
        support = ((yy - 32.0) ** 2 + (xx - 32.5) ** 2) <= (2.5 * 8.0) ** 2
        mean_u = flow.u[support].mean()
        mean_v = flow.v[support].mean()
        assert 0.5 <= mean_u <= 1.2
        assert -0.2 <= mean_v <= 0.2
        assert np.isclose(mean_u, 0.67326760486921, atol=1e-9)

    def test_deterministic_repeat_runs(self):
        rng = np.random.default_rng(0)
        f1 = Image(rng.uniform(0, 1, (12, 14, 3)))
        f2 = Image(rng.uniform(0, 1, (12, 14, 3)))
        est = HornSchunck(HornSchunckConfig(iterations=30))
        a = est.estimate(f1, f2)
        b = est.estimate(f1, f2)
        assert np.array_equal(a.data, b.data)

    def test_shape_mismatch_rejected(self):
        est = HornSchunck()
        with pytest.raises(ValueError, match="frame shapes differ"):
            est.estimate(Image(np.zeros((4, 4, 3))), Image(np.zeros((4, 5, 3))))

    @pytest.mark.parametrize("forward_only", ["estimate", "direct-stage-call"])
    def test_estimate_keeps_no_iterates(self, forward_only):
        # The averages of 200 iterations would hold about 27 MB at this size.
        rng = np.random.default_rng(8)
        f1 = Image(rng.uniform(0, 1, (64, 128, 3)))
        f2 = Image(rng.uniform(0, 1, (64, 128, 3)))
        if forward_only == "estimate":
            run, args = HornSchunck(HornSchunckConfig(iterations=200)).estimate, (f1, f2)
        else:
            g1, g2 = LuminanceStage()(f1.data), LuminanceStage()(f2.data)
            run, args = HornSchunckSolveStage(15.0, 200), FrameDerivativesStage()(g1, g2)
        tracemalloc.start()
        try:
            run(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError):
            HornSchunckConfig(iterations=0)


class TestStageGradients:
    def test_luminance_exact(self):
        rng = np.random.default_rng(1)
        assert grad_check(LuminanceStage(), rng.uniform(0, 1, (5, 5, 3))).passed

    def test_luminance_backward_has_input_shape(self):
        rng = np.random.default_rng(10)
        image = rng.uniform(0, 1, (4, 5, 3))
        stage = LuminanceStage()
        ctx = {"needed": (ALL,)}
        stage.forward(ctx, (image,))
        (back,) = stage.backward(ctx, (rng.standard_normal((4, 5)),))
        assert back.shape == image.shape
        report = grad_check(stage, image)
        assert report.passed, report

    def test_frame_derivatives_exact(self):
        rng = np.random.default_rng(2)
        report = grad_check(
            FrameDerivativesStage(),
            (rng.uniform(0, 255, (6, 6)), rng.uniform(0, 255, (6, 6))),
        )
        assert report.passed, report

    def test_jacobi_iteration_exact(self):
        rng = np.random.default_rng(3)
        inputs = (
            rng.standard_normal((5, 5)),
            rng.standard_normal((5, 5)),
            rng.uniform(-30, 30, (5, 5)),
            rng.uniform(-30, 30, (5, 5)),
            rng.uniform(-30, 30, (5, 5)),
        )
        report = grad_check(JacobiIterationStage(15.0), inputs)
        assert report.passed, report

    def test_solve_exact(self):
        rng = np.random.default_rng(9)
        inputs = tuple(rng.uniform(-30, 30, (5, 5)) for _ in range(3))
        report = grad_check(HornSchunckSolveStage(15.0, 5), inputs)
        assert report.passed, report


def same_bits(got, want):
    """Equal values, shapes and zero signs."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


class TestFusedSolveMatchesOracle:
    """The fused stage against the per-iteration chain of `hs_oracle`."""

    @staticmethod
    def _both(inputs, cot, run, oracle):
        """(output, input gradients) of `run` and of `oracle` on one tape each."""
        results = []
        for forward in (run, oracle):
            tape = StageTape()
            sources = [tape.source(x) for x in inputs]
            out = forward(tape, *sources)
            tape.backward(out, cot)
            results.append([out.array] + [tape.grad(v) for v in sources])
        return results

    # H*(W+2), the length of a flat padded row block, is a multiple of 8
    # for (16, 16), (8, 6) and (4, 14), so the stacked rows of the state
    # and the averages are contiguous, and it is not for the others, whose
    # rows are padded to a whole number of cache lines.
    @pytest.mark.parametrize(
        "shape", [(16, 16), (13, 21), (1, 7), (7, 1), (1, 1), (2, 3), (8, 6), (4, 14)]
    )
    def test_flow_and_gradients_bit_identical(self, shape):
        rng = np.random.default_rng(10)
        i1 = rng.uniform(0, 1, shape + (3,))
        i2 = rng.uniform(0, 1, shape + (3,))
        cot = rng.standard_normal(shape + (2,))
        est = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=200))
        fused, oracle = self._both(
            (i1, i2), cot, est.forward_on_tape,
            lambda tape, a, b: oracle_flow_on_tape(tape, a, b, 15.0, 200),
        )
        for got, want in zip(fused, oracle):
            assert same_bits(got, want)
        assert same_bits(est.estimate(Image(i1), Image(i2)).data, oracle[0])

    # A box of every pixel runs in segments of ceil(sqrt(K)) iterations:
    # one segment (1, 2), perfect squares (4, 16), one past a square (5,
    # 17), short last segments (3, 5, 15, 17, 200: 14 segments of 15, the
    # last of 5).
    @pytest.mark.parametrize("iterations", [1, 2, 3, 4, 5, 15, 16, 17, 200])
    def test_every_segment_count_bit_identical(self, iterations):
        rng = np.random.default_rng(16)
        shape = (13, 21)
        inputs = tuple(rng.uniform(-30, 30, shape) for _ in range(3))
        cot = rng.standard_normal(shape + (2,))
        stage = HornSchunckSolveStage(15.0, iterations)
        fused, oracle = self._both(
            inputs, cot, lambda tape, *xs: tape.apply(stage, *xs),
            lambda tape, *xs: oracle_solve_on_tape(tape, *xs, 15.0, iterations),
        )
        assert len(fused) == 4
        for got, want in zip(fused, oracle):
            assert same_bits(got, want)

    def test_non_contiguous_cotangent(self):
        rng = np.random.default_rng(11)
        shape = (9, 14)
        i1 = rng.uniform(0, 1, shape + (3,))
        i2 = rng.uniform(0, 1, shape + (3,))
        cot = rng.standard_normal((2, 14, 9)).T
        assert not cot.flags.c_contiguous
        est = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=50))
        fused, oracle = self._both(
            (i1, i2), cot, est.forward_on_tape,
            lambda tape, a, b: oracle_flow_on_tape(tape, a, b, 15.0, 50),
        )
        for got, want in zip(fused, oracle):
            assert same_bits(got, want)

    def test_negative_zero_cotangent_keeps_zero_signs(self):
        # Away from the one nonzero cotangent, every adjoint term is a signed
        # zero; the oracle's zero-pad scatter turns an all -0 sum into +0.
        shape = (6, 9)
        ix, iy, it = np.ones(shape), -np.ones(shape), np.zeros(shape)
        cot = np.full(shape + (2,), -0.0)
        cot[0, 0] = 1.0
        stage = HornSchunckSolveStage(15.0, 3)
        fused, oracle = self._both(
            (ix, iy, it), cot, lambda tape, *xs: tape.apply(stage, *xs),
            lambda tape, *xs: oracle_solve_on_tape(tape, *xs, 15.0, 3),
        )
        assert np.signbit(oracle[3]).any()
        for got, want in zip(fused, oracle):
            assert same_bits(got, want)


class TestAlignedArray:
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (2, 33024), (20, 2, 8320)])
    def test_starts_on_a_cache_line(self, shape):
        for fill in (None, 0.0):
            a = aligned_array(shape, fill)
            assert a.shape == shape and a.dtype == np.float64 and a.flags.c_contiguous
            assert a.__array_interface__["data"][0] % CACHE_LINE == 0
            if fill is not None:
                assert same_bits(a, np.zeros(shape))

    def test_negative_zero_fill_keeps_its_sign(self):
        a = aligned_array((3, 17), -0.0)
        assert (a == 0).all() and np.signbit(a).all()

    @pytest.mark.parametrize("lead", [0, 8, 16, 130, 258])
    def test_lead_element_of_every_row_starts_on_a_cache_line(self, lead):
        shape = (3, 2, 301)
        for fill in (None, 0.0):
            a = aligned_array(shape, fill, lead=lead)
            assert a.shape == shape and a.dtype == np.float64
            assert a.strides[-2] % CACHE_LINE == 0
            for row in np.ndindex(shape[:-1]):
                assert a[row][lead:].__array_interface__["data"][0] % CACHE_LINE == 0
            if fill is not None:
                assert same_bits(a, np.zeros(shape))

    def test_negative_zero_fill_with_a_lead_keeps_its_sign(self):
        a = aligned_array((3, 17), -0.0, lead=5)
        assert (a == 0).all() and np.signbit(a).all()

    def test_writing_one_row_leaves_the_others(self):
        a = aligned_array((3, 13), 0.0, lead=5)
        a[1] = np.arange(13.0)
        assert same_bits(a[0], np.zeros(13)) and same_bits(a[2], np.zeros(13))
        assert same_bits(a[1], np.arange(13.0))

    def test_grid_reshape_shares_memory_with_its_buffer(self):
        # The solve's u/v state: a write through the padded grid must reach
        # the flat rows, not a copy.
        h, w = 5, 7
        p = w + 2
        state = aligned_array((2, (h + 2) * p), 0.0, lead=p)
        assert not state.flags.c_contiguous
        grid = state.reshape(2, h + 2, p)
        assert np.shares_memory(grid, state)
        grid[1, 3, 4] = 1.0
        assert state[1, 3 * p + 4] == 1.0 and np.count_nonzero(state) == 1


class TestSolveMemory:
    """What the fused stage holds on a box of every pixel: the state at the
    start of each segment of about sqrt(iterations) iterations but the
    first, and one segment's averages, nothing more."""

    def test_tape_and_backward_memory(self):
        shape, iterations = (64, 128), 200
        rng = np.random.default_rng(12)
        ix, iy, it = (rng.uniform(-30, 30, shape) for _ in range(3))
        cot = rng.standard_normal(shape + (2,))
        stage = HornSchunckSolveStage(15.0, iterations)
        ctx = {"needed": (ALL,) * 3}
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            outputs = stage.forward(ctx, (ix, iy, it))
            held = tracemalloc.get_traced_memory()[0] - start
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            grads = stage.backward(ctx, (cot,))
            extra = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(outputs) == 1 and len(grads) == 3
        # 200 iterations run in 14 segments of 15: the stacked padded state
        # at the start of each but the first, one segment's stacked
        # averages, the three input rows and the flow.
        h, w = shape
        p, n = w + 2, h * (w + 2)
        saved, averages = 13 * 2 * (n + 2 * p) * 8, 15 * 2 * n * 8
        rows, flow = 3 * n * 8, 2 * h * w * 8
        layout = saved + averages + rows + flow
        assert held <= layout + 2**12, held - layout
        mib = 2**20
        assert extra <= 2 * mib, extra / mib

    @pytest.mark.parametrize("shape", [(64, 128), (128, 256)])
    def test_sweep_working_set(self, shape):
        # In arrays of H*(W+2) float64: a forward-only solve holds the three
        # input rows, den, the stacked state and averages and the output
        # flow, about 10; a backward on every row den, the stacked adjoint
        # state and its padded copy, the three sums, s, 2 Ix, 2 Iy and four
        # scratch arrays, about 15.
        rng = np.random.default_rng(13)
        inputs = tuple(rng.uniform(-30, 30, shape) for _ in range(3))
        cot = rng.standard_normal(shape + (2,))
        stage = HornSchunckSolveStage(15.0, 3)
        ctx = {"needed": (ALL,) * 3}
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            stage.forward({"needed": (None,) * 3}, inputs)
            forward_peak = tracemalloc.get_traced_memory()[1] - start
            stage.forward(ctx, inputs)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            stage.backward(ctx, (cot,))
            backward_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        unit = shape[0] * (shape[1] + 2) * 8
        assert forward_peak <= 10.5 * unit, forward_peak / unit
        assert backward_peak <= 15.5 * unit, backward_peak / unit


class TestSolverBackward:
    def _forward(self, tape, i1, i2, iterations=10):
        est = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=iterations))
        v1 = tape.source(i1)
        v2 = tape.source(i2)
        return est.forward_on_tape(tape, v1, v2), v1, v2

    def test_zero_cotangent_gives_zero_gradients(self):
        rng = np.random.default_rng(4)
        i1 = rng.uniform(0, 1, (6, 6, 3))
        i2 = rng.uniform(0, 1, (6, 6, 3))
        tape = StageTape()
        flow, v1, v2 = self._forward(tape, i1, i2)
        tape.backward(flow, np.zeros(flow.array.shape))
        g1, g2 = tape.grad(v1), tape.grad(v2)
        assert np.all(g1 == 0) and np.all(g2 == 0)

    def test_backward_is_linear_in_cotangent(self):
        rng = np.random.default_rng(5)
        i1 = rng.uniform(0, 1, (6, 6, 3))
        i2 = rng.uniform(0, 1, (6, 6, 3))
        u = rng.standard_normal((6, 6, 2))

        def vjp(cot):
            tape = StageTape()
            flow, v1, v2 = self._forward(tape, i1, i2)
            tape.backward(flow, cot)
            return tape.grad(v1), tape.grad(v2)

        g1a, g2a = vjp(u)
        g1b, g2b = vjp(3.0 * u)
        assert np.allclose(g1b, 3.0 * g1a, atol=1e-12)
        assert np.allclose(g2b, 3.0 * g2a, atol=1e-12)

    def test_mean_epe_gradient_matches_finite_differences(self):
        # Independent oracle: central differences of the scalar loss
        # L(I2) = mean_px ||flow(I1, I2) - f_ref||_2 over probed coordinates.
        rng = np.random.default_rng(6)
        i1 = rng.uniform(0.2, 0.8, (8, 8, 3))
        i2 = rng.uniform(0.2, 0.8, (8, 8, 3))
        f_ref = rng.standard_normal((8, 8, 2)) * 0.1

        def loss(i2_probe):
            est = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=10))
            flow = est.estimate(Image(i1), Image(i2_probe))
            return float(np.linalg.norm(flow.data - f_ref, axis=2).mean())

        tape = StageTape()
        flow, v1, v2 = self._forward(tape, i1, i2, iterations=10)
        diff = flow.array - f_ref
        norms = np.linalg.norm(diff, axis=2, keepdims=True)
        seed = diff / np.where(norms > 0, norms, 1.0) / (8 * 8)
        tape.backward(flow, seed)
        g2 = tape.grad(v2)

        h = 1e-4
        coords = [tuple(c) for c in rng.integers(0, 8, (24, 2))]
        max_rel = 0.0
        for r, c in coords:
            for ch in range(3):
                e = np.zeros_like(i2)
                e[r, c, ch] = h
                fd = (loss(i2 + e) - loss(i2 - e)) / (2 * h)
                rel = abs(g2[r, c, ch] - fd) / max(1.0, abs(fd))
                max_rel = max(max_rel, rel)
        assert max_rel <= 1e-3, max_rel

    def test_single_iteration_matches_symbolic_oracle_on_2x2(self):
        sympy = pytest.importorskip("sympy")
        h = w = 2
        alpha = 3.0
        names = {}
        for field in ("u", "v", "ix", "iy", "it"):
            names[field] = [
                [sympy.Symbol(f"{field}_{i}_{j}") for j in range(w)] for i in range(h)
            ]

        def clamp(i, n):
            return min(max(i, 0), n - 1)

        def avg(field, i, j):
            return (
                names[field][clamp(i - 1, h)][j]
                + names[field][clamp(i + 1, h)][j]
                + names[field][i][clamp(j - 1, w)]
                + names[field][i][clamp(j + 1, w)]
            ) / 4

        rng = np.random.default_rng(7)
        cot_u = rng.standard_normal((h, w))
        cot_v = rng.standard_normal((h, w))
        objective = 0
        for i in range(h):
            for j in range(w):
                ubar = avg("u", i, j)
                vbar = avg("v", i, j)
                ix, iy, it = names["ix"][i][j], names["iy"][i][j], names["it"][i][j]
                q = (ix * ubar + iy * vbar + it) / (alpha**2 + ix**2 + iy**2)
                objective += cot_u[i, j] * (ubar - ix * q)
                objective += cot_v[i, j] * (vbar - iy * q)

        point = {}
        values = {}
        for field in ("u", "v", "ix", "iy", "it"):
            values[field] = rng.standard_normal((h, w))
            for i in range(h):
                for j in range(w):
                    point[names[field][i][j]] = values[field][i, j]

        stage = JacobiIterationStage(alpha)
        ctx = {"needed": (ALL,) * 5}
        stage.forward(
            ctx, (values["u"], values["v"], values["ix"], values["iy"], values["it"])
        )
        grads = stage.backward(ctx, (cot_u, cot_v))

        for k, field in enumerate(("u", "v", "ix", "iy", "it")):
            for i in range(h):
                for j in range(w):
                    expected = float(
                        sympy.diff(objective, names[field][i][j]).evalf(subs=point)
                    )
                    assert np.isclose(grads[k][i, j], expected, atol=1e-10), (
                        field,
                        i,
                        j,
                    )
