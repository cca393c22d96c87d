import tracemalloc

import numpy as np
import pytest
from hs_oracle import JacobiIterationStage, oracle_flow_on_tape

from flowpatch.core import Image
from flowpatch.diff import StageTape, grad_check
from flowpatch.flow import (
    FrameDerivativesStage,
    HornSchunck,
    HornSchunckConfig,
    HornSchunckSolveStage,
    LuminanceStage,
)


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

    def test_estimate_keeps_no_iterates(self):
        # A tape of 200 iterations would hold about 76 MB at this size.
        rng = np.random.default_rng(8)
        f1 = Image(rng.uniform(0, 1, (64, 128, 3)))
        f2 = Image(rng.uniform(0, 1, (64, 128, 3)))
        est = HornSchunck(HornSchunckConfig(iterations=200))
        tracemalloc.start()
        try:
            est.estimate(f1, f2)
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

    @pytest.mark.parametrize("shape", [(4, 5), (4, 5, 1), (4, 5, 3)])
    def test_luminance_backward_has_input_shape(self, shape):
        rng = np.random.default_rng(10)
        image = rng.uniform(0, 1, shape)
        stage = LuminanceStage()
        ctx = {}
        stage.forward(ctx, (image,))
        (back,) = stage.backward(ctx, (rng.standard_normal((4, 5)),))
        assert back.shape == shape
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


class TestFusedSolveMatchesOracle:
    """The fused stage against the per-iteration chain of `hs_oracle`."""

    @pytest.mark.parametrize("shape", [(16, 16), (13, 21)])
    def test_flow_and_gradients_bit_identical(self, shape):
        rng = np.random.default_rng(10)
        i1 = rng.uniform(0, 1, shape + (3,))
        i2 = rng.uniform(0, 1, shape + (3,))
        cot = rng.standard_normal(shape + (2,))
        est = HornSchunck(HornSchunckConfig(alpha=15.0, iterations=200))

        results = []
        for forward in (
            est.forward_on_tape,
            lambda tape, a, b: oracle_flow_on_tape(tape, a, b, 15.0, 200),
        ):
            tape = StageTape()
            v1, v2 = tape.source(i1), tape.source(i2)
            flow = forward(tape, v1, v2)
            tape.backward(flow, cot)
            results.append((flow.array, tape.grad(v1), tape.grad(v2)))

        fused, oracle = results
        for got, want in zip(fused, oracle):
            assert np.array_equal(got, want)
        assert np.array_equal(est.estimate(Image(i1), Image(i2)).data, oracle[0])


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
        ctx = {}
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
