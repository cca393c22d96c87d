import numpy as np
import pytest

from flowpatch.diff import ClipStage, CovMaterializeStage, Stage, StageTape, grad_check
from flowpatch.diff.stencils import (
    diff_x,
    diff_x_adjoint,
    diff_x_extrapolated,
    diff_x_extrapolated_adjoint,
    diff_y,
    diff_y_adjoint,
    diff_y_extrapolated,
    diff_y_extrapolated_adjoint,
    laplacian,
    laplacian_adjoint,
    laplacian_extrapolated,
    laplacian_extrapolated_adjoint,
    neighbor_average,
    neighbor_average_adjoint,
    shift,
    shift_adjoint,
)


class ScaleStage(Stage):
    """y = factor * x."""

    name = "scale"

    def __init__(self, factor):
        self.factor = factor

    def forward(self, ctx, inputs):
        return (self.factor * inputs[0],)

    def backward(self, ctx, cotangents):
        return (self.factor * cotangents[0],)


class NeighborAverageStage(Stage):
    name = "neighbor-average"

    def forward(self, ctx, inputs):
        return (neighbor_average(inputs[0]),)

    def backward(self, ctx, cotangents):
        return (neighbor_average_adjoint(cotangents[0]),)


def materialize_jacobian(fn, shape):
    """Columns of the Jacobian of a linear map via unit-vector probes."""
    n = int(np.prod(shape))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        cols.append(fn(e.reshape(shape)).reshape(-1))
    return np.stack(cols, axis=1)


class TestStencilAdjoints:
    """<A x, y> == <x, A^T y> for every linear stencil, by explicit matrices."""

    PAIRS = [
        (lambda x: shift(x, 0, 1), lambda g: shift_adjoint(g, 0, 1)),
        (lambda x: shift(x, 0, -1), lambda g: shift_adjoint(g, 0, -1)),
        (lambda x: shift(x, 1, 1), lambda g: shift_adjoint(g, 1, 1)),
        (lambda x: shift(x, 1, -1), lambda g: shift_adjoint(g, 1, -1)),
        (diff_x, diff_x_adjoint),
        (diff_y, diff_y_adjoint),
        (laplacian, laplacian_adjoint),
        (neighbor_average, neighbor_average_adjoint),
        (diff_x_extrapolated, diff_x_extrapolated_adjoint),
        (diff_y_extrapolated, diff_y_extrapolated_adjoint),
        (laplacian_extrapolated, laplacian_extrapolated_adjoint),
    ]

    @pytest.mark.parametrize("fwd,adj", PAIRS)
    def test_adjoint_is_transpose(self, fwd, adj):
        shape = (4, 5)
        A = materialize_jacobian(fwd, shape)
        At = materialize_jacobian(adj, shape)
        assert np.allclose(At, A.T, atol=1e-12)

    def test_extrapolated_ramp_properties(self):
        cols = np.tile(np.arange(6.0), (5, 1))
        assert np.allclose(diff_x_extrapolated(cols), 1.0)
        assert np.allclose(laplacian_extrapolated(cols), 0.0)
        assert np.allclose(diff_y_extrapolated(cols), 0.0)


def run_chain(stages, x):
    """Record `stages` applied in sequence to `x`; returns (tape, input, output)."""
    tape = StageTape()
    value = source = tape.source(x)
    for stage in stages:
        value = tape.apply(stage, value)
    return tape, source, value


def chain_vjp(stages, x, cotangent):
    tape, source, output = run_chain(stages, x)
    tape.backward(output, cotangent)
    return tape.grad(source)


class TestTapeChain:
    def test_empty_tape_is_identity(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(run_chain([], x)[2].array, x)
        g = np.ones((2, 3))
        assert np.array_equal(chain_vjp([], x, g), g)

    def test_clip_stage_in_range(self):
        x = np.full((2, 2), 0.5)
        assert np.array_equal(run_chain([ClipStage(0, 1)], x)[2].array, x)

    def test_two_scale_stages(self):
        assert run_chain([ScaleStage(2.0), ScaleStage(3.0)], np.array(1.0))[2].array == 6.0

    def test_scale_backward_is_adjoint(self):
        assert chain_vjp([ScaleStage(2.0)], np.array(1.0), np.array(1.0)) == 2.0

    def test_backward_before_forward_raises(self):
        tape, source, _ = run_chain([ScaleStage(2.0)], np.array(1.0))
        with pytest.raises(RuntimeError):
            tape.grad(source)

    def test_composition_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.2, 0.8, (8, 8))
        stages = [ScaleStage(1.7), CovMaterializeStage(), NeighborAverageStage()]
        u = rng.standard_normal((8, 8))
        vjp = chain_vjp(stages, x, u)

        def objective(q):
            return float(np.sum(u * run_chain(stages, q)[2].array))

        h = 1e-4
        max_rel = 0.0
        for idx in np.ndindex(x.shape):
            e = np.zeros_like(x)
            e[idx] = h
            fd = (objective(x + e) - objective(x - e)) / (2 * h)
            max_rel = max(max_rel, abs(vjp[idx] - fd) / max(1.0, abs(fd)))
        assert max_rel <= 1e-4

    def test_fanout_accumulates_cotangents(self):
        # y = 2x + 3x: grad must be 5.
        tape = StageTape()
        x = tape.source(np.array(1.0))
        a = tape.apply(ScaleStage(2.0), x)
        b = tape.apply(ScaleStage(3.0), x)

        class AddStage(Stage):
            name = "add"

            def forward(self, ctx, inputs):
                return (inputs[0] + inputs[1],)

            def backward(self, ctx, cotangents):
                return (cotangents[0], cotangents[0])

        y = tape.apply(AddStage(), a, b)
        tape.backward(y, 1.0)
        assert tape.grad(x) == 5.0


class TestGradCheck:
    def test_tanh_passes(self):
        report = grad_check(CovMaterializeStage(), np.full((3, 3), 0.3), h=1e-4, tol=1e-4)
        assert report.passed, report

    def test_clip_interior_passes(self):
        report = grad_check(ClipStage(0, 1), np.full((3, 3), 0.5), h=1e-4, tol=1e-6)
        assert report.passed, report

    def test_cov_materialize_passes(self):
        rng = np.random.default_rng(2)
        report = grad_check(CovMaterializeStage(), rng.standard_normal((4, 4)))
        assert report.passed, report

    def test_detects_wrong_gradient(self):
        class Broken(CovMaterializeStage):
            def backward(self, ctx, cotangents):
                return (cotangents[0] * 0.5,)

        report = grad_check(Broken(), np.full((2, 2), 0.3))
        assert not report.passed


class TestLinearJacobian:
    def test_reverse_equals_transpose_on_4x4(self):
        stage = NeighborAverageStage()
        shape = (4, 4)
        J = materialize_jacobian(lambda x: stage(x), shape)
        assert J.shape == (16, 16)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = rng.standard_normal(shape)
            ctx = {}
            stage.forward(ctx, (rng.standard_normal(shape),))
            (vjp,) = stage.backward(ctx, (u,))
            assert np.allclose(vjp.reshape(-1), J.T @ u.reshape(-1), atol=1e-12)
