import numpy as np
import pytest
from defense_oracle import ClipStage
from hs_oracle import neighbor_average, neighbor_average_adjoint

from flowpatch.diff import ALL, CovMaterializeStage, Stage, StageTape, grad_check
from flowpatch.diff.stencils import (
    diff_x,
    diff_x_adjoint,
    diff_y,
    diff_y_adjoint,
    laplacian,
    laplacian_adjoint,
)


def shift(x, axis, step):
    """Forward oracle: out[i] = x[clip(i + step, 0, n-1)] along `axis`."""
    n = x.shape[axis]
    idx = np.clip(np.arange(n) + step, 0, n - 1)
    return np.take(x, idx, axis=axis)


def shift_neighbor_sum(x):
    return shift(x, 0, 1) + shift(x, 0, -1) + shift(x, 1, 1) + shift(x, 1, -1)


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


STENCILS = [(diff_x, diff_x_adjoint), (diff_y, diff_y_adjoint), (laplacian, laplacian_adjoint)]


def in_mode(fn, mode):
    return lambda x: fn(x, mode)


class TestStencilAdjoints:
    """<A x, y> == <x, A^T y> for every linear stencil, by explicit matrices."""

    # (forward, adjoint, boundary mode); an id names the stencil and, for the
    # extrapolate pad, the boundary.
    PAIRS = [
        pytest.param(
            in_mode(fn, mode), in_mode(adj, mode), mode,
            id=f"{fn.__name__}{suffix}-{fn.__name__}{suffix}_adjoint",
        )
        for mode, suffix in [("replicate", ""), ("extrapolate", "_extrapolated")]
        for fn, adj in STENCILS
    ] + [
        pytest.param(
            neighbor_average, neighbor_average_adjoint, "replicate",
            id="neighbor_average-neighbor_average_adjoint",
        )
    ]
    # Extrapolation reads two pixels per axis; the replicate pad also
    # covers single rows and columns.
    SHAPES = {
        "replicate": [(4, 5), (4, 5, 3), (1, 5), (5, 1)],
        "extrapolate": [(4, 5), (4, 5, 3)],
    }

    @pytest.mark.parametrize("fwd,adj,mode", PAIRS)
    def test_adjoint_is_transpose(self, fwd, adj, mode):
        for shape in self.SHAPES[mode]:
            A = materialize_jacobian(fwd, shape)
            At = materialize_jacobian(adj, shape)
            assert np.allclose(At, A.T, atol=1e-12), shape

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="boundary mode"):
            diff_x(np.zeros((3, 3)), "wrap")
        with pytest.raises(ValueError, match="boundary mode"):
            diff_x_adjoint(np.zeros((3, 3)), "wrap")

    @pytest.mark.parametrize(
        "stencil,oracle",
        [
            (in_mode(diff_x, "replicate"), lambda x: 0.5 * (shift(x, 1, 1) - shift(x, 1, -1))),
            (in_mode(diff_y, "replicate"), lambda x: 0.5 * (shift(x, 0, 1) - shift(x, 0, -1))),
            (in_mode(laplacian, "replicate"), lambda x: shift_neighbor_sum(x) - 4.0 * x),
            (neighbor_average, lambda x: 0.25 * shift_neighbor_sum(x)),
        ],
        ids=["diff_x", "diff_y", "laplacian", "neighbor_average"],
    )
    @pytest.mark.parametrize("shape", [(13, 21), (13, 21, 3)], ids=["13x21", "13x21x3"])
    def test_replicate_forward_equals_shift_oracle(self, stencil, oracle, shape):
        x = np.random.default_rng(3).standard_normal(shape)
        assert np.array_equal(stencil(x), oracle(x))

    def test_extrapolated_ramp_properties(self):
        cols = np.tile(np.arange(6.0), (5, 1))
        assert np.allclose(diff_x(cols, mode="extrapolate"), 1.0)
        assert np.allclose(laplacian(cols, mode="extrapolate"), 0.0)
        assert np.allclose(diff_y(cols, mode="extrapolate"), 0.0)


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

    def test_every_forward_is_given_every_pixel(self):
        seen = []

        class Product(Stage):
            def forward(self, ctx, inputs):
                seen.append(ctx["needed"])
                ctx["inputs"] = inputs
                return (inputs[0] * inputs[1],)

            def backward(self, ctx, cotangents):
                a, b = ctx["inputs"]
                return (cotangents[0] * b, cotangents[0] * a)

        rng = np.random.default_rng(3)
        report = grad_check(Product(), (rng.standard_normal((2, 2)), rng.standard_normal((2, 2))))
        assert report.passed, report
        # The VJP's forward, then two probes per coordinate of each input.
        assert len(seen) == 1 + 2 * report.n_coords
        assert all(needed == (ALL, ALL) for needed in seen)


class TestLinearJacobian:
    def test_reverse_equals_transpose_on_4x4(self):
        stage = NeighborAverageStage()
        shape = (4, 4)
        J = materialize_jacobian(lambda x: stage(x), shape)
        assert J.shape == (16, 16)
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = rng.standard_normal(shape)
            ctx = {"needed": (ALL,)}
            stage.forward(ctx, (rng.standard_normal(shape),))
            (vjp,) = stage.backward(ctx, (u,))
            assert np.allclose(vjp.reshape(-1), J.T @ u.reshape(-1), atol=1e-12)
