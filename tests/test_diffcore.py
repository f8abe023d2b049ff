"""Tape engine, optimizer, DCT basis, integrator, checkpoints."""

import numpy as np
import pytest

from moldiff.diffcore import (
    AdamState,
    DetachedLoss,
    LossNotScalar,
    NonFiniteField,
    ShapeMismatch,
    Tape,
    adam_step,
    backward,
    dct_matrix,
    load_params,
    ode_integrate,
    param,
    save_params,
)
from moldiff.diffcore import tensor as T

from conftest import fd_gradcheck


class TestBackward:
    def test_square_gradient(self):
        x = param(np.array(3.0))
        with Tape() as tape:
            y = T.mul(x, x)
        grads = backward(tape, y)
        assert grads[x] == pytest.approx(6.0)

    def test_relu_dead_unit(self):
        x = param(np.array(-2.0))
        with Tape() as tape:
            y = T.sum_all(T.relu(x))
        grads = backward(tape, y)
        assert grads[x] == 0.0

    def test_fanout_accumulates(self):
        x = param(np.array(2.0))
        with Tape() as tape:
            y = T.add(T.mul(x, x), T.mul(x, 3.0))  # x^2 + 3x
        grads = backward(tape, y)
        assert grads[x] == pytest.approx(7.0)

    def test_loss_not_scalar(self):
        x = param(np.ones(3))
        with Tape() as tape:
            y = T.mul(x, 2.0)
        with pytest.raises(LossNotScalar):
            backward(tape, y)

    def test_detached_loss(self):
        x = param(np.array(1.0))
        with Tape() as tape:
            T.mul(x, 2.0)
        stray = T.tensor(np.array(0.0))
        with pytest.raises(DetachedLoss):
            backward(tape, stray)

    def test_node_keeps_only_attached_inputs(self, rng):
        x = T.tensor(rng.standard_normal((4, 3)))
        w = param(rng.standard_normal((3, 2)))
        b = param(rng.standard_normal(2))
        with Tape() as tape:
            h = T.affine(x, w, b)
            y = T.mul(h, T.tensor(rng.standard_normal((4, 2))))
        assert [inp for inp, _ in tape._nodes[0][1]] == [w, b]
        # a produced input is attached too; the constant factor is not
        assert [inp for inp, _ in tape._nodes[1][1]] == [h]
        assert tape._nodes[1][0] is y

    def test_backward_deterministic(self, rng):
        x = param(rng.standard_normal((4, 3)))
        w = param(rng.standard_normal((3, 2)))

        def run():
            with Tape() as tape:
                loss = T.mse(T.matmul(x, w), T.tensor(np.ones((4, 2))))
            return backward(tape, loss)

        g1 = run()
        g2 = run()
        assert np.array_equal(g1[x], g2[x])
        assert np.array_equal(g1[w], g2[w])


class TestGradCheckPrimitives:
    """Central finite differences against every differentiable primitive."""

    def test_matmul_against_finite_differences(self, rng):
        a = param(rng.standard_normal((4, 3)))
        b = param(rng.standard_normal((3, 2)))
        tgt = rng.standard_normal((4, 2))
        worst = fd_gradcheck(lambda: T.mse(T.matmul(a, b), T.tensor(tgt)),
                             [a, b], h=1e-5)
        assert worst < 1e-6

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "relu", "sigmoid",
                                    "sqrt", "reciprocal", "softmax"])
    def test_elementwise_ops(self, op, rng):
        x = param(np.abs(rng.standard_normal((3, 4))) + 0.5)
        tgt = rng.standard_normal((3, 4))
        other = T.tensor(rng.standard_normal((3, 4)))
        builds = {
            "add": lambda: T.mse(T.add(x, other), T.tensor(tgt)),
            "sub": lambda: T.mse(T.sub(x, other), T.tensor(tgt)),
            "mul": lambda: T.mse(T.mul(x, other), T.tensor(tgt)),
            "relu": lambda: T.mse(T.relu(x), T.tensor(tgt)),
            "sigmoid": lambda: T.mse(T.sigmoid(x), T.tensor(tgt)),
            "sqrt": lambda: T.mse(T.sqrt(x), T.tensor(tgt)),
            "reciprocal": lambda: T.mse(T.reciprocal(x), T.tensor(tgt)),
            "softmax": lambda: T.mse(T.softmax(x), T.tensor(tgt)),
        }
        assert fd_gradcheck(builds[op], [x]) < 1e-4

    def test_concat_narrow_gather_reshape(self, rng):
        a = param(rng.standard_normal((3, 2)))
        b = param(rng.standard_normal((2, 2)))
        plan = T.SegmentPlan(np.array([0, 2, 2, 1]), 5)  # rows 3 and 4 unread
        tgt = rng.standard_normal((4, 2))

        def build():
            cat = T.concat([a, b], axis=0)
            picked = T.gather_rows(cat, plan)
            return T.mse(T.narrow(picked, 1, 0, 2), T.tensor(tgt))

        assert fd_gradcheck(build, [a, b]) < 1e-4

    def test_narrow_only_along_rows_or_columns(self, rng):
        x = T.tensor(rng.standard_normal((2, 3, 4)))
        with pytest.raises(ShapeMismatch):
            T.narrow(x, 2, 0, 1)

    def test_segment_ops(self, rng):
        x = param(rng.standard_normal((8, 3)))
        plan = T.SegmentPlan(np.array([0, 0, 1, 1, 2, 2, 2, 3]), 5)
        tgt = rng.standard_normal((5, 3))  # segment 4 stays empty
        for op in (T.segment_mean, T.segment_min, T.segment_max,
                   T.segment_std, T.segment_sum):
            worst = fd_gradcheck(lambda op=op: T.mse(op(x, plan), T.tensor(tgt)), [x])
            assert worst < 1e-4, op.__name__

    def test_segment_empty_is_zero(self, rng):
        x = T.tensor(rng.standard_normal((2, 3)))
        plan = T.SegmentPlan(np.array([1, 1]), 3)
        for op in (T.segment_mean, T.segment_min, T.segment_max, T.segment_std):
            out = op(x, plan)
            assert np.all(out.data[0] == 0.0)
            assert np.all(out.data[2] == 0.0)

    def test_segment_std_zero_variance_gradient(self):
        # identical rows in a segment: the std gradient convention is 0
        x = param(np.array([[1.0], [1.0], [1.0]]))
        plan = T.SegmentPlan(np.array([0, 0, 0]), 1)
        with Tape() as tape:
            loss = T.sum_all(T.segment_std(x, plan))
        grads = backward(tape, loss)
        assert np.all(grads[x] == 0.0)

    def test_softmax_cross_entropy(self, rng):
        logits = param(rng.standard_normal((5, 4)))
        targets = np.array([0, 1, 2, 3, 1])
        assert fd_gradcheck(
            lambda: T.softmax_cross_entropy(logits, targets), [logits]) < 1e-4

    def test_mse_against_finite_differences(self, rng):
        a = param(rng.standard_normal((6,)))
        tgt = rng.standard_normal((6,))
        assert fd_gradcheck(lambda: T.mse(a, T.tensor(tgt)), [a]) < 1e-4


class TestAffine:
    def test_same_bits_as_matmul_then_add(self, rng):
        """Value and all three gradients equal the two-node version exactly."""
        x = param(rng.standard_normal((7, 5)))
        w = param(rng.standard_normal((5, 3)))
        b = param(rng.standard_normal(3))
        weights = T.tensor(rng.standard_normal((7, 3)))

        def run(linear):
            with Tape() as tape:
                out = linear()
                grads = backward(tape, T.sum_all(T.mul(out, weights)))
            return out.data, [grads[p] for p in (x, w, b)], len(tape)

        fused, fused_grads, fused_nodes = run(lambda: T.affine(x, w, b))
        pair, pair_grads, pair_nodes = run(lambda: T.add(T.matmul(x, w), b))
        assert np.array_equal(fused, pair)
        for got, want in zip(fused_grads, pair_grads):
            assert np.array_equal(got, want)
        assert fused_nodes == pair_nodes - 1

    def test_shape_mismatch(self, rng):
        with pytest.raises(ShapeMismatch):
            T.affine(T.tensor(np.ones((2, 3))), T.tensor(np.ones((4, 1))),
                     T.tensor(np.ones(1)))


class TestCompleteMean:
    @pytest.mark.parametrize("n", [2, 9, 45])
    def test_against_finite_differences(self, n, rng):
        x = param(rng.standard_normal((n, 3)))
        tgt = rng.standard_normal((n, 3))
        assert fd_gradcheck(lambda: T.mse(T.complete_mean(x), T.tensor(tgt)), [x]) < 1e-4

    def test_single_row_is_zero(self, rng):
        x = param(rng.standard_normal((1, 4)))
        with Tape() as tape:
            out = T.complete_mean(x)
            grads = backward(tape, T.sum_all(out))
        assert np.array_equal(out.data, np.zeros((1, 4)))
        assert np.array_equal(grads[x], np.zeros((1, 4)))

    def test_hand_computed(self):
        x = T.tensor(np.array([[1.0], [2.0], [6.0]]))
        assert np.array_equal(T.complete_mean(x).data, [[4.0], [3.5], [1.5]])


class TestAdam:
    def test_zero_gradient_keeps_everything(self):
        p = param(np.array([1.5, -0.5]))
        state = AdamState([p])
        adam_step(state, {p: np.zeros(2)})
        assert np.array_equal(p.data, [1.5, -0.5])
        assert np.all(state.m == 0.0)
        assert np.all(state.v == 0.0)

    def test_first_step_moves_by_lr(self):
        # closed form: m_hat = 1, v_hat = 1 after one unit-gradient step
        p = param(np.array(0.7))
        state = AdamState([p])
        adam_step(state, {p: np.array(1.0)})
        assert abs((p.data - 0.7) + 0.001) < 1e-6

    def test_two_steps_match_reference_recurrence(self):
        p = param(np.array(0.0))
        state = AdamState([p])
        adam_step(state, {p: np.array(1.0)})
        adam_step(state, {p: np.array(1.0)})

        # independent scripted recurrence
        lr, b1, b2, eps = 0.001, 0.9, 0.999, 1e-8
        theta, m, v = 0.0, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * 1.0
            v = b2 * v + (1 - b2) * 1.0
            theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert float(p.data) == pytest.approx(theta, abs=1e-12)

    def test_random_steps_same_bits_as_whole_vector_formula(self, rng):
        ps = [param(rng.standard_normal((3, 4))), param(rng.standard_normal(5))]
        state = AdamState(ps, lr=0.01)
        flat = np.concatenate([p.data.ravel() for p in ps])
        m, v = np.zeros_like(flat), np.zeros_like(flat)
        b1, b2, lr, eps = state.beta1, state.beta2, state.lr, state.eps
        for step in range(1, 6):
            grads = {p: rng.standard_normal(p.data.shape) * 10.0 ** rng.integers(-6, 3)
                     for p in ps}
            adam_step(state, grads)
            g = np.concatenate([grads[p].ravel() for p in ps])
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            m_hat = m / (1.0 - b1 ** step)
            v_hat = v / (1.0 - b2 ** step)
            flat -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.concatenate([p.data.ravel() for p in ps]).tobytes() == flat.tobytes()
        assert state.m.tobytes() == m.tobytes()
        assert state.v.tobytes() == v.tobytes()

    def test_shape_mismatch(self):
        p = param(np.zeros((2, 2)))
        state = AdamState([p])
        with pytest.raises(T.ShapeMismatch):
            adam_step(state, {p: np.zeros(3)})


class TestSpectral:
    def test_constant_vector_has_only_dc(self):
        c = dct_matrix(8) @ np.full(8, 3.25)
        assert abs(c[0] - 3.25 * np.sqrt(8)) < 1e-12
        assert np.max(np.abs(c[1:])) < 1e-12

    def test_roundtrip(self, rng):
        x = rng.standard_normal(16)
        basis = dct_matrix(16)
        assert np.max(np.abs(basis.T @ (basis @ x) - x)) < 1e-9

    def test_impulse_against_cosine_sum(self):
        # brute-force orthonormal DCT-II of e_0, length 4
        x = np.array([1.0, 0.0, 0.0, 0.0])
        n = 4
        expected = np.empty(n)
        for k in range(n):
            scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
            expected[k] = scale * sum(
                x[i] * np.cos(np.pi * (2 * i + 1) * k / (2 * n)) for i in range(n))
        assert np.allclose(dct_matrix(n) @ x, expected, atol=1e-12)

    def test_empty_input(self):
        with pytest.raises(T.EmptyInput):
            dct_matrix(0)


class TestOdeIntegrate:
    def test_zero_field_identity(self):
        x0 = np.array([1.0, -2.0])
        out = ode_integrate(lambda t, x: np.zeros_like(x), x0, 0.0, 1.0, 10)
        assert np.array_equal(out, x0)

    def test_exponential_growth(self):
        x0 = np.array([1.0, 0.5])
        out = ode_integrate(lambda t, x: x, x0, 0.0, 1.0, 100)
        assert np.max(np.abs(out / (np.e * x0) - 1.0)) < 1e-5

    def test_backward_integration_recovers_start(self):
        x0 = np.array([2.0])
        fwd = ode_integrate(lambda t, x: -x, x0, 0.0, 1.0, 100)
        back = ode_integrate(lambda t, x: -x, fwd, 1.0, 0.0, 100)
        assert np.max(np.abs(back - x0)) < 1e-5

    def test_fourth_order_convergence(self):
        x0 = np.array([1.0])
        exact = np.e

        def err(steps):
            return abs(ode_integrate(lambda t, x: x, x0, 0.0, 1.0, steps)[0] - exact)

        ratio = err(50) / err(100)
        assert ratio >= 8.0
        assert abs(np.log2(ratio) - 4.0) < 0.6

    def test_non_finite_field(self):
        with pytest.raises(NonFiniteField), np.errstate(divide="ignore"):
            ode_integrate(lambda t, x: x / 0.0, np.array([1.0]), 0.0, 1.0, 10)


class TestCheckpoint:
    def test_roundtrip_with_meta(self, tmp_path):
        path = tmp_path / "model.mdl1"
        arrays = {"layer.W": np.arange(6.0).reshape(2, 3),
                  "layer.b": np.array([1.0, 2.0, 3.0]),
                  "scalar": np.array(4.0)}
        save_params(path, arrays, meta={"flow": "ddpm_gnn", "steps": 50})
        loaded, meta = load_params(path)
        assert meta == {"flow": "ddpm_gnn", "steps": 50}
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert np.array_equal(loaded[name], arrays[name])
            assert loaded[name].shape == arrays[name].shape

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "model.mdl1"
        save_params(path, {"x": np.zeros(2)})
        assert path.read_bytes()[:4] == b"MDL1"
