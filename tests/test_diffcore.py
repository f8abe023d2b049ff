"""Tape engine, optimizer, DCT basis, integrator, checkpoints."""

import contextlib
import re
import struct
import warnings
from functools import partial

import numpy as np
import pytest

from moldiff.chem import parse_smiles
from moldiff.codec import molecular_edges
from moldiff.diffcore import (
    AdamState,
    CheckpointError,
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
from moldiff.gnn import EdgeIndex, pair_node_edges

from conftest import assert_close, fd_gradcheck, mean_only, per_layer_stack


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
            return T.mse(T.narrow(picked, -1, 0, 2), T.tensor(tgt))

        assert fd_gradcheck(build, [a, b]) < 1e-4

    def test_concat_row_is_concat_of_the_repeated_row(self, rng):
        """The value and x's gradient have the bits of ``concat`` with the
        row repeated on every row of x."""
        x = param(rng.standard_normal((4, 2)))
        row = rng.standard_normal(3)
        weights = T.tensor(rng.standard_normal((4, 5)))
        got = []
        for build in (lambda: T.concat_row(x, row),
                      lambda: T.concat([x, T.tensor(np.tile(row, (4, 1)))], axis=1)):
            with Tape() as tape:
                out = build()
                grads = T.backward(tape, T.sum_all(T.mul(out, weights)))
            got.append((out.data.tobytes(), grads[x].tobytes()))
        assert got[0] == got[1]
        tgt = rng.standard_normal((4, 5))
        assert fd_gradcheck(lambda: T.mse(T.concat_row(x, row), T.tensor(tgt)), [x]) < 1e-4

    def test_narrow_only_along_rows_or_columns(self, rng):
        x = T.tensor(rng.standard_normal((2, 3, 4)))
        with pytest.raises(ShapeMismatch):
            T.narrow(x, 2, 0, 1)
        # rows are axis -2 and features -1, for a 2-D x too
        for axis in (0, 1):
            with pytest.raises(ShapeMismatch):
                T.narrow(T.tensor(x.data[0]), axis, 0, 1)

    def test_segment_ops(self, rng):
        x = param(rng.standard_normal((8, 3)))
        plan = T.SegmentPlan(np.array([0, 0, 1, 1, 2, 2, 2, 3]), 5)
        tgt = rng.standard_normal((5, 3))  # segment 4 stays empty
        worst = fd_gradcheck(lambda: T.mse(T.segment_mean(x, plan), T.tensor(tgt)), [x])
        assert worst < 1e-4
        # the PNA statistics of messages x[src] arriving at dst; no node
        # hears the same source twice, so no extreme is tied
        nodes = param(rng.standard_normal((5, 3)))
        src = T.SegmentPlan(np.array([1, 2, 0, 3, 4, 0, 1, 2]), 5)
        tgt = rng.standard_normal((5, 16))
        worst = fd_gradcheck(
            lambda: T.mse(T.pna_aggregate(nodes, src, plan), T.tensor(tgt)), [nodes])
        assert worst < 1e-4

    def test_segment_empty_is_zero(self, rng):
        plan = T.SegmentPlan(np.array([1, 1]), 3)  # segments 0 and 2 stay empty
        out = T.segment_mean(T.tensor(rng.standard_normal((2, 3))), plan).data
        assert np.all(out[0] == 0.0) and np.all(out[2] == 0.0)
        nodes = T.tensor(rng.standard_normal((3, 3)) + 3.0)
        stats = T.pna_aggregate(nodes, T.SegmentPlan(np.array([0, 2]), 3), plan).data[:, 3:15]
        assert np.all(stats[0] == 0.0) and np.all(stats[2] == 0.0)
        assert np.all(stats[1] != 0.0)

    def test_segment_std_zero_variance_gradient(self):
        # identical messages at a node: the std gradient convention is 0
        x = param(np.array([[1.0], [1.0], [1.0]]))
        src = T.SegmentPlan(np.array([0, 1, 2]), 3)
        plan = T.SegmentPlan(np.array([0, 0, 0]), 3)
        with Tape() as tape:
            loss = T.sum_all(T.narrow(T.pna_aggregate(x, src, plan), -1, 4, 1))
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


class TestSigmoid:
    def test_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = T.sigmoid(T.tensor(np.array([-1000.0, 1000.0]))).data
        assert out.tolist() == [0.0, 1.0]

    def test_same_bits_as_the_plain_formula(self):
        x = np.linspace(-700.0, 700.0, 14001)
        assert np.array_equal(T.sigmoid(T.tensor(x)).data, 1.0 / (1.0 + np.exp(-x)))

    def test_no_gradient_where_saturated(self):
        x = param(np.array([-1000.0]))
        with Tape() as tape:
            loss = T.mse(T.sigmoid(x), T.tensor(np.array([1.0])))
        assert backward(tape, loss)[x].tolist() == [0.0]


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
    """The closed-form neighbour mean inside ``relu_stack``."""

    @pytest.mark.parametrize("n", [2, 9, 45])
    def test_against_finite_differences(self, n, rng):
        x = param(rng.standard_normal((n, 3)))
        tgt = rng.standard_normal((n, 3))
        assert fd_gradcheck(
            lambda: T.mse(T.relu_stack(x, mean_only(3)), T.tensor(tgt)), [x]) < 1e-4

    def test_single_row_is_zero(self, rng):
        x = param(rng.standard_normal((1, 4)))
        with Tape() as tape:
            out = T.relu_stack(x, mean_only(4))
            grads = backward(tape, T.sum_all(out))
        assert np.array_equal(out.data, np.zeros((1, 4)))
        assert np.array_equal(grads[x], np.zeros((1, 4)))

    def test_hand_computed(self):
        x = T.tensor(np.array([[1.0], [2.0], [6.0]]))
        assert np.array_equal(T.relu_stack(x, mean_only(1)).data, [[4.0], [3.5], [1.5]])


def stack_layers(rng, widths, nbr) -> list:
    """Trainable (W, Wn or None, b) layers; ``nbr[i]`` gives layer i a
    neighbour-mean path."""
    return [(param(rng.standard_normal((a, b))),
             param(rng.standard_normal((a, b))) if k else None,
             param(rng.standard_normal(b)))
            for a, b, k in zip(widths, widths[1:], nbr)]


def trainables(layers) -> list:
    return [t for layer in layers for t in layer if t is not None]


def _bits(a):
    return a.shape, a.tobytes()


# the three ways a stack runs: on a recording tape, off it, and off it
# inside frozen_params
BLOCKS = {"tape": Tape, "off": contextlib.nullcontext, "frozen": T.frozen_params}


class TestCompleteStack:
    @staticmethod
    def run(stack, x, layers, weights):
        """Value, node count and gradients of sum((stack(x) - x) * weights):
        x feeds the stack and the loss, as in a noise predictor."""
        with Tape() as tape:
            out = stack(x, layers)
            loss = T.sum_all(T.mul(T.sub(out, x), weights))
            grads = backward(tape, loss)
        return out.data, len(tape), [grads.get(p) for p in [x, *trainables(layers)]]

    @pytest.mark.parametrize("n", [1, 2, 9, 45])
    def test_same_bits_as_per_layer_nodes(self, n, rng):
        """The same bits on one row, where no layer folds; on more rows the
        folded layers match the per-layer mean to rounding."""
        layers = stack_layers(rng, [3, 8, 8, 8, 3], [True, False, True, False])
        x = param(rng.standard_normal((n, 3)))
        weights = T.tensor(rng.standard_normal((n, 3)))
        one, one_nodes, one_grads = self.run(T.relu_stack, x, layers, weights)
        ref, ref_nodes, ref_grads = self.run(per_layer_stack, x, layers, weights)
        if n == 1:
            assert _bits(one) == _bits(ref)
            assert [_bits(g) for g in one_grads] == [_bits(g) for g in ref_grads]
        for got, want in zip([one, *one_grads], [ref, *ref_grads]):
            assert_close(got, want)
        # three loss nodes, plus one stack node or 4 + 2 + 4 + 1 per-layer nodes
        assert (one_nodes, ref_nodes) == (3 + 1, 3 + 11)

    @pytest.mark.parametrize("n", [2, 9])
    def test_two_layers_against_finite_differences(self, n, rng):
        layers = stack_layers(rng, [3, 5, 2], [True, True])
        x = param(rng.standard_normal((n, 3)))
        tgt = rng.standard_normal((n, 2))
        assert fd_gradcheck(lambda: T.mse(T.relu_stack(x, layers), T.tensor(tgt)),
                            [x, *trainables(layers)]) < 1e-4

    @pytest.mark.parametrize("rows", ["random", "offset", "equal"])
    @pytest.mark.parametrize("n", [2, 3, 9, 45])
    def test_fold_against_long_double(self, n, rows, rng):
        """A folded layer's value and gradients against the unfolded layer
        in long double, on random rows, rows at 1e3 +- 1e-6 (the column sum
        far larger than the rows' spread) and equal rows. Both the folded
        and the per-layer stack stay within 13 rounding units of each
        array's scale over 200 draws, so the fold adds no cancellation;
        a cancelling form would lose digits by the thousand."""
        w, b = rng.standard_normal((2, 3, 4)), rng.standard_normal(4)
        h = {"random": rng.standard_normal((n, 3)),
             "offset": 1e3 + 1e-6 * rng.standard_normal((n, 3)),
             "equal": np.tile(rng.standard_normal(3), (n, 1))}[rows]
        g = rng.standard_normal((n, 4))
        x, ws, wn = param(h), param(w[0]), param(w[1])
        with Tape() as tape:
            out = T.relu_stack(x, [(ws, wn, T.tensor(b))])
            grads = backward(tape, T.sum_all(T.mul(out, T.tensor(g))))
        hl, wsl, wnl, gl = (a.astype(np.longdouble) for a in (h, w[0], w[1], g))
        ml, gn = (hl.sum(axis=0) - hl) / (n - 1), gl @ wnl.T
        want = {"out": hl @ wsl + ml @ wnl + b, "x": gl @ wsl.T + (gn.sum(axis=0) - gn) / (n - 1),
                "W": hl.T @ gl, "Wn": ml.T @ gl}
        got = {"out": out.data, "x": grads[x], "W": grads[ws], "Wn": grads[wn]}
        for key, ref in want.items():
            scale = float(np.max(np.abs(ref)))
            assert float(np.max(np.abs(got[key] - ref))) <= 32 * np.finfo(float).eps * scale, key

    def test_against_finite_differences(self, rng):
        layers = stack_layers(rng, [2, 4, 3, 2], [True, False, True])
        x = param(rng.standard_normal((5, 2)))
        tgt = rng.standard_normal((5, 2))
        assert fd_gradcheck(lambda: T.mse(T.relu_stack(x, layers), T.tensor(tgt)),
                            [x, *trainables(layers)]) < 1e-4

    def test_relu_ties_at_zero_pass_no_gradient(self):
        # layer 0 outputs exactly 0 at row 0, unit 0, and -0.0 at row 2, unit 1
        x = param(np.array([[1.0], [-1.0], [0.0]]))
        layers = [(param(np.array([[1.0, -1.0]])), None, param(np.array([-1.0, -0.0]))),
                  (param(np.array([[1.0], [1.0]])), None, param(np.array([-0.0])))]
        with Tape() as tape:
            out = T.relu_stack(x, layers)
            grads = backward(tape, T.sum_all(out))
        assert np.array_equal(out.data, [[0.0], [1.0], [0.0]])
        assert not np.any(np.signbit(out.data))
        # only row 1, unit 1 is above 0
        assert np.array_equal(grads[layers[0][0]], [[0.0, -1.0]])
        assert np.array_equal(grads[layers[0][2]], [0.0, 1.0])
        assert np.array_equal(grads[x], [[0.0], [-1.0], [0.0]])
        assert np.array_equal(grads[layers[1][0]], [[0.0], [1.0]])

    @pytest.mark.parametrize("nbr", [True, False])
    def test_nan_propagates(self, nbr, rng):
        layers = stack_layers(rng, [2, 4, 2], [nbr, False])
        x = param(rng.standard_normal((4, 2)))
        x.data[1, 0] = np.nan
        weights = T.tensor(rng.standard_normal((4, 2)))
        one, _, one_grads = self.run(T.relu_stack, x, layers, weights)
        ref, _, ref_grads = self.run(per_layer_stack, x, layers, weights)
        if not nbr:  # a dense stack: the same bits
            assert _bits(one) == _bits(ref)
            assert [_bits(g) for g in one_grads] == [_bits(g) for g in ref_grads]
        for got, want in zip([one, *one_grads], [ref, *ref_grads]):
            assert_close(got, want)
        # the neighbour mean carries row 1 into every row
        rows = np.isnan(one).any(axis=1)
        assert list(rows) == ([True] * 4 if nbr else [False, True, False, False])

    def test_backward_twice_on_one_tape(self, rng):
        layers = stack_layers(rng, [2, 3, 2], [True, True])
        x = T.tensor(rng.standard_normal((4, 2)))
        w = T.tensor(rng.standard_normal((4, 2)))
        with Tape() as tape:
            out = T.relu_stack(x, layers)
            plain, weighted = T.sum_all(out), T.sum_all(T.mul(out, w))
        first, second = backward(tape, plain), backward(tape, weighted)
        for loss, grads in ((lambda o: T.sum_all(o), first),
                            (lambda o: T.sum_all(T.mul(o, w)), second)):
            with Tape() as fresh:
                want = backward(fresh, loss(T.relu_stack(x, layers)))
            assert want.keys() == grads.keys()
            for p in want:
                assert np.array_equal(grads[p], want[p])

    def test_constant_input_gets_no_gradient(self, rng):
        layers = stack_layers(rng, [2, 3, 2], [True, False])
        x = T.tensor(rng.standard_normal((4, 2)))
        with Tape() as tape:
            grads = backward(tape, T.sum_all(T.relu_stack(x, layers)))
        assert len(tape) == 2
        assert set(grads) == set(trainables(layers))

    # each bad case and the message it raises
    SHAPE_ERRORS = {
        "x_width": "relu_stack layer 0 on (4, 3): W, Wn [(2, 3), (2, 3)], b (3,)",
        "inner_width": "relu_stack layer 1 on (4, 3): W, Wn [(4, 2), None], b (2,)",
        "nbr_shape": "relu_stack layer 0 on (4, 2): W, Wn [(2, 3), (2, 4)], b (3,)",
        "bias": "relu_stack layer 1 on (4, 3): W, Wn [(3, 2), None], b (3,)",
        "x_1d": "relu_stack expects rows of features, got shape (2,)",
        "no_self": "relu_stack layer 0 on (4, 2): W, Wn [None, (2, 3)], b (3,)",
    }

    @staticmethod
    def bad_stack(bad, rng):
        x = T.tensor(rng.standard_normal((4, 2)))
        layers = stack_layers(rng, [2, 3, 2], [True, False])
        if bad == "x_width":
            x = T.tensor(rng.standard_normal((4, 3)))
        elif bad == "inner_width":
            layers[1] = (param(np.ones((4, 2))), None, param(np.ones(2)))
        elif bad == "nbr_shape":
            layers[0] = (layers[0][0], param(np.ones((2, 4))), layers[0][2])
        elif bad == "bias":
            layers[1] = (layers[1][0], None, param(np.ones(3)))
        elif bad == "no_self":  # a complete-graph layer needs its W
            layers[0] = (None, layers[0][1], layers[0][2])
        else:
            x = T.tensor(np.ones(2))
        return x, layers

    @pytest.mark.parametrize("bad", ["x_width", "inner_width", "nbr_shape", "bias", "x_1d"])
    def test_shape_errors_are_typed(self, bad, rng):
        x, layers = self.bad_stack(bad, rng)
        with pytest.raises(ShapeMismatch):
            T.relu_stack(x, layers)

    @pytest.mark.parametrize("mode", sorted(BLOCKS))
    @pytest.mark.parametrize("bad", sorted(SHAPE_ERRORS))
    def test_shape_errors_in_every_mode(self, bad, mode, rng):
        x, layers = self.bad_stack(bad, rng)
        with BLOCKS[mode](), pytest.raises(ShapeMismatch) as err:
            T.relu_stack(x, layers)
        assert str(err.value) == self.SHAPE_ERRORS[bad]

    def test_no_layers(self, rng):
        with pytest.raises(T.EmptyInput):
            T.relu_stack(T.tensor(rng.standard_normal((3, 2))), [])


NINE_ATOMS = "CC(C)CC(=O)OCN"

# directed edges 0 -> 1, 0 -> 2, 1 -> 2, 3 -> 2: in-degrees differ, so the
# GCN matrix is not symmetric
DIRECTED = EdgeIndex([0, 0, 1, 3], [1, 2, 2, 2], 4)

GRAPHS = {
    "pair2": lambda: pair_node_edges(2),
    "pair4": lambda: pair_node_edges(4),
    "pair9": lambda: pair_node_edges(9),
    "molecule": lambda: molecular_edges(parse_smiles(NINE_ATOMS)),
    "directed": lambda: DIRECTED,
}

# the neighbour-mean path per layer: a ``prop`` stack's layers have none,
# since every layer propagates first
KINDS = {"gcn": [False] * 3}


class TestReluStack:
    """``relu_stack`` over a constant propagation matrix, with layers that
    propagate, then transform: the GCN stacks."""

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_same_bits_as_per_layer_nodes(self, graph, kind, rng):
        prop = GRAPHS[graph]().gcn_matrix
        n = prop.shape[0]
        layers = stack_layers(rng, [3, 8, 8, 3], KINDS[kind])
        x = param(rng.standard_normal((n, 3)))
        weights = T.tensor(rng.standard_normal((n, 3)))
        run = TestCompleteStack.run
        one, one_nodes, one_grads = run(partial(T.relu_stack, prop=prop), x, layers, weights)
        ref, ref_nodes, ref_grads = run(partial(per_layer_stack, prop=prop), x, layers, weights)
        assert _bits(one) == _bits(ref)
        assert [_bits(g) for g in one_grads] == [_bits(g) for g in ref_grads]
        # 8 per-layer nodes: 2 + 1 + 2 + 1 + 2
        assert (one_nodes, ref_nodes) == (3 + 1, 3 + 8)

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @pytest.mark.parametrize("graph", ["molecule", "directed"])
    def test_against_finite_differences(self, graph, kind, rng):
        prop = GRAPHS[graph]().gcn_matrix
        layers = stack_layers(rng, [2, 4, 3, 2], KINDS[kind])
        x = param(rng.standard_normal((prop.shape[0], 2)))
        tgt = rng.standard_normal((prop.shape[0], 2))
        assert fd_gradcheck(lambda: T.mse(T.relu_stack(x, layers, prop), T.tensor(tgt)),
                            [x, *trainables(layers)]) < 1e-4

    def test_backward_applies_the_transpose(self, rng):
        prop = DIRECTED.gcn_matrix
        assert not np.allclose(prop, prop.T)
        x = param(rng.standard_normal((4, 2)))
        weights = rng.standard_normal((4, 2))
        with Tape() as tape:
            out = T.relu_stack(x, [(T.tensor(np.eye(2)), None, T.tensor(np.zeros(2)))], prop)
            grads = backward(tape, T.sum_all(T.mul(out, T.tensor(weights))))
        assert np.array_equal(out.data, prop @ x.data)
        assert np.array_equal(grads[x], prop.T @ weights)
        assert not np.allclose(grads[x], prop @ weights)

    def test_attached_input_also_in_the_loss(self, rng):
        """x comes from a node on the tape and reaches the loss twice."""
        prop = GRAPHS["molecule"]().gcn_matrix
        layers = stack_layers(rng, [3, 8, 3], KINDS["gcn"])
        leaf = param(rng.standard_normal((prop.shape[0], 3)))
        weights = T.tensor(rng.standard_normal((prop.shape[0], 3)))

        def run(stack):
            with Tape() as tape:
                x = T.mul(leaf, 1.5)
                out = stack(x, layers, prop)
                grads = backward(tape, T.sum_all(T.mul(T.sub(out, x), weights)))
            return [_bits(out.data)] + [_bits(grads[p]) for p in [leaf, *trainables(layers)]]

        assert run(T.relu_stack) == run(per_layer_stack)

    def test_constant_input_records_one_node(self, rng):
        prop = GRAPHS["molecule"]().gcn_matrix
        layers = stack_layers(rng, [4, 3, 3], KINDS["gcn"])
        x = T.tensor(rng.standard_normal((prop.shape[0], 4)))
        with Tape() as tape:
            out = T.relu_stack(x, layers, prop)
        assert len(tape) == 1
        with Tape() as tape:
            grads = backward(tape, T.sum_all(T.relu_stack(x, layers, prop)))
        assert set(grads) == set(trainables(layers))
        assert _bits(T.relu_stack(x, layers, prop).data) == _bits(out.data)

    SHAPE_ERRORS = {
        "prop_rows": "relu_stack: prop (5, 5) for 4 rows",
        "prop_cols": "relu_stack: prop (4, 3) for 4 rows",
        "no_weights": "relu_stack layer 1 on (4, 3): W, Wn [None, None], b (2,)",
        "nbr_width": "relu_stack layer 1 on (4, 3): W, Wn [(4, 2), None], b (2,)",
        "no_w": "relu_stack layer 1 on (4, 3): W, Wn [None, (3, 2)], b (2,)",
        "prop_nbr": "relu_stack layer 1 on (4, 3): W, Wn [(3, 2), (3, 2)], b (2,)",
    }

    @staticmethod
    def bad_stack(bad, rng):
        x = T.tensor(rng.standard_normal((4, 2)))
        prop = DIRECTED.gcn_matrix
        layers = stack_layers(rng, [2, 3, 2], KINDS["gcn"])
        if bad == "prop_rows":
            prop = np.eye(5)
        elif bad == "prop_cols":
            prop = np.ones((4, 3))
        elif bad == "no_weights":
            layers[1] = (None, None, layers[1][2])
        elif bad == "nbr_width":  # the propagated input's W of the wrong width
            layers[1] = (param(np.ones((4, 2))), None, layers[1][2])
        elif bad == "no_w":
            layers[1] = (None, param(np.ones((3, 2))), layers[1][2])
        else:  # a Wn on a prop stack
            layers[1] = (layers[1][0], param(np.ones((3, 2))), layers[1][2])
        return x, layers, prop

    @pytest.mark.parametrize("bad", ["prop_rows", "prop_cols", "no_weights", "nbr_width"])
    def test_shape_errors_are_typed(self, bad, rng):
        x, layers, prop = self.bad_stack(bad, rng)
        with pytest.raises(ShapeMismatch):
            T.relu_stack(x, layers, prop)

    @pytest.mark.parametrize("mode", sorted(BLOCKS))
    @pytest.mark.parametrize("bad", sorted(SHAPE_ERRORS))
    def test_shape_errors_in_every_mode(self, bad, mode, rng):
        x, layers, prop = self.bad_stack(bad, rng)
        with BLOCKS[mode](), pytest.raises(ShapeMismatch) as err:
            T.relu_stack(x, layers, prop)
        assert str(err.value) == self.SHAPE_ERRORS[bad]


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

    @pytest.mark.parametrize("meta, name", [
        (b"{x}", b"x"),             # meta that is not JSON
        (b"{}", b"\xff\xfe"),       # a parameter name that is not UTF-8
        (b"[1,2]", b"x"),           # JSON meta that is no object
    ], ids=["meta-not-json", "name-not-utf8", "meta-not-object"])
    def test_malformed_file_is_a_checkpoint_error(self, meta, name, tmp_path):
        path = tmp_path / "model.mdl1"
        scalar = struct.pack("<II", len(name), 0) + np.float64(1.0).tobytes()
        path.write_bytes(b"MDL1" + struct.pack("<I", len(meta)) + meta
                         + scalar[:4] + name + scalar[4:])
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_params(path)
