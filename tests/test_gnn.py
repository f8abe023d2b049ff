"""Layers: aggregation arithmetic, equivariance, invariances, time encodings."""

import numpy as np
import pytest

from moldiff.diffcore import tensor as T
from moldiff.flows import GnnRestorer
from moldiff.gnn import (
    EgnnNet,
    FlowFieldNet,
    GcnStack,
    GraphMismatch,
    GraphConvLayer,
    Mlp,
    Module,
    PnaLayer,
    TIME_FREQS,
    TooFewPoints,
    ZeroNodes,
    complete_graph_edges,
    edges_from_pairs,
    egnn_distance_features,
    pair_edges,
    pair_indices,
    pair_node_edges,
    pair_slots,
    symmetric_pair_logits,
    time_features,
)

from conftest import assert_close, general_pair_logits, per_layer_stack, seeded_sum


def random_orthogonal(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q


class TestCompleteGraph:
    def test_counts_without_loops(self):
        e = complete_graph_edges(3)
        assert len(e) == 6
        assert set(zip(e.src.tolist(), e.dst.tolist())) == {
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)}

    def test_single_node_has_no_edges(self):
        assert len(complete_graph_edges(1)) == 0

    def test_nine_nodes_count(self):
        e = complete_graph_edges(9)
        assert len(e) == 72
        assert not np.any(e.src == e.dst)

    def test_zero_nodes(self):
        with pytest.raises(ZeroNodes):
            complete_graph_edges(0)


class TestPairNodeGraph:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_explicit_construction(self, n):
        # atom i and j each link both ways to the node n + k of pair k = (i, j)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        src = ([i for i, _ in pairs] + [j for _, j in pairs]
               + [n + k for k in range(len(pairs))] * 2)
        dst = ([n + k for k in range(len(pairs))] * 2
               + [i for i, _ in pairs] + [j for _, j in pairs])
        e = pair_node_edges(n)
        assert e.n == n + len(pairs)
        assert e.src.tolist() == src and e.dst.tolist() == dst
        assert e.src.dtype == e.dst.dtype == np.intp
        assert list(zip(*(a.tolist() for a in pair_indices(n)))) == pairs

    @pytest.mark.parametrize("n", range(1, 10))
    def test_pair_slots_invert_pair_indices(self, n):
        slots = pair_slots(n)
        i_idx, j_idx = pair_indices(n)
        k = np.arange(len(i_idx))
        assert np.array_equal(slots[i_idx, j_idx], k)
        assert np.array_equal(slots[j_idx, i_idx], k)
        assert np.array_equal(np.diag(slots), np.full(n, -1))
        assert slots.dtype == np.intp and pair_slots(n) is slots


class TestPairHead:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_pair_edges_is_edges_from_pairs(self, n):
        e = pair_edges(n)
        want = edges_from_pairs(n, list(zip(*(a.tolist() for a in pair_indices(n)))))
        assert e.n == want.n == n
        assert e.src.tolist() == want.src.tolist() and e.dst.tolist() == want.dst.tolist()
        assert e.src.dtype == e.dst.dtype == np.intp
        assert pair_edges(n) is e

    @staticmethod
    def two_pass(mlp, h, pairs):
        """Both orientations through the MLP separately, then averaged."""
        i_idx = [a for a, _ in pairs]
        j_idx = [b for _, b in pairs]
        fwd = np.concatenate([h[i_idx], h[j_idx]], axis=1)
        rev = np.concatenate([h[j_idx], h[i_idx]], axis=1)
        return 0.5 * (mlp(T.tensor(fwd)).data + mlp(T.tensor(rev)).data)

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_matches_two_pass_average(self, n, rng):
        mlp = Mlp([8, 16, 3], rng)
        h = rng.standard_normal((n, 4))
        e = pair_edges(n)
        got = symmetric_pair_logits(mlp, T.tensor(h), e).data
        want = self.two_pass(mlp, h, list(zip(*pair_indices(n))))
        assert got.shape == (n * (n - 1) // 2, 3)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_unchanged_when_ends_swap(self, rng):
        mlp = Mlp([8, 16, 3], rng)
        h = T.tensor(rng.standard_normal((6, 4)))
        pairs = [(0, 1), (4, 2), (3, 5), (1, 4)]
        got = symmetric_pair_logits(mlp, h, edges_from_pairs(6, pairs)).data
        swapped = symmetric_pair_logits(
            mlp, h, edges_from_pairs(6, [(b, a) for a, b in pairs])).data
        assert np.max(np.abs(got - swapped)) <= 1e-12 * np.max(np.abs(got))

    def test_gradient_matches_two_pass(self, rng):
        mlp = Mlp([8, 16, 3], rng)
        h = T.param(rng.standard_normal((5, 4)))
        pairs = [(0, 1), (1, 2), (2, 4), (0, 3)]
        weights = T.tensor(rng.standard_normal((len(pairs), 3)))
        with T.Tape() as tape:
            out = symmetric_pair_logits(mlp, h, edges_from_pairs(5, pairs))
            got = T.backward(tape, seeded_sum(out, weights))[h]
        i_idx = T.SegmentPlan([a for a, _ in pairs], 5)
        j_idx = T.SegmentPlan([b for _, b in pairs], 5)
        with T.Tape() as tape:
            hi, hj = T.gather_rows(h, i_idx), T.gather_rows(h, j_idx)
            two = T.mul(T.add(mlp(T.concat([hi, hj], axis=1)),
                              mlp(T.concat([hj, hi], axis=1))), 0.5)
            want = T.backward(tape, seeded_sum(two, weights))[h]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    # the decoder's head on a cloud of n rows: 4-wide rows, Mlp([8, 32, 1])
    @pytest.mark.parametrize("n", [2, 9])
    def test_same_bits_as_general_ops(self, n, rng):
        mlp = Mlp([8, 32, 1], rng)
        h = T.param(rng.standard_normal((n, 4)))
        e = pair_edges(n)
        weights = rng.standard_normal((len(e) // 2, 1))
        params = [h, *(p for _, p in mlp.named_params())]
        got = []
        for head in (symmetric_pair_logits, general_pair_logits):
            with T.Tape() as tape:
                out = head(mlp, h, e)
                grads = T.backward(tape, seeded_sum(out, weights))
                # the head's nodes, then the seeded sum
                assert len(tape) - 1 == (3 if head is symmetric_pair_logits else 8)
            got.append([out.data.tobytes(), *(grads[p].tobytes() for p in params)])
        assert got[0] == got[1]

    def test_batch_entries_as_alone(self, rng):
        mlp = Mlp([8, 16, 3], rng)
        h = rng.standard_normal((3, 6, 4))
        e = pair_edges(6)
        whole = symmetric_pair_logits(mlp, T.tensor(h), e).data
        assert whole.shape == (3, 15, 3)
        for b in range(3):
            assert whole[b].tobytes() == symmetric_pair_logits(mlp, T.tensor(h[b]), e).data.tobytes()


class TestPna:
    @staticmethod
    def readback_layer(rng):
        """Width-1 layer whose output is [mean, min, max, std, log(d + 1)]:
        rows 1-4 of W carry the aggregates, row 5 the degree column."""
        lay = PnaLayer(1, 5, rng)
        lay.W.data = np.zeros((6, 5))
        lay.W.data[1:, :] = np.eye(5)
        lay.b.data[:] = 0.0
        return lay

    def test_aggregate_arithmetic(self, rng):
        # node 0 receives scalars {1, 3}: mean 2, min 1, max 3, std 1
        lay = self.readback_layer(rng)
        x = T.tensor(np.array([[0.0], [1.0], [3.0]]))
        e = edges_from_pairs(3, [(0, 1), (0, 2)])
        out = lay(x, e).data
        assert np.allclose(out[0], [2.0, 1.0, 3.0, 1.0, np.log(3.0)])

    def test_single_neighbor_zero_std(self, rng):
        lay = self.readback_layer(rng)
        x = T.tensor(np.array([[0.0], [5.0]]))
        e = edges_from_pairs(2, [(0, 1)])
        assert np.allclose(lay(x, e).data[0], [5.0, 5.0, 5.0, 0.0, np.log(2.0)])

    def test_isolated_node_aggregates_zero(self, rng):
        lay = PnaLayer(2, 3, rng)
        x = T.tensor(rng.standard_normal((3, 2)))
        e = edges_from_pairs(3, [(0, 1)])
        out = lay(x, e).data
        expected = x.data[2] @ lay.W.data[:2] + lay.b.data
        assert np.allclose(out[2], expected)

    def test_permutation_equivariance(self, rng):
        lay = PnaLayer(3, 2, rng)
        x = rng.standard_normal((6, 3))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)]
        out = lay(T.tensor(x), edges_from_pairs(6, pairs)).data
        perm = rng.permutation(6)
        px = x[np.argsort(perm)]
        ppairs = [(perm[a], perm[b]) for a, b in pairs]
        pout = lay(T.tensor(px), edges_from_pairs(6, ppairs)).data
        assert np.allclose(pout, out[np.argsort(perm)])

    def test_edge_order_independence(self, rng):
        lay = PnaLayer(2, 2, rng)
        x = T.tensor(rng.standard_normal((5, 2)))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        out1 = lay(x, edges_from_pairs(5, pairs)).data
        out2 = lay(x, edges_from_pairs(5, pairs[::-1])).data
        assert np.allclose(out1, out2)

    def test_width_mismatch(self, rng):
        lay = PnaLayer(3, 2, rng)
        with pytest.raises(T.ShapeMismatch):
            lay(T.tensor(np.zeros((2, 4))), edges_from_pairs(2, [(0, 1)]))


def pna_reference(x, g, e):
    """Per-node loops over the messages x[src] arriving at each node, in
    edge order: the value [x, mean, min, max, std, log(d + 1)] and the
    gradient of sum(g * value) with respect to x."""
    n, w = x.shape
    out = np.zeros((n, 5 * w + 1))
    dx = g[:, :w].copy()
    for i in range(n):
        edges = [k for k in range(len(e)) if e.dst[k] == i]
        out[i, :w] = x[i]
        out[i, 5 * w] = np.log(len(edges) + 1.0)
        if not edges:
            continue
        msgs = np.array([x[e.src[k]] for k in edges])
        mean = msgs.mean(axis=0)
        std = np.sqrt(((msgs - mean) ** 2).mean(axis=0))
        out[i, w:5 * w] = np.concatenate([mean, msgs.min(axis=0), msgs.max(axis=0), std])
        g_mean, g_min, g_max, g_std = (g[i, (1 + s) * w:(2 + s) * w] for s in range(4))
        for c in range(w):
            first_min = next(r for r in range(len(edges)) if msgs[r, c] == msgs[:, c].min())
            first_max = next(r for r in range(len(edges)) if msgs[r, c] == msgs[:, c].max())
            live = std[c] > 1e-12 * (1.0 + abs(mean[c]))
            for r, k in enumerate(edges):
                d = g_mean[c] / len(edges)
                d += g_min[c] * (r == first_min) + g_max[c] * (r == first_max)
                if live:
                    d += g_std[c] * (msgs[r, c] - mean[c]) / (len(edges) * std[c])
                dx[e.src[k], c] += d
    return out, dx


def pna_taped(x, g, e):
    xt = T.param(x)
    with T.Tape() as tape:
        out = T.pna_aggregate(xt, e.src_plan, e.dst_plan)
        grads = T.backward(tape, seeded_sum(out, g))
    assert len(tape) == 2
    return out.data, grads[xt]


def molecular_graph():
    return edges_from_pairs(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (2, 6)])


class TestPnaAggregate:
    @pytest.mark.parametrize("graph", ["complete1", "complete2", "complete9", "molecule",
                                       "pair_node4"])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_message_passing_reference(self, graph, ties, rng):
        e = {"complete1": complete_graph_edges(1), "complete2": complete_graph_edges(2),
             "complete9": complete_graph_edges(9), "molecule": molecular_graph(),
             "pair_node4": pair_node_edges(4)}[graph]
        x = rng.standard_normal((e.n, 3))
        if ties:  # relu outputs: many exact zeros, so tied extremes
            x = np.maximum(np.round(x), 0.0)
        g = rng.standard_normal((e.n, 16))
        got, got_grad = pna_taped(x, g, e)
        want, want_grad = pna_reference(x, g, e)
        assert np.max(np.abs(got - want)) <= 1e-12
        assert np.max(np.abs(got_grad - want_grad)) <= 1e-12

    @pytest.mark.parametrize("pairs, winner", [([(0, 1), (0, 2), (0, 3)], 1),
                                               ([(0, 3), (0, 2), (0, 1)], 3)])
    def test_tied_extremes_send_gradient_to_first_edge(self, pairs, winner):
        # node 0 hears three equal messages; min and max each pick the first
        x = np.array([[5.0], [2.0], [2.0], [2.0]])
        g = np.zeros((4, 6))
        g[0, 2] = 1.0
        g[0, 3] = 10.0
        _, grad = pna_taped(x, g, edges_from_pairs(4, pairs))
        want = np.zeros((4, 1))
        want[winner] = 11.0
        assert np.array_equal(grad, want)

    @pytest.mark.parametrize("value", [1.0, 0.1])
    def test_zero_variance_has_zero_std_gradient(self, value):
        # three copies of 0.1 have a mean off by one rounding step and a
        # ~1e-17 std; the std column must still pass no gradient
        x = np.full((4, 1), value)
        g = np.zeros((4, 6))
        g[0, 4] = 1.0
        out, grad = pna_taped(x, g, edges_from_pairs(4, [(0, 1), (0, 2), (0, 3)]))
        assert out[0, 4] < 1e-15
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("e", [edges_from_pairs(4, [(0, 1)]), edges_from_pairs(3, [])],
                             ids=["isolated", "no_edges"])
    def test_empty_segments_give_zeros(self, e, rng):
        x = rng.standard_normal((e.n, 2)) + 3.0
        g = rng.standard_normal((e.n, 11))
        out, grad = pna_taped(x, g, e)
        empty = e.dst_plan.counts == 0
        assert np.all(out[empty, 2:10] == 0.0)
        assert np.array_equal(out[:, :2], x)
        want_grad = pna_reference(x, g, e)[1]
        assert np.max(np.abs(grad - want_grad)) <= 1e-12


class TestGcnMatrix:
    @pytest.mark.parametrize("e", [molecular_graph(), pair_node_edges(3), edges_from_pairs(3, [])],
                             ids=["molecule", "pair_node3", "no_edges"])
    def test_equals_formula(self, e):
        a = np.zeros((e.n, e.n))
        for s, d in zip(e.src, e.dst):
            a[d, s] += 1.0
        a_hat = a + np.eye(e.n)
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
        want = d_inv_sqrt @ a_hat @ d_inv_sqrt
        assert np.max(np.abs(e.gcn_matrix - want)) <= 1e-15


class TestGcn:
    """One-layer GCN stacks: ``(gcn_matrix @ x) @ W + b``."""

    @staticmethod
    def identity_stack(rng, width):
        stack = GcnStack([width, width], rng)
        stack.layers[0].W.data = np.eye(width)
        stack.layers[0].b.data[:] = 0.0
        return stack

    def test_identity_on_isolated_node(self, rng):
        stack = self.identity_stack(rng, 2)
        x = np.array([[1.5, -2.0]])
        out = stack(T.tensor(x), edges_from_pairs(1, []))
        assert np.allclose(out.data, x)

    def test_two_node_hand_computed(self, rng):
        # D^{-1/2}(A+I)D^{-1/2} for a single edge: every entry is 1/2
        stack = self.identity_stack(rng, 2)
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = stack(T.tensor(x), edges_from_pairs(2, [(0, 1)])).data
        expected = np.array([[0.5, 0.5], [0.5, 0.5]]) @ x
        assert np.allclose(out, expected)

    def test_equivariance(self, rng):
        stack = GcnStack([3, 3], rng)
        x = rng.standard_normal((5, 3))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        out = stack(T.tensor(x), edges_from_pairs(5, pairs)).data
        perm = rng.permutation(5)
        px = x[np.argsort(perm)]
        ppairs = [(perm[a], perm[b]) for a, b in pairs]
        pout = stack(T.tensor(px), edges_from_pairs(5, ppairs)).data
        assert np.allclose(pout, out[np.argsort(perm)])

    def test_graph_argument_is_typed(self, rng):
        x = T.tensor(rng.standard_normal((3, 2)))
        e = edges_from_pairs(3, [(0, 1)])
        with pytest.raises(GraphMismatch):
            GcnStack([2, 4, 2], rng)(x)
        with pytest.raises(GraphMismatch):
            GcnStack([2, 4, 2], rng, conv="graph")(x, e)


class TestGraphConv:
    def test_no_collapse_on_complete_graph(self, rng):
        # the motivating property: distinct inputs stay distinct
        lay = GraphConvLayer(3, 3, rng)
        x = rng.standard_normal((5, 3))
        out = lay(T.tensor(x)).data
        assert np.std(out, axis=0).max() > 1e-3

    def test_equivariance(self, rng):
        lay = GraphConvLayer(2, 4, rng)
        x = rng.standard_normal((6, 2))
        out = lay(T.tensor(x)).data
        perm = rng.permutation(6)
        pout = lay(T.tensor(x[np.argsort(perm)])).data
        assert np.allclose(pout, out[np.argsort(perm)])


    @pytest.mark.parametrize("n", [1, 2, 9, 45])
    def test_complete_mean_matches_message_passing(self, n, rng):
        """A graph-conv stack, whose neighbour means are the closed form,
        against one that gathers every message and averages it, in value
        and in the gradients of x and of every parameter."""
        e = complete_graph_edges(n)
        stack = GcnStack([3, 8, 8, 3], rng, conv="graph")
        x = T.param(rng.standard_normal((n, 3)) * 10.0)
        weights = T.tensor(rng.standard_normal((n, 3)))
        params = [x] + [p for _, p in stack.named_params()]

        def message_passing(h):
            for i, layer in enumerate(stack.layers):
                mean = T.segment_mean(T.gather_rows(h, e.src_plan), e.dst_plan)
                h = T.add(T.affine(h, layer.W_self, layer.b), T.matmul(mean, layer.W_nbr))
                if i < len(stack.layers) - 1:
                    h = T.relu(h)
            return h

        def run(net):
            with T.Tape() as tape:
                out = net(x)
                grads = T.backward(tape, seeded_sum(out, weights))
            return out.data, [grads[p] for p in params]

        got, got_grads = run(stack)
        want, want_grads = run(message_passing)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        for g, w in zip(got_grads, want_grads):
            assert np.max(np.abs(g - w)) <= 1e-12 * max(np.max(np.abs(w)), 1.0)

    def test_batch_entries_as_alone(self, rng):
        """Off the tape a (B, n, w) batch runs each entry as that graph
        alone, and the width check reads the feature axis."""
        lay = GraphConvLayer(3, 4, rng)
        x = rng.standard_normal((5, 6, 3))
        whole = lay(T.tensor(x)).data
        for b in range(5):
            assert whole[b].tobytes() == lay(T.tensor(x[b])).data.tobytes()
        with pytest.raises(T.ShapeMismatch):
            lay(T.tensor(rng.standard_normal((5, 3, 4))))

    def test_matches_message_passing_layer(self, rng):
        lay = GraphConvLayer(3, 4, rng)
        x = rng.standard_normal((7, 3))
        e = complete_graph_edges(7)
        mean = T.segment_mean(T.gather_rows(T.tensor(x), e.src_plan), e.dst_plan).data
        want = x @ lay.W_self.data + mean @ lay.W_nbr.data + lay.b.data
        assert np.allclose(lay(T.tensor(x)).data, want, rtol=0.0, atol=1e-12)


    def test_width_mismatch(self, rng):
        x = T.tensor(rng.standard_normal((4, 2)))
        with pytest.raises(T.ShapeMismatch):
            GraphConvLayer(3, 4, rng)(x)
        with pytest.raises(T.ShapeMismatch):
            GcnStack([3, 4, 3], rng, conv="graph")(x)
        with pytest.raises(T.ShapeMismatch):
            FlowFieldNet(3, rng, hidden=4, hidden_layers=1)(x, 0.5)


class TestDistanceFeatures:
    def test_three_four_five(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = egnn_distance_features(pts).data
        assert out.shape == (1, 2)
        assert out[0, 0] == pytest.approx(5.0)
        assert out[0, 1] == pytest.approx(25.0)

    def test_identical_points(self):
        pts = np.zeros((2, 3))
        out = egnn_distance_features(pts).data
        assert np.all(out == 0.0)

    def test_rigid_motion_invariance(self, rng):
        pts = rng.standard_normal((6, 4))
        base = egnn_distance_features(pts).data
        q = random_orthogonal(rng, 4)
        moved = pts @ q.T + rng.standard_normal(4)
        assert np.max(np.abs(egnn_distance_features(moved).data - base)) < 1e-9

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            egnn_distance_features(np.zeros((1, 2)))


class TestTimeEncoding:
    def test_sinusoidal_at_zero(self):
        assert np.array_equal(time_features(0.0), [0.0, 1.0] * 4)

    def test_sinusoidal_bounded(self):
        for t in np.linspace(0, 1, 17):
            assert np.max(np.abs(time_features(t))) <= 1.0

    def test_same_bits_as_the_four_pair_formula(self):
        """The formula of the four-pair encoding at t / 1.0."""
        omega = np.array([8.0 ** (i / (4 - 1)) for i in range(4)])
        for t in (0.0, 0.37, 1.0):
            want = np.empty(8)
            want[0::2] = np.sin(t / 1.0 * omega)
            want[1::2] = np.cos(t / 1.0 * omega)
            assert time_features(t).tobytes() == want.tobytes()

    def test_flow_field_frequencies(self):
        """The velocity net's features run at 1, 2, 4 and 8 rad per unit time."""
        assert np.allclose(TIME_FREQS, [1.0, 2.0, 4.0, 8.0], rtol=1e-15, atol=0)


class TestNets:
    def test_mlp_shapes_and_relu(self, rng):
        mlp = Mlp([3, 8, 2], rng)
        out = mlp(T.tensor(rng.standard_normal((5, 3))))
        assert out.data.shape == (5, 2)

    def test_gcn_stack_depth(self, rng):
        stack = GcnStack([4, 8, 8, 4], rng)
        assert len(stack.layers) == 3
        out = stack(T.tensor(rng.standard_normal((3, 4))), complete_graph_edges(3))
        assert out.data.shape == (3, 4)

    def test_flow_field_velocity_shape(self, rng):
        net = FlowFieldNet(4, rng, hidden=8, hidden_layers=2)
        v = net.velocity(0.3, rng.standard_normal((5, 4)))
        assert v.shape == (5, 4)

    def test_egnn_net_rotation_equivariance(self, rng):
        net = EgnnNet(rng, hidden=8, layers=2)
        x = rng.standard_normal((5, 3))
        out = net(T.tensor(x), 0.5).data
        q = random_orthogonal(rng, 3)
        rotated = net(T.tensor(x @ q.T), 0.5).data
        assert np.max(np.abs(rotated - out @ q.T)) < 1e-8

    def test_flow_field_same_bits_as_tiled_features(self, rng):
        net = FlowFieldNet(3, rng, hidden=8, hidden_layers=2)
        x = rng.standard_normal((5, 3))
        feat = T.tensor(np.concatenate([x, np.tile(time_features(0.3), (5, 1))], axis=1))
        h = T.relu(net.entry(feat))
        for layer in net.hidden:
            h = T.relu(layer(h))
        assert np.array_equal(net.velocity(0.3, x), net.out(h).data)

    @pytest.mark.parametrize("net", ["mlp", "gcn", "graph"])
    def test_stack_same_bits_as_per_layer_nodes(self, net, rng):
        """Each stack is one node. Its value and the gradients of x and of
        every parameter have the bits of per-layer nodes, or, where
        complete-graph layers fold, match them to rounding."""
        e = pair_node_edges(4)
        if net == "mlp":
            stack, args, prop = Mlp([3, 8, 8, 3], rng), (), None
        elif net == "gcn":
            stack, args, prop = GcnStack([3, 8, 8, 3], rng), (e,), e.gcn_matrix
        else:
            stack, args, prop = GcnStack([3, 8, 8, 3], rng, conv="graph"), (), None
        x = T.param(rng.standard_normal((e.n, 3)))
        weights = T.tensor(rng.standard_normal((e.n, 3)))
        params = [x] + [p for _, p in stack.named_params()]

        def run(fn):
            with T.Tape() as tape:
                out = fn(x)
                grads = T.backward(tape, seeded_sum(out, weights))
            return len(tape), [out.data] + [grads[p] for p in params]

        nodes, got = run(lambda x: stack(x, *args))
        _, want = run(lambda x: per_layer_stack(x, [lay.spec for lay in stack.layers], prop))
        assert nodes == 2
        if net == "graph":
            for a, b in zip(got, want):
                assert_close(a, b)
        else:
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]

    @staticmethod
    def input_gradient(run, x, weights):
        """run(x)'s value and the gradient of sum(run(x) * weights) in x."""
        with T.Tape() as tape:
            out = run(x)
            grads = T.backward(tape, seeded_sum(out, weights))
        return out.data, grads[x]

    @staticmethod
    def assert_matches(got, want, n):
        """The same bits on one row; with more rows the entry layer folds
        and matches to rounding."""
        for a, b in zip(got, want):
            if n == 1:
                assert a.tobytes() == b.tobytes()
            assert_close(a, b)

    @pytest.mark.parametrize("n", [1, 2, 9, 45])
    def test_flow_field_trainable_input_gradient(self, n, rng):
        """One stack node against per-layer nodes."""
        net = FlowFieldNet(3, rng, hidden=8, hidden_layers=2)
        x = T.param(rng.standard_normal((n, 3)))
        weights = T.tensor(rng.standard_normal((n, 3)))

        def layer_by_layer(x):
            feat = T.concat([x, T.tensor(np.tile(time_features(0.3), (n, 1)))], axis=1)
            layers = [net.entry, *net.hidden, net.out]
            return per_layer_stack(feat, [layer.spec for layer in layers])

        self.assert_matches(self.input_gradient(lambda x: net(x, 0.3), x, weights),
                            self.input_gradient(layer_by_layer, x, weights), n)

    @pytest.mark.parametrize("n", [1, 2, 9, 45])
    def test_predict_noise_trainable_input_gradient(self, n, rng):
        """x reaches the loss through the stack and through the residual;
        both sum in the order of per-layer nodes, to the same bits on one
        row and to rounding on more."""
        restorer = GnnRestorer(2, rng)
        x = T.param(rng.standard_normal((n, 2)))
        weights = T.tensor(rng.standard_normal((n, 2)))

        def layer_by_layer(x):
            s = T.concat([x, T.tensor(np.full((n, 1), 17 / 50))], axis=1)
            h = per_layer_stack(s, [layer.spec for layer in restorer.net.layers])
            return T.narrow(T.sub(h, s), -1, 0, 2)

        self.assert_matches(
            self.input_gradient(lambda x: restorer.predict_noise(x, 17, 50), x, weights),
            self.input_gradient(layer_by_layer, x, weights), n)

    @staticmethod
    def unit_weight_egnn(rng, layers):
        """EGNN whose coordinate heads output weight 1 on every pair."""
        net = EgnnNet(rng, hidden=8, layers=layers)
        for mlp in net.coord_mlps:
            mlp.layers[-1].W.data[:] = 0.0
            mlp.layers[-1].b.data[:] = 1.0
        return net

    def test_egnn_moves_along_normalised_differences(self, rng):
        net = self.unit_weight_egnn(rng, layers=1)
        x = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = net(T.tensor(x), 0.5).data
        step = (x[0] - x[1]) / (5.0 + 1.0)
        assert np.allclose(out, [step, -step], rtol=0.0, atol=1e-15)

    def test_egnn_displacement_bounded_by_weights(self, rng):
        # each layer moves a point by less than its largest pair weight, here
        # 1, however far apart the points are
        net = self.unit_weight_egnn(rng, layers=3)
        x = rng.standard_normal((6, 2)) * 1e4
        out = net(T.tensor(x), 0.5).data
        assert np.max(np.linalg.norm(out, axis=1)) < 3.0

    def test_egnn_net_single_point_zero(self, rng):
        net = EgnnNet(rng, hidden=8, layers=2)
        out = net(T.tensor(np.ones((1, 3))), 0.5).data
        assert np.all(out == 0.0)


class _Part(Module):
    def __init__(self, name: str):
        self.w = T.param(np.zeros(1), name=f"{name}.w")


class _Toy(Module):
    def __init__(self):
        self.a = T.param(np.zeros(2), name="a")
        self.const = T.tensor(np.ones(2))
        self.nested = [[_Part("n0"), T.param(np.zeros(1), name="n1")],
                       (T.param(np.zeros(1), name="t0"),)]
        self.again = self.a
        self.lookup = {"d": T.param(np.zeros(1), name="d")}
        self.pair = (_Part("p"), self.nested[0][0])
        self.z = T.param(np.zeros(1), name="z")


def test_module_walk_lists_each_trainable_tensor_once_in_assignment_order():
    toy = _Toy()
    params = toy.named_params()
    assert [name for name, _ in params] == ["a", "n0.w", "n1", "t0", "p.w", "z"]
    assert params[0][1] is toy.a and params[1][1] is toy.nested[0][0].w
