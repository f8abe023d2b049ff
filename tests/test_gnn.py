"""Layers: aggregation arithmetic, equivariance, invariances, time encodings."""

import numpy as np
import pytest

from moldiff.diffcore import tensor as T
from moldiff.gnn import (
    Dense,
    EgnnNet,
    FlowFieldNet,
    GcnLayer,
    GcnStack,
    GraphConvLayer,
    Mlp,
    OutOfRange,
    PnaLayer,
    TimeEncoding,
    TooFewPoints,
    WidthMismatch,
    ZeroNodes,
    complete_graph_edges,
    edges_from_pairs,
    egnn_distance_features,
    pair_edges,
    pair_indices,
    pair_node_edges,
    symmetric_pair_logits,
    time_encode,
)


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
            got = T.backward(tape, T.sum_all(T.mul(out, weights)))[h]
        i_idx = T.SegmentPlan([a for a, _ in pairs], 5)
        j_idx = T.SegmentPlan([b for _, b in pairs], 5)
        with T.Tape() as tape:
            hi, hj = T.gather_rows(h, i_idx), T.gather_rows(h, j_idx)
            two = T.mul(T.add(mlp(T.concat([hi, hj], axis=1)),
                              mlp(T.concat([hj, hi], axis=1))), 0.5)
            want = T.backward(tape, T.sum_all(T.mul(two, weights)))[h]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
        with pytest.raises(WidthMismatch):
            lay(T.tensor(np.zeros((2, 4))), edges_from_pairs(2, [(0, 1)]))


class TestGcn:
    def test_identity_on_isolated_node(self, rng):
        lay = GcnLayer(2, 2, rng)
        lay.W.data = np.eye(2)
        lay.b.data[:] = 0.0
        x = np.array([[1.5, -2.0]])
        out = lay(T.tensor(x), edges_from_pairs(1, []))
        assert np.allclose(out.data, x)

    def test_two_node_hand_computed(self, rng):
        # D^{-1/2}(A+I)D^{-1/2} for a single edge: every entry is 1/2
        lay = GcnLayer(2, 2, rng)
        lay.W.data = np.eye(2)
        lay.b.data[:] = 0.0
        x = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = lay(T.tensor(x), edges_from_pairs(2, [(0, 1)])).data
        expected = np.array([[0.5, 0.5], [0.5, 0.5]]) @ x
        assert np.allclose(out, expected)

    def test_equivariance(self, rng):
        lay = GcnLayer(3, 3, rng)
        x = rng.standard_normal((5, 3))
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4)]
        out = lay(T.tensor(x), edges_from_pairs(5, pairs)).data
        perm = rng.permutation(5)
        px = x[np.argsort(perm)]
        ppairs = [(perm[a], perm[b]) for a, b in pairs]
        pout = lay(T.tensor(px), edges_from_pairs(5, ppairs)).data
        assert np.allclose(pout, out[np.argsort(perm)])


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
        """The closed form against gathering every message and averaging."""
        e = complete_graph_edges(n)
        x = T.param(rng.standard_normal((n, 3)) * 10.0)
        weights = T.tensor(rng.standard_normal((n, 3)))

        def run(mean):
            with T.Tape() as tape:
                out = mean()
                grads = T.backward(tape, T.sum_all(T.mul(out, weights)))
            return out.data, grads[x]

        got, got_grad = run(lambda: T.complete_mean(x))
        want, want_grad = run(
            lambda: T.segment_mean(T.gather_rows(x, e.src_plan), e.dst_plan))
        scale = np.max(np.abs(x.data))
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        assert np.max(np.abs(got_grad - want_grad)) <= 1e-12 * np.max(np.abs(weights.data))
        if n == 1:
            assert np.array_equal(got, np.zeros((1, 3)))

    def test_matches_message_passing_layer(self, rng):
        lay = GraphConvLayer(3, 4, rng)
        x = rng.standard_normal((7, 3))
        e = complete_graph_edges(7)
        mean = T.segment_mean(T.gather_rows(T.tensor(x), e.src_plan), e.dst_plan).data
        want = x @ lay.W_self.data + mean @ lay.W_nbr.data + lay.b.data
        assert np.allclose(lay(T.tensor(x)).data, want, rtol=0.0, atol=1e-12)


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
        enc = TimeEncoding(pairs=3)
        out = time_encode(0, 1.0, enc)
        assert np.allclose(out, [0.0, 1.0] * 3)

    def test_sinusoidal_bounded(self):
        enc = TimeEncoding(pairs=4)
        for t in np.linspace(0, 1, 17):
            assert np.max(np.abs(time_encode(t, 1.0, enc))) <= 1.0

    @pytest.mark.parametrize("pairs", [1, 3, 4])
    def test_same_bits_as_per_call_formula(self, pairs):
        def reference(t, total, k):
            omega = np.array([1000.0 ** (i / (k - 1)) if k > 1 else 1.0
                              for i in range(k)])
            out = np.empty(2 * k)
            out[0::2] = np.sin(t / total * omega)
            out[1::2] = np.cos(t / total * omega)
            return out

        enc = TimeEncoding(pairs=pairs)
        for t, total in [(0.0, 1.0), (0.37, 1.0), (1.0, 1.0), (17, 50), (50, 50)]:
            assert np.array_equal(time_encode(t, total, enc), reference(t, total, pairs))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            time_encode(51, 50, TimeEncoding())
        with pytest.raises(OutOfRange):
            time_encode(-1, 50, TimeEncoding())


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
        net = EgnnNet(3, rng, hidden=8, layers=2)
        x = rng.standard_normal((5, 3))
        out = net(T.tensor(x), 0.5).data
        q = random_orthogonal(rng, 3)
        rotated = net(T.tensor(x @ q.T), 0.5).data
        assert np.max(np.abs(rotated - out @ q.T)) < 1e-8

    def test_flow_field_same_bits_as_tiled_features(self, rng):
        net = FlowFieldNet(3, rng, hidden=8, hidden_layers=2)
        x = rng.standard_normal((5, 3))
        enc = time_encode(0.3, 1.0, net.time_enc)
        feat = T.tensor(np.concatenate([x, np.tile(enc, (5, 1))], axis=1))
        h = T.relu(net.entry(feat))
        for layer in net.hidden:
            h = T.relu(layer(h))
        assert np.array_equal(net.velocity(0.3, x), net.out(h).data)

    @staticmethod
    def unit_weight_egnn(rng, layers):
        """EGNN whose coordinate heads output weight 1 on every pair."""
        net = EgnnNet(2, rng, hidden=8, layers=layers)
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
        net = EgnnNet(3, rng, hidden=8, layers=2)
        out = net(T.tensor(np.ones((1, 3))), 0.5).data
        assert np.all(out == 0.0)
