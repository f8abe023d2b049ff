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
        out = lay(T.tensor(x), complete_graph_edges(5)).data
        assert np.std(out, axis=0).max() > 1e-3

    def test_equivariance(self, rng):
        lay = GraphConvLayer(2, 4, rng)
        x = rng.standard_normal((6, 2))
        e = complete_graph_edges(6)
        out = lay(T.tensor(x), e).data
        perm = rng.permutation(6)
        pout = lay(T.tensor(x[np.argsort(perm)]), e).data
        assert np.allclose(pout, out[np.argsort(perm)])


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

    def test_egnn_net_single_point_zero(self, rng):
        net = EgnnNet(3, rng, hidden=8, layers=2)
        out = net(T.tensor(np.ones((1, 3))), 0.5).data
        assert np.all(out == 0.0)
