"""Graph network building blocks.

Everything here is permutation-equivariant by construction. Each network
gets only the graph data it reads: PNA layers and GCN stacks are called on
(features, edges) and aggregate over an explicit ``EdgeIndex`` through the
dense operators it caches (segment plans for PNA, a normalized adjacency
matrix for GCN); complete-graph networks are called on features alone,
since their graph is every ordered pair of x's rows. Both pair heads (edge
and bond type) are ``symmetric_pair_logits``, three tape nodes: the
endpoint rows (``T.pair_rows``), the MLP and the mean of the two
orientations (``T.pair_mean``). Every stack (``Mlp``, both
``GcnStack`` flavors, ``FlowFieldNet``) holds its layers' ``spec``,
``(W, Wn, b)``, in one ``specs`` tuple built with it and hands that tuple
to one ``T.relu_stack`` call: one tape node, and inside
``T.frozen_params()`` one kept plan per row count. Two layer classes make
every spec: ``Dense``, which a GCN stack runs as
``(e.gcn_matrix @ h) @ W + b`` (propagate, then transform), and
``GraphConvLayer``, the complete-graph layer with a self and a
neighbor-mean weight. No layer checks its input width; ``T.relu_stack``
and ``T.affine`` do.

Every layer and network here, and every codec and flow, is a ``Module``:
its ``named_params()`` lists the trainable tensors its attributes reach,
in attribute-assignment order. That is the order the constructors draw
the weights in, and the order checkpoints and ``AdamState`` follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .diffcore import tensor as T
from .diffcore.tensor import Tensor


class ZeroNodes(ValueError):
    pass


class TooFewPoints(ValueError):
    pass


class GraphMismatch(ValueError):
    """A stack was called without the graph it needs, or with one it does not take."""


# ---------------------------------------------------------------------------
# edge indexes


@dataclass
class EdgeIndex:
    """Directed (src, dst) pairs over ``n`` nodes.

    Aggregation plans and the GCN matrix are computed on first use and
    cached, so a reused edge index (complete graphs, training molecules)
    builds its operators once.
    """

    src: np.ndarray
    dst: np.ndarray
    n: int

    def __post_init__(self):
        self.src = np.asarray(self.src, dtype=np.intp)
        self.dst = np.asarray(self.dst, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.src)

    @cached_property
    def src_plan(self) -> T.SegmentPlan:
        return T.SegmentPlan(self.src, self.n)

    @cached_property
    def dst_plan(self) -> T.SegmentPlan:
        return T.SegmentPlan(self.dst, self.n)

    @cached_property
    def gcn_matrix(self) -> np.ndarray:
        """D^-1/2 (A + I) D^-1/2 as a dense (n, n) matrix, where A[d, s]
        counts the edges s -> d and D is the in-degree of A + I, so
        ``gcn_matrix @ x`` is the self-loop-augmented, symmetrically
        normalized neighbour sum. Read-only."""
        a = np.eye(self.n)
        np.add.at(a, (self.dst, self.src), 1.0)
        deg = a.sum(axis=1)
        matrix = a / np.sqrt(np.outer(deg, deg))
        matrix.flags.writeable = False
        return matrix


@lru_cache(maxsize=None)
def complete_graph_edges(n: int) -> EdgeIndex:
    """All ordered pairs src != dst."""
    if n < 1:
        raise ZeroNodes(f"complete graph needs at least one node, got {n}")
    src, dst = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    src, dst = src.ravel(), dst.ravel()
    keep = src != dst
    return EdgeIndex(src[keep], dst[keep], n)


def edges_from_pairs(n: int, pairs) -> EdgeIndex:
    """Directed edge index with both orientations of each undirected pair:
    the (i, j) rows in the order given, then the (j, i) rows."""
    if not pairs:
        return EdgeIndex(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp), n)
    a = np.array([p[0] for p in pairs], dtype=np.intp)
    b = np.array([p[1] for p in pairs], dtype=np.intp)
    return EdgeIndex(np.concatenate([a, b]), np.concatenate([b, a]), n)


# ---------------------------------------------------------------------------
# parameter initialization


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def bias_init(rng: np.random.Generator, width: int) -> np.ndarray:
    # small noise rather than zeros: an all-zero layer output would park
    # every downstream ReLU exactly on its kink
    return rng.uniform(-0.01, 0.01, size=width)


class Module:
    """A part with trainable tensors: a layer, a network, a codec or a flow.

    ``named_params()`` lists every trainable ``Tensor`` the instance reaches
    through its attributes, held directly, by a sub-``Module`` or in a list
    or tuple, each once, where it is first reached, as (name, tensor). The
    walk goes in attribute-assignment order, which is the order the
    constructors draw in. Checkpoints and ``AdamState`` follow it. Dicts
    and other objects are not walked.
    """

    def named_params(self) -> list[tuple[str, Tensor]]:
        found: dict[int, Tensor] = {}

        def walk(v) -> None:
            if isinstance(v, Tensor) and v.trainable:
                found.setdefault(id(v), v)
            elif isinstance(v, Module):
                for u in vars(v).values():
                    walk(u)
            elif isinstance(v, (list, tuple)):
                for u in v:
                    walk(u)

        walk(self)
        return [(p.name, p) for p in found.values()]


# ---------------------------------------------------------------------------
# layers


class PnaLayer(Module):
    """Aggregates neighbor messages with mean/min/max/std, concatenates the
    node's own features, the four statistics and a degree column
    log(d + 1), then applies one linear map. ``d`` is the node's in-degree.
    Isolated nodes aggregate a zero message and have degree column 0.
    The aggregation is one tape node (``T.pna_aggregate``) and the linear
    map another.

    Keeping the self features in the update is what lets a stack of these
    layers reconstruct per-node identity on a complete graph; aggregates
    alone wash it out. The degree column is what lets it count neighbors:
    mean/min/max/std of identical messages are the same for any number of
    them, so without it atoms of one element but different degree would
    encode to the same row.
    """

    def __init__(self, in_width: int, out_width: int, rng: np.random.Generator,
                 name: str = "pna"):
        self.W = T.param(glorot(rng, 5 * in_width + 1, out_width), name=f"{name}.W")
        self.b = T.param(bias_init(rng, out_width), name=f"{name}.b")

    def __call__(self, x: Tensor, e: EdgeIndex) -> Tensor:
        return T.affine(T.pna_aggregate(x, e.src_plan, e.dst_plan), self.W, self.b)


class GraphConvLayer(Module):
    """Convolution with separate self and neighbor-mean weight paths, for
    complete graphs only.

    Unlike the symmetric-normalized flavor, this keeps per-node identity
    intact on dense graphs: a complete graph averages every node's
    neighborhood to the same vector, and a shared-weight update would then
    collapse all rows. Restoration networks run on complete graphs, so
    they use this layer.

    On the complete graph without self-loops the neighbor mean of row i is
    (sum_j x_j - x_i) / (n - 1), and 0 when n = 1. ``T.relu_stack`` folds
    it into the weights, x @ (W_self - W_nbr / (n - 1)) plus the column sum
    times W_nbr / (n - 1), so a layer costs one (n, w) product and one row
    product instead of n(n - 1) messages. Inside ``T.frozen_params()``, as
    in sampling, the folded weights are made once per row count. The
    graph is x's rows, so the layer is called on x alone. A call is a
    one-layer ``T.relu_stack``; the stacks below pass their layers'
    ``spec`` to one such call instead.
    """

    def __init__(self, in_width: int, out_width: int, rng: np.random.Generator,
                 name: str = "graphconv"):
        self.W_self = T.param(glorot(rng, in_width, out_width), name=f"{name}.Ws")
        self.W_nbr = T.param(glorot(rng, in_width, out_width), name=f"{name}.Wn")
        self.b = T.param(bias_init(rng, out_width), name=f"{name}.b")
        # the layer as ``T.relu_stack`` takes it, and as a one-layer stack
        self.spec = self.W_self, self.W_nbr, self.b
        self.specs = (self.spec,)

    def __call__(self, x: Tensor) -> Tensor:
        return T.relu_stack(x, self.specs)


class Dense(Module):
    """Linear map ``x @ W + b``. In a ``T.relu_stack`` given ``prop`` its
    ``spec`` is the graph convolution ``(prop @ x) @ W + b``: the layers of
    ``GcnStack(conv="gcn")`` and of the bond-type model are Dense layers
    run over ``e.gcn_matrix``."""

    def __init__(self, in_width: int, out_width: int, rng: np.random.Generator,
                 name: str = "dense"):
        self.W = T.param(glorot(rng, in_width, out_width), name=f"{name}.W")
        self.b = T.param(bias_init(rng, out_width), name=f"{name}.b")
        # the layer as ``T.relu_stack`` takes it: no neighbor-mean path
        self.spec = self.W, None, self.b

    def __call__(self, x: Tensor) -> Tensor:
        return T.affine(x, self.W, self.b)


class Mlp(Module):
    """Dense stack with ReLU between layers, linear output, as one node."""

    def __init__(self, widths: list[int], rng: np.random.Generator, name: str = "mlp"):
        self.layers = [Dense(widths[i], widths[i + 1], rng, name=f"{name}.{i}")
                       for i in range(len(widths) - 1)]
        self.specs = tuple(layer.spec for layer in self.layers)

    def __call__(self, x: Tensor) -> Tensor:
        return T.relu_stack(x, self.specs)


# ---------------------------------------------------------------------------
# E(3)-invariant pair features


@lru_cache(maxsize=None)
def pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Unordered pair index arrays (i < j); cached, read-only."""
    i_idx, j_idx = np.triu_indices(n, k=1)
    i_idx.flags.writeable = j_idx.flags.writeable = False
    return i_idx, j_idx


@lru_cache(maxsize=None)
def pair_slots(n: int) -> np.ndarray:
    """(n, n) inverse of ``pair_indices(n)``: entries (i, j) and (j, i) hold
    the index of pair {i, j}, the diagonal -1. Cached, read-only."""
    i_idx, j_idx = pair_indices(n)
    slots = np.full((n, n), -1, dtype=np.intp)
    slots[i_idx, j_idx] = slots[j_idx, i_idx] = np.arange(len(i_idx))
    slots.flags.writeable = False
    return slots


@lru_cache(maxsize=None)
def pair_gather_plans(n: int) -> tuple[T.SegmentPlan, T.SegmentPlan]:
    """Gather plans for the first and second ends of ``pair_indices(n)``."""
    i_idx, j_idx = pair_indices(n)
    return T.SegmentPlan(i_idx, n), T.SegmentPlan(j_idx, n)


@lru_cache(maxsize=None)
def pair_edges(n: int) -> EdgeIndex:
    """``edges_from_pairs`` over every pair of ``pair_indices(n)``. Cached;
    treat as read-only."""
    return edges_from_pairs(n, list(zip(*pair_indices(n))))


def symmetric_pair_logits(mlp: Mlp, h: Tensor, e: EdgeIndex) -> Tensor:
    """(P, out) order-free pair scores, (B, P, out) for a batch h: the mean
    of mlp([h_i, h_j]) and mlp([h_j, h_i]), with the MLP run once over all
    2P rows of ``e``, the (i, j) rows then the (j, i) rows, as
    ``edges_from_pairs`` lays them out. Three tape nodes: ``T.pair_rows``
    builds the rows, the MLP's ``T.relu_stack`` scores them and
    ``T.pair_mean`` averages the two orientations."""
    return T.pair_mean(mlp(T.pair_rows(h, e.src_plan, e.dst_plan)))


@lru_cache(maxsize=None)
def pair_node_edges(n: int) -> EdgeIndex:
    """The pair-node graph: nodes 0..n-1, then node n + k for the k-th
    unordered pair of ``pair_indices(n)``, joined both ways to its two
    endpoints. Cached, so same-size graphs share plans and the GCN matrix;
    treat as read-only."""
    i_idx, j_idx = pair_indices(n)
    pairs = np.arange(n, n + len(i_idx), dtype=np.intp)
    return EdgeIndex(np.concatenate([i_idx, j_idx, pairs, pairs]),
                     np.concatenate([pairs, pairs, i_idx, j_idx]), n + len(i_idx))


def egnn_distance_features(cloud) -> Tensor:
    """Per unordered pair: Euclidean distance and squared distance.

    Invariant under any orthogonal transform plus translation of the cloud.
    The sqrt gradient at coincident points is taken as 0.
    """
    x = cloud if isinstance(cloud, Tensor) else T.tensor(cloud)
    n = x.data.shape[-2]
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    plan_i, plan_j = pair_gather_plans(n)
    diff = T.sub(T.gather_rows(x, plan_i), T.gather_rows(x, plan_j))
    d2 = T.row_sum(T.mul(diff, diff))
    dist = T.sqrt(d2)
    return T.concat([dist, d2], axis=-1)


# ---------------------------------------------------------------------------
# time encodings


# the top time-feature frequency, in radians per unit of t
TIME_MAX_FREQ = 8.0

# the time features' four frequencies, spaced geometrically from 1 to
# TIME_MAX_FREQ; read-only
TIME_FREQS = np.array([TIME_MAX_FREQ ** (i / 3) for i in range(4)])
TIME_FREQS.flags.writeable = False


def time_features(t: float) -> np.ndarray:
    """Sinusoidal features of a time t in [0, 1]: sin and cos of t at each
    of ``TIME_FREQS``, interleaved.

    ``TIME_MAX_FREQ`` is the bandwidth. A network fed these features can
    vary in t no faster than its top feature, so a fixed-step solver needs
    steps well below 1/``TIME_MAX_FREQ`` in t to follow it.
    """
    out = np.empty(2 * len(TIME_FREQS), dtype=np.float64)
    out[0::2] = np.sin(t * TIME_FREQS)
    out[1::2] = np.cos(t * TIME_FREQS)
    return out


# ---------------------------------------------------------------------------
# network stacks shared by codecs and flows


class GcnStack(Module):
    """Graph convolutions with ReLU between layers, linear output, as one node.

    ``conv`` picks the layer flavor: "gcn" (symmetric normalized, for
    sparse molecular graphs) or "graph" (self/neighbor split, for complete
    graphs). A "gcn" stack is called with the ``EdgeIndex`` ``e`` whose
    ``gcn_matrix`` its ``Dense`` layers propagate over, each layer mapping
    h to ``(e.gcn_matrix @ h) @ W + b`` (at most 45 x 45: the 9-atom
    pair-node graph); a "graph" stack runs on the complete graph of x's
    rows and takes no ``e``. Either mistake raises ``GraphMismatch``.
    """

    def __init__(self, widths: list[int], rng: np.random.Generator,
                 name: str = "gcnstack", conv: str = "gcn"):
        layer_cls = {"gcn": Dense, "graph": GraphConvLayer}[conv]
        self.layers = [layer_cls(widths[i], widths[i + 1], rng, name=f"{name}.{i}")
                       for i in range(len(widths) - 1)]
        self.specs = tuple(layer.spec for layer in self.layers)
        self.complete = conv == "graph"

    def __call__(self, x: Tensor, e: EdgeIndex | None = None) -> Tensor:
        if self.complete != (e is None):
            raise GraphMismatch("a gcn stack needs an edge index; a complete-graph one takes none")
        return T.relu_stack(x, self.specs, None if e is None else e.gcn_matrix)


class FlowFieldNet(Module):
    """Velocity network: initial graph convolution over the complete graph,
    a tower of dense hidden layers with ReLU, and a linear output head.
    Sinusoidal time features are appended to every node's row
    (``T.concat_row``), and the whole tower runs as one ``T.relu_stack``
    node.

    The time features run at 1, 2, 4 and 8 radians per unit time, so the
    field is smooth in t on [0, 1] and a coarse RK4 grid resolves it. At
    1000 rad, a half-step near a whole number of the top feature's periods
    aliases it, and RK4's endpoint error stops falling as steps are added.
    """

    def __init__(self, width: int, rng: np.random.Generator, hidden: int = 64,
                 hidden_layers: int = 10):
        self.width = width
        self.entry = GraphConvLayer(width + 2 * len(TIME_FREQS), hidden, rng,
                                    name="flowfield.entry")
        self.hidden = [Dense(hidden, hidden, rng, name=f"flowfield.h{i}")
                       for i in range(hidden_layers)]
        self.out = Dense(hidden, width, rng, name="flowfield.out")
        self.specs = (self.entry.spec, *(layer.spec for layer in self.hidden), self.out.spec)

    def __call__(self, x: Tensor, t: float) -> Tensor:
        # RK4 stage times can overshoot the interval by one rounding step
        return T.relu_stack(T.concat_row(x, time_features(min(max(t, 0.0), 1.0))), self.specs)

    def velocity(self, t: float, x: np.ndarray) -> np.ndarray:
        return self(T.tensor(x), t).data


class EgnnNet(Module):
    """Coordinate-update network built purely from pairwise-distance
    invariants; its displacement output co-rotates with the input cloud.

    Each layer computes per-pair messages from (distance, squared distance,
    hidden states, time), moves every point along its difference vectors,
    each divided by (distance + 1), with learned scalar weights, and
    updates the hidden state from the mean message. The returned prediction
    is the total displacement. It reads the cloud only through differences
    of rows, so it takes a cloud of any width.
    """

    def __init__(self, rng: np.random.Generator, hidden: int = 64, layers: int = 4,
                 name: str = "egnn"):
        self.embed = Dense(1, hidden, rng, name=f"{name}.embed")  # from h_t
        self.edge_mlps = [Mlp([2 * hidden + 2, hidden, hidden], rng, name=f"{name}.edge{i}")
                          for i in range(layers)]
        self.coord_mlps = [Mlp([hidden, hidden, 1], rng, name=f"{name}.coord{i}")
                           for i in range(layers)]
        self.node_mlps = [Mlp([2 * hidden, hidden], rng, name=f"{name}.node{i}")
                          for i in range(layers)]

    def __call__(self, x: Tensor, h_t: float) -> Tensor:
        n = x.data.shape[0]
        if n < 2:
            return T.mul(x, 0.0)
        e = complete_graph_edges(n)
        h = self.embed(T.tensor(np.full((n, 1), h_t)))
        x0 = x
        src_plan, dst_plan = e.src_plan, e.dst_plan
        for edge_mlp, coord_mlp, node_mlp in zip(self.edge_mlps, self.coord_mlps,
                                                 self.node_mlps):
            diff = T.sub(T.gather_rows(x, dst_plan), T.gather_rows(x, src_plan))
            d2 = T.row_sum(T.mul(diff, diff))
            dist = T.sqrt(d2)
            # unit-bounded directions, as in EGNN/EDM: raw differences grow
            # with the cloud and feed back into the next layer's distances
            unit = T.mul(diff, T.reciprocal(T.add(dist, 1.0)))
            pair_in = T.concat(
                [T.gather_rows(h, dst_plan), T.gather_rows(h, src_plan),
                 dist, d2], axis=1)
            m = edge_mlp(pair_in)
            w = coord_mlp(m)
            # move each dst point along its incoming difference vectors
            shift = T.segment_mean(T.mul(unit, w), dst_plan)
            x = T.add(x, shift)
            agg = T.segment_mean(m, dst_plan)
            h = T.add(h, node_mlp(T.concat([h, agg], axis=1)))
        return T.sub(x, x0)

