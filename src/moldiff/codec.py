"""Autoencoding stack: molecule -> latent point cloud -> molecule.

The graph encoder embeds each atom (one-hot element, molecular edges) into
z dimensions with a 2-layer PNA that aggregates mean/min/max/std of the
neighbor messages plus a log(degree + 1) column, so atoms of one element
but different degree encode differently; the atom-type encoder adds 2 more
columns. The first layer's aggregate of the one-hot atoms is a constant of
the molecule, so it is built once (``encoder_aggregate``), as are the
input codec's ``build_edges_as_nodes`` graphs; both caches are keyed by
the training molecule.
Decoding runs the reverse: a PNA over the complete graph of latent points
produces 4-wide output features, an MLP scores every unordered pair in
both orientations and averages them (``gnn.symmetric_pair_logits``), and
pairs at or above the threshold become edges. Bond types are assigned
afterwards by a separate graph-convolutional classifier whose argmax is
masked to valence-feasible types. Each MLP or GCN stack is one tape node.

The EGNN decoder and the input-space autoencoder both run on the pair-node
graph, ``gnn.pair_node_edges(n)``: the n atoms plus one node per unordered
pair, joined to its two endpoints. It is built once per size and shared.
A non-finite cloud is refused with ``NonFiniteCloud`` before decoding.

Both decoders run on a (B, n, w) stack of same-size clouds
(``decode_batch``, ``input_space_decode_batch``): one op call serves B
molecules, and each entry has the bits it has decoded alone, so a batch
changes no output. ``decode`` and ``input_space_decode`` are a batch of
one. ``harness.generate_molecules`` decodes in chunks of at most 8. At
these sizes the per-op overhead, not the arithmetic, sets the cost, and 8
clouds already share most of it: a 9-atom ``kind="gnn"`` cloud took
169–259 µs alone, 91 µs in a chunk of 8 and 100 µs in a chunk of 64
(medians of two runs, one BLAS thread, 2-core Xeon). A chunk call also
took 184 minor page faults at 8 clouds and 2,416 at 64: malloc returns the
freed intermediates to the kernel and faults them in again on the next
call. In a process whose malloc kept its freed memory, both chunk sizes
took 57 µs a cloud with no faults.

Both codecs (``GraphCodec``, ``InputSpaceAutoencoder``; ``build`` makes
either) offer one interface, and the harness sees nothing else:

* ``width``, and ``min_atoms``: the fewest atoms a molecule must have;
* ``rows(n)``: the rows of an n-atom molecule's cloud;
* ``named_params()``, from ``gnn.Module``, and ``loss(m)``: a taped
  loss on one molecule;
* ``encode(m)``: m's (``rows(m.n)``, ``width``) cloud, and
  ``decode_batch(points, n)``: the graphs of a stack of n-atom clouds.

These call the module functions by their global names, so a wrapper set
on one of those sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chem import BOND_TYPES, ELEMENTS, BondType, Element, MolGraph
from .diffcore import tensor as T
from .diffcore.tensor import Tensor
from .gnn import (
    Dense,
    EdgeIndex,
    Mlp,
    Module,
    PnaLayer,
    GcnStack,
    TooFewPoints,
    complete_graph_edges,
    edges_from_pairs,
    egnn_distance_features,
    pair_edges,
    pair_indices,
    pair_node_edges,
    pair_slots,
    symmetric_pair_logits,
)

_ELEM_INDEX = {el: i for i, el in enumerate(ELEMENTS)}
_BOND_INDEX = {bt: i for i, bt in enumerate(BOND_TYPES)}

# both decoders keep a pair as an edge when its probability reaches this
EDGE_THRESHOLD = 0.5


class NonFiniteCloud(ValueError):
    """A latent cloud handed to a decoder holds a NaN or an infinity."""


def atom_onehot(atoms: tuple[Element, ...]) -> np.ndarray:
    x = np.zeros((len(atoms), len(ELEMENTS)), dtype=np.float64)
    for i, el in enumerate(atoms):
        x[i, _ELEM_INDEX[el]] = 1.0
    return x


@lru_cache(maxsize=65536)
def molecular_edges(m: MolGraph) -> EdgeIndex:
    return edges_from_pairs(m.n, sorted((i, j) for i, j, _ in m.bonds))


@lru_cache(maxsize=65536)
def pair_targets(m: MolGraph) -> np.ndarray:
    """(P, 1) 0/1 adjacency over ``pair_indices(m.n)``; cached, read-only."""
    target = np.zeros((len(pair_indices(m.n)[0]), 1))
    target[[pair_slots(m.n)[i, j] for i, j, _ in m.bonds], 0] = 1.0
    target.flags.writeable = False
    return target


@lru_cache(maxsize=65536)
def encoder_aggregate(m: MolGraph) -> np.ndarray:
    """(n, 21) PNA aggregate of m's one-hot atoms over ``molecular_edges(m)``,
    the input of the encoder's first linear map. The atoms are constants, so
    it is built once per molecule; cached, read-only."""
    e = molecular_edges(m)
    agg = T.pna_aggregate(T.tensor(atom_onehot(m.atoms)), e.src_plan, e.dst_plan).data
    agg.flags.writeable = False
    return agg


@dataclass
class UntypedGraph:
    """Decoder candidate: atoms plus an edge set awaiting bond types."""

    atoms: tuple[Element, ...]
    edges: list[tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.atoms)


class AtomTypeAutoencoder(Module):
    """One-hot element -> 2-d embedding -> softmax over elements."""

    def __init__(self, rng: np.random.Generator):
        self.enc = Dense(4, 2, rng, name="atomae.enc")
        self.dec = Dense(2, 4, rng, name="atomae.dec")

    def encode(self, x: Tensor) -> Tensor:
        return self.enc(x)

    def decode_probs(self, z: Tensor) -> Tensor:
        return T.softmax(self.dec(z))


class GraphAutoencoder(Module):
    """PNA encoder/decoder with a thresholded pair-MLP edge predictor.

    kind="gnn" decodes from the latent points directly; kind="egnn" decodes
    on the pair-node graph, whose pair nodes carry only pairwise distances,
    making the decoded edge set invariant to orthogonal transforms of the
    cloud.
    """

    def __init__(self, z: int, rng: np.random.Generator, kind: str = "gnn",
                 hidden: int = 64, edge_hidden: int = 32):
        if kind not in ("gnn", "egnn"):
            raise ValueError(f"unknown decoder kind {kind!r}")
        self.z = z
        self.kind = kind
        # gnn: the decoder reads latent rows, the edge head both endpoints'
        # 4-wide outputs; egnn: it reads (distance, squared distance) on pair
        # nodes, the edge head one pair node's output
        dec_in, pair_in = (z + 2, 8) if kind == "gnn" else (2, 4)
        self.enc1 = PnaLayer(4, hidden, rng, name="graphae.enc1")
        self.enc2 = PnaLayer(hidden, z, rng, name="graphae.enc2")
        self.dec1 = PnaLayer(dec_in, hidden, rng, name="graphae.dec1")
        self.dec2 = PnaLayer(hidden, 4, rng, name="graphae.dec2")
        self.edge_mlp = Mlp([pair_in, edge_hidden, 1], rng, name="graphae.edge")
        # molecular adjacency is sparse; bias the edge head toward "no edge"
        self.edge_mlp.layers[-1].b.data[:] = -1.1

    @property
    def width(self) -> int:
        return self.z + 2


def encode_t(ae: GraphAutoencoder, at: AtomTypeAutoencoder, m: MolGraph) -> Tensor:
    """Tape-aware encoding: (n, z+2) tensor of latent rows."""
    # enc1 is its linear map on the cached aggregate: its input is constant
    h = T.affine(T.tensor(encoder_aggregate(m)), ae.enc1.W, ae.enc1.b)
    g = ae.enc2(T.relu(h), molecular_edges(m))
    a = at.encode(T.tensor(atom_onehot(m.atoms)))
    return T.concat([g, a], axis=1)


def encode(ae: GraphAutoencoder, at: AtomTypeAutoencoder, m: MolGraph) -> np.ndarray:
    """(n, z+2) latent rows: columns [0, z) from the graph encoder, the
    final two from the atom-type encoder."""
    return encode_t(ae, at, m).data


def edge_probs_gnn(ae: GraphAutoencoder, cloud: Tensor) -> Tensor:
    """Symmetrized edge probabilities for every unordered pair, (P, 1), or
    (B, P, 1) for a (B, n, z+2) batch of clouds."""
    n = cloud.data.shape[-2]
    e = complete_graph_edges(n)
    f = ae.dec2(T.relu(ae.dec1(cloud, e)), e)
    return T.sigmoid(symmetric_pair_logits(ae.edge_mlp, f, pair_edges(n)))


def edge_probs_egnn(ae: GraphAutoencoder, cloud: Tensor) -> Tensor:
    """Edge probabilities from the pair nodes of the pair-node graph; atom
    nodes carry zeros, pair nodes (distance, squared distance). Shapes as
    for ``edge_probs_gnn``."""
    n = cloud.data.shape[-2]
    if n < 2:
        raise TooFewPoints(f"EGNN decoding needs at least 2 points, got {n}")
    e = pair_node_edges(n)
    atom_rows = T.tensor(np.zeros((*cloud.data.shape[:-2], n, 2)))
    feats = T.concat([atom_rows, egnn_distance_features(cloud)], axis=-2)
    f = ae.dec2(T.relu(ae.dec1(feats, e)), e)
    return T.sigmoid(ae.edge_mlp(T.narrow(f, -2, n, e.n - n)))


def edge_probs(ae: GraphAutoencoder, cloud: Tensor) -> Tensor:
    return edge_probs_gnn(ae, cloud) if ae.kind == "gnn" else edge_probs_egnn(ae, cloud)


def _elements(scores: np.ndarray) -> list[tuple[Element, ...]]:
    """The highest-scoring element of each row, for each (n, 4) matrix of a
    (B, n, 4) stack of element scores."""
    return [tuple(ELEMENTS[k] for k in row) for row in scores.argmax(axis=-1)]


def _threshold_edges(probs: np.ndarray, n: int) -> list[list[tuple[int, int]]]:
    """For each of the B rows of ``probs``, one probability per pair of
    ``pair_indices(n)``: the pairs at or above ``EDGE_THRESHOLD``, in pair
    order."""
    i_idx, j_idx = pair_indices(n)
    out = []
    for row in probs.reshape(len(probs), -1):
        kept = np.flatnonzero(row >= EDGE_THRESHOLD)
        out.append(list(zip(i_idx[kept].tolist(), j_idx[kept].tolist())))
    return out


def require_finite(cloud: np.ndarray) -> None:
    """Raise ``NonFiniteCloud`` unless every entry of ``cloud`` is finite."""
    if not np.all(np.isfinite(cloud)):
        raise NonFiniteCloud(f"cannot decode a non-finite {cloud.shape} cloud")


def decode_batch(ae: GraphAutoencoder, at: AtomTypeAutoencoder,
                 points: np.ndarray) -> list[UntypedGraph]:
    """Decode a (B, n, z+2) stack of same-size clouds, each laid out as
    ``encode``'s rows. Atoms come from the atom-type columns; for 2 or more
    points, edges are the pairs whose probability reaches
    ``EDGE_THRESHOLD``. With ``kind="egnn"`` the edge set ignores the
    cloud's orientation. Entry b has the bits that points[b] decoded alone
    has."""
    require_finite(points)
    pts = T.tensor(points)
    atoms = _elements(at.decode_probs(T.narrow(pts, -1, ae.z, 2)).data)
    n = points.shape[-2]
    if n < 2:
        return [UntypedGraph(a, []) for a in atoms]
    edges = _threshold_edges(edge_probs(ae, pts).data, n)
    return [UntypedGraph(a, e) for a, e in zip(atoms, edges)]


def decode(ae: GraphAutoencoder, at: AtomTypeAutoencoder,
           points: np.ndarray) -> UntypedGraph:
    """``decode_batch`` of the one (n, z+2) cloud ``points``."""
    return decode_batch(ae, at, points[None])[0]


def reconstruction_loss(ae: GraphAutoencoder, at: AtomTypeAutoencoder,
                        m: MolGraph) -> Tensor:
    """MSE between pair probabilities and 0/1 adjacency, plus MSE between
    the atom-type softmax and the one-hot elements."""
    cloud = encode_t(ae, at, m)
    onehot = atom_onehot(m.atoms)
    atom_cols = T.narrow(cloud, -1, ae.z, 2)
    atom_probs = at.decode_probs(atom_cols)
    loss = T.mse(atom_probs, T.tensor(onehot))
    if m.n >= 2:
        loss = T.add(loss, T.mse(edge_probs(ae, cloud), T.tensor(pair_targets(m))))
    return loss


class GraphCodec(GraphAutoencoder):
    """The graph autoencoder with its atom-type autoencoder, ``atoms``,
    drawn right after the graph weights: one row per atom."""

    min_atoms = 1

    def __init__(self, z: int, rng: np.random.Generator, kind: str = "gnn"):
        super().__init__(z, rng, kind=kind)
        self.atoms = AtomTypeAutoencoder(rng)

    def rows(self, n: int) -> int:
        return n

    def loss(self, m: MolGraph) -> Tensor:
        return reconstruction_loss(self, self.atoms, m)

    def encode(self, m: MolGraph) -> np.ndarray:
        return encode_t(self, self.atoms, m).data

    def decode_batch(self, points: np.ndarray, n: int) -> list[UntypedGraph]:
        return decode_batch(self, self.atoms, points)


# ---------------------------------------------------------------------------
# bond-type prediction


class EdgeTypeModel(Module):
    """Two graph convolutions with ReLU (``Dense`` layers propagated over
    the GCN matrix, one ``T.relu_stack`` node) then an MLP over
    concatenated endpoint embeddings; logits are symmetrized by averaging
    both orientations (``gnn.symmetric_pair_logits``)."""

    def __init__(self, rng: np.random.Generator, hidden: int = 32):
        self.gcn1 = Dense(4, hidden, rng, name="edgetype.gcn1")
        self.gcn2 = Dense(hidden, hidden, rng, name="edgetype.gcn2")
        self.gcn_specs = (self.gcn1.spec, self.gcn2.spec)
        self.head = Mlp([2 * hidden, hidden, len(BOND_TYPES)], rng, name="edgetype.head")

    def pair_logits(self, atoms: tuple[Element, ...], e: EdgeIndex) -> Tensor:
        """(P, bond types) logits for the P pairs of ``e``, an
        ``edges_from_pairs`` index over ``atoms``, in its pair order."""
        h = T.relu(T.relu_stack(T.tensor(atom_onehot(atoms)), self.gcn_specs, e.gcn_matrix))
        return symmetric_pair_logits(self.head, h, e)


def edge_type_loss(etm: EdgeTypeModel, m: MolGraph) -> Tensor | None:
    """Cross-entropy against ground-truth bond types; None when bondless."""
    bonds = sorted(m.bonds, key=lambda e: (e[0], e[1]))
    if not bonds:
        return None
    # molecular_edges lists the bonded pairs in this same sorted order
    targets = np.array([_BOND_INDEX[t] for _, _, t in bonds], dtype=np.intp)
    logits = etm.pair_logits(m.atoms, molecular_edges(m))
    return T.softmax_cross_entropy(logits, targets)


def predict_edge_types(etm: EdgeTypeModel,
                       candidate: UntypedGraph) -> tuple[MolGraph, list[tuple[int, int]]]:
    """Assign a bond type to every candidate edge, honoring valence caps.

    Edges are processed in descending confidence (max logit); each pick is
    masked to types that keep both endpoints within their maximum valence
    given the orders already committed. An edge with no feasible type is
    dropped and reported in the second return value.
    """
    if not candidate.edges:
        return MolGraph(candidate.atoms, frozenset()), []

    logits = etm.pair_logits(
        candidate.atoms, edges_from_pairs(candidate.n, candidate.edges)).data
    order = np.argsort(-logits.max(axis=1), kind="stable")

    cap = [2 * el.max_valence for el in candidate.atoms]
    used = [0] * candidate.n
    typed: set[tuple[int, int, BondType]] = set()
    dropped: list[tuple[int, int]] = []

    for e in order:
        i, j = candidate.edges[e]
        best_k, best_logit = -1, -np.inf
        for k, bt in enumerate(BOND_TYPES):
            if used[i] + bt.half_order > cap[i] or used[j] + bt.half_order > cap[j]:
                continue
            if logits[e, k] > best_logit:
                best_k, best_logit = k, logits[e, k]
        if best_k < 0:
            dropped.append((i, j))
            continue
        bt = BOND_TYPES[best_k]
        used[i] += bt.half_order
        used[j] += bt.half_order
        typed.add((min(i, j), max(i, j), bt))

    return MolGraph(candidate.atoms, frozenset(typed)), dropped


# ---------------------------------------------------------------------------
# edges-as-nodes construction (input-space pipeline)


@dataclass
class EdgesAsNodesGraph:
    """Original atoms plus one auxiliary node per unordered pair, over the
    shared ``pair_node_edges(n_original)``.

    Feature layout (width 9): columns 0-3 one-hot element on original rows,
    column 4 edge presence on auxiliary rows, columns 5-8 bond-type one-hot
    on auxiliary rows. Auxiliary node k connects to both its endpoints.
    """

    features: np.ndarray
    edges: EdgeIndex
    n_original: int

    FEATURE_WIDTH = 9

    @property
    def n_aux(self) -> int:
        return self.edges.n - self.n_original


@lru_cache(maxsize=65536)
def build_edges_as_nodes(m: MolGraph) -> EdgesAsNodesGraph:
    """m's edges-as-nodes graph; cached, its features read-only."""
    if m.n < 2:
        raise TooFewPoints(f"edges-as-nodes needs at least 2 atoms, got {m.n}")
    n = m.n
    edges = pair_node_edges(n)
    feats = np.zeros((edges.n, EdgesAsNodesGraph.FEATURE_WIDTH))
    feats[:n, :4] = atom_onehot(m.atoms)
    slots = pair_slots(n)
    for i, j, t in m.bonds:
        k = n + slots[i, j]
        feats[k, 4] = 1.0
        feats[k, 5 + _BOND_INDEX[t]] = 1.0
    feats.flags.writeable = False
    return EdgesAsNodesGraph(features=feats, edges=edges, n_original=n)


class InputSpaceAutoencoder(Module):
    """4-layer graph-convolution encoder/decoder over the edges-as-nodes
    graph; compresses every node (original and auxiliary) to z features,
    so a cloud has a row per atom and per atom pair."""

    min_atoms = 2

    def __init__(self, z: int, rng: np.random.Generator, hidden: int = 32):
        self.z = z
        w = EdgesAsNodesGraph.FEATURE_WIDTH
        self.enc = GcnStack([w, hidden, hidden, hidden, z], rng, name="inputae.enc")
        self.dec = GcnStack([z, hidden, hidden, hidden, w], rng, name="inputae.dec")

    @property
    def width(self) -> int:
        return self.z

    def rows(self, n: int) -> int:
        return n + n * (n - 1) // 2

    def encode_t(self, g: EdgesAsNodesGraph) -> Tensor:
        return self.enc(T.tensor(g.features), g.edges)

    def loss(self, m: MolGraph) -> Tensor:
        return input_space_loss(self, build_edges_as_nodes(m))

    def encode(self, m: MolGraph) -> np.ndarray:
        return self.encode_t(build_edges_as_nodes(m)).data

    def decode_batch(self, points: np.ndarray, n: int) -> list[UntypedGraph]:
        return input_space_decode_batch(self, points, n)


def input_space_loss(ae: InputSpaceAutoencoder, g: EdgesAsNodesGraph) -> Tensor:
    """Presence and atom-type reconstruction error for one molecule."""
    latent = ae.encode_t(g)
    out = ae.dec(latent, g.edges)
    n = g.n_original
    presence = T.sigmoid(T.narrow(T.narrow(out, -2, n, g.n_aux), -1, 4, 1))
    presence_target = g.features[n:, 4:5]
    atom_probs = T.softmax(T.narrow(T.narrow(out, -2, 0, n), -1, 0, 4))
    loss = T.mse(atom_probs, T.tensor(g.features[:n, :4]))
    return T.add(loss, T.mse(presence, T.tensor(presence_target)))


def input_space_decode_batch(ae: InputSpaceAutoencoder, latent: np.ndarray,
                             n_original: int) -> list[UntypedGraph]:
    """Decode a (B, n + C(n,2), z) stack of latent matrices of one atom
    count n into candidate graphs. Entry b has the bits that latent[b]
    decoded alone has."""
    require_finite(latent)
    n = n_original
    out = ae.dec(T.tensor(latent), pair_node_edges(n)).data
    presence = T.sigmoid(T.tensor(out[..., n:, 4])).data
    edges = _threshold_edges(presence, n)
    return [UntypedGraph(a, e) for a, e in zip(_elements(out[..., :n, :4]), edges)]


def input_space_decode(ae: InputSpaceAutoencoder, latent: np.ndarray,
                       n_original: int) -> UntypedGraph:
    """``input_space_decode_batch`` of the one (n + C(n,2), z) matrix ``latent``."""
    return input_space_decode_batch(ae, latent[None], n_original)[0]


def build(kind: str, z: int, rng: np.random.Generator) -> GraphCodec | InputSpaceAutoencoder:
    """A freshly initialised codec of ``kind`` ("gnn", "egnn" or "input")
    with ``z`` latent columns per node; another kind raises ValueError."""
    if kind == "input":
        return InputSpaceAutoencoder(z, rng)
    return GraphCodec(z, rng, kind=kind)
