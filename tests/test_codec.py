"""Autoencoding stack: encode/decode contracts, bond typing, edges-as-nodes."""

from functools import partial

import numpy as np
import pytest

from moldiff import codec, flows
from moldiff.chem import BOND_TYPES, ELEMENTS, BondType, Element, molgraph, parse_smiles
from moldiff.diffcore import AdamState, Tape, adam_step, backward, dct_matrix
from moldiff.diffcore import tensor as T
from moldiff.gnn import (
    TIME_FREQS,
    TooFewPoints,
    bias_init,
    edges_from_pairs,
    glorot,
    pair_edges,
    pair_indices,
    pair_node_edges,
    pair_slots,
)

from conftest import fd_gradcheck, general_pair_logits

NINE_ATOMS = "CC(C)CC(=O)OCN"


@pytest.fixture()
def models(rng):
    ae = codec.GraphAutoencoder(2, rng, hidden=16, edge_hidden=16)
    at = codec.AtomTypeAutoencoder(rng)
    return ae, at


class TestEncode:
    def test_shape_contract(self, models):
        ae, at = models
        m = parse_smiles("CCOCN")
        cloud = codec.encode(ae, at, m)
        assert cloud.shape == (5, 4)
        assert np.all(np.isfinite(cloud))

    def test_single_atom(self, models):
        ae, at = models
        cloud = codec.encode(ae, at, parse_smiles("C"))
        assert cloud.shape == (1, 4)

    def test_relabeling_equivariance(self, models, rng):
        ae, at = models
        m = parse_smiles("CC(=O)NC")
        cloud = codec.encode(ae, at, m)
        perm = list(rng.permutation(m.n))
        permuted = codec.encode(ae, at, m.permuted(perm))
        assert np.allclose(permuted[perm], cloud)

    def test_degree_separates_same_element_atoms(self, rng):
        # all-carbon, so only the neighbor count can tell the atoms apart
        ae = codec.GraphAutoencoder(2, rng)
        at = codec.AtomTypeAutoencoder(rng)
        m = parse_smiles("CC(C)C")
        degree = np.bincount([a for i, j, _ in m.bonds for a in (i, j)], minlength=m.n)
        assert sorted(degree.tolist()) == [1, 1, 1, 3]
        points = codec.encode(ae, at, m)
        leaves, center = points[degree == 1], points[degree == 3][0]
        assert np.allclose(leaves, leaves[0])
        assert np.abs(center - leaves[0]).max() > 1e-6

    @pytest.mark.parametrize("smiles", ["C", NINE_ATOMS])
    def test_first_layer_reads_the_cached_aggregate(self, smiles, models):
        """The encoder's first PNA layer runs as its linear map on
        ``encoder_aggregate(m)``, with the bits of the whole layer on the
        one-hot atoms; the aggregate is built once per molecule."""
        ae, at = models
        m = parse_smiles(smiles)
        e = codec.molecular_edges(m)
        want = ae.enc2(T.relu(ae.enc1(T.tensor(codec.atom_onehot(m.atoms)), e)), e).data
        assert codec.encode(ae, at, m)[:, :ae.z].tobytes() == want.tobytes()
        assert codec.encoder_aggregate(m) is codec.encoder_aggregate(parse_smiles(smiles))


class TestDecodeGnn:
    def test_all_probabilities_below_threshold(self, models, rng):
        ae, at = models
        # an edge head biased hard negative keeps every pair below the threshold
        ae.edge_mlp.layers[-1].W.data[:] = 0.0
        ae.edge_mlp.layers[-1].b.data[:] = -10.0
        cand = codec.decode(ae, at, rng.standard_normal((5, 4)))
        assert cand.edges == []

    def test_symmetric_rows_decode_symmetrically(self, models, rng):
        ae, at = models
        pts = rng.standard_normal((4, 4))
        pts[2] = pts[1]
        cand = codec.decode(ae, at, pts)
        swapped = pts[[0, 2, 1, 3]]
        cand2 = codec.decode(ae, at, swapped)
        relabel = {0: 0, 1: 2, 2: 1, 3: 3}
        expect = sorted(tuple(sorted((relabel[a], relabel[b]))) for a, b in cand.edges)
        assert sorted(cand2.edges) == expect
        assert cand2.atoms == tuple(cand.atoms[k] for k in [0, 2, 1, 3])

    def test_deterministic(self, models, rng):
        ae, at = models
        cloud = rng.standard_normal((6, 4))
        a = codec.decode(ae, at, cloud)
        b = codec.decode(ae, at, cloud)
        assert a.edges == b.edges and a.atoms == b.atoms


class TestDecodeEgnn:
    def test_rigid_motion_leaves_edges_unchanged(self, rng):
        ae = codec.GraphAutoencoder(2, rng, kind="egnn", hidden=16)
        at = codec.AtomTypeAutoencoder(rng)
        pts = rng.standard_normal((6, 4))
        base = codec.decode(ae, at, pts)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        moved = pts @ q.T + rng.standard_normal(4)
        rotated = codec.decode(ae, at, moved)
        assert rotated.edges == base.edges

    def test_coincident_points_all_or_nothing(self, rng):
        ae = codec.GraphAutoencoder(2, rng, kind="egnn", hidden=16)
        at = codec.AtomTypeAutoencoder(rng)
        pts = np.tile(rng.standard_normal(4), (5, 1))
        probs = codec.edge_probs_egnn(ae, T.tensor(pts)).data.ravel()
        assert np.allclose(probs, probs[0])

    def test_too_few_points(self, rng):
        ae = codec.GraphAutoencoder(2, rng, kind="egnn", hidden=16)
        with pytest.raises(TooFewPoints):
            codec.edge_probs_egnn(ae, T.tensor(np.zeros((1, 4))))

    def test_single_point_decodes_to_one_atom(self, rng):
        ae = codec.GraphAutoencoder(2, rng, kind="egnn", hidden=16)
        at = codec.AtomTypeAutoencoder(rng)
        cand = codec.decode(ae, at, rng.standard_normal((1, 4)))
        assert cand.n == 1 and cand.edges == []


class TestNonFiniteCloud:
    @pytest.mark.parametrize("kind", ["gnn", "egnn"])
    def test_all_nan_cloud_raises(self, kind, rng):
        ae = codec.GraphAutoencoder(2, rng, kind=kind, hidden=16)
        at = codec.AtomTypeAutoencoder(rng)
        with pytest.raises(codec.NonFiniteCloud):
            codec.decode(ae, at, np.full((5, 4), np.nan))

    def test_one_infinite_entry_raises(self, models, rng):
        ae, at = models
        pts = rng.standard_normal((5, 4))
        pts[3, 1] = np.inf
        with pytest.raises(codec.NonFiniteCloud):
            codec.decode(ae, at, pts)

    def test_input_space_decode_raises(self, rng):
        ae = codec.InputSpaceAutoencoder(2, rng, hidden=8)
        latent = np.zeros((6, 2))
        latent[4, 0] = np.nan
        with pytest.raises(codec.NonFiniteCloud):
            codec.input_space_decode(ae, latent, 3)

    def test_input_space_decode_saturated_presence(self, rng):
        ae = codec.InputSpaceAutoencoder(2, rng, hidden=8)
        # every pair's presence logit far below the exp overflow at -709
        dict(ae.dec.named_params())["inputae.dec.3.b"].data[4] = -1e4
        assert codec.input_space_decode(ae, rng.standard_normal((6, 2)), 3).edges == []


def _kept_pairs(probs: np.ndarray, n: int, tau: float) -> list[tuple[int, int]]:
    """The pairs of ``pair_indices(n)`` whose probability reaches tau, by
    a loop over every pair."""
    i_idx, j_idx = pair_indices(n)
    return [(int(a), int(b)) for a, b, p in zip(i_idx, j_idx, probs.ravel()) if p >= tau]


def _taped_alone(decoder: str, ae, at, cloud: np.ndarray, n: int):
    """Atoms, kept pairs and pair probabilities of one 2-D cloud, decoded
    on a recording tape."""
    with Tape() as tape:
        x = T.tensor(cloud)
        if decoder == "input":
            out = ae.dec(x, pair_node_edges(n)).data
            scores, probs = out[:n, :4], T.sigmoid(T.tensor(out[n:, 4])).data
        else:
            scores = at.decode_probs(T.narrow(x, -1, ae.z, 2)).data
            probs = codec.edge_probs(ae, x).data if n >= 2 else np.empty((0, 1))
    assert len(tape) > 0
    atoms = tuple(ELEMENTS[k] for k in scores.argmax(axis=1))
    return atoms, _kept_pairs(probs, n, codec.EDGE_THRESHOLD), probs


class TestBatchDecode:
    """Entry b of a batched decode is cloud b decoded alone, bit for bit."""

    @pytest.mark.parametrize("batch", [1, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("decoder", ["gnn", "egnn", "input"])
    def test_entries_as_alone(self, decoder, n, batch, rng):
        if decoder == "input":
            ae, at = codec.InputSpaceAutoencoder(2, rng, hidden=8), None
            clouds = rng.standard_normal((batch, n + n * (n - 1) // 2, 2))
            graphs = codec.input_space_decode_batch(ae, clouds, n)
            probs = T.sigmoid(T.tensor(
                ae.dec(T.tensor(clouds), pair_node_edges(n)).data[..., n:, 4])).data
        else:
            ae = codec.GraphAutoencoder(2, rng, kind=decoder, hidden=16)
            at = codec.AtomTypeAutoencoder(rng)
            ae.edge_mlp.layers[-1].b.data[:] = 0.0  # centre the probabilities on the threshold
            clouds = rng.standard_normal((batch, n, 4))
            graphs = codec.decode_batch(ae, at, clouds)
            probs = codec.edge_probs(ae, T.tensor(clouds)).data if n >= 2 else None
        assert len(graphs) == batch
        for b, graph in enumerate(graphs):
            atoms, edges, want = _taped_alone(decoder, ae, at, clouds[b], n)
            assert graph.atoms == atoms
            assert graph.edges == edges
            if n >= 2:
                assert probs[b].tobytes() == want.ravel().tobytes()


class TestReconstructionLoss:
    def test_perfect_predictions_zero(self, rng):
        # loss against targets manufactured from the model's own outputs
        ae = codec.GraphAutoencoder(2, rng, hidden=16)
        at = codec.AtomTypeAutoencoder(rng)
        m = parse_smiles("CCO")
        with Tape() as tape:
            loss = codec.reconstruction_loss(ae, at, m)
        assert float(loss.data) > 0.0  # untrained model is imperfect

    def test_half_probabilities_quarter_edge_term(self, rng):
        ae = codec.GraphAutoencoder(2, rng, hidden=16)
        at = codec.AtomTypeAutoencoder(rng)
        # force p = 0.5 on every pair
        ae.edge_mlp.layers[-1].W.data[:] = 0.0
        ae.edge_mlp.layers[-1].b.data[:] = 0.0
        m = parse_smiles("CCO")
        cloud = codec.encode_t(ae, at, m)
        probs = codec.edge_probs(ae, cloud)
        bonded = {(i, j) for i, j, _ in m.bonds}
        i_idx, j_idx = pair_indices(m.n)
        target = np.array([[1.0 if (a, b) in bonded else 0.0]
                           for a, b in zip(i_idx, j_idx)])
        edge_term = float(T.mse(probs, T.tensor(target)).data)
        assert edge_term == pytest.approx(0.25)

    def test_pair_targets_match_bond_set(self, corpus):
        for m in corpus.molecules[:100]:
            bonded = {(i, j) for i, j, _ in m.bonds}
            i_idx, j_idx = pair_indices(m.n)
            want = np.array([[1.0 if (a, b) in bonded else 0.0]
                             for a, b in zip(i_idx, j_idx)]).reshape(-1, 1)
            assert np.array_equal(codec.pair_targets(m), want)
            assert codec.pair_targets(m) is codec.pair_targets(m)

    def test_gradients_pass_finite_differences(self, rng):
        ae = codec.GraphAutoencoder(2, rng, hidden=8, edge_hidden=8)
        at = codec.AtomTypeAutoencoder(rng)
        m = parse_smiles("CC(=O)N")
        params = [p for _, p in ae.named_params() + at.named_params()]
        assert fd_gradcheck(lambda: codec.reconstruction_loss(ae, at, m), params) < 1e-4

    def test_single_atom_molecule_has_atom_term_only(self, rng):
        ae = codec.GraphAutoencoder(2, rng, hidden=16)
        at = codec.AtomTypeAutoencoder(rng)
        with Tape() as tape:
            loss = codec.reconstruction_loss(ae, at, parse_smiles("C"))
        assert np.isfinite(loss.data)


class TestEdgeTypes:
    def test_fluorine_forces_single(self, rng):
        etm = codec.EdgeTypeModel(rng, hidden=8)
        cand = codec.UntypedGraph((Element.F, Element.C), [(0, 1)])
        mol, dropped = codec.predict_edge_types(etm, cand)
        assert not dropped
        ((i, j, t),) = mol.bonds
        assert t is BondType.SINGLE

    def test_valence_never_exceeded(self, rng, corpus):
        etm = codec.EdgeTypeModel(rng, hidden=8)
        for m in corpus.molecules[:40]:
            cand = codec.UntypedGraph(m.atoms, [(i, j) for i, j, _ in m.bonds])
            mol, _ = codec.predict_edge_types(etm, cand)
            half_sums = {i: 0 for i in range(mol.n)}
            for i, j, t in mol.bonds:
                half_sums[i] += t.half_order
                half_sums[j] += t.half_order
            for i, el in enumerate(mol.atoms):
                assert half_sums[i] <= 2 * el.max_valence

    def test_infeasible_edges_dropped(self, rng):
        etm = codec.EdgeTypeModel(rng, hidden=8)
        # a fluorine with two candidate edges can keep at most one
        cand = codec.UntypedGraph((Element.F, Element.C, Element.C),
                                  [(0, 1), (0, 2), (1, 2)])
        mol, dropped = codec.predict_edge_types(etm, cand)
        assert len(dropped) == 1
        assert dropped[0][0] == 0 or dropped[0][1] == 0

    def test_symmetrized_logits(self, rng):
        etm = codec.EdgeTypeModel(rng, hidden=8)
        atoms = (Element.C, Element.N, Element.O)
        logits_fwd = etm.pair_logits(atoms, edges_from_pairs(3, [(0, 1), (1, 2)])).data
        logits_rev = etm.pair_logits(atoms, edges_from_pairs(3, [(1, 0), (2, 1)])).data
        assert np.allclose(logits_fwd, logits_rev)

    def test_loss_gradcheck(self, rng):
        etm = codec.EdgeTypeModel(rng, hidden=8)
        m = parse_smiles("CC(=O)N")
        params = [p for _, p in etm.named_params()]
        assert fd_gradcheck(lambda: codec.edge_type_loss(etm, m), params) < 1e-4

    def test_bondless_molecule_has_no_loss(self, rng):
        etm = codec.EdgeTypeModel(rng, hidden=8)
        assert codec.edge_type_loss(etm, parse_smiles("C")) is None


@pytest.mark.parametrize("smiles", ["CC", NINE_ATOMS])
@pytest.mark.parametrize("head", ["decoder", "bond_type"])
def test_pair_heads_same_bits_as_general_ops(head, smiles, monkeypatch):
    """Each loss that runs a pair head has, in its value and every
    parameter gradient, the bits it has with the head built from general
    ops: the decoder's head at 2 and 9 atoms, the bond-type head on one
    bond and on nine atoms."""
    m = parse_smiles(smiles)
    rng = np.random.default_rng(5)
    if head == "decoder":
        ae, at = codec.GraphAutoencoder(2, rng), codec.AtomTypeAutoencoder(rng)
        params = [p for part in (ae, at) for _, p in part.named_params()]
        build = partial(codec.reconstruction_loss, ae, at, m)
    else:
        etm = codec.EdgeTypeModel(rng)
        params = [p for _, p in etm.named_params()]
        build = partial(codec.edge_type_loss, etm, m)

    def bits():
        with Tape() as tape:
            loss = build()
        grads = backward(tape, loss)
        return [loss.data.tobytes(), *(grads[p].tobytes() for p in params)]

    got = bits()
    monkeypatch.setattr(codec, "symmetric_pair_logits", general_pair_logits)
    assert got == bits()


# every array a cache hands out, by how to reach it
CACHED_ARRAYS = {
    "pair_indices.i": lambda: pair_indices(4)[0],
    "pair_indices.j": lambda: pair_indices(4)[1],
    "pair_slots": lambda: pair_slots(4),
    "pair_targets": lambda: codec.pair_targets(parse_smiles("CCO")),
    "gcn_matrix": lambda: pair_node_edges(3).gcn_matrix,
    "member": lambda: pair_edges(4).src_plan.member,
    "table": lambda: pair_edges(4).dst_plan.table,
    "dct_matrix": lambda: dct_matrix(5),
    "TIME_FREQS": lambda: TIME_FREQS,
    "encoder_aggregate": lambda: codec.encoder_aggregate(parse_smiles("CCO")),
    "edges_as_nodes": lambda: codec.build_edges_as_nodes(parse_smiles("CCO")).features,
}


@pytest.mark.parametrize("name", CACHED_ARRAYS)
def test_cached_arrays_are_read_only(name):
    a = CACHED_ARRAYS[name]()
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] = 1


class TestEdgesAsNodes:
    def test_triangle_features(self):
        m = parse_smiles("C1CC1")
        g = codec.build_edges_as_nodes(m)
        assert g.n_aux == 3
        assert np.all(g.features[3:, 4] == 1.0)

    def test_empty_graph_features(self):
        m = molgraph(["C", "C", "C"], [])
        g = codec.build_edges_as_nodes(m)
        assert g.n_aux == 3
        assert np.all(g.features[3:, 4] == 0.0)

    def test_four_nodes_six_aux(self):
        m = parse_smiles("CCCC")
        assert codec.build_edges_as_nodes(m).n_aux == 6

    def test_aux_connectivity(self):
        m = parse_smiles("CC")
        g = codec.build_edges_as_nodes(m)
        assert set(zip(g.edges.src.tolist(), g.edges.dst.tolist())) == {
            (0, 2), (1, 2), (2, 0), (2, 1)}

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            codec.build_edges_as_nodes(parse_smiles("C"))

    def test_pair_rows_match_bond_types(self, corpus):
        for m in [m for m in corpus.molecules if m.n >= 2][:100]:
            typed = {(i, j): t for i, j, t in m.bonds}
            want = np.zeros((len(pair_indices(m.n)[0]), 1 + len(BOND_TYPES)))
            for k, pair in enumerate(zip(*(a.tolist() for a in pair_indices(m.n)))):
                if pair in typed:
                    want[k, 0] = want[k, 1 + BOND_TYPES.index(typed[pair])] = 1.0
            got = codec.build_edges_as_nodes(m).features
            assert np.array_equal(got[m.n:, 4:], want)
            assert not got[m.n:, :4].any()

    def test_same_size_molecules_share_one_graph(self):
        a = codec.build_edges_as_nodes(parse_smiles("CCO"))
        b = codec.build_edges_as_nodes(parse_smiles("C1CN1"))
        assert a.edges is b.edges is pair_node_edges(3)
        assert codec.build_edges_as_nodes(parse_smiles("CCCO")).edges is not a.edges

    def test_built_once_per_molecule(self):
        g = codec.build_edges_as_nodes(parse_smiles("CCO"))
        assert codec.build_edges_as_nodes(parse_smiles("CCO")) is g

    def test_input_space_roundtrip_shapes(self, rng):
        ae = codec.InputSpaceAutoencoder(2, rng, hidden=8)
        m = parse_smiles("CCO")
        g = codec.build_edges_as_nodes(m)
        latent = ae.encode_t(g).data
        assert latent.shape == (6, 2)
        cand = codec.input_space_decode(ae, latent, 3)
        assert cand.n == 3

    def test_input_space_loss_gradcheck(self, rng):
        ae = codec.InputSpaceAutoencoder(2, rng, hidden=8)
        g = codec.build_edges_as_nodes(parse_smiles("CC(=O)N"))
        params = [p for _, p in ae.named_params()]
        assert fd_gradcheck(lambda: codec.input_space_loss(ae, g), params) < 1e-4


def _stack_names(prefix: str, widths: list[int]) -> list[tuple[str, tuple]]:
    return [p for i, (a, b) in enumerate(zip(widths, widths[1:]))
            for p in ((f"{prefix}.{i}.W", (a, b)), (f"{prefix}.{i}.b", (b,)))]


def _dense_names(prefix: str, a: int, b: int) -> list[tuple[str, tuple]]:
    return [(f"{prefix}.W", (a, b)), (f"{prefix}.b", (b,))]


def _conv_names(prefix: str, a: int, b: int) -> list[tuple[str, tuple]]:
    """One ``GraphConvLayer``: self weight, neighbor weight, bias."""
    return [(f"{prefix}.Ws", (a, b)), (f"{prefix}.Wn", (a, b)), (f"{prefix}.b", (b,))]


def _conv_stack_names(prefix: str, widths: list[int]) -> list[tuple[str, tuple]]:
    return [p for i, (a, b) in enumerate(zip(widths, widths[1:]))
            for p in _conv_names(f"{prefix}.{i}", a, b)]


def _graph_codec_names(dec_in: int, pair_in: int) -> list[tuple[str, tuple]]:
    """``codec.build("gnn" | "egnn", 2, rng)``: the PNA layers (each reads
    5 * in + 1 columns), the edge head, then the atom-type autoencoder."""
    return [("graphae.enc1.W", (21, 64)), ("graphae.enc1.b", (64,)),
            ("graphae.enc2.W", (321, 2)), ("graphae.enc2.b", (2,)),
            ("graphae.dec1.W", (5 * dec_in + 1, 64)), ("graphae.dec1.b", (64,)),
            ("graphae.dec2.W", (321, 4)), ("graphae.dec2.b", (4,)),
            *_stack_names("graphae.edge", [pair_in, 32, 1]),
            *_dense_names("atomae.enc", 4, 2), *_dense_names("atomae.dec", 2, 4)]


def _egnn_names(prefix: str) -> list[tuple[str, tuple]]:
    """``EgnnNet`` at hidden 64 and 4 layers, of any width: it reads
    distances alone."""
    return [*_dense_names(f"{prefix}.embed", 1, 64),
            *(p for i in range(4) for p in _stack_names(f"{prefix}.edge{i}", [130, 64, 64])),
            *(p for i in range(4) for p in _stack_names(f"{prefix}.coord{i}", [64, 64, 1])),
            *(p for i in range(4) for p in _stack_names(f"{prefix}.node{i}", [128, 64]))]


# the edge head's last bias is drawn, then set to this "no edge" prior
_OVERWRITTEN = {"graphae.edge.1.b": -1.1}


class TestCheckpointNames:
    """A checkpoint stores each parameter under its name, and ``AdamState``
    packs them in listed order. Every codec and flow lists the names and
    shapes, in the order, that stored files were written with, so those
    files still load; and the list follows the draw order: each 2-D tensor
    is a glorot draw and each 1-D one a bias draw, from one generator."""

    MODELS = {
        "edgetype": (lambda rng: codec.EdgeTypeModel(rng),
                     [*_dense_names("edgetype.gcn1", 4, 32),
                      *_dense_names("edgetype.gcn2", 32, 32),
                      *_stack_names("edgetype.head", [64, 32, 4])]),
        "inputae": (lambda rng: codec.build("input", 2, rng),
                    _stack_names("inputae.enc", [9, 32, 32, 32, 2])
                    + _stack_names("inputae.dec", [2, 32, 32, 32, 9])),
        "gnn": (lambda rng: codec.build("gnn", 2, rng), _graph_codec_names(4, 8)),
        "egnn": (lambda rng: codec.build("egnn", 2, rng), _graph_codec_names(2, 4)),
        "ddpm_gnn": (lambda rng: flows.build("ddpm_gnn", 4, rng),
                     _conv_stack_names("ddpm_gnn", [5] + [64] * 6 + [5])),
        "ddpm_egnn": (lambda rng: flows.build("ddpm_egnn", 4, rng),
                      _egnn_names("ddpm_egnn")),
        "heat": (lambda rng: flows.build("heat", 4, rng, [np.zeros((3, 4))]),
                 _conv_stack_names("heat", [4, 64, 64, 4])),
        "flow_matching": (lambda rng: flows.build("flow_matching", 4, rng),
                          [*_conv_names("flowfield.entry", 12, 64),
                           *(p for i in range(10) for p in _dense_names(f"flowfield.h{i}", 64, 64)),
                           *_dense_names("flowfield.out", 64, 4)]),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_names_shapes_and_draws(self, model):
        build, want = self.MODELS[model]
        params = build(np.random.default_rng(5)).named_params()
        assert [(name, p.data.shape) for name, p in params] == want
        ref = np.random.default_rng(5)
        for name, p in params:
            drawn = (glorot(ref, *p.data.shape) if p.data.ndim == 2
                     else bias_init(ref, len(p.data)))
            if name in _OVERWRITTEN:
                drawn = np.full_like(drawn, _OVERWRITTEN[name])
            assert np.array_equal(p.data, drawn), name


def _same_size(n: int) -> list:
    """Three molecules of n atoms."""
    if n == 1:
        return [parse_smiles(s) for s in ("C", "N", "O")]
    ring = f"C1{'C' * (n - 2)}C1" if n >= 3 else "C=O"
    return [parse_smiles(s) for s in ("C" * n, "O" + "C" * (n - 1), ring)]


def _decode_alone(ae, cloud: np.ndarray, n: int):
    if isinstance(ae, codec.InputSpaceAutoencoder):
        return codec.input_space_decode(ae, cloud, n)
    return codec.decode(ae, ae.atoms, cloud)


class TestCodecInterface:
    """Every codec keeps the contract the harness relies on."""

    KINDS = ("gnn", "egnn", "input")

    @pytest.fixture(scope="class", params=KINDS)
    def built(self, request):
        return codec.build(request.param, 2, np.random.default_rng(3))

    def test_encode_shape_and_batch_decode(self, built):
        for n in range(built.min_atoms, 10):
            mols = _same_size(n)
            clouds = [built.encode(m) for m in mols]
            for cloud in clouds:
                assert cloud.shape == (built.rows(n), built.width)
            graphs = built.decode_batch(np.stack(clouds), n)
            assert graphs == [_decode_alone(built, c, n) for c in clouds]

    def test_loss_is_a_taped_scalar(self, built):
        params = {id(p) for _, p in built.named_params()}
        for n in range(built.min_atoms, 10):
            with Tape() as tape:
                loss = built.loss(_same_size(n)[-1])
            assert loss.data.shape == ()
            grads = backward(tape, loss)
            assert {id(p) for p in grads} <= params and grads

    @pytest.mark.parametrize("kind", KINDS)
    def test_build_makes_the_stored_parameters(self, kind):
        """The names and draws of the constructors a pipeline called before
        ``build``, in that order, so stored checkpoints still load."""
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        got = codec.build(kind, 2, rng).named_params()
        if kind == "input":
            want = codec.InputSpaceAutoencoder(2, ref).named_params()
        else:
            want = (codec.GraphAutoencoder(2, ref, kind=kind).named_params()
                    + codec.AtomTypeAutoencoder(ref).named_params())
        assert [(n, p.data.tobytes()) for n, p in got] == [
            (n, p.data.tobytes()) for n, p in want]
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_unknown_kind(self, rng):
        with pytest.raises(ValueError, match="unknown"):
            codec.build("pna", 2, rng)


def overfit_single(m, seed, steps=500, lr=0.004, restarts=6):
    """Train a fresh autoencoder per attempt until decode(encode(m)) == m.

    Plain MSE through a sigmoid has sacrifice minima (a confidently wrong
    pair's gradient vanishes), so a fixed fraction of initializations stall;
    restarting with a new seed is the standard way out. Returns the models
    of the first exact attempt, or None.
    """
    bonded = {(i, j) for i, j, _ in m.bonds}
    for attempt in range(restarts):
        rng = np.random.default_rng((seed, attempt))
        ae = codec.GraphAutoencoder(2, rng)
        at = codec.AtomTypeAutoencoder(rng)
        state = AdamState([p for _, p in ae.named_params() + at.named_params()], lr=lr)
        for step in range(steps):
            with Tape() as tape:
                loss = codec.reconstruction_loss(ae, at, m)
                grads = backward(tape, loss)
            adam_step(state, grads)
            if step % 25 == 24:
                cand = codec.decode(ae, at, codec.encode(ae, at, m))
                if set(cand.edges) == bonded and cand.atoms == m.atoms:
                    return ae, at
    return None


def wl_pair_separable(m, rounds=2):
    """Whether a ``rounds``-hop equivariant encoder can, in principle,
    reproduce the exact edge set: every pair of WL color classes must be
    uniformly bonded or unbonded."""
    adj = {i: [] for i in range(m.n)}
    for i, j, _ in m.bonds:
        adj[i].append(j)
        adj[j].append(i)
    colors = [m.atoms[i].symbol for i in range(m.n)]
    rank = {c: r for r, c in enumerate(sorted(set(colors)))}
    colors = [rank[c] for c in colors]
    for _ in range(rounds):
        sigs = [(colors[i], tuple(sorted(colors[j] for j in adj[i])))
                for i in range(m.n)]
        rank = {s: r for r, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
    bonded = {(i, j) for i, j, _ in m.bonds}
    seen = {}
    for i in range(m.n):
        for j in range(i + 1, m.n):
            key = tuple(sorted((colors[i], colors[j])))
            val = (i, j) in bonded
            if seen.setdefault(key, val) != val:
                return False
    return True


@pytest.mark.slow
class TestOverfitOne:
    def test_overfit_reproduces_molecule(self, corpus):
        m = next(mm for mm in corpus.molecules if mm.n >= 6 and wl_pair_separable(mm))
        result = overfit_single(m, seed=7)
        assert result is not None
        ae, at = result
        cand = codec.decode(ae, at, codec.encode(ae, at, m))
        assert set(cand.edges) == {(i, j) for i, j, _ in m.bonds}
        assert cand.atoms == m.atoms
