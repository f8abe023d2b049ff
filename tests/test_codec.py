"""Autoencoding stack: encode/decode contracts, bond typing, edges-as-nodes."""

import numpy as np
import pytest

from moldiff import codec
from moldiff.chem import BondType, Element, molgraph, parse_smiles
from moldiff.diffcore import AdamState, Tape, adam_step, backward
from moldiff.diffcore import tensor as T
from moldiff.gnn import TooFewPoints, edges_from_pairs, pair_indices, pair_node_edges

from conftest import fd_gradcheck


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


class TestDecodeGnn:
    def test_all_probabilities_below_threshold(self, models, rng):
        ae, at = models
        # an edge head biased hard negative keeps every pair below tau
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
            sums = {i: 0.0 for i in range(mol.n)}
            for i, j, t in mol.bonds:
                sums[i] += t.valence_contribution
                sums[j] += t.valence_contribution
            for i, el in enumerate(mol.atoms):
                assert sums[i] <= el.max_valence

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

    def test_same_size_molecules_share_one_graph(self):
        a = codec.build_edges_as_nodes(parse_smiles("CCO"))
        b = codec.build_edges_as_nodes(parse_smiles("C1CN1"))
        assert a.edges is b.edges is pair_node_edges(3)
        assert codec.build_edges_as_nodes(parse_smiles("CCCO")).edges is not a.edges

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
