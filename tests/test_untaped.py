"""Ops off the tape: they record nothing, and their values are the taped
values bit for bit.

An op decides whether it records before it builds anything for the
backward pass, so sampling and decoding, which run with no tape, never
reach the recording entry point. The same op under a tape must produce the
same bits, or trained models would sample differently from how they were
scored during training.
"""

import numpy as np
import pytest

from moldiff import codec, flows
from moldiff.chem import Element, parse_smiles
from moldiff.diffcore import Tape
from moldiff.diffcore import tensor as T
from moldiff.gnn import (
    EgnnNet,
    FlowFieldNet,
    GcnStack,
    PnaLayer,
    edges_from_pairs,
)
from moldiff.harness.config import FLOW_KINDS


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.fixture()
def record_calls(monkeypatch):
    """Count calls to the tape's recording entry point."""
    calls = []
    record = T._record

    def counting(out, pairs):
        calls.append(1)
        record(out, pairs)

    monkeypatch.setattr(T, "_record", counting)
    return calls


# ---------------------------------------------------------------------------
# nothing records off tape

FLOW_WIDTH = {"heat": 1}


def _flow(experiment: str, rows: int):
    kind = FLOW_KINDS[experiment]
    width = FLOW_WIDTH.get(kind, 2)
    clouds = [np.random.default_rng(7).standard_normal((rows, width))]
    return flows.build(kind, width, np.random.default_rng(0), clouds)


@pytest.mark.parametrize("experiment", sorted(FLOW_KINDS))
def test_sampling_records_nothing(experiment, record_calls):
    flow = _flow(experiment, 3)
    cloud = flow.sample(3, np.random.default_rng(1))
    assert cloud.shape == (3, flow.width)
    assert len(record_calls) == 0


def test_counter_sees_taped_calls(record_calls):
    flow = _flow("gnn_gaussian", 3)
    with Tape() as tape:
        flow.loss(np.random.default_rng(7).standard_normal((3, 2)), np.random.default_rng(1))
    assert len(record_calls) == len(tape) > 0


@pytest.mark.parametrize("kind", ["gnn", "egnn"])
def test_decode_records_nothing(kind, record_calls):
    ae = codec.GraphAutoencoder(2, np.random.default_rng(0), kind=kind, hidden=16)
    at = codec.AtomTypeAutoencoder(np.random.default_rng(1))
    ae.tau = 0.0  # keep every pair, so bond typing has edges to type
    graph = codec.decode(ae, at, np.random.default_rng(2).standard_normal((5, 4)))
    etm = codec.EdgeTypeModel(np.random.default_rng(3), hidden=8)
    codec.predict_edge_types(etm, graph)
    assert len(graph.edges) == 10
    assert len(record_calls) == 0


def test_input_space_decode_records_nothing(record_calls):
    ae = codec.InputSpaceAutoencoder(2, np.random.default_rng(0), hidden=8)
    latent = np.random.default_rng(1).standard_normal((4 + 6, 2))
    codec.input_space_decode(ae, latent, 4)
    assert len(record_calls) == 0


# ---------------------------------------------------------------------------
# untaped values equal taped values, bit for bit


def _op_modes(fn, *arrays):
    """fn's value on constants off tape, on constants under a tape (which
    must record nothing), and on trainable inputs under a tape."""
    off = fn(*[T.tensor(a) for a in arrays]).data
    with Tape() as tape:
        const = fn(*[T.tensor(a) for a in arrays]).data
    assert len(tape) == 0
    with Tape() as tape:
        on = fn(*[T.param(a) for a in arrays]).data
    assert len(tape) == 1
    return off, const, on


_SEG = np.array([0, 2, 2, 1, 0, 2, 4])  # segment 3 is empty
_PLAN = T.SegmentPlan(_SEG, 5)
_FULL_PLAN = T.SegmentPlan([4, 0, 3, 1, 2, 0], 5)  # every row gathered

OPS = {
    "add": (lambda a, b: T.add(a, b), [(4, 3), (3,)]),
    "sub": (lambda a, b: T.sub(a, b), [(4, 3), (4, 1)]),
    "mul": (lambda a, b: T.mul(a, b), [(4, 3), (4, 3)]),
    "matmul": (lambda a, b: T.matmul(a, b), [(4, 3), (3, 5)]),
    "affine": (lambda x, w, b: T.affine(x, w, b), [(4, 3), (3, 5), (5,)]),
    "relu": (T.relu, [(6, 5)]),
    "sigmoid": (T.sigmoid, [(4, 3)]),
    "sqrt": (T.sqrt, [(4, 3)]),
    "reciprocal": (T.reciprocal, [(4, 3)]),
    "concat0": (lambda a, b: T.concat([a, b], axis=0), [(2, 3), (4, 3)]),
    "concat1": (lambda a, b: T.concat([a, b], axis=1), [(4, 2), (4, 3)]),
    "narrow0": (lambda x: T.narrow(x, 0, 1, 3), [(5, 3)]),
    "narrow1": (lambda x: T.narrow(x, 1, 2, 2), [(5, 6)]),
    "gather_rows": (lambda x: T.gather_rows(x, _FULL_PLAN), [(5, 3)]),
    "gather_rows_plan": (lambda x: T.gather_rows(x, _PLAN), [(5, 3)]),
    "row_sum": (T.row_sum, [(4, 3)]),
    "sum_all": (T.sum_all, [(4, 3)]),
    "complete_mean": (T.complete_mean, [(6, 3)]),
    "segment_sum": (lambda x: T.segment_sum(x, _PLAN), [(7, 3)]),
    "segment_mean": (lambda x: T.segment_mean(x, _PLAN), [(7, 3)]),
    "segment_min": (lambda x: T.segment_min(x, _PLAN), [(7, 3)]),
    "segment_max": (lambda x: T.segment_max(x, _PLAN), [(7, 3)]),
    "segment_std": (lambda x: T.segment_std(x, _PLAN), [(7, 3)]),
    "mse": (lambda a, b: T.mse(a, b), [(4, 3), (4, 3)]),
    "softmax": (T.softmax, [(4, 3)]),
    "softmax_cross_entropy": (
        lambda x: T.softmax_cross_entropy(x, np.array([0, 2, 1, 2])), [(4, 3)]),
}


@pytest.mark.parametrize("name", sorted(OPS))
def test_op_same_bits_in_every_mode(name, rng):
    fn, shapes = OPS[name]
    arrays = [rng.standard_normal(s) for s in shapes]
    if name == "sqrt":
        arrays = [np.abs(a) for a in arrays]
    off, const, on = _op_modes(fn, *arrays)
    assert same_bits(off, const)
    assert same_bits(off, on)


def _net_modes(run):
    """run()'s value off tape, and on a tape that records the network's
    trainable parameters."""
    off = run().data
    with Tape() as tape:
        on = run().data
    assert len(tape) > 0
    return off, on


def _molecule_graph():
    m = parse_smiles("CC(C)CC(=O)OCN")
    pairs = [(i, j) for i, j, _ in m.bonds]
    return m, edges_from_pairs(m.n, pairs)


def test_pna_layer(rng):
    m, e = _molecule_graph()
    layer = PnaLayer(4, 8, rng)
    x = T.tensor(codec.atom_onehot(m.atoms) + rng.standard_normal((m.n, 4)))
    off, on = _net_modes(lambda: layer(x, e))
    assert same_bits(off, on)


@pytest.mark.parametrize("conv", ["gcn", "graph"])
def test_gcn_stack(conv, rng):
    m, e = _molecule_graph()
    # complete-graph layers take no edge index
    graph = (e,) if conv == "gcn" else ()
    net = GcnStack([3, 16, 16, 16, 3], rng, conv=conv)
    x = T.tensor(rng.standard_normal((m.n, 3)))
    off, on = _net_modes(lambda: net(x, *graph))
    assert same_bits(off, on)


def test_flow_field_net(rng):
    net = FlowFieldNet(2, rng, hidden=16, hidden_layers=3)
    x = T.tensor(rng.standard_normal((9, 2)))
    off, on = _net_modes(lambda: net(x, 0.37))
    assert same_bits(off, on)
    assert same_bits(off, net.velocity(0.37, x.data))


def test_egnn_net(rng):
    net = EgnnNet(2, rng, hidden=16, layers=2)
    x = T.tensor(rng.standard_normal((6, 2)))
    off, on = _net_modes(lambda: net(x, 0.4))
    assert same_bits(off, on)


@pytest.mark.parametrize("kind", ["gnn", "egnn"])
def test_edge_probs(kind, rng):
    ae = codec.GraphAutoencoder(2, rng, kind=kind, hidden=16)
    cloud = T.tensor(rng.standard_normal((6, 4)))
    off, on = _net_modes(lambda: codec.edge_probs(ae, cloud))
    assert same_bits(off, on)


def test_edge_type_logits(rng):
    etm = codec.EdgeTypeModel(rng, hidden=8)
    atoms = (Element.C, Element.N, Element.O, Element.C)
    e = edges_from_pairs(4, [(0, 1), (1, 2), (0, 3), (2, 3)])
    off, on = _net_modes(lambda: etm.pair_logits(atoms, e))
    assert same_bits(off, on)


def test_input_space_autoencoder(rng):
    ae = codec.InputSpaceAutoencoder(2, rng, hidden=8)
    g = codec.build_edges_as_nodes(parse_smiles("CC(=O)N"))
    off, on = _net_modes(lambda: ae.decode_t(ae.encode_t(g), g.edges))
    assert same_bits(off, on)


# ---------------------------------------------------------------------------
# relu at its edge cases


def _relu_modes(values):
    x = np.array(values)
    off = T.relu(T.tensor(x)).data
    with Tape():
        on = T.relu(T.param(x)).data
    return off, on


def test_relu_of_negative_zero_is_positive_zero():
    off, on = _relu_modes([-0.0, 0.0, -1.5, 2.0])
    assert same_bits(off, on)
    assert not np.any(np.signbit(off))
    assert np.array_equal(off, [0.0, 0.0, 0.0, 2.0])


def test_relu_propagates_nan():
    off, on = _relu_modes([np.nan, -1.0, 1.0])
    assert same_bits(off, on)
    assert np.isnan(off[0])
    assert np.array_equal(off[1:], [0.0, 1.0])
