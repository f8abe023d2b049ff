"""Ops off the tape: they record nothing, and their values are the taped
values bit for bit.

An op decides whether it records before it builds anything for the
backward pass, so sampling and decoding, which run with no tape, never
reach the recording entry point. The same op under a tape must produce the
same bits, or trained models would sample differently from how they were
scored during training.
"""

import contextlib

import numpy as np
import pytest

from moldiff import codec, flows
from moldiff.chem import Element, parse_smiles
from moldiff.diffcore import Tape
from moldiff.diffcore import tensor as T
from moldiff.gnn import (
    EdgeIndex,
    EgnnNet,
    FlowFieldNet,
    GcnStack,
    Mlp,
    PnaLayer,
    edges_from_pairs,
)
from moldiff.harness.config import EXPERIMENTS

from conftest import mean_only


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
    kind = EXPERIMENTS[experiment].flow
    width = FLOW_WIDTH.get(kind, 2)
    clouds = [np.random.default_rng(7).standard_normal((rows, width))]
    return flows.build(kind, width, np.random.default_rng(0), clouds)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
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


# a batch of one is named by its kind alone
@pytest.mark.parametrize("kind, batch", [
    pytest.param(kind, batch, id=kind if batch == 1 else f"{kind}-{batch}")
    for kind in ("gnn", "egnn") for batch in (1, 3, 8)])
def test_decode_records_nothing(kind, batch, record_calls, monkeypatch):
    ae = codec.GraphAutoencoder(2, np.random.default_rng(0), kind=kind, hidden=16)
    at = codec.AtomTypeAutoencoder(np.random.default_rng(1))
    # keep every pair, so bond typing has edges to type
    monkeypatch.setattr(codec, "EDGE_THRESHOLD", 0.0)
    points = np.random.default_rng(2).standard_normal((batch, 5, 4))
    graphs = codec.decode_batch(ae, at, points)
    etm = codec.EdgeTypeModel(np.random.default_rng(3), hidden=8)
    for graph in graphs:
        codec.predict_edge_types(etm, graph)
    assert [len(graph.edges) for graph in graphs] == [10] * batch
    assert len(record_calls) == 0


@pytest.mark.parametrize("batch", [1, 3, 8])
def test_input_space_decode_records_nothing(batch, record_calls):
    ae = codec.InputSpaceAutoencoder(2, np.random.default_rng(0), hidden=8)
    latent = np.random.default_rng(1).standard_normal((batch, 4 + 6, 2))
    assert len(codec.input_space_decode_batch(ae, latent, 4)) == batch
    assert len(record_calls) == 0


# ---------------------------------------------------------------------------
# untaped values equal taped values, bit for bit


def _op_modes(fn, *arrays):
    """fn's value on constants off tape, on constants under a tape (which
    must record nothing), on trainable inputs under a tape, and off tape
    inside ``frozen_params``."""
    off = fn(*[T.tensor(a) for a in arrays]).data
    with Tape() as tape:
        const = fn(*[T.tensor(a) for a in arrays]).data
    assert len(tape) == 0
    with Tape() as tape:
        on = fn(*[T.param(a) for a in arrays]).data
    assert len(tape) == 1
    with T.frozen_params():
        frozen = fn(*[T.param(a) for a in arrays]).data
    return off, const, on, frozen


_SEG = np.array([0, 2, 2, 1, 0, 2, 4])  # segment 3 is empty
_PLAN = T.SegmentPlan(_SEG, 5)
_FULL_PLAN = T.SegmentPlan([4, 0, 3, 1, 2, 0], 5)  # every row gathered
_DST_PLAN = T.SegmentPlan([0, 2, 2, 1, 0, 2], 5)  # nodes 3 and 4 hear nothing
# a directed graph's GCN matrix: not symmetric
_PROP = EdgeIndex([0, 0, 1, 3, 4], [1, 2, 2, 2, 0], 5).gcn_matrix

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
    "concat_row": (lambda x: T.concat_row(x, np.array([0.25, -1.5])), [(4, 3)]),
    "narrow0": (lambda x: T.narrow(x, -2, 1, 3), [(5, 3)]),
    "narrow1": (lambda x: T.narrow(x, -1, 2, 2), [(5, 6)]),
    "gather_rows": (lambda x: T.gather_rows(x, _FULL_PLAN), [(5, 3)]),
    "gather_rows_plan": (lambda x: T.gather_rows(x, _PLAN), [(5, 3)]),
    "row_sum": (T.row_sum, [(4, 3)]),
    "pair_rows": (lambda x: T.pair_rows(x, _FULL_PLAN, _DST_PLAN), [(5, 3)]),
    "pair_mean": (T.pair_mean, [(6, 3)]),
    "complete_mean": (lambda x: T.relu_stack(x, mean_only(3)), [(6, 3)]),
    "complete_stack": (
        lambda x, w, wn, b, w2, b2: T.relu_stack(x, [(w, wn, b), (w2, None, b2)]),
        [(6, 3), (3, 4), (3, 4), (4,), (4, 2), (2,)]),
    "gcn_stack": (
        lambda x, w, b, w2, b2: T.relu_stack(x, [(w, None, b), (w2, None, b2)], _PROP),
        [(5, 3), (3, 4), (4,), (4, 2), (2,)]),
    "segment_mean": (lambda x: T.segment_mean(x, _PLAN), [(7, 3)]),
    "pna_aggregate": (lambda x: T.pna_aggregate(x, _FULL_PLAN, _DST_PLAN), [(5, 3)]),
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
    off, const, on, frozen = _op_modes(fn, *arrays)
    assert same_bits(off, const)
    assert same_bits(off, on)
    assert same_bits(off, frozen)


# ops a decoder runs on a (B, n, w) batch: name -> (fn, 2-D shapes, how
# many leading arguments take the batch axis)
BATCH_OPS = {
    "gather_rows": (lambda x: T.gather_rows(x, _PLAN), [(5, 3)], 1),
    "concat_rows": (lambda a, b: T.concat([a, b], axis=-2), [(2, 3), (4, 3)], 2),
    "concat_features": (lambda a, b: T.concat([a, b], axis=-1), [(4, 2), (4, 3)], 2),
    "concat_row": OPS["concat_row"] + (1,),
    "narrow_rows": (lambda x: T.narrow(x, -2, 1, 3), [(5, 3)], 1),
    "narrow_features": (lambda x: T.narrow(x, -1, 2, 2), [(5, 6)], 1),
    "affine": (T.affine, [(4, 3), (3, 5), (5,)], 1),
    "softmax": (T.softmax, [(4, 3)], 1),
    "row_sum": (T.row_sum, [(4, 3)], 1),
    "pair_rows": OPS["pair_rows"] + (1,),
    "pair_mean": OPS["pair_mean"] + (1,),
    "pna_aggregate": (lambda x: T.pna_aggregate(x, _FULL_PLAN, _DST_PLAN), [(5, 3)], 1),
    "complete_stack": OPS["complete_stack"] + (1,),
    "gcn_stack": OPS["gcn_stack"] + (1,),
}


@pytest.mark.parametrize("name", sorted(BATCH_OPS))
def test_batch_entries_same_bits_as_alone(name, rng):
    fn, shapes, batched = BATCH_OPS[name]
    arrays = [rng.standard_normal((3, *s) if k < batched else s) for k, s in enumerate(shapes)]
    whole = fn(*[T.tensor(a) for a in arrays]).data
    assert len(whole) == 3
    for b in range(3):
        alone = fn(*[T.tensor(a[b] if k < batched else a) for k, a in enumerate(arrays)]).data
        assert same_bits(whole[b], alone)


# relu_stack's branches: name -> (2-D x shape, (W, Wn, b) shapes per layer,
# prop); a None shape is a missing Wn
STACK_BRANCHES = {
    "dense": ((5, 3), [((3, 4), None, (4,)), ((4, 2), None, (2,))], None),
    "prop": ((5, 3), [((3, 4), None, (4,)), ((4, 2), None, (2,))], _PROP),
    "complete": ((6, 3), [((3, 4), (3, 4), (4,)), ((4, 2), (4, 2), (2,))], None),
    "one_row": ((1, 3), [((3, 4), (3, 4), (4,)), ((4, 2), (4, 2), (2,))], None),
}


@pytest.mark.parametrize("mode", ["off", "tape", "frozen", "batch"])
@pytest.mark.parametrize("branch", sorted(STACK_BRANCHES))
def test_relu_stack_leaves_its_operands_alone(branch, mode, rng):
    """The bias adds run in place into fresh products: the caller's x and
    every weight keep their bytes, and the output shares memory with none
    of them."""
    shape, layer_shapes, prop = STACK_BRANCHES[branch]
    x = rng.standard_normal((3, *shape) if mode == "batch" else shape)
    weights = [[None if s is None else rng.standard_normal(s) for s in layer]
               for layer in layer_shapes]
    operands = [x, *(a for layer in weights for a in layer if a is not None)]
    before = [a.copy() for a in operands]
    wrap = T.tensor if mode in ("off", "batch") else T.param
    layers = [tuple(None if a is None else wrap(a) for a in layer) for layer in weights]
    block = {"tape": Tape, "frozen": T.frozen_params}.get(mode, contextlib.nullcontext)
    with block():
        out = T.relu_stack(wrap(x), layers, prop).data
    for a, b in zip(operands, before):
        assert same_bits(a, b)
        assert not np.shares_memory(out, a)


# every 2-D product shape of the tape engine: forward, a (1, k) column sum
# times a matrix, the two backward forms and a Gram product
DOT_CASES = {
    "forward": lambda a, b: (a, b),
    "row": lambda a, b: (a.sum(axis=0, keepdims=True), b),
    "x_T_g": lambda a, b: (a.T, a @ b),
    "g_W_T": lambda a, b: (a @ b, b.T),
    "A_T_A": lambda a, b: (a.T, a),
}


@pytest.mark.parametrize("n", [1, 2, 9, 45])
@pytest.mark.parametrize("case", sorted(DOT_CASES))
@pytest.mark.parametrize("k, m", [(3, 64), (64, 64), (65, 2)])
def test_dot_same_bits_as_matmul(case, n, k, m, rng):
    a, b = DOT_CASES[case](rng.standard_normal((n, k)), rng.standard_normal((k, m)))
    got, want = T._dot(a, b), a @ b
    assert same_bits(got, want)
    assert got.flags.c_contiguous


def test_dot_broadcasts_a_batch(rng):
    h, w, prop = rng.standard_normal((3, 5, 4)), rng.standard_normal((4, 2)), _PROP
    assert same_bits(T._dot(h, w), h @ w)
    assert same_bits(T._dot(prop, h), prop @ h)


@pytest.mark.parametrize("name", ["affine", "pna_aggregate", "complete_stack"])
def test_batch_refused_on_a_recording_tape(name, rng):
    """These backward passes take 2-D inputs only."""
    fn, shapes, _ = BATCH_OPS[name]
    arrays = [rng.standard_normal((3, *s) if k == 0 else s) for k, s in enumerate(shapes)]
    with Tape():
        with pytest.raises(T.ShapeMismatch):
            fn(*[T.param(a) for a in arrays])


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
    # complete-graph stacks take no edge index
    graph = e if conv == "gcn" else None
    net = GcnStack([3, 16, 16, 16, 3], rng, conv=conv)
    x = T.tensor(rng.standard_normal((m.n, 3)))
    off, on = _net_modes(lambda: net(x, graph))
    assert same_bits(off, on)


def test_flow_field_net(rng):
    net = FlowFieldNet(2, rng, hidden=16, hidden_layers=3)
    x = T.tensor(rng.standard_normal((9, 2)))
    off, on = _net_modes(lambda: net(x, 0.37))
    assert same_bits(off, on)
    assert same_bits(off, net.velocity(0.37, x.data))


def test_egnn_net(rng):
    net = EgnnNet(rng, hidden=16, layers=2)
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
    off, on = _net_modes(lambda: ae.dec(ae.encode_t(g), g.edges))
    assert same_bits(off, on)


# ---------------------------------------------------------------------------
# frozen parameters: stack plans kept for one block


def _held() -> tuple[int, int]:
    """The plans the open block keeps, and the folded layers in them."""
    plans = [plan for _, plan in T._PLANS.values()]
    return len(plans), sum(wq is not None for plan in plans for _, wq, _ in plan)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_sampler_same_bits_as_outside_the_block(experiment, monkeypatch):
    flow = _flow(experiment, 9)
    frozen = flow.sample(9, np.random.default_rng(1))
    monkeypatch.setattr(T, "frozen_params", contextlib.nullcontext)
    assert same_bits(flow.sample(9, np.random.default_rng(1)), frozen)


# one plan per network and row count: the egnn's 12 MLPs run on 72 pairs
# (edge and coordinate MLPs) and on 9 nodes, and fold nothing
PLANS = {"gnn_gaussian": 1, "heat_1d": 1, "flow_matching": 1, "egnn_gaussian": 12}


@pytest.mark.parametrize("experiment, folds", [("gnn_gaussian", 7), ("heat_1d", 3),
                                               ("flow_matching", 1), ("egnn_gaussian", 0)])
def test_sampler_folds_each_layer_once(experiment, folds, monkeypatch):
    """A sample runs in one block and ends it holding one plan per network
    and one fold per complete-graph layer, however many steps it took."""
    flow = _flow(experiment, 9)
    held = []
    block = T.frozen_params

    @contextlib.contextmanager
    def watched():
        with block():
            yield
            held.append(_held())

    monkeypatch.setattr(T, "frozen_params", watched)
    flow.sample(9, np.random.default_rng(1))
    assert held == [(PLANS[experiment], folds)]
    assert T._PLANS is None


def test_no_tape_inside_the_block_nor_block_inside_a_tape():
    with T.frozen_params():
        with pytest.raises(RuntimeError):
            with Tape():
                pass
    with Tape():
        with pytest.raises(RuntimeError):
            with T.frozen_params():
                pass
    with Tape() as tape:  # neither refusal left anything behind
        T.mul(T.param(np.ones(2)), 2.0)
    assert len(tape) == 1


def test_folds_dropped_on_an_exception(rng):
    net = GcnStack([3, 8, 3], rng, conv="graph")
    x = T.tensor(rng.standard_normal((5, 3)))
    with pytest.raises(KeyError):
        with T.frozen_params():
            net(x)
            assert _held() == (1, 2)
            raise KeyError("inside the block")
    assert T._PLANS is None


def test_one_block_folds_per_row_count(rng):
    net = GcnStack([3, 8, 3], rng, conv="graph")
    xs = [T.tensor(rng.standard_normal((n, 3))) for n in (5, 7, 1, 5)]
    with T.frozen_params():
        inside = [net(x).data for x in xs[:2]]
        with T.frozen_params():  # a block inside a block shares its plans
            inside += [net(x).data for x in xs[2:]]
        # a plan at 5, 7 and 1 rows; two folded layers at 5 and at 7, none at 1
        assert _held() == (3, 2 * 2)
    for x, got in zip(xs, inside):
        assert same_bits(got, net(x).data)


def test_one_plan_whatever_graph_a_gcn_stack_gets(rng):
    """``prop`` is read when the plan runs: graphs of one size share a plan
    and each gives the bits it gives outside the block."""
    net = GcnStack([3, 8, 3], rng)
    x = T.tensor(rng.standard_normal((4, 3)))
    graphs = [edges_from_pairs(4, pairs) for pairs in
              ([(0, 1), (1, 2)], [(0, 3)], [(0, 1), (1, 2), (2, 3), (3, 0)])]
    with T.frozen_params():
        inside = [net(x, e).data for e in graphs]
        assert _held() == (1, 0)
    outside = [net(x, e).data for e in graphs]
    assert all(same_bits(a, b) for a, b in zip(inside, outside))
    assert not np.array_equal(inside[0], inside[1])


# (network, its tensor to change, a call) per stack kind: complete-graph,
# dense, and the velocity net, whose entry layer folds and tower does not
CHANGED = {
    "graph": (lambda rng: GcnStack([3, 8, 3], rng, conv="graph"),
              lambda net: net.layers[1].W_nbr, lambda net, x: net(x)),
    "dense": (lambda rng: Mlp([3, 8, 3], rng), lambda net: net.layers[1].W,
              lambda net, x: net(x)),
    "velocity": (lambda rng: FlowFieldNet(3, rng, hidden=8, hidden_layers=2),
                 lambda net: net.entry.W_self, lambda net, x: net(x, 0.3)),
}


@pytest.mark.parametrize("change", ["in_place", "rebound"])
def test_parameter_changed_between_blocks_is_seen(change, rng):
    for build, tensor_of, call in CHANGED.values():
        net = build(rng)
        x = T.tensor(rng.standard_normal((5, 3)))
        with T.frozen_params():
            before = call(net, x).data
        p = tensor_of(net)
        if change == "in_place":
            p.data *= 2.0
        else:
            p.data = 2.0 * p.data
        with T.frozen_params():
            after = call(net, x).data
        assert same_bits(after, call(net, x).data)
        assert not np.array_equal(after, before)


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
