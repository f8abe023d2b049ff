"""Pinned op counts: how many tape nodes one loss records and how many
tensors one velocity evaluation creates, on a 9-row cloud or a 9-atom
molecule.

Every ReLU stack (MLP, GCN stack, complete-graph stack) records one
``T.relu_stack`` node, and a PNA layer two. A count that rises means an
extra op, a stack split back into per-layer nodes, or an O(n^2)
message-passing path come back into a network that runs on complete
graphs. A count that falls is welcome: lower the pin in the same change.
"""

import numpy as np
import pytest

from moldiff import codec, flows
from moldiff.chem import parse_smiles
from moldiff.diffcore import Tape
from moldiff.diffcore import tensor as T
from moldiff.gnn import FlowFieldNet

NINE_ATOMS = "CC(C)CC(=O)OCN"


@pytest.fixture()
def cloud():
    return np.random.default_rng(0).standard_normal((9, 2))


@pytest.mark.parametrize("kind, width, nodes", [
    ("ddpm_gnn", 2, 4),
    ("ddpm_egnn", 2, 78),
    ("heat", 1, 3),
    ("flow_matching", 2, 2),
])
def test_flow_loss_nodes(kind, width, nodes, cloud):
    flow = flows.build(kind, width, np.random.default_rng(1))
    with Tape() as tape:
        flow.loss(cloud[:, :width], np.random.default_rng(2))
    assert len(tape) == nodes


def _reconstruction_loss_nodes(kind: str) -> int:
    m = parse_smiles(NINE_ATOMS)
    assert m.n == 9
    ae = codec.GraphAutoencoder(2, np.random.default_rng(3), kind=kind)
    at = codec.AtomTypeAutoencoder(np.random.default_rng(4))
    with Tape() as tape:
        codec.reconstruction_loss(ae, at, m)
    return len(tape)


def test_reconstruction_loss_nodes():
    assert _reconstruction_loss_nodes("gnn") == 26


def test_egnn_reconstruction_loss_nodes():
    assert _reconstruction_loss_nodes("egnn") == 28


def test_input_space_loss_nodes():
    ae = codec.InputSpaceAutoencoder(2, np.random.default_rng(7))
    g = codec.build_edges_as_nodes(parse_smiles(NINE_ATOMS))
    with Tape() as tape:
        codec.input_space_loss(ae, g)
    assert len(tape) == 11


def test_edge_type_loss_nodes():
    m = parse_smiles(NINE_ATOMS)
    etm = codec.EdgeTypeModel(np.random.default_rng(6))
    with Tape() as tape:
        codec.edge_type_loss(etm, m)
    assert len(tape) == 11


def test_velocity_tensors(cloud, monkeypatch):
    net = FlowFieldNet(2, np.random.default_rng(5))
    made = []
    init = T.Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(T.Tensor, "__init__", counting)
    net.velocity(0.5, cloud)
    assert len(made) == 3  # the cloud, the net input, the velocity
