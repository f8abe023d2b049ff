"""Pinned op counts: how many tape nodes one loss records and how many
tensors one velocity evaluation creates, on a 9-row cloud.

A count that rises means an extra op, or an O(n^2) message-passing path,
came back into a network that runs on complete graphs. A count that falls
is welcome: lower the pin in the same change.
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
    ("ddpm_gnn", 2, 29),
    ("heat", 1, 12),
    ("flow_matching", 2, 25),
])
def test_flow_loss_nodes(kind, width, nodes, cloud):
    flow = flows.build(kind, width, np.random.default_rng(1))
    with Tape() as tape:
        flow.loss(cloud[:, :width], np.random.default_rng(2))
    assert len(tape) == nodes


def test_reconstruction_loss_nodes():
    m = parse_smiles(NINE_ATOMS)
    assert m.n == 9
    ae = codec.GraphAutoencoder(2, np.random.default_rng(3))
    at = codec.AtomTypeAutoencoder(np.random.default_rng(4))
    with Tape() as tape:
        codec.reconstruction_loss(ae, at, m)
    assert len(tape) == 43


def test_edge_type_loss_nodes():
    m = parse_smiles(NINE_ATOMS)
    etm = codec.EdgeTypeModel(np.random.default_rng(6))
    with Tape() as tape:
        codec.edge_type_loss(etm, m)
    assert len(tape) == 18


def test_velocity_tensors(cloud, monkeypatch):
    net = FlowFieldNet(2, np.random.default_rng(5))
    made = []
    init = T.Tensor.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(T.Tensor, "__init__", counting)
    net.velocity(0.5, cloud)
    assert len(made) == 28
