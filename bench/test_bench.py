"""Tests of the benchmark's own checks, plus a smoke run of each workload.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import instrument  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from moldiff.chem import BondType, molgraph, parse_smiles, synthetic_molecules  # noqa: E402


class TestValidity:
    def test_over_valence_carbon(self):
        m = parse_smiles("FC(F)(F)(F)F")
        assert checks.over_valence_atoms(m) == [1]
        assert not checks.is_valid(m)

    def test_dot_joined_pair_is_disconnected(self):
        m = parse_smiles("CCO.NC=O")
        assert not checks.is_connected(m)
        assert checks.validity_faults(m) == ["disconnected"]

    def test_benzene_and_saturated_molecules_are_valid(self):
        for smi in ("c1ccccc1", "CC(C)(C)C", "N#CC=O", "FC(F)(F)F"):
            assert checks.is_valid(parse_smiles(smi)), smi

    def test_aromatic_bond_off_a_cycle(self):
        chain = molgraph("CCC", [(0, 1, BondType.AROMATIC), (1, 2, BondType.AROMATIC)])
        faults = checks.aromatic_faults(chain)
        assert "aromatic bond (0,1) is a bridge" in faults
        assert "atom 0 has one aromatic bond" in faults

    def test_aromatic_double_counts_half_orders(self):
        # three aromatic bonds on one carbon: order 4.5 > 4
        m = molgraph("CCCC", [(0, 1, BondType.AROMATIC), (0, 2, BondType.AROMATIC),
                              (0, 3, BondType.AROMATIC), (1, 2, BondType.AROMATIC),
                              (2, 3, BondType.AROMATIC), (1, 3, BondType.AROMATIC)])
        assert checks.over_valence_atoms(m) == [0, 1, 2, 3]


class TestIsomorphism:
    def test_permuted_copy(self):
        m = parse_smiles("OC1=CC(N)=CC=C1F")
        perm = [4, 0, 7, 2, 8, 1, 3, 6, 5]
        assert checks.isomorphic(m, m.permuted(perm))

    def test_bond_type_and_element_matter(self):
        assert not checks.isomorphic(parse_smiles("C=CC"), parse_smiles("CCC"))
        assert not checks.isomorphic(parse_smiles("CCO"), parse_smiles("CCN"))

    def test_same_invariant_different_graph(self):
        # two 6-cycles vs. two 3-cycles: every atom is a degree-2 carbon
        a = molgraph("CCCCCC", [(i, (i + 1) % 6, BondType.SINGLE) for i in range(6)])
        b = molgraph("CCCCCC", [(0, 1, BondType.SINGLE), (1, 2, BondType.SINGLE),
                                (0, 2, BondType.SINGLE), (3, 4, BondType.SINGLE),
                                (4, 5, BondType.SINGLE), (3, 5, BondType.SINGLE)])
        assert checks.invariant(a) == checks.invariant(b)
        assert not checks.isomorphic(a, b)

    def test_agrees_with_networkx(self):
        nx = pytest.importorskip("networkx")

        def graph(m):
            g = nx.Graph()
            g.add_nodes_from((i, {"el": a.name}) for i, a in enumerate(m.atoms))
            g.add_edges_from((i, j, {"bt": t.name}) for i, j, t in m.bonds)
            return g

        mols = [m for m in synthetic_molecules(300, seed=5) if m.n >= 6]
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = (mols[int(k)] for k in rng.integers(len(mols), size=2))
            b = b.permuted([int(p) for p in rng.permutation(b.n)])
            want = nx.is_isomorphic(graph(a), graph(b), node_match=lambda x, y: x == y,
                                    edge_match=lambda x, y: x == y)
            assert checks.isomorphic(a, b) == want
            assert checks.isomorphic(a, a.permuted([int(p) for p in rng.permutation(a.n)]))

    def test_classes(self):
        mols = [parse_smiles(s) for s in ("CCO", "OCC", "CCN", "C(C)O", "NCC")]
        assert sorted(map(sorted, checks.iso_classes(mols))) == [[0, 1, 3], [2, 4]]


TINY = {
    "train": workloads.TrainSizes(pool=200, quota=((9, 2), (8, 1)), epochs=2, held_out=2),
    "generate": workloads.GenerateSizes(
        pool=200, quota=((9, 2), (8, 1)), epochs=1,
        counts=(("gnn_gaussian", 2), ("input_space_gaussian", 1), ("heat_1d", 2),
                ("flow_matching", 1)),
        check_counts=(("gnn_gaussian", 1), ("input_space_gaussian", 1), ("heat_1d", 1),
                      ("flow_matching", 1))),
    "score": workloads.ScoreSizes(training=30, novel=10, copies=5, pairs=3, over=3),
}


def _declared(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == instrument.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", ["train", "generate", "score"])
def test_workload_smoke(name, trace, tmp_path):
    result, record, _ = run.measure(name, 0, 0.0, trace, tmp_path, TINY[name])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_ROUNDS
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == _declared(kind)
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "score", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
