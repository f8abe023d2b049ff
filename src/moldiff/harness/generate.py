"""De novo generation: sample a size, run the flow, decode, type the bonds."""

from __future__ import annotations

import numpy as np

from .. import codec
from ..chem import MolGraph
from .train import TrainedPipeline


def sample_atom_count(histogram: dict[int, int], rng: np.random.Generator) -> int:
    sizes = np.array(sorted(histogram))
    weights = np.array([histogram[int(s)] for s in sizes], dtype=np.float64)
    return int(rng.choice(sizes, p=weights / weights.sum()))


def generate_molecules(pipe: TrainedPipeline, count: int,
                       rng: np.random.Generator) -> list[MolGraph]:
    """Generate ``count`` candidate molecules (valid or not)."""
    # an input-space cloud has a row per atom and a row per atom pair
    rows = {n: n if pipe.input_ae is None else n + n * (n - 1) // 2
            for n in pipe.dataset.size_histogram}
    # sizes the flow cannot sample (heat: none of its seed clouds) are skipped
    histogram = {n: c for n, c in pipe.dataset.size_histogram.items()
                 if pipe.flow.can_sample(rows[n])}

    out: list[MolGraph] = []
    for _ in range(count):
        n = sample_atom_count(histogram, rng)
        points = pipe.standardizer.invert(pipe.flow.sample(rows[n], rng))
        if pipe.input_ae is not None:
            candidate = codec.input_space_decode(pipe.input_ae, points, n)
        else:
            candidate = codec.decode(pipe.graph_ae, pipe.atom_ae, points)
        mol, _dropped = codec.predict_edge_types(pipe.edge_type, candidate)
        out.append(mol)
    return out
