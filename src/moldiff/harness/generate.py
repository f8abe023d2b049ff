"""De novo generation: sample a size, run the flow, decode, type the bonds."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .. import codec
from ..chem import MolGraph
from .train import TrainedPipeline


def size_distribution(histogram: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The atom counts of ``histogram`` in increasing order, and their
    probabilities."""
    sizes = np.array(sorted(histogram))
    weights = np.array([histogram[int(s)] for s in sizes], dtype=np.float64)
    return sizes, weights / weights.sum()


def sample_atom_count(histogram: dict[int, int], rng: np.random.Generator) -> int:
    sizes, p = size_distribution(histogram)
    return int(rng.choice(sizes, p=p))


def sample_clouds(pipe: TrainedPipeline, count: int,
                  rng: np.random.Generator) -> Iterator[tuple[int, np.ndarray]]:
    """``count`` pairs of an atom count and a standardized cloud from the
    flow. Each count is drawn from the training size histogram, restricted
    to the sizes the flow can sample; the distribution is built once."""
    # an input-space cloud has a row per atom and a row per atom pair
    rows = {n: n if pipe.input_ae is None else n + n * (n - 1) // 2
            for n in pipe.dataset.size_histogram}
    # sizes the flow cannot sample (heat: none of its seed clouds) are skipped
    sizes, p = size_distribution({n: c for n, c in pipe.dataset.size_histogram.items()
                                  if pipe.flow.can_sample(rows[n])})
    for _ in range(count):
        n = int(rng.choice(sizes, p=p))
        yield n, pipe.flow.sample(rows[n], rng)


def generate_molecules(pipe: TrainedPipeline, count: int,
                       rng: np.random.Generator) -> list[MolGraph]:
    """Generate ``count`` candidate molecules (valid or not)."""
    out: list[MolGraph] = []
    for n, cloud in sample_clouds(pipe, count, rng):
        points = pipe.standardizer.invert(cloud)
        if pipe.input_ae is not None:
            candidate = codec.input_space_decode(pipe.input_ae, points, n)
        else:
            candidate = codec.decode(pipe.graph_ae, pipe.atom_ae, points)
        mol, _dropped = codec.predict_edge_types(pipe.edge_type, candidate)
        out.append(mol)
    return out
