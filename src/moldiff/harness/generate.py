"""De novo generation: sample a size, run the flow, decode, type the bonds."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .. import codec
from ..chem import MolGraph
from ..diffcore import tensor as T
from .train import TrainedPipeline

# clouds per batched decoder call; see generate_molecules
DECODE_CHUNK = 8


class NoSampleableSize(ValueError):
    """The flow can sample none of the training histogram's atom counts."""


def size_distribution(histogram: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The atom counts of ``histogram`` in increasing order, and their
    probabilities."""
    sizes = np.array(sorted(histogram))
    weights = np.array([histogram[int(s)] for s in sizes], dtype=np.float64)
    return sizes, weights / weights.sum()


def sample_clouds(pipe: TrainedPipeline, count: int,
                  rng: np.random.Generator) -> Iterator[tuple[int, np.ndarray]]:
    """``count`` pairs of an atom count and a standardized cloud from the
    flow. Each count is drawn from the training size histogram, restricted
    to the sizes the flow can sample; the distribution is built once.
    With ``count > 0`` and no such size, raises :class:`NoSampleableSize`
    before drawing from ``rng``."""
    histogram = pipe.dataset.size_histogram
    rows = {n: pipe.codec.rows(n) for n in histogram}
    # sizes the flow cannot sample (heat: none of its seed clouds) are skipped
    sampleable = {n: c for n, c in histogram.items() if pipe.flow.can_sample(rows[n])}
    if count > 0 and not sampleable:
        raise NoSampleableSize(f"the flow can sample none of the atom counts "
                               f"{sorted(histogram)} of the training histogram")
    sizes, p = size_distribution(sampleable)
    for _ in range(count):
        n = int(rng.choice(sizes, p=p))
        yield n, pipe.flow.sample(rows[n], rng)


def generate_molecules(pipe: TrainedPipeline, count: int,
                       rng: np.random.Generator) -> list[MolGraph]:
    """Generate ``count`` candidate molecules (valid or not), in three steps.

    All three run in one ``T.frozen_params()`` block, which the samplers'
    own blocks nest in: each network's stack plan, with its complete-graph
    layers folded, is made once per row count for the whole call rather
    than once per molecule. The molecules have the bits of a run without the
    block.

    1. Sample every cloud, one flow call per molecule from ``rng``. Each
       cloud is checked finite as it is sampled, so ``codec.NonFiniteCloud``
       leaves ``rng`` where the per-molecule loop left it.
    2. Decode each size group in chunks of at most ``DECODE_CHUNK`` clouds,
       one batched decoder call per chunk. A batch gives each cloud the
       bits it gets decoded alone. The chunk bounds memory: 64-cloud chunks
       raised the ``generate`` benchmark's peak resident memory from 45.1
       to 52.1 MB (+15%, over its 10% bound); chunks of 8 left it at 45.1.
    3. Type the bonds of each molecule, in sampling order.
    """
    with T.frozen_params():
        clouds: list[np.ndarray] = []
        groups: dict[int, list[int]] = {}  # atom count -> indices into clouds
        for n, cloud in sample_clouds(pipe, count, rng):
            points = pipe.standardizer.invert(cloud)
            codec.require_finite(points)
            groups.setdefault(n, []).append(len(clouds))
            clouds.append(points)
        candidates: list[codec.UntypedGraph | None] = [None] * len(clouds)
        for n, members in groups.items():
            for lo in range(0, len(members), DECODE_CHUNK):
                chunk = members[lo:lo + DECODE_CHUNK]
                graphs = pipe.codec.decode_batch(np.stack([clouds[k] for k in chunk]), n)
                for k, graph in zip(chunk, graphs):
                    candidates[k] = graph
        return [codec.predict_edge_types(pipe.edge_type, c)[0] for c in candidates]
