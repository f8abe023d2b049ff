"""De novo generation: sample a size, run the flow, decode, type the bonds."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator

import numpy as np

from .. import codec
from ..chem import MolGraph
from ..diffcore import tensor as T
from .train import TrainedPipeline, cloud_molecules

# clouds per batched decoder call; see generate_molecules
DECODE_CHUNK = 8


class NegativeCount(ValueError):
    """A negative number of molecules was asked for."""


def sample_clouds(pipe: TrainedPipeline, count: int,
                  rng: np.random.Generator) -> Iterator[tuple[int, np.ndarray]]:
    """``count`` pairs of an atom count and a standardized cloud from the
    flow. Each count is drawn from the atom counts of the molecules whose
    clouds trained the flow (:func:`cloud_molecules`), so every flow can
    sample it; heat's seed pool holds those clouds. The cumulative table is
    built once per call, and a lookup in it draws what
    ``rng.choice(sizes, p=p)`` draws. With ``count > 0`` and no training
    cloud, raises :class:`DatasetError` before drawing from ``rng``."""
    if count < 1:
        return
    histogram = Counter(m.n for m in cloud_molecules(pipe))
    sizes = np.array(sorted(histogram))
    weights = np.array([histogram[n] for n in sizes], dtype=np.float64)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    for _ in range(count):
        n = int(sizes[cdf.searchsorted(rng.random(), side="right")])
        yield n, pipe.flow.sample(pipe.codec.rows(n), rng)


def generate_molecules(pipe: TrainedPipeline, count: int,
                       rng: np.random.Generator) -> list[MolGraph]:
    """Generate ``count`` candidate molecules (valid or not), in three steps.

    All three run in one ``T.frozen_params()`` block, which the samplers'
    own blocks nest in: each network's stack plan, with its complete-graph
    layers folded, is made once per row count for the whole call rather
    than once per molecule. The molecules have the bits of a run without the
    block.

    1. Sample every cloud, one flow call per molecule from ``rng``, at an
       atom count of the flow's training molecules (:func:`sample_clouds`).
       Each cloud is checked finite as it is sampled, so ``codec.NonFiniteCloud``
       leaves ``rng`` where the per-molecule loop left it.
    2. Decode each size group in chunks of at most ``DECODE_CHUNK`` clouds,
       one batched decoder call per chunk. A batch gives each cloud the
       bits it gets decoded alone. The chunk bounds memory: 64-cloud chunks
       raised the ``generate`` benchmark's peak resident memory from 45.1
       to 52.1 MB (+15%, over its 10% bound); chunks of 8 left it at 45.1.
    3. Type the bonds of each molecule, in sampling order.

    A count of 0 gives no molecules; a negative count raises
    :class:`NegativeCount`, and a pipeline with no training cloud raises
    :class:`DatasetError`, both before drawing from ``rng``.
    """
    if count < 0:
        raise NegativeCount(f"cannot generate {count} molecules")
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
