"""Validity / uniqueness / novelty scoring, and a latent-space metric.

Validity is the fraction of candidates passing the chemical checks.
Uniqueness is the fraction of distinct canonical keys among the valid
candidates. Novelty is the fraction of those distinct valid molecules
whose key does not occur in the training set.

V/U/N judge the whole pipeline, and the autoencoder caps them.
:func:`latent_mmd` judges the flow alone: how far its sampled clouds are
from the encoded training clouds.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..chem import Dataset, MolGraph, canonical_key, check_validity


class EmptyCandidateSet(ValueError):
    pass


@dataclass
class MetricsReport:
    experiment: str = ""
    latent_z: int = 0
    validity: float = 0.0
    uniqueness: float = 0.0
    novelty: float = 0.0
    ae_seconds: float = 0.0
    flow_seconds: float = 0.0
    params: int = 0
    count: int = 0
    unparsed: int = 0
    degenerate: bool = False
    latent_mmd: float = math.nan

    def to_dict(self) -> dict:
        """The fields by name, as strict JSON takes them: a NaN
        ``latent_mmd`` (not measured) is None."""
        out = asdict(self)
        if math.isnan(self.latent_mmd):
            out["latent_mmd"] = None
        return out


def evaluate(candidates: list[MolGraph | None], training: Dataset) -> MetricsReport:
    """Score a candidate batch against the training set. A None candidate
    is one whose SMILES did not parse: it counts as invalid, and in
    ``unparsed``."""
    if not candidates:
        raise EmptyCandidateSet("no candidates to evaluate")
    valid = [m for m in candidates if m is not None and check_validity(m).valid]
    report = MetricsReport(count=len(candidates), unparsed=candidates.count(None))
    report.validity = 100.0 * len(valid) / len(candidates)
    if not valid:
        report.degenerate = True
        return report
    distinct = {canonical_key(m) for m in valid}
    report.uniqueness = 100.0 * len(distinct) / len(valid)
    novel = distinct - training.canonical_keys
    report.novelty = 100.0 * len(novel) / len(distinct)
    return report


def mean_report(reports: list[MetricsReport]) -> MetricsReport:
    """Average percentage metrics across repetitions; counts accumulate."""
    if not reports:
        raise EmptyCandidateSet("no reports to average")
    first = reports[0]
    k = len(reports)
    return MetricsReport(
        experiment=first.experiment,
        latent_z=first.latent_z,
        validity=sum(r.validity for r in reports) / k,
        uniqueness=sum(r.uniqueness for r in reports) / k,
        novelty=sum(r.novelty for r in reports) / k,
        ae_seconds=first.ae_seconds,
        flow_seconds=first.flow_seconds,
        params=first.params,
        count=sum(r.count for r in reports),
        unparsed=sum(r.unparsed for r in reports),
        degenerate=all(r.degenerate for r in reports),
    )


def _sorted_flat(cloud: np.ndarray) -> np.ndarray:
    """The cloud's rows in lexicographic order, as one vector: the same
    vector for any order of the rows."""
    cloud = np.asarray(cloud, dtype=np.float64)
    return cloud[np.lexsort(cloud.T[::-1])].ravel()


def _by_rows(clouds) -> dict[int, np.ndarray]:
    groups: dict[int, list[np.ndarray]] = {}
    for c in clouds:
        groups.setdefault(len(c), []).append(_sorted_flat(c))
    return {rows: np.array(vs) for rows, vs in groups.items()}


def _sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum((a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * a @ b.T, 0.0)


def latent_mmd(samples, reference) -> float:
    """Unbiased squared MMD between sampled and reference latent clouds.

    Clouds are compared only with clouds of the same row count, each as
    one vector: its rows sorted lexicographically, then flattened. For
    each row count with at least 2 clouds on both sides, the Gaussian
    kernel ``exp(-d^2 / (2 s^2))`` takes as ``s`` the median pairwise
    distance among that count's reference clouds (1 if they all
    coincide). The result is the mean over those counts, weighted by each
    count's number of sampled clouds; NaN when no count qualifies.
    """
    xs, ys = _by_rows(samples), _by_rows(reference)
    total, weight = 0.0, 0
    for rows in sorted(xs.keys() & ys.keys()):
        x, y = xs[rows], ys[rows]
        m, n = len(x), len(y)
        if m < 2 or n < 2:
            continue
        dyy = _sq_dists(y, y)
        s2 = float(np.median(np.sqrt(dyy[np.triu_indices(n, 1)]))) ** 2 or 1.0
        kxx = np.exp(-_sq_dists(x, x) / (2.0 * s2))
        kyy = np.exp(-dyy / (2.0 * s2))
        kxy = np.exp(-_sq_dists(x, y) / (2.0 * s2))
        mmd2 = ((kxx.sum() - np.trace(kxx)) / (m * (m - 1))
                + (kyy.sum() - np.trace(kyy)) / (n * (n - 1)) - 2.0 * kxy.mean())
        total += m * mmd2
        weight += m
    return float(total / weight) if weight else math.nan
