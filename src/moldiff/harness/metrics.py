"""Validity / uniqueness / novelty scoring.

Validity is the fraction of candidates passing the chemical checks.
Uniqueness is the fraction of distinct canonical keys among the valid
candidates. Novelty is the fraction of those distinct valid molecules
whose key does not occur in the training set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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

    def to_dict(self) -> dict:
        return asdict(self)


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
