"""Dataset loading: one SMILES per line, hash comments, skip-and-count policy."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .canon import canonical_key
from .graph import MolGraph
from .smiles import SmilesError, parse_smiles

MAX_HEAVY_ATOMS = 9


class FileUnreadable(OSError):
    pass


class AllLinesFailed(ValueError):
    pass


@dataclass
class Dataset:
    """Molecules of one source, with their canonical keys and size histogram.

    ``canonical_keys`` holds :func:`canonical_key` of every molecule, so its
    size is the number of isomorphism classes. A key is defined for any
    ``MolGraph``, connected or not. Two keys are equal exactly when their
    molecules are isomorphic: same elements, same bond types. The key bytes
    hold only within one program version.
    """

    molecules: list[MolGraph]
    canonical_keys: set[bytes]
    size_histogram: dict[int, int]
    skipped: int = 0
    source: str = ""

    def __len__(self) -> int:
        return len(self.molecules)


def load_dataset(path) -> Dataset:
    """Load molecules from a SMILES text file.

    Lines starting with '#' and blank lines are ignored. Lines that fail to
    parse, or whose molecule exceeds the heavy-atom cap, are skipped and
    counted rather than aborting the load.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot read dataset {p}: {exc}") from exc

    molecules: list[MolGraph] = []
    skipped = 0
    attempted = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        attempted += 1
        smiles = line.split()[0]
        try:
            mol = parse_smiles(smiles)
        except SmilesError:
            skipped += 1
            continue
        if mol.n > MAX_HEAVY_ATOMS:
            skipped += 1
            continue
        molecules.append(mol)

    if attempted == 0:
        raise AllLinesFailed(f"{p}: no data lines")
    if not molecules:
        raise AllLinesFailed(f"{p}: all {attempted} lines failed to parse")

    keys = {canonical_key(m) for m in molecules}
    histogram = dict(Counter(m.n for m in molecules))
    return Dataset(molecules=molecules, canonical_keys=keys,
                   size_histogram=histogram, skipped=skipped, source=str(p))
