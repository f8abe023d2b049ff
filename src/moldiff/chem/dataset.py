"""SMILES files and datasets: :func:`read_smiles` is the one reader of a
SMILES file, and :meth:`Dataset.of` the one builder of a dataset's
canonical keys and size histogram."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
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

    @classmethod
    def of(cls, molecules: list[MolGraph], skipped: int = 0, source: str = "") -> "Dataset":
        """The dataset of ``molecules``, with their keys and size histogram."""
        return cls(molecules=molecules,
                   canonical_keys={canonical_key(m) for m in molecules},
                   size_histogram=dict(Counter(m.n for m in molecules)),
                   skipped=skipped, source=source)


def read_smiles(path) -> list[MolGraph | None]:
    """One molecule per data line of a SMILES file, or None where its SMILES
    does not parse. Lines are stripped, blank and '#' lines skipped, and the
    first whitespace-separated token is the SMILES, so a name may follow.
    Raises :class:`FileUnreadable`."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise FileUnreadable(f"cannot read {p}: {exc}") from exc
    out: list[MolGraph | None] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(parse_smiles(line.split()[0]))
        except SmilesError:
            out.append(None)
    return out


def load_dataset(path) -> Dataset:
    """Load the molecules of a SMILES file, as :func:`read_smiles` reads it.

    A line that does not parse, or whose molecule exceeds the heavy-atom
    cap, is skipped and counted rather than aborting the load.
    """
    p = Path(path)
    parsed = read_smiles(p)
    molecules = [m for m in parsed if m is not None and m.n <= MAX_HEAVY_ATOMS]
    if not parsed:
        raise AllLinesFailed(f"{p}: no data lines")
    if not molecules:
        raise AllLinesFailed(f"{p}: all {len(parsed)} lines failed to parse")
    return Dataset.of(molecules, skipped=len(parsed) - len(molecules), source=str(p))
