"""Molecular graphs, SMILES subset I/O, validity, canonical keys, datasets."""

from .canon import canonical_key
from .dataset import AllLinesFailed, Dataset, FileUnreadable, load_dataset, read_smiles
from .graph import (
    BOND_TYPES,
    ELEMENTS,
    BondType,
    Element,
    MolGraph,
    ValidityReport,
    check_validity,
    molgraph,
)
from .smiles import (
    EmptyInput,
    SmilesError,
    UnbalancedParenthesis,
    UnclosedRing,
    UnsupportedAtom,
    parse_smiles,
    write_smiles,
)
from .corpus import BadWeights, Categorical, synthetic_molecules

__all__ = [
    "AllLinesFailed", "BOND_TYPES", "BadWeights", "BondType", "Categorical",
    "Dataset", "ELEMENTS", "Element", "EmptyInput", "FileUnreadable",
    "MolGraph", "SmilesError", "UnbalancedParenthesis", "UnclosedRing",
    "UnsupportedAtom", "ValidityReport", "canonical_key", "check_validity",
    "load_dataset", "molgraph", "parse_smiles", "read_smiles",
    "synthetic_molecules", "write_smiles",
]
