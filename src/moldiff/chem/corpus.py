"""Deterministic QM9-flavored synthetic corpus.

Builds chemically valid heavy-atom molecules (connected trees plus a few
ring closures, occasional aromatic six-rings, bond-order upgrades) with a
size and element mix skewed the way small-organic datasets are. Used by
tests and desk-scale runs whenever a real dataset file is not mounted.
"""

from __future__ import annotations

import numpy as np

from .graph import BondType, Element, MolGraph, check_validity

_SIZE_WEIGHTS = {1: 0.002, 2: 0.003, 3: 0.005, 4: 0.01, 5: 0.02,
                 6: 0.04, 7: 0.09, 8: 0.18, 9: 0.65}
_ELEMENT_WEIGHTS = [(Element.C, 0.72), (Element.N, 0.12),
                    (Element.O, 0.14), (Element.F, 0.02)]


def _free_halves(atoms: list[Element], half_used: list[int], i: int) -> int:
    return 2 * atoms[i].max_valence - half_used[i]


def _random_molecule(rng: np.random.Generator) -> MolGraph | None:
    sizes = np.array(list(_SIZE_WEIGHTS))
    probs = np.array(list(_SIZE_WEIGHTS.values()))
    n = int(rng.choice(sizes, p=probs / probs.sum()))

    atoms: list[Element] = []
    bonds: dict[tuple[int, int], BondType] = {}
    half_used = [0] * n

    elems = [e for e, _ in _ELEMENT_WEIGHTS]
    eprobs = np.array([w for _, w in _ELEMENT_WEIGHTS])
    eprobs /= eprobs.sum()

    aromatic_ring: list[int] = []
    if n >= 7 and rng.random() < 0.18:
        # plant a benzene-like core, remaining atoms attach to it
        aromatic_ring = list(range(6))
        atoms.extend([Element.C] * 6)
        for k in range(6):
            a, b = k, (k + 1) % 6
            bonds[(min(a, b), max(a, b))] = BondType.AROMATIC
            half_used[a] += BondType.AROMATIC.half_order
            half_used[b] += BondType.AROMATIC.half_order

    while len(atoms) < n:
        el = elems[int(rng.choice(len(elems), p=eprobs))]
        idx = len(atoms)
        atoms.append(el)
        if idx == 0:
            continue
        hosts = [i for i in range(idx) if _free_halves(atoms, half_used, i) >= 2]
        if not hosts:
            return None
        host = int(hosts[int(rng.integers(len(hosts)))])
        bonds[(host, idx)] = BondType.SINGLE
        half_used[host] += 2
        half_used[idx] += 2

    # optional extra ring closures between non-adjacent atoms with slack
    for _ in range(int(rng.integers(0, 3))):
        if n < 3 or rng.random() > 0.35:
            continue
        open_atoms = [i for i in range(n) if _free_halves(atoms, half_used, i) >= 2]
        if len(open_atoms) < 2:
            continue
        i, j = rng.choice(open_atoms, size=2, replace=False)
        i, j = int(min(i, j)), int(max(i, j))
        if i == j or (i, j) in bonds:
            continue
        bonds[(i, j)] = BondType.SINGLE
        half_used[i] += 2
        half_used[j] += 2

    # upgrade a few single bonds to double/triple where slack allows
    for (i, j), t in list(bonds.items()):
        if t is not BondType.SINGLE or rng.random() > 0.22:
            continue
        slack = min(_free_halves(atoms, half_used, i), _free_halves(atoms, half_used, j))
        if slack >= 4 and rng.random() < 0.25:
            bonds[(i, j)] = BondType.TRIPLE
            half_used[i] += 4
            half_used[j] += 4
        elif slack >= 2:
            bonds[(i, j)] = BondType.DOUBLE
            half_used[i] += 2
            half_used[j] += 2

    mol = MolGraph(tuple(atoms), frozenset((i, j, t) for (i, j), t in bonds.items()))
    return mol if check_validity(mol).valid else None


def synthetic_molecules(count: int, seed: int = 0) -> list[MolGraph]:
    """Generate ``count`` valid molecules, deterministically for a seed."""
    rng = np.random.default_rng(seed)
    out: list[MolGraph] = []
    while len(out) < count:
        mol = _random_molecule(rng)
        if mol is not None:
            out.append(mol)
    return out

