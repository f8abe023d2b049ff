"""Molecular graph data model and valence-based validity checking.

Molecules are heavy-atom graphs over C/N/O/F; hydrogens are implicit and
never stored (valence slack is understood to be filled by hydrogens).
Bond orders are tracked in half-units so that aromatic bonds (order 3/2)
stay exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import count


class Element(Enum):
    C = ("C", 4)
    N = ("N", 3)
    O = ("O", 2)
    F = ("F", 1)

    def __init__(self, symbol: str, max_valence: int):
        self.symbol = symbol
        self.max_valence = max_valence

    # members are singletons compared by identity, so hashing by identity
    # keeps equality and runs in C, where Enum.__hash__ is a Python call
    __hash__ = object.__hash__

    @classmethod
    def from_symbol(cls, symbol: str) -> "Element":
        for el in cls:
            if el.symbol == symbol:
                return el
        raise KeyError(symbol)


#: Fixed ordering used for one-hot encodings and class indices.
ELEMENTS: tuple[Element, ...] = (Element.C, Element.N, Element.O, Element.F)


class BondType(Enum):
    # (label, valence contribution in half-units)
    SINGLE = ("-", 2)
    DOUBLE = ("=", 4)
    TRIPLE = ("#", 6)
    AROMATIC = (":", 3)

    def __init__(self, label: str, half_order: int):
        self.label = label
        self.half_order = half_order

    # see Element.__hash__
    __hash__ = object.__hash__


#: Fixed ordering used for bond-type class indices.
BOND_TYPES: tuple[BondType, ...] = (
    BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE, BondType.AROMATIC,
)
# read per bond; see smiles._SINGLE
_AROMATIC = BondType.AROMATIC


@dataclass(frozen=True)
class MolGraph:
    """Undirected labeled molecular graph.

    Bonds are stored as (i, j, type) with i < j, no self-loops, no duplicate
    pairs. Construction enforces the structural invariants; chemical
    soundness is a separate question answered by :func:`check_validity`.
    """

    atoms: tuple[Element, ...]
    bonds: frozenset[tuple[int, int, BondType]]

    def __post_init__(self):
        n = len(self.atoms)
        if n < 1:
            raise ValueError("a molecule has at least one atom")
        # one int per in-range pair: the set is full exactly when no bond is
        # out of range, a self-loop or a duplicate pair, and only otherwise
        # does the loop below look for the first bad bond
        if len({i * n + j for i, j, _ in self.bonds if 0 <= i < j < n}) == len(self.bonds):
            return
        seen: set[tuple[int, int]] = set()
        for i, j, _ in self.bonds:
            if i == j:
                raise ValueError(f"self-loop at atom {i}")
            if not (0 <= i < j < n):
                raise ValueError(f"bond ({i},{j}) out of range for {n} atoms")
            if (i, j) in seen:
                raise ValueError(f"duplicate bond ({i},{j})")
            seen.add((i, j))

    @property
    def n(self) -> int:
        return len(self.atoms)

    def permuted(self, perm: list[int]) -> "MolGraph":
        """Relabel atoms: new index of old atom i is perm[i]."""
        atoms = [Element.C] * self.n
        for old, new in enumerate(perm):
            atoms[new] = self.atoms[old]
        bonds = set()
        for i, j, t in self.bonds:
            a, b = perm[i], perm[j]
            if a > b:
                a, b = b, a
            bonds.add((a, b, t))
        return MolGraph(tuple(atoms), frozenset(bonds))


def molgraph(atoms, bonds) -> MolGraph:
    """Build a MolGraph from loose atom/bond descriptions.

    Atoms may be Element members or symbols; bond endpoints are normalized
    to i < j.
    """
    elems = tuple(a if isinstance(a, Element) else Element.from_symbol(a) for a in atoms)
    norm = set()
    for i, j, t in bonds:
        if i > j:
            i, j = j, i
        norm.add((i, j, t))
    return MolGraph(elems, frozenset(norm))


@dataclass
class ValidityReport:
    valid: bool
    violations: list[str] = field(default_factory=list)


def _fmt_order(half: int) -> str:
    return str(half // 2) if half % 2 == 0 else f"{half / 2:g}"


def _bridges(nbrs: list[list[int]]) -> set[tuple[int, int]]:
    """The bonds on no cycle, as (i, j) pairs with i < j, by Tarjan's
    low-link walk (1974) from one explicit stack. A MolGraph has no
    duplicate pairs, so the walk skips the parent atom, not the parent bond.
    """
    disc = [-1] * len(nbrs)
    low = [0] * len(nbrs)
    order = count()
    bridges: set[tuple[int, int]] = set()
    for root in range(len(nbrs)):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = next(order)
        stack = [(root, -1, iter(nbrs[root]))]  # (atom, parent, neighbours left)
        while stack:
            u, p, rest = stack[-1]
            for v in rest:
                if disc[v] < 0:
                    disc[v] = low[v] = next(order)
                    stack.append((v, u, iter(nbrs[v])))
                    break
                if v != p and disc[v] < low[u]:
                    low[u] = disc[v]
            else:
                stack.pop()
                if p >= 0:
                    low[p] = min(low[p], low[u])
                    if low[u] > disc[p]:
                        bridges.add((p, u) if p < u else (u, p))
    return bridges


def check_validity(m: MolGraph) -> ValidityReport:
    """Check chemical soundness: valence caps, aromatic ring placement,
    per-atom aromatic degree, and connectedness.

    One pass over the bonds sums each atom's bond orders and counts its
    aromatic bonds and its neighbours. Connectedness is a walk over those
    neighbour lists, and only when an aromatic bond exists are the bridges
    found, by a low-link walk over the same lists.
    Violations are listed in that order: valence by atom, aromatic bonds
    off a cycle by bond, lone aromatic bonds by atom, then disconnection.
    """
    n = m.n
    half_sums = [0] * n
    aromatic_deg = [0] * n
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j, t in m.bonds:
        half = t.half_order
        half_sums[i] += half
        half_sums[j] += half
        if t is _AROMATIC:
            aromatic_deg[i] += 1
            aromatic_deg[j] += 1
        nbrs[i].append(j)
        nbrs[j].append(i)

    violations: list[str] = []
    for i, el in enumerate(m.atoms):
        if half_sums[i] > 2 * el.max_valence:
            violations.append(
                f"valence {_fmt_order(half_sums[i])} > {el.max_valence} at atom {i}"
            )

    if any(aromatic_deg):
        bridges = _bridges(nbrs)
        for i, j, t in sorted(m.bonds):
            if t is _AROMATIC and (i, j) in bridges:
                violations.append(f"aromatic bond ({i},{j}) not on a cycle")
        for i in range(n):
            if aromatic_deg[i] == 1:
                violations.append(f"atom {i} has exactly one aromatic bond")

    seen = [False] * n
    seen[0] = True
    reached = [0]
    for u in reached:
        for v in nbrs[u]:
            if not seen[v]:
                seen[v] = True
                reached.append(v)
    if len(reached) < n:
        violations.append("graph is disconnected")

    return ValidityReport(valid=not violations, violations=violations)
