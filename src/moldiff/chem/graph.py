"""Molecular graph data model and valence-based validity checking.

Molecules are heavy-atom graphs over C/N/O/F; hydrogens are implicit and
never stored (valence slack is understood to be filled by hydrogens).
Bond orders are tracked in half-units so that aromatic bonds (order 3/2)
stay exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Element(Enum):
    C = ("C", 4)
    N = ("N", 3)
    O = ("O", 2)
    F = ("F", 1)

    def __init__(self, symbol: str, max_valence: int):
        self.symbol = symbol
        self.max_valence = max_valence

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


#: Fixed ordering used for bond-type class indices.
BOND_TYPES: tuple[BondType, ...] = (
    BondType.SINGLE, BondType.DOUBLE, BondType.TRIPLE, BondType.AROMATIC,
)


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

    def adjacency(self) -> dict[int, list[tuple[int, BondType]]]:
        adj: dict[int, list[tuple[int, BondType]]] = {i: [] for i in range(self.n)}
        for i, j, t in self.bonds:
            adj[i].append((j, t))
            adj[j].append((i, t))
        return adj

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


def _cycle_edges(m: MolGraph) -> set[tuple[int, int]]:
    """Edges that lie on at least one cycle (i.e., are not bridges)."""
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(m.n)}
    edges = sorted((i, j) for i, j, _ in m.bonds)
    for eid, (i, j) in enumerate(edges):
        adj[i].append((j, eid))
        adj[j].append((i, eid))

    disc = [-1] * m.n
    low = [0] * m.n
    bridges: set[int] = set()
    counter = 0

    for root in range(m.n):
        if disc[root] != -1:
            continue
        # iterative DFS: (node, parent edge id, iterator index)
        stack = [(root, -1, 0)]
        disc[root] = low[root] = counter
        counter += 1
        while stack:
            node, pedge, idx = stack[-1]
            if idx < len(adj[node]):
                stack[-1] = (node, pedge, idx + 1)
                nxt, eid = adj[node][idx]
                if eid == pedge:
                    continue
                if disc[nxt] == -1:
                    disc[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append((nxt, eid, 0))
                else:
                    low[node] = min(low[node], disc[nxt])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[node])
                    if low[node] > disc[parent]:
                        bridges.add(pedge)

    return {edges[eid] for eid in range(len(edges)) if eid not in bridges}


def _connected(m: MolGraph) -> bool:
    if m.n == 1:
        return True
    adj = m.adjacency()
    seen = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for nxt, _ in adj[node]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == m.n


def check_validity(m: MolGraph) -> ValidityReport:
    """Check chemical soundness: valence caps, aromatic ring placement,
    per-atom aromatic degree, and connectedness."""
    violations: list[str] = []

    half_sums = [0] * m.n
    aromatic_deg = [0] * m.n
    for i, j, t in m.bonds:
        half_sums[i] += t.half_order
        half_sums[j] += t.half_order
        if t is BondType.AROMATIC:
            aromatic_deg[i] += 1
            aromatic_deg[j] += 1

    for i, el in enumerate(m.atoms):
        if half_sums[i] > 2 * el.max_valence:
            violations.append(
                f"valence {_fmt_order(half_sums[i])} > {el.max_valence} at atom {i}"
            )

    if any(t is BondType.AROMATIC for _, _, t in m.bonds):
        cyclic = _cycle_edges(m)
        for i, j, t in sorted(m.bonds):
            if t is BondType.AROMATIC and (i, j) not in cyclic:
                violations.append(f"aromatic bond ({i},{j}) not on a cycle")
        for i in range(m.n):
            if aromatic_deg[i] == 1:
                violations.append(f"atom {i} has exactly one aromatic bond")

    if not _connected(m):
        violations.append("graph is disconnected")

    return ValidityReport(valid=not violations, violations=violations)
