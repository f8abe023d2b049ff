"""SMILES subset parser and writer for heavy-atom C/N/O/F molecules.

Supported notation: aliphatic atoms C N O F, aromatic atoms c n o f, bond
symbols ``- = # :``, branches ``( )``, ring closures ``0``-``9`` and
``%nn``, and the dot disconnect (so that any structurally well-formed
graph, including disconnected generation candidates, survives a write/parse
round trip). Charges, stereo marks, isotopes, bracket atoms and explicit
hydrogens are rejected rather than ignored; every parse error carries the
offset where it was detected. The offset indexes the ``str``, which is a
byte position only within ASCII text. Every character of the subset is
ASCII, ring labels included, so a parse stops at the first non-ASCII
character, and every offset it reports is also the UTF-8 byte position.
"""

from __future__ import annotations

from .graph import BondType, Element, MolGraph


class SmilesError(ValueError):
    """Base class for parse failures; ``offset`` indexes the ``str`` (see
    the module docstring for when it is also a byte position)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


class EmptyInput(SmilesError):
    pass


class UnsupportedAtom(SmilesError):
    pass


class UnclosedRing(SmilesError):
    pass


class UnbalancedParenthesis(SmilesError):
    pass


_ATOMS = {
    "C": (Element.C, False), "N": (Element.N, False),
    "O": (Element.O, False), "F": (Element.F, False),
    "c": (Element.C, True), "n": (Element.N, True),
    "o": (Element.O, True), "f": (Element.F, True),
}
_BOND_CHARS = {"-": BondType.SINGLE, "=": BondType.DOUBLE,
               "#": BondType.TRIPLE, ":": BondType.AROMATIC}
# read per bond: a module global reads several times faster than a member
# looked up on its Enum class
_SINGLE = BondType.SINGLE
_AROMATIC = BondType.AROMATIC


def parse_smiles(text: str) -> MolGraph:
    """Parse a SMILES string over the supported subset into a MolGraph.

    Hydrogens stay implicit. Bonds between two aromatic atoms default to
    the aromatic type; all other unannotated bonds are single.

    One pass reads the string, with one table lookup per atom. A chain
    bond joins a new atom to an earlier one, so it cannot be a self-loop
    or a duplicate and is stored unchecked; only a ring closure is checked
    for both.
    """
    if text == "" or text.strip() == "":
        raise EmptyInput("empty SMILES", 0)

    atoms: list[Element] = []
    aromatic: list[bool] = []
    bonds: list[tuple[int, int, BondType]] = []
    # open ring closures: label -> (atom index, explicit bond or None, offset)
    rings: dict[int, tuple[int, BondType | None, int]] = {}
    # branch stack holds (previous atom, offset of '(')
    stack: list[tuple[int, int]] = []

    prev: int | None = None
    pending: BondType | None = None
    pending_offset = 0

    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        atom = _ATOMS.get(ch)
        if atom is not None:
            el, arom = atom
            idx = len(atoms)
            atoms.append(el)
            aromatic.append(arom)
            if prev is not None:
                if pending is None:
                    bonds.append((prev, idx, _AROMATIC if arom and aromatic[prev] else _SINGLE))
                else:
                    bonds.append((prev, idx, pending))
                    pending = None
            prev = idx
        elif (bond := _BOND_CHARS.get(ch)) is not None:
            if prev is None:
                raise UnsupportedAtom("bond symbol before any atom", i)
            pending = bond
            pending_offset = i
        elif "0" <= ch <= "9" or ch == "%":
            if ch == "%":
                two = text[i + 1:i + 3]
                if len(two) < 2 or not (two.isascii() and two.isdigit()):
                    raise UnclosedRing("malformed %nn ring closure", i)
                label = int(two)
            else:
                label = ord(ch) - 48
            if prev is None:
                raise UnclosedRing("ring closure before any atom", i)
            opened = rings.pop(label, None)
            if opened is None:
                rings[label] = (prev, pending, i)
            else:
                other, opening, _ = opened
                if pending is None:
                    pending = opening
                elif opening is not None and pending is not opening:
                    raise UnclosedRing(f"conflicting bond types on ring closure {label}", i)
                if other == prev:
                    raise UnclosedRing("ring closure bonds an atom to itself", i)
                a, b = (other, prev) if other < prev else (prev, other)
                for x, y, _ in bonds:
                    if x == a and y == b:
                        raise UnclosedRing(f"duplicate bond between atoms {a} and {b}", i)
                if pending is None:
                    pending = _AROMATIC if aromatic[a] and aromatic[b] else _SINGLE
                bonds.append((a, b, pending))
            pending = None
            if ch == "%":
                i += 2
        elif ch == "(":
            if prev is None:
                raise UnbalancedParenthesis("branch opened before any atom", i)
            if pending is not None:
                raise UnsupportedAtom("expected atom after bond symbol", i)
            stack.append((prev, i))
        elif ch == ")":
            if not stack:
                raise UnbalancedParenthesis("unmatched ')'", i)
            if pending is not None:
                raise UnsupportedAtom("expected atom after bond symbol", i)
            prev, _ = stack.pop()
        elif ch == ".":
            if pending is not None:
                raise UnsupportedAtom("expected atom after bond symbol", i)
            prev = None
        else:
            raise UnsupportedAtom(f"unsupported character {ch!r}", i)
        i += 1

    if pending is not None:
        raise UnsupportedAtom("expected atom after bond symbol", pending_offset)
    if stack:
        raise UnbalancedParenthesis("unmatched '('", stack[-1][1])
    if rings:
        label = next(iter(rings))
        raise UnclosedRing(f"ring closure {label} never closed", rings[label][2])
    if not atoms:
        raise EmptyInput("no atoms in SMILES", 0)

    return MolGraph(tuple(atoms), frozenset(bonds))


def write_smiles(m: MolGraph) -> str:
    """Serialize a MolGraph; re-parsing yields an isomorphic graph.

    Atoms with any incident aromatic bond are written lowercase; a single
    bond between two such atoms is written explicitly as ``-`` so the
    default-aromatic rule does not misfire on re-parse. Disconnected
    components are joined with dots.
    """
    is_aromatic = [False] * m.n
    for a, b, t in m.bonds:
        if t is BondType.AROMATIC:
            is_aromatic[a] = True
            is_aromatic[b] = True

    adj: dict[int, list[tuple[int, BondType]]] = {i: [] for i in range(m.n)}
    for a, b, t in sorted(m.bonds, key=lambda e: (e[0], e[1])):
        adj[a].append((b, t))
        adj[b].append((a, t))
    for i in range(m.n):
        adj[i].sort(key=lambda p: p[0])

    def atom_token(i: int) -> str:
        sym = m.atoms[i].symbol
        return sym.lower() if is_aromatic[i] else sym

    def bond_token(a: int, b: int, t: BondType) -> str:
        if t is BondType.SINGLE:
            return "-" if is_aromatic[a] and is_aromatic[b] else ""
        if t is BondType.AROMATIC:
            return "" if is_aromatic[a] and is_aromatic[b] else ":"
        return t.label

    # Pass 1: DFS spanning forest. Non-tree edges become ring closures.
    visited = [False] * m.n
    tree_children: dict[int, list[tuple[int, BondType]]] = {i: [] for i in range(m.n)}
    ring_edges: dict[int, list[tuple[int, BondType]]] = {i: [] for i in range(m.n)}
    roots: list[int] = []
    seen_edges: set[tuple[int, int]] = set()

    for start in range(m.n):
        if visited[start]:
            continue
        roots.append(start)
        visited[start] = True
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr, t in adj[node]:
                key = (min(node, nbr), max(node, nbr))
                if key in seen_edges:
                    continue
                seen_edges.add(key)
                if visited[nbr]:
                    ring_edges[node].append((nbr, t))
                    ring_edges[nbr].append((node, t))
                else:
                    visited[nbr] = True
                    tree_children[node].append((nbr, t))
                    stack.append(nbr)

    # Pass 2: emit preorder; ring digits open at the first-emitted endpoint
    # and close (with the bond symbol) at the second. Freed digits are reused.
    emitted = [False] * m.n
    open_digits: dict[tuple[int, int], int] = {}
    in_use: set[int] = set()

    def alloc_digit() -> int:
        d = 1
        while d in in_use:
            d += 1
        if d > 99:
            raise ValueError("too many simultaneous ring closures")
        in_use.add(d)
        return d

    def digit_token(d: int) -> str:
        return str(d) if d <= 9 else f"%{d:02d}"

    def emit(node: int) -> str:
        emitted[node] = True
        parts = [atom_token(node)]
        for nbr, t in ring_edges[node]:
            key = (min(node, nbr), max(node, nbr))
            if not emitted[nbr]:
                open_digits[key] = alloc_digit()
                parts.append(digit_token(open_digits[key]))
            else:
                d = open_digits.pop(key)
                in_use.discard(d)
                parts.append(bond_token(node, nbr, t) + digit_token(d))
        children = tree_children[node]
        for k, (nbr, t) in enumerate(children):
            sub = bond_token(node, nbr, t) + emit(nbr)
            parts.append(f"({sub})" if k < len(children) - 1 else sub)
        return "".join(parts)

    return ".".join(emit(root) for root in roots)
