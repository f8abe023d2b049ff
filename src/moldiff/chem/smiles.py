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
# the bond symbol written before an atom or a closing ring digit. Both ends
# of an aromatic bond are written lowercase, so the parser's default gives
# it back; a single bond needs its "-" only between two lowercase atoms.
_WRITTEN = {BondType.SINGLE: "", BondType.DOUBLE: "=", BondType.TRIPLE: "#",
            BondType.AROMATIC: ""}
_RING_LABELS = tuple(str(d) if d < 10 else f"%{d}" for d in range(100))


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

    Each component is walked twice, each walk from one explicit stack, so
    a chain of any length is written without recursion. The first walk
    splits the bonds into a spanning tree and ring closures; the second
    writes the tree in preorder. A ring digit opens at the first-written
    end of its bond and closes, with the bond symbol, at the second; the
    least free digit is taken.
    """
    n = m.n
    aromatic = [False] * n
    adj: list[list[tuple[int, BondType]]] = [[] for _ in range(n)]
    for i, j, t in sorted(m.bonds):  # so every neighbour list is ascending
        adj[i].append((j, t))
        adj[j].append((i, t))
        if t is _AROMATIC:
            aromatic[i] = aromatic[j] = True
    reached = [False] * n
    done = [False] * n
    # per atom: (tree child or ring partner, bond symbol)
    children: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    closures: list[list[tuple[int, str]]] = [[] for _ in range(n)]
    # (first-written atom, second) -> the open digit of their ring bond
    open_digits: dict[tuple[int, int], int] = {}
    out: list[str] = []
    for root in range(n):
        if reached[root]:
            continue
        # a bond to an unreached atom is a tree bond; one to an atom that is
        # reached but has not read its own bonds yet closes a ring
        reached[root] = True
        stack: list = [root]
        while stack:
            u = stack.pop()
            done[u] = True
            for v, t in adj[u]:
                if not done[v]:
                    sym = "-" if t is _SINGLE and aromatic[u] and aromatic[v] else _WRITTEN[t]
                    if reached[v]:
                        closures[u].append((v, sym))
                        closures[v].append((u, sym))
                    else:
                        reached[v] = True
                        children[u].append((v, sym))
                        stack.append(v)

        stack = [root, "."] if out else [root]
        while stack:
            u = stack.pop()
            if u.__class__ is str:
                out.append(u)
                continue
            out.append(m.atoms[u].symbol.lower() if aromatic[u] else m.atoms[u].symbol)
            for v, sym in closures[u]:
                d = open_digits.pop((v, u), 0)
                if not d:
                    d = 1
                    while d in open_digits.values():
                        d += 1
                    if d > 99:
                        raise ValueError("too many simultaneous ring closures")
                    open_digits[(u, v)] = d
                    sym = ""
                out.append(sym + _RING_LABELS[d])
            # the last child is pushed first; every other child is a branch
            for k, (v, sym) in enumerate(reversed(children[u])):
                stack += (")", v, "(" + sym) if k else (v, sym)
    return "".join(out)
