"""Permutation-invariant canonical keys for labelled molecular graphs.

Each connected component is encoded on its own, and a graph's key joins its
sorted component encodings. An encoding starts with its atom count n and
edge count, and its length follows from those two, so the join is
unambiguous. A connected component with n - 1 edges is a tree, and every
other component has a cycle; the two kinds get different encodings.

A tree has a canonical form that needs no search (Aho, Hopcroft & Ullman,
1974): peel its leaves layer by layer down to its centre, one atom or two
bonded ones, and name each atom bottom-up from its element and the sorted
(bond, name) pairs of its children. Two atoms get one name exactly when
their subtrees are isomorphic, so the layered list of names is the same for
every labelling and takes time near-linear in n, even for a long chain or a
wide star. The encoding is ``(n, n - 1)`` and 3n - 1 ints.

A component with a cycle is encoded as ``(n, edges, sorted elements)`` and
its canonical edge list. Colour refinement on integers runs first. An
atom's colour is the first position of its cell in the ordered partition,
and its signature is its colour with the sorted ints ``colour * 4 + bond
rank`` of its neighbours. Refinement stops as soon as a pass adds no cell.
If a cell of several atoms is left, a depth-first search individualises
each atom of the first such cell in turn and refines again, as nauty and
Traces do (McKay & Piperno, arXiv:1301.1493). Every leaf of the search is a
discrete colouring, that is, a relabelling of the component, and the
smallest sorted edge list over the leaves is the canonical form.

Two leaves with equal edge lists give an automorphism. The search skips
every child that lies in the orbit of an explored sibling under the
automorphisms that fix the current path, and after finding an automorphism
it jumps back to the node where the two leaves' paths diverged. A symmetric
component is therefore searched along a few paths instead of all of its
labellings: a 9-ring and all-carbon K9 each key in a few milliseconds at
most.
"""

from __future__ import annotations

import hashlib
from array import array

from .graph import BOND_TYPES, ELEMENTS, MolGraph

_ELEM_RANK = {el: r for r, el in enumerate(ELEMENTS)}
_BOND_RANK = {bt: r for r, bt in enumerate(BOND_TYPES)}


def _refine(nbrs: list[list[tuple[int, int]]], colours: list[int],
            cells: int) -> tuple[list[int], int]:
    """Refine ``colours`` (``cells`` cells) until a pass adds no cell."""
    n = len(colours)
    while cells < n:
        sigs = [(colours[i], sorted([colours[j] * 4 + b for j, b in nb]))
                for i, nb in enumerate(nbrs)]
        new = [0] * n
        prev = None
        count = start = 0
        for pos, i in enumerate(sorted(range(n), key=sigs.__getitem__)):
            if sigs[i] != prev:
                prev, start = sigs[i], pos
                count += 1
            new[i] = start
        if count == cells:
            break
        colours, cells = new, count
    return colours, cells


def _edge_code(lab: list[int], edges: list[tuple[int, int, int]]) -> list[int]:
    """Sorted edge list of the relabelling that puts atom i at ``lab[i]``."""
    n = len(lab)
    out = []
    for i, j, b in edges:
        a, c = lab[i], lab[j]
        out.append(((a * n + c) if a < c else (c * n + a)) * 4 + b)
    out.sort()
    return out


def _orbits(n: int, gens: list[list[int]]) -> list[int]:
    """Smallest member of each atom's orbit under the group ``gens`` generate."""
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for g in gens:
        for x, y in enumerate(g):
            a, b = find(x), find(y)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def _search(nbrs: list[list[tuple[int, int]]], edges: list[tuple[int, int, int]],
            colours: list[int], cells: int) -> list[int]:
    """Smallest leaf edge code of the individualise-and-refine tree."""
    n = len(colours)
    autos: list[list[int]] = []
    # (code, labelling, path) of the first leaf and of the best leaf so far
    leaves: list[tuple[list[int], list[int], list[int]]] = []

    def leaf(lab: list[int], path: list[int]) -> int:
        code = _edge_code(lab, edges)
        if not leaves:
            leaves.extend([(code, lab, path)] * 2)
            return len(path) - 1
        for ref_code, ref_lab, ref_path in leaves:
            if code == ref_code:
                at = [0] * n
                for u, p in enumerate(lab):
                    at[p] = u
                autos.append([at[p] for p in ref_lab])
                return next(d for d, (u, v) in enumerate(zip(ref_path, path)) if u != v)
        if code < leaves[1][0]:
            leaves[1] = (code, lab, path)
        return len(path) - 1

    def node(colours: list[int], cells: int, path: list[int]) -> int:
        # returns the depth of the node that goes on with its next child
        depth = len(path)
        sizes = [0] * n
        for c in colours:
            sizes[c] += 1
        target = next(c for c in range(n) if sizes[c] > 1)
        cell = [v for v in range(n) if colours[v] == target]
        done: list[int] = []
        orbit: list[int] = []
        known = -1
        for v in cell:
            if done:
                if known != len(autos):
                    known = len(autos)
                    orbit = _orbits(n, [g for g in autos if all(g[u] == u for u in path)])
                if any(orbit[u] == orbit[v] for u in done):
                    continue
            done.append(v)
            child = colours[:]
            for u in cell:
                if u != v:
                    child[u] = target + 1
            child, child_cells = _refine(nbrs, child, cells + 1)
            if child_cells == n:
                back = leaf(child, path + [v])
            else:
                back = node(child, child_cells, path + [v])
            if back < depth:
                return back
        return depth - 1

    node(colours, cells, [])
    return leaves[1][0]


def _tree_code(elems: list[int], nbrs: list[list[tuple[int, int]]]) -> list[int]:
    """Canonical code of a tree: 3n - 1 ints for n atoms.

    Leaves are peeled layer by layer down to the centre. Each atom of a
    layer gets the signature ``(element rank, child count, *sorted child
    ints)``, where a child int is ``child name * 4 + bond rank``, and a
    name numbers the distinct signatures in the order the code lists them:
    layer by layer, sorted within a layer. Equal signatures share a name,
    so the code determines the tree rooted at its centre. Two central
    atoms both sit in the last layer, and the code ends with the rank of
    the bond between them.
    """
    deg = [len(nb) for nb in nbrs]
    name = [-1] * len(elems)
    layer = [v for v, d in enumerate(deg) if d < 2]
    code: list[int] = []
    names: dict[tuple[int, ...], int] = {}
    while True:
        sigs = []
        for v in layer:
            kids = sorted([name[u] * 4 + b for u, b in nbrs[v] if name[u] >= 0])
            sigs.append((elems[v], len(kids), *kids))
        for k in sorted(range(len(layer)), key=sigs.__getitem__):
            name[layer[k]] = names.setdefault(sigs[k], len(names))
            code.extend(sigs[k])
        nxt = []
        for v in layer:
            for u, _ in nbrs[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        if not nxt:
            break
        layer = nxt
    if len(layer) == 2:
        code.append(next(b for u, b in nbrs[layer[0]] if u == layer[1]))
    return code


def _component_code(elems: list[int],
                    nbrs: list[list[tuple[int, int]]]) -> tuple[int, ...]:
    n = len(elems)
    if sum(map(len, nbrs)) == 2 * n - 2:
        # a connected graph with n - 1 edges is a tree
        return (n, n - 1, *_tree_code(elems, nbrs))
    edges = [(i, j, b) for i, nb in enumerate(nbrs) for j, b in nb if i < j]
    counts = [0] * len(ELEMENTS)
    for e in elems:
        counts[e] += 1
    starts = [sum(counts[:e]) for e in range(len(ELEMENTS))]
    colours, cells = _refine(nbrs, [starts[e] for e in elems],
                             sum(1 for c in counts if c))
    code = _search(nbrs, edges, colours, cells) if cells < n else _edge_code(colours, edges)
    # refinement keeps each atom inside its element's block of positions
    return (n, len(edges), *sorted(elems), *code)


def _components(nbrs: list[list[tuple[int, int]]]) -> list[list[int]]:
    n = len(nbrs)
    seen = [False] * n
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp = [root]
        for u in comp:
            for v, _ in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.append(v)
        comp.sort()
        comps.append(comp)
    return comps


def canonical_key(m: MolGraph) -> bytes:
    """Canonical key of any ``MolGraph``, connected or not.

    Two graphs get equal keys exactly when they are isomorphic as labelled
    graphs: same elements, same bond types. The key is the SHA-256 digest
    of the sorted component encodings, so it does not depend on atom order
    or on the iteration order of ``m.bonds``. A tree component is named
    from its centre with no search; a component with a cycle is refined
    and searched (see the module docstring). Its bytes hold only within
    one program version; do not store them.
    """
    n = m.n
    elems = [_ELEM_RANK[a] for a in m.atoms]
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, t in m.bonds:
        b = _BOND_RANK[t]
        nbrs[i].append((j, b))
        nbrs[j].append((i, b))
    comps = _components(nbrs)
    if len(comps) == 1:
        parts = [_component_code(elems, nbrs)]
    else:
        loc = [0] * n
        for comp in comps:
            for k, v in enumerate(comp):
                loc[v] = k
        parts = sorted(
            _component_code([elems[v] for v in comp],
                            [[(loc[j], b) for j, b in nbrs[v]] for v in comp])
            for comp in comps)
    return hashlib.sha256(array("q", [x for part in parts for x in part])).digest()
