"""Permutation-invariant canonical keys for labelled molecular graphs.

Each connected component is encoded on its own, and a graph's key joins its
sorted component encodings. An encoding starts with its atom count n and
edge count. A connected component with n - 1 edges is a tree, one with n
edges has exactly one cycle, and one with more has several; the three kinds
get different encodings. The length of a tree's or a several-cycle
component's encoding follows from n and the edge count, and a one-cycle
component's from those and its third int, the cycle length k, so the join
is unambiguous.

A tree has a canonical form that needs no search (Aho, Hopcroft & Ullman,
1974): peel its leaves layer by layer down to its centre, one atom or two
bonded ones, and name each atom bottom-up from its element and the sorted
(bond, name) pairs of its children. Two atoms get one name exactly when
their subtrees are isomorphic, so the layered list of names is the same for
every labelling and takes time near-linear in n, even for a long chain or a
wide star. The encoding is ``(n, n - 1)`` and 3n - 1 ints.

A component with one cycle needs no search either. The same peel names the
atoms of the trees that hang from the cycle and stops at the cycle, whose
atoms never drop to degree 1. Each cycle atom is then named from its element
and its peeled children, in the same name table, so two cycle atoms share a
name exactly when they carry isomorphic trees. Walking the cycle once gives
k tokens, each a cycle atom's name and the rank of its bond to the next
atom. The code keeps the smaller of two least rotations, each found in
linear time: one of that walk and one of the walk the other way round. The
encoding is ``(n, n, k)``, the 3n - k ints of the signatures and the 2k
ints of the tokens: 3n + k + 3 ints.

A component with several cycles is encoded as ``(n, edges, sorted
elements)`` and its canonical edge list. Colour refinement on integers runs
first. An atom's colour is the first position of its cell in the ordered
partition, and its signature is its colour with the sorted ints ``colour
* 4 + bond rank`` of its neighbours. Refinement stops as soon as a pass
adds no cell. If a cell of several atoms is left, a depth-first search
individualises each atom of the first such cell in turn and refines again,
as nauty and Traces do (McKay & Piperno, arXiv:1301.1493). Every leaf of
the search is a discrete colouring, that is, a relabelling of the
component, and the smallest sorted edge list over the leaves is the
canonical form.

Two leaves with equal edge lists give an automorphism. The search skips
every child that lies in the orbit of an explored sibling under the
automorphisms that fix the current path, and after finding an automorphism
it jumps back to the node where the two leaves' paths diverged. A symmetric
component is therefore searched along a few paths instead of all of its
labellings: all-carbon K9 keys in a few milliseconds at most.
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


def _name_layer(layer: list[int], elems: list[int], nbrs: list[list[tuple[int, int]]],
                name: list[int], names: dict[tuple[int, ...], int], code: list[int]) -> None:
    """Name the atoms of ``layer`` from their signatures, in sorted order.

    An atom's signature is ``(element rank, child count, *sorted child
    ints)``, where its children are its named neighbours and a child int is
    ``child name * 4 + bond rank``. ``names`` numbers the distinct
    signatures in the order ``code`` lists them, so equal signatures share
    a name.
    """
    sigs = []
    for v in layer:
        kids = sorted([name[u] * 4 + b for u, b in nbrs[v] if name[u] >= 0])
        sigs.append(((elems[v], len(kids), *kids), v))
    sigs.sort()
    for sig, v in sigs:
        name[v] = names.setdefault(sig, len(names))
        code.extend(sig)


def _peel(elems: list[int], nbrs: list[list[tuple[int, int]]]
          ) -> tuple[list[int], dict[tuple[int, ...], int], list[int], list[int]]:
    """Name the atoms of the hanging trees layer by layer, leaves first.

    Returns the names (-1 for an atom left unnamed), the name table, the
    code so far and the last layer named. A tree is peeled down to its
    centre, one atom or two bonded ones, which is the last layer; the atoms
    of a cycle never drop to degree 1 and are left unnamed.
    """
    deg = [len(nb) for nb in nbrs]
    name = [-1] * len(elems)
    names: dict[tuple[int, ...], int] = {}
    code: list[int] = []
    layer = [v for v, d in enumerate(deg) if d < 2]
    while True:
        _name_layer(layer, elems, nbrs, name, names, code)
        nxt = []
        for v in layer:
            for u, _ in nbrs[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        if not nxt:
            return name, names, code, layer
        layer = nxt


def _tree_code(elems: list[int], nbrs: list[list[tuple[int, int]]]) -> list[int]:
    """Canonical code of a tree: 3n - 1 ints for n atoms.

    The code lists the signatures of the peel layer by layer, sorted within
    a layer, so it determines the tree rooted at its centre. Two central
    atoms both sit in the last layer, and the code ends with the rank of
    the bond between them.
    """
    _, _, code, layer = _peel(elems, nbrs)
    if len(layer) == 2:
        code.append(next(b for u, b in nbrs[layer[0]] if u == layer[1]))
    return code


def _least_rotation(s: list[int]) -> list[int]:
    """The lexicographically least rotation of ``s``, in linear time.

    Two-pointer minimum expression: ``i`` and ``j`` are candidate starts
    and ``m`` the length of their common prefix. At the first difference
    the larger candidate, and every start within the prefix it shares
    with the smaller one, loses, so each step rules out a start or
    lengthens the prefix.
    """
    k = len(s)
    d = s + s
    i, j, m = 0, 1, 0
    while i < k and j < k and m < k:
        a, b = d[i + m], d[j + m]
        if a == b:
            m += 1
            continue
        if a > b:
            i += m + 1
        else:
            j += m + 1
        if i == j:
            j += 1
        m = 0
    i = min(i, j)
    return d[i:i + k]


def _ring_code(elems: list[int],
               nbrs: list[list[tuple[int, int]]]) -> tuple[int, list[int]]:
    """Length k of the one cycle, and the component's canonical code: 3n + k
    ints for n atoms.

    The hanging trees are peeled as a tree's are, and then the cycle's atoms
    are named as one more layer. The code ends with the cycle walked once,
    one ``(name, bond rank)`` token per atom for the bond to the next atom,
    from the least rotation in either direction.
    """
    name, names, code, _ = _peel(elems, nbrs)
    ring: list[int] = []
    bonds: list[int] = []
    prev, v = -1, name.index(-1)
    while not ring or v != ring[0]:
        u, b = next((u, b) for u, b in nbrs[v] if name[u] < 0 and u != prev)
        ring.append(v)
        bonds.append(b)
        prev, v = v, u
    _name_layer(ring, elems, nbrs, name, names, code)
    fwd = [name[v] * 4 + b for v, b in zip(ring, bonds)]
    # the other way round, atom ring[i] is left by the bond to ring[i - 1]
    back = [name[ring[i]] * 4 + bonds[i - 1] for i in range(len(ring) - 1, -1, -1)]
    for t in min(_least_rotation(fwd), _least_rotation(back)):
        code.extend(divmod(t, 4))
    return len(ring), code


def _searched_code(elems: list[int], nbrs: list[list[tuple[int, int]]]) -> list[int]:
    """``(sorted elements, canonical edge list)`` of any component, by colour
    refinement and, if a cell of several atoms is left, the search."""
    n = len(elems)
    edges = [(i, j, b) for i, nb in enumerate(nbrs) for j, b in nb if i < j]
    counts = [0] * len(ELEMENTS)
    for e in elems:
        counts[e] += 1
    starts = [sum(counts[:e]) for e in range(len(ELEMENTS))]
    colours, cells = _refine(nbrs, [starts[e] for e in elems],
                             sum(1 for c in counts if c))
    code = _search(nbrs, edges, colours, cells) if cells < n else _edge_code(colours, edges)
    # refinement keeps each atom inside its element's block of positions
    return [*sorted(elems), *code]


def _component_code(elems: list[int],
                    nbrs: list[list[tuple[int, int]]]) -> tuple[int, ...]:
    n = len(elems)
    edges = sum(map(len, nbrs)) // 2
    if edges == n - 1:
        # a connected graph with n - 1 edges is a tree
        return (n, n - 1, *_tree_code(elems, nbrs))
    if edges == n:
        k, code = _ring_code(elems, nbrs)
        return (n, n, k, *code)
    return (n, edges, *_searched_code(elems, nbrs))


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
    from its centre and a one-cycle component from its cycle, with no
    search; a component with several cycles is refined and searched (see
    the module docstring). Its bytes hold only within one program version;
    do not store them.
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
