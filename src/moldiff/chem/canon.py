"""Permutation-invariant canonical keys for labelled molecular graphs.

Each connected component is encoded on its own, and a graph's key joins its
sorted component encodings. An encoding starts with its atom count n and
edge count. A connected component with n - 1 edges is a tree, one with n
edges has exactly one cycle, and one with more has several; the three kinds
get different encodings. The length of a tree's or a several-cycle
component's encoding follows from n and the edge count, and a one-cycle
component's from those and its third int, the cycle length k, so the join
is unambiguous.

Every graph is first peeled whole, leaves first (Aho, Hopcroft & Ullman,
1974). Layer by layer, each atom is named bottom-up from its element and
the sorted (bond, name) pairs of its children, the neighbours named before
it, so two atoms get one name exactly when the trees they root are
isomorphic. The atoms of a cycle, and of a path between two cycles, never
drop to one unnamed neighbour and are left unnamed: they form the 2-core.
The peel takes time near-linear in n, even for a long chain or a wide star.

A graph with n - 1 bonds whose atoms all get named is one tree, peeled
down to its centre, one atom or two bonded ones. The layered list of
signatures, sorted within a layer, is the same for every labelling and
determines the tree rooted at its centre; it ends with the rank of the bond
between two central atoms. The encoding is ``(n, n - 1)`` and 3n - 1 ints.

A graph with n bonds is one ring with trees hanging from it when every
unnamed atom has two unnamed neighbours and one walk covers them all. The
degree check comes first, so the walk comes back to its start. Each cycle
atom is then named from its element and its peeled children, in the same
name table, so two cycle atoms share a name exactly when they carry
isomorphic trees. The walk gives k tokens, each a cycle atom's name and the
rank of its bond to the next atom. The code keeps the smaller of two least
rotations, each found in linear time: one of that walk and one of the walk
the other way round. The encoding is ``(n, n, k)``, the 3n - k ints of the
signatures and the 2k ints of the tokens: 3n + k + 3 ints.

Any other graph is split into its connected components, and each is
encoded alone as above. A component with several cycles and a 2-core of c
atoms names its core atoms as one more layer, from their peeled children,
and is encoded as ``(n, edges, c)``, the 3n - c ints of the signatures and
the core's canonical edge list of edges - n + c ints: 2n + edges + 3 ints.
Colour refinement on integers runs on the core alone. An atom's colour is
the first position of its cell in the ordered partition, and the first
partition orders the core atoms by name. An atom's signature is its colour
with the sorted ints ``colour * 4 + bond rank`` of its core neighbours.
Refinement stops as soon as a pass adds no cell; it keeps each atom inside
its name's block of positions, so the core's signatures and edge list fix
the component. If a cell of several atoms is left, a depth-first search
individualises each atom of the first such cell in turn and refines again,
as nauty and Traces do (McKay & Piperno, arXiv:1301.1493). Every leaf of
the search is a discrete colouring, that is, a relabelling of the core, and
the smallest sorted edge list over the leaves is the canonical form.

Two leaves with equal edge lists give an automorphism. The search skips
every child that lies in the orbit of an explored sibling under the
automorphisms that fix the current path, and after finding an automorphism
it jumps back to the node where the two leaves' paths diverged. A symmetric
core is therefore searched along a few paths instead of all of its
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


def _name_layer(layer: list[int], elems: list[int], kids: list[list[int]], name: list[int],
                names: dict[tuple[int, ...], int], code: list[int]) -> None:
    """Name the atoms of ``layer`` from their signatures, in sorted order.

    An atom's signature is ``(element rank, child count, *sorted child
    ints)``, where its children are the neighbours named before it and
    ``kids`` holds their ints, ``child name * 4 + bond rank``. ``names``
    numbers the distinct signatures in the order ``code`` lists them, so
    equal signatures share a name.
    """
    sigs = sorted([((elems[v], len(kids[v]), *sorted(kids[v])), v) for v in layer])
    for sig, v in sigs:
        name[v] = names.setdefault(sig, len(names))
        code.extend(sig)


def _peel(elems: list[int], nbrs: list[list[tuple[int, int]]]) -> tuple[
        list[int], dict[tuple[int, ...], int], list[int], list[list[int]], list[int], list[int]]:
    """Name the atoms of the hanging trees layer by layer, leaves first.

    Returns the names (-1 for an atom left unnamed), the name table, the
    code so far, each atom's child ints, the last layer named and each
    unnamed atom's count of unnamed neighbours (a named atom keeps the
    count it had when named, 0 or 1). A tree is peeled down to its centre,
    one atom or two bonded ones, which is the last layer; the atoms of the
    2-core never drop to degree 1 and are left unnamed.
    """
    n = len(elems)
    deg = [len(nb) for nb in nbrs]
    name = [-1] * n
    kids: list[list[int]] = [[] for _ in range(n)]
    names: dict[tuple[int, ...], int] = {}
    code: list[int] = []
    layer = [v for v, d in enumerate(deg) if d < 2]
    while True:
        _name_layer(layer, elems, kids, name, names, code)
        nxt = []
        for v in layer:
            x = name[v] * 4
            for u, b in nbrs[v]:
                if name[u] < 0:
                    kids[u].append(x + b)
                    deg[u] -= 1
                    if deg[u] == 1:
                        nxt.append(u)
        if not nxt:
            return name, names, code, kids, layer, deg
        layer = nxt


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


def _encode(elems: list[int], nbrs: list[list[tuple[int, int]]], edges: int) -> list[int]:
    """The join of the sorted component encodings of a graph with ``edges``
    bonds (see the module docstring).

    One peel of the whole graph names the atoms of every tree. A connected
    graph is encoded from that peel: a tree or a one-cycle graph at once,
    and one with several cycles after refining its 2-core. A graph with
    several components is split and each component encoded alone.
    """
    n = len(elems)
    name, names, code, kids, layer, deg = _peel(elems, nbrs)
    c = name.count(-1)  # atoms of the 2-core
    if not c and edges == n - 1:
        # a forest with n - 1 edges is one tree; two central atoms both sit
        # in the last layer, and the code ends with their bond's rank
        if len(layer) == 2:
            code.append(next(b for u, b in nbrs[layer[0]] if u == layer[1]))
        return [n, n - 1, *code]
    # named atoms kept a count of 0 or 1, so this holds when every unnamed
    # atom has two unnamed neighbours, and then the walk comes back to its
    # start: the graph is one ring when the walk covers the whole core
    if edges == n and deg.count(2) == c:
        ring: list[int] = []
        bonds: list[int] = []
        prev, v = -1, name.index(-1)
        while not ring or v != ring[0]:
            for u, b in nbrs[v]:
                if name[u] < 0 and u != prev:
                    break
            ring.append(v)
            bonds.append(b)
            prev, v = v, u
        if len(ring) == c:
            _name_layer(ring, elems, kids, name, names, code)
            fwd = [name[v] * 4 + b for v, b in zip(ring, bonds)]
            # the other way round, atom ring[i] is left by the bond to ring[i - 1]
            back = [name[ring[i]] * 4 + bonds[i - 1] for i in range(c - 1, -1, -1)]
            for t in min(_least_rotation(fwd), _least_rotation(back)):
                code.extend(divmod(t, 4))
            return [n, n, c, *code]
    comps = _components(nbrs)
    if len(comps) > 1:
        loc = [0] * n
        for comp in comps:
            for k, v in enumerate(comp):
                loc[v] = k
        parts = sorted(
            _encode([elems[v] for v in comp], [[(loc[j], b) for j, b in nbrs[v]] for v in comp],
                    sum(len(nbrs[v]) for v in comp) // 2)
            for comp in comps)
        return [x for part in parts for x in part]
    # one component with several cycles: the core is named as one more
    # layer, and refinement and the search run on the core alone, from the
    # cells of equal names in name order
    core = [v for v in range(n) if name[v] < 0]
    _name_layer(core, elems, kids, name, names, code)
    core.sort(key=name.__getitem__)
    loc = [-1] * n
    for k, v in enumerate(core):
        loc[v] = k
    cnbrs = [[(loc[u], b) for u, b in nbrs[v] if loc[u] >= 0] for v in core]
    cedges = [(i, j, b) for i, nb in enumerate(cnbrs) for j, b in nb if i < j]
    first: dict[int, int] = {}
    seeds = [first.setdefault(name[v], k) for k, v in enumerate(core)]
    colours, cells = _refine(cnbrs, seeds, len(first))
    if cells < c:
        code += _search(cnbrs, cedges, colours, cells)
    else:
        code += _edge_code(colours, cedges)
    return [n, edges, c, *code]


def canonical_key(m: MolGraph) -> bytes:
    """Canonical key of any ``MolGraph``, connected or not.

    Two graphs get equal keys exactly when they are isomorphic as labelled
    graphs: same elements, same bond types. The key is the SHA-256 digest
    of the sorted component encodings, so it does not depend on atom order
    or on the iteration order of ``m.bonds``. One peel of the whole graph
    names the atoms of its trees. A connected tree is named from its centre
    and a connected one-cycle graph from its cycle, with no component split,
    refinement or search. Any other graph is split into components; one
    with several cycles refines, and searches if it must, only its 2-core,
    seeded by the names of the trees that hang from it (see the module
    docstring). Its bytes hold only within one program version; do not
    store them.
    """
    n = m.n
    elems = [_ELEM_RANK[a] for a in m.atoms]
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, j, t in m.bonds:
        b = _BOND_RANK[t]
        nbrs[i].append((j, b))
        nbrs[j].append((i, b))
    return hashlib.sha256(array("q", _encode(elems, nbrs, len(m.bonds)))).digest()
