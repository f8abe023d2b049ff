"""Correctness checks written apart from the program under test.

Nothing here calls ``moldiff.chem.check_validity`` or ``moldiff.chem.canon``:
valence, aromaticity and connectivity are re-derived from first principles,
and isomorphism is decided by a backtracking search over atom mappings. A
molecule is read only through its public fields (``atoms`` with an element
``.name``, ``bonds`` as ``(i, j, type)`` with a bond ``.name``), so the
checks also accept any object shaped like a ``MolGraph``.
"""

from __future__ import annotations

from collections import Counter

# Bond orders and valence caps in half-units, so aromatic order 3/2 stays an int.
MAX_HALF_VALENCE = {"C": 8, "N": 6, "O": 4, "F": 2}
HALF_ORDER = {"SINGLE": 2, "DOUBLE": 4, "TRIPLE": 6, "AROMATIC": 3}


def _elements(m) -> list[str]:
    return [a.name for a in m.atoms]


def _adjacency(m) -> list[dict[int, str]]:
    adj: list[dict[int, str]] = [{} for _ in m.atoms]
    for i, j, t in m.bonds:
        adj[i][j] = t.name
        adj[j][i] = t.name
    return adj


def over_valence_atoms(m) -> list[int]:
    """Atoms whose summed bond order exceeds the element's valence."""
    used = [0] * len(m.atoms)
    for i, j, t in m.bonds:
        used[i] += HALF_ORDER[t.name]
        used[j] += HALF_ORDER[t.name]
    return [i for i, el in enumerate(_elements(m)) if used[i] > MAX_HALF_VALENCE[el]]


def _reachable(adj: list[dict[int, str]], start: int, skip: tuple[int, int] | None = None) -> set[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if skip is not None and {u, v} == set(skip):
                continue
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def is_connected(m) -> bool:
    return len(_reachable(_adjacency(m), 0)) == len(m.atoms)


def aromatic_faults(m) -> list[str]:
    """An aromatic bond must lie on a cycle (its ends stay connected without
    it), and an atom carries either no aromatic bond or at least two."""
    adj = _adjacency(m)
    faults = []
    degree = Counter()
    for i, j, t in m.bonds:
        if t.name != "AROMATIC":
            continue
        degree[i] += 1
        degree[j] += 1
        if j not in _reachable(adj, i, skip=(i, j)):
            faults.append(f"aromatic bond ({i},{j}) is a bridge")
    faults.extend(f"atom {i} has one aromatic bond" for i, d in sorted(degree.items()) if d == 1)
    return faults


def validity_faults(m) -> list[str]:
    """Every reason the molecule is not chemically valid; empty when valid."""
    faults = [f"atom {i} over valence" for i in over_valence_atoms(m)]
    faults.extend(aromatic_faults(m))
    if not is_connected(m):
        faults.append("disconnected")
    return faults


def is_valid(m) -> bool:
    return not validity_faults(m)


# ---------------------------------------------------------------------------
# isomorphism


def invariant(m) -> tuple:
    """A cheap relabelling-invariant summary; isomorphic graphs share it."""
    els = _elements(m)
    adj = _adjacency(m)
    atoms = sorted((els[i], tuple(sorted(adj[i].values()))) for i in range(len(els)))
    return len(els), tuple(atoms)


def isomorphic(a, b) -> bool:
    """Exact labelled-graph isomorphism (elements and bond types must match)."""
    if invariant(a) != invariant(b):
        return False
    n = len(a.atoms)
    ea, eb = _elements(a), _elements(b)
    adj_a, adj_b = _adjacency(a), _adjacency(b)
    # visit a's atoms so that each one after the first of its component has a
    # mapped neighbour, which prunes candidates to the image's neighbours
    order: list[int] = []
    for root in range(n):
        if root in order:
            continue
        comp = [root]
        seen = {root}
        for u in comp:
            for v in sorted(adj_a[u]):
                if v not in seen:
                    seen.add(v)
                    comp.append(v)
        order.extend(comp)
    image: dict[int, int] = {}
    used: set[int] = set()

    def fits(u: int, x: int) -> bool:
        if ea[u] != eb[x] or len(adj_a[u]) != len(adj_b[x]):
            return False
        for v, t in adj_a[u].items():
            if v in image and adj_b[x].get(image[v]) != t:
                return False
        mapped_nbrs = sum(1 for v in adj_a[u] if v in image)
        return mapped_nbrs == sum(1 for y in adj_b[x] if y in used)

    def search(k: int) -> bool:
        if k == n:
            return True
        u = order[k]
        anchors = [image[v] for v in adj_a[u] if v in image]
        pool = adj_b[anchors[0]] if anchors else range(n)
        for x in pool:
            if x in used or not fits(u, x):
                continue
            image[u] = x
            used.add(x)
            if search(k + 1):
                return True
            del image[u]
            used.discard(x)
        return False

    return search(0)


def iso_classes(mols) -> list[list[int]]:
    """Partition indices of ``mols`` into isomorphism classes."""
    buckets: dict[tuple, list[list[int]]] = {}
    classes: list[list[int]] = []
    for idx, m in enumerate(mols):
        cls_list = buckets.setdefault(invariant(m), [])
        for cls in cls_list:
            if isomorphic(mols[cls[0]], m):
                cls.append(idx)
                break
        else:
            cls = [idx]
            cls_list.append(cls)
            classes.append(cls)
    return classes


def contains_isomorph(pool: dict[tuple, list], m) -> bool:
    """True when ``pool`` (molecules bucketed by :func:`invariant`) holds an
    isomorph of ``m``."""
    return any(isomorphic(other, m) for other in pool.get(invariant(m), ()))


def bucket(mols) -> dict[tuple, list]:
    pool: dict[tuple, list] = {}
    for m in mols:
        pool.setdefault(invariant(m), []).append(m)
    return pool
