"""Shared fixtures, the central finite-difference gradient checker and
reference implementations that tests compare the fast paths against."""

from __future__ import annotations

import hashlib
import os
import signal
from array import array

import numpy as np
import pytest
from hypothesis import settings

from moldiff.chem import (
    BOND_TYPES,
    ELEMENTS,
    BondType,
    Element,
    EmptyInput,
    MolGraph,
    UnbalancedParenthesis,
    UnclosedRing,
    UnsupportedAtom,
    ValidityReport,
)
from moldiff.diffcore import Tape, backward
from moldiff.diffcore import tensor as T
from moldiff.harness import synthetic_dataset

# HYPOTHESIS_PROFILE=ci draws the same examples on every run; the default
# profile keeps exploring new ones
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

#: Seconds one test may run, with the set-up and tear-down of its
#: function-scoped fixtures.
TEST_SECONDS = 120


@pytest.fixture(autouse=True)
def time_limit(request):
    """Stop the whole run when a test passes ``TEST_SECONDS``: SIGALRM
    raises ``KeyboardInterrupt``, which pytest reports, with the test's
    node id and the line it was on, as an interrupted run (exit code 2).
    A hang so ends in its own report rather than in the CI job's timeout,
    and hypothesis does not try to shrink it."""
    def interrupt(signum, frame):
        raise KeyboardInterrupt(
            f"{request.node.nodeid} ran past {TEST_SECONDS} s; interrupted at "
            f"{frame.f_code.co_filename}:{frame.f_lineno}")

    previous = signal.signal(signal.SIGALRM, interrupt)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def fd_gradcheck(build, params, h: float = 1e-6, floor: float = 1e-6) -> float:
    """Worst relative error between tape gradients and central differences.

    ``build`` must reconstruct the scalar loss from scratch on every call.
    ``floor`` keeps the relative error meaningful when both sides are
    essentially zero (central differences bottom out near 1e-10 from float
    cancellation).
    """
    with Tape() as tape:
        loss = build()
    grads = backward(tape, loss)
    worst = 0.0
    for p in params:
        g = grads.get(p)
        if g is None:
            continue
        flat = p.data.ravel()
        gflat = g.ravel()
        for k in range(flat.size):
            old = flat[k]
            flat[k] = old + h
            lp = float(build().data)
            flat[k] = old - h
            lm = float(build().data)
            flat[k] = old
            num = (lp - lm) / (2.0 * h)
            rel = abs(num - gflat[k]) / max(abs(num), abs(gflat[k]), floor)
            worst = max(worst, rel)
    return worst


def assert_close(got: np.ndarray, want: np.ndarray, rtol: float = 1e-12) -> None:
    """got is want to within rtol of want's largest finite magnitude, with
    NaN exactly where want has NaN."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    err = np.max(np.abs(got[~nan] - want[~nan]), initial=0.0)
    assert err <= rtol * np.max(np.abs(want[~nan]), initial=0.0)


def seeded_sum(out, g=None):
    """sum(out * g) as one tape node: backward from it hands ``g`` (an array
    or a constant tensor; ones when None) to ``out`` as its gradient."""
    g = np.ones(out.data.shape) if g is None else getattr(g, "data", g)
    total = T.Tensor((out.data * g).sum())
    if T._recording(out):
        T._record(total, ((out, lambda s: s * g),))
    return total


def general_pair_logits(mlp, h, e):
    """``gnn.symmetric_pair_logits`` from general ops: two ``gather_rows``,
    a ``concat``, the MLP, two ``narrow``, an ``add`` and a ``mul``."""
    both = mlp(T.concat([T.gather_rows(h, e.src_plan), T.gather_rows(h, e.dst_plan)], axis=-1))
    p = len(e) // 2
    return T.mul(T.add(T.narrow(both, -2, 0, p), T.narrow(both, -2, p, p)), 0.5)


def mean_only(width: int) -> list:
    """A one-layer ``relu_stack`` whose output is the neighbour mean: a
    zero self weight, the identity on the neighbour path, no bias."""
    return [(T.tensor(np.zeros((width, width))), T.tensor(np.eye(width)),
             T.tensor(np.zeros(width)))]


def _complete_mean(a: np.ndarray) -> np.ndarray:
    """Each row's mean over the other rows, zeros for one row: the column
    sum less the row, over n - 1. The map is symmetric, so it is also its
    own backward."""
    n = a.shape[0]
    if n == 1:
        return np.zeros_like(a)
    return (np.add.reduce(a, axis=0) - a) / (n - 1)


def _complete_mean_node(x):
    """The closed-form neighbour mean as a tape node of its own."""
    out = T.Tensor(_complete_mean(x.data))
    if T._recording(x):
        T._record(out, ((x, _complete_mean),))
    return out


def matmul_node(a, b):
    """a @ b for two 2-D tensors as a tape node of its own."""
    ad, bd = a.data, b.data
    out = T.Tensor(T._dot(ad, bd))
    if T._recording(a, b):
        T._record(out, ((a, lambda g: T._dot(g, bd.T)), (b, lambda g: T._dot(ad.T, g))))
    return out


def per_layer_stack(x, layers, prop=None):
    """``T.relu_stack(x, layers, prop)`` from separate nodes: per layer, a
    ``matmul_node`` by ``prop`` on a ``prop`` stack, the complete-graph
    mean node when the layer has ``Wn``, one or two ``affine`` nodes and a
    ``relu``. The reference computes the mean itself and does not fold it
    into the weights. Same arithmetic as ``relu_stack`` on dense and
    ``prop`` stacks and on one row, so the same bits there; on
    complete-graph layers over more rows the two agree to rounding."""
    for i, (w, wn, b) in enumerate(layers):
        if prop is not None:
            x = T.affine(matmul_node(T.tensor(prop), x), w, b)
        elif wn is None:
            x = T.affine(x, w, b)
        else:
            x = T.affine(x, w, T.affine(_complete_mean_node(x), wn, b))
        if i < len(layers) - 1:
            x = T.relu(x)
    return x


def ancestral_generate(model, n: int, rng: np.random.Generator) -> np.ndarray:
    """DDPM sampling by the ancestral chain over every trained step: the
    posterior mean from the predicted noise, plus the posterior standard
    deviation times a fresh draw on every step but the last. The strided
    sampler at stride 1 matches it to rounding."""
    sched = model.sched
    prev = np.concatenate([[1.0], sched.alpha_bar[:-1]])
    sigma2 = sched.beta * (1.0 - prev) / (1.0 - sched.alpha_bar)
    x = rng.standard_normal((n, model.width))
    for t in range(sched.steps, 0, -1):
        z = model.restorer.predict_noise(T.tensor(x), t, sched.steps).data
        beta, ab = sched.beta[t - 1], sched.alpha_bar[t - 1]
        x = np.sqrt(1.0 / (1.0 - beta)) * (x - beta * z / np.sqrt(1.0 - ab))
        if t > 1:
            x = x + np.sqrt(sigma2[t - 1]) * rng.standard_normal(x.shape)
    return x


_REF_ALIPHATIC = {"C": Element.C, "N": Element.N, "O": Element.O, "F": Element.F}
_REF_AROMATIC = {"c": Element.C, "n": Element.N, "o": Element.O, "f": Element.F}
_REF_BOND_CHARS = {"-": BondType.SINGLE, "=": BondType.DOUBLE,
                   "#": BondType.TRIPLE, ":": BondType.AROMATIC}


def reference_parse_smiles(text: str) -> MolGraph:
    """``chem.parse_smiles`` with a nested helper per bond and every check
    on every bond. It differs only in taking any Unicode digit as a ring
    label, where the parser takes ASCII digits alone."""
    if text == "" or text.strip() == "":
        raise EmptyInput("empty SMILES", 0)

    atoms: list[Element] = []
    aromatic: list[bool] = []
    bonds: dict[tuple[int, int], BondType] = {}
    rings: dict[int, tuple[int, BondType | None, int]] = {}
    stack: list[tuple[int, int]] = []

    prev: int | None = None
    pending: BondType | None = None
    pending_offset = 0

    def add_bond(a: int, b: int, explicit: BondType | None, offset: int) -> None:
        if a == b:
            raise UnclosedRing("ring closure bonds an atom to itself", offset)
        if a > b:
            a, b = b, a
        if (a, b) in bonds:
            raise UnclosedRing(f"duplicate bond between atoms {a} and {b}", offset)
        if explicit is not None:
            bond = explicit
        elif aromatic[a] and aromatic[b]:
            bond = BondType.AROMATIC
        else:
            bond = BondType.SINGLE
        bonds[(a, b)] = bond

    def close_ring(label: int, offset: int) -> None:
        nonlocal pending
        if prev is None:
            raise UnclosedRing("ring closure before any atom", offset)
        if label in rings:
            other, opening_bond, _ = rings.pop(label)
            if pending is not None and opening_bond is not None and pending is not opening_bond:
                raise UnclosedRing(f"conflicting bond types on ring closure {label}", offset)
            add_bond(prev, other, pending if pending is not None else opening_bond, offset)
        else:
            rings[label] = (prev, pending, offset)
        pending = None

    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch in _REF_ALIPHATIC or ch in _REF_AROMATIC:
            atoms.append(_REF_ALIPHATIC.get(ch) or _REF_AROMATIC[ch])
            aromatic.append(ch in _REF_AROMATIC)
            idx = len(atoms) - 1
            if prev is not None:
                add_bond(prev, idx, pending, i)
            pending = None
            prev = idx
        elif ch in _REF_BOND_CHARS:
            if prev is None:
                raise UnsupportedAtom("bond symbol before any atom", i)
            pending = _REF_BOND_CHARS[ch]
            pending_offset = i
        elif ch.isdigit():
            close_ring(int(ch), i)
        elif ch == "%":
            two = text[i + 1:i + 3]
            if len(two) < 2 or not two.isdigit():
                raise UnclosedRing("malformed %nn ring closure", i)
            close_ring(int(two), i)
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

    return MolGraph(tuple(atoms), frozenset((a, b, t) for (a, b), t in bonds.items()))


def reference_write_smiles(m: MolGraph) -> str:
    """``chem.write_smiles`` with a set of seen bonds for the spanning
    forest and one nested call per atom for the preorder, so a long chain
    raises ``RecursionError``. It writes the same bytes."""
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


def _ref_fmt_order(half: int) -> str:
    return str(half // 2) if half % 2 == 0 else f"{half / 2:g}"


def reference_cycle_edges(m: MolGraph) -> set[tuple[int, int]]:
    """The bonds on at least one cycle: the complement of the bridges,
    which a low-link walk over a dict adjacency of bond ids finds by
    skipping the parent bond rather than the parent atom."""
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


def reference_check_validity(m: MolGraph) -> ValidityReport:
    """``chem.check_validity`` in separate passes: bond orders, then
    aromatic placement, then a walk over a dict adjacency."""
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
                f"valence {_ref_fmt_order(half_sums[i])} > {el.max_valence} at atom {i}"
            )

    if any(t is BondType.AROMATIC for _, _, t in m.bonds):
        cyclic = reference_cycle_edges(m)
        for i, j, t in sorted(m.bonds):
            if t is BondType.AROMATIC and (i, j) not in cyclic:
                violations.append(f"aromatic bond ({i},{j}) not on a cycle")
        for i in range(m.n):
            if aromatic_deg[i] == 1:
                violations.append(f"atom {i} has exactly one aromatic bond")

    adj: dict[int, list[int]] = {i: [] for i in range(m.n)}
    for i, j, _ in m.bonds:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        for nxt in adj[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if len(seen) != m.n:
        violations.append("graph is disconnected")

    return ValidityReport(valid=not violations, violations=violations)


def reference_check_bonds(atoms: tuple[Element, ...], bonds: frozenset) -> None:
    """``MolGraph.__post_init__``'s checks as one loop over every bond, with
    no set of pair ints first: it raises the error the constructor raises."""
    n = len(atoms)
    if n < 1:
        raise ValueError("a molecule has at least one atom")
    seen: set[tuple[int, int]] = set()
    for i, j, _ in bonds:
        if i == j:
            raise ValueError(f"self-loop at atom {i}")
        if not (0 <= i < j < n):
            raise ValueError(f"bond ({i},{j}) out of range for {n} atoms")
        if (i, j) in seen:
            raise ValueError(f"duplicate bond ({i},{j})")
        seen.add((i, j))


_REF_ELEM_RANK = {el: r for r, el in enumerate(ELEMENTS)}
_REF_BOND_RANK = {bt: r for r, bt in enumerate(BOND_TYPES)}


def _ref_refine(nbrs, colours, cells):
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


def _ref_edge_code(lab, edges):
    n = len(lab)
    out = []
    for i, j, b in edges:
        a, c = lab[i], lab[j]
        out.append(((a * n + c) if a < c else (c * n + a)) * 4 + b)
    out.sort()
    return out


def _ref_orbits(n, gens):
    root = list(range(n))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for g in gens:
        for x, y in enumerate(g):
            a, b = find(x), find(y)
            if a != b:
                root[max(a, b)] = min(a, b)
    return [find(x) for x in range(n)]


def _ref_search(nbrs, edges, colours, cells):
    n = len(colours)
    autos = []
    leaves = []

    def leaf(lab, path):
        code = _ref_edge_code(lab, edges)
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

    def node(colours, cells, path):
        depth = len(path)
        sizes = [0] * n
        for c in colours:
            sizes[c] += 1
        target = next(c for c in range(n) if sizes[c] > 1)
        cell = [v for v in range(n) if colours[v] == target]
        done = []
        orbit = []
        known = -1
        for v in cell:
            if done:
                if known != len(autos):
                    known = len(autos)
                    orbit = _ref_orbits(n, [g for g in autos if all(g[u] == u for u in path)])
                if any(orbit[u] == orbit[v] for u in done):
                    continue
            done.append(v)
            child = colours[:]
            for u in cell:
                if u != v:
                    child[u] = target + 1
            child, child_cells = _ref_refine(nbrs, child, cells + 1)
            if child_cells == n:
                back = leaf(child, path + [v])
            else:
                back = node(child, child_cells, path + [v])
            if back < depth:
                return back
        return depth - 1

    node(colours, cells, [])
    return leaves[1][0]


def _ref_name_layer(layer, elems, nbrs, name, names, code):
    sigs = []
    for v in layer:
        kids = sorted([name[u] * 4 + b for u, b in nbrs[v] if name[u] >= 0])
        sigs.append(((elems[v], len(kids), *kids), v))
    sigs.sort()
    for sig, v in sigs:
        name[v] = names.setdefault(sig, len(names))
        code.extend(sig)


def _ref_peel(elems, nbrs):
    deg = [len(nb) for nb in nbrs]
    name = [-1] * len(elems)
    names = {}
    code = []
    layer = [v for v, d in enumerate(deg) if d < 2]
    while True:
        _ref_name_layer(layer, elems, nbrs, name, names, code)
        nxt = []
        for v in layer:
            for u, _ in nbrs[v]:
                deg[u] -= 1
                if deg[u] == 1:
                    nxt.append(u)
        if not nxt:
            return name, names, code, layer
        layer = nxt


def _ref_least_rotation(s):
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


def _ref_searched_code(elems, nbrs):
    n = len(elems)
    edges = [(i, j, b) for i, nb in enumerate(nbrs) for j, b in nb if i < j]
    counts = [0] * len(ELEMENTS)
    for e in elems:
        counts[e] += 1
    starts = [sum(counts[:e]) for e in range(len(ELEMENTS))]
    colours, cells = _ref_refine(nbrs, [starts[e] for e in elems],
                                 sum(1 for c in counts if c))
    code = _ref_search(nbrs, edges, colours, cells) if cells < n else _ref_edge_code(colours, edges)
    return [*sorted(elems), *code]


def _ref_component_code(elems, nbrs):
    n = len(elems)
    edges = sum(map(len, nbrs)) // 2
    if edges == n - 1:
        _, _, code, layer = _ref_peel(elems, nbrs)
        if len(layer) == 2:
            code.append(next(b for u, b in nbrs[layer[0]] if u == layer[1]))
        return (n, n - 1, *code)
    if edges == n:
        name, names, code, _ = _ref_peel(elems, nbrs)
        ring = []
        bonds = []
        prev, v = -1, name.index(-1)
        while not ring or v != ring[0]:
            u, b = next((u, b) for u, b in nbrs[v] if name[u] < 0 and u != prev)
            ring.append(v)
            bonds.append(b)
            prev, v = v, u
        _ref_name_layer(ring, elems, nbrs, name, names, code)
        fwd = [name[v] * 4 + b for v, b in zip(ring, bonds)]
        back = [name[ring[i]] * 4 + bonds[i - 1] for i in range(len(ring) - 1, -1, -1)]
        for t in min(_ref_least_rotation(fwd), _ref_least_rotation(back)):
            code.extend(divmod(t, 4))
        return (n, n, len(ring), *code)
    return (n, edges, *_ref_searched_code(elems, nbrs))


def _ref_adjacency(m):
    elems = [_REF_ELEM_RANK[a] for a in m.atoms]
    nbrs = [[] for _ in range(m.n)]
    for i, j, t in m.bonds:
        b = _REF_BOND_RANK[t]
        nbrs[i].append((j, b))
        nbrs[j].append((i, b))
    return elems, nbrs


def reference_canonical_key(m: MolGraph) -> bytes:
    """``chem.canonical_key`` with no peel of the whole graph: every graph
    is split into components first, and a component with several cycles is
    refined and searched whole, from element colours. Tree and one-cycle
    components get the encodings ``canonical_key`` gives them, so their
    keys are the same bytes; other keys differ but fall into the same
    classes."""
    elems, nbrs = _ref_adjacency(m)
    seen = [False] * m.n
    parts = []
    for root in range(m.n):
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
        loc = {v: k for k, v in enumerate(comp)}
        parts.append(_ref_component_code([elems[v] for v in comp],
                                         [[(loc[j], b) for j, b in nbrs[v]] for v in comp]))
    parts.sort()
    return hashlib.sha256(array("q", [x for part in parts for x in part])).digest()


def reference_searched_encoding(m: MolGraph) -> tuple[int, ...]:
    """The reference's refine-and-search encoding of a connected molecule,
    whatever its cycles: a complete invariant to compare partitions with."""
    elems, nbrs = _ref_adjacency(m)
    return (m.n, len(m.bonds), *_ref_searched_code(elems, nbrs))


@pytest.fixture(scope="session")
def corpus():
    """Session-wide synthetic molecule dataset."""
    return synthetic_dataset(400, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
