"""Shared fixtures, the central finite-difference gradient checker and
reference implementations that tests compare the fast paths against."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

from moldiff.chem import (
    BondType,
    Element,
    EmptyInput,
    MolGraph,
    UnbalancedParenthesis,
    UnclosedRing,
    UnsupportedAtom,
    ValidityReport,
)
from moldiff.chem.graph import _cycle_edges, _fmt_order
from moldiff.diffcore import Tape, backward
from moldiff.diffcore import tensor as T
from moldiff.harness import synthetic_dataset

# HYPOTHESIS_PROFILE=ci draws the same examples on every run; the default
# profile keeps exploring new ones
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


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


def per_layer_stack(x, layers, prop=None):
    """``T.relu_stack(x, layers, prop)`` from separate nodes: per layer, a
    ``T.matmul`` node by ``prop`` on a ``prop`` stack, the complete-graph
    mean node when the layer has ``Wn``, one or two ``affine`` nodes and a
    ``relu``. The reference computes the mean itself and does not fold it
    into the weights. Same arithmetic as ``relu_stack`` on dense and
    ``prop`` stacks and on one row, so the same bits there; on
    complete-graph layers over more rows the two agree to rounding."""
    for i, (w, wn, b) in enumerate(layers):
        if prop is not None:
            x = T.affine(T.matmul(T.tensor(prop), x), w, b)
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


@pytest.fixture(scope="session")
def corpus():
    """Session-wide synthetic molecule dataset."""
    return synthetic_dataset(400, seed=11)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
