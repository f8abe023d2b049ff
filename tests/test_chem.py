"""Parser, writer, canonical keys, validity, dataset loading."""

import hashlib
import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moldiff.chem import (
    AllLinesFailed,
    BOND_TYPES,
    BadWeights,
    Categorical,
    Dataset,
    BondType,
    ELEMENTS,
    Element,
    EmptyInput,
    FileUnreadable,
    MolGraph,
    UnbalancedParenthesis,
    UnclosedRing,
    UnsupportedAtom,
    canonical_key,
    check_validity,
    load_dataset,
    molgraph,
    parse_smiles,
    read_smiles,
    synthetic_molecules,
    write_smiles,
)

from conftest import reference_check_validity, reference_parse_smiles


def bonds_of(m):
    return sorted((i, j, t.name) for i, j, t in m.bonds)


class TestParse:
    def test_linear_chain(self):
        m = parse_smiles("CCO")
        assert [a.symbol for a in m.atoms] == ["C", "C", "O"]
        assert bonds_of(m) == [(0, 1, "SINGLE"), (1, 2, "SINGLE")]

    def test_ring_closure_triangle(self):
        m = parse_smiles("C1CC1")
        assert [a.symbol for a in m.atoms] == ["C", "C", "C"]
        assert bonds_of(m) == [(0, 1, "SINGLE"), (0, 2, "SINGLE"), (1, 2, "SINGLE")]

    def test_triple_bond(self):
        m = parse_smiles("C#N")
        assert bonds_of(m) == [(0, 1, "TRIPLE")]

    def test_branches(self):
        m = parse_smiles("CC(=O)N")
        assert bonds_of(m) == [(0, 1, "SINGLE"), (1, 2, "DOUBLE"), (1, 3, "SINGLE")]

    def test_aromatic_ring_defaults(self):
        m = parse_smiles("c1ccccc1")
        assert all(t is BondType.AROMATIC for _, _, t in m.bonds)
        assert len(m.bonds) == 6

    def test_percent_ring_closure(self):
        m = parse_smiles("C%12CC%12")
        assert bonds_of(m) == [(0, 1, "SINGLE"), (0, 2, "SINGLE"), (1, 2, "SINGLE")]

    def test_unclosed_ring_names_offset(self):
        with pytest.raises(UnclosedRing) as ei:
            parse_smiles("C1CC")
        assert ei.value.offset == 1

    def test_unbalanced_parenthesis(self):
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("CC(C")
        with pytest.raises(UnbalancedParenthesis):
            parse_smiles("CC)C")

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_smiles("")
        with pytest.raises(EmptyInput):
            parse_smiles("   ")

    @pytest.mark.parametrize("bad", ["C[NH4+]", "CS", "C@H", "C/C=C/C", "Cl"])
    def test_unsupported_atoms_rejected(self, bad):
        with pytest.raises(UnsupportedAtom):
            parse_smiles(bad)

    def test_dangling_bond(self):
        with pytest.raises(UnsupportedAtom):
            parse_smiles("CC=")

    def test_offsets_are_byte_positions(self):
        with pytest.raises(UnsupportedAtom) as ei:
            parse_smiles("CCCX")
        assert ei.value.offset == 3

    @pytest.mark.parametrize("text", ["CC(é", "CC(éC)", "CC(\u00b2"])
    def test_offset_indexes_the_str(self, text):
        # the parse stops at the first non-ASCII character, so the offset
        # is a str index and a UTF-8 byte position alike
        with pytest.raises(UnsupportedAtom) as ei:
            parse_smiles(text)
        assert ei.value.offset == 3 == len(text[:3].encode("utf-8"))
        assert not text[ei.value.offset].isascii()

    @pytest.mark.parametrize("text, error, message", [
        ("C\u00b2", UnsupportedAtom, "unsupported character '\u00b2'"),
        ("C\u0663CC\u0663", UnsupportedAtom, "unsupported character '\u0663'"),
        ("C%\u00b2\u00b2CC%\u00b2\u00b2", UnclosedRing, "malformed %nn ring closure"),
        ("C%\u0663\u0663CC%\u0663\u0663", UnclosedRing, "malformed %nn ring closure"),
    ])
    def test_ring_labels_are_ascii_digits(self, text, error, message):
        # str.isdigit() accepts superscripts and Arabic-Indic digits
        with pytest.raises(error) as ei:
            parse_smiles(text)
        assert ei.value.offset == 1
        assert str(ei.value) == f"{message} at offset 1"

    def test_non_ascii_digit_line_is_unparsed(self, tmp_path):
        path = tmp_path / "digits.smi"
        path.write_text("CCO\nC\u00b2\nC\u0663CC\u0663\nC%\u0663\u0663CC%\u0663\u0663\nCC\n",
                        encoding="utf-8")
        assert [m is None for m in read_smiles(path)] == [False, True, True, True, False]
        ds = load_dataset(path)
        assert (len(ds), ds.skipped) == (2, 3)


class TestWrite:
    def test_single_atom(self):
        assert write_smiles(molgraph(["C"], [])) == "C"

    def test_roundtrip_triangle(self):
        m = parse_smiles("C1CC1")
        again = parse_smiles(write_smiles(m))
        assert canonical_key(again) == canonical_key(m)

    def test_carbonyl_either_direction(self):
        m = parse_smiles("C=O")
        s = write_smiles(m)
        assert s in ("C=O", "O=C")
        assert canonical_key(parse_smiles(s)) == canonical_key(m)

    def test_aromatic_single_bond_marked_explicitly(self):
        # aromatic ring with a lone single bond between two aromatic atoms
        # elsewhere would mis-parse without the explicit '-'
        m = parse_smiles("c1ccccc1-c1ccccc1")
        s = write_smiles(m)
        again = parse_smiles(s)
        assert canonical_key(again) == canonical_key(m)

    def test_disconnected_components_roundtrip(self):
        m = molgraph(["C", "O"], [])
        s = write_smiles(m)
        assert "." in s
        assert canonical_key(parse_smiles(s)) == canonical_key(m)

    def test_roundtrip_over_corpus(self, corpus):
        for m in corpus.molecules[:200]:
            s = write_smiles(m)
            assert canonical_key(parse_smiles(s)) == canonical_key(m)


class TestCanonicalKey:
    def test_reversed_spelling(self):
        assert canonical_key(parse_smiles("CCO")) == canonical_key(parse_smiles("OCC"))

    def test_different_elements_differ(self):
        assert canonical_key(parse_smiles("CCO")) != canonical_key(parse_smiles("CCN"))

    def test_bond_types_distinguish(self):
        assert canonical_key(parse_smiles("CC=O")) != canonical_key(parse_smiles("CCO"))

    def test_permutation_invariance(self, corpus, rng):
        for m in corpus.molecules[:25]:
            key = canonical_key(m)
            for _ in range(20):
                perm = list(rng.permutation(m.n))
                assert canonical_key(m.permuted(perm)) == key

    def test_symmetric_ring(self):
        # fully symmetric cycle exercises the individualization tie-break
        m = parse_smiles("C1CCCCCCCC1")
        key = canonical_key(m)
        rng = np.random.default_rng(5)
        for _ in range(30):
            perm = list(rng.permutation(m.n))
            assert canonical_key(m.permuted(perm)) == key

    def test_isomorphic_but_distinct_graphs(self):
        path = parse_smiles("CCCC")  # path
        star = parse_smiles("CC(C)C")  # star
        assert canonical_key(path) != canonical_key(star)

    @pytest.mark.parametrize("a, b", [
        pytest.param("CCCCC", "CC(C)CC", id="unicentral-vs-bicentral"),
        pytest.param("CC(C)(C)C", "CC(C)CC", id="star-vs-bicentral"),
        pytest.param("CC(C)C(C)C", "CC(C)=C(C)C", id="central-bond-type"),
        pytest.param("NC(F)C(O)C", "NC(C)C(O)F", id="side-of-the-F"),
    ])
    def test_trees_that_differ_near_the_centre(self, a, b):
        ma, mb = parse_smiles(a), parse_smiles(b)
        assert ma.n == mb.n and not brute_force_isomorphic(ma, mb)
        assert canonical_key(ma) != canonical_key(mb)
        rng = np.random.default_rng(8)
        for m in (ma, mb):
            for _ in range(10):
                assert canonical_key(m.permuted(list(rng.permutation(m.n)))) == canonical_key(m)

    def test_regular_graph_coarser_than_orbits(self):
        # cubic and connected but not vertex-transitive: refinement leaves one
        # cell, and the search must try more than one atom of it
        edges = [(0, 1), (0, 4), (0, 6), (1, 2), (1, 3), (2, 5),
                 (2, 7), (3, 4), (3, 7), (4, 6), (5, 6), (5, 7)]
        m = molgraph(["C"] * 8, [(i, j, BondType.SINGLE) for i, j in edges])
        key = canonical_key(m)
        rng = np.random.default_rng(3)
        for _ in range(30):
            assert canonical_key(m.permuted(list(rng.permutation(m.n)))) == key


def _best_of_3_ms(fn):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


class TestCanonicalKeyTime:
    """Symmetric graphs key in bounded time: the search prunes by
    automorphisms, and trees, however long or wide, skip it."""

    @pytest.mark.parametrize("bonds", [
        pytest.param([], id="bondless-9"),
        pytest.param([(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)], id="three-C3-chains"),
        pytest.param([(i, (i + 1) % 9) for i in range(9)], id="ring-9"),
        pytest.param(list(itertools.combinations(range(9), 2)), id="K9"),
    ])
    def test_symmetric_graph(self, bonds):
        m = molgraph(["C"] * 9, [(i, j, BondType.SINGLE) for i, j in bonds])
        assert _best_of_3_ms(lambda: canonical_key(m)) < 50

    @pytest.mark.parametrize("bonds", [
        pytest.param([(i, i + 1) for i in range(1999)], id="chain-2000"),
        pytest.param([(0, i) for i in range(1, 2000)], id="star-2000"),
    ])
    def test_large_tree(self, bonds):
        m = molgraph(["C"] * 2000, [(i, j, BondType.SINGLE) for i, j in bonds])
        assert _best_of_3_ms(lambda: canonical_key(m)) < 250
        perm = list(np.random.default_rng(4).permutation(m.n))
        assert canonical_key(m.permuted(perm)) == canonical_key(m)

    def test_load_dotted_carbons(self, tmp_path):
        path = tmp_path / "dots.smi"
        path.write_text("C.C.C.C.C.C.C.C.C\n")
        assert _best_of_3_ms(lambda: load_dataset(path)) < 50
        assert len(load_dataset(path).canonical_keys) == 1


class TestValidity:
    def test_carbon_over_valence(self):
        m = molgraph(["C", "C", "C", "C", "C", "C"],
                     [(0, k, BondType.SINGLE) for k in range(1, 6)])
        report = check_validity(m)
        assert not report.valid
        assert "valence 5 > 4 at atom 0" in report.violations

    def test_oxygen_two_singles_ok(self):
        m = parse_smiles("COC")
        assert check_validity(m).valid

    def test_fluorine_double_bond_invalid(self):
        m = molgraph(["F", "C"], [(0, 1, BondType.DOUBLE)])
        report = check_validity(m)
        assert not report.valid
        assert any("valence 2 > 1 at atom 0" == v for v in report.violations)

    def test_aromatic_bond_off_cycle(self):
        m = molgraph(["C", "C"], [(0, 1, BondType.AROMATIC)])
        report = check_validity(m)
        assert not report.valid

    def test_lone_aromatic_degree(self):
        # benzene plus an extra aromatic spur: spur endpoint has degree 1
        m = parse_smiles("c1ccccc1")
        bonds = set(m.bonds) | {(0, 6, BondType.AROMATIC)}
        bad = MolGraph(m.atoms + (Element.C,), frozenset(bonds))
        report = check_validity(bad)
        assert not report.valid

    def test_disconnected_invalid(self):
        m = molgraph(["C", "C"], [])
        report = check_validity(m)
        assert not report.valid
        assert "graph is disconnected" in report.violations

    def test_monotone_adding_bond_never_fixes(self, corpus, rng):
        # adding a bond to an invalid molecule must not make it valid
        for m in corpus.molecules[:40]:
            if m.n < 3:
                continue
            # break it: overload atom 0 beyond valence with extra bonds
            extra = [(0, j) for j in range(1, m.n)
                     if not any({i, k} == {0, j} for i, k, _ in m.bonds)]
            if not extra:
                continue
            bonds = set(m.bonds)
            for j in range(1, m.n):
                if not any({a, b} == {0, j} for a, b, _ in m.bonds):
                    bonds.add((0, j, BondType.TRIPLE))
            broken = MolGraph(m.atoms, frozenset(bonds))
            if check_validity(broken).valid:
                continue
            pairs = {(a, b) for a, b, _ in broken.bonds}
            candidates = [(a, b) for a in range(m.n) for b in range(a + 1, m.n)
                          if (a, b) not in pairs]
            for a, b in candidates[:3]:
                grown = MolGraph(m.atoms, frozenset(set(broken.bonds) | {(a, b, BondType.SINGLE)}))
                assert not check_validity(grown).valid

    def test_corpus_all_valid(self, corpus):
        assert all(check_validity(m).valid for m in corpus.molecules)


class TestCorpus:
    @pytest.mark.parametrize("seed, digest", [
        (0, "e03a04a884cf420bd12089d7b64274cac6106bc86e21783b87b5a1863642ec33"),
        (11, "3a6171c9c5eeb09e3c2502e1196532f04f29806ed49abd9384f6bd5945d6eb59"),
        (23, "09961c302251f5cd1f7b89a6d6fa7ec3b32bfe47fa556f23b27f40eb11f76da1"),
    ])
    def test_molecules_are_pinned(self, seed, digest):
        """The digests were taken when every size and element was drawn by
        ``rng.choice(..., p=...)``, so the table draws give a seed the same
        molecules."""
        h = hashlib.sha256()
        for m in synthetic_molecules(500, seed):
            h.update(repr(([a.name for a in m.atoms], bonds_of(m))).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("weights", [
        [0.002, 0.003, 0.005, 0.01, 0.02, 0.04, 0.09, 0.18, 0.65],
        [0.72, 0.12, 0.14, 0.02],
        [0.0, 3.0, 0.0, 1.0, 0.0],
        [2, 7, 1],
        [5.0],
    ])
    def test_draws_equal_rng_choice(self, weights):
        """Draw for draw, a table draw returns what ``rng.choice(a, p=p)``
        returns and leaves the generator in the state it leaves."""
        outcomes = [10 * k + 1 for k in range(len(weights))]
        table = Categorical(outcomes, weights)
        w = np.array(weights, dtype=np.float64)
        drawn, ref = np.random.default_rng(9), np.random.default_rng(9)
        got = [table.draw(drawn) for _ in range(10_000)]
        want = [int(ref.choice(np.array(outcomes), p=w / w.sum())) for _ in range(10_000)]
        assert got == want
        assert drawn.bit_generator.state == ref.bit_generator.state
        assert {o for o, x in zip(outcomes, weights) if x == 0}.isdisjoint(got)

    @pytest.mark.parametrize("weights", [
        [0.5, -0.1, 0.6], [0.5, np.nan], [np.inf, 1.0], [0.0, 0.0], [], [[1.0, 2.0]],
    ])
    def test_bad_weights_are_refused(self, weights):
        with pytest.raises(BadWeights):
            Categorical(list(range(len(weights))), weights)

    def test_one_weight_per_outcome(self):
        with pytest.raises(BadWeights):
            Categorical([1, 2, 3], [0.5, 0.5])


@st.composite
def random_molecules(draw):
    seed = draw(st.integers(0, 10_000))
    return synthetic_molecules(1, seed=seed)[0]


@st.composite
def typed_graphs(draw, n):
    """Random graph on n atoms over a drawn subset of elements and bond types,
    connected or not; small subsets make isomorphic pairs common."""
    elements = ELEMENTS[:draw(st.integers(1, len(ELEMENTS)))]
    bond_types = BOND_TYPES[:draw(st.integers(1, len(BOND_TYPES)))]
    atoms = draw(st.lists(st.sampled_from(elements), min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from((None,) + bond_types),
                          min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pairs = itertools.combinations(range(n), 2)
    return MolGraph(tuple(atoms), frozenset(
        (i, j, t) for (i, j), t in zip(pairs, kinds) if t is not None))


@st.composite
def graph_pairs(draw):
    """Two graphs of one size; the second is often a relabelled copy of the first."""
    n = draw(st.integers(1, 6))
    a = draw(typed_graphs(n))
    b = a if draw(st.booleans()) else draw(typed_graphs(n))
    return a, b.permuted(draw(st.permutations(range(n))))


def prufer_edges(n: int, seq: list[int]) -> list[tuple[int, int]]:
    """The edges of the labelled tree on n atoms with Prüfer sequence ``seq``."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    if n > 1:
        edges.append(tuple(u for u in range(n) if degree[u] == 1))
    return edges


@st.composite
def typed_forests(draw, n):
    """Random tree on n atoms from a Prüfer sequence over a drawn subset of
    elements and bond types; half of them lose a drawn subset of bonds and
    become forests."""
    elements = ELEMENTS[:draw(st.integers(1, len(ELEMENTS)))]
    bond_types = BOND_TYPES[:draw(st.integers(1, len(BOND_TYPES)))]
    atoms = draw(st.lists(st.sampled_from(elements), min_size=n, max_size=n))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=max(n - 2, 0), max_size=max(n - 2, 0)))
    edges = prufer_edges(n, seq)
    kept = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges))) \
        if draw(st.booleans()) else [True] * len(edges)
    kinds = draw(st.lists(st.sampled_from(bond_types), min_size=len(edges), max_size=len(edges)))
    return MolGraph(tuple(atoms), frozenset(
        (min(i, j), max(i, j), t) for (i, j), t, k in zip(edges, kinds, kept) if k))


@st.composite
def forest_pairs(draw):
    """Two forests of one size; the second is often a relabelled copy of the first."""
    n = draw(st.integers(1, 7))
    a = draw(typed_forests(n))
    b = a if draw(st.booleans()) else draw(typed_forests(n))
    return a, b.permuted(draw(st.permutations(range(n))))


def brute_force_isomorphic(a, b):
    return any(a.permuted(list(perm)) == b for perm in itertools.permutations(range(a.n)))


class TestProperties:
    @given(graph_pairs())
    @settings(max_examples=200, deadline=None)
    def test_key_equality_is_isomorphism(self, pair):
        # half the pairs are a graph and a relabelled copy, which must share a key
        a, b = pair
        assert (canonical_key(a) == canonical_key(b)) == brute_force_isomorphic(a, b)

    @given(forest_pairs())
    @settings(max_examples=200, deadline=None)
    def test_forest_key_equality_is_isomorphism(self, pair):
        a, b = pair
        assert (canonical_key(a) == canonical_key(b)) == brute_force_isomorphic(a, b)

    @given(random_molecules())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_preserves_key(self, m):
        assert canonical_key(parse_smiles(write_smiles(m))) == canonical_key(m)

    @given(random_molecules(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_key_permutation_invariant(self, m, perm_seed):
        perm = list(np.random.default_rng(perm_seed).permutation(m.n))
        assert canonical_key(m.permuted(perm)) == canonical_key(m)


def parse_outcome(parse, text):
    """The MolGraph ``parse`` returns for ``text``, or the class, message
    and offset of the error it raises."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "offset", None)


#: the SMILES alphabet with a space and one unsupported letter
FUZZ_ALPHABET = "CNOFcnof-=#:()0123456789%. S"


class TestParseEquivalence:
    """``parse_smiles`` gives what the reference parser gives: the same
    MolGraph, or the same error class, message and offset."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_corpus_smiles(self, seed):
        for m in synthetic_molecules(2000, seed=seed):
            text = write_smiles(m)
            assert parse_smiles(text) == reference_parse_smiles(text), text

    @given(st.text(alphabet=FUZZ_ALPHABET, max_size=24))
    @settings(max_examples=2000, deadline=None)
    def test_fuzz(self, text):
        assert parse_outcome(parse_smiles, text) == parse_outcome(reference_parse_smiles, text)

    def test_one_character_mutations(self):
        rng = np.random.default_rng(5)
        texts = [write_smiles(m) for m in synthetic_molecules(300, seed=23)]
        for _ in range(6000):
            text = texts[rng.integers(len(texts))]
            at = int(rng.integers(len(text) + 1))
            ch = FUZZ_ALPHABET[rng.integers(len(FUZZ_ALPHABET))]
            kind = rng.integers(3)
            if kind == 0:
                text = text[:at] + ch + text[at + 1:]
            elif kind == 1:
                text = text[:at] + ch + text[at:]
            else:
                text = text[:at] + text[at + 1:]
            assert parse_outcome(parse_smiles, text) == \
                parse_outcome(reference_parse_smiles, text), text


def disjoint_union(a, b):
    return MolGraph(a.atoms + b.atoms, a.bonds | frozenset(
        (i + a.n, j + a.n, t) for i, j, t in b.bonds))


def with_bond_type(m, t):
    return MolGraph(m.atoms, frozenset((i, j, t) for i, j, _ in m.bonds))


class TestValidityEquivalence:
    """``check_validity`` gives the reference's report: the same verdict and
    the same violations in the same order."""

    def test_corpus(self):
        for seed in (3, 17):
            for m in synthetic_molecules(2000, seed=seed):
                assert check_validity(m) == reference_check_validity(m)

    def test_disjoint_unions(self, corpus):
        mols = corpus.molecules
        for a, b in zip(mols[:100], mols[100:200]):
            for m in (disjoint_union(a, b), disjoint_union(disjoint_union(b, a), a)):
                report = check_validity(m)
                assert report == reference_check_validity(m)
                assert report.violations[-1] == "graph is disconnected"

    @pytest.mark.parametrize("bond", BOND_TYPES)
    def test_every_bond_of_one_type(self, corpus, bond):
        # all-double and all-triple bonds put most atoms over valence;
        # all-aromatic bonds put them off cycles and leave lone aromatic atoms
        for m in corpus.molecules:
            m = with_bond_type(m, bond)
            assert check_validity(m) == reference_check_validity(m)

    @pytest.mark.parametrize("text", [
        "C", "N", "O", "F", "c", "C:C", "c1ccccc1:C", "c1ccccc1-c", "C1CC:C1",
        "FC(F)(F)(F)F", "C#C#C", "c1cc:c:c1.C=C=C=C",
    ])
    def test_listed_molecules(self, text):
        m = parse_smiles(text)
        assert check_validity(m) == reference_check_validity(m)

    @given(st.integers(1, 7).flatmap(typed_graphs))
    @settings(max_examples=300, deadline=None)
    def test_random_graphs(self, m):
        assert check_validity(m) == reference_check_validity(m)


class TestDataset:
    def test_basic_counting(self, tmp_path):
        path = tmp_path / "mini.smi"
        path.write_text("# header\nCCO\nC\n")
        ds = load_dataset(path)
        assert len(ds) == 2
        assert ds.size_histogram == {3: 1, 1: 1}
        assert ds.skipped == 0
        assert len(ds.canonical_keys) == 2

    def test_malformed_line_skipped(self, tmp_path):
        path = tmp_path / "mini.smi"
        lines = ["CCO"] * 9 + ["C(("]
        path.write_text("\n".join(lines))
        ds = load_dataset(path)
        assert len(ds) == 9
        assert ds.skipped == 1

    def test_oversize_molecule_skipped(self, tmp_path):
        path = tmp_path / "mini.smi"
        path.write_text("C" * 12 + "\nCC\n")
        ds = load_dataset(path)
        assert len(ds) == 1
        assert ds.skipped == 1
        assert all(m.n <= 9 for m in ds.molecules)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            load_dataset(tmp_path / "missing.smi")

    def test_all_lines_failed(self, tmp_path):
        path = tmp_path / "bad.smi"
        path.write_text("xx1\nzz2\n")
        with pytest.raises(AllLinesFailed):
            load_dataset(path)

    def test_first_token_of_each_data_line(self, tmp_path):
        path = tmp_path / "named.smi"
        path.write_text("# name follows\n  CCO ethanol \n\nC1CC broken\n#CCCC\nCCN\tamine x\n")
        parsed = read_smiles(path)
        assert parsed[1] is None
        assert [write_smiles(m) for m in (parsed[0], parsed[2])] == [
            write_smiles(parse_smiles("CCO")), write_smiles(parse_smiles("CCN"))]
        ds = load_dataset(path)
        assert (len(ds), ds.skipped) == (2, 1)

    def test_read_smiles_unreadable_file(self, tmp_path):
        with pytest.raises(FileUnreadable):
            read_smiles(tmp_path / "missing.smi")

    def test_dataset_of_keys_and_histogram(self):
        mols = [parse_smiles(s) for s in ("CCO", "OCC", "C", "CCN")]
        ds = Dataset.of(mols, source="four")
        assert ds.molecules is mols and (ds.skipped, ds.source) == (0, "four")
        assert ds.canonical_keys == {canonical_key(m) for m in mols}
        assert len(ds.canonical_keys) == 3 and ds.size_histogram == {3: 3, 1: 1}

    def test_duplicates_collapse_in_keys(self, tmp_path):
        path = tmp_path / "dup.smi"
        path.write_text("CCO\nOCC\nC\n")
        ds = load_dataset(path)
        assert len(ds) == 3
        assert len(ds.canonical_keys) == 2
