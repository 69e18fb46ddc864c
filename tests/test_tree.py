"""The tree form of the transfer against the perturbed contraction.

``Transfer.tree_product`` computes the products of arity n >= 2 by a
recursion on one-letter bar words; ``bpl`` perturbs the lifted contraction on
bar words of cobar words.  Both read the one series P of the transfer.  The
one-letter part of the perturbed d_small on [u_1|..|u_n] must be the tree's
F(B + t Phi), and Phi the one-letter part of the perturbed inclusion.
The bracket selection of ``AInftyStructure.product`` skips the tree only
where the tree is zero, and F t Phi only where it is zero.
"""

from collections import Counter
from fractions import Fraction

import pytest
from conftest import bundled
from hypothesis import given, settings
from hypothesis import strategies as st

from enveloping.cli import BUNDLED, main
from enveloping import hpt
from enveloping.exactlin import to_vector
from enveloping.hpt import Transfer
from enveloping.linfty import dg_vector_space, from_complete_intersection
from enveloping.uea import AInftyStructure, corestriction
from enveloping.words import bar_words_algebra


def assert_tree_matches_series(algebra, arity_cap, weight_cap):
    transfer = Transfer(algebra, weight_cap)
    bars = [bar for bar in bar_words_algebra(algebra.generators, weight_cap, arity_cap)
            if bar.length >= 2]
    for bar in bars:
        tree = corestriction(to_vector(transfer.tree_product(bar.letters)))
        assert tree == corestriction(transfer.con.d_small(bar)), bar
    return any(transfer.tree_product(bar.letters)[0] for bar in bars)


@pytest.mark.parametrize("name", BUNDLED)
def test_tree_products_match_the_series(name):
    # on odd1 every product of arity >= 2 vanishes: t1 * t1 = 0
    assert assert_tree_matches_series(bundled(name), 3, 3) == (name != "odd1")


VARIABLES = ("x", "y")
COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def complete_intersections(draw):
    """A complete intersection on one or two variables with one or two
    relations of one or two terms of degree 2 or 3, built as the bundled
    ``ci`` inputs are: valid by construction."""
    variables = VARIABLES[: draw(st.integers(1, 2))]
    monomials = st.lists(st.sampled_from(variables), min_size=2, max_size=3).map(
        lambda m: tuple(sorted(m)))
    terms = st.lists(st.tuples(st.sampled_from(COEFFS), monomials), min_size=1, max_size=2,
                     unique_by=lambda term: term[1])
    relations = draw(st.lists(terms, min_size=1, max_size=2))
    return from_complete_intersection(
        list(variables), {"r%d" % i: rel for i, rel in enumerate(relations, 1)})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complete_intersections(), st.integers(2, 3))
def test_tree_products_match_the_series_on_complete_intersections(algebra, arity_cap):
    assert assert_tree_matches_series(algebra, arity_cap, 3)


@pytest.mark.parametrize("name", ["sl2", "l3only", "odd2", "ci_cubic", "heisenberg",
                                  "abelian3", "sl2_adjoint", "odd1"])
def test_phi_is_the_one_letter_part_of_the_perturbed_inclusion(name):
    algebra = bundled(name)
    transfer = Transfer(algebra, 3)
    bars = bar_words_algebra(algebra.generators, 3, 3)
    for bar in bars:
        G = to_vector(transfer.con.G(bar))
        one_letter = {w: c for w, c in G.items() if w.length == 1}
        assert to_vector(transfer.phi(bar.letters)).terms == one_letter, bar
    assert any(transfer.phi(bar.letters)[0] for bar in bars if bar.length >= 2)


def test_phi_shares_the_perturbed_inclusion():
    transfer = Transfer(bundled("sl2"), 3)
    for bar in bar_words_algebra(transfer.algebra.generators, 3, 1):
        assert transfer.phi(bar.letters) is transfer.con.G(bar), bar


@pytest.mark.parametrize("name", ["sl2", "l3only", "ci_cubic"])
def test_products_build_no_bar_word_of_several_cobar_words(name, monkeypatch):
    # con0's F, G and H and the perturbation t are recorded as the transfer
    # is built, so the series and the tree both read the recorded maps
    lengths = set()

    def recording(op):
        def recorded(b):
            lengths.add(b.length)
            return op(b)
        return recorded

    lift, perturb = hpt.lift_contraction, hpt.bpl

    def lift_recorded(*args):
        con = lift(*args)
        for attr in ("F", "G", "H"):
            setattr(con, attr, recording(getattr(con, attr)))
        return con

    monkeypatch.setattr(hpt, "lift_contraction", lift_recorded)
    monkeypatch.setattr(hpt, "bpl", lambda con, t: perturb(con, recording(t)))
    structure = AInftyStructure(bundled(name), 3, 3)
    bars = structure.bar_words()
    assert any(structure.product(bar.letters) for bar in bars)
    assert {bar.length for bar in bars} == {1, 2, 3}
    # H of a one-letter word reads H of its empty suffix
    assert max(lengths) == 1
    assert all(w.length == 1 for terms, _ in structure.transfer._phi.values() for w in terms)


def move_ends(algebra, gens):
    """(total excess, end) of every nonempty sequence of moves from the
    multiset ``gens``, by brute force: a move takes the key of a bracket
    l_k, k >= 2, out of the multiset and puts one generator of its value
    in, with excess k - 2."""
    ends = []
    frontier = [(0, Counter(gens))]
    while frontier:
        excess, current = frontier.pop()
        for k, table in algebra.brackets.items():
            for key, value in table.items():
                if k < 2 or not Counter(key) <= current:
                    continue
                for g in value.terms:
                    step = (excess + k - 2, current - Counter(key) + Counter([g]))
                    ends.append(step)
                    frontier.append(step)
    return ends


def is_live(multiset):
    return all(count == 1 or g.degree % 2 == 0 for g, count in multiset.items())


def selection(algebra, bar):
    """"tree" where the tree of m_n runs, "split" where m_2 is F(B) alone,
    "skip" where the product is zero: the rule of ``AInftyStructure``, from
    an enumeration of the move sequences."""
    gens = [g for w in bar.letters for g in w.letters]
    if any(excess == bar.length - 2 and is_live(end) for excess, end in move_ends(algebra, gens)):
        return "tree"
    if bar.length == 2 and is_live(Counter(gens)):
        return "split"
    return "skip"


def assert_bracket_selection(algebra, arity_cap, weight_cap):
    """The structure runs the full tree on exactly the products that the
    rule keeps and F(B) alone on exactly its split pairs; the tree is zero
    on every product that it skips, and F(B) is the whole tree on every
    split pair.  Returns the number of products of each selection and
    arity."""
    structure = AInftyStructure(algebra, arity_cap, weight_cap)
    transfer, calls = structure.transfer, {"tree": [], "split": []}
    tree_product, split_product = transfer.tree_product, transfer.split_product

    def split_recorded(words, split=None):
        if split is None:  # a call of the structure, not one of tree_product
            calls["split"].append(words)
        return split_product(words, split)

    transfer.tree_product = lambda words: calls["tree"].append(words) or tree_product(words)
    transfer.split_product = split_recorded
    bars = [bar for bar in structure.bar_words() if bar.length >= 2]
    for bar in bars:
        structure.product(bar.letters)
    selected = {bar: selection(algebra, bar) for bar in bars}
    for kind in ("tree", "split"):
        assert calls[kind] == [bar.letters for bar in bars if selected[bar] == kind], kind
    for bar in bars:
        if selected[bar] == "skip":
            assert not structure.product(bar.letters), bar
            assert tree_product(bar.letters) == ({}, 1), bar
        elif selected[bar] == "split":
            assert split_product(bar.letters) == tree_product(bar.letters), bar
    return Counter((kind, bar.length) for bar, kind in selected.items())


@pytest.mark.parametrize("caps", [(3, 3), (4, 4)], ids=["3_3", "4_4"])
@pytest.mark.parametrize("name", BUNDLED)
def test_the_degree_rule_skips_only_zero_products(name, caps):
    # the rule reaches m_n's degree through chains of brackets; sl2 has
    # only l_2, so no sequence of moves has an excess above 0, and only
    # pairs run the tree
    selected = assert_bracket_selection(bundled(name), *caps)
    if name == "sl2":
        assert {arity for kind, arity in selected if kind == "tree"} == {2}
        assert selected["skip", 3] > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complete_intersections(), st.integers(2, 3))
def test_the_degree_rule_skips_only_zero_products_on_complete_intersections(
        algebra, arity_cap):
    assert_bracket_selection(algebra, arity_cap, 3)


def test_bracket_selection_on_l3only_at_4_5_runs_no_pair_tree():
    # l3only has only l_3, whose moves have excess 1: every pair is F(B)
    # alone or zero, and only the triples run the tree
    selected = assert_bracket_selection(bundled("l3only"), 4, 5)
    assert {arity for kind, arity in selected if kind == "tree"} == {3}
    assert selected["split", 2] > 0


def test_bracket_selection_on_a_complex():
    # l_1 only: no move at all, so every pair is F(B) alone or zero
    algebra = dg_vector_space([("v", 0, {"u": 1}), ("u", 1, {}), ("w", 0, {})])
    selected = assert_bracket_selection(algebra, 3, 3)
    assert {kind for kind, _ in selected} == {"split", "skip"}


def test_products_on_sl2_at_3_5_compute_no_triple(monkeypatch, capsys):
    arities, d_small_lengths = [], []
    tree_product, perturb = hpt.Transfer.tree_product, hpt.bpl

    def tree_product_recorded(self, words):
        arities.append(len(words))
        return tree_product(self, words)

    def bpl_recorded(con, t):
        perturbed = perturb(con, t)
        d_small = perturbed.d_small
        perturbed.d_small = lambda b: d_small_lengths.append(b.length) or d_small(b)
        return perturbed

    monkeypatch.setattr(hpt.Transfer, "tree_product", tree_product_recorded)
    monkeypatch.setattr(hpt, "bpl", bpl_recorded)
    argv = ["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap", "5",
            "--format", "json", "products"]
    assert main(argv) == 0
    assert capsys.readouterr().out
    # the pairs are computed, no triple is; m_1 still reads d_small
    assert arities and set(arities) == {2}
    assert d_small_lengths and set(d_small_lengths) == {1}
