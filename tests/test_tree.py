"""The tree form of the transfer against the perturbed contraction.

``Transfer.tree_product`` computes the products of arity n >= 2 by a
recursion on one-letter bar words; ``bpl`` perturbs the lifted contraction on
bar words of cobar words.  Both read the one series P of the transfer.  The
one-letter part of the perturbed d_small on [u_1|..|u_n] must be the tree's
F(B + t Phi), and Phi the one-letter part of the perturbed inclusion.
"""

from fractions import Fraction

import pytest
from conftest import bundled
from hypothesis import given, settings
from hypothesis import strategies as st

from enveloping.cli import BUNDLED
from enveloping import hpt
from enveloping.exactlin import to_vector
from enveloping.hpt import Transfer
from enveloping.linfty import from_complete_intersection
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
