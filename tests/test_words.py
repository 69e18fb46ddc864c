"""The bar words come out in the order that ``products`` prints them.

``words.bar_words`` enumerates by total rank, then by length, then by
letters, each letter by (its pool's rank, its position in the pool).  The
references are a depth-first enumeration of the same words and ``bar_key``,
the key of the order in which ``products`` prints its tables.
"""

import pytest
from conftest import bar_words_cobar, bundled, complete_intersections
from hypothesis import given, settings
from hypothesis import strategies as st

from enveloping.cli import BUNDLED
from enveloping.exactlin import BAR, Word
from enveloping.uea import AInftyStructure
from enveloping.words import cobar_words, sym_words


def depth_first_bar_words(letter_pools, rank_cap, length_cap):
    """Every bar word with letters drawn from {rank: pool} within both
    caps, depth first: a word, then its extensions by letters in (rank,
    pool) order."""
    pools = sorted(letter_pools.items())
    out = []

    def extend(prefix, remaining):
        if prefix:
            out.append(Word(BAR, prefix))
        if len(prefix) >= length_cap:
            return
        for r, pool in pools:
            if r > remaining:
                break
            for letter in pool:
                extend(prefix + [letter], remaining - r)

    extend([], rank_cap)
    return out


def bar_key(bar):
    """``Word.sort_key`` of a bar word with its letters' sort keys in place
    of the letters: the order of the printed product tables."""
    return (bar.rank, bar.length, tuple(x.sort_key() for x in bar.letters), bar.kind)


def assert_report_order(words, reference, key):
    """``words`` is ``reference`` as a set, each word once, in ``key``'s order."""
    assert len(set(words)) == len(words)
    assert set(words) == set(reference) and len(words) == len(reference)
    assert list(words) == sorted(reference, key=key)


def assert_structure_order(algebra, arity_cap, weight_cap):
    structure = AInftyStructure(algebra, arity_cap, weight_cap)
    pools = {r: sym_words(algebra.generators, r) for r in range(1, weight_cap + 1)}
    reference = depth_first_bar_words(pools, weight_cap, arity_cap)
    assert_report_order(structure.bar_words(), reference, bar_key)


@pytest.mark.parametrize("caps", [(4, 4), (3, 5)], ids=["4/4", "3/5"])
@pytest.mark.parametrize("name", BUNDLED)
def test_bar_words_come_in_report_order(name, caps):
    assert_structure_order(bundled(name), *caps)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complete_intersections(), st.integers(1, 4), st.integers(1, 5))
def test_bar_words_come_in_report_order_on_complete_intersections(
        algebra, arity_cap, weight_cap):
    assert_structure_order(algebra, arity_cap, weight_cap)


@pytest.mark.parametrize("name", ["sl2", "l3only", "odd2"])
def test_bar_words_of_cobar_words_come_in_pool_order(name):
    # cobar pools are not in sort_key order; the letters of one rank come in
    # the order of their pool
    gens = tuple(g.shifted(-1) for g in bundled(name).generators)
    pools = {r: cobar_words(gens, r) for r in range(1, 4)}
    position = {x: (r, i) for r, pool in pools.items() for i, x in enumerate(pool)}
    reference = depth_first_bar_words(pools, 3, 3)
    assert_report_order(bar_words_cobar(gens, 3, 3), reference, lambda bar: (
        bar.rank, bar.length, tuple(position[x] for x in bar.letters)))
