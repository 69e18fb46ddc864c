"""Enumeration of the words of the cobar and bar constructions, and
desuspension.

A cobar word is a nonempty tensor string of desuspended symmetric words
(s^{-1}Sym^{k}); a bar word is a tensor string of suspended cobar words (big
side) or of suspended symmetric-algebra words (small side).  Both are
``exactlin.Word``s, whose kind carries the degree shift of a letter.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter, sub

from .exactlin import BAR, COBAR, Word, axpy, compositions, exact_sum, s_power_sign, sym_word


def sym_words(gens, weight):
    """All nonzero symmetric words of a given weight, canonical order."""
    out = []
    for combo in itertools.combinations_with_replacement(sorted(gens), weight):
        sign, w = sym_word(combo)
        if w is not None:
            out.append(w)
    return out


def sym_words_upto(gens, weight_cap):
    """All nonzero symmetric words of weight 1 to ``weight_cap``, by weight."""
    return [w for weight in range(1, weight_cap + 1) for w in sym_words(gens, weight)]


def cobar_words(gens, rank):
    """All cobar words of a given rank over suspended generators."""
    out = []
    for comp in compositions(rank):
        pools = [sym_words(gens, m) for m in comp]
        for letters in itertools.product(*pools):
            out.append(Word(COBAR, letters))
    return out


def bar_words(letter_pools, rank_cap, length_cap):
    """Bar words with letters drawn from {rank: pool}, ranks >= 1, within
    both caps, each once, in report order: by total rank, then by length,
    then by letters, each letter ordered by (its pool's rank, its position
    in the pool).  Over pools in ``sort_key`` order, such as ``sym_words``,
    that is the order of the bar words' ``sort_key``."""
    out = []
    pools = sorted(letter_pools.items())
    for rank in range(1, rank_cap + 1):
        for length in range(1, min(rank, length_cap) + 1):
            _extend_bar_words(out, pools, letter_pools, (), rank, length)
    return out


def _extend_bar_words(out, pools, by_rank, prefix, remaining, slots):
    """Append to ``out`` every bar word of ``prefix`` followed by ``slots``
    letters of total rank ``remaining``, in order: the last letter takes
    exactly the rank that is left, each other one at most what leaves a rank
    of 1 for every later slot."""
    if slots == 1:
        out.extend(Word(BAR, prefix + (letter,)) for letter in by_rank.get(remaining, ()))
        return
    for r, pool in pools:
        if r > remaining - slots + 1:
            break
        for letter in pool:
            _extend_bar_words(out, pools, by_rank, prefix + (letter,), remaining - r, slots - 1)


def bar_words_algebra(gens, rank_cap, length_cap, admits=None):
    """Bar words over Sym^{>=1} algebra words (the small side), in report
    order.  Given ``admits``, a predicate on a sorted multiset of generators
    and a length, only the bar words whose generators form a multiset that
    it admits at their length: each admitted multiset is split every way
    into that many symmetric words, and the words of each rank and length
    are sorted into report order."""
    if admits is None:
        pools = {w: sym_words(gens, w) for w in range(1, rank_cap + 1)}
        return bar_words(pools, rank_cap, length_cap)
    gens = sorted(gens)
    letters = sym_words_upto(gens, rank_cap)
    position = {w: i for i, w in enumerate(letters)}
    by_counts = {tuple(map(w.letters.count, gens)): w for w in letters}
    splits = {}
    out = []
    for rank in range(1, rank_cap + 1):
        multisets = list(itertools.combinations_with_replacement(gens, rank))
        for length in range(1, min(rank, length_cap) + 1):
            found = [split for multiset in multisets if admits(multiset, length)
                     for split in _splits(tuple(map(multiset.count, gens)), length,
                                          by_counts, splits)]
            found.sort(key=lambda split: tuple(map(position.__getitem__, split)))
            out.extend(Word(BAR, split) for split in found)
    return out


def _splits(counts, slots, by_counts, memo):
    """The tuples of ``slots`` nonzero symmetric words whose generators
    together form the multiset of generator multiplicities ``counts``;
    ``by_counts`` holds the words by their multiplicities, and ``memo`` the
    splits found so far by (counts, slots)."""
    found = memo.get((counts, slots))
    if found is None:
        if slots == 1:
            found = [(by_counts[counts],)] if counts in by_counts else []
        else:
            found = []
            for take in itertools.product(*[range(c + 1) for c in counts]):
                word = by_counts.get(take)
                if word is not None:
                    rest = tuple(map(sub, counts, take))
                    tails = _splits(rest, slots - 1, by_counts, memo)
                    found += [(word,) + split for split in tails]
        memo[counts, slots] = found
    return found


def desuspension_sign(block_degrees):
    """Sign of s^{-1} Sym applied to consecutive blocks of generators, given
    the degrees of each block; only their parities matter.

    The block operators act right block first; one of degree 1 - len(block)
    moves past the generators of the blocks before it.
    """
    sign = 1
    seen_deg = 0
    for bdegs in block_degrees:
        if (1 - len(bdegs)) % 2 and seen_deg % 2:
            sign = -sign
        sign *= s_power_sign(bdegs)
        seen_deg += sum(bdegs)
    return sign


def desuspended_letter(block):
    """The letter s^{-1} Sym of one block of generators: (Koszul sign of the
    sort, symmetric word), or (0, None) when the block repeats an odd
    suspended letter."""
    return sym_word([g.shifted(-1) for g in block])


def desuspended_word(blocks):
    """The cobar word with one ``desuspended_letter`` per block, and the
    product of their sort signs; (0, None) when a block dies.  The sign of
    the desuspensions themselves is ``desuspension_sign``."""
    sign = 1
    letters = []
    for block in blocks:
        s2, w = desuspended_letter(block)
        if w is None:
            return 0, None
        sign *= s2
        letters.append(w)
    return sign, Word(COBAR, letters)


# the word and the coefficient of every pick of every product; map over an
# itemgetter is faster than a generator expression
_word, _coeff = itemgetter(0), itemgetter(1)


def vector_product(factors, combine):
    """Product of ``Vector``s, combine(tuple_of_words) -> (integer coeff,
    key), as a ``Vector`` over the product of the factors' dens: the one
    multilinear expansion of the package."""
    out = {}
    for picks in itertools.product(*[f.terms.items() for f in factors]):
        c2, key = combine(tuple(map(_word, picks)))
        if key is not None and c2:
            axpy(out, {key: math.prod(map(_coeff, picks), start=c2)})
    return exact_sum([(out, 1, math.prod(f.den for f in factors))])
