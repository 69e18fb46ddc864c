"""The perturbation engine: cobar differentials, the bar coderivation of
k-ary components, the lifted tensor contraction, and the basic perturbation
lemma with lazily evaluated transfer series.

Truncation discipline: every operator here preserves or decreases both the
rank (number of algebra letters) and the bar length, so computations capped
by (rank, length) are exact, never approximate.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .exactlin import (
    BAR,
    COBAR,
    Contraction,
    Vector,
    Word,
    axpy,
    conjugation_sign,
    memo_op,
    sym_word,
)
from .linfty import CECoalgebra
from .permutahedra import cobar_f, cobar_g, cobar_gf, cobar_h
from .words import vector_product

# The coproduct part of the cobar differential carries a global sign choice;
# this one makes the transferred product on the symmetric coalgebra match the
# classical enveloping normalization (see the product tests), and every
# contraction identity is verified against it exhaustively.
COPRODUCT_SIGN = -1


def cobar_differential(C):
    """Derivation on cobar words from the coalgebra differential of C.

    The letter part -s^{-1} delta_C s is the coderivation with the one
    component delta_C; the coproduct part splits a letter through the
    reduced coproduct with the usual desuspension signs.
    """
    letter_part = bar_coderivation({1: C.delta})

    def on_word(x):
        out = letter_part(x)
        left = 0
        for j, c in enumerate(x.letters):
            prefix = -1 if left % 2 else 1
            for (cA, cB), coeff in C.reduced_coproduct(c).items():
                sA = -1 if cA.degree % 2 else 1
                letters = x.letters[:j] + (cA, cB) + x.letters[j + 1 :]
                out.add_term(Word(COBAR, letters), COPRODUCT_SIGN * prefix * sA * coeff)
            left += c.degree + 1
        return out

    return on_word


def cobar_contraction(C1):
    """The letter contraction of the bracket-free cobar algebra of C1 onto the
    symmetric algebra, with the linear part of the cobar differential."""
    return Contraction(cobar_f, cobar_g, cobar_h, cobar_differential(C1),
                       algebra_differential(C1.algebra))


def lift_contraction(con, gf_letter):
    """Contraction on the tensor coalgebras from a letter contraction ``con``
    and its round trip ``gf_letter`` = G F on letters.

    The projection and inclusion act letterwise; the homotopy is
    ``lifted_homotopy``, which reads the homotopy of each suffix back from
    the contraction's own memo.
    """
    H = lifted_homotopy(memo_op(gf_letter), con.H)
    lifted = Contraction(
        bar_morphism(con.F),
        bar_morphism(con.G),
        lambda b: H(b, lifted.H),
        bar_coderivation({1: con.d_big}),
        bar_coderivation({1: con.d_small}),
    )
    return lifted


def algebra_differential(L):
    """Derivation extension of l_1 to symmetric-algebra words."""

    def on_word(w):
        out = Vector()
        left = 0
        for i, g in enumerate(w.letters):
            prefix = -1 if left % 2 else 1
            img = L.bracket((g,))
            for g2, c in img.items():
                s2, w2 = sym_word(w.letters[:i] + (g2,) + w.letters[i + 1 :])
                if w2 is None:
                    continue
                out.add_term(w2, prefix * c * s2)
            left += g.degree
        return out

    return on_word


def bar_coderivation(ops):
    """The coderivation of the bar construction with components ``ops``, k ->
    m_k on k consecutive letters: on [x_1|...|x_n], the sum over j and k of
    (-1)^(sum_{i<j} (|x_i| - 1)) conjugation_sign(|x_j|, ..., |x_{j+k-1}|)
    [x_1|...|m_k(x_j, ..., x_{j+k-1})|...|x_n].  For a letter differential
    {1: d} the conjugation sign is -1; for concatenation as m_2, (-1)^|x_j|.
    The words built are of the input's kind: on cobar words, whose letters
    shift by +1 where bar letters shift by -1, the prefix sign has the same
    parity, and {1: delta} is the letter part of the cobar differential.
    """
    arities = sorted(ops.items())

    def on_bar(b):
        kind, letters = b.kind, b.letters
        out = Vector()
        left = 0
        for j in range(len(letters)):
            for k, op in arities:
                chunk = letters[j : j + k]
                if len(chunk) < k:
                    break
                image = op(*chunk)
                if image:
                    sign = conjugation_sign([x.degree for x in chunk])
                    sign = -sign if left % 2 else sign
                    head, tail = letters[:j], letters[j + k :]
                    for x, c in image.items():
                        out.add_term(Word(kind, head + (x,) + tail), sign * c)
            left += letters[j].degree - 1
        return out

    return on_bar


def concatenation(x, y):
    """The product of the cobar algebra on two letters."""
    return Vector.unit(Word(COBAR, x.letters + y.letters))


def bar_morphism(letter_map):
    """Letterwise degree-0 map of bar or cobar words (no signs), into words
    of the input's kind."""

    def on_bar(b):
        kind = b.kind
        return vector_product(
            [letter_map(x) for x in b.letters], lambda ws: (1, Word(kind, ws))
        )

    return on_bar


def lifted_homotopy(letter_gf, letter_h):
    """H on the tensor coalgebra, by recursion on the suffix: for a letter x
    and a bar word w, H(x|w) = -h(x)|w + (-1)^(|x|-1) gf(x)|H(w), and H of
    the empty word is 0 (the leading minus is the sign of -s h s^{-1}).

    ``on_bar(b, H)`` reads H(w) from ``H``; given the memoized homotopy
    itself, it expands the round trip gf on each suffix once, not once per
    slot.
    """

    def on_bar(b, H):
        out = Vector()
        if not b.letters:
            return out
        x, rest = b.letters[0], b.letters[1:]
        for y, c in letter_h(x).items():
            out.add_term(Word(BAR, (y,) + rest), -c)
        tail = H(Word(BAR, rest)).items()
        if tail:
            sign = 1 if x.degree % 2 else -1
            for y, c in letter_gf(x).items():
                c = sign * c
                for w, d in tail:
                    out.add_term(Word(BAR, (y,) + w.letters), c * d)
        return out

    return on_bar


class PerturbationError(RuntimeError):
    pass


def perturbation_series(t, H, budget):
    """X = t - tHt + tHtHt - ..., evaluated as X = t - X(Ht) through a memo.

    ``X(word, p)`` is p(X(word)) for a linear map p on words, and X(word)
    itself when p is None.  A projected value recurses on projected values,
    p X(w) = p t(w) - sum_u c_u p X(u) over Ht(w) = sum_u c_u u, memoized by
    (p, word): no full X vector is stored when only p X is read, and a tail
    that several words share is computed once.  Recursion depth counts
    against ``budget`` of the word asked for.

    The memo holds each value as integers over one denominator,
    ``(terms, den)`` with p X(w) = sum_v (terms[v] / den) v, reduced by the
    gcd of den and the terms; Fractions appear only in p t(w), in Ht(w) and
    in the vector that ``X`` returns.
    """
    memo = {}

    def value(word, p, steps):
        key = (p, word)
        out = memo.get(key)
        if out is None:
            tw = t(word)
            if tw and steps < 0:
                raise PerturbationError(
                    "perturbation series failed to terminate at %r" % (word,)
                )
            head = (tw if p is None else tw.apply(p)).items()
            den = lcm(*(c.denominator for _, c in head))
            tail = []
            for u, c in tw.apply(H).items():
                terms_u, den_u = value(u, p, steps - 1)
                # -c p X(u) = (a / b) terms_u, with a / b in lowest terms
                b = c.denominator * den_u
                g = gcd(c.numerator, b)
                a, b = -c.numerator // g, b // g
                tail.append((terms_u, a, b))
                den = lcm(den, b)
            terms = {v: c.numerator * (den // c.denominator) for v, c in head}
            for terms_u, a, b in tail:
                axpy(terms, terms_u, a * (den // b))
            g = gcd(den, *terms.values())
            if g > 1:
                den //= g
                terms = {v: n // g for v, n in terms.items()}
            out = memo[key] = (terms, den)
        return out

    def X(word, p=None):
        terms, den = value(word, p, budget(word))
        return Vector({v: Fraction(n, den) for v, n in terms.items()})

    return X


def default_budget(word):
    return word.rank + word.length + 2


def bpl(con, t):
    """Basic perturbation lemma: the perturbed contraction.

    F_t = F(1 - XH), G_t = (1 - HX)G, H_t = H - HXH, d_small + FXG; the
    series terminates because every perturbation strictly decreases rank or
    bar length, which are bounded below.
    """
    X = perturbation_series(t, con.H, default_budget)

    def FX(w):
        return X(w, con.F)

    def HX(w):
        return X(w, con.H)

    def F_t(w):
        v = Vector.unit(w)
        return v.apply(con.F) - v.apply(con.H).apply(FX)

    def G_t(w):
        v = Vector.unit(w).apply(con.G)
        return v - v.apply(HX)

    def H_t(w):
        v = Vector.unit(w).apply(con.H)
        return v - v.apply(HX)

    def d_big_t(w):
        return Vector.unit(w).apply(con.d_big) + t(w)

    def d_small_t(w):
        v = Vector.unit(w).apply(con.G)
        return Vector.unit(w).apply(con.d_small) + v.apply(FX)

    return Contraction(F_t, G_t, H_t, d_big_t, d_small_t)


class Transfer:
    """The full tower for one algebra: lifted contraction plus perturbation.

    ``con0`` contracts the bar construction of the bracket-free cobar algebra
    onto the bar construction of the symmetric algebra; ``con`` is the
    perturbed contraction computing the enveloping structure.
    """

    def __init__(self, algebra, weight_cap):
        self.algebra = algebra
        self.weight_cap = weight_cap
        self.C1 = CECoalgebra(algebra, weight_cap, max_arity=1)
        self.Cfull = CECoalgebra(algebra, weight_cap)
        C2 = CECoalgebra(algebra, weight_cap, min_arity=2)
        # the perturbation: the higher brackets on one letter, the product on two
        t_omega = memo_op(bar_coderivation({1: C2.delta}))
        self.t = bar_coderivation({1: t_omega, 2: concatenation})
        self.con0 = lift_contraction(cobar_contraction(self.C1), cobar_gf)
        self.con = bpl(self.con0, self.t)

    def unit_inclusion(self, word):
        """The adjunction unit of a coalgebra word, as a bar-word vector.

        Components run over all iterated reduced coproducts; each factor is a
        one-letter cobar word, resuspended (sign (-1)^{i(i-1)/2} at arity i).
        """
        out = Vector()
        for parts in range(1, word.rank + 1):
            sign = -1 if (parts * (parts - 1) // 2) % 2 else 1
            for split, c in self.Cfull.iterated_reduced_coproduct(word, parts).items():
                letters = tuple(Word(COBAR, (piece,)) for piece in split)
                out.add_term(Word(BAR, letters), sign * c)
        return out
