"""The perturbation engine: cobar differentials, the bar coderivation of
k-ary components, the lifted tensor contraction, the basic perturbation
lemma and the tree form of the transfer.

``bpl`` perturbs a contraction through two memoized series of one
recursion X(w) = A(w) - X(K w): P = sum (-Ht)^k, with H_t = P H and
G_t = G - H_t t G, and F_t = F sum (-tH)^k, the lemma's F (1 + tH)^-1
(Crainic, arXiv math/0403266), whose memo holds F's images only.  The transfer
perturbs two contractions that share one letter contraction: the letter
contraction of the cobar algebra by the higher brackets t_omega, which the
products read (``Transfer.letters``, the tree form), and its lift to bar
words by the whole perturbation t (``Transfer.con``), the one contraction
that every map on bar words reads: the morphism transfer, the composition
homotopy and the perturbed projection of bgg.

Truncation discipline: every operator here preserves or decreases both the
rank (number of algebra letters) and the bar length, so computations capped
by (rank, length) are exact, never approximate.
"""

from __future__ import annotations

from .exactlin import (
    BAR,
    COBAR,
    Contraction,
    Vector,
    Word,
    conjugation_sign,
    exact_apply,
    exact_sum,
    memo_method,
    memo_op,
    memo_recursion,
    sym_word,
    vector_sum,
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
    reduced_coproduct = C.reduced_coproduct

    def on_word(x):
        terms, den = letter_part(x)
        parts = [(terms, 1, den)]
        left = 0
        for j, c in enumerate(x.letters):
            head, tail = x.letters[:j], x.letters[j + 1 :]
            split = {Word(COBAR, head + pair + tail): -coeff if pair[0].degree % 2 else coeff
                     for pair, coeff in reduced_coproduct(c).terms.items()}
            parts.append((split, -COPRODUCT_SIGN if left % 2 else COPRODUCT_SIGN, 1))
            left += c.degree + 1
        return exact_sum(parts)

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
    ``lifted_homotopy`` as a ``memo_recursion``, which reads the homotopy of
    each suffix back from its own memo, the contraction's.
    """
    return Contraction(
        bar_morphism(con.F),
        bar_morphism(con.G),
        memo_recursion(lifted_homotopy(memo_op(gf_letter), con.H)),
        bar_coderivation({1: con.d_big}),
        bar_coderivation({1: con.d_small}),
    )


def algebra_differential(L):
    """Derivation extension of l_1 to symmetric-algebra words."""

    def on_word(w):
        parts = []
        left = 0
        for i, g in enumerate(w.letters):
            terms, den = L.bracket((g,))
            # distinct generators give distinct words
            image = {}
            for g2, c in terms.items():
                s2, w2 = sym_word(w.letters[:i] + (g2,) + w.letters[i + 1 :])
                if w2 is not None:
                    image[w2] = c * s2
            parts.append((image, -1 if left % 2 else 1, den))
            left += g.degree
        return exact_sum(parts)

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
        parts = []
        left = 0
        for j in range(len(letters)):
            for k, op in arities:
                chunk = letters[j : j + k]
                if len(chunk) < k:
                    break
                terms, den = op(*chunk)
                if terms:
                    sign = conjugation_sign([x.degree for x in chunk])
                    sign = -sign if left % 2 else sign
                    head, tail = letters[:j], letters[j + k :]
                    parts.append(({Word(kind, head + (x,) + tail): c for x, c in terms.items()},
                                  sign, den))
            left += letters[j].degree - 1
        return exact_sum(parts)

    return on_bar


def concatenation(x, y):
    """The product of the cobar algebra on two letters."""
    return Vector({Word(COBAR, x.letters + y.letters): 1})


def _t2(pair):
    """``vector_product`` combine of the tree form: t_2(x, y) = (-1)^|x| xy on
    cobar words, the concatenation part of the perturbation as
    ``bar_coderivation`` gives it on the bar word [x|y], read off its one
    letter."""
    x, y = pair
    return -1 if x.degree % 2 else 1, Word(COBAR, x.letters + y.letters)


def bar_morphism(letter_map):
    """Letterwise degree-0 map of bar or cobar words (no signs), into words
    of the input's kind: the product of the letters' images under
    ``letter_map``."""

    def on_bar(b):
        kind = b.kind
        return vector_product(list(map(letter_map, b.letters)), lambda ws: (1, Word(kind, ws)))

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
        if not b.letters:
            return Vector({})
        x, rest = b.letters[0], b.letters[1:]
        h_terms, h_den = letter_h(x)
        parts = [({Word(BAR, (y,) + rest): c for y, c in h_terms.items()}, -1, h_den)]
        tail, tail_den = H(Word(BAR, rest))
        if tail:
            gf_terms, gf_den = letter_gf(x)
            product = {Word(BAR, (y,) + w.letters): c * d
                       for y, c in gf_terms.items() for w, d in tail.items()}
            parts.append((product, 1 if x.degree % 2 else -1, gf_den * tail_den))
        return exact_sum(parts)

    return on_bar


class PerturbationError(RuntimeError):
    pass


def perturbation_series(t, H, budget):
    """P = 1 - Ht + HtHt - ... = sum (-Ht)^k, one memoized map, by
    P(w) = w - P(H t w): the series ``_series`` with A = 1 and K = Ht."""
    return _series(lambda word: Vector({word: 1}), lambda word: exact_apply(t(word), H), budget)


def _series(A, K, budget):
    """X(w) = A(w) - X(K w), one memoized map, word -> ``Vector``, as are A
    and K: each word's value is stored once, so a tail that several words
    share is computed once.  A word is looked up in the memo before
    ``budget(word)`` is read; the budget bounds the recursion below a word
    that the memo does not hold yet, and a word whose K w is nonzero past it
    raises ``PerturbationError``.
    """
    memo = {}

    def X(word):
        v = memo.get(word)
        return _series_value(memo, A, K, word, budget(word)) if v is None else v

    X.memo = memo
    return X


def _series_value(memo, A, K, word, steps):
    """``_series``'s value of a word that its memo does not hold, with
    ``steps`` left of the budget."""
    tail, den = K(word)
    if tail and steps < 0:
        raise PerturbationError("perturbation series failed to terminate at %r" % (word,))
    head, den_a = A(word)
    parts = [(head, 1, den_a)]
    for u, n in tail.items():
        v = memo.get(u)
        terms, den_u = _series_value(memo, A, K, u, steps - 1) if v is None else v
        parts.append((terms, -n, den * den_u))
    out = memo[word] = exact_sum(parts)
    return out


def default_budget(word):
    return word.rank + word.length + 2


def bpl(con, t, h_t=None):
    """Basic perturbation lemma: the perturbed contraction of ``con`` by t,
    in its standard form (Crainic, arXiv math/0403266).

    With P = sum (-Ht)^k, the series of ``perturbation_series``, H_t = P H,
    G_t = G - H_t t G and d_small_t = d_small + F_t t G, where F_t is
    F sum (-tH)^k, that is F (1 + tH)^-1: the series F_t(w) = F(w) -
    F_t(tH w), whose memo holds F's images only.  G_t and d_small_t read one
    t G, memoized per word; where it is zero, as on the letters, G_t(w) is
    G(w) itself and d_small_t(w) adds nothing, and P runs only on the words
    that H t G reaches.  The series terminate because every perturbation
    strictly decreases rank or bar length, which are bounded below.  t is
    memoized once.

    F_t's step t H(w) reads H through ``h_t``, by default H itself: a map
    that agrees with H wherever t is nonzero, so that it may drop the terms
    of H(w) that t kills; nothing else reads ``h_t``.
    """
    F, G, H = con.F, con.G, con.H
    h_t = h_t or H
    t = memo_op(t)
    P = perturbation_series(t, H, default_budget)
    F_t = _series(F, lambda w: exact_apply(h_t(w), t), default_budget)
    H_t = memo_op(lambda w: exact_apply(H(w), P))
    tG = memo_op(lambda w: exact_apply(G(w), t))

    def G_t(w):
        g, tg = G(w), tG(w)
        if not tg:
            return g
        terms, den = exact_apply(tg, H_t)
        return exact_sum([(g.terms, 1, g.den), (terms, -1, den)])

    def d_big_t(w):
        return vector_sum(con.d_big(w), t(w))

    def d_small_t(w):
        return vector_sum(con.d_small(w), exact_apply(tG(w), F_t))

    return Contraction(F_t, G_t, H_t, d_big_t, d_small_t)


class Transfer:
    """The full tower for one algebra: one letter contraction, perturbed on
    letters and lifted to bar words.

    ``letters`` is the letter contraction of the bracket-free cobar algebra
    onto the symmetric algebra (``cobar_contraction``) perturbed by the
    higher brackets t_omega (``bpl``).  ``con0`` lifts the same letter
    contraction, with the same memos of f, g and h, to the bar constructions;
    ``con`` is its perturbation by t, t_omega on one letter and
    concatenation on two: the enveloping structure as a coalgebra map, whose
    G, F and H the morphism transfer, the composition homotopy and bgg's
    ``functor_f`` read.

    The products read ``letters`` alone, in the tree form of the transfer
    (Markl, arXiv math/0401007; Loday-Vallette, Algebraic Operads, 10.3).
    On a one-letter bar word t is t_1[x] = -[t_omega x] and the lifted
    homotopy H[x] = -[h x], so the series of ``con`` on [x] is [P x] with
    P = sum (-h t_omega)^k, the series of ``letters``.  t_omega kills every
    letter of g(u), one desuspended generator each, so, on cobar words,
        Phi(u) = G_t(u) = g(u) - H_t t_omega g(u) = g(u),
        B(u_1..u_n) = sum_k t_2(Phi(u_1..u_k), Phi(u_k+1..u_n)),
        Phi(u_1..u_n) = H_t(B) = P h B  for n >= 2,
    with t_2(x, y) = (-1)^|x| xy, and the one-letter part of F t G_t on
    [u_1|..|u_n] is [F_t(B)]: m_n before its conjugation sign
    (``tree_product``), and on a pair that the perturbation cannot reach,
    f(B) = (-1)^|u_1| u_1 u_2 (``split_product``).  Phi is the one-letter
    part of ``con.G``; the products and the maps on bar words meet only in
    the checks.  Phi and B are memoized per tuple.
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
        letter = cobar_contraction(self.C1)
        # t_omega acts letter by letter, so it kills every term of h whose
        # letters C2.delta all kill: F_t's step reads h on the others alone
        live = memo_op(lambda letter: bool(C2.delta(letter)))
        self.letters = bpl(letter, t_omega, lambda x: cobar_h(x, live))
        self.con0 = lift_contraction(letter, cobar_gf)
        self.con = bpl(self.con0, self.t)

    @memo_method
    def phi(self, words):
        """Phi(u_1..u_n) on a tuple of symmetric words, as cobar words."""
        if len(words) == 1:
            return self.letters.G(words[0])
        return exact_apply(self.split(words), self.letters.H)

    @memo_method
    def split(self, words):
        """B of n >= 2 symmetric words, as cobar words."""
        phi = self.phi
        return vector_sum(*(vector_product([phi(words[:k]), phi(words[k:])], _t2)
                            for k in range(1, len(words))))

    def split_product(self, words):
        """f(B) on two symmetric words u and v: ``tree_product`` where
        f t_omega P h B is zero.  f is multiplicative, fg = 1 and |g u| = |u|,
        so f(B) = f(t_2(g u, g v)) is (-1)^|u| uv, built without B."""
        u, v = words
        sign, word = sym_word(u.letters + v.letters)
        if word is None:
            return Vector({})
        return Vector({word: -sign if u.degree % 2 else sign})

    def tree_product(self, words):
        """F_t(B) on n >= 2 symmetric words: m_n before its conjugation
        sign."""
        return exact_apply(self.split(words), self.letters.F)

    def unit_inclusion(self, word):
        """The adjunction unit of a coalgebra word, as a bar-word vector.

        Components run over all the word's splits; each factor is a
        one-letter cobar word, resuspended (sign (-1)^{i(i-1)/2} at arity i).
        """
        out = {}
        for split, c in self.Cfull.splits(word).terms.items():
            sign = -1 if (len(split) * (len(split) - 1) // 2) % 2 else 1
            out[Word(BAR, tuple(Word(COBAR, (piece,)) for piece in split))] = sign * c
        return Vector(out)
