"""The enveloping structure: transferred products on the symmetric coalgebra,
their checkers, the classical straightening oracle, and transfer of morphisms.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .exactlin import (
    BAR,
    TENSOR,
    CheckResult,
    Generator,
    Vector,
    Word,
    agree,
    antisymmetric_sign,
    conjugation_sign,
    exact_apply,
    koszul_sign,
    memo_op,
    square_zero,
    sym_word,
    symmetrize,
    to_pair,
    to_vector,
    unshuffles,
)
from .hpt import Transfer, bar_coderivation, bar_morphism
from .linfty import LInftyAlgebra
from .words import bar_words_algebra, sym_words_upto, vector_product


class AInftyStructure:
    """Products m_n of degree 2 - n on symmetric words, within caps.

    Tables are computed lazily from the transfer and memoized; the structure
    is deterministic given the algebra and the caps.  m_1 reads the perturbed
    contraction, the one-letter part of its d_small on [u]; m_n for n >= 2
    reads the tree form, ``Transfer.tree_product``, which builds no bar word
    of two or more cobar words.  Both read the transfer's one series.

    Degree selection: m_n(u_1, ..., u_n) lies in degree sum |u_i| + 2 - n,
    on symmetric words of rank at most sum rank(u_i), since no operator of
    the transfer raises the rank (see ``hpt``).  For n >= 2, a product whose
    degree no such word has is zero, and it is stored without computing the
    tree; ``reachable_degrees`` holds those degrees by rank bound.  m_1 is
    left out of the rule: it reads one-letter words of d_small, which cost
    little, and ``perfbench/tracing.py`` counts d_small through it; on an
    input concentrated in degree 0, such as sl2, the rule would skip every
    m_1, and d_small would never be read.
    """

    def __init__(self, algebra, arity_cap, weight_cap):
        self.algebra = algebra
        self.arity_cap = arity_cap
        self.weight_cap = weight_cap
        self.transfer = Transfer(algebra, weight_cap)
        self._tables = {}
        # rank bound r -> the degrees of the symmetric words of rank <= r
        words = sym_words_upto(algebra.generators, weight_cap)
        self.reachable_degrees = [{w.degree for w in words if w.rank <= r}
                                  for r in range(weight_cap + 1)]

    def product(self, words):
        """m_n on a tuple of symmetric words (each of weight >= 1)."""
        words = tuple(words)
        n = len(words)
        if n > self.arity_cap:
            raise ValueError("arity cap exceeded")
        rank = sum(w.rank for w in words)
        if rank > self.weight_cap:
            raise ValueError("weight cap exceeded")
        cached = self._tables.get(words)
        if cached is not None:
            return cached
        degrees = [w.degree for w in words]
        if n == 1:
            image = corestriction(self.transfer.con.d_small(Word(BAR, words)))
        elif sum(degrees) + 2 - n in self.reachable_degrees[rank]:
            image = corestriction(to_vector(self.transfer.tree_product(words)))
        else:
            image = Vector()
        value = image.scaled(conjugation_sign(degrees))
        self._tables[words] = value
        return value

    def m1(self, word):
        return self.product((word,))

    def m2(self, u, v):
        return self.product((u, v))

    def bar_words(self):
        return bar_words_algebra(
            self.algebra.generators, self.weight_cap, self.arity_cap
        )

    def bar_differential(self, bar):
        """The bar coderivation with the products m_k, k <= arity cap."""
        product = lambda *words: self.product(words)
        ops = dict.fromkeys(range(1, self.arity_cap + 1), product)
        return bar_coderivation(ops)(bar)

    def export_tables(self):
        """Product tables over all cap-bounded inputs, JSON-ready."""
        from .exactlin import format_scalar

        entries = []
        for bar in sorted(self.bar_words(), key=lambda b: b.sort_key()):
            value = self.product(bar.letters)
            if not value:
                continue
            entries.append(
                {
                    "arity": bar.length,
                    "inputs": [[g.id for g in w.letters] for w in bar.letters],
                    "output": [
                        {
                            "coeff": format_scalar(c),
                            "monomial": [g.id for g in w.letters],
                        }
                        for w, c in sorted(value.items(), key=lambda t: t[0].sort_key())
                    ],
                }
            )
        return entries


def contraction_rank(algebra, arity_cap, weight_cap):
    """The largest rank of permutahedron contraction that the transfer at
    these caps can build: a product reads cobar words of its inputs' total
    rank, at most the weight cap and at most the arity cap times the largest
    rank of a nonzero symmetric word, which is unbounded when a generator is
    even and the number of generators when all are odd."""
    if any(g.degree % 2 == 0 for g in algebra.generators):
        return weight_cap
    return min(weight_cap, arity_cap * len(algebra.generators))


def corestriction(vector):
    """The one-letter part of a vector of bar words, as a vector of letters."""
    out = Vector()
    for w, c in vector.items():
        if w.length == 1:
            out.add_term(w.letters[0], c)
    return out


def caps_suffice(structure, arity):
    """Whether the arity cap reaches the arity of the products that a check
    needs; the failure names that arity."""
    if structure.arity_cap < arity:
        return CheckResult(False, arity, "caps too small for the check")
    return CheckResult(True)


def word_of(*gens):
    sign, w = sym_word(list(gens))
    if w is None:
        raise ValueError("word dies by graded symmetry")
    if sign != 1:
        raise ValueError("letters were not canonically sorted")
    return w


def star_product(u, v):
    """The plain symmetric product of two words."""
    sign, w = sym_word(u.letters + v.letters)
    return Vector.unit(w, sign) if w is not None else Vector()


def stasheff_check(structure):
    """Square-zero of the assembled coderivation on all capped bar words;
    d(b) is computed once per word for this check."""
    return square_zero(
        structure.bar_words(),
        memo_op(structure.bar_differential),
        "bar differential squares to %r",
    )


def m1_matches_l1(structure):
    from .hpt import algebra_differential

    words = sym_words_upto(structure.algebra.generators, structure.weight_cap)
    return agree(words, structure.m1, algebra_differential(structure.algebra),
                 "m_1 differs from the induced differential")


# ---------------------------------------------------------------------------
# classical enveloping via straightening (the PBW oracle)


class ClassicalEnveloping:
    """Sorted monomials with the rewriting product x y -> +/- y x + [x, y]."""

    def __init__(self, algebra):
        if not algebra.is_dg_lie():
            raise ValueError("the straightening oracle needs a binary-bracket algebra")
        self.algebra = algebra
        self.straighten = memo_op(self.straighten)

    def straighten(self, letters):
        """Express a raw tensor string (a tuple) in the sorted-monomial basis."""
        out = Vector()
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a > b:
                sign = -1 if (a.degree % 2 and b.degree % 2) else 1
                swapped = letters[:i] + (b, a) + letters[i + 2 :]
                out.accumulate(self.straighten(swapped), sign)
                bracket = self.algebra.bracket((a, b))
                for g, c in bracket.items():
                    out.accumulate(
                        self.straighten(letters[:i] + (g,) + letters[i + 2 :]), c
                    )
                return out
            if a == b and a.degree % 2:
                # odd square: x x = [x, x] / 2 in characteristic zero
                bracket = self.algebra.bracket((a, b))
                for g, c in bracket.items():
                    out.accumulate(
                        self.straighten(letters[:i] + (g,) + letters[i + 2 :]),
                        Fraction(c, 2),
                    )
                return out
        return Vector.unit(letters)

    def multiply(self, left, right):
        out = Vector()
        for u, cu in left.items():
            for v, cv in right.items():
                for w, c in self.straighten(u + v).items():
                    out.add_term(w, cu * cv * c)
        return out

    def symmetrize(self, word):
        """The coalgebra isomorphism from symmetric words to the enveloping."""
        return to_vector(symmetrize(Word(TENSOR, word.letters))).apply(
            lambda t: self.straighten(t.letters)
        )


def pbw_compare(structure):
    """Transported product equals classical multiplication; higher ones vanish."""
    algebra = structure.algebra
    if not algebra.is_dg_lie():
        return CheckResult(False, None, "input is not a binary-bracket algebra")
    caps = caps_suffice(structure, 2)
    if not caps:
        return caps
    cap = structure.weight_cap
    oracle = ClassicalEnveloping(algebra)
    words = sym_words_upto(algebra.generators, cap)
    pairs = [(u, v) for u in words for v in words if u.rank + v.rank <= cap]
    higher = [bar for bar in structure.bar_words() if bar.length >= 3]
    result = (
        agree(pairs, lambda uv: structure.m2(*uv).apply(oracle.symmetrize),
              lambda uv: oracle.multiply(*map(oracle.symmetrize, uv)),
              "transported product mismatch")
        and agree(higher, lambda bar: structure.product(bar.letters), lambda _: Vector(),
                  "higher product does not vanish")
    )
    if not result:
        return result
    # closed form on generators
    for a in algebra.generators:
        for b in algebra.generators:
            u, v = word_of(a), word_of(b)
            expected = star_product(u, v)
            for g, c in algebra.bracket((a, b)).items():
                expected.add_term(word_of(g), Fraction(c, 2))
            try:
                value = structure.m2(u, v)
            except ValueError:
                return CheckResult(False, (u, v), "caps too small for the check")
            if value != expected:
                return CheckResult(False, (u, v), "binary product closed form fails")
    return CheckResult(True)


def alt_bracket_check(structure, n):
    """Antisymmetrized n-fold product recovers the n-th bracket on generators."""
    caps = caps_suffice(structure, n)
    if not caps:
        return caps
    algebra = structure.algebra
    for gens in itertools.product(algebra.generators, repeat=n):
        degs = [g.degree for g in gens]
        total = Vector()
        for perm in itertools.permutations(range(n)):
            sign = antisymmetric_sign(perm, degs)
            try:
                value = structure.product(tuple(word_of(gens[i]) for i in perm))
            except ValueError:
                return CheckResult(False, gens, "caps too small for the check")
            total.accumulate(value, sign)
        expected = Vector()
        for g, c in algebra.bracket(gens).items():
            expected.add_term(word_of(g), c)
        if total != expected:
            return CheckResult(
                False, gens, "antisymmetrized product %r != bracket %r" % (total, expected)
            )
    return CheckResult(True)


def involution_check(structure):
    """The parity involution intertwines products with graded reversal, at
    every arity up to the cap; it needs m_2.

    The reversal carries its Koszul sign together with the opposite-structure
    normalization (-1)^{(n-1)(n-2)/2}: this is the bar-level reversal
    threaded through the suspension powers.
    """
    caps = caps_suffice(structure, 2)
    if not caps:
        return caps

    def lhs(bar):
        return structure.product(bar.letters).scaled(-1 if bar.rank % 2 else 1)

    def rhs(bar):
        n, words = bar.length, bar.letters
        sign = koszul_sign(tuple(reversed(range(n))), [w.degree for w in words])
        if ((n - 1) * (n - 2) // 2) % 2:
            sign = -sign
        out = Vector()
        for w, c in structure.product(tuple(reversed(words))).items():
            out.add_term(w, c * sign * (-1 if w.rank % 2 else 1))
        return out

    return agree(structure.bar_words(), lhs, rhs, "involution identity fails")


# ---------------------------------------------------------------------------
# coproduct strictness via the doubled algebra


# id prefixes of the two copies in the doubled algebra
TAGS = ("1:", "2:")


def direct_sum(algebra):
    """The square of an algebra: two commuting copies with prefixed ids."""
    gens = []
    for tag in TAGS:
        gens.extend(Generator(tag + g.id, g.degree) for g in algebra.generators)
    brackets = {}
    for arity, table in algebra.brackets.items():
        new = {}
        for word, vec in table.items():
            for tag in TAGS:
                key = tuple(Generator(tag + g.id, g.degree) for g in word)
                new[key] = {
                    Generator(tag + g.id, g.degree): c for g, c in vec.items()
                }
        brackets[arity] = new
    return LInftyAlgebra(gens, brackets, name=algebra.name + "^2")


def coproduct_map(word):
    """The bialgebra coproduct of a word, into words of the doubled algebra."""
    letters = word.letters
    out = Vector()
    for inside, outside, sign in unshuffles(
        [g.degree for g in letters], range(len(letters) + 1)
    ):
        first = [Generator(TAGS[0] + letters[i].id, letters[i].degree) for i in inside]
        second = [Generator(TAGS[1] + letters[i].id, letters[i].degree) for i in outside]
        s2, w2 = sym_word(first + second)
        if w2 is None:
            continue
        out.add_term(w2, sign * s2)
    return out


def coproduct_strictness_check(structure, arity_cap, weight_cap):
    """The coproduct is a strict morphism into the doubled enveloping, on bar
    words within the two caps; it needs m_2."""
    caps = caps_suffice(structure, 2)
    if not caps:
        return caps
    doubled = AInftyStructure(direct_sum(structure.algebra), arity_cap, weight_cap)
    bars = [bar for bar in structure.bar_words()
            if bar.length <= arity_cap and bar.rank <= weight_cap]

    def rhs(bar):
        inputs = Vector(vector_product([coproduct_map(w) for w in bar.letters],
                                       lambda ws: (1, ws)))
        return inputs.apply(doubled.product)

    return agree(bars, lambda bar: structure.product(bar.letters).apply(coproduct_map),
                 rhs, "coproduct is not strict here")


def truncation_agreement_check(structure):
    """Differential and binary product agree with the 2-truncation's: the
    structure's own m_1 and m_2 against those of the 2-truncation at the
    same weight cap."""
    caps = caps_suffice(structure, 2)
    if not caps:
        return caps
    weight_cap = structure.weight_cap
    truncated = structure.algebra.truncate_to_dg_lie()
    from .linfty import check_linfty

    if not check_linfty(truncated, min(weight_cap + 1, 4)):
        return CheckResult(False, None, "the 2-truncation is not a dg Lie algebra")
    trunc = AInftyStructure(truncated, 2, weight_cap)
    return agree(trunc.bar_words(), lambda bar: structure.product(bar.letters),
                 lambda bar: trunc.product(bar.letters),
                 "products differ from the 2-truncation")


# ---------------------------------------------------------------------------
# morphism transfer


class AInftyMorphismData:
    """Transferred morphism: a coalgebra map between the two bar sides."""

    def __init__(self, phi, source_structure, target_structure):
        self.phi = phi
        self.source = source_structure
        self.target = target_structure
        # letterwise on bar words of cobar words, each letter by phi
        self._omega_map = bar_morphism(bar_morphism(lambda w: to_pair(phi.coalgebra_map(w))))
        self.apply = memo_op(self.apply)

    def apply(self, bar):
        """The full transferred coalgebra map on a bar word, composed exact
        and converted once."""
        pair = self.source.transfer.con.G(bar)
        for op in (self._omega_map, self.target.transfer.con.F):
            pair = exact_apply(pair, op)
        return to_vector(pair)

    def component(self, words):
        """U(phi)_n: the corestriction on an input tuple, as algebra words."""
        return corestriction(self.apply(Word(BAR, words)))


def u_morphism(phi, arity_cap, weight_cap):
    src = AInftyStructure(phi.source, arity_cap, weight_cap)
    tgt = AInftyStructure(phi.target, arity_cap, weight_cap)
    return AInftyMorphismData(phi, src, tgt)


def sym_extension(phi):
    """Symmetrization of the first component, on algebra words."""

    def on_word(word):
        return Vector(vector_product([phi.component((g,)) for g in word.letters], sym_word))

    return on_word


def check_first_component(data):
    """U(phi)_1 is the symmetrization of the first component."""
    words = sym_words_upto(data.source.algebra.generators, data.source.weight_cap)
    return agree(words, lambda w: data.component((w,)), sym_extension(data.phi),
                 "first component is not Sym(phi_1)")


def check_strict_vanishing(data):
    higher = [bar for bar in data.source.bar_words() if bar.length >= 2]
    return agree(higher, lambda bar: data.component(bar.letters), lambda _: Vector(),
                 "strict morphism has a higher component")


def check_morphism_chain_map(data):
    """The transferred map commutes with the two bar differentials."""
    return agree(data.source.bar_words(),
                 lambda bar: data.apply(bar).apply(data.target.bar_differential),
                 lambda bar: data.source.bar_differential(bar).apply(data.apply),
                 "transferred map is not a chain map")


class CompositionHomotopy:
    """F_N B(psi) H_M B(phi) G_L between the two transferred composites."""

    def __init__(self, data_phi, data_psi):
        self.data_phi = data_phi
        self.data_psi = data_psi

    def apply(self, bar):
        phi, psi = self.data_phi, self.data_psi
        pair = phi.source.transfer.con.G(bar)
        for op in (phi._omega_map, phi.target.transfer.con.H, psi._omega_map,
                   psi.target.transfer.con.F):
            pair = exact_apply(pair, op)
        return to_vector(pair)


def composition_homotopy_check(phi, psi, arity_cap, weight_cap):
    """The composite-transfer defect is the boundary of the homotopy."""
    data_phi = u_morphism(phi, arity_cap, weight_cap)
    mid = data_phi.target
    data_psi = AInftyMorphismData(psi, mid, AInftyStructure(psi.target, arity_cap, weight_cap))
    from .linfty import compose_morphisms

    comp = compose_morphisms(psi, phi, weight_cap)
    data_comp = AInftyMorphismData(comp, data_phi.source, data_psi.target)
    H = CompositionHomotopy(data_phi, data_psi)
    strict = phi.is_strict() or psi.is_strict()
    for bar in data_phi.source.bar_words():
        direct = data_comp.apply(bar)
        composed = data_phi.apply(bar).apply(data_psi.apply)
        hterm = H.apply(bar).apply(data_psi.target.bar_differential)
        hterm = hterm + data_phi.source.bar_differential(bar).apply(H.apply)
        if direct - composed != hterm:
            return CheckResult(False, bar, "homotopy identity fails"), H
        if strict and H.apply(bar):
            return CheckResult(False, bar, "homotopy does not vanish, factor strict"), H
    return CheckResult(True), H
