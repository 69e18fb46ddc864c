"""The enveloping structure: transferred products on the symmetric coalgebra,
their checkers, the classical straightening oracle, and transfer of morphisms.
"""

from __future__ import annotations

import itertools

from .exactlin import (
    BAR,
    TENSOR,
    CheckResult,
    Generator,
    Vector,
    Word,
    agree,
    antisymmetric_sign,
    axpy,
    conjugation_sign,
    exact_apply,
    exact_sum,
    format_scalar,
    koszul_sign,
    live,
    memo_method,
    memo_op,
    rationals,
    square_zero,
    sym_word,
    symmetrize,
    unshuffles,
    vector_sum,
)
from .hpt import Transfer, bar_coderivation, bar_morphism
from .linfty import LInftyAlgebra
from .words import bar_words_algebra, sym_words_upto, vector_product


class AInftyStructure:
    """Products m_n of degree 2 - n on symmetric words, within caps.

    Tables are computed lazily from the transfer and memoized; the structure
    is deterministic given the algebra and the caps.  A ``transfer`` given
    to it must be one of the same brackets at the same weight cap; it is
    read in place of a transfer of its own.  Every product reads
    the letters' perturbed contraction ``Transfer.letters`` on cobar words,
    and no product builds a bar word: m_1 is its d_small, and m_n for
    n >= 2 is ``conjugation_sign`` times its F_t(B), the tree form
    ``Transfer.tree_product``.  A zero entry is stored as an empty
    ``Vector``: only an entry with terms is signed.

    Bracket selection, for n >= 2.  Let C be the multiset of the generators
    of u_1, ..., u_n.  A move replaces, inside C, the key of a nonzero
    bracket l_k (k >= 2) by one generator of its value; its excess is
    k - 2.  A multiset is live when no odd generator repeats in it, that is,
    when it is the multiset of a nonzero symmetric word.  The tree form of
    m_n(u_1, ..., u_n) is computed only if a sequence of moves of total
    excess n - 2 ends on a live multiset; otherwise the product is zero and
    stored without computing anything.  For n = 2, where only the empty
    sequence qualifies (C is live, and no nonempty sequence of moves of
    excess 0 ends live), m_2 is ``Transfer.split_product`` alone, f(B) with
    B = t_2(Phi(u_1), Phi(u_2)), which is (-1)^|u_1| u_1 u_2: neither B nor
    Phi(u_1 u_2) is built.

    Bracket selection also decides what is enumerated.  ``admits`` states
    the rule once (m_1 is always admitted), and both ``product`` and
    ``admitted_words`` read it: the admitted words are enumerated multiset
    by multiset, so a bar word of length n >= 3 is built only over a
    multiset whose excesses hold n - 2.  ``export_tables`` and
    ``stasheff_sums`` walk the admitted words; a check that must see the
    zero entries walks ``bar_words``.

    Proof.  Count the generators that a term holds, over all its letters,
    as a multiset.  On the tree path, g, h and f (the permutahedron
    contraction, letterwise) and t_2 (concatenation) rearrange the
    generators of a term and keep its multiset; so does the letters' series
    P = sum (-h t_omega)^k on cobar words apart from its t_omega.  t_omega,
    the higher brackets on one letter (``hpt``'s C2, arity >= 2), applies
    l_k to k letters of one symmetric word: it makes one move.  l_1 lies in
    the differential of the contraction, not in the perturbation: it
    reaches m_1 only, through d_small.  So every output word of m_n is C
    after the moves that the t_omega along its tree made, and it is a
    nonzero symmetric word, so that multiset is live.  A move by l_k, of
    degree 2 - k, lowers the total degree of C by k - 2, its excess; m_n
    has degree 2 - n, so the excesses of the moves sum to n - 2.  In
    m_2 = F_t(B) = f(B) - f t_omega P h B, the second term holds at least
    one move, of excess 0.  Since a move lowers the rank, a live end of such
    a sequence is a symmetric word of rank at most sum rank(u_i) in degree
    sum |u_i| + 2 - n: whatever this rule keeps, a rule by degree and rank
    would keep too.

    m_1 is outside the rule: l_1 makes no move, and it reaches m_1 through
    d_small, on one symmetric word.
    """

    def __init__(self, algebra, arity_cap, weight_cap, transfer=None):
        self.algebra = algebra
        self.arity_cap = arity_cap
        self.weight_cap = weight_cap
        self.transfer = transfer or Transfer(algebra, weight_cap)
        self._tables = {}
        self._bar_words = None
        self._admitted_words = None
        # the moves: (bracket key, its value's generators, excess)
        self._moves = [(key, tuple(value.terms), k - 2)
                       for k, table in sorted(algebra.brackets.items()) if k >= 2
                       for key, value in table.items()]

    @memo_method
    def excesses(self, gens):
        """The total excesses of the nonempty sequences of moves that lead
        from the sorted multiset ``gens`` to a live one."""
        excesses = self.excesses
        out = set()
        for key, targets, excess in self._moves:
            rest = list(gens)
            try:
                for g in key:
                    rest.remove(g)
            except ValueError:
                continue
            for target in targets:
                after = tuple(sorted(rest + [target]))
                if live(after):
                    out.add(excess)
                out.update(excess + e for e in excesses(after))
        return frozenset(out)

    def product(self, words):
        """m_n on a tuple of symmetric words (each of weight >= 1)."""
        words = tuple(words)
        cached = self._tables.get(words)
        if cached is not None:
            return cached
        n = len(words)
        if n > self.arity_cap:
            raise ValueError("arity cap exceeded")
        if sum(w.rank for w in words) > self.weight_cap:
            raise ValueError("weight cap exceeded")
        if n == 1:
            value = self.transfer.letters.d_small(words[0])
        else:
            gens = tuple(sorted(g for w in words for g in w.letters))
            terms, den = {}, 1
            if self.admits(gens, n):
                tree = n - 2 in self.excesses(gens)
                form = self.transfer.tree_product if tree else self.transfer.split_product
                terms, den = form(words)
            if terms and conjugation_sign([w.degree for w in words]) < 0:
                terms = {w: -c for w, c in terms.items()}
            value = Vector(terms, den)
        self._tables[words] = value
        return value

    def m1(self, word):
        return self.product((word,))

    def m2(self, u, v):
        return self.product((u, v))

    def admits(self, gens, n):
        """Bracket selection: whether m_n may be nonzero on the bar words of
        length n whose generators form the sorted multiset ``gens``."""
        return n == 1 or n - 2 in self.excesses(gens) or n == 2 and live(gens)

    def bar_words(self):
        """The capped bar words, enumerated once per structure: what a check
        that must see the zero entries walks."""
        if self._bar_words is None:
            self._bar_words = tuple(bar_words_algebra(
                self.algebra.generators, self.weight_cap, self.arity_cap))
        return self._bar_words

    def admitted_words(self):
        """The capped bar words that bracket selection admits, in report
        order, enumerated once per structure: the product of every other
        capped bar word is zero."""
        if self._admitted_words is None:
            self._admitted_words = tuple(bar_words_algebra(
                self.algebra.generators, self.weight_cap, self.arity_cap, self.admits))
        return self._admitted_words

    def bar_differential(self, bar):
        """The bar coderivation with the products m_k, k <= arity cap."""
        product = lambda *words: self.product(words)
        ops = dict.fromkeys(range(1, self.arity_cap + 1), product)
        return bar_coderivation(ops)(bar)

    def export_tables(self):
        """Product tables over all cap-bounded inputs, JSON-ready: the
        nonzero entries, in report order, read off the admitted words."""
        entries = []
        for bar in self.admitted_words():
            terms, den = self.product(bar.letters)
            if not terms:
                continue
            entries.append(
                {
                    "arity": bar.length,
                    "inputs": [[g.id for g in w.letters] for w in bar.letters],
                    "output": [
                        {
                            "coeff": format_scalar(c, den),
                            "monomial": [g.id for g in w.letters],
                        }
                        for w, c in sorted(terms.items(), key=lambda t: t[0].sort_key())
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
    terms, den = vector
    return exact_sum([({w.letters[0]: c for w, c in terms.items() if w.length == 1}, 1, den)])


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
    return Vector({w: sign} if w is not None else {})


def stasheff_check(structure):
    """Square-zero of the assembled coderivation on all capped bar words.

    d^2 is a coderivation, so it vanishes on every capped bar word exactly
    when its one-letter part does, ``stasheff_sums``.  Where a sum is
    nonzero, d(d(b)) is built on the same bar words, with d(b) computed once
    per word, and the first b where it is nonzero is reported.
    """
    if not any(terms for terms, _ in stasheff_sums(structure).values()):
        return CheckResult(True)
    return square_zero(structure.bar_words(), memo_op(structure.bar_differential),
                       "bar differential squares to %r")


def stasheff_sums(structure):
    """The one-letter part of d^2 on the capped bar words, as ``Vector``s
    of symmetric words keyed by a bar word's letters, for every bar word
    where it has a term before cancelling:
    sum +- m(x_1, ..., m_k(x_j, ..., x_j+k-1), ..., x_n), with the signs of
    ``hpt.bar_coderivation``.

    The nonzero table entries are read once, off the admitted words (every
    other entry is zero), and indexed by the words of their output.  A term
    of the sum composes an outer entry, one of its slots and an inner entry
    whose output holds the slot's word; the composite is capped exactly
    when its length and rank, read off the two entries, are.
    """
    arity_cap, weight_cap = structure.arity_cap, structure.weight_cap
    entries = []  # (inputs, their degrees, rank, terms, den)
    inner = {}  # output word -> [(inputs, rank, signed coefficient, den)]
    for bar in structure.admitted_words():
        terms, den = structure.product(bar.letters)
        if not terms:
            continue
        degrees = [x.degree for x in bar.letters]
        entries.append((bar.letters, degrees, bar.rank, terms, den))
        sign = conjugation_sign(degrees)
        for x, c in terms.items():
            inner.setdefault(x, []).append((bar.letters, bar.rank, sign * c, den))
    parts = {}  # letters of a bar word -> its parts of exact_sum
    for letters, degrees, rank, terms, den in entries:
        outer = conjugation_sign(degrees)
        length_left = arity_cap - len(letters) + 1
        left = 0
        for j, x in enumerate(letters):
            rank_left = weight_cap - rank + x.rank
            for inputs, inputs_rank, c, inputs_den in inner.get(x, ()):
                if len(inputs) <= length_left and inputs_rank <= rank_left:
                    key = letters[:j] + inputs + letters[j + 1 :]
                    a = -outer * c if left % 2 else outer * c
                    parts.setdefault(key, []).append((terms, a, den * inputs_den))
            left += degrees[j] - 1
    return {key: exact_sum(p) for key, p in parts.items()}


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

    @memo_method
    def straighten(self, letters):
        """Express a raw tensor string (a tuple) in the sorted-monomial basis."""
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a > b or a == b and a.degree % 2:
                head, tail = letters[:i], letters[i + 2 :]
                if a > b:
                    sign = -1 if (a.degree % 2 and b.degree % 2) else 1
                    swapped = self.straighten(head + (b, a) + tail)
                    parts, half = [(swapped.terms, sign, swapped.den)], 1
                else:
                    # odd square: x x = [x, x] / 2 in characteristic zero
                    parts, half = [], 2
                terms, den = self.algebra.bracket((a, b))
                for g, c in terms.items():
                    image = self.straighten(head + (g,) + tail)
                    parts.append((image.terms, c, half * den * image.den))
                return exact_sum(parts)
        return Vector({letters: 1})

    def multiply(self, left, right):
        straighten = self.straighten
        parts = []
        for u, cu in left.terms.items():
            for v, cv in right.terms.items():
                terms, den = straighten(u + v)
                parts.append((terms, cu * cv, left.den * right.den * den))
        return exact_sum(parts)

    @memo_method
    def symmetrize(self, word):
        """The coalgebra isomorphism from symmetric words to the enveloping."""
        straighten = self.straighten
        return exact_apply(symmetrize(Word(TENSOR, word.letters)),
                           lambda t: straighten(t.letters))


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
        agree(pairs, lambda uv: exact_apply(structure.m2(*uv), oracle.symmetrize),
              lambda uv: oracle.multiply(*map(oracle.symmetrize, uv)),
              "transported product mismatch")
        and agree(higher, lambda bar: structure.product(bar.letters), lambda _: Vector({}),
                  "higher product does not vanish")
    )
    if not result:
        return result
    # closed form on generators
    for a in algebra.generators:
        for b in algebra.generators:
            u, v = word_of(a), word_of(b)
            terms, den = algebra.bracket((a, b))
            expected = exact_sum([(star_product(u, v).terms, 1, 1),
                                  ({word_of(g): c for g, c in terms.items()}, 1, 2 * den)])
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
        parts = []
        for perm in itertools.permutations(range(n)):
            sign = antisymmetric_sign(perm, degs)
            try:
                terms, den = structure.product(tuple(word_of(gens[i]) for i in perm))
            except ValueError:
                return CheckResult(False, gens, "caps too small for the check")
            parts.append((terms, sign, den))
        total = exact_sum(parts)
        terms, den = algebra.bracket(gens)
        expected = Vector({word_of(g): c for g, c in terms.items()}, den)
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
        terms, den = structure.product(bar.letters)
        return Vector({w: -c for w, c in terms.items()} if bar.rank % 2 else terms, den)

    def rhs(bar):
        n, words = bar.length, bar.letters
        sign = koszul_sign(tuple(reversed(range(n))), [w.degree for w in words])
        if ((n - 1) * (n - 2) // 2) % 2:
            sign = -sign
        terms, den = structure.product(tuple(reversed(words)))
        return Vector({w: -sign * c if w.rank % 2 else sign * c for w, c in terms.items()}, den)

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
                    Generator(tag + g.id, g.degree): c for g, c in rationals(vec).items()
                }
        brackets[arity] = new
    return LInftyAlgebra(gens, brackets, name=algebra.name + "^2")


def coproduct_map(word):
    """The bialgebra coproduct of a word, into words of the doubled algebra."""
    letters = word.letters
    out = {}
    for inside, outside, sign in unshuffles(
        [g.degree for g in letters], range(len(letters) + 1)
    ):
        first = [Generator(TAGS[0] + letters[i].id, letters[i].degree) for i in inside]
        second = [Generator(TAGS[1] + letters[i].id, letters[i].degree) for i in outside]
        s2, w2 = sym_word(first + second)
        if w2 is None:
            continue
        axpy(out, {w2: sign * s2})
    return Vector(out)


def coproduct_strictness_check(structure, arity_cap, weight_cap):
    """The coproduct is a strict morphism into the doubled enveloping, on bar
    words within the two caps; it needs m_2."""
    caps = caps_suffice(structure, 2)
    if not caps:
        return caps
    doubled = AInftyStructure(direct_sum(structure.algebra), arity_cap, weight_cap)
    bars = [bar for bar in structure.bar_words()
            if bar.length <= arity_cap and bar.rank <= weight_cap]
    coproduct = memo_op(coproduct_map)

    def rhs(bar):
        inputs = vector_product([coproduct(w) for w in bar.letters], lambda ws: (1, ws))
        return exact_apply(inputs, doubled.product)

    return agree(bars, lambda bar: exact_apply(structure.product(bar.letters), coproduct),
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
    # a dg Lie algebra is its own 2-truncation, which then reads the run's
    # transfer of the same brackets
    shared = structure.transfer if structure.algebra.is_dg_lie() else None
    trunc = AInftyStructure(truncated, 2, weight_cap, shared)
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
        cobar_map = memo_op(bar_morphism(phi.coalgebra_map))
        self._omega_map = bar_morphism(cobar_map)

    @memo_method
    def apply(self, bar):
        """The full transferred coalgebra map on a bar word, F_t B(phi) G_t:
        G_t is the source's ``con.G`` and F_t the target's ``con.F``."""
        vector = self.source.transfer.con.G(bar)
        for op in (self._omega_map, self.target.transfer.con.F):
            vector = exact_apply(vector, op)
        return vector

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
        return vector_product([phi.component((g,)) for g in word.letters], sym_word)

    return on_word


def check_first_component(data):
    """U(phi)_1 is the symmetrization of the first component."""
    words = sym_words_upto(data.source.algebra.generators, data.source.weight_cap)
    return agree(words, lambda w: data.component((w,)), sym_extension(data.phi),
                 "first component is not Sym(phi_1)")


def check_strict_vanishing(data):
    higher = [bar for bar in data.source.bar_words() if bar.length >= 2]
    return agree(higher, lambda bar: data.component(bar.letters), lambda _: Vector({}),
                 "strict morphism has a higher component")


def check_morphism_chain_map(data):
    """The transferred map commutes with the two bar differentials."""
    return agree(data.source.bar_words(),
                 lambda bar: exact_apply(data.apply(bar), data.target.bar_differential),
                 lambda bar: exact_apply(data.source.bar_differential(bar), data.apply),
                 "transferred map is not a chain map")


class CompositionHomotopy:
    """F_N B(psi) H_M B(phi) G_L between the two transferred composites:
    G_L, H_M and F_N from the source's, the middle's and the target's
    ``Transfer.con``."""

    def __init__(self, data_phi, data_psi):
        self.data_phi = data_phi
        self.data_psi = data_psi

    def apply(self, bar):
        phi, psi = self.data_phi, self.data_psi
        vector = phi.source.transfer.con.G(bar)
        for op in (phi._omega_map, phi.target.transfer.con.H, psi._omega_map,
                   psi.target.transfer.con.F):
            vector = exact_apply(vector, op)
        return vector


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
        composed = exact_apply(data_phi.apply(bar), data_psi.apply)
        dh = exact_apply(H.apply(bar), data_psi.target.bar_differential)
        hd = exact_apply(data_phi.source.bar_differential(bar), H.apply)
        # the composite minus the composed maps is dH + Hd
        if data_comp.apply(bar) != vector_sum(composed, dh, hd):
            return CheckResult(False, bar, "homotopy identity fails"), H
        if strict and H.apply(bar):
            return CheckResult(False, bar, "homotopy does not vanish, factor strict"), H
    return CheckResult(True), H
