"""Perturbation-engine tests: cobar and bar differentials, the lifted
contraction and its coalgebra conditions, the perturbations, the basic
perturbation lemma and its composition law."""

import random
from fractions import Fraction

import pytest

from enveloping import hpt
from enveloping.cli import BUNDLED
from enveloping.exactlin import (
    BAR,
    COBAR,
    Contraction,
    Vector,
    Word,
    axpy,
    conjugation_sign,
    exact_apply,
    memo_op,
    s_power_sign,
    unshuffles,
)
from enveloping.hpt import (
    Transfer,
    algebra_differential,
    bar_morphism,
    bpl,
    cobar_contraction,
    cobar_differential,
    concatenation,
    perturbation_series,
)
from enveloping.linfty import CECoalgebra, abelian, from_complete_intersection
from enveloping.permutahedra import cobar_f, cobar_g, cobar_gf, cobar_h
from enveloping.uea import AInftyStructure, star_product
from enveloping.words import bar_words_algebra, cobar_words, sym_words, vector_product

from conftest import (
    assert_reduced,
    bar_words_cobar,
    bracket_letter_differential,
    bundled,
    dg_lie,
    fractions_of,
    perturbation_parts,
    scaled,
    vector_of,
    vector_sum,
)


def shuffle_coproduct(x):
    """Shuffle coproduct on cobar words; Vector over ordered pairs."""
    letters = x.letters
    out = {}
    for inside, outside, sign in unshuffles(
        [w.degree + 1 for w in letters], range(len(letters) + 1)
    ):
        left = tuple(letters[i] for i in inside)
        right = tuple(letters[i] for i in outside)
        axpy(out, {
            (Word(COBAR, left) if left else None, Word(COBAR, right) if right else None): sign})
    return Vector(out)


@pytest.fixture(scope="module")
def sl2_transfer():
    return Transfer(bundled("sl2"), 4)


def test_cobar_differential_squares_to_zero(sl2_transfer):
    T = sl2_transfer
    d_omega = memo_op(cobar_differential(T.Cfull))
    for rank in range(1, 5):
        for x in cobar_words(T.C1.sgens, rank):
            assert not exact_apply(d_omega(x), d_omega), x


def test_abelian_cobar_differential_is_pure_coproduct():
    A = abelian([0, 1])
    C = CECoalgebra(A, 3)
    d = cobar_differential(C)
    for rank in (1, 2, 3):
        for x in cobar_words(C.sgens, rank):
            for x2 in d(x).terms:
                assert x2.length == x.length + 1


def test_bar_lift_reduces_to_single_letter_maps(sl2_transfer):
    T = sl2_transfer
    F = bar_morphism(cobar_f)
    G = bar_morphism(cobar_g)
    for x in cobar_words(T.C1.sgens, 2):
        bar = Word(BAR, (x,))
        terms, den = cobar_f(x)
        assert F(bar) == Vector({Word(BAR, (w2,)): c for w2, c in terms.items()}, den)


def test_lifted_side_conditions_and_homotopy_identity(sl2_transfer):
    T = sl2_transfer
    big = bar_words_cobar(T.C1.sgens, 3, 3)
    small = bar_words_algebra(T.algebra.generators, 3, 3)
    result = T.con0.verify_on(big, small)
    assert result, result


def test_coalgebra_homotopy_condition(sl2_transfer):
    # Delta_B H = (H x 1 + GF x H) Delta_B on the lifted homotopy
    T = sl2_transfer
    H = lambda b: fractions_of(T.con0.H(b))
    GF = lambda b: fractions_of(exact_apply(T.con0.F(b), T.con0.G))

    def deconcat(bar):
        out = []
        for cut in range(len(bar.letters) + 1):
            out.append((Word(BAR, bar.letters[:cut]), Word(BAR, bar.letters[cut:])))
        return out

    rng = random.Random(3)
    pool = bar_words_cobar(T.C1.sgens, 3, 3)
    for bar in rng.sample(pool, 40):
        lhs = {}
        for b2, c in H(bar).items():
            for left, right in deconcat(b2):
                key = (left, right)
                lhs[key] = lhs.get(key, 0) + c
        rhs = {}
        for left, right in deconcat(bar):
            for l2, c in H(left).items():
                key = (l2, right)
                rhs[key] = rhs.get(key, 0) + c
            sign = -1 if left.degree % 2 else 1  # homotopy slides past left
            for l2, c in GF(left).items():
                for r2, c2 in H(right).items():
                    key = (l2, r2)
                    rhs[key] = rhs.get(key, 0) + sign * c * c2
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, bar


def test_perturbations_are_coalgebra_perturbations(sl2_transfer):
    # Delta_B t = (t x 1 + 1 x t) Delta_B
    T = sl2_transfer
    rng = random.Random(5)
    pool = bar_words_cobar(T.C1.sgens, 3, 3)

    def deconcat(bar):
        return [
            (Word(BAR, bar.letters[:cut]), Word(BAR, bar.letters[cut:]))
            for cut in range(len(bar.letters) + 1)
        ]

    for bar in rng.sample(pool, 40):
        lhs = {}
        for b2, c in fractions_of(T.t(bar)).items():
            for pair in deconcat(b2):
                lhs[pair] = lhs.get(pair, 0) + c
        rhs = {}
        for left, right in deconcat(bar):
            if left.length:
                for l2, c in fractions_of(T.t(left)).items():
                    rhs[(l2, right)] = rhs.get((l2, right), 0) + c
            if right.length:
                sign = -1 if left.degree % 2 else 1
                for r2, c in fractions_of(T.t(right)).items():
                    rhs[(left, r2)] = rhs.get((left, r2), 0) + sign * c
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        assert lhs == rhs, bar


def test_full_bar_differential_squares_to_zero(sl2_transfer):
    T = sl2_transfer
    for bar in bar_words_cobar(T.C1.sgens, 4, 3):
        assert not exact_apply(T.con.d_big(bar), T.con.d_big), bar


def test_abelian_perturbation_has_no_bracket_part():
    A = abelian([0, 0])
    T = Transfer(A, 3)
    _, t_L = perturbation_parts(T)
    for bar in bar_words_cobar(T.C1.sgens, 3, 3):
        assert not t_L(bar)


def test_geometric_degree_bookkeeping(sl2_transfer):
    T = sl2_transfer
    t_mu, t_L = perturbation_parts(T)

    def geo(bar):
        # the geometric degree of a cobar word is its rank minus its length
        return sum(x.rank - x.length for x in bar.letters)

    for bar in bar_words_cobar(T.C1.sgens, 3, 3):
        for b2 in T.con0.H(bar)[0]:
            assert geo(b2) == geo(bar) + 1
        for b2 in t_mu(bar).terms:
            assert geo(b2) == geo(bar)
        for b2 in t_L(bar).terms:
            assert geo(b2) < geo(bar)
        if bar.length == 1 and geo(bar) > 0:
            assert not T.con0.F(bar)[0]


def test_bpl_with_zero_perturbation_is_identity(sl2_transfer):
    T = sl2_transfer
    zero = lambda word: Vector({})
    con = bpl(T.con0, zero)
    for bar in bar_words_cobar(T.C1.sgens, 2, 2):
        assert con.F(bar) == T.con0.F(bar)
        assert con.H(bar) == T.con0.H(bar)
    for bar in bar_words_algebra(T.algebra.generators, 2, 2):
        assert con.G(bar) == T.con0.G(bar)
        assert con.d_small(bar) == T.con0.d_small(bar)


def test_perturbed_contraction_identities(sl2_transfer):
    T = sl2_transfer
    big = bar_words_cobar(T.C1.sgens, 3, 3)
    small = bar_words_algebra(T.algebra.generators, 3, 3)
    result = T.con.verify_on(big, small)
    assert result, result


def test_composition_law(sl2_transfer):
    # perturbing by the product part and then the bracket part agrees with
    # perturbing by their sum, on every operator of the contraction
    T = sl2_transfer
    t_mu, t_L = perturbation_parts(T)
    staged = bpl(bpl(T.con0, t_mu), t_L)
    direct = T.con
    for bar in bar_words_cobar(T.C1.sgens, 3, 3):
        assert staged.F(bar) == direct.F(bar)
        assert staged.H(bar) == direct.H(bar)
    for bar in bar_words_algebra(T.algebra.generators, 3, 3):
        assert staged.G(bar) == direct.G(bar)
        assert staged.d_small(bar) == direct.d_small(bar)


def test_abelian_transfer_is_bar_of_symmetric_algebra():
    A = abelian([0, 0, 1])
    T = Transfer(A, 3)

    def direct_bar(bar):
        out = []
        letters = bar.letters
        left = 0
        for j in range(len(letters) - 1):
            u, wrd = letters[j], letters[j + 1]
            prefix = -1 if left % 2 else 1
            csign = s_power_sign([u.degree, wrd.degree])
            for w2, c in star_product(u, wrd).terms.items():
                out.append(vector_of({Word(BAR, letters[:j] + (w2,) + letters[j + 2 :]):
                                      prefix * csign * c}))
            left += u.degree - 1
        return vector_sum(*out)

    for bar in bar_words_algebra(A.generators, 3, 3):
        assert T.con.d_small(bar) == direct_bar(bar), bar


def test_perturbed_maps_are_coalgebra_morphisms(sl2_transfer):
    T = sl2_transfer
    rng = random.Random(11)

    def deconcat(bar):
        return [
            (Word(BAR, bar.letters[:cut]), Word(BAR, bar.letters[cut:]))
            for cut in range(len(bar.letters) + 1)
        ]

    def check_morphism_property(op, pool):
        for bar in pool:
            lhs = {}
            for b2, c in fractions_of(op(bar)).items():
                for pair in deconcat(b2):
                    lhs[pair] = lhs.get(pair, 0) + c
            rhs = {}
            for left, right in deconcat(bar):
                for l2, c in fractions_of(op(left)).items():
                    for r2, c2 in fractions_of(op(right)).items():
                        key = (l2, r2)
                        rhs[key] = rhs.get(key, 0) + c * c2
            lhs = {k: v for k, v in lhs.items() if v}
            rhs = {k: v for k, v in rhs.items() if v}
            if lhs != rhs:
                return bar
        return None

    def F_op(bar):
        return T.con.F(bar) if bar.length else Vector({bar: 1})

    def G_op(bar):
        return T.con.G(bar) if bar.length else Vector({bar: 1})

    big = rng.sample(bar_words_cobar(T.C1.sgens, 3, 3), 25)
    small = bar_words_algebra(T.algebra.generators, 3, 3)
    assert check_morphism_property(F_op, big) is None
    assert check_morphism_property(G_op, rng.sample(small, 25)) is None


def test_series_termination_guard():
    from enveloping.hpt import PerturbationError

    T = Transfer(bundled("sl2"), 3)
    identity = lambda word: ({word: 1}, 1)  # as t and H, never decreases anything

    P = perturbation_series(identity, identity, lambda w: 3)
    with pytest.raises(PerturbationError):
        P(bar_words_cobar(T.C1.sgens, 2, 2)[0])


def unrolled_series(t, H, word):
    """Reference P(word) = w - Ht w + HtHt w - ..., summed term by term."""
    acc = Vector({word: 1})
    total = [acc]
    while acc:
        acc = scaled(exact_apply(exact_apply(acc, t), H), -1)
        total.append(acc)
    return vector_sum(*total)


@pytest.mark.parametrize(
    "algebra",
    [
        bundled("sl2"),
        bundled("l3only"),
        from_complete_intersection(["x", "y"], {"w": [(1, ("x", "x", "y"))]}),
        # rational brackets: the memo's common denominators are not all 1
        from_complete_intersection(["x", "y"], {"w": [
            (Fraction(1, 2), ("x", "x", "y")), (Fraction(-4, 3), ("x", "y", "y"))]}),
    ],
    ids=["sl2", "l3only", "ci", "ci-rational"],
)
def test_projected_series_matches_unrolled_series(algebra):
    # the series P = sum (-Ht)^k of the bar-level transfer, on every word of
    # G(b), against the sum of its terms, and the perturbed maps of
    # ``Transfer.con`` that read it; then the letters' series, through their
    # perturbed inclusion.  (The name predates P, which is not projected.)
    from enveloping.hpt import PerturbationError, default_budget

    T = Transfer(algebra, 3)
    H = T.con0.H
    P = perturbation_series(memo_op(T.t), H, default_budget)
    bars = bar_words_algebra(algebra.generators, 3, 3)
    words = set()
    for bar in bars:
        words.update(T.con0.G(bar)[0])
    words = sorted(words, key=repr)
    assert words
    for w in words:
        assert_reduced(P(w))
        assert P(w) == unrolled_series(T.t, H, w), w
        assert P(w) is P(w)
        assert T.con.H(w) == exact_apply(T.con0.H(w), P), w
    assert any(len(P(w)[0]) > 1 for w in words)
    for bar in bars:
        assert T.con.G(bar) == exact_apply(T.con0.G(bar), P), bar
    t_omega = bracket_letter_differential(T)
    for bar in bars:
        if bar.length == 1:
            (u,) = bar.letters
            G_t = exact_apply(cobar_g(u), lambda x: unrolled_series(t_omega, cobar_h, x))
            assert T.letters.G(u) == G_t, u

    identity = lambda word: ({word: 1}, 1)
    with pytest.raises(PerturbationError):
        perturbation_series(identity, identity, lambda w: 3)(words[0])


@pytest.mark.parametrize("name", BUNDLED)
def test_the_letters_perturbed_inclusion_is_g(name):
    # t_omega kills every letter of g(u), one desuspended generator each, so
    # the letters' G_t(u) = g(u) - H_t t_omega g(u) is g(u) as an exact
    # pair, on every symmetric word of weight <= 4
    algebra = bundled(name)
    T = Transfer(algebra, 4)
    P_g = bpl(cobar_contraction(T.C1), bracket_letter_differential(T)).G
    for weight in range(1, 5):
        for u in sym_words(algebra.generators, weight):
            assert P_g(u) == cobar_g(u), u
            assert T.letters.G(u) == cobar_g(u), u


def test_the_bar_series_runs_only_where_H_t_G_reaches(monkeypatch):
    # G_t = G - H_t t G: the bar-level series P runs on the words of H(y)
    # for y in the support of t G(bar), not on every word of G(bar)
    series, seen = hpt.perturbation_series, []

    def recording(t, H, budget):
        P = series(t, H, budget)
        words = []
        seen.append(words)

        def recorded(word):
            words.append(word)
            return P(word)

        return recorded

    monkeypatch.setattr(hpt, "perturbation_series", recording)
    algebra = bundled("sl2")
    T = Transfer(algebra, 3)
    assert len(seen) == 2  # the letters' series, then the bar-level one
    reached = set()
    for bar in bar_words_algebra(algebra.generators, 3, 3):
        T.con.G(bar)
        for y in exact_apply(T.con0.G(bar), T.t).terms:
            reached.update(T.con0.H(y).terms)
    assert seen[1]
    assert set(seen[1]) <= reached


@pytest.mark.parametrize(
    "algebra",
    [
        bundled("sl2"),
        bundled("l3only"),
        dg_lie(),
        from_complete_intersection(["x", "y"], {"w": [
            (Fraction(1, 2), ("x", "x", "y")), (Fraction(-4, 3), ("x", "y", "y"))]}),
    ],
    ids=["sl2", "l3only", "dg_lie", "ci-rational"],
)
def test_perturbed_projection_matches_unrolled_reference(algebra):
    # bpl's F_t, the series F_t(w) = F(w) - F_t(tH w), against
    # F - F t P H with P unrolled term by term, on every word that the
    # products read through letters.F (the words of B) and the morphism
    # transfer through con.F (the words of G_t), at 3/3.  Each word's tails
    # tH w are read before it, and every value read stays the memo's.
    from enveloping.hpt import PerturbationError

    T = Transfer(algebra, 3)
    bars = bar_words_algebra(algebra.generators, 3, 3)
    of_products = {u for bar in bars if bar.length > 1 for u in T.split(bar.letters)[0]}
    of_morphisms = {b for bar in bars for b in T.con.G(bar)[0]}
    cases = [(T.letters.F, cobar_contraction(T.C1), bracket_letter_differential(T), of_products),
             (T.con.F, T.con0, T.t, of_morphisms)]
    for F_t, con, t, words in cases:
        F, H = con.F, con.H
        read = {}
        for w in sorted(words, key=repr):
            tails = exact_apply(H(w), t)
            for u in tails.terms:
                read.setdefault(u, F_t(u))
            read.setdefault(w, F_t(w))
            P_H = exact_apply(H(w), lambda u: unrolled_series(t, H, u))
            assert_reduced(F_t(w))
            assert F_t(w) == vector_sum(F(w), scaled(exact_apply(exact_apply(P_H, t), F), -1)), w
        assert any(exact_apply(H(w), t) for w in words)
        assert all(F_t(w) is value for w, value in read.items())

    identity = lambda word: Vector({word: 1})
    stuck = bpl(Contraction(identity, identity, identity, identity, identity), identity)
    with pytest.raises(PerturbationError):
        stuck.F(min(of_products, key=repr))


def test_shuffle_coproduct_counit_and_symmetry(sl2_transfer):
    T = sl2_transfer
    for x in cobar_words(T.C1.sgens, 2):
        pairs = shuffle_coproduct(x)
        assert pairs.terms[(None, x)] == 1
        assert pairs.terms[(x, None)] == 1


def test_cobar_differential_is_a_derivation():
    # Leibniz rule for concatenation on the rank-4 truncation; square-zero is
    # test_cobar_differential_squares_to_zero
    C = CECoalgebra(bundled("sl2"), 4)
    d = cobar_differential(C)
    assert cobar_words(C.sgens, 2)
    for rank in range(1, 4):
        for x in cobar_words(C.sgens, rank):
            sign = -1 if x.degree % 2 else 1
            for y in cobar_words(C.sgens, 1):
                rhs = [scaled(concatenation(x2, y), q) for x2, q in fractions_of(d(x)).items()]
                rhs += [scaled(concatenation(x, y2), sign * q)
                        for y2, q in fractions_of(d(y)).items()]
                assert exact_apply(concatenation(x, y), d) == vector_sum(*rhs), (x, y)


def test_named_lift_and_perturbations_match_the_transfer(sl2_transfer):
    from enveloping.hpt import lift_contraction

    T = sl2_transfer
    letters = Contraction(cobar_f, cobar_g, cobar_h, cobar_differential(T.C1),
                          algebra_differential(T.algebra))
    con = lift_contraction(letters, cobar_gf)
    for bar in bar_words_cobar(T.C1.sgens, 2, 2):
        assert con.F(bar) == T.con0.F(bar)
        assert con.H(bar) == T.con0.H(bar)
    tm, tl = perturbation_parts(T)
    t_L = reference_letter_coderivation(bracket_letter_differential(T))
    for bar in bar_words_cobar(T.C1.sgens, 3, 3):
        assert tm(bar) == reference_t_mu(bar)
        assert tl(bar) == t_L(bar)
        assert vector_sum(tm(bar), tl(bar)) == T.t(bar)


# The coderivation rules written out one by one, each with its own sign: the
# reference for ``bar_coderivation``.


def reference_letter_coderivation(letter_op):
    """sx -> -s(letter_op x) in each slot, times (-1)^(sum of |x_i| - 1 over
    the letters before it)."""

    def on_bar(b):
        out = []
        left = 0
        for j, x in enumerate(b.letters):
            prefix = -1 if left % 2 else 1
            img = letter_op(x)
            if img:
                for x2, c in fractions_of(img).items():
                    out.append(vector_of({
                        Word(BAR, b.letters[:j] + (x2,) + b.letters[j + 1 :]): -prefix * c}))
            left += x.degree - 1
        return vector_sum(*out)

    return on_bar


def reference_t_mu(b):
    """Concatenate adjacent bar letters x, y with sign (-1)^(prefix + |x|)."""
    out = []
    left = 0
    for j in range(b.length - 1):
        x = b.letters[j]
        sign = -1 if (left + x.degree) % 2 else 1
        merged = Word(COBAR, x.letters + b.letters[j + 1].letters)
        out.append(Vector({Word(BAR, b.letters[:j] + (merged,) + b.letters[j + 2 :]): sign}))
        left += x.degree - 1
    return vector_sum(*out)


def reference_bar_differential(structure, bar):
    """The products m_k on each run of k adjacent letters, with the prefix
    sign and the conjugation sign of the run."""
    out = []
    letters = bar.letters
    n = len(letters)
    left = 0
    for j in range(n):
        top = min(structure.arity_cap, n - j)
        for k in range(1, top + 1):
            chunk = letters[j : j + k]
            prefix = -1 if left % 2 else 1
            csign = conjugation_sign([w.degree for w in chunk])
            value = structure.product(chunk)
            for w, c in fractions_of(value).items():
                out.append(vector_of({Word(BAR, letters[:j] + (w,) + letters[j + k :]):
                                      prefix * csign * c}))
        left += letters[j].degree - 1
    return vector_sum(*out)


@pytest.mark.parametrize(
    "algebra",
    [
        bundled("sl2"),
        bundled("l3only"),
        bundled("odd2"),
        from_complete_intersection(["x", "y"], {"w": [(1, ("x", "x", "y"))]}),
    ],
    ids=["sl2", "l3only", "odd2", "ci"],
)
def test_bar_coderivation_matches_the_written_out_rules(algebra):
    # every coderivation of the package, term by term against its own rule,
    # on every bar word at caps 3/3
    T = Transfer(algebra, 3)
    t_mu, t_L = perturbation_parts(T)
    d_big = reference_letter_coderivation(cobar_differential(T.C1))
    t_L_ref = reference_letter_coderivation(bracket_letter_differential(T))
    big = bar_words_cobar(T.C1.sgens, 3, 3)
    for b in big:
        assert T.con0.d_big(b) == d_big(b), b
        assert t_mu(b) == reference_t_mu(b), b
        assert t_L(b) == t_L_ref(b), b
        assert T.t(b) == vector_sum(reference_t_mu(b), t_L_ref(b)), b
    d_small = reference_letter_coderivation(algebra_differential(algebra))
    structure = AInftyStructure(algebra, 3, 3)
    small = bar_words_algebra(algebra.generators, 3, 3)
    for b in small:
        assert T.con0.d_small(b) == d_small(b), b
        assert structure.bar_differential(b) == reference_bar_differential(structure, b), b
    assert any(t_mu(b) for b in big)
    assert any(T.con0.d_big(b) for b in big)
    assert any(structure.bar_differential(b) for b in small)


def reference_lifted_homotopy(letter_gf, letter_h):
    """The lifted homotopy slot by slot: in slot t, gf on the letters before
    it, -h on its letter and the identity after it, times
    (-1)^(sum of |x_i| - 1 over the letters before it)."""

    def on_bar(b):
        out = []
        left = 0
        for t, x in enumerate(b.letters):
            sign = -1 if left % 2 == 0 else 1  # includes the -s h s^{-1} sign
            factors = [letter_gf(y) for y in b.letters[:t]]
            factors.append(letter_h(x))
            factors.extend(Vector({y: 1}) for y in b.letters[t + 1 :])
            out.append(scaled(vector_product(factors, lambda ws: (1, Word(BAR, ws))), sign))
            left += x.degree - 1
        return vector_sum(*out)

    return on_bar


@pytest.mark.parametrize(
    "algebra",
    [
        bundled("sl2"),
        bundled("l3only"),
        bundled("odd2"),
        from_complete_intersection(["x", "y"], {"w": [(1, ("x", "x", "y"))]}),
    ],
    ids=["sl2", "l3only", "odd2", "ci"],
)
def test_suffix_recursive_homotopy_matches_the_slot_sum(algebra):
    # on every bar word at caps 3/3, and on the empty word
    T = Transfer(algebra, 3)
    H = reference_lifted_homotopy(memo_op(cobar_gf), memo_op(cobar_h))
    big = bar_words_cobar(T.C1.sgens, 3, 3)
    for b in big:
        # the memo holds H(b) exact
        pair = T.con0.H(b)
        assert_reduced(pair)
        assert pair == H(b), b
        assert T.con0.H(b) is pair, b
    assert T.con0.H(Word(BAR, ())) == Vector({})
    # words where a slot past the first contributes, through gf on a prefix
    assert any(T.con0.H(b)[0] and T.con0.H(Word(BAR, b.letters[1:]))[0] for b in big)
