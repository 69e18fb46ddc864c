"""Twisted cochains, the twisted tensor complex, and the module functors."""

from fractions import Fraction

import pytest

from enveloping import bgg
from enveloping.bgg import (
    AInftyModule,
    TwistedComplex,
    _rho_cobar,
    functor_f,
    functor_g,
    generalized_cochain_check,
    roundtrip_fg_check,
    tau_value,
    twisted_tensor_acyclicity,
)
from enveloping.cli import BUNDLED
from enveloping.exactlin import (
    BAR,
    COBAR,
    CheckResult,
    Generator,
    Vector,
    Word,
    axpy,
    conjugation_sign,
    exact_apply,
    memo_op,
    square_zero,
    sym_word,
)
from enveloping.hpt import COPRODUCT_SIGN, cobar_differential
from enveloping.linfty import (
    abelian,
    adjoint_module,
    check_module,
    from_complete_intersection,
    heisenberg,
)
from enveloping.uea import AInftyStructure
from enveloping.words import bar_words_algebra, cobar_words, sym_words

from conftest import (bundled, cochain_at, finite_complex, fractions_of, odd_abelian,
                      roundtrip_gf_check, trivial_module, vector_of)


def omega_to_enveloping_check(structure, rank_cap=None):
    """The multiplicative extension of tau is a chain map (binary case)."""
    assert structure.algebra.is_dg_lie()
    cap = rank_cap or structure.weight_cap

    def m2(left, right):
        out = {}
        for u, cu in fractions_of(left).items():
            for v, cv in fractions_of(right).items():
                axpy(out, fractions_of(structure.m2(u, v)), cu * cv)
        return vector_of(out)

    def rho(x):
        value = None
        for letter in x.letters:
            t = tau_value(letter)
            if not t:
                return Vector({})
            value = t if value is None else m2(value, t)
            if not value:
                return Vector({})
        return value

    d_omega = cobar_differential(structure.transfer.Cfull)
    for r in range(1, cap + 1):
        for x in cobar_words(structure.transfer.Cfull.sgens, r):
            lhs = exact_apply(d_omega(x), rho)
            rhs = exact_apply(rho(x), structure.m1)
            if lhs != rhs:
                return CheckResult(False, x, "algebra map is not a chain map")
    return CheckResult(True)


def omega_comparison_check(structure, rank_cap=None):
    """Rank-by-rank homology of the two cobar models agrees (finite odd case).

    Compares the cobar construction of the coalgebra with the cobar
    construction of the bar construction of the enveloping structure; both
    are graded by the number of algebra letters, and each rank piece is a
    finite complex for an odd-concentrated algebra.
    """
    algebra = structure.algebra
    assert all(g.degree % 2 for g in algebra.generators)
    cap = rank_cap or min(structure.weight_cap, 3)

    omega_c = {}
    d_omega = memo_op(cobar_differential(structure.transfer.Cfull))
    for rank in range(1, cap + 1):
        by_degree = {}
        for x in cobar_words(structure.transfer.Cfull.sgens, rank):
            by_degree.setdefault(x.degree, []).append(x)
        omega_c[rank] = finite_complex(by_degree, d_omega).homology_dims()

    # the second model: letters are suspended-inverse bar words; the letter
    # differential is the bar differential and the coproduct deconcatenates
    def d_omega_bu(bars):
        out = {}
        left = 0
        for j, b in enumerate(bars):
            prefix = -1 if left % 2 else 1
            for b2, c in fractions_of(structure.bar_differential(b)).items():
                axpy(out, {bars[:j] + (b2,) + bars[j + 1 :]: -prefix * c})
            for cut in range(1, b.length):
                first = Word(BAR, b.letters[:cut])
                second = Word(BAR, b.letters[cut:])
                sA = -1 if (first.degree + 1) % 2 else 1
                axpy(out, {bars[:j] + (first, second) + bars[j + 1 :]:
                           COPRODUCT_SIGN * prefix * sA})
            left += b.degree + 1  # degree of the desuspended bar-word letter
        return vector_of(out)

    omega_bu = {}
    pool = bar_words_algebra(algebra.generators, cap, cap)
    for rank in range(1, cap + 1):
        words = {}

        def extend(prefix, remaining):
            if prefix:
                key = tuple(prefix)
                deg = sum(b.degree + 1 for b in prefix)
                words.setdefault(deg, []).append(key)
            for b in pool:
                if b.rank <= remaining:
                    extend(prefix + [b], remaining - b.rank)

        extend([], rank)
        by_degree = {
            deg: [k for k in keys if sum(b.rank for b in k) == rank]
            for deg, keys in words.items()
        }
        by_degree = {d: ks for d, ks in by_degree.items() if ks}
        omega_bu[rank] = finite_complex(by_degree, d_omega_bu).homology_dims()

    ok = omega_c == omega_bu
    return CheckResult(ok, None if ok else (omega_c, omega_bu)), omega_c


def column(op, m):
    """The image of the module generator m under the operator op, as
    Fractions by module generator."""
    return {m2: c for (m1, m2), c in fractions_of(op).items() if m1 == m}


def module_complex_check(module, arity_cap=None, weight_cap=None):
    """Square-zero of the twisted differential on BU (x) M within caps.

    Evaluation makes the module space a left module over its endomorphisms,
    so the comodule lives on the left: the cochain eats a bar-word suffix and
    the remaining prefix contributes its Koszul sign.
    """
    structure = module.structure
    acap = arity_cap or structure.arity_cap
    wcap = weight_cap or structure.weight_cap
    bars = [Word(BAR, ())] + [
        b
        for b in bar_words_algebra(structure.algebra.generators, wcap, acap)
        if b.length <= acap
    ]

    def D(key):
        bar, m = key
        out = {}
        if bar.length:
            for b2, c in fractions_of(structure.bar_differential(bar)).items():
                axpy(out, {(b2, m): c})
        sign = -1 if bar.degree % 2 else 1
        for m2, c in column(module.d_m, m).items():
            axpy(out, {(bar, m2): sign * c})
        for cut in range(0, bar.length):
            pre = Word(BAR, bar.letters[:cut])
            post = Word(BAR, bar.letters[cut:])
            op = cochain_at(module, post)
            if not op:
                continue
            pre_sign = -1 if pre.degree % 2 else 1
            for m2, c in column(op, m).items():
                axpy(out, {(pre, m2): pre_sign * c})
        return vector_of(out)

    keys = ((bar, m) for bar in bars for m in module.basis)
    return square_zero(keys, D, "module differential squares to %r")


@pytest.fixture(scope="module")
def sl2_structure():
    return AInftyStructure(bundled("sl2"), 4, 4)


@pytest.fixture(scope="module")
def sl2_small():
    return AInftyStructure(bundled("sl2"), 3, 3)


def test_tau_is_the_weight_one_projection(sl2_structure):
    L = sl2_structure.algebra
    e = L.by_id["e"]
    _, word = sym_word([e.shifted(-1)])
    assert tau_value(word) == Vector({sym_word([e])[1]: 1})
    _, w2 = sym_word([e.shifted(-1), L.by_id["f"].shifted(-1)])
    assert not tau_value(w2)


def test_generalized_cochain_equation(sl2_structure):
    assert generalized_cochain_check(sl2_structure)


def test_canonical_tau_constructor(sl2_small):
    # the canonical projection is a twisted cochain, sending s^-1 e to e
    assert generalized_cochain_check(sl2_small)
    L = sl2_small.algebra
    _, word = sym_word([L.by_id["e"].shifted(-1)])
    assert tau_value(word) == Vector({sym_word([L.by_id["e"]])[1]: 1})


def test_cochain_equation_weight_one_is_trivial():
    # both sides vanish on weight-one words when there is no differential
    A = AInftyStructure(abelian([0, 1]), 3, 3)
    assert generalized_cochain_check(A)


def test_cochain_equation_l3(sl2_structure):
    A = AInftyStructure(bundled("l3only"), 3, 4)
    assert generalized_cochain_check(A)


@pytest.mark.parametrize("degrees", [[1], [1, 3], [1, 1]])
def test_twisted_tensor_acyclic_odd(degrees):
    A = AInftyStructure(odd_abelian(degrees), 3, 4)
    res, dims = twisted_tensor_acyclicity(A, 4)
    assert res and dims == {0: 1}


def test_twisted_tensor_acyclic_capped(sl2_structure):
    res, dims = twisted_tensor_acyclicity(sl2_structure, 3)
    assert res and dims == {0: 1}
    A = AInftyStructure(heisenberg(), 3, 3)
    res, dims = twisted_tensor_acyclicity(A, 3)
    assert res and dims == {0: 1}


def test_twisted_complex_square_zero_is_checked(sl2_structure):
    # the twisted differential squares to zero on the truncation
    twisted = TwistedComplex(sl2_structure, 3)
    assert square_zero(twisted.basis, twisted.differential, "%r")
    assert twisted.complex().homology_dims() == {0: 1}


def enumerated_tau_inputs(pieces):
    """tau of each piece, or None where a piece has another weight than one."""
    if any(piece.rank != 1 for piece in pieces):
        return None
    return tuple(sym_word([piece.letters[0].shifted(1)])[1] for piece in pieces)


def enumerated_tau_products(structure, word):
    """The cochain equation's right side over every split of the word, the
    splits that tau kills dropped after they are built."""
    out = {}
    for split, c in structure.transfer.Cfull.splits(word).terms.items():
        inputs = enumerated_tau_inputs(split)
        if inputs is None or not 2 <= len(split) <= structure.arity_cap:
            continue
        sign = conjugation_sign([w.degree for w in inputs])
        axpy(out, fractions_of(structure.product(inputs)), c * sign)
    return vector_of(out)


def enumerated_differential(twisted, key):
    """D of the twisted complex over every coaction split, the splits that
    tau kills dropped after they are built."""
    cw, uw = key
    out = {}
    splits = [((cw,), 1)]
    if cw is not None:
        for c2, c in fractions_of(twisted.C.delta(cw)).items():
            axpy(out, {(c2, uw): c})
        top = min(twisted.structure.arity_cap, cw.rank + 1)
        splits = [(split, c) for split, c in twisted.C.splits(cw).terms.items()
                  if len(split) <= top]
        splits += [((None,) + split, c) for split, c in splits if len(split) < top]
    outer = 1 if cw is not None and cw.degree % 2 else -1
    for split, c in splits:
        c0, pieces = split[0], split[1:]
        inputs = enumerated_tau_inputs(pieces)
        if inputs is None:
            continue
        coeff = outer * c * conjugation_sign([w.degree for w in inputs] + [0])
        for u2, c2 in fractions_of(twisted._m_ext(inputs, uw)).items():
            axpy(out, {(c0, u2): coeff * c2})
    return vector_of(out)


@pytest.mark.parametrize("name", BUNDLED)
def test_tau_reads_only_the_splits_into_letters(name):
    # the cochain equation's right side and the twisted differential build
    # only the splits whose tau pieces have weight one, with the values of
    # the enumerate-then-filter reference
    structure = AInftyStructure(bundled(name), 4, 4)
    C = structure.transfer.Cfull
    twisted = TwistedComplex(structure, 4)
    sides = {word: bgg.tau_products(structure, word) for word in C.all_words()}
    differentials = {key: twisted.differential(key) for key in twisted.basis}
    assert not C.splits.memo
    for word, side in sides.items():
        assert side == enumerated_tau_products(structure, word), word
    for key, value in differentials.items():
        assert value == enumerated_differential(twisted, key), key


# inputs with brackets of arity >= 3, where the sign of the higher products
# in the twisted differential shows: name -> (algebra builder, caps)
HIGHER_BRACKETS = {
    "l3only": (lambda: bundled("l3only"), 3),
    "ci_cubic": (lambda: bundled("ci_cubic"), 3),
    "x^2 y": (lambda: from_complete_intersection(
        ["x", "y"], {"r": [(1, ("x", "x", "y"))]}), 3),
    "xy^2/2 + xy": (lambda: from_complete_intersection(
        ["x", "y"], {"r": [(Fraction(1, 2), ("x", "y", "y")), (1, ("x", "y"))]}), 3),
    "x^4": (lambda: from_complete_intersection(["x"], {"r": [(1, ("x",) * 4)]}), 4),
    "x^2 y^2 + 2xy": (lambda: from_complete_intersection(
        ["x", "y"], {"r": [(1, ("x", "x", "y", "y")), (2, ("x", "y"))]}), 4),
}


@pytest.mark.parametrize("name", list(HIGHER_BRACKETS))
def test_twisted_tensor_complex_with_higher_brackets(name):
    # the check asserts D^2 = 0 before it computes homology
    build, cap = HIGHER_BRACKETS[name]
    res, dims = twisted_tensor_acyclicity(AInftyStructure(build(), cap, cap), cap)
    assert res and dims == {0: 1}


def test_twisted_tensor_acyclicity_reports_a_differential_that_does_not_square(monkeypatch):
    # a sign flipped on the m_2 terms of the twisted differential: the check
    # fails where D^2 is nonzero, before any homology, and does not raise
    sign = bgg.conjugation_sign
    monkeypatch.setattr(bgg, "conjugation_sign",
                        lambda degrees: -sign(degrees) if len(degrees) == 2 else sign(degrees))
    res, dims = twisted_tensor_acyclicity(AInftyStructure(bundled("sl2"), 3, 3), 3)
    assert not res and dims is None
    assert res.counterexample is not None
    assert res.detail.startswith("twisted differential squares to ")


@pytest.mark.parametrize("name, arity_cap, top", [("l3only", 2, 3), ("abelian1", 1, 2)])
def test_twisted_tensor_complex_refuses_caps_below_the_top_bracket(name, arity_cap, top):
    # m_2 always enters, and a bracket l_k that the weight cap reaches needs m_k
    A = AInftyStructure(bundled(name), arity_cap, 3)
    res, dims = twisted_tensor_acyclicity(A, 3)
    assert not res and dims is None
    assert res.counterexample == top and res.detail == "caps too small for the check"


def test_omega_to_enveloping_chain_map(sl2_structure):
    assert omega_to_enveloping_check(sl2_structure, 3)
    A = AInftyStructure(abelian([0, 1]), 3, 3)
    assert omega_to_enveloping_check(A, 3)


def test_two_cobar_models_have_matching_homology():
    for degrees in ([1], [1, 3], [1, 1]):
        A = AInftyStructure(odd_abelian(degrees), 3, 3)
        res, dims = omega_comparison_check(A, 3)
        assert res, (degrees, res.counterexample)
        # rank-one homology is the algebra itself
        expected = {}
        for d in degrees:
            expected[d] = expected.get(d, 0) + 1
        assert dims[1] == expected


# ---------------------------------------------------------------------------
# module functors


def test_functor_g_validates(sl2_small):
    L = sl2_small.algebra
    for M in (trivial_module(L), adjoint_module(L)):
        GM = functor_g(M, sl2_small, 3, 3)
        assert module_complex_check(GM, 3, 3), M.name


def test_functor_g_weight_one_action_is_the_given_one(sl2_small):
    L = sl2_small.algebra
    M = adjoint_module(L)
    GM = functor_g(M, sl2_small, 3, 3)
    for g in L.generators:
        _, word = sym_word([g])
        bar = Word(BAR, (word,))
        op = cochain_at(GM, bar)
        _, sword = sym_word([g.shifted(-1)])
        assert op == M.tau(sword)


def test_cobar_word_acts_by_the_composite_last_letter_first():
    # on <c1|c2> the operator is tau(c1) after tau(c2); for the adjoint
    # module of sl2 the order shows, as [ad e, ad f] = ad h
    M = adjoint_module(bundled("sl2"))
    e, f = (sym_word([M.algebra.by_id[k].shifted(-1)])[1] for k in "ef")
    expected = {}
    for m in M.basis:
        for m1, c in column(M.tau(f), m).items():
            for m2, c2 in column(M.tau(e), m1).items():
                axpy(expected, {(m, m2): c * c2})
    expected = vector_of(expected)
    assert expected
    assert _rho_cobar(M, Word(COBAR, (e, f))) == expected
    assert _rho_cobar(M, Word(COBAR, (f, e))) != expected


def test_functor_f_of_g_is_a_valid_module(sl2_small):
    L = sl2_small.algebra
    M = adjoint_module(L)
    FM = functor_f(functor_g(M, sl2_small, 3, 3), 3)
    assert check_module(FM, 3)


def test_roundtrips(sl2_small):
    L = sl2_small.algebra
    for M in (trivial_module(L), adjoint_module(L)):
        assert roundtrip_fg_check(M, sl2_small, 3, 3), M.name
        GM = functor_g(M, sl2_small, 3, 3)
        assert roundtrip_gf_check(GM, 3, 3), M.name


def test_roundtrip_fails_with_top_cell_fault(top_cell_fault):
    # the backward round trip genuinely uses the homotopy vanishing on
    # one-letter cobar words; a deliberate violation must be detected
    top_cell_fault()
    faulty = AInftyStructure(bundled("sl2"), 3, 3)
    M = adjoint_module(faulty.algebra)
    assert not roundtrip_fg_check(M, faulty, 3, 3)


def test_enveloping_acts_on_itself():
    # finite odd case: the enveloping of an odd abelian algebra is finite
    # dimensional and right multiplication is a module structure
    O = odd_abelian([1, 3])
    A = AInftyStructure(O, 3, 4)
    basis = {None: Generator("m_1", 0)}
    for wt in (1, 2):
        for w in sym_words(O.generators, wt):
            basis[w] = Generator("m_" + "".join(g.id for g in w.letters), w.degree)

    def as_module(vec):
        return {basis[w]: c for w, c in fractions_of(vec).items() if w in basis}

    cochain = {}
    for bar in bar_words_algebra(O.generators, 2, 2):
        table = {}
        for w, m in basis.items():
            if w is None:
                if bar.length == 1:
                    table[m] = as_module(Vector({bar.letters[0]: 1}))
                continue
            if w.rank + bar.rank <= 2 and bar.length + 1 <= 3:
                # left multiplication: the validator keeps the prefix and
                # applies the suffix through the evaluation left-action
                value = A.product(bar.letters + (w,))
                if value:
                    table[m] = as_module(value)
        op = vector_of({(m, m2): c for m, image in table.items() for m2, c in image.items()})
        if op:
            cochain[bar] = op
    module = AInftyModule(A, list(basis.values()), Vector({}), cochain, name="self")
    assert module_complex_check(module, 2, 2)
    back = functor_f(module, 2)
    assert check_module(back, 2)
