"""Product-structure tests: the transferred products, their classical
comparison, and the structural identity checkers."""

import json
from collections import Counter

import pytest

from enveloping import uea
from enveloping.exactlin import (
    COBAR,
    Generator,
    Vector,
    Word,
    conjugation_sign,
    exact_apply,
    exact_sum,
    memo_op,
    square_zero,
)
from enveloping.hpt import bar_morphism
from enveloping.linfty import (
    LInftyAlgebra,
    LInftyMorphism,
    abelian,
    check_morphism,
    heisenberg,
    identity_morphism,
)
from enveloping.uea import (
    AInftyStructure,
    ClassicalEnveloping,
    alt_bracket_check,
    check_first_component,
    check_morphism_chain_map,
    check_strict_vanishing,
    composition_homotopy_check,
    coproduct_strictness_check,
    corestriction,
    involution_check,
    m1_matches_l1,
    pbw_compare,
    star_product,
    stasheff_check,
    stasheff_sums,
    truncation_agreement_check,
    u_morphism,
    word_of,
)
from enveloping.words import cobar_words, vector_product

from conftest import assert_reduced, bundled, dg_lie, scaled, sl2_plus_l3, vector_sum


@pytest.fixture(scope="module")
def sl2_structure():
    return AInftyStructure(bundled("sl2"), 3, 4)


@pytest.fixture(scope="module")
def l3_structure():
    return AInftyStructure(bundled("l3only"), 3, 4)


def test_binary_product_closed_form(sl2_structure):
    L = sl2_structure.algebra
    e, f, h = (L.by_id[k] for k in ("e", "f", "h"))
    m2 = sl2_structure.m2
    assert m2(word_of(e), word_of(f)) == Vector({word_of(e, f): 2, word_of(h): 1}, 2)
    assert m2(word_of(f), word_of(e)) == Vector({word_of(e, f): 2, word_of(h): -1}, 2)
    # antisymmetrization recovers the bracket
    assert vector_sum(m2(word_of(e), word_of(f)),
                      scaled(m2(word_of(f), word_of(e)), -1)) == Vector({word_of(h): 1})


def test_heisenberg_binary_product():
    H = heisenberg()
    A = AInftyStructure(H, 2, 3)
    x, y, z = (H.by_id[k] for k in ("x", "y", "z"))
    assert A.m2(word_of(x), word_of(y)) == Vector({word_of(x, y): 2, word_of(z): 1}, 2)


def test_abelian_products_are_the_symmetric_algebra():
    A = AInftyStructure(abelian([0, 1]), 3, 4)
    words = A.bar_words()
    for bar in words:
        if bar.length == 2:
            u, v = bar.letters
            assert A.m2(u, v) == star_product(u, v)
        elif bar.length >= 3:
            assert not A.product(bar.letters)
        else:
            assert not A.m1(bar.letters[0])


def test_m1_is_the_induced_differential():
    V = LInftyAlgebra(
        [Generator("v", 0), Generator("u", 1)],
        {1: {(Generator("v", 0),): {Generator("u", 1): 1}}},
        name="dgv",
    )
    A = AInftyStructure(V, 2, 3)
    assert m1_matches_l1(A)


def test_product_degrees(sl2_structure):
    for bar in sl2_structure.bar_words():
        value = sl2_structure.product(bar.letters)
        n = bar.length
        expected = sum(w.degree for w in bar.letters) + 2 - n
        for w2 in value.terms:
            assert w2.degree == expected


def test_binary_product_top_weight_is_the_plain_product(sl2_structure):
    # the rank filtration: everything beyond the plain symmetric product
    # lives in strictly lower weight
    for bar in sl2_structure.bar_words():
        if bar.length != 2:
            continue
        u, v = bar.letters
        total = u.rank + v.rank
        terms, den = value = sl2_structure.m2(u, v)
        top = exact_sum([({w: c for w, c in terms.items() if w.rank == total}, 1, den)])
        assert top == star_product(u, v)
        for w in value.terms:
            assert w.rank <= total


def test_stasheff_passes(sl2_structure, l3_structure):
    assert stasheff_check(sl2_structure)
    assert stasheff_check(l3_structure)


def test_stasheff_catches_corruption(sl2_structure):
    L = bundled("sl2")
    A = AInftyStructure(L, 3, 4)
    # precompute, then poison one binary product entry
    e, f = L.by_id["e"], L.by_id["f"]
    key = (word_of(e), word_of(f))
    A.product(key)
    A._tables[key] = vector_sum(A._tables[key], Vector({word_of(f): 1}))
    assert not stasheff_check(A)


def reference_stasheff_check(structure):
    """d(d(b)) on every capped bar word, as the check built it before it
    read the one-letter part of d^2 first."""
    return square_zero(structure.bar_words(), memo_op(structure.bar_differential),
                       "bar differential squares to %r")


@pytest.mark.parametrize("name, inputs, extra", [
    ("sl2", ("e", "f"), "f"),
    ("sl2", ("h", "ef"), "ef"),
    ("l3only", ("a", "b"), "z"),
], ids=["sl2_pair", "sl2_rank3", "l3only_pair"])
def test_a_corrupted_table_fails_as_the_reference_does(name, inputs, extra):
    # one entry is poisoned; the failing report is the reference's,
    # counterexample and detail alike
    L = bundled(name)
    word = lambda ids: word_of(*(L.by_id[i] for i in ids))
    key = tuple(map(word, inputs))
    reports = []
    for check in (stasheff_check, reference_stasheff_check):
        A = AInftyStructure(L, 3, 4)
        A._tables[key] = vector_sum(A.product(key), Vector({word(extra): 1}))
        result = check(A)
        reports.append((result.ok, result.counterexample, result.detail))
    assert not reports[0][0]
    assert reports[0] == reports[1]


def stasheff_sum(table, letters):
    """The one-letter part of d^2 on the bar word of ``letters``, slot by
    slot: sum +- m(x_1, ..., m_k(x_j, ..., x_j+k-1), ..., x_n), with the
    signs of ``hpt.bar_coderivation``, as an exact pair of symmetric words.
    ``table`` gives m_k of a tuple of words as an exact pair."""
    degrees = [x.degree for x in letters]
    parts = []
    left = 0
    for j in range(len(letters)):
        head = letters[:j]
        for k in range(1, len(letters) - j + 1):
            image, den = table(letters[j : j + k])
            if not image:
                continue
            sign = conjugation_sign(degrees[j : j + k])
            sign = -sign if left % 2 else sign
            tail = letters[j + k :]
            for x, c in image.items():
                value, den_x = table(head + (x,) + tail)
                if value:
                    outer = degrees[:j] + [x.degree] + degrees[j + k :]
                    parts.append((value, sign * c * conjugation_sign(outer), den * den_x))
        left += degrees[j] - 1
    return exact_sum(parts)


@pytest.mark.parametrize("name, poison", [
    ("sl2", None),
    ("l3only", None),
    ("dg_lie", None),
    # the poisoned tables of test_a_corrupted_table_fails_as_the_reference_does
    ("sl2", (("e", "f"), "f")),
    ("sl2", (("h", "ef"), "ef")),
    ("l3only", (("a", "b"), "z")),
], ids=["sl2", "l3only", "dg_lie", "sl2_pair", "sl2_rank3", "l3only_pair"])
def test_stasheff_sum_is_the_one_letter_part_of_d_squared(name, poison):
    L = dg_lie() if name == "dg_lie" else bundled(name)
    A = AInftyStructure(L, 3, 4)
    if poison:
        inputs, extra = poison
        word = lambda ids: word_of(*(L.by_id[i] for i in ids))
        key = tuple(map(word, inputs))
        A._tables[key] = vector_sum(A.product(key), Vector({word(extra): 1}))
    table = memo_op(A.product)
    d = memo_op(A.bar_differential)
    # the sums over the compositions of nonzero entries against the sums
    # slot by slot, bar by bar
    sums = stasheff_sums(A)
    assert set(sums) <= {bar.letters for bar in A.bar_words()}
    failing = 0
    for bar in A.bar_words():
        pair = stasheff_sum(table, bar.letters)
        assert_reduced(pair)
        assert pair == corestriction(exact_apply(d(bar), d)), bar
        grouped = sums.get(bar.letters, ({}, 1))
        assert_reduced(grouped)
        assert grouped == pair, bar
        failing += bool(pair[0])
    assert bool(failing) == bool(poison)


@pytest.mark.parametrize("name", ["l3only", "ci_cubic", "sl2"])
def test_zero_entries_cost_nothing_past_bracket_selection(monkeypatch, name):
    # product signs only the entries with terms, and stasheff_sums reads
    # only those
    calls = Counter()

    def counted(fn):
        def wrapped(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapped

    A = AInftyStructure(bundled(name), 4, 4)
    monkeypatch.setattr(uea, "conjugation_sign", counted(uea.conjugation_sign))
    values = [A.product(bar.letters) for bar in A.bar_words()]
    nonzero = sum(map(bool, values))
    higher = sum(bool(v) for bar, v in zip(A.bar_words(), values) if bar.length >= 2)
    assert 0 < nonzero < len(values)
    assert calls["conjugation_sign"] == higher
    calls.clear()
    stasheff_sums(A)
    # each entry's conjugation sign, as an inner and as an outer entry
    assert calls["conjugation_sign"] == 2 * nonzero


# one product negated at caps 4/4, its input words as tuples of generator
# ids; odd2's m_2(t1, t2) is the one whose negation no Stasheff identity
# within the caps sees
NEGATED = {
    "sl2-e-e": ("sl2", (("e",), ("e",))),
    "sl2-e-f": ("sl2", (("e",), ("f",))),
    "heisenberg-x-x": ("heisenberg", (("x",), ("x",))),
    "l3only-a-b": ("l3only", (("a",), ("b",))),
    "l3only-a-ab-c": ("l3only", (("a",), ("a", "b"), ("c",))),
    "ci_cubic-x-x-x": ("ci_cubic", (("xi_x",),) * 3),
    "odd2-t1-t2": ("odd2", (("t1",), ("t2",))),
}


@pytest.mark.parametrize("name, inputs", NEGATED.values(), ids=NEGATED)
def test_a_negated_product_fails_as_the_reference_does(name, inputs):
    L = bundled(name)
    key = tuple(word_of(*(L.by_id[i] for i in ids)) for ids in inputs)
    reports = []
    for check in (stasheff_check, reference_stasheff_check):
        A = AInftyStructure(L, 4, 4)
        assert A.product(key)
        A._tables[key] = scaled(A.product(key), -1)
        result = check(A)
        reports.append((result.ok, result.counterexample, result.detail))
    assert reports[0] == reports[1]
    assert reports[0][0] == (name == "odd2")


def test_pbw_sl2_and_heisenberg():
    assert pbw_compare(AInftyStructure(bundled("sl2"), 3, 4))
    assert pbw_compare(AInftyStructure(heisenberg(), 3, 4))


def test_straightening_oracle_directly():
    L = bundled("sl2")
    U = ClassicalEnveloping(L)
    e, f, h = (L.by_id[k] for k in ("e", "f", "h"))
    # f then e straightens to ef - h
    assert U.straighten((f, e)) == Vector({(e, f): 1, (h,): -1})
    # symmetrization is a right inverse of projection to the associated graded
    val = U.symmetrize(word_of(e, f))
    assert val == Vector({(e, f): 2, (h,): -1}, 2)


def test_alt_bracket(sl2_structure, l3_structure):
    assert alt_bracket_check(sl2_structure, 2)
    assert alt_bracket_check(l3_structure, 3)
    assert alt_bracket_check(AInftyStructure(heisenberg(), 2, 3), 2)
    # abelian: all antisymmetrized products vanish
    assert alt_bracket_check(AInftyStructure(abelian([0, 0]), 3, 4), 2)
    assert alt_bracket_check(AInftyStructure(abelian([0, 0]), 3, 4), 3)


def test_involution(sl2_structure, l3_structure):
    assert involution_check(sl2_structure)
    assert involution_check(l3_structure)


def test_coproduct_strictness(sl2_structure, l3_structure):
    assert coproduct_strictness_check(sl2_structure, 2, 3)
    assert coproduct_strictness_check(l3_structure, 2, 3)


def test_truncation_agreement():
    assert truncation_agreement_check(AInftyStructure(sl2_plus_l3(), 2, 3))
    # the gadget's own 2-truncation is abelian: binary product is symmetric
    A = AInftyStructure(bundled("l3only"), 2, 3)
    for bar in A.bar_words():
        if bar.length == 2:
            assert A.product(bar.letters) == star_product(*bar.letters)
    # vacuous agreement for an honest binary-bracket algebra
    assert truncation_agreement_check(AInftyStructure(bundled("sl2"), 2, 3))


def test_determinism_of_product_tables():
    first = AInftyStructure(bundled("sl2"), 3, 3).export_tables()
    second = AInftyStructure(bundled("sl2"), 3, 3).export_tables()
    assert json.dumps(first) == json.dumps(second)


# ---------------------------------------------------------------------------
# morphism transfer


def test_u_of_identity_is_identity(sl2_structure):
    L = sl2_structure.algebra
    data = u_morphism(identity_morphism(L), 2, 3)
    for bar in data.source.bar_words():
        expected = Vector({bar: 1} if bar.length >= 1 else {})
        assert data.apply(bar) == expected


def test_strict_morphism_transfer():
    H = heisenberg()
    A = abelian([0, 0])
    x, y, z = (H.by_id[k] for k in ("x", "y", "z"))
    a1, a2 = A.by_id["a1"], A.by_id["a2"]
    phi = LInftyMorphism(H, A, {1: {(x,): {a1: 1}, (y,): {a2: 1}, (z,): {}}})
    assert check_morphism(phi, 3)
    data = u_morphism(phi, 3, 3)
    assert check_first_component(data)
    assert check_strict_vanishing(data)
    assert check_morphism_chain_map(data)


def _one_odd(name):
    return LInftyAlgebra([Generator(name, 1)], {}, name=name.upper())


def test_non_strict_morphism_transfer():
    La, Lb = _one_odd("a"), _one_odd("b")
    a, b = La.by_id["a"], Lb.by_id["b"]
    phi = LInftyMorphism(La, Lb, {1: {(a,): {b: 1}}, 2: {(a, a): {b: 1}}})
    assert check_morphism(phi, 4)
    data = u_morphism(phi, 3, 4)
    assert check_first_component(data)
    assert check_morphism_chain_map(data)
    higher = [
        bar
        for bar in data.source.bar_words()
        if bar.length >= 2 and data.component(bar.letters)
    ]
    assert higher, "expected a nonzero higher component"


def reference_letterwise_coalgebra_map(phi):
    """The cobar map of a morphism, built letter by letter: a letter c goes
    to the one-letter cobar words of phi's coalgebra map of c, and the
    images of the letters concatenate."""

    def on_letter(c):
        terms, den = phi.coalgebra_map(c)
        return Vector({Word(COBAR, (w,)): coeff for w, coeff in terms.items()}, den)

    def on_cobar(x):
        return vector_product([on_letter(c) for c in x.letters],
                              lambda ws: (1, Word(COBAR, (l for w in ws for l in w.letters))))

    return on_cobar


def test_cobar_side_of_the_morphism_is_the_letterwise_map():
    # the strict and the non-strict morphism of the CLI's morphism suite
    H, A2 = heisenberg(), abelian([0, 0])
    x, y, z = (H.by_id[k] for k in ("x", "y", "z"))
    strict = LInftyMorphism(H, A2, {1: {(x,): {A2.by_id["a1"]: 1},
                                        (y,): {A2.by_id["a2"]: 1}, (z,): {}}})
    La, Lb = _one_odd("a"), _one_odd("b")
    a, b = La.by_id["a"], Lb.by_id["b"]
    bent = LInftyMorphism(La, Lb, {1: {(a,): {b: 1}}, 2: {(a, a): {b: 1}}})
    for phi in (strict, bent):
        expected = reference_letterwise_coalgebra_map(phi)
        actual = bar_morphism(phi.coalgebra_map)
        sgens = [g.shifted(-1) for g in phi.source.generators]
        words = [w for r in (1, 2, 3) for w in cobar_words(sgens, r)]
        assert any(expected(w) for w in words)
        for w in words:
            assert actual(w) == expected(w), (phi.source.name, w)


def test_composition_homotopy():
    La, Lb, Lc = _one_odd("a"), _one_odd("b"), _one_odd("c")
    a, b = La.by_id["a"], Lb.by_id["b"]
    c = Lc.by_id["c"]
    phi = LInftyMorphism(La, Lb, {1: {(a,): {b: 1}}, 2: {(a, a): {b: 1}}})
    psi = LInftyMorphism(Lb, Lc, {1: {(b,): {c: 1}}, 2: {(b, b): {c: 1}}})
    res, H = composition_homotopy_check(phi, psi, 3, 4)
    assert res
    # a strict factor forces the homotopy to vanish
    res, H = composition_homotopy_check(phi, identity_morphism(Lb), 3, 4)
    assert res
    for bar in u_morphism(phi, 2, 3).source.bar_words():
        assert not H.apply(bar)


def test_compute_products_entry_point():
    A = AInftyStructure(bundled("sl2"), arity_cap=2, weight_cap=2)
    assert A.arity_cap == 2 and A.weight_cap == 2
    tables = A.export_tables()
    assert any(entry["arity"] == 2 for entry in tables)
    for entry in tables:
        assert set(entry) == {"arity", "inputs", "output"}
