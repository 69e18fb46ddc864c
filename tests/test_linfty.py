import json

import pytest
from hypothesis import given, settings

from enveloping.cli import BUNDLED
from enveloping.exactlin import (
    Generator,
    Vector,
    axpy,
    conjugation_sign,
    exact_apply,
    exact_sum,
    s_power_sign,
    sym_word,
    unshuffles,
)
from enveloping.hpt import Transfer
from enveloping.linfty import (
    CECoalgebra,
    LInftyAlgebra,
    LInftyMorphism,
    abelian,
    adjoint_module,
    algebra_from_json,
    algebra_to_json,
    check_linfty,
    check_module,
    check_morphism,
    compose_morphisms,
    dg_vector_space,
    from_complete_intersection,
    heisenberg,
    identity_morphism,
    module_from_json,
    suspended_lookup,
)

from conftest import (
    bundled,
    complete_intersections,
    dg_lie,
    fractions_of,
    scaled,
    sl2_plus_l3,
    trivial_module,
    vector_sum,
)


def w(*gens):
    sign, word = sym_word(list(gens))
    assert sign == 1
    return word


def test_abelian_has_zero_differential():
    A = abelian([0, 1, 2])
    assert check_linfty(A, 3)
    C = CECoalgebra(A, 3)
    for word in C.all_words():
        assert not C.delta(word)


def test_dg_lie_coderivation_has_no_higher_arity():
    L = bundled("sl2")
    assert check_linfty(L, 4)
    C = CECoalgebra(L, 4)
    for word in C.all_words():
        for out_word in C.delta(word).terms:
            # binary brackets only merge two letters into one
            assert out_word.rank in (word.rank, word.rank - 1)
    assert sorted(L.brackets) == [2]


def test_sl2_ce_differential_frozen_value():
    # c_2 = s l_2 (s x s)^{-1}: recompute the conjugation sign directly
    L = bundled("sl2")
    assert check_linfty(L, 3)
    C = CECoalgebra(L, 3)
    e, f, h = (L.by_id[k] for k in ("e", "f", "h"))
    se, sf, sh = (g.shifted(-1) for g in (e, f, h))
    sign = s_power_sign([e.degree, f.degree])  # inverse suspension power
    expected = Vector({w(sh): sign})
    assert C.delta(w(se, sf)) == expected
    assert not exact_apply(C.delta(w(se, sf)), C.delta)


def test_check_linfty_passes_on_examples():
    for algebra, cap in ((bundled("sl2"), 4), (heisenberg(), 4),
                         (bundled("l3only"), 5), (sl2_plus_l3(), 4),
                         (abelian([0, 1]), 4)):
        assert check_linfty(algebra, cap), algebra.name


def test_check_linfty_catches_corruption_at_weight_three():
    e, f, h = Generator("e", 0), Generator("f", 0), Generator("h", 0)
    bad = LInftyAlgebra(
        [e, f, h],
        {2: {(e, f): {h: 1}, (e, h): {e: -2}, (f, h): {f: -2}}},  # wrong sign
        name="bad",
    )
    result = check_linfty(bad, 3)
    assert not result
    assert result.counterexample.rank == 3


def test_l3_gadget_satisfies_its_quadratic_constraint():
    # only one ternary bracket into a central direction; the coderivation
    # squares to zero because the target never feeds another bracket
    L = bundled("l3only")
    assert check_linfty(L, 6)
    C = CECoalgebra(L, 4)
    a, b, c = (L.by_id[k].shifted(-1) for k in ("a", "b", "c"))
    value = C.delta(w(a, b, c))
    assert len(value.terms) == 1


def test_bracket_graded_antisymmetry_extension():
    L = bundled("sl2")
    e, f, h = (L.by_id[k] for k in ("e", "f", "h"))
    assert L.bracket((f, e)) == Vector({h: -1})
    assert L.bracket((h, e)) == Vector({e: 2})
    assert not L.bracket((e, e))


def test_bracket_tables_reject_bad_input():
    e = Generator("e", 0)
    with pytest.raises(ValueError):
        LInftyAlgebra([e], {2: {(e, e): {e: 1}}})  # repeated even generator
    with pytest.raises(ValueError):
        LInftyAlgebra([e], {1: {(e,): {e: 1}}})  # wrong target degree


# ---------------------------------------------------------------------------
# complete intersections


def test_ci_square_gives_binary_bracket_only():
    L = from_complete_intersection(["x"], {"w": [(1, ("x", "x"))]})
    assert sorted(L.brackets) == [2]
    xi = L.by_id["xi_x"]
    z = L.by_id["z_w"]
    # partial-derivative normalization: d^2/dx^2 (x^2) = 2
    assert L.bracket((xi, xi)) == Vector({z: 2})
    assert check_linfty(L, 4)


def test_ci_square_divided_powers_flag():
    L = from_complete_intersection(["x"], {"w": [(1, ("x", "x"))]}, divided_powers=True)
    xi = L.by_id["xi_x"]
    assert L.bracket((xi, xi)) == Vector({L.by_id["z_w"]: 1})


def test_ci_divided_powers_from_json_is_a_boolean():
    def cube(**flag):
        data = {"complete_intersection": dict(variables=["x"], relations=[
            {"id": "w", "terms": [{"coeff": "1", "monomial": ["x", "x", "x"]}]}], **flag)}
        L = algebra_from_json(data)
        return L.bracket((L.by_id["xi_x"],) * 3).terms[L.by_id["z_w"]]

    assert (cube(), cube(divided_powers=False), cube(divided_powers=True)) == (6, 6, 1)
    with pytest.raises(ValueError, match="divided_powers must be a boolean, not 'no'"):
        cube(divided_powers="no")


def test_ci_cube_gives_ternary_bracket_only():
    L = from_complete_intersection(["x"], {"w": [(1, ("x", "x", "x"))]})
    assert sorted(L.brackets) == [3]
    xi = L.by_id["xi_x"]
    assert L.bracket((xi, xi, xi)) == Vector({L.by_id["z_w"]: 6})
    assert check_linfty(L, 5)


def test_ci_zero_polynomial_is_abelian():
    L = from_complete_intersection(["x", "y"], {"w": []})
    assert not L.brackets
    assert check_linfty(L, 3)


def test_ci_rejects_linear_terms():
    with pytest.raises(ValueError):
        from_complete_intersection(["x"], {"w": [(1, ("x",))]})


# ---------------------------------------------------------------------------
# morphisms


def test_identity_morphism_and_composition():
    L = bundled("sl2")
    ident = identity_morphism(L)
    assert check_morphism(ident, 3)
    again = compose_morphisms(ident, ident, 3)
    for g in L.generators:
        assert again.component((g,)) == Vector({g: 1})
    assert again.is_strict()


def test_strict_lie_map_is_a_morphism():
    H = heisenberg()
    A = abelian([0, 0])
    x, y, z = (H.by_id[k] for k in ("x", "y", "z"))
    a1, a2 = A.by_id["a1"], A.by_id["a2"]
    phi = LInftyMorphism(H, A, {1: {(x,): {a1: 1}, (y,): {a2: 1}, (z,): {}}})
    assert check_morphism(phi, 4)


def _heisenberg_to_abelian(table):
    H, A = heisenberg(), abelian([0, 0])
    return LInftyMorphism(H, A, {1: table(H.by_id, A.by_id)})


def test_morphism_key_of_wrong_arity_is_refused():
    with pytest.raises(ValueError, match="morphism key has wrong arity"):
        _heisenberg_to_abelian(lambda h, a: {(h["x"], h["y"]): {a["a1"]: 1}})


def test_morphism_component_of_arity_zero_is_refused():
    with pytest.raises(ValueError, match="morphism arity must be at least 1, not 0"):
        LInftyMorphism(heisenberg(), abelian([2]), {0: {(): {Generator("a1", 2): 1}}})


def test_morphism_value_on_an_unknown_generator_is_refused():
    with pytest.raises(ValueError, match="morphism value uses unknown generator"):
        _heisenberg_to_abelian(lambda h, a: {(h["x"],): {h["z"]: 1}})


def test_morphism_key_repeating_an_even_generator_is_refused():
    H, A = heisenberg(), abelian([-1])
    x, a1 = H.by_id["x"], A.by_id["a1"]
    with pytest.raises(ValueError, match="repeated even generator in morphism key"):
        LInftyMorphism(H, A, {2: {(x, x): {a1: 1}}})


def test_non_chain_map_fails_at_weight_one():
    V = dg_vector_space([("v", 0, {"u": 1}), ("u", 1, {})])
    W = dg_vector_space([("v", 0, {"u": 1}), ("u", 1, {})])
    v, u = V.by_id["v"], V.by_id["u"]
    phi = LInftyMorphism(V, W, {1: {(v,): {W.by_id["v"]: 1}, (u,): {}}})
    result = check_morphism(phi, 3)
    assert not result
    assert result.counterexample.rank == 1


def test_composition_arity_two_rule():
    # (psi phi)_2 = psi_1 phi_2 + psi_2 (phi_1 x phi_1) against the direct
    # coalgebra-map composition (the oracle used by compose_morphisms)
    La = LInftyAlgebra([Generator("a", 1)], {}, name="A")
    Lb = LInftyAlgebra([Generator("b", 1)], {}, name="B")
    Lc = LInftyAlgebra([Generator("c", 1)], {}, name="C")
    a, b, c = La.by_id["a"], Lb.by_id["b"], Lc.by_id["c"]
    phi = LInftyMorphism(La, Lb, {1: {(a,): {b: 2}}, 2: {(a, a): {b: 3}}})
    psi = LInftyMorphism(Lb, Lc, {1: {(b,): {c: 5}}, 2: {(b, b): {c: 7}}})
    comp = compose_morphisms(psi, phi, 3)
    assert comp.component((a,)) == Vector({c: 10})
    # psi_1 phi_2 plus psi_2 (phi_1 x phi_1)
    expected = 5 * 3 + 7 * 2 * 2
    got = comp.component((a, a))
    assert got == Vector({c: expected}) or got == Vector({c: -expected})
    # pin against the coalgebra composition itself
    word = sym_word([a.shifted(-1), a.shifted(-1)])[1]
    terms, den = exact_apply(phi.coalgebra_map(word), psi.coalgebra_map)
    sign = s_power_sign([a.degree, a.degree])
    weight_one = {w2.letters[0].shifted(1): sign * coeff
                  for w2, coeff in terms.items() if w2.rank == 1}
    assert fractions_of(got) == fractions_of(Vector(weight_one, den))


# ---------------------------------------------------------------------------
# modules


def test_trivial_and_adjoint_modules_validate():
    L = bundled("sl2")
    assert check_module(trivial_module(L), 3)
    assert check_module(adjoint_module(L), 3)


def test_corrupt_module_fails():
    L = bundled("sl2")
    M = adjoint_module(L)
    word = next(iter(M.action))
    terms, den = M.action[word]
    pair, c = next(iter(terms.items()))
    M.action[word] = vector_sum(M.action[word], Vector({pair: c}, den))
    assert not check_module(M, 3)


def dg_adjoint():
    """The adjoint module of the dg Lie algebra d a = b, [a, b] = b: a valid
    module whose differential and action must agree."""
    a, b = Generator("a", 0), Generator("b", 1)
    return adjoint_module(LInftyAlgebra([a, b], {1: {(a,): {b: 1}}, 2: {(a, b): {b: 1}}}))


def test_module_with_a_scaled_differential_fails():
    M = dg_adjoint()
    assert M.d_m and check_module(M, 3)
    M.d_m = scaled(M.d_m, 2)
    assert not check_module(M, 3)


# ---------------------------------------------------------------------------
# JSON round trips


def test_algebra_json_roundtrip():
    for algebra in (bundled("sl2"), heisenberg(), bundled("l3only"), abelian([0, 1])):
        data = algebra_to_json(algebra)
        back = algebra_from_json(json.loads(json.dumps(data)))
        assert back.generators == algebra.generators
        for arity, table in algebra.brackets.items():
            for word, vec in table.items():
                assert back.bracket(word) == vec


def test_module_json_roundtrip():
    L = bundled("sl2")
    M = adjoint_module(L)
    data = {
        "generators": [{"id": g.id, "degree": g.degree} for g in M.basis],
        "actions": [],
    }
    from enveloping.exactlin import format_scalar

    for word, op in M.action.items():
        for (m, m2), c in sorted(op.terms.items()):
            data["actions"].append(
                {
                    "arity": 1,
                    "inputs": [g.id for g in word.letters],
                    "module_input": m.id,
                    "value": [{"coeff": format_scalar(c, op.den), "monomial": [m2.id]}],
                }
            )
    back = module_from_json(L, data)
    assert check_module(back, 3)
    for word, op in M.action.items():
        assert back.tau(word) == op


def test_module_json_differential_lands_in_d_m_as_pairs():
    M = dg_adjoint()
    a, b = M.algebra.by_id["a"], M.algebra.by_id["b"]
    data = {
        "generators": [{"id": g.id, "degree": g.degree} for g in M.basis],
        "actions": [{"arity": 0, "inputs": [], "module_input": "a",
                     "value": [{"coeff": "3/2", "monomial": ["b"]}]}],
    }
    back = module_from_json(M.algebra, data)
    assert back.d_m == Vector({(a, b): 3}, 2)
    assert not back.action


def iterated_reduced_coproduct(C, word, parts):
    """Delta^(parts) of a word by the recursion on ``parts``: the reference
    for ``CECoalgebra.splits``."""
    if parts == 1:
        return Vector({(word,): 1})
    out = {}
    for (wA, wB), c in C.reduced_coproduct(word).terms.items():
        if parts == 2:
            axpy(out, {(wA, wB): c})
        else:
            for rest, c2 in iterated_reduced_coproduct(C, wB, parts - 1).terms.items():
                axpy(out, {(wA,) + rest: c * c2})
    return Vector(out)


@pytest.mark.parametrize("name", BUNDLED)
def test_splits_are_the_iterated_reduced_coproducts(name):
    # for each k, the k-piece terms of splits are Delta^(k), in its order,
    # and splits holds nothing else
    C = Transfer(bundled(name), 4).Cfull
    for word in C.all_words(4):
        splits = list(C.splits(word).terms.items())
        expected = [term for parts in range(1, word.rank + 1)
                    for term in iterated_reduced_coproduct(C, word, parts).terms.items()]
        assert splits == expected, word


def unshuffle_delta(C, word):
    """The coderivation by its definition: every unshuffle of the word's
    letters into a subset of an arity in C's range and the rest, the subset
    looked up by ``suspended_lookup``.  The reference for ``C.delta``."""
    letters = word.letters
    n = len(letters)
    max_k = n if C.max_arity is None else min(n, C.max_arity)
    parts = []
    for inside, outside, sign in unshuffles(
        [g.degree for g in letters], range(C.min_arity, max_k + 1)
    ):
        terms, den = suspended_lookup(C.algebra.brackets, tuple(letters[i] for i in inside),
                                      conjugation_sign)
        if not terms:
            continue
        rest = [letters[i] for i in outside]
        image = {}
        for gen, coeff in terms.items():
            s2, w2 = sym_word([gen] + rest)
            if w2 is not None:
                image[w2] = coeff * s2
        parts.append((image, sign, den))
    return exact_sum(parts)


ARITY_RANGES = ({}, {"max_arity": 1}, {"min_arity": 2})


def assert_delta_is_the_unshuffle_sum(algebra, weight_cap):
    # the same terms in the same order, over the same denominator
    for arities in ARITY_RANGES:
        C = CECoalgebra(algebra, weight_cap, **arities)
        for word in C.all_words():
            terms, den = C.delta(word)
            expected = unshuffle_delta(C, word)
            assert (list(terms.items()), den) == (list(expected.terms.items()), expected.den), \
                (arities, word)


@pytest.mark.parametrize("name", BUNDLED)
def test_delta_by_bracket_key_is_the_unshuffle_sum(name):
    assert_delta_is_the_unshuffle_sum(bundled(name), 4)


def test_delta_by_bracket_key_with_a_differential():
    assert_delta_is_the_unshuffle_sum(dg_lie(), 4)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complete_intersections())
def test_delta_by_bracket_key_on_complete_intersections(algebra):
    assert_delta_is_the_unshuffle_sum(algebra, 4)
