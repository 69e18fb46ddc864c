"""Twisted cochains, the twisted tensor complex, and the module functors."""

import pytest

from enveloping.bgg import (
    AInftyModule,
    EndOp,
    TwistedComplex,
    functor_f,
    functor_g,
    generalized_cochain_check,
    module_complex_check,
    omega_to_enveloping_check,
    roundtrip_fg_check,
    roundtrip_gf_check,
    tau_value,
    twisted_tensor_acyclicity,
)
from enveloping.exactlin import Generator, Vector, sym_word
from enveloping.linfty import (
    abelian,
    adjoint_module,
    check_module,
    heisenberg,
    l3_gadget,
    odd_abelian,
    sl2,
    trivial_module,
)
from enveloping.uea import AInftyStructure
from enveloping.words import BarWord, bar_words_algebra, sym_words


@pytest.fixture(scope="module")
def sl2_structure():
    return AInftyStructure(sl2(), 4, 4)


@pytest.fixture(scope="module")
def sl2_small():
    return AInftyStructure(sl2(), 3, 3)


def test_tau_is_the_weight_one_projection(sl2_structure):
    L = sl2_structure.algebra
    e = L.by_id["e"]
    _, word = sym_word([e.shifted(-1)])
    assert tau_value(word) == Vector.unit(sym_word([e])[1])
    _, w2 = sym_word([e.shifted(-1), L.by_id["f"].shifted(-1)])
    assert tau_value(w2).is_zero()


def test_generalized_cochain_equation(sl2_structure):
    assert generalized_cochain_check(sl2_structure, 4)


def test_canonical_tau_constructor(sl2_structure):
    from enveloping.bgg import canonical_tau

    tau = canonical_tau(sl2_structure, 3)
    L = sl2_structure.algebra
    _, word = sym_word([L.by_id["e"].shifted(-1)])
    assert tau(word) == Vector.unit(sym_word([L.by_id["e"]])[1])


def test_cochain_equation_weight_one_is_trivial():
    # both sides vanish on weight-one words when there is no differential
    A = AInftyStructure(abelian([0, 1]), 3, 3)
    assert generalized_cochain_check(A, 3)


def test_cochain_equation_l3(sl2_structure):
    A = AInftyStructure(l3_gadget(), 3, 4)
    assert generalized_cochain_check(A, 4)


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
    # the complex constructor itself verifies the square; reaching homology
    # means the twisted differential squared to zero on the truncation
    cx = TwistedComplex(sl2_structure, 3).complex()
    assert cx.homology_dims() == {0: 1}


def test_omega_to_enveloping_chain_map(sl2_structure):
    assert omega_to_enveloping_check(sl2_structure, 3)
    A = AInftyStructure(abelian([0, 1]), 3, 3)
    assert omega_to_enveloping_check(A, 3)


def test_two_cobar_models_have_matching_homology():
    from enveloping.bgg import omega_comparison_check

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
        GM = functor_g(M, sl2_small)
        assert module_complex_check(GM, 3, 3), M.name


def test_functor_g_weight_one_action_is_the_given_one(sl2_small):
    L = sl2_small.algebra
    M = adjoint_module(L)
    GM = functor_g(M, sl2_small)
    for g in L.generators:
        _, word = sym_word([g])
        bar = BarWord((word,))
        op = GM.t(bar)
        _, sword = sym_word([g.shifted(-1)])
        for m in M.basis:
            assert op.apply(m) == M.tau(sword, m)


def test_functor_f_of_g_is_a_valid_module(sl2_small):
    L = sl2_small.algebra
    M = adjoint_module(L)
    FM = functor_f(functor_g(M, sl2_small), 3, 3)
    assert check_module(FM, 3)


def test_roundtrips(sl2_small):
    L = sl2_small.algebra
    for M in (trivial_module(L), adjoint_module(L)):
        assert roundtrip_fg_check(M, sl2_small, 3, 3), M.name
        GM = functor_g(M, sl2_small)
        assert roundtrip_gf_check(GM, 3, 3), M.name


def test_roundtrip_fails_with_top_cell_fault(top_cell_fault):
    # the backward round trip genuinely uses the homotopy vanishing on
    # one-letter cobar words; a deliberate violation must be detected
    top_cell_fault()
    faulty = AInftyStructure(sl2(), 3, 3)
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
        out = Vector()
        for w, c in vec.items():
            if w in basis:
                out.add_term(basis[w], c)
        return out

    cochain = {}
    for bar in bar_words_algebra(O.generators, 2, 2):
        table = {}
        for w, m in basis.items():
            if w is None:
                if bar.length == 1:
                    table[m] = as_module(Vector.unit(bar.letters[0]))
                continue
            if w.weight + bar.rank <= 2 and bar.length + 1 <= 3:
                # left multiplication: the validator keeps the prefix and
                # applies the suffix through the evaluation left-action
                value = A.product(bar.letters + (w,))
                if value:
                    table[m] = as_module(value)
        op = EndOp(table)
        if op:
            cochain[bar] = op
    module = AInftyModule(A, list(basis.values()), EndOp({}), cochain, name="self")
    assert module_complex_check(module, 2, 2)
    back = functor_f(module, 2, 2)
    assert check_module(back, 2)
