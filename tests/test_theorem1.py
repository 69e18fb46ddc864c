"""The cobar contraction suite: the face dictionary is a chain isomorphism,
and the transported homotopy satisfies every contraction identity together
with functoriality and compatibility with the reversal anti-involution."""

import itertools

import pytest

from enveloping.exactlin import Vector, exact_apply, koszul_sign
from enveloping.hpt import cobar_differential
from enveloping.linfty import CECoalgebra, dg_vector_space
from enveloping.permutahedra import all_faces, cobar_f, cobar_g, cobar_h, iota_omega, theta
from enveloping.words import cobar_words, sym_words

from conftest import act, boundary, induced_algebra_map, nu, scaled, vector_sum


def then(v, *ops):
    """The maps ``ops`` applied to the vector v in turn."""
    for op in ops:
        v = exact_apply(v, op)
    return v


def make_space(pairs):
    V = dg_vector_space(pairs)
    C1 = CECoalgebra(V, 8, max_arity=1)
    return V, C1, cobar_differential(C1)


MIXED = [("v", 0, {"w": 1}), ("w", 1, {})]
EVEN2 = [("x", 0, {}), ("y", 0, {})]


def d_tensor(V, gens):
    out = []
    left = 0
    for i, g in enumerate(gens):
        for g2, c in V.bracket((g,)).terms.items():
            out.append(((-1 if left % 2 else 1) * c, gens[:i] + (g2,) + gens[i + 1 :]))
        left += g.degree
    return out


def test_theta_single_letter():
    V, C1, dOm = make_space(MIXED)
    v = V.by_id["v"]
    face = all_faces(1)[0]
    image = theta((v,), face)
    ((word, coeff),) = image.terms.items()
    assert coeff == 1
    assert word.length == 1 and word.letters[0].letters[0].id == "v"


@pytest.mark.parametrize("pairs", [MIXED, EVEN2])
def test_theta_chain_map(pairs):
    # the executable content of the face-dictionary lemma:
    # delta(theta(w, f)) = theta(dw, f) - (-1)^{|w|} theta(w, boundary f)
    V, C1, dOm = make_space(pairs)
    pool = list(V.generators)
    for n in (1, 2, 3):
        for gens in itertools.product(pool, repeat=n):
            wdeg = sum(g.degree for g in gens)
            sgn = -1 if wdeg % 2 == 0 else 1
            for f in all_faces(n):
                lhs = exact_apply(theta(gens, f), dOm)
                rhs = [scaled(theta(tuple(gens2), f), c) for c, gens2 in d_tensor(V, gens)]
                rhs += [scaled(theta(gens, f2), sgn * c)
                        for f2, c in boundary(f).terms.items()]
                assert lhs == vector_sum(*rhs), (gens, f)


def test_theta_equivariance():
    # theta(w . sigma, f) = theta(w, sigma f): the descent to coinvariants
    V, _, _ = make_space(MIXED)
    pool = list(V.generators)
    n = 3
    for gens in itertools.product(pool, repeat=n):
        degs = [g.degree for g in gens]
        for sigma in itertools.permutations(range(1, n + 1)):
            perm = tuple(sigma[k] - 1 for k in range(n))
            sign = koszul_sign(perm, degs)
            moved = tuple(gens[i] for i in perm)
            for f in all_faces(n):
                s2, f2 = act(sigma, f)
                assert scaled(theta(moved, f), sign) == scaled(theta(gens, f2), s2), (
                    gens,
                    sigma,
                    f,
                )


def test_theta_transports_reversal_to_iota():
    V, _, _ = make_space(MIXED)
    pool = list(V.generators)
    for n in (1, 2, 3):
        for gens in itertools.product(pool, repeat=n):
            for f in all_faces(n):
                s2, f2 = nu(f)
                lhs = scaled(theta(gens, f2), s2)
                rhs = exact_apply(theta(gens, f), iota_omega)
                assert lhs == rhs


@pytest.mark.parametrize("pairs", [MIXED, EVEN2])
def test_contraction_identities(pairs):
    V, C1, dOm = make_space(pairs)
    sgens = C1.sgens
    for weight in (1, 2, 3, 4):
        for word in sym_words(V.generators, weight):
            v = Vector({word: 1})
            assert then(v, cobar_g, cobar_f) == v
            assert not then(v, cobar_g, cobar_h)
            # g is a chain map
            from enveloping.hpt import algebra_differential

            dE = algebra_differential(V)
            assert then(v, cobar_g, dOm) == then(v, dE, cobar_g)
    for rank in (1, 2, 3, 4):
        for x in cobar_words(sgens, rank):
            v = Vector({x: 1})
            gf = then(v, cobar_f, cobar_g)
            hom = vector_sum(then(v, cobar_h, dOm), then(v, dOm, cobar_h))
            assert vector_sum(v, scaled(gf, -1)) == hom, x
            assert not then(v, cobar_h, cobar_f)
            assert not then(v, cobar_h, cobar_h)
            if x.length == 1:
                # the homotopy kills one-letter words (top-cell vanishing)
                assert not then(v, cobar_h)


def test_homotopy_commutes_with_reversal():
    V, C1, _ = make_space(MIXED)
    for rank in (1, 2, 3, 4):
        for x in cobar_words(C1.sgens, rank):
            v = Vector({x: 1})
            assert then(v, iota_omega, cobar_h) == then(v, cobar_h, iota_omega)


# Degree-0 maps on two even generators a, b and two odd ones c, d, as
# {generator: {image generator: coefficient}}; a generator left out is fixed.
MIXING_MAPS = {
    "elementary": {"a": {"a": 1, "b": 2}},
    "signed permutation": {"a": {"b": -1}, "b": {"a": 1}, "c": {"d": 1}, "d": {"c": -1}},
    "merge": {"b": {"a": 1}},
    "projection": {"b": {}},
    "odd mixing": {"c": {"c": 1, "d": 1}, "d": {"c": 2, "d": -3}},
}


@pytest.mark.parametrize("name", sorted(MIXING_MAPS))
def test_functoriality_square(name):
    # the homotopy is natural: the cobar map induced by a degree-0 map that
    # mixes, merges or kills generators commutes with it
    V = dg_vector_space([("a", 0, {}), ("b", 0, {}), ("c", 1, {}), ("d", 1, {})])
    table = MIXING_MAPS[name]

    def phi(g):
        image = table.get(g.id, {g.id: 1})
        return Vector({V.by_id[h]: c for h, c in image.items()})

    amap = induced_algebra_map(phi)
    sgens = tuple(g.shifted(-1) for g in V.generators)
    for rank in (1, 2, 3, 4):
        for x in cobar_words(sgens, rank):
            v = Vector({x: 1})
            assert then(v, cobar_h, amap) == then(v, amap, cobar_h), x


def test_iota_is_an_involutive_chain_map():
    V, C1, dOm = make_space(MIXED)
    for rank in (1, 2, 3):
        for x in cobar_words(C1.sgens, rank):
            v = Vector({x: 1})
            assert then(v, iota_omega, iota_omega) == v
            assert then(v, iota_omega, dOm) == then(v, dOm, iota_omega)
