"""The cobar contraction suite: the face dictionary is a chain isomorphism,
and the transported homotopy satisfies every contraction identity together
with functoriality and compatibility with the reversal anti-involution."""

import itertools

import pytest

from enveloping import permutahedra
from enveloping.exactlin import Vector, koszul_sign, vector_view
from enveloping.hpt import cobar_differential
from enveloping.linfty import CECoalgebra, dg_vector_space
from enveloping.permutahedra import all_faces, iota_omega, theta
from enveloping.words import cobar_words, sym_words

from conftest import act, boundary, induced_algebra_map, nu

# the exact cobar maps, read as Vector maps
cobar_f, cobar_g, cobar_h = map(
    vector_view, (permutahedra.cobar_f, permutahedra.cobar_g, permutahedra.cobar_h))


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
        for g2, c in V.bracket((g,)).items():
            out.append(((-1 if left % 2 else 1) * c, gens[:i] + (g2,) + gens[i + 1 :]))
        left += g.degree
    return out


def test_theta_single_letter():
    V, C1, dOm = make_space(MIXED)
    v = V.by_id["v"]
    face = all_faces(1)[0]
    image = theta((v,), face)
    ((word, coeff),) = image.items()
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
                lhs = theta(gens, f).apply(dOm)
                rhs = Vector()
                for c, gens2 in d_tensor(V, gens):
                    rhs = rhs + theta(tuple(gens2), f).scaled(c)
                for f2, c in boundary(f).items():
                    rhs = rhs + theta(gens, f2).scaled(sgn * c)
                assert lhs == rhs, (gens, f)


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
                assert theta(moved, f).scaled(sign) == theta(gens, f2).scaled(s2), (
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
                lhs = theta(gens, f2).scaled(s2)
                rhs = theta(gens, f).apply(iota_omega)
                assert lhs == rhs


@pytest.mark.parametrize("pairs", [MIXED, EVEN2])
def test_contraction_identities(pairs):
    V, C1, dOm = make_space(pairs)
    sgens = C1.sgens
    for weight in (1, 2, 3, 4):
        for word in sym_words(V.generators, weight):
            v = Vector.unit(word)
            assert v.apply(cobar_g).apply(cobar_f) == v
            assert not v.apply(cobar_g).apply(cobar_h)
            # g is a chain map
            from enveloping.hpt import algebra_differential

            dE = algebra_differential(V)
            assert v.apply(cobar_g).apply(dOm) == v.apply(dE).apply(cobar_g)
    for rank in (1, 2, 3, 4):
        for x in cobar_words(sgens, rank):
            v = Vector.unit(x)
            gf = v.apply(cobar_f).apply(cobar_g)
            hom = v.apply(cobar_h).apply(dOm) + v.apply(dOm).apply(cobar_h)
            assert v - gf == hom, x
            assert not v.apply(cobar_h).apply(cobar_f)
            assert not v.apply(cobar_h).apply(cobar_h)
            if x.length == 1:
                # the homotopy kills one-letter words (top-cell vanishing)
                assert not v.apply(cobar_h)


def test_homotopy_commutes_with_reversal():
    V, C1, _ = make_space(MIXED)
    for rank in (1, 2, 3, 4):
        for x in cobar_words(C1.sgens, rank):
            v = Vector.unit(x)
            assert v.apply(iota_omega).apply(cobar_h) == v.apply(cobar_h).apply(
                iota_omega
            )


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
            v = Vector.unit(x)
            assert v.apply(cobar_h).apply(amap) == v.apply(amap).apply(cobar_h), x


def test_iota_is_an_involutive_chain_map():
    V, C1, dOm = make_space(MIXED)
    for rank in (1, 2, 3):
        for x in cobar_words(C1.sgens, rank):
            v = Vector.unit(x)
            assert v.apply(iota_omega).apply(iota_omega) == v
            assert v.apply(iota_omega).apply(dOm) == v.apply(dOm).apply(iota_omega)
