"""Shared fixtures, the bundled algebras, and the builders and oracles that
more than one test module uses."""

import functools
import math
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from enveloping import permutahedra, tableaux
from enveloping.bgg import functor_f, functor_g
from enveloping.cli import load_input
from enveloping.exactlin import (
    COBAR,
    CheckResult,
    FiniteComplex,
    Generator,
    Vector,
    Word,
    exact_sum,
    memo_op,
    perm_parity,
    square_zero,
    sym_word,
    unshuffles,
)
from enveloping.hpt import bar_coderivation, concatenation
from enveloping.linfty import (CECoalgebra, LInftyAlgebra, LInftyModule, algebra_from_json,
                               from_complete_intersection)
from enveloping.words import bar_words, cobar_words, vector_product


@pytest.fixture
def top_cell_fault(monkeypatch):
    """Call it to make every contraction built afterwards send the top cell
    to itself, where H must vanish: a deliberate fault for tests to detect."""

    def install():
        @functools.lru_cache(maxsize=None)
        def faulty_contraction(n):
            con = permutahedra.PermutahedronContraction(n)
            (top_cell,) = con.faces.by_size[1]  # the one face with one block
            con.columns[top_cell] = Vector({top_cell: con.scale})  # H(top) = top
            return con

        monkeypatch.setattr(permutahedra, "build_contraction", faulty_contraction)

    return install


def vector_of(coefficients):
    """The ``Vector`` of a map from basis keys to rationals (ints or
    Fractions): the oracle side of a comparison with the engine's vectors."""
    return exact_sum(({w: 1}, Fraction(q).numerator, Fraction(q).denominator)
                     for w, q in coefficients.items())


def fractions_of(vector):
    """The coefficients of a ``Vector`` as Fractions, by basis key."""
    terms, den = vector
    return {w: Fraction(c, den) for w, c in terms.items()}


def scaled(vector, q):
    """q times a ``Vector``, for a rational q."""
    q = Fraction(q)
    return exact_sum([(vector.terms, q.numerator, q.denominator * vector.den)])


def vector_sum(*vectors):
    """The sum of ``Vector``s."""
    return exact_sum((v.terms, 1, v.den) for v in vectors)


def assert_reduced(pair):
    """An exact pair (terms, den): nonzero integer terms over a positive
    denominator that shares no factor with all of them."""
    terms, den = pair
    assert type(den) is int and den > 0
    assert all(type(c) is int and c for c in terms.values())
    assert math.gcd(den, *terms.values()) == 1


def bundled(name):
    """The bundled algebra ``name``, loaded as ``--input bundled:<name>`` is."""
    algebra, _ = load_input("bundled:" + name)
    return algebra


def _generator(gid, degree):
    return {"id": gid, "degree": degree}


def _bracket(inputs, output):
    return {"arity": len(inputs), "inputs": inputs,
            "value": [{"coeff": "1/1", "monomial": [output]}]}


# A dg Lie algebra with l_1 != 0, in the input format: x, y, z in degree 0,
# s, t in degree 1, l_1 x = s, l_1 z = t, [x, y] = z and [s, y] = t.  No
# bundled input has a nonzero m_1; this one has.
DG_LIE = {"name": "dg_lie",
          "generators": [_generator("x", 0), _generator("y", 0), _generator("z", 0),
                         _generator("s", 1), _generator("t", 1)],
          "brackets": [_bracket(["x"], "s"), _bracket(["z"], "t"),
                       _bracket(["x", "y"], "z"), _bracket(["s", "y"], "t")]}


def dg_lie():
    return algebra_from_json(DG_LIE)


def odd_abelian(degrees, name="odd"):
    assert all(d % 2 for d in degrees)
    gens = [Generator("t%d" % i, d) for i, d in enumerate(degrees, 1)]
    return LInftyAlgebra(gens, {}, name=name)


def sl2_plus_l3():
    """Direct sum of sl2 and the ternary gadget (no cross brackets)."""
    e, f, h = Generator("e", 0), Generator("f", 0), Generator("h", 0)
    a, b, c = Generator("a", 1), Generator("b", 1), Generator("c", 1)
    z = Generator("z", 2)
    two = {(e, f): {h: 1}, (e, h): {e: -2}, (f, h): {f: 2}}
    three = {(a, b, c): {z: 1}}
    return LInftyAlgebra([e, f, h, a, b, c, z], {2: two, 3: three}, name="sl2+l3")


VARIABLES = ("x", "y")
COEFFS = (1, -1, 2, Fraction(1, 2), Fraction(-2, 3))


@st.composite
def complete_intersections(draw, max_degree=3):
    """A complete intersection on one or two variables with one or two
    relations of one or two terms of degree 2 to ``max_degree``, built as
    the bundled ``ci`` inputs are: valid by construction."""
    variables = VARIABLES[: draw(st.integers(1, 2))]
    monomials = st.lists(st.sampled_from(variables), min_size=2, max_size=max_degree).map(
        lambda m: tuple(sorted(m)))
    terms = st.lists(st.tuples(st.sampled_from(COEFFS), monomials), min_size=1, max_size=2,
                     unique_by=lambda term: term[1])
    relations = draw(st.lists(terms, min_size=1, max_size=2))
    return from_complete_intersection(
        list(variables), {"r%d" % i: rel for i, rel in enumerate(relations, 1)})


def trivial_module(algebra):
    return LInftyModule(algebra, [Generator("triv", 0)], name="trivial")


def bar_words_cobar(gens, rank_cap, length_cap):
    """Bar words over cobar words (the big side)."""
    pools = {r: cobar_words(gens, r) for r in range(1, rank_cap + 1)}
    return bar_words(pools, rank_cap, length_cap)


def bracket_letter_differential(transfer):
    """The letter differential t_omega of the brackets of arity >= 2, the
    one-letter component of the perturbation ``transfer.t``."""
    C2 = CECoalgebra(transfer.algebra, transfer.weight_cap, min_arity=2)
    return memo_op(bar_coderivation({1: C2.delta}))


def perturbation_parts(transfer):
    """(t_mu, t_L): the product and bracket parts of ``transfer.t``, each a
    bar coderivation, for perturbing in stages."""
    return (bar_coderivation({2: concatenation}),
            bar_coderivation({1: bracket_letter_differential(transfer)}))


def boundary(face):
    """Cellular boundary of one face: split one block into an ordered pair of
    subsets.  The sign of a split is that of the unshuffle of the block,
    every element counting as odd, times (-1)^(k + elements before it +
    number split off) for block k.  The oracle for ``FaceIndex.boundary``,
    which the engine reads on face numbers."""
    out = {}
    prefix = 0
    for k, block in enumerate(face.blocks):
        mk = len(block)
        for inside, outside, sign in unshuffles([1] * mk, range(1, mk)):
            if (prefix + k + len(inside)) % 2:
                sign = -sign
            subset = tuple(block[i] for i in inside)
            rest = tuple(block[i] for i in outside)
            new_blocks = face.blocks[:k] + (subset, rest) + face.blocks[k + 1 :]
            out[permutahedra.OrderedPartition(face.n, new_blocks)] = sign
        prefix += mk
    return Vector(out)


def face_vector(faces, vector):
    """A ``Vector`` over face numbers as a ``Vector`` over faces, with
    ``faces`` the faces by number."""
    terms, den = vector
    return Vector({faces[g]: c for g, c in terms.items()}, den)


def face_maps(con):
    """(F, G, H) of a permutahedron contraction as maps on faces, read from
    its maps on face numbers."""
    faces, index = con.faces.faces, con.faces.index
    return (lambda f: con.F(index[f]),
            lambda one: face_vector(faces, con.G(one)),
            lambda f: face_vector(faces, con.H(index[f])))


def face_column(con, face):
    """H(face) over faces, read from the stored column of ``face``, the
    integer chain of (2N^2)^2 H over face numbers, its terms in the stored
    order."""
    return face_vector(con.faces.faces, con.H(con.faces.index[face]))


def act(sigma, face):
    """Left action of a permutation of {1..n} on a face (one-line: sigma[i-1]
    is the image of i), with the plain sign of each block's image."""
    sign = 1
    new_blocks = []
    for block in face.blocks:
        image = [sigma[x - 1] for x in block]
        sign *= perm_parity(image)
        new_blocks.append(image)
    return sign, permutahedra.OrderedPartition(face.n, new_blocks)


def nu(face):
    """Block-reversal involution with its orientation sign: the sign that
    ``permutahedra.FaceIndex`` reads on face numbers, on one face."""
    sign = permutahedra._nu_sign(face.n, [len(b) for b in face.blocks])
    return sign, permutahedra.OrderedPartition(face.n, tuple(reversed(face.blocks)))


def act_vector(sigma, vec):
    """The permutation action on faces, extended linearly."""
    out = {}
    for f, c in vec.terms.items():
        s, g = act(sigma, f)
        out[g] = s * c
    return Vector(out, vec.den)


def nu_vector(vec):
    """The block-reversal involution, extended linearly."""
    out = {}
    for f, c in vec.terms.items():
        s, g = nu(f)
        out[g] = s * c
    return Vector(out, vec.den)


def finite_complex(components, differential):
    """The finite complex, after asserting that its differential squares to
    zero on every basis key."""
    keys = [key for basis in components.values() for key in basis]
    result = square_zero(keys, differential, "%r")
    assert result, result
    return FiniteComplex(components, differential)


def t_complex(T):
    """T's cube complex: the (T, J) for J a set of descents, graded by -#J.
    Building it asserts that it squares to zero."""
    components = {}
    for J in tableaux.descent_subsets(T):
        components.setdefault(-len(J), []).append((T, J))
    return finite_complex(components, lambda key: tableaux.boundary_ct(*key))


def induced_algebra_map(phi):
    """Functorial cobar map of a degree-0 chain map given on generators.

    ``phi``: maps an unsuspended generator to a Vector over target generators.
    """

    def on_letter(letter):
        return vector_product(
            [phi(g.shifted(1)) for g in letter.letters],
            lambda gens: sym_word([g.shifted(-1) for g in gens]),
        )

    def on_cobar(x):
        return vector_product(
            [on_letter(letter) for letter in x.letters], lambda ws: (1, Word(COBAR, ws))
        )

    return on_cobar


def cochain_at(module, bar):
    """The operator of an enveloping-side module on a bar word, zero where
    its cochain has none."""
    return module.cochain.get(bar, Vector({}))


def roundtrip_gf_check(module_u, arity_cap, weight_cap):
    """G(F(M)) has exactly the original cochain tables."""
    structure = module_u.structure
    back = functor_g(functor_f(module_u, weight_cap), structure,
                     arity_cap, weight_cap)
    keys = set(module_u.cochain) | set(back.cochain)
    for k in sorted(keys, key=lambda b: b.sort_key()):
        if cochain_at(module_u, k) != cochain_at(back, k):
            return CheckResult(False, k, "cochain tables differ")
    if module_u.d_m != back.d_m:
        return CheckResult(False, None, "module differentials differ")
    return CheckResult(True)
