import gc
import itertools
import math
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enveloping.exactlin import (
    BAR,
    COBAR,
    SYMMETRIC,
    TENSOR,
    Echelon,
    Generator,
    Vector,
    Word,
    _generic_key,
    antisymmetric_sign,
    axpy,
    exact_apply,
    exact_sum,
    format_scalar,
    koszul_sign,
    memo_method,
    memo_op,
    memo_recursion,
    over_q,
    parse_scalar,
    rank_of,
    rationals,
    square_zero,
    sym_word,
    symmetrize,
)

from enveloping.linfty import CECoalgebra

from conftest import assert_reduced, bundled, finite_complex, fractions_of, scaled

a0 = Generator("a", 0)
b0 = Generator("b", 0)
v1 = Generator("v", 1)
w1 = Generator("w", 1)
u2 = Generator("u", 2)


def test_scalar_roundtrip():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == Fraction(-2)
    assert format_scalar(Fraction(6, 4)) == "3/2"
    assert format_scalar(5) == "5/1"
    # n / den, each reduced on its own
    assert format_scalar(6, 4) == "3/2"
    assert format_scalar(-4, 6) == "-2/3"
    assert format_scalar(0, 7) == "0/1"
    assert rationals(Vector({"a": 2, "b": -3}, 4)) == {"a": "1/2", "b": "-3/4"}


def test_koszul_sign_basics():
    assert koszul_sign((0, 1, 2), [1, 5, 7]) == 1
    assert koszul_sign((1, 0), [1, 1]) == -1
    assert koszul_sign((1, 0), [1, 2]) == 1
    with pytest.raises(ValueError):
        koszul_sign((0,), [1, 2])
    # graded antisymmetry: the Koszul sign times the plain sign
    assert antisymmetric_sign((1, 0), [0, 0]) == -1
    assert antisymmetric_sign((1, 0), [1, 1]) == 1
    assert antisymmetric_sign((2, 0, 1), [1, 0, 1]) == -1


def test_koszul_sign_is_a_cocycle():
    rng = random.Random(0)
    perms = list(itertools.permutations(range(3)))
    for _ in range(10):
        degs = [rng.randrange(-2, 4) for _ in range(3)]
        for sigma in perms:
            for tau in perms:
                # applying tau then sigma composes to tau o sigma in the
                # rearrangement-listing convention
                composite = tuple(tau[sigma[k]] for k in range(3))
                lhs = koszul_sign(composite, degs)
                rhs = koszul_sign(sigma, [degs[tau[k]] for k in range(3)]) * koszul_sign(
                    tau, degs
                )
                assert lhs == rhs


def test_sym_word_canonicalization():
    sign, w = sym_word([b0, a0])
    assert sign == 1 and [g.id for g in w.letters] == ["a", "b"]
    sign, w = sym_word([w1, v1])
    assert sign == -1 and [g.id for g in w.letters] == ["v", "w"]
    sign, w = sym_word([v1, v1])
    assert w is None
    sign, w = sym_word([u2, u2])
    assert w is not None and sign == 1


def test_word_kinds():
    a, b, c = Generator("a", 0), Generator("b", 1), Generator("c", 2)
    x_a, x_b, x_bc = (Word(SYMMETRIC, letters) for letters in ((a,), (b,), (b, c)))
    tensor, symmetric = Word(TENSOR, (a, b)), Word(SYMMETRIC, (a, b))
    cobar = Word(COBAR, (x_a, x_bc))
    bar = Word(BAR, (Word(COBAR, (x_a,)), Word(COBAR, (x_b,))))
    # a cobar letter adds 1 to the degree of its word, a bar letter takes 1
    assert [(w.degree, w.rank) for w in (tensor, symmetric, cobar, bar)] == [
        (1, 2), (1, 2), (1 + 4, 3), (0 + 1, 2)]
    assert [repr(w) for w in (symmetric, tensor, cobar, bar)] == [
        "(a*b)", "(a#b)", "<a|b*c>", "[<a> ; <b>]"]
    assert cobar.serialize() == [["a"], ["b", "c"]]
    assert Word(COBAR, cobar.letters) == cobar
    assert Word(BAR, cobar.letters) != cobar
    # one object per (kind, letters)
    assert Word(COBAR, cobar.letters) is cobar
    assert Word(BAR, cobar.letters) is not cobar
    assert sym_word([c, b])[1] is sym_word([b, c])[1] is x_bc


def test_intern_table_keeps_no_dead_word():
    z = Generator("zz_unique", 0)
    word = Word(TENSOR, (z, z))
    assert (TENSOR, (z, z)) in Word._table
    del word
    gc.collect()
    assert not any(z in letters for _, letters in list(Word._table.keys()))


def test_vector_arithmetic():
    _, w = sym_word([a0])
    _, w2 = sym_word([b0])
    v = Vector({w: 2, w2: -1})
    terms, den = v
    assert (terms, den) == ({w: 2, w2: -1}, 1) and v.terms[w] == 2
    assert v and not Vector({}) and Vector({}) == Vector({}, 1)
    # sums and multiples are exact_sum's reduced pairs
    assert not exact_sum([(v.terms, 1, 1), (v.terms, -1, 1)])
    half = exact_sum([(v.terms, 1, 2)])
    assert half == Vector({w: 2, w2: -1}, 2) == scaled(v, Fraction(1, 2))
    assert half != Vector({w: 4, w2: -2}, 4)
    assert exact_sum([(half.terms, 1, half.den), ({w2: 1}, 1, 2)]) == Vector({w: 1})
    assert fractions_of(half) == {w: 1, w2: Fraction(-1, 2)}
    # printed as the Fraction coefficients, by key
    assert repr(half) == "1 (a) + -1/2 (b)" and repr(Vector({})) == "0"
    # a tuple's + and * would concatenate and repeat: a vector refuses both
    for op in (lambda: v + v, lambda: v * 2, lambda: 2 * v, lambda: v - v, lambda: -v):
        with pytest.raises(TypeError):
            op()


def test_axpy():
    # integer chains stay integer, and a cancelled key is deleted
    terms = {"a": 2, "b": 3}
    axpy(terms, {"a": -1, "c": 5}, 2)
    assert terms == {"b": 3, "c": 10}
    assert all(type(c) is int for c in terms.values())
    axpy(terms, {"b": -3})
    assert terms == {"c": 10}
    # Fractions stay Fractions, also where a sum is a whole number: the
    # terms of row reduction over Q, whatever the factor
    terms = {"a": Fraction(1, 2)}
    axpy(terms, {"a": Fraction(1, 2), "b": Fraction(1, 3)}, 3)
    assert terms == {"a": 2, "b": 1}
    assert all(type(c) is Fraction for c in terms.values())
    for coeff in (1, -1, 3, Fraction(1, 2)):
        terms = over_q(Vector({"a": 1}, 2))
        axpy(terms, over_q(Vector({"a": 1, "b": 1})), coeff)
        assert all(type(c) is Fraction for c in terms.values()), coeff
        axpy(terms, dict(terms), -1)
        assert not terms


def test_a_memo_is_not_memoized_again():
    # a map with a memo, such as a perturbation series, is returned as it is
    calls = []
    square = memo_op(lambda x: calls.append(x) or x * x)
    assert memo_op(square) is square
    assert square(3) == square(3) == 9
    assert calls == [3] and square.memo == {3: 9}


class Squares:
    """An owner of one memoized method, which records its misses."""

    def __init__(self):
        self.calls = []

    @memo_method
    def square(self, x):
        self.calls.append(x)
        return x * x


def test_two_owners_never_share_a_memo():
    a, b = Squares(), Squares()
    assert a.square(3) == a.square(3) == b.square(3) == 9
    assert a.calls == b.calls == [3]
    # each read is a new map over the one memo of its owner
    assert a.square is not a.square
    assert a.square.memo is a.square.memo == {3: 9}
    assert a.square.memo is not b.square.memo
    assert memo_op(a.square).memo is a.square.memo
    # the unmemoized method, read on the class
    assert Squares.square.fn(a, 4) == 16 and a.calls == [3, 4]
    assert a.square.memo == {3: 9}


def test_a_map_keeps_working_after_its_owner_is_dropped():
    # a map taken from a local owner, as the perturbation takes a
    # coalgebra's delta, holds the owner for as long as it lives
    square = Squares().square
    assert square(5) == square(5) == 25 and square.memo == {5: 25}
    owner = Squares()
    square = owner.square
    ref = weakref.ref(owner)
    del owner
    assert square(6) == 36 and ref().calls == [6]
    # the coalgebra's own case: the higher brackets' delta of sl2
    sl2 = bundled("sl2")
    delta = CECoalgebra(sl2, 3, min_arity=2).delta
    fresh = CECoalgebra(sl2, 3, min_arity=2)
    assert all(delta(w) == fresh.delta(w) for w in fresh.all_words())


def test_an_owner_and_its_memo_die_by_reference_counting():
    enabled = gc.isenabled()
    gc.disable()
    try:
        owner = Squares()
        owner.square(2)
        square = owner.square
        ref = weakref.ref(owner)
        del owner
        assert ref() is not None  # the map holds its owner
        del square
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_a_memo_recursion_reads_its_own_memo():
    # X(n) = X(n - 1) + X(n - 2) from its own memo: each value computed once
    calls = []

    def step(n, X):
        calls.append(n)
        return n if n < 2 else X(n - 1) + X(n - 2)

    X = memo_recursion(step)
    assert X(30) == 832040 and X(30) == 832040
    assert sorted(calls) == list(range(31))
    assert X.memo[30] == 832040 and memo_op(X) is X


def test_symmetrize_is_projector():
    word = Word(TENSOR, [a0, b0])
    sym = symmetrize(word)
    assert sym == Vector({Word(TENSOR, [a0, b0]): 1, Word(TENSOR, [b0, a0]): 1}, 2)
    again = exact_apply(sym, symmetrize)
    assert again == sym
    assert not symmetrize(Word(TENSOR, [v1, v1]))
    assert symmetrize(Word(TENSOR, [a0])) == Vector({Word(TENSOR, [a0]): 1})


KEYS = "abcd"
# parts of exact_sum: (integer term dict, integer a, positive b), with zero
# and negative a, and empty term dicts
PARTS = st.lists(st.tuples(
    st.dictionaries(st.sampled_from(KEYS), st.integers(-12, 12).filter(bool), max_size=4),
    st.integers(-6, 6), st.integers(1, 12)), max_size=5)


@given(PARTS, st.randoms(use_true_random=False))
def test_exact_sum_gives_the_reduced_pair(parts, rng):
    # == on vectors is every checker's equality: exact_sum must give one
    # pair per rational vector
    terms, den = got = exact_sum(parts)
    assert_reduced(got)
    assert den >= 1 and 0 not in terms.values()
    assert math.gcd(den, *terms.values()) == 1
    expected = {}
    for part, a, b in parts:
        for w, c in part.items():
            expected[w] = expected.get(w, 0) + Fraction(a * c, b)
    assert fractions_of(got) == {w: q for w, q in expected.items() if q}
    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert exact_sum(shuffled) == got


def test_exact_apply_agrees_with_vector_apply():
    # against the linear extension in Fractions, term by term and in order
    a, b, c = (Word(TENSOR, [g]) for g in (a0, b0, v1))
    images = {a: Vector({b: 1, c: -1}, 2), b: Vector({c: 2}, 3), c: Vector({})}
    op = images.__getitem__
    # the last vector's c terms cancel: a and b send 2c/5 and -2c/5
    for v in [Vector({}), Vector({a: 1}), Vector({a: 2, b: 3}, 7), Vector({c: 5}),
              Vector({a: 4, b: 3}, 5)]:
        got = exact_apply(v, op)
        assert_reduced(got)
        expected = {}
        for w, q in fractions_of(v).items():
            for w2, q2 in fractions_of(op(w)).items():
                expected[w2] = expected.get(w2, 0) + q * q2
        assert list(fractions_of(got).items()) == [
            (w, q) for w, q in expected.items() if q], v
    assert exact_apply(Vector({a: 4, b: 3}, 5), op) == Vector({b: 2}, 5)


def _dense_rank(vectors):
    basis = sorted({w for v in vectors for w in v.terms}, key=lambda w: repr(w))
    idx = {w: i for i, w in enumerate(basis)}
    rows = [[Fraction(0)] * len(basis) for _ in vectors]
    for r, v in enumerate(vectors):
        for w, c in fractions_of(v).items():
            rows[r][idx[w]] = c
    rank = 0
    col = 0
    while col < len(basis) and rank < len(rows):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        lead = rows[rank][col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def _random_known_complex(rng, max_dim=6):
    """Complex built from matched pairs and singletons, then shuffled."""
    degrees = [-1, 0, 1]
    pairs = {p: rng.randrange(0, 3) for p in degrees[:-1]}
    singles = {p: rng.randrange(0, 3) for p in degrees}
    basis = {p: [] for p in degrees}
    d_cols = {}
    for p in degrees:
        for i in range(singles[p]):
            g = Word(TENSOR, [Generator("s%d_%d" % (p, i), p)])
            basis[p].append(g)
    for p, count in pairs.items():
        for i in range(count):
            x = Word(TENSOR, [Generator("x%d_%d" % (p, i), p)])
            y = Word(TENSOR, [Generator("y%d_%d" % (p, i), p + 1)])
            basis[p].append(x)
            basis[p + 1].append(y)
            d_cols[x] = Vector({y: 1})
    # mix the basis by a random invertible upper-triangular change per degree
    def differential(word):
        return d_cols.get(word, Vector({}))

    return basis, differential, singles


def test_homology_dims_matches_construction_and_dense_oracle():
    rng = random.Random(7)
    for _ in range(15):
        basis, differential, singles = _random_known_complex(rng)
        cx = finite_complex(basis, differential)
        dims = cx.homology_dims()
        expected = {p: n for p, n in singles.items() if n}
        assert dims == expected
        for p in cx.degrees():
            sparse = rank_of([differential(w) for w in cx.basis(p)])
            dense = _dense_rank([differential(w) for w in cx.basis(p)])
            assert sparse == dense


def test_complex_rejects_bad_differential():
    x = Word(TENSOR, [Generator("x", 0)])
    y = Word(TENSOR, [Generator("y", 1)])
    z = Word(TENSOR, [Generator("z", 2)])
    cols = {x: Vector({y: 1}), y: Vector({z: 1})}

    def d(word):
        return cols.get(word, Vector({}))

    result = square_zero([x, y, z], d, "%r")
    assert not result and result.counterexample == x


def test_echelon_combination_tracking():
    x = Word(TENSOR, [a0])
    y = Word(TENSOR, [b0])
    ech = Echelon()
    ech.insert(over_q(Vector({x: 1, y: 1})), {"t1": Fraction(1)})
    ech.insert(over_q(Vector({y: 2})), {"t2": Fraction(1)})
    vec = over_q(Vector({x: 1, y: 3}))
    residual, combo = ech.reduce(vec)
    assert not residual
    # vec = 1*(x+y) + 1*(2y); reduce() reports tags negatively
    assert combo == {"t1": -1, "t2": -1}


def _minus(terms, other, factor):
    """terms - factor * other, a new term dict."""
    out = dict(terms)
    axpy(out, other, -factor)
    return out


def reference_reduce(ech, vec, combo=None):
    """Echelon.reduce before it eliminated in place: rescan at every step."""
    combo = dict(combo or {})
    while vec:
        hits = [w for w in vec if _generic_key(w) in ech.pivots]
        if not hits:
            break
        lead = min(hits, key=_generic_key)
        _, pvec, pcombo = ech.pivots[_generic_key(lead)]
        factor = vec[lead] / pvec[lead]
        vec = _minus(vec, pvec, factor)
        combo = _minus(combo, pcombo, factor)
    return vec, combo


@pytest.mark.parametrize("seed", range(6))
def test_echelon_reduce_matches_reference(seed):
    rng = random.Random(seed)
    letters = [a0, b0, v1, w1]
    words = [Word(TENSOR, ls) for k in (1, 2)
             for ls in itertools.product(letters, repeat=k)]

    def random_vector(size):
        return {w: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                for w in rng.sample(words, size)}

    ech = Echelon()
    for step in range(30):
        vec = random_vector(rng.randint(1, 8))
        combo = {"t%d" % step: Fraction(1)} if step % 3 else None
        got = ech.reduce(vec, combo)
        want = reference_reduce(ech, vec, combo)
        for g, w in zip(got, want):
            assert list(g.items()) == list(w.items())
        if step % 2:
            ech.insert(vec, combo)
    assert ech.rank > 5


def test_integer_echelon_stays_integer():
    # integer input over numbered keys: integer pivots, residuals and combos
    ech = Echelon()
    ech.insert({0: 1, 2: -1}, {"t1": 6})
    ech.insert({1: -1, 2: 1}, {"t2": 6})
    residual, combo = ech.reduce({0: 3, 1: 2, 3: 5})
    assert list(residual.items()) == [(3, 5), (2, 5)]
    assert list(combo.items()) == [("t1", -18), ("t2", 12)]
    for v in (residual, combo, *(p for _, p, _ in ech.pivots.values())):
        assert all(type(c) is int for c in v.values())


def test_integer_echelon_rejects_a_pivot_that_does_not_divide():
    ech = Echelon()
    ech.insert({0: 2, 1: 1})
    with pytest.raises(RuntimeError, match="does not divide"):
        ech.reduce({0: 3})
    # an exact multiple reduces
    residual, _ = ech.reduce({0: 4})
    assert list(residual.items()) == [(1, -2)]
    # over Q, through over_q, it reduces all the same
    ech = Echelon()
    ech.insert(over_q(Vector({0: 2, 1: 1})))
    residual, _ = ech.reduce(over_q(Vector({0: 3})))
    assert residual == {1: Fraction(-3, 2)}
