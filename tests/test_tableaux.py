"""Tableau combinatorics: standard enumeration, descent merging, the cube
complexes and their homotopies, Schur dimensions and the decomposition."""

import itertools

import pytest

from enveloping.exactlin import Generator, Vector
from enveloping.hpt import cobar_differential
from enveloping.linfty import CECoalgebra, dg_vector_space
from enveloping.tableaux import (
    StandardTableau,
    boundary_ct,
    column_semistandard_fillings,
    column_tableau,
    decomposition_dims,
    descents,
    embedding_chain_check,
    embedding_rank_check,
    h_ct,
    hook_length_count,
    partitions,
    schur_dimension_count,
    schur_rank,
    standard_tableaux,
    t_complex,
    t_complex_contraction_check,
    x_set_size,
    zeta_map,
)


def test_partitions():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


@pytest.mark.parametrize(
    "shape,count", [((3,), 1), ((2, 1), 2), ((2, 2), 2), ((3, 2), 5), ((4,), 1)]
)
def test_standard_tableaux_counts(shape, count):
    tabs = standard_tableaux(shape)
    assert len(tabs) == count
    assert hook_length_count(shape) == count
    for T in tabs:
        values = sorted(v for row in T.rows for v in row)
        assert values == list(range(1, T.n + 1))
        for row in T.rows:
            assert list(row) == sorted(row)
        for j in range(len(T.rows[0])):
            col = [row[j] for row in T.rows if j < len(row)]
            assert col == sorted(col)


def test_descents():
    row = standard_tableaux((3,))[0]
    assert descents(row) == frozenset()
    column = standard_tableaux((1, 1, 1))[0]
    assert descents(column) == frozenset({1, 2})
    T = StandardTableau(((1, 2), (3,)))
    assert descents(T) == frozenset({2})


def test_zeta_and_column_tableau():
    assert zeta_map(4, frozenset({2})) == (1, 2, 2, 3)
    T = StandardTableau(((1, 2), (3,)))
    assert column_tableau(T, frozenset({2})) == ((1, 2), (2,))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_merge_bijection(n):
    # (T, J subset of descents) <-> column-semistandard surjections
    for shape in partitions(n):
        merged = {}
        for T in standard_tableaux(shape):
            JT = descents(T)
            for size in range(len(JT) + 1):
                for combo in itertools.combinations(sorted(JT), size):
                    key = column_tableau(T, frozenset(combo))
                    merged[key] = merged.get(key, 0) + 1
        direct = []
        for values in range(1, n + 1):
            direct.extend(column_semistandard_fillings(shape, values))
        assert sorted(merged) == sorted(direct)
        assert all(v == 1 for v in merged.values())


def test_x_set_and_frozen_boundary():
    # X(J, j) counts earlier non-descent slots; on the full descent set of
    # the three-cell column both removals come with a plus sign
    assert x_set_size(frozenset({1, 2}), 1) == 0
    assert x_set_size(frozenset({1, 2}), 2) == 0
    assert x_set_size(frozenset({2}), 2) == 1
    T = standard_tableaux((1, 1, 1))[0]
    b = boundary_ct(T, frozenset({1, 2}))
    assert b == Vector(
        {(T, frozenset({2})): 1, (T, frozenset({1})): 1}
    )
    assert boundary_ct(T, frozenset()).is_zero()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cube_complex_squares_to_zero_and_homology(n):
    for shape in partitions(n):
        for T in standard_tableaux(shape):
            cx = t_complex(T)  # construction checks the square
            dims = cx.homology_dims()
            if descents(T):
                assert dims == {}, (T, dims)
            else:
                assert dims == {0: 1}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cube_homotopy_identities(n):
    for shape in partitions(n):
        for T in standard_tableaux(shape):
            assert t_complex_contraction_check(T), T


def test_homotopy_explicit_two_cell():
    T = standard_tableaux((1, 1))[0]
    assert h_ct(T, frozenset()) == Vector({(T, frozenset({1})): 1})
    assert h_ct(T, frozenset({1})).is_zero()


def test_schur_dimensions_match_rank():
    for shape in ((1,), (2,), (1, 1), (2, 1), (3,), (2, 2)):
        for even, odd in ((1, 0), (2, 0), (1, 1), (0, 2), (3, 0)):
            for T in standard_tableaux(shape):
                gens = [Generator("x%d" % i, 0) for i in range(even)] + [
                    Generator("y%d" % i, 1) for i in range(odd)
                ]
                assert schur_dimension_count(T, even, odd) == schur_rank(
                    T, gens
                ), (shape, even, odd)


def test_schur_single_cell_is_the_space():
    T = standard_tableaux((1,))[0]
    assert schur_dimension_count(T, 3, 2) == 5


@pytest.mark.parametrize("dims", [(2, 0), (1, 1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_decomposition_profile(n, dims):
    res, cobar, tabs = decomposition_dims(n, *dims)
    assert res, (cobar, tabs)


@pytest.mark.parametrize("dims", [(2, 0), (1, 1)])
def test_embedding_spans_and_chain_property(dims):
    even, odd = dims
    gens = [Generator("x%d" % i, 0) for i in range(even)] + [
        Generator("y%d" % i, 1) for i in range(odd)
    ]
    V = dg_vector_space([(g.id, g.degree, {}) for g in gens])
    C1 = CECoalgebra(V, 8, max_arity=1)
    dOm = cobar_differential(C1)
    for n in (1, 2, 3):
        assert embedding_rank_check(n, gens), n
        result, signs = embedding_chain_check(n, gens, dOm)
        assert result, (n, result)
