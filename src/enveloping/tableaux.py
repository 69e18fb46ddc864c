"""Standard tableaux, descent sets, the cube complexes they span, and the
dimension bookkeeping for the tableau-indexed decomposition of the cobar
construction of a symmetric coalgebra.

Row fillings are alternated and column fillings symmetrized (the suspension
swaps the classical roles), so the relevant semistandard objects are
column-weak and row-strict.
"""

from __future__ import annotations

import itertools
import math
import operator

from .exactlin import (
    CheckResult,
    TENSOR,
    Contraction,
    Echelon,
    Generator,
    Vector,
    Word,
    agree,
    antisymmetric_sign,
    axpy,
    consecutive_blocks,
    exact_apply,
    exact_sum,
    over_q,
    perm_parity,
    square_zero,
)
from .words import cobar_words, desuspended_word, desuspension_sign


def partitions(n):
    """Partitions of n in decreasing-part form, deterministic order."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


class StandardTableau:
    """A standard filling: rows of values, increasing along rows and columns."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        self.rows = tuple(tuple(r) for r in rows)
        self._hash = hash(self.rows)

    @property
    def shape(self):
        return tuple(len(r) for r in self.rows)

    @property
    def n(self):
        return sum(len(r) for r in self.rows)

    def cell_of(self, value):
        for i, row in enumerate(self.rows):
            for j, v in enumerate(row):
                if v == value:
                    return i, j
        raise KeyError(value)

    def sort_key(self):
        return self.rows

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, StandardTableau) and self.rows == other.rows

    def __repr__(self):
        return "/".join("".join(str(v) for v in row) for row in self.rows)

    def serialize(self):
        return [list(r) for r in self.rows]


def fillings(shape, alphabet, row_ok, col_ok):
    """Fillings of a Young diagram from ``alphabet``, cell by cell in
    row-major order: a value v goes next to a left neighbour a only if
    row_ok(a, v), and below an upper neighbour b only if col_ok(b, v).
    Yields the rows of each filling, in the order of the alphabet."""
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    return _fill(cells, [[None] * r for r in shape], 0, alphabet, row_ok, col_ok)


def _fill(cells, grid, pos, alphabet, row_ok, col_ok):
    """The fillings of ``fillings`` that complete ``grid``, filled before
    cell number ``pos``."""
    if pos == len(cells):
        yield tuple(map(tuple, grid))
        return
    i, j = cells[pos]
    for v in alphabet:
        if (j == 0 or row_ok(grid[i][j - 1], v)) and (i == 0 or col_ok(grid[i - 1][j], v)):
            grid[i][j] = v
            yield from _fill(cells, grid, pos + 1, alphabet, row_ok, col_ok)


def _surjective(rows, size):
    return len({v for row in rows for v in row}) == size


def standard_tableaux(shape):
    """All standard tableaux of the given partition shape, in ``sort_key``
    order."""
    shape = tuple(shape)
    if list(shape) != sorted(shape, reverse=True):
        raise ValueError("shape must be a partition")
    n = sum(shape)
    return [StandardTableau(rows)
            for rows in fillings(shape, range(1, n + 1), operator.lt, operator.lt)
            if _surjective(rows, n)]


def tableaux_of_size(n):
    """Every standard tableau with n cells, shape by shape."""
    return [T for shape in partitions(n) for T in standard_tableaux(shape)]


def descents(T):
    """Values whose cell sits strictly above the next value's cell."""
    out = set()
    for i in range(1, T.n):
        ri, _ = T.cell_of(i)
        rj, _ = T.cell_of(i + 1)
        if ri < rj:
            out.add(i)
    return frozenset(out)


def zeta_map(n, subset):
    """The weakly increasing surjection with plateaus exactly on the subset."""
    values = [1]
    for i in range(1, n):
        values.append(values[-1] + (0 if i in subset else 1))
    return tuple(values)


def column_tableau(T, subset):
    """The column-semistandard filling obtained by merging along descents."""
    zeta = zeta_map(T.n, subset)
    return tuple(tuple(zeta[v - 1] for v in row) for row in T.rows)


def column_semistandard_fillings(shape, values):
    """Surjective fillings weakly increasing in columns, strict in rows."""
    rows_of = fillings(tuple(shape), range(1, values + 1), operator.lt, operator.le)
    return [rows for rows in rows_of if _surjective(rows, values)]


def x_set_size(J, j):
    """#{i < j not in J}: the sign exponent of the cube differential."""
    return sum(1 for i in range(1, j) if i not in J)


def boundary_ct(T, J):
    """The cube-complex differential on the basis element (T, J)."""
    JT = descents(T)
    if not frozenset(J) <= JT:
        raise ValueError("J must consist of descents of T")
    out = {}
    for j in sorted(J):
        out[(T, frozenset(J) - {j})] = -1 if x_set_size(J, j) % 2 else 1
    return Vector(out)


def h_ct(T, J):
    """The normalized contracting homotopy of the cube complex."""
    JT = descents(T)
    J = frozenset(J)
    out = {}
    for j in sorted(JT - J):
        out[(T, J | {j})] = -1 if x_set_size(J, j) % 2 else 1
    return exact_sum([(out, 1, len(JT))])


def descent_subsets(T):
    """The subsets J of the descents of T, by size, then lexicographically:
    the basis (T, J) of T's cube complex, graded by -#J."""
    JT = sorted(descents(T))
    return [frozenset(c) for size in range(len(JT) + 1)
            for c in itertools.combinations(JT, size)]


def t_complex_contraction_check(T):
    """T's cube complex squares to zero and contracts by ``h_ct`` onto k,
    whose one basis element is (), when T has no descents, and onto 0
    otherwise: f and g are nonzero only on a descent-free T."""
    faces = [(T, J) for J in descent_subsets(T)]
    result = square_zero(faces, lambda k: boundary_ct(*k), "cube differential squares to %r")
    if not result:
        return result
    small = [()] if len(faces) == 1 else []  # one face: no descents
    con = Contraction(lambda _: Vector({(): 1} if small else {}),
                      lambda _: Vector({faces[0]: 1}), lambda k: h_ct(*k),
                      lambda k: boundary_ct(*k), lambda _: Vector({}))
    return con.verify_on(faces, small)


# ---------------------------------------------------------------------------
# Schur complexes: the row-alternating, column-symmetrizing idempotent


def _value_permutations(groups, n):
    """Permutations of {1..n} preserving each listed group of values."""
    perms = []
    for parts in itertools.product(*[itertools.permutations(g) for g in groups]):
        sigma = list(range(1, n + 1))
        for orig, image in zip(groups, parts):
            for a, b in zip(orig, image):
                sigma[a - 1] = b
        perms.append(tuple(sigma))
    return perms


def row_groups(T):
    return [tuple(sorted(r)) for r in T.rows if len(r) > 1]


def col_groups(T):
    cols = {}
    for i, row in enumerate(T.rows):
        for j, v in enumerate(row):
            cols.setdefault(j, []).append(v)
    return [tuple(sorted(c)) for c in cols.values() if len(c) > 1]


def right_act(word, sigma):
    """Right action of a value permutation on a tensor word.

    This is the graded permutation action conjugated by the suspension power:
    the plain Koszul action twisted by the sign character.  The combinatorics
    lives on the suspension, where cobar letters are symmetric words.
    """
    letters = word.letters
    perm = tuple(sigma[k] - 1 for k in range(len(letters)))
    sign = antisymmetric_sign(perm, [g.degree for g in letters])
    return Vector({Word(TENSOR, (letters[i] for i in perm)): sign})


def young_idempotent(T, word):
    """c_T r_T^- acting on the right of a tensor word (up to scalar)."""
    out = {}
    n = T.n
    rows = row_groups(T)
    cols = col_groups(T)
    for rho in _value_permutations(rows, n):
        rho_sign = perm_parity(tuple(rho[k] - 1 for k in range(n)))
        for w, c in right_act(word, rho).terms.items():
            for tau in _value_permutations(cols, n):
                axpy(out, right_act(w, tau).terms, c * rho_sign)
    return Vector(out)


def schur_dimension_count(T, even_dim, odd_dim):
    """Fillings count at suspended parity.

    Even letters repeat along rows but not columns; odd letters the reverse
    (their suspensions flip parity, swapping the two constraints).
    """
    letters = [(k, 0) for k in range(even_dim)] + [(k, 1) for k in range(odd_dim)]

    def row_ok(prev, letter):
        return prev < letter or (prev == letter and letter[1] == 0)

    def col_ok(up, letter):
        return up < letter or (up == letter and letter[1] == 1)

    return sum(1 for _ in fillings(T.shape, letters, row_ok, col_ok))


# ---------------------------------------------------------------------------
# the decomposition profile and the explicit embedding


def cobar_rank_profile(gens, n):
    """Dimensions of the rank-n part of the cobar construction by length."""
    profile = {}
    for x in cobar_words(tuple(g.shifted(-1) for g in gens), n):
        profile[x.length] = profile.get(x.length, 0) + 1
    return profile


def tableau_profile(n, even_dim, odd_dim):
    """The tableau-side dimension count, by cobar length n - p."""
    profile = {}
    for T in tableaux_of_size(n):
        dim = schur_dimension_count(T, even_dim, odd_dim)
        if dim == 0:
            continue
        JT = descents(T)
        for p in range(len(JT) + 1):
            profile[n - p] = profile.get(n - p, 0) + math.comb(len(JT), p) * dim
    return profile


def generators(even_dim, odd_dim):
    """Generators x0, x1, ... of degree 0, then y0, y1, ... of degree 1."""
    return [Generator("x%d" % i, 0) for i in range(even_dim)] + [
        Generator("y%d" % i, 1) for i in range(odd_dim)
    ]


def decomposition_dims(n, even_dim, odd_dim):
    """Compare both sides of the decomposition, length by length."""
    cobar = cobar_rank_profile(generators(even_dim, odd_dim), n)
    tabs = tableau_profile(n, even_dim, odd_dim)
    ok = cobar == tabs
    return CheckResult(ok, None if ok else (cobar, tabs)), cobar, tabs


def content_sizes(T, J):
    """Multiplicities of the merged filling values, in value order."""
    zeta = zeta_map(T.n, frozenset(J))
    sizes = {}
    for v in zeta:
        sizes[v] = sizes.get(v, 0) + 1
    return tuple(sizes[v] for v in sorted(sizes))


def pi_map(word, sizes):
    """Split positions into blocks, symmetrize and desuspend each."""
    blocks = consecutive_blocks(word.letters, sizes)
    sign, cobar = desuspended_word(blocks)
    sign *= desuspension_sign([[g.degree for g in b] for b in blocks])
    return Vector({cobar: sign} if cobar is not None else {})


def young_average(word, sizes):
    """Average of the value-block symmetric group, acting on the right."""
    n = sum(sizes)
    groups = consecutive_blocks(range(1, n + 1), sizes)
    perms = _value_permutations([g for g in groups if len(g) > 1], n)
    return exact_sum((right_act(word, sigma).terms, 1, len(perms)) for sigma in perms)


def young_averaged(T, u_vector):
    """The Young average of u on the blocks of the descents of T.  It does
    not depend on J."""
    sizes_JT = content_sizes(T, descents(T))
    return exact_apply(u_vector, lambda w: young_average(w, sizes_JT))


def embedding(T, J, averaged):
    """The tableau-indexed embedding into the cobar construction, on u given
    by ``young_averaged(T, u)``:
    e(T, J)(u) = eps(J) / prod m! * sum of pi_J over the Young average of u
    on the blocks of the descents of T, where m runs over the block sizes of
    J and eps(J) = (-1)^(sum of j - 1 over J).

    eps(J) makes e a chain map from T's cube complex.  pi_J cuts the
    positions 1..n into blocks at each i not in J.  The cobar differential
    splits one letter, of m positions, into a and m - a; on the average, a
    graded-symmetric on each block, all C(m, a) unshuffles equal the cut
    after the a-th position, j say (the letter sort signs cancel the
    unshuffle signs), and C(m, a) / m! is the normalization of J - {j}.
    That cut carries the sign COPRODUCT_SIGN = -1, (-1)^(|c| + 1) for each
    earlier letter c and (-1)^|A| for its first part A; the ratio of the
    desuspension signs of J - {j} and J is (-1)^(D + D_A), with D and D_A
    the generator degrees before the letter and in A.  A letter of m'
    generators of total degree D' has |c| + 1 = D' - m' + 1 and |A| = D_A - a,
    so the degrees cancel.  For the r-th letter what is left is
    (-1)^(1 + (r - 1) + j), as the m' of the earlier letters and a add up to
    j.  The r - 1 earlier cuts are the i < j not in J, so that is
    (-1)^(x_set_size(J, j) + j - 1): the cube differential's sign times
    (-1)^(j - 1), which eps(J) = eps(J - {j}) (-1)^(j - 1) absorbs.
    """
    J = frozenset(J)
    sizes_J = content_sizes(T, J)
    sign = -1 if sum(j - 1 for j in J) % 2 else 1
    terms, den = exact_apply(averaged, lambda w: pi_map(w, sizes_J))
    return exact_sum([(terms, sign, den * math.prod(math.factorial(m) for m in sizes_J))])


def schur_basis(T, gens):
    """A basis of idempotent images, as vectors over tensor words."""
    ech = Echelon()
    basis = []
    for letters in itertools.product(sorted(gens), repeat=T.n):
        v = young_idempotent(T, Word(TENSOR, letters))
        fresh, _ = ech.insert(over_q(v))
        if fresh:
            basis.append(v)
    return basis


def embedding_images(n, gens):
    """T -> J -> [e(T, J)(u) for u in a Schur basis of T], over the standard
    tableaux T of size n and the sets J of descents of T: each image once,
    for both embedding checks."""
    images = {}
    for T in tableaux_of_size(n):
        averaged = [young_averaged(T, u) for u in schur_basis(T, gens)]
        images[T] = {
            J: [embedding(T, J, u) for u in averaged] for J in descent_subsets(T)
        }
    return images


def embedding_rank_check(n, gens, images):
    """All embedded vectors together span the full rank-n cobar piece;
    ``images`` is ``embedding_images(n, gens)``."""
    total = 0
    ech = Echelon()
    for T, by_face in images.items():
        for J, face_images in by_face.items():
            for img in face_images:
                if not img:
                    return CheckResult(False, (T, J), "embedding vanishes")
                fresh, _ = ech.insert(over_q(img))
                if fresh:
                    total += 1
    expected = len(cobar_words(tuple(g.shifted(-1) for g in gens), n))
    ok = total == expected and ech.rank == expected
    return CheckResult(ok, None if ok else (total, ech.rank, expected))


def embedding_chain_check(images, delta_omega):
    """delta_omega e(T, J) = e(d(T, J)) on every face and Schur basis vector;
    ``images`` is ``embedding_images(n, gens)``.  The faces of d(T, J) are
    faces (T, J') of the same T."""
    def lhs(face):
        T, J = face
        return [exact_apply(image, delta_omega) for image in images[T][J]]

    def rhs(face):
        T, J = face
        boundary = boundary_ct(T, J).terms
        return [exact_sum((images[T][J2][i].terms, c, images[T][J2][i].den)
                          for (_, J2), c in boundary.items())
                for i in range(len(images[T][J]))]

    faces = [(T, J) for T, by_face in images.items() for J in by_face]
    return agree(faces, lhs, rhs, "chain map fails")
