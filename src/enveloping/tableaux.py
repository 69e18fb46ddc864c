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
from fractions import Fraction

from .exactlin import (
    CheckResult,
    Echelon,
    FiniteComplex,
    Generator,
    Vector,
    antisymmetric_sign,
    perm_parity,
    tensor_word,
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


def standard_tableaux(shape):
    """All standard tableaux of the given partition shape."""
    shape = tuple(shape)
    if list(shape) != sorted(shape, reverse=True):
        raise ValueError("shape must be a partition")
    n = sum(shape)
    out = []

    def rec(filled, heights):
        value = sum(heights) + 1
        if value > n:
            out.append(StandardTableau(
                tuple(tuple(filled[i][: shape[i]]) for i in range(len(shape)))
            ))
            return
        for i in range(len(shape)):
            j = heights[i]
            if j >= shape[i]:
                continue
            if i > 0 and heights[i - 1] <= j:
                continue
            filled[i][j] = value
            heights[i] += 1
            rec(filled, heights)
            heights[i] -= 1
        return

    rec([[0] * s for s in shape], [0] * len(shape))
    out.sort(key=lambda t: t.sort_key())
    return out


def hook_length_count(shape):
    """Independent count of standard tableaux via hook lengths."""
    shape = tuple(shape)
    fact = math.factorial(sum(shape))
    denom = 1
    cols = [0] * (shape[0] if shape else 0)
    for r in shape:
        for j in range(r):
            cols[j] += 1
    for i, r in enumerate(shape):
        for j in range(r):
            denom *= (r - j) + (cols[j] - i) - 1
    return fact // denom


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
    shape = tuple(shape)
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    out = []

    def rec(pos, grid, used):
        if pos == len(cells):
            if len(used) == values:
                out.append(tuple(tuple(row[: shape[i]]) for i, row in enumerate(grid)))
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1] + 1)
        if i > 0:
            lo = max(lo, grid[i - 1][j])
        for v in range(lo, values + 1):
            grid[i][j] = v
            rec(pos + 1, grid, used | {v})
            grid[i][j] = 0

    rec(0, [[0] * (shape[0] if shape else 0) for _ in shape], frozenset())
    return out


def x_set_size(J, j):
    """#{i < j not in J}: the sign exponent of the cube differential."""
    return sum(1 for i in range(1, j) if i not in J)


def boundary_ct(T, J):
    """The cube-complex differential on the basis element (T, J)."""
    JT = descents(T)
    if not frozenset(J) <= JT:
        raise ValueError("J must consist of descents of T")
    out = Vector()
    for j in sorted(J):
        sign = -1 if x_set_size(J, j) % 2 else 1
        out.add_term((T, frozenset(J) - {j}), sign)
    return out


def h_ct(T, J):
    """The normalized contracting homotopy of the cube complex."""
    JT = descents(T)
    J = frozenset(J)
    if not JT:
        return Vector()
    out = Vector()
    for j in sorted(JT - J):
        sign = -1 if x_set_size(J, j) % 2 else 1
        out.add_term((T, J | {j}), Fraction(sign, len(JT)))
    return out


def t_complex(T):
    """The complex spanned by (T, J) for descent subsets J, graded by -#J."""
    JT = descents(T)
    components = {}
    for size in range(len(JT) + 1):
        keys = [
            (T, frozenset(c)) for c in itertools.combinations(sorted(JT), size)
        ]
        components[-size] = sorted(keys, key=lambda k: sorted(k[1]))

    def diff(key):
        return boundary_ct(key[0], key[1])

    return FiniteComplex(components, diff, check=True)


def t_complex_contraction_check(T):
    """1 - gf = dh + hd, with (f, g) nonzero only on descent-free tableaux."""
    JT = descents(T)
    for size in range(len(JT) + 1):
        for combo in itertools.combinations(sorted(JT), size):
            J = frozenset(combo)
            v = Vector.unit((T, J))
            hom = h_ct(T, J).apply(lambda k: boundary_ct(*k))
            hom = hom + boundary_ct(T, J).apply(lambda k: h_ct(*k))
            if JT:
                expected = v
            else:
                expected = Vector()
            if hom != expected:
                return CheckResult(False, (T, J), "contraction identity fails")
    return CheckResult(True)


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
    return Vector.unit(tensor_word(letters[i] for i in perm), sign)


def young_idempotent(T, word):
    """c_T r_T^- acting on the right of a tensor word (up to scalar)."""
    out = Vector()
    n = T.n
    rows = row_groups(T)
    cols = col_groups(T)
    for rho in _value_permutations(rows, n):
        rho_sign = perm_parity(tuple(rho[k] - 1 for k in range(n)))
        step = right_act(word, rho).scaled(rho_sign)
        for tau in _value_permutations(cols, n):
            for w, c in step.items():
                out.accumulate(right_act(w, tau), c)
    return out


def schur_rank(T, gens):
    """Exact rank of the idempotent on the tensor power of the given space."""
    return len(schur_basis(T, gens))


def schur_dimension_count(T, even_dim, odd_dim):
    """Fillings count at suspended parity.

    Even letters repeat along rows but not columns; odd letters the reverse
    (their suspensions flip parity, swapping the two constraints).
    """
    shape = T.shape
    cells = [(i, j) for i, r in enumerate(shape) for j in range(r)]
    letters = [(k, 0) for k in range(even_dim)] + [(k, 1) for k in range(odd_dim)]
    count = 0

    def ok(grid, i, j, letter):
        if j > 0:
            prev = grid[i][j - 1]
            if prev is None:
                return True
            if letter[1] == 0:
                if not prev <= letter:
                    return False
            else:
                if not prev < letter:
                    return False
        if i > 0:
            up = grid[i - 1][j]
            if up is None:
                return True
            if letter[1] == 0:
                if not up < letter:
                    return False
            else:
                if not up <= letter:
                    return False
        return True

    def rec(pos, grid):
        nonlocal count
        if pos == len(cells):
            count += 1
            return
        i, j = cells[pos]
        for letter in letters:
            if ok(grid, i, j, letter):
                grid[i][j] = letter
                rec(pos + 1, grid)
                grid[i][j] = None

    rec(0, [[None] * (shape[0] if shape else 0) for _ in shape])
    return count


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
    for shape in partitions(n):
        for T in standard_tableaux(shape):
            dim = schur_dimension_count(T, even_dim, odd_dim)
            if dim == 0:
                continue
            JT = descents(T)
            for p in range(len(JT) + 1):
                profile[n - p] = profile.get(n - p, 0) + math.comb(len(JT), p) * dim
    return profile


def decomposition_dims(n, even_dim, odd_dim):
    """Compare both sides of the decomposition, length by length."""
    gens = [Generator("x%d" % i, 0) for i in range(even_dim)] + [
        Generator("y%d" % i, 1) for i in range(odd_dim)
    ]
    cobar = cobar_rank_profile(gens, n)
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
    blocks = []
    start = 0
    for m in sizes:
        blocks.append(word.letters[start : start + m])
        start += m
    sign, cobar = desuspended_word(blocks)
    sign *= desuspension_sign([[g.degree for g in b] for b in blocks])
    return Vector.unit(cobar, sign)


def young_average(word, sizes):
    """Average of the value-block symmetric group, acting on the right."""
    groups = []
    start = 1
    for m in sizes:
        groups.append(tuple(range(start, start + m)))
        start += m
    perms = _value_permutations([g for g in groups if len(g) > 1], sum(sizes))
    out = Vector()
    q = Fraction(1, len(perms))
    for sigma in perms:
        out.accumulate(right_act(word, sigma), q)
    return out


def embedding(T, J, u_vector, signs=None):
    """The tableau-indexed embedding into the cobar construction.

    ``signs`` is an optional per-(T, J) sign table (the chain-level
    normalization is exposed as data, defaulting to +1).
    """
    J = frozenset(J)
    sizes_J = content_sizes(T, J)
    sizes_JT = content_sizes(T, descents(T))
    coeff = Fraction(1, math.prod(math.factorial(m) for m in sizes_J))
    if signs:
        coeff *= signs.get((T, J), 1)
    out = Vector()
    for w, c in u_vector.items():
        averaged = young_average(w, sizes_JT)
        for w2, c2 in averaged.items():
            out.accumulate(pi_map(w2, sizes_J), coeff * c * c2)
    return out


def schur_basis(T, gens):
    """A basis of idempotent images, as vectors over tensor words."""
    ech = Echelon()
    basis = []
    for letters in itertools.product(sorted(gens), repeat=T.n):
        v = young_idempotent(T, tensor_word(letters))
        fresh, _ = ech.insert(v)
        if fresh:
            basis.append(v)
    return basis


def embedding_rank_check(n, gens):
    """All embedded vectors together span the full rank-n cobar piece."""
    total = 0
    ech = Echelon()
    for shape in partitions(n):
        for T in standard_tableaux(shape):
            basis = schur_basis(T, gens)
            JT = descents(T)
            for size in range(len(JT) + 1):
                for combo in itertools.combinations(sorted(JT), size):
                    for u in basis:
                        img = embedding(T, frozenset(combo), u)
                        if not img:
                            return CheckResult(False, (T, combo), "embedding vanishes")
                        fresh, _ = ech.insert(img)
                        if fresh:
                            total += 1
    expected = len(cobar_words(tuple(g.shifted(-1) for g in gens), n))
    ok = total == expected and ech.rank == expected
    return CheckResult(ok, None if ok else (total, ech.rank, expected))


def solve_embedding_signs(n, gens, delta_omega):
    """Fit the per-(T, J) sign table making the embedding a chain map.

    Signs are solved face by face in increasing descent-set size, matching
    each differential against the already-normalized smaller faces; the
    corrected embedding is sign * embedding.  Returns (signs, failures).
    """
    signs = {}
    failures = []
    for shape in partitions(n):
        for T in standard_tableaux(shape):
            basis = schur_basis(T, gens)
            JT = sorted(descents(T))
            signs[(T, frozenset())] = 1
            for size in range(1, len(JT) + 1):
                for combo in itertools.combinations(JT, size):
                    J = frozenset(combo)
                    fitted = None
                    for u in basis:
                        lhs = embedding(T, J, u).apply(delta_omega)
                        rhs = Vector()
                        for (T2, J2), c in boundary_ct(T, J).items():
                            rhs.accumulate(embedding(T2, J2, u), c * signs[(T2, J2)])
                        if not lhs and not rhs:
                            continue
                        if lhs == rhs:
                            lam = 1
                        elif lhs == rhs.scaled(-1):
                            lam = -1
                        else:
                            fitted = None
                            failures.append((T, J))
                            break
                        if fitted is None:
                            fitted = lam
                        elif fitted != lam:
                            failures.append((T, J))
                            fitted = None
                            break
                    signs[(T, J)] = fitted if fitted is not None else 1
    return signs, failures


def embedding_chain_check(n, gens, delta_omega):
    """Solve the sign table and verify the corrected chain-map property."""
    signs, failures = solve_embedding_signs(n, gens, delta_omega)
    if failures:
        return CheckResult(False, failures[0], "no consistent sign"), signs
    for shape in partitions(n):
        for T in standard_tableaux(shape):
            basis = schur_basis(T, gens)
            JT = sorted(descents(T))
            for size in range(1, len(JT) + 1):
                for combo in itertools.combinations(JT, size):
                    J = frozenset(combo)
                    for u in basis:
                        lhs = embedding(T, J, u, signs).apply(delta_omega)
                        rhs = Vector()
                        for (T2, J2), c in boundary_ct(T, J).items():
                            rhs.accumulate(embedding(T2, J2, u, signs), c)
                        if lhs != rhs:
                            return CheckResult(False, (T, J), "chain map fails"), signs
    return CheckResult(True), signs
