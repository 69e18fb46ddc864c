"""Cellular chains on permutahedra and the equivariant contraction.

Faces of the n-th permutahedron are ordered partitions of {1..n}; the chain
complex carries a left symmetric-group action and a block-reversal involution,
and contracts equivariantly onto its degree-0 homology.  The homotopy is
solved once on every face, then averaged and repaired only on the orbit
representatives, one standard face per composition of n; the action carries
it to every other face.  All of that runs on integer chains over numbered
faces, scaled by powers of n!; a column of the homotopy becomes a Fraction
vector over faces once, when it is stored.  Transporting the contraction
along the face/cobar dictionary yields the contracting homotopy of the cobar
construction of a symmetric coalgebra; each contraction compiles that
transport once per shape of cobar word, with integer coefficients over one
denominator.  The contraction's F, G and H and the cobar maps ``cobar_f``,
``cobar_g``, ``cobar_h`` and ``cobar_gf`` return exact pairs (terms, den),
see ``exactlin.exact_sum``.
"""

from __future__ import annotations

import itertools
import math
from operator import itemgetter
from fractions import Fraction
from functools import lru_cache

from .exactlin import (
    COBAR,
    Contraction,
    Echelon,
    FiniteComplex,
    Vector,
    Word,
    axpy,
    exact_apply,
    exact_sum,
    koszul_sign,
    perm_parity,
    set_partitions,
    sym_word,
    symmetrize,
    to_pair,
    unshuffles,
)
from .words import desuspended_letter, desuspended_word, desuspension_sign


class OrderedPartition:
    """An ordered partition of {1..n}; blocks stored internally increasing."""

    __slots__ = ("n", "blocks", "_hash")

    def __init__(self, n, blocks):
        self.n = n
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        self._hash = hash((n, self.blocks))
        if sorted(x for b in self.blocks for x in b) != list(range(1, n + 1)):
            raise ValueError("blocks must partition {1..%d}" % n)

    @property
    def d(self):
        return len(self.blocks)

    @property
    def degree(self):
        return -(self.n - self.d)

    def sort_key(self):
        return (self.d, self.blocks)

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return (
            isinstance(other, OrderedPartition)
            and self._hash == other._hash
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __repr__(self):
        return "[" + "|".join("".join(str(x) for x in b) for b in self.blocks) + "]"

    def serialize(self):
        return [list(b) for b in self.blocks]


def enumerate_faces(n, d):
    """All ordered partitions of {1..n} with d blocks, in ``sort_key`` order:
    the orderings of the set partitions into d blocks."""
    if not (1 <= d <= n):
        raise ValueError("need 1 <= d <= n")
    faces = [
        OrderedPartition(n, blocks)
        for partition in set_partitions(range(1, n + 1))
        if len(partition) == d
        for blocks in itertools.permutations(partition)
    ]
    faces.sort(key=OrderedPartition.sort_key)
    return faces


def all_faces(n):
    faces = []
    for d in range(1, n + 1):
        faces.extend(enumerate_faces(n, d))
    return faces


def boundary(face):
    """Cellular boundary: split one block into an ordered pair of subsets.

    The sign of a split is that of the unshuffle of the block, every element
    counting as odd.
    """
    out = Vector()
    prefix = 0
    for k, block in enumerate(face.blocks):
        mk = len(block)
        for inside, outside, sign in unshuffles([1] * mk, range(1, mk)):
            if (prefix + k + len(inside)) % 2:
                sign = -sign
            subset = tuple(block[i] for i in inside)
            rest = tuple(block[i] for i in outside)
            new_blocks = face.blocks[:k] + (subset, rest) + face.blocks[k + 1 :]
            out.add_term(OrderedPartition(face.n, new_blocks), sign)
        prefix += mk
    return out


def nu(face):
    """Block-reversal involution with its orientation sign."""
    n, d = face.n, face.d
    sign = koszul_sign(range(d - 1, -1, -1), [len(b) for b in face.blocks])
    if (n * (d - 1) + (d - 1) * (d - 2) // 2) % 2 == 0:
        sign = -sign
    return sign, OrderedPartition(n, tuple(reversed(face.blocks)))


def chain_complex(n):
    faces = {}
    for d in range(1, n + 1):
        faces[-(n - d)] = enumerate_faces(n, d)
    return FiniteComplex(faces, boundary)


class FaceIndex:
    """The faces of the n-th permutahedron numbered in ``sort_key`` order,
    with what the contraction build reads of each face by its number: the
    boundary, the image under nu, the orbit representative, and what carries
    the face through the S_n action without building faces.

    A face is known by its block vector (the block of each element): sigma
    sends the block vector b to b o sigma^-1, and the sign of the action is
    the parity of the pairs inside one block that sigma inverts, read off two
    bit masks.  Chains are integer vectors, dicts from face numbers to ints.
    """

    def __init__(self, n):
        self.n = n
        self.faces = all_faces(n)
        self.index = index = {f: i for i, f in enumerate(self.faces)}
        self.boundary = [{index[g]: int(c) for g, c in boundary(f).items()}
                         for f in self.faces]
        self.nu = []  # face number -> (sign, number of its image)
        self.rep = []  # face number -> number of its representative
        self.carry = []  # face number -> action carrying its representative onto it
        self._blocks = []  # face number -> block vector
        self._pairs = []  # face number -> bits x * n + y of the pairs x < y in one block
        reps = {}
        for f in self.faces:
            sign, g = nu(f)
            self.nu.append((sign, index[g]))
            sizes = tuple(len(b) for b in f.blocks)
            if sizes not in reps:
                reps[sizes] = index[standard_face(n, sizes)]
            self.rep.append(reps[sizes])
            self.carry.append(_action(tuple(x for b in f.blocks for x in b)))
            blocks = [0] * n
            for k, b in enumerate(f.blocks):
                for x in b:
                    blocks[x - 1] = k
            self._blocks.append(tuple(blocks))
            pairs = 0
            for x in range(n):
                for y in range(x + 1, n):
                    if blocks[x] == blocks[y]:
                        pairs |= 1 << (x * n + y)
            self._pairs.append(pairs)
        # keyed as transport's itemgetter reads a block vector: as a tuple,
        # or at n = 1 as its one entry
        identity = itemgetter(*range(n))
        self._by_blocks = {identity(b): i for i, b in enumerate(self._blocks)}

    def transport(self, out, action, col, c):
        """out += c sigma(col), term by term, for sigma given by ``_action``."""
        inverse, inversions = action
        by_blocks, blocks, pairs = self._by_blocks, self._blocks, self._pairs
        image_of = itemgetter(*inverse)  # b -> b o sigma^-1
        negated = -c
        for g, cg in col.items():
            image = by_blocks[image_of(blocks[g])]
            cg *= negated if (pairs[g] & inversions).bit_count() & 1 else c
            cg += out.get(image, 0)
            if cg:
                out[image] = cg
            else:
                del out[image]

    def extend(self, memo, column, vec):
        """Apply an equivariant map, known by ``column`` on the orbit
        representatives (memoized in ``memo``), to a chain.  A face off its
        representative takes sigma of the representative's column."""
        out = {}
        for f, c in vec.items():
            rep = self.rep[f]
            col = memo.get(rep)
            if col is None:
                col = memo[rep] = column(rep)
            if f == rep:
                axpy(out, col, c)
            else:
                self.transport(out, self.carry[f], col, c)
        return out


def _action(sigma):
    """(inverse, inversions) of a permutation of {1..n} in one-line notation:
    the 0-based inverse, and as bits x * n + y the pairs x < y (0-based) that
    sigma inverts."""
    n = len(sigma)
    inverse = [0] * n
    inversions = 0
    for x, image in enumerate(sigma):
        inverse[image - 1] = x
        for y in range(x + 1, n):
            if image > sigma[y]:
                inversions |= 1 << (x * n + y)
    return inverse, inversions


def _picker(indices):
    """The map from a sequence to the tuple of its entries at ``indices``."""
    if len(indices) == 1:
        (k,) = indices
        return lambda seq: (seq[k],)
    return itemgetter(*indices)


def _apply(vec, columns):
    """The linear extension of a map given by its integer columns."""
    out = {}
    for key, c in vec.items():
        axpy(out, columns[key], c)
    return out


class PermutahedronContraction(Contraction):
    """Equivariant contraction of the face complex onto k, whose one basis
    element is ().

    F sends a vertex to 1 and G sends 1 to the average of the vertices; d on
    k is zero.  H starts from a degreewise exact solve on every face, is
    averaged over the group S_n x <nu> and repaired to satisfy the side
    conditions: H' = (1 - GF) Havg (1 - GF), then H = H' d H'.  Every stage
    is equivariant, so it is computed, on demand, only on the orbit
    representatives (one standard face per composition of n) and reaches any
    other face through the action.  The stages run on integer chains over
    face numbers, scaled by N = n!: the solve yields N Hraw, the average
    N^2 A, the projection 2N^2 H' and the repair (2N^2)^2 H.  ``columns``
    holds the columns of H built so far, over faces, with Fraction
    coefficients; H is their exact pair.
    """

    def __init__(self, n):
        self.n = n
        self._nfact = math.factorial(n)
        super().__init__(
            lambda f: ({(): 1} if f.d == n else {}, 1),
            lambda _: (dict.fromkeys(enumerate_faces(n, n), 1), self._nfact),
            lambda face: to_pair(self._column(face)),
            boundary,
            lambda _: Vector(),
        )
        self._faces = FaceIndex(n)
        self._raw = {}  # representative -> [(face, N Hraw column)] over its orbit
        for f, col in _solve_homotopy(self._faces).items():
            self._raw.setdefault(self._faces.rep[f], []).append((f, col))
        self._symmetrized = {}  # representative -> N^2 A column
        self._projected = {}  # representative -> 2N^2 H' column
        self._repaired = {}  # representative -> (2N^2)^2 H column
        self.columns = {}
        self._plans = {}  # (composition, letter parities) -> compiled cobar_h
        self._pickers = {}  # block indices of a plan face -> (picker, block mask)
        self._letters = {}  # block of generators -> (sign, letter), or None

    def homotopy_column(self, face):
        return self._column(face)

    def _column(self, face):
        """H(face), converted from the integer chain once and stored."""
        col = self.columns.get(face)
        if col is None:
            faces = self._faces
            scaled = faces.extend(self._repaired, self._repair, {faces.index[face]: 1})
            scale = (2 * self._nfact ** 2) ** 2
            col = self.columns[face] = Vector(
                {faces.faces[g]: Fraction(c, scale) for g, c in scaled.items()})
        return col

    def cobar_homotopy(self, x):
        """``cobar_h`` on a cobar word of rank n, exact: a pair (terms, den).

        The value is the sum of c theta(gens, f) over the column of x's
        standard face, times -(-1)^|gens| / gamma.  All of it but the sort
        sign and word of each block's letter depends only on the composition
        of x and the parities of its letters, so it is compiled once per such
        shape: each face as a picker of the shape's distinct blocks of
        positions and a bit mask of them, with one integer coefficient over
        the plan's denominator.  A call looks up each block's letter
        (interned per block of generators) and the masks of the blocks that
        die and of those whose sort sign is negative; a face that holds a
        dying block is skipped, and the others add integers by the tuple of
        their letters.  Only the words that survive are interned.
        """
        gens = tuple(g.shifted(1) for w in x.letters for g in w.letters)
        shape = (tuple(w.rank for w in x.letters), tuple(g.degree % 2 for g in gens))
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = self._compile_plan(x)
        positions, terms, den = plan
        letters = self._letters
        found = []
        dead = negative = 0
        for k, block in enumerate(positions):
            block = tuple(gens[i] for i in block)
            if block not in letters:
                sign, letter = desuspended_letter(block)
                letters[block] = None if letter is None else (sign, letter)
            entry = letters[block]
            if entry is None:
                dead |= 1 << k
                found.append(None)
            else:
                if entry[0] < 0:
                    negative |= 1 << k
                found.append(entry[1])
        out = {}  # letters of a cobar word -> its integer coefficient
        for pick, mask, coeff, negated in terms:
            if mask & dead:
                continue
            key = pick(found)
            c = out.get(key, 0) + (negated if (mask & negative).bit_count() & 1 else coeff)
            if c:
                out[key] = c
            else:
                del out[key]
        out = {Word(COBAR, key): c for key, c in out.items()}
        return exact_sum([(out, 1, den)])

    def _compile_plan(self, x):
        """(block positions, [(picker, block mask, coefficient, its
        negative)], denominator) for the shape of x.  A face's picker takes
        the tuple of its blocks' entries, in order, from a list indexed like
        the block positions, and its mask has bit k for each block k it
        holds; the plans of one composition number their blocks alike, so
        they share both.  A face's coefficient is
        c theta_sign(f) -(-1)^|gens| / gamma, for the entry c of the stored
        column (the integer chain over (2N^2)^2); the plan holds each as an
        integer over their least common denominator."""
        gens, face, gamma = theta_factor(x)
        degs = [g.degree for g in gens]
        scale = Fraction(-1 if sum(degs) % 2 == 0 else 1, gamma)
        positions = {}  # position set of a block -> its index
        faces = []
        for f, c in self.homotopy_column(face).items():
            indices = tuple(
                positions.setdefault(tuple(i - 1 for i in b), len(positions))
                for b in f.blocks
            )
            faces.append((indices, scale * c * theta_sign(degs, f)))
        den = math.lcm(*(c.denominator for _, c in faces))
        terms = []
        for indices, c in faces:
            coeff = c.numerator * (den // c.denominator)
            pick = self._pickers.get(indices)
            if pick is None:
                pick = self._pickers[indices] = (_picker(indices), sum(1 << k for k in indices))
            terms.append((*pick, coeff, -coeff))
        return tuple(positions), terms, den

    def _symmetrize(self, rep):
        """N^2 A(rep), A(rep) = 1/n! sum over sigma in S_n of sigma Hraw(sigma^-1 rep).

        sigma^-1 rep = +-f exactly when sigma = h sigma_f^-1, with sigma_f
        carrying rep onto f and h in the stabilizer S_m1 x ... x S_mk of rep,
        so the sum runs once over the orbit and once over the stabilizer.
        """
        faces = self._faces
        orbit_sum = {}
        for f, col in self._raw.get(rep, ()):
            # sigma_f^-1 in one-line notation is 1 + the inverse of sigma_f
            sigma_f_inverse = [x + 1 for x in faces.carry[f][0]]
            faces.transport(orbit_sum, _action(sigma_f_inverse), col, 1)
        out = {}
        if orbit_sum:
            face = faces.faces[rep]
            for parts in itertools.product(*map(itertools.permutations, face.blocks)):
                # h permutes each block of the standard face rep in place, so
                # it acts on rep with the product of the blocks' plain signs
                h = tuple(x for part in parts for x in part)
                sign = math.prod(map(perm_parity, parts))
                faces.transport(out, _action(h), orbit_sum, sign)
        return out

    def _project(self, rep):
        """2N^2 H'(rep), H' = (1 - GF) Havg (1 - GF), Havg = (A + nu A nu) / 2.

        GF(rep) is a multiple of the vertex sum G(1), which S_n fixes and nu
        fixes up to sign, so Havg(G(1)) is the group average of Hraw(G(1)).
        The degree-0 solve makes Hraw(G(1)) zero; that is checked here
        instead of averaging G(1) vertex by vertex.  The GF on the left is
        zero: Havg lowers the degree, and only the vertices have degree 0.
        """
        faces = self._faces
        if faces.faces[rep].d == self.n:
            vertex_sum = {}
            for _, col in self._raw.get(rep, ()):
                axpy(vertex_sum, col)
            if vertex_sum:
                raise RuntimeError("raw homotopy does not kill the vertex average")
        y = faces.extend(self._symmetrized, self._symmetrize, {rep: 1})
        sign, image = faces.nu[rep]
        reflected = faces.extend(self._symmetrized, self._symmetrize, {image: sign})
        axpy(y, {faces.nu[g][1]: faces.nu[g][0] * c for g, c in reflected.items()})
        return y

    def _repair(self, rep):
        """(2N^2)^2 H''(rep), H'' = H' d H'."""
        faces = self._faces
        once = faces.extend(self._projected, self._project, {rep: 1})
        return faces.extend(self._projected, self._project, _apply(once, faces.boundary))


def _solve_homotopy(faces):
    """N Hraw by face number, N = n!, where dHraw + Hraw d = 1 - GF, solved
    degreewise; not yet equivariant.

    The constraints are scaled by N, so that N(1 - GF) sends a face f to
    N f - F(f) (sum of vertices), and the elimination runs over the
    integers: the boundary entries are +-1, and each pivot lead divides the
    entries it eliminates (``Echelon`` raises RuntimeError where one does
    not).  A face reduces to N Hraw of itself; a vertex v, reduced as
    N(1 - GF)(v), to N^2 Hraw(v), which is divided by N exactly.
    """
    n = faces.n
    N = math.factorial(n)
    by_size = {}  # number of blocks -> face numbers
    for i, f in enumerate(faces.faces):
        by_size.setdefault(f.d, []).append(i)
    vertex_sum = dict.fromkeys(by_size[n], 1)
    H = {}
    # constraints for the next degree: echelon of d-columns with rhs combos
    pending = Echelon()
    for d in range(1, n + 1):
        # define H on this degree from the constraints accumulated below it;
        # at degree 0, the canonical split im(d) + span of the vertex sum
        for i in by_size[d]:
            # reduce() accumulates tags negatively
            if d < n:
                residual, combo = pending.reduce(Vector({i: 1}))
                value = {j: -c for j, c in combo.items()}
            else:
                x = {i: N}
                axpy(x, vertex_sum, -1)  # N(1 - GF)(v)
                residual, combo = pending.reduce(Vector(x))
                if residual:
                    raise RuntimeError("degree-0 consistency failed in homotopy solve")
                # exact: every tag N f - d(N Hraw f) is a multiple of N
                value = {j: -c // N for j, c in combo.items()}
            if value:
                H[i] = value
        if d == n:
            break
        # record constraints H(d f) = N(1 - GF)(f) - d(H(f)) for the next
        # degree; off the vertices, N(1 - GF)(f) = N f
        nxt = Echelon()
        for i in by_size[d]:
            rhs = {i: N}
            if i in H:
                axpy(rhs, _apply(H[i], faces.boundary), -1)
            df = faces.boundary[i]
            if df:
                fresh, acc = nxt.insert(Vector(df), Vector(rhs))
                if not fresh and acc:
                    raise RuntimeError("inconsistent homotopy constraint at %r"
                                       % (faces.faces[i],))
            elif rhs:
                raise RuntimeError("inconsistent homotopy constraint at %r"
                                   % (faces.faces[i],))
        pending = nxt
    return H


@lru_cache(maxsize=None)
def build_contraction(n):
    """Memoized equivariant contraction for the n-th permutahedron."""
    if n < 1:
        raise ValueError("n must be positive")
    return PermutahedronContraction(n)


def theta_sign(degs, face):
    """The part of theta's sign fixed by the letter degrees, of which only
    the parities matter: the Koszul sign of arranging the letters block by
    block, (-1)^((n - d)|w|), and the desuspension of the blocks."""
    arrangement = [x - 1 for b in face.blocks for x in b]
    sign = koszul_sign(arrangement, degs)
    if (face.n - face.d) % 2 and sum(degs) % 2:
        sign = -sign
    return sign * desuspension_sign([degs[x - 1] for x in b] for b in face.blocks)


def theta(gens, face):
    """The face/cobar dictionary on a tensor word of generators.

    ``gens`` is the tuple of unsuspended letters (one per element of {1..n});
    the value is a single signed cobar word over the suspended letters, or
    zero when a block repeats an odd suspended letter.
    """
    if len(gens) != face.n:
        raise ValueError("word length must match the face")
    s2, word = desuspended_word([gens[x - 1] for x in b] for b in face.blocks)
    return Vector.unit(word, theta_sign([g.degree for g in gens], face) * s2)


def standard_face(n, sizes):
    """The composition face [1..m1 | m1+1..m1+m2 | ...]."""
    blocks = []
    start = 1
    for m in sizes:
        blocks.append(tuple(range(start, start + m)))
        start += m
    return OrderedPartition(n, blocks)


def cobar_f(x):
    """Multiplicative projection of a cobar word onto the symmetric algebra,
    exact: a pair (terms, den)."""
    letters = []
    for w in x.letters:
        if w.rank != 1:
            return {}, 1
        letters.append(w.letters[0].shifted(1))
    sign, word = sym_word(letters)
    if word is None:
        return {}, 1
    return {word: sign}, 1


def cobar_g(word):
    """Average of all weight-one-letter arrangements of an algebra word: the
    graded average of the cobar word with one desuspended letter per
    generator, exact: integer terms over n!."""
    return symmetrize(Word(COBAR, [desuspended_letter((g,))[1] for g in word.letters]))


def cobar_gf(x):
    """G F on a cobar word, exact."""
    return exact_apply(cobar_f(x), cobar_g)


def theta_factor(x):
    """Coefficient gamma with theta(word_of(x), face_of(x)) = gamma * x."""
    gens = []
    sizes = []
    for w in x.letters:
        sizes.append(w.rank)
        gens.extend(g.shifted(1) for g in w.letters)
    face = standard_face(x.rank, sizes)
    img = theta(tuple(gens), face)
    gamma = img.coeff(x)
    if gamma == 0:
        raise RuntimeError("theta normalization failed for %r" % (x,))
    return tuple(gens), face, gamma


def cobar_h(x):
    """Contracting homotopy on a cobar word via the face-complex homotopy."""
    return build_contraction(x.rank).cobar_homotopy(x)


def iota_omega(x):
    """Algebra anti-involution acting by -1 on cobar generators."""
    d = len(x.letters)
    sign = koszul_sign(range(d - 1, -1, -1), [w.degree + 1 for w in x.letters])
    if d % 2:
        sign = -sign
    return Vector.unit(Word(COBAR, reversed(x.letters)), sign)
