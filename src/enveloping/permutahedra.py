"""Cellular chains on permutahedra and the equivariant contraction.

Faces of the n-th permutahedron are ordered partitions of {1..n}; the chain
complex carries a left symmetric-group action and a block-reversal involution,
and contracts equivariantly onto its degree-0 homology.  ``FaceIndex``
numbers the faces, and everything past their enumeration runs on those
numbers: the boundary, the chain complex and the contraction's F, G, H and
d_big, whose chains are integer dicts over face numbers.  The homotopy
depends on n alone.  Its columns on the orbit representatives, one standard
face per composition of n, are package data: ``data/homotopy/n<N>.json``,
each column the integer chain of (2N^2)^2 H, N = n!, keyed by block
vectors, and each file checked against a crc32 pinned in
``HOMOTOPY_CRC32``.  A contraction loads the file of its n, and the action
carries those columns to every other face; no run solves.  The generator,
``python -m enveloping.permutahedra DIR [N_MAX]``, writes the files: it
solves the homotopy once on every face, then averages and repairs it on the
representatives, each stage scaled by powers of n!.  Transporting the
contraction along the face/cobar dictionary yields the contracting homotopy
of the cobar construction of a symmetric coalgebra; each contraction
compiles that transport once per shape of cobar word, with integer
coefficients over one denominator.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
import zlib
from functools import lru_cache
from importlib import resources
from operator import itemgetter
from pathlib import Path

from .exactlin import (
    COBAR,
    Contraction,
    Echelon,
    FiniteComplex,
    Vector,
    Word,
    _quotient,
    axpy,
    consecutive_blocks,
    exact_apply,
    exact_sum,
    koszul_sign,
    memo_method,
    perm_parity,
    set_partitions,
    sym_word,
    symmetrize,
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
        if not all(self.blocks):
            raise ValueError("blocks must be nonempty")

    @classmethod
    def _valid(cls, n, blocks):
        """The face with these blocks, which must be increasing tuples that
        partition {1..n}; nothing is checked."""
        face = object.__new__(cls)
        face.n = n
        face.blocks = blocks
        face._hash = hash((n, blocks))
        return face

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
    the orderings of the set partitions into d blocks, whose blocks
    ``set_partitions`` gives increasing, so they are built unchecked."""
    if not (1 <= d <= n):
        raise ValueError("need 1 <= d <= n")
    faces = [
        OrderedPartition._valid(n, blocks)
        for partition in set_partitions(range(1, n + 1))
        if len(partition) == d
        for blocks in itertools.permutations(map(tuple, partition))
    ]
    faces.sort(key=OrderedPartition.sort_key)
    return faces


def all_faces(n):
    faces = []
    for d in range(1, n + 1):
        faces.extend(enumerate_faces(n, d))
    return faces


def _nu_sign(n, sizes):
    """The sign of nu on a face with blocks of these sizes: the Koszul sign
    of reversing the blocks, each of the parity of its size, times
    -(-1)^(n(d - 1) + (d - 1)(d - 2)/2)."""
    d = len(sizes)
    odd = sum(m % 2 for m in sizes)
    return -1 if (odd * (odd - 1) // 2 + n * (d - 1) + (d - 1) * (d - 2) // 2) % 2 == 0 else 1


def chain_complex(n):
    """The cellular chains of the n-th permutahedron on face numbers: the
    faces with d blocks in degree d - n, and ``FaceIndex``'s boundary, read
    off the contraction's ``FaceIndex``.  Each call returns a new complex."""
    faces = build_contraction(n).faces
    return FiniteComplex({d - n: numbers for d, numbers in faces.by_size.items()},
                         faces.differential)


class FaceIndex:
    """The faces of the n-th permutahedron numbered in ``sort_key`` order,
    with what the contraction and the checks read of each face by its
    number: the boundary, the image under nu, the orbit representative, and
    what carries the face through the S_n action without building faces.

    A face is known by its block vector (the block of each element): sigma
    sends the block vector b to b o sigma^-1, and the sign of the action is
    the parity of the pairs inside one block that sigma inverts, read off two
    bit masks.  The boundary and nu are read off block vectors too, with no
    face built.  Chains are integer vectors, dicts from face numbers to ints.
    """

    def __init__(self, n):
        self.n = n
        self.faces = []
        self.by_size = {}  # number of blocks -> the range of their face numbers
        for d in range(1, n + 1):
            start = len(self.faces)
            self.faces.extend(enumerate_faces(n, d))
            self.by_size[d] = range(start, len(self.faces))
        self.index = index = {f: i for i, f in enumerate(self.faces)}
        self._blocks = []  # face number -> block vector
        for f in self.faces:
            blocks = [0] * n
            for k, b in enumerate(f.blocks):
                for x in b:
                    blocks[x - 1] = k
            self._blocks.append(tuple(blocks))
        self._by_blocks = by_blocks = {b: i for i, b in enumerate(self._blocks)}
        self.boundary = []  # face number -> its boundary, an integer chain
        self.nu = []  # face number -> (sign, number of its image)
        self.rep = []  # face number -> number of its representative
        self.carry = []  # face number -> action carrying its representative onto it
        self._pairs = []  # face number -> bits x * n + y of the pairs x < y in one block
        reps = {}
        # block size -> [(positions split off, sign)], in ``unshuffles``
        # order: the unshuffle sign with every element odd, times
        # (-1)^(number split off)
        splits = {
            m: [(inside, -sign if len(inside) % 2 else sign)
                for inside, _, sign in unshuffles([1] * m, range(1, m))]
            for m in range(2, n + 1)
        }
        for f, b in zip(self.faces, self._blocks):
            sizes = tuple(len(block) for block in f.blocks)
            self.boundary.append(self._boundary(f.blocks, b, splits))
            last = len(sizes) - 1  # nu numbers block k as last - k
            self.nu.append((_nu_sign(n, sizes), by_blocks[tuple(last - k for k in b)]))
            if sizes not in reps:
                reps[sizes] = index[standard_face(n, sizes)]
            self.rep.append(reps[sizes])
            self.carry.append(_action(tuple(x for block in f.blocks for x in block)))
            pairs = 0
            for block in f.blocks:
                for x, y in itertools.combinations(block, 2):
                    pairs |= 1 << ((x - 1) * n + y - 1)
            self._pairs.append(pairs)

    def _boundary(self, blocks, vector, splits):
        """The cellular boundary of the face with these blocks and block
        vector, as an integer chain: block k split into an ordered pair of
        subsets, in ``unshuffles`` order, signed by the unshuffle of the
        block with every element odd, times (-1)^(k + elements before it +
        number split off).  Splitting block k moves the blocks after it up
        by one; the subset split off keeps number k and the rest takes
        k + 1.  ``splits`` gives the splits of a block of each size with
        their signs before the sign of the block's place."""
        by_blocks = self._by_blocks
        out = {}
        prefix = 0
        for k, block in enumerate(blocks):
            m = len(block)
            if m > 1:
                shifted = [c + 1 if c >= k else c for c in vector]
                flip = (prefix + k) % 2
                for inside, sign in splits[m]:
                    image = shifted.copy()
                    for i in inside:
                        image[block[i] - 1] = k
                    out[by_blocks[tuple(image)]] = -sign if flip else sign
            prefix += m
        return out

    def differential(self, face):
        """The boundary of face number ``face``, as an integer ``Vector``."""
        return Vector(self.boundary[face])

    def transport(self, out, action, col, c):
        """out += c sigma(col), term by term, for sigma given by ``_action``."""
        inverse, inversions = action
        by_blocks, blocks, pairs = self._by_blocks, self._blocks, self._pairs
        image_of = _picker(inverse)  # b -> b o sigma^-1
        negated = -c
        for g, cg in col.items():
            image = by_blocks[image_of(blocks[g])]
            cg *= negated if (pairs[g] & inversions).bit_count() & 1 else c
            cg += out.get(image, 0)
            if cg:
                out[image] = cg
            else:
                del out[image]

    def extend(self, column, vec):
        """Apply an equivariant map, known by its ``column`` map on the orbit
        representatives of the faces of ``vec``, to a chain.  A face off its
        representative takes sigma of the representative's column."""
        out = {}
        for f, c in vec.items():
            rep = self.rep[f]
            col = column(rep)
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

    The faces are known by their ``FaceIndex`` numbers.  F sends a vertex
    to 1 and G sends 1 to the average of the vertices; d on k is zero, and
    d_big is the boundary of ``FaceIndex``.  H is equivariant under
    S_n x <nu>: its columns on the orbit representatives (one standard face
    per composition of n) are the stored data of ``stored_homotopy(n)``,
    and it reaches any other face through the action.  ``columns`` holds
    the columns of H built so far, face number -> the integer ``Vector`` of
    (2N^2)^2 H, N = n!, and H is that column over ``scale`` = (2N^2)^2.
    The columns are built by a ``HomotopyColumns`` of the face index, and F,
    G and H close over it and the face index, not over the contraction, so
    that a contraction is freed by reference counting.  A rank with no
    stored columns is refused before its faces are built.
    """

    def __init__(self, n):
        self.n = n
        stored = stored_homotopy(n)
        self.faces = faces = FaceIndex(n)
        self._homotopy = homotopy = HomotopyColumns(faces, stored)
        self.scale = scale = homotopy.scale
        self.columns = homotopy.columns
        vertices = faces.by_size[n]
        nfact = math.factorial(n)
        super().__init__(
            lambda f: Vector({(): 1} if f in vertices else {}),
            lambda _: Vector(dict.fromkeys(vertices, 1), nfact),
            lambda f: exact_sum([(homotopy.column(f).terms, 1, scale)]),
            faces.differential,
            lambda _: Vector({}),
        )
        self._plans = {}  # (composition, letter parities) -> compiled cobar_h
        self._pickers = {}  # block indices of a plan face -> (picker, block mask)
        self._letters = {}  # block of generators -> (sign, letter), or None

    def homotopy_column(self, face):
        """(2N^2)^2 H(face), an integer ``Vector`` over face numbers."""
        return self._homotopy.column(face)

    def cobar_homotopy(self, x, live=None):
        """``cobar_h`` on a cobar word of rank n.

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

        Given ``live``, a predicate on letters, the faces none of whose
        letters pass it are skipped too, by the mask of the live blocks, and
        a word with no live block is zero: that is the homotopy's part on
        the words that a map killing every letter that fails ``live``
        reads, with the same terms in the same order.  Without ``live``,
        every block that does not die is live.
        """
        gens = tuple(g.shifted(1) for w in x.letters for g in w.letters)
        shape = (tuple(w.rank for w in x.letters), tuple(g.degree % 2 for g in gens))
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = self._compile_plan(x)
        positions, terms, den = plan
        letters = self._letters
        found = []
        dead = negative = alive = 0
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
                if live is None or live(entry[1]):
                    alive |= 1 << k
                found.append(entry[1])
        if not alive:
            return Vector({})
        out = {}  # letters of a cobar word -> its integer coefficient
        for pick, mask, coeff, negated in terms:
            if mask & dead or not mask & alive:
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
        c theta_sign(f) -(-1)^|gens| / gamma over ``scale``, for the entry c
        of the stored column, each face's blocks read by its number, and
        gamma = +-1; the plan holds each as an integer over one denominator,
        reduced by the gcd of them all."""
        gens, face, gamma = theta_factor(x)
        degs = [g.degree for g in gens]
        sign = (-1 if sum(degs) % 2 == 0 else 1) * int(gamma)
        faces = self.faces.faces
        positions = {}  # position set of a block -> its index
        entries = []
        for g, c in self.homotopy_column(self.faces.index[face]).terms.items():
            f = faces[g]
            indices = tuple(
                positions.setdefault(tuple(i - 1 for i in b), len(positions))
                for b in f.blocks
            )
            entries.append((indices, sign * c * theta_sign(degs, f)))
        den = self.scale
        common = math.gcd(den, *(c for _, c in entries))
        den //= common
        terms = []
        for indices, c in entries:
            coeff = c // common
            pick = self._pickers.get(indices)
            if pick is None:
                pick = self._pickers[indices] = (_picker(indices), sum(1 << k for k in indices))
            terms.append((*pick, coeff, -coeff))
        return tuple(positions), terms, den


class HomotopyColumns:
    """The columns of the permutahedron contraction's homotopy on a
    ``FaceIndex``, built on demand and stored: the stored columns of the
    orbit representatives (``stored_homotopy``), read onto face numbers,
    and sigma of them on every other face."""

    def __init__(self, faces, stored):
        self.faces = faces
        self.scale = (2 * math.factorial(faces.n) ** 2) ** 2
        number = {_block_key(b): i for i, b in enumerate(faces._blocks)}
        # representative -> (2N^2)^2 H column, in the stored order
        self._stored = {number[rep]: {number[g]: c for g, c in col}
                        for rep, col in stored.items()}
        self.columns = {}

    def column(self, face):
        """(2N^2)^2 H(face), an integer ``Vector`` over face numbers, built
        once and stored."""
        col = self.columns.get(face)
        if col is None:
            col = self.faces.extend(self._stored.__getitem__, {face: 1})
            col = self.columns[face] = Vector(col)
        return col


def _block_key(blocks):
    """The key of a face in the stored homotopy: its block vector as a
    string of digits, the block of each element of {1..n} in turn."""
    return "".join(map(str, blocks))


# zlib.crc32 of data/homotopy/n<N>.json, the stored columns of the rank-N
# homotopy, as the generator (``main``) wrote them; no contraction of a rank
# missing here is built
HOMOTOPY_CRC32 = {
    1: 0xad9ff6df,
    2: 0x68ba454b,
    3: 0x3ae1de76,
    4: 0x8a484533,
    5: 0x16b00cad,
    6: 0xd6b8cd0e,
}


def _homotopy_file(n):
    """The stored homotopy of rank n, a resource of the package."""
    return resources.files("enveloping.data").joinpath("homotopy").joinpath("n%d.json" % n)


def stored_homotopy(n):
    """The stored columns of the rank-n homotopy on the standard faces: the
    standard face's block vector (``_block_key``) -> [[face block vector,
    integer of (2N^2)^2 H]], each column in the order the repair gave it.
    A rank with no stored file raises ValueError, which names the largest
    stored rank, and a file that does not match its pinned crc32 raises
    RuntimeError."""
    if n not in HOMOTOPY_CRC32:
        raise ValueError("no stored homotopy for the rank-%d permutahedron; the largest "
                         "stored rank is %d" % (n, max(HOMOTOPY_CRC32)))
    data = _homotopy_file(n).read_bytes()
    if zlib.crc32(data) != HOMOTOPY_CRC32[n]:
        raise RuntimeError("stored homotopy n%d.json does not match its pinned crc32" % n)
    return json.loads(data)


# The generator of the stored homotopy, and the only code that solves:
# ``main`` runs it, and no run of the engine reaches it.


class HomotopySolve:
    """The homotopy on the orbit representatives of a ``FaceIndex``, solved:
    the raw solve of every face, then per representative the average, the
    projection and the repair, each built on demand and stored, and scaled
    to integers: ``_solve_homotopy`` gives N Hraw, N = n!, ``_symmetrize``
    N^2 A, ``_project`` 2N^2 H' and ``repair`` (2N^2)^2 H, the stored
    column."""

    def __init__(self, faces):
        self.faces = faces
        # representative -> [(face, N Hraw column)] over its orbit, until
        # ``_symmetrize`` has read them
        self.raw = {}
        for f, col in _solve_homotopy(faces).items():
            self.raw.setdefault(faces.rep[f], []).append((f, col))

    @memo_method
    def _symmetrize(self, rep):
        """N^2 A(rep), A(rep) = 1/n! sum over sigma in S_n of sigma Hraw(sigma^-1 rep).

        sigma^-1 rep = +-f exactly when sigma = h sigma_f^-1, with sigma_f
        carrying rep onto f and h in the stabilizer S_m1 x ... x S_mk of rep,
        so the sum runs once over the orbit and once over the stabilizer.
        The raw columns of the orbit are read only here, and dropped: at
        n = 6 the vertex columns alone hold over half a million terms.
        """
        faces = self.faces
        orbit_sum = {}
        for f, col in self.raw.pop(rep, ()):
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

    @memo_method
    def _project(self, rep):
        """2N^2 H'(rep), H' = (1 - GF) Havg (1 - GF), Havg = (A + nu A nu) / 2.

        GF(rep) is a multiple of the vertex sum G(1), which S_n fixes and nu
        fixes up to sign, so Havg(G(1)) is the group average of Hraw(G(1)).
        The degree-0 solve makes Hraw(G(1)) zero; that is checked here
        instead of averaging G(1) vertex by vertex.  The GF on the left is
        zero: Havg lowers the degree, and only the vertices have degree 0.
        """
        faces = self.faces
        if rep in faces.by_size[faces.n]:
            vertex_sum = {}
            for _, col in self.raw.get(rep, ()):
                axpy(vertex_sum, col)
            if vertex_sum:
                raise RuntimeError("raw homotopy does not kill the vertex average")
        symmetrize = self._symmetrize
        y = faces.extend(symmetrize, {rep: 1})
        sign, image = faces.nu[rep]
        reflected = faces.extend(symmetrize, {image: sign})
        axpy(y, {faces.nu[g][1]: faces.nu[g][0] * c for g, c in reflected.items()})
        return y

    def repair(self, rep):
        """(2N^2)^2 H''(rep), H'' = H' d H': the stored column of the
        representative ``rep``."""
        faces, project = self.faces, self._project
        once = faces.extend(project, {rep: 1})
        return faces.extend(project, _apply(once, faces.boundary))


def _solve_homotopy(faces):
    """N Hraw by face number, N = n!, where dHraw + Hraw d = 1 - GF, solved
    degreewise; not yet equivariant.

    The constraints are scaled by N, so that N(1 - GF) sends a face f to
    N f - F(f) (sum of vertices), and the elimination runs over the
    integers: the boundary entries are +-1, and each pivot lead divides the
    entries it eliminates (``Echelon`` raises RuntimeError where one does
    not).  A face reduces to N Hraw of itself; a vertex v, through
    N(1 - GF)(v), to N^2 Hraw(v), which is divided by N exactly
    (``_quotient`` raises RuntimeError on a remainder).  Reduction is
    linear, so the vertex sum is reduced once and each vertex alone.
    """
    n, by_size = faces.n, faces.by_size
    N = math.factorial(n)
    H = {}
    # constraints for the next degree: echelon of d-columns with rhs combos
    pending = Echelon()
    for d in range(1, n):
        # define H on this degree from the constraints accumulated below it
        for i in by_size[d]:
            # reduce() accumulates tags negatively
            _, combo = pending.reduce({i: 1})
            if combo:
                H[i] = {j: -c for j, c in combo.items()}
        # record constraints H(d f) = N(1 - GF)(f) - d(H(f)) for the next
        # degree; off the vertices, N(1 - GF)(f) = N f
        nxt = Echelon()
        for i in by_size[d]:
            rhs = {i: N}
            if i in H:
                axpy(rhs, _apply(H[i], faces.boundary), -1)
            df = faces.boundary[i]
            if df:
                fresh, acc = nxt.insert(df, rhs)
                if not fresh and acc:
                    raise RuntimeError("inconsistent homotopy constraint at %r"
                                       % (faces.faces[i],))
            elif rhs:
                raise RuntimeError("inconsistent homotopy constraint at %r"
                                   % (faces.faces[i],))
        pending = nxt
    # degree 0, on the canonical split im(d) + span of the vertex sum.
    # N(1 - GF)(v) = N v - (vertex sum) reduces, by linearity, to N times
    # v's residual and combo c_v minus the vertex sum's; the residual must
    # vanish, and the combo N c_v - c_sum is -N (N Hraw(v)).  Every tag
    # N f - d(N Hraw f) is a multiple of N, so that combo is, and so c_sum
    # is; a remainder raises RuntimeError
    sum_residual, sum_combo = pending.reduce(dict.fromkeys(by_size[n], 1))
    shared = {j: _quotient(c, N) for j, c in sum_combo.items()}
    for i in by_size[n]:
        residual, combo = pending.reduce({i: 1})
        residual = {j: N * c for j, c in residual.items()}
        axpy(residual, sum_residual, -1)
        if residual:
            raise RuntimeError("degree-0 consistency failed in homotopy solve")
        value = shared.copy()
        axpy(value, combo, -1)
        if value:
            H[i] = value
    return H


def homotopy_data(faces):
    """The stored homotopy of ``faces``' rank, solved: ``stored_homotopy``'s
    map, the standard columns in face-number order."""
    solve = HomotopySolve(faces)
    keys = [_block_key(b) for b in faces._blocks]
    return {keys[rep]: [[keys[g], c] for g, c in solve.repair(rep).items()]
            for rep in sorted(set(faces.rep))}


@lru_cache(maxsize=None)
def build_contraction(n):
    """Memoized equivariant contraction for the n-th permutahedron."""
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
    if word is None:
        return Vector({})
    return Vector({word: theta_sign([g.degree for g in gens], face) * s2})


def standard_face(n, sizes):
    """The composition face [1..m1 | m1+1..m1+m2 | ...]."""
    return OrderedPartition(n, consecutive_blocks(range(1, n + 1), sizes))


def cobar_f(x):
    """Multiplicative projection of a cobar word onto the symmetric algebra."""
    letters = []
    for w in x.letters:
        if w.rank != 1:
            return Vector({})
        letters.append(w.letters[0].shifted(1))
    sign, word = sym_word(letters)
    return Vector({word: sign} if word is not None else {})


def cobar_g(word):
    """Average of all weight-one-letter arrangements of an algebra word: the
    graded average of the cobar word with one desuspended letter per
    generator: integer terms over n!."""
    return symmetrize(Word(COBAR, [desuspended_letter((g,))[1] for g in word.letters]))


def cobar_gf(x):
    """G F on a cobar word."""
    return exact_apply(cobar_f(x), cobar_g)


def theta_factor(x):
    """Coefficient gamma with theta(word_of(x), face_of(x)) = gamma * x: a
    sign, since theta gives one word with coefficient +-1."""
    gens = []
    sizes = []
    for w in x.letters:
        sizes.append(w.rank)
        gens.extend(g.shifted(1) for g in w.letters)
    face = standard_face(x.rank, sizes)
    img = theta(tuple(gens), face)
    gamma = img.terms.get(x, 0)
    if gamma == 0:
        raise RuntimeError("theta normalization failed for %r" % (x,))
    return tuple(gens), face, gamma


def cobar_h(x, live=None):
    """Contracting homotopy on a cobar word via the face-complex homotopy;
    given ``live``, a predicate on letters, only its terms that hold a
    letter passing it (``PermutahedronContraction.cobar_homotopy``)."""
    return build_contraction(x.rank).cobar_homotopy(x, live)


def iota_omega(x):
    """Algebra anti-involution acting by -1 on cobar generators."""
    d = len(x.letters)
    sign = koszul_sign(range(d - 1, -1, -1), [w.degree + 1 for w in x.letters])
    if d % 2:
        sign = -sign
    return Vector({Word(COBAR, reversed(x.letters)): sign})


def main(argv):
    """``python -m enveloping.permutahedra DIR [N_MAX]``: solve the homotopy
    for n = 1..N_MAX and write each rank's standard columns to DIR/n<N>.json,
    printing each n, its face count, the CPU time of the solve and the
    file's crc32, for ``HOMOTOPY_CRC32``."""
    parser = argparse.ArgumentParser(
        prog="python -m enveloping.permutahedra",
        description="Solve the permutahedron homotopy and write its stored columns.")
    parser.add_argument("directory", type=Path,
                        help="where n<N>.json is written, for n = 1..N_MAX")
    parser.add_argument("n_max", metavar="N_MAX", type=int, nargs="?",
                        default=max(HOMOTOPY_CRC32),
                        help="the largest rank written (default: the largest stored)")
    args = parser.parse_args(argv)
    if args.n_max < 1:
        parser.error("N_MAX must be positive")
    args.directory.mkdir(parents=True, exist_ok=True)
    for n in range(1, args.n_max + 1):
        start = time.process_time()
        faces = FaceIndex(n)
        data = json.dumps(homotopy_data(faces), separators=(",", ":")).encode()
        elapsed = time.process_time() - start
        (args.directory / ("n%d.json" % n)).write_bytes(data)
        print("n=%d faces=%d cpu_s=%.3f crc32=0x%08x" % (n, len(faces.faces), elapsed,
                                                         zlib.crc32(data)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
