"""Cellular chains on permutahedra and the equivariant contraction.

Faces of the n-th permutahedron are ordered partitions of {1..n}; the chain
complex carries a left symmetric-group action and a block-reversal involution,
and contracts equivariantly onto its degree-0 homology.  Transporting the
contraction along the face/cobar dictionary yields the contracting homotopy
of the cobar construction of a symmetric coalgebra.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .exactlin import (
    Echelon,
    FiniteComplex,
    Vector,
    koszul_sign,
    perm_parity,
    sym_word,
    unshuffles,
)
from .words import CobarWord, desuspend_blocks, vector_product

ZERO_F = Fraction(0)
ONE_F = Fraction(1)


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

    @property
    def dim(self):
        return self.n - self.d

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
    """All ordered partitions of {1..n} with d blocks, deterministic order."""
    if not (1 <= d <= n):
        raise ValueError("need 1 <= d <= n")
    out = []

    def rec(blocks, remaining):
        if not remaining:
            if len(blocks) == d:
                out.append(OrderedPartition(n, blocks))
            return
        if len(blocks) > d:
            return
        # place the smallest remaining element into an existing block or a new one
        x = remaining[0]
        rest = remaining[1:]
        for i, b in enumerate(blocks):
            rec(blocks[:i] + [b + [x]] + blocks[i + 1 :], rest)
        if len(blocks) < d:
            # a new block can open in any position
            for i in range(len(blocks) + 1):
                rec(blocks[:i] + [[x]] + blocks[i:], rest)

    rec([], list(range(1, n + 1)))
    out.sort(key=lambda f: f.sort_key())
    return out


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


def act(sigma, face):
    """Left action of a permutation (tuple: sigma[i-1] is the image of i)."""
    sign = 1
    new_blocks = []
    for block in face.blocks:
        image = [sigma[x - 1] for x in block]
        order = sorted(range(len(image)), key=lambda i: image[i])
        sign *= perm_parity(order)
        new_blocks.append(tuple(sorted(image)))
    return sign, OrderedPartition(face.n, new_blocks)


def act_vector(sigma, vec):
    out = Vector()
    for f, c in vec.items():
        s, g = act(sigma, f)
        out.add_term(g, s * c)
    return out


def nu(face):
    """Block-reversal involution with its orientation sign."""
    n, d = face.n, face.d
    sizes = [len(b) for b in face.blocks]
    cross = 0
    for i in range(d):
        for j in range(i + 1, d):
            cross += sizes[i] * sizes[j]
    exponent = n * (d - 1) + (d - 1) * (d - 2) // 2 + cross
    sign = -1 if exponent % 2 == 0 else 1
    return sign, OrderedPartition(n, tuple(reversed(face.blocks)))


def nu_vector(vec):
    out = Vector()
    for f, c in vec.items():
        s, g = nu(f)
        out.add_term(g, s * c)
    return out


def chain_complex(n):
    faces = {}
    for d in range(1, n + 1):
        faces[-(n - d)] = enumerate_faces(n, d)
    return FiniteComplex(faces, boundary, check=False)


class PermutahedronContraction:
    """Equivariant contraction (F, G, H) of the face complex onto k.

    F is the vertex augmentation, G the normalized average of vertices, and H
    a homotopy built by a degreewise exact solve, averaged over the group and
    repaired to satisfy the side conditions.  H kills the top cell for degree
    reasons; ``top_cell_fault`` installs a deliberate violation of that (used
    only by regression tests downstream).
    """

    def __init__(self, n, top_cell_fault=False):
        self.n = n
        self.vertices = enumerate_faces(n, n)
        self.top_cell = enumerate_faces(n, 1)[0]
        self._nfact = math.factorial(n)
        self.columns = _build_homotopy(n)
        if top_cell_fault:
            self.columns = dict(self.columns)
            self.columns[self.top_cell] = Vector.unit(self.top_cell)

    def F(self, vec):
        total = Fraction(0)
        for f, c in vec.items():
            if f.d == f.n:
                total += c
        return total

    def G(self, scalar):
        out = Vector()
        q = Fraction(scalar, self._nfact)
        for v in self.vertices:
            out.add_term(v, q)
        return out

    def H(self, vec):
        out = Vector()
        for f, c in vec.items():
            col = self.columns.get(f)
            if col:
                for g, c2 in col.items():
                    out.add_term(g, c * c2)
        return out

    def GF(self, vec):
        return self.G(self.F(vec))

    def homotopy_column(self, face):
        return self.columns.get(face, Vector())


def _group_elements(n):
    return list(itertools.permutations(range(1, n + 1)))


def _build_homotopy(n):
    """Solve dH + Hd = 1 - GF degreewise, average, enforce side conditions."""
    faces_by_deg = {-(n - d): enumerate_faces(n, d) for d in range(1, n + 1)}
    degrees = sorted(faces_by_deg)
    nfact = math.factorial(n)

    def proj(vec):  # 1 - GF
        out = vec.copy()
        total = sum((c for f, c in vec.items() if f.d == f.n), Fraction(0))
        if total:
            q = Fraction(total, nfact)
            for v in faces_by_deg[0]:
                out.add_term(v, -q)
        return out

    H = {}
    # constraints for the next degree: echelon of d-columns with rhs combos
    pending = Echelon()
    for p in degrees:
        # define H on this degree from the constraints accumulated below it
        for f in faces_by_deg[p]:
            x = Vector.unit(f)
            if p == 0:
                # canonical split: im(d) + span of the vertex sum
                x = proj(x)
            residual, combo = pending.reduce(x)
            if p == 0 and residual:
                raise RuntimeError("degree-0 consistency failed in homotopy solve")
            value = -1 * combo  # reduce() accumulates tags negatively
            if value:
                H[f] = value
        # record constraints H(d f) = (1 - GF)(f) - d(H(f)) for the next degree
        if p == degrees[-1]:
            break
        nxt = Echelon()
        for f in faces_by_deg[p]:
            rhs = proj(Vector.unit(f)) - H.get(f, Vector()).apply(boundary)
            df = boundary(f)
            if df:
                fresh, acc = nxt.insert(df, rhs)
                if not fresh and acc:
                    raise RuntimeError("inconsistent homotopy constraint at %r" % (f,))
            elif rhs:
                raise RuntimeError("inconsistent homotopy constraint at %r" % (f,))
        pending = nxt

    # switch to face indices with precomputed action tables; the averaging
    # and repair passes are pure index shuffles with exact coefficients
    basis = [f for p in degrees for f in faces_by_deg[p]]
    index = {f: i for i, f in enumerate(basis)}
    vertices = [index[f] for f in faces_by_deg[0]]
    Hraw = {}
    for f, col in H.items():
        Hraw[index[f]] = {index[g]: c for g, c in col.items()}

    tables = []
    for sigma in _group_elements(n):
        for use_nu in (False, True):
            perm = [0] * len(basis)
            sign = [0] * len(basis)
            for i, f in enumerate(basis):
                s1, g = act(sigma, f)
                if use_nu:
                    s2, g = nu(g)
                    s1 *= s2
                perm[i] = index[g]
                sign[i] = s1
            tables.append((perm, sign))

    averaged = {}
    order = Fraction(1, 2 * nfact)
    for perm, sign in tables:
        # inverse lookup: column f of g H g^{-1} reads column g^{-1} f of H
        inv = [0] * len(basis)
        for i, j in enumerate(perm):
            inv[j] = i
        for i in range(len(basis)):
            src = inv[i]
            col = Hraw.get(src)
            if not col:
                continue
            s_in = sign[src]  # action signs square to one, so g^{-1} reuses them
            acc = averaged.setdefault(i, {})
            for j, c in col.items():
                k = perm[j]
                cc = c if s_in * sign[j] > 0 else -c
                acc[k] = acc.get(k, ZERO_F) + cc
    Hmat = {}
    for i, col in averaged.items():
        cleaned = {j: c * order for j, c in col.items() if c}
        if cleaned:
            Hmat[i] = cleaned

    bnd = []
    for f in basis:
        bnd.append({index[g]: c for g, c in boundary(f).items()})
    is_vertex = [f.d == f.n for f in basis]

    def apply_proj(col):  # 1 - GF on an index column
        total = sum((c for j, c in col.items() if is_vertex[j]), ZERO_F)
        if not total:
            return col
        out = dict(col)
        q = total / nfact
        for v in vertices:
            c = out.get(v, ZERO_F) - q
            if c:
                out[v] = c
            else:
                out.pop(v, None)
        return out

    def apply_mat(mat, col):
        out = {}
        for j, c in col.items():
            hit = mat.get(j)
            if not hit:
                continue
            for k, c2 in hit.items():
                c3 = out.get(k, ZERO_F) + c * c2
                if c3:
                    out[k] = c3
                else:
                    out.pop(k, None)
        return out

    # side conditions: H' = (1-GF) H (1-GF), then H'' = H' d H'
    Hp = {}
    for i in range(len(basis)):
        col = apply_proj(apply_mat(Hmat, apply_proj({i: ONE_F})))
        if col:
            Hp[i] = col
    Hpp = {}
    for i in range(len(basis)):
        col = apply_mat(Hp, {i: ONE_F})
        dcol = {}
        for j, c in col.items():
            for k, c2 in bnd[j].items():
                c3 = dcol.get(k, ZERO_F) + c * c2
                if c3:
                    dcol[k] = c3
                else:
                    dcol.pop(k, None)
        col = apply_mat(Hp, dcol)
        if col:
            Hpp[i] = col
    return {
        basis[i]: Vector({basis[j]: c for j, c in col.items()})
        for i, col in Hpp.items()
    }


@lru_cache(maxsize=None)
def build_contraction(n):
    """Memoized equivariant contraction for the n-th permutahedron."""
    if n < 1:
        raise ValueError("n must be positive")
    return PermutahedronContraction(n)


@lru_cache(maxsize=None)
def _faulty_contraction(n):
    return PermutahedronContraction(n, top_cell_fault=True)


def theta(gens, face):
    """The face/cobar dictionary on a tensor word of generators.

    ``gens`` is the tuple of unsuspended letters (one per element of {1..n});
    the value is a single signed cobar word over the suspended letters, or
    zero when a block repeats an odd suspended letter.
    """
    n = face.n
    if len(gens) != n:
        raise ValueError("word length must match the face")
    degs = [g.degree for g in gens]
    arrangement = [x - 1 for b in face.blocks for x in b]
    sign = koszul_sign(arrangement, degs)
    if (n - face.d) % 2 and sum(degs) % 2:
        sign = -sign
    s2, word = desuspend_blocks([gens[x - 1] for x in b] for b in face.blocks)
    return Vector.unit(word, sign * s2)


def standard_face(n, sizes):
    """The composition face [1..m1 | m1+1..m1+m2 | ...]."""
    blocks = []
    start = 1
    for m in sizes:
        blocks.append(tuple(range(start, start + m)))
        start += m
    return OrderedPartition(n, blocks)


def cobar_f(x):
    """Multiplicative projection of a cobar word onto the symmetric algebra."""
    letters = []
    for w in x.letters:
        if w.weight != 1:
            return Vector()
        letters.append(w.letters[0].shifted(1))
    sign, word = sym_word(letters)
    if word is None:
        return Vector()
    return Vector.unit(word, sign)


def cobar_g(word):
    """Average of all weight-one-letter arrangements of an algebra word."""
    gens = word.letters
    n = len(gens)
    degs = [g.degree for g in gens]
    fact = math.factorial(n)
    out = Vector()
    for perm in itertools.permutations(range(n)):
        sign = koszul_sign(perm, degs)
        letters = []
        for i in perm:
            _, w = sym_word([gens[i].shifted(-1)])
            letters.append(w)
        out.add_term(CobarWord(tuple(letters)), Fraction(sign, fact))
    return out


def cobar_gf(x):
    return cobar_f(x).apply(cobar_g)


def theta_factor(x):
    """Coefficient gamma with theta(word_of(x), face_of(x)) = gamma * x."""
    gens = []
    sizes = []
    for w in x.letters:
        sizes.append(w.weight)
        gens.extend(g.shifted(1) for g in w.letters)
    face = standard_face(x.rank, sizes)
    img = theta(tuple(gens), face)
    gamma = img.coeff(x)
    if gamma == 0:
        raise RuntimeError("theta normalization failed for %r" % (x,))
    return tuple(gens), face, gamma


def cobar_h(x, faulty=False):
    """Contracting homotopy on a cobar word via the face-complex homotopy."""
    gens, face, gamma = theta_factor(x)
    con = _faulty_contraction(x.rank) if faulty else build_contraction(x.rank)
    chain = con.homotopy_column(face)
    if not chain:
        return Vector()
    word_deg = sum(g.degree for g in gens)
    sign = Fraction(-1 if word_deg % 2 == 0 else 1, gamma)
    out = Vector()
    for f2, c in chain.items():
        img = theta(gens, f2)
        for w, c2 in img.items():
            out.add_term(w, sign * c * c2)
    return out


def iota_omega(x):
    """Algebra anti-involution acting by -1 on cobar generators."""
    degs = [w.degree + 1 for w in x.letters]
    d = len(degs)
    sign = -1 if d % 2 else 1
    cross = sum(degs[i] * degs[j] for i in range(d) for j in range(i + 1, d))
    if cross % 2:
        sign = -sign
    return Vector.unit(CobarWord(tuple(reversed(x.letters))), sign)


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
            [on_letter(letter) for letter in x.letters], lambda ws: (1, CobarWord(ws))
        )

    return on_cobar
