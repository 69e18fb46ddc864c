"""Cellular chains on permutahedra and the equivariant contraction.

Faces of the n-th permutahedron are ordered partitions of {1..n}; the chain
complex carries a left symmetric-group action and a block-reversal involution,
and contracts equivariantly onto its degree-0 homology.  The homotopy is
solved once on every face, then averaged and repaired only on the orbit
representatives, one standard face per composition of n; the action carries
it to every other face.  Transporting the contraction along the face/cobar
dictionary yields the contracting homotopy of the cobar construction of a
symmetric coalgebra; each contraction compiles that transport once per shape
of cobar word.
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
from .words import (
    CobarWord,
    desuspended_letter,
    desuspended_word,
    desuspension_sign,
)


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


def _face(n, blocks):
    """An OrderedPartition from increasing blocks already known to partition
    {1..n}, e.g. the image of a valid face under a permutation."""
    face = object.__new__(OrderedPartition)
    face.n = n
    face.blocks = blocks
    face._hash = hash((n, blocks))
    return face


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
    """Left action of a permutation of {1..n} (one-line: sigma[i-1] is the
    image of i)."""
    sign = 1
    new_blocks = []
    for block in face.blocks:
        image = [sigma[x - 1] for x in block]
        sign *= perm_parity(image)
        new_blocks.append(tuple(sorted(image)))
    return sign, _face(face.n, tuple(new_blocks))


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

    F is the vertex augmentation and G the normalized average of vertices.
    H starts from a degreewise exact solve on every face, is averaged over
    the group S_n x <nu> and repaired to satisfy the side conditions:
    H' = (1 - GF) Havg (1 - GF), then H = H' d H'.  Every stage is
    equivariant, so it is computed, on demand, only on the orbit
    representatives (one standard face per composition of n) and reaches any
    other face through the action.  ``columns`` holds the columns of H built
    so far.
    """

    def __init__(self, n):
        self.n = n
        self.vertices = enumerate_faces(n, n)
        self._nfact = math.factorial(n)
        self._raw = _solve_homotopy(n)
        self._symmetrized = {}  # representative -> A column
        self._projected = {}  # representative -> H' column
        self.columns = {}
        self._plans = {}  # (composition, letter parities) -> compiled cobar_h
        self._letters = {}  # block of generators -> (sign, letter), or None

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
            out.accumulate(self._column(f), c)
        return out

    def GF(self, vec):
        return self.G(self.F(vec))

    def homotopy_column(self, face):
        return self._column(face)

    def _column(self, face):
        col = self.columns.get(face)
        if col is None:
            col = self.columns[face] = _extend(self.columns, self._repair, Vector.unit(face))
        return col

    def cobar_homotopy(self, x):
        """``cobar_h`` on a cobar word of rank n.

        The value is the sum of c theta(gens, f) over the column of x's
        standard face, times -(-1)^|gens| / gamma.  All of it but the sort
        sign and word of each block's letter depends only on the composition
        of x and the parities of its letters, so it is compiled once per such
        shape: each face as indices into the shape's distinct blocks of
        positions, with one coefficient.  A call looks up each block's letter
        (interned per block of generators) and multiplies out the faces.
        """
        gens = tuple(g.shifted(1) for w in x.letters for g in w.letters)
        shape = (tuple(w.weight for w in x.letters), tuple(g.degree % 2 for g in gens))
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = self._compile_plan(x)
        positions, terms = plan
        letters = self._letters
        found = []
        for block in positions:
            block = tuple(gens[i] for i in block)
            if block not in letters:
                sign, letter = desuspended_letter(block)
                letters[block] = None if letter is None else (sign, letter)
            found.append(letters[block])
        out = Vector()
        for indices, coeff, negated in terms:
            word = []
            sign = 1
            for k in indices:
                entry = found[k]
                if entry is None:
                    break
                sign *= entry[0]
                word.append(entry[1])
            else:
                out.add_term(CobarWord(word), coeff if sign > 0 else negated)
        return out

    def _compile_plan(self, x):
        gens, face, gamma = theta_factor(x)
        degs = [g.degree for g in gens]
        scale = Fraction(-1 if sum(degs) % 2 == 0 else 1, gamma)
        positions = {}  # position set of a block -> its index
        terms = []
        for f, c in self.homotopy_column(face).items():
            indices = tuple(
                positions.setdefault(tuple(i - 1 for i in b), len(positions))
                for b in f.blocks
            )
            coeff = scale * c * theta_sign(degs, f)
            terms.append((indices, coeff, -coeff))
        return tuple(positions), terms

    def _symmetrize(self, rep):
        """A(rep) = 1/n! sum over sigma in S_n of sigma Hraw(sigma^-1 rep).

        sigma^-1 rep = +-f exactly when sigma = h sigma_f^-1, with sigma_f
        carrying rep onto f and h in the stabilizer S_m1 x ... x S_mk of rep,
        so the sum runs once over the orbit and once over the stabilizer.
        """
        orbit_sum = Vector()
        for f, col in self._raw.items():
            sigma, r = _orbit(f)
            if r == rep:
                inverse = [0] * self.n
                for i, x in enumerate(sigma, 1):
                    inverse[x - 1] = i
                _transport(orbit_sum, inverse, col, 1)
        out = Vector()
        if orbit_sum:
            for parts in itertools.product(*map(itertools.permutations, rep.blocks)):
                h = tuple(x for part in parts for x in part)
                sign, _ = act(h, rep)
                _transport(out, h, orbit_sum, sign)
        return out.scaled(Fraction(1, self._nfact))

    def _project(self, rep):
        """H'(rep) = (1 - GF) Havg (1 - GF)(rep), Havg = (A + nu A nu) / 2.

        GF(rep) is a multiple of the vertex sum G(1), which S_n fixes and nu
        fixes up to sign, so Havg(G(1)) is the group average of Hraw(G(1)).
        The degree-0 solve makes Hraw(G(1)) zero; that is checked here
        instead of averaging G(1) vertex by vertex.
        """
        x = Vector.unit(rep)
        if self.F(x) and self.G(1).apply(self._raw.get):
            raise RuntimeError("raw homotopy does not kill the vertex average")
        y = _extend(self._symmetrized, self._symmetrize, x)
        y.accumulate(nu_vector(_extend(self._symmetrized, self._symmetrize, nu_vector(x))))
        y = y.scaled(Fraction(1, 2))
        return y - self.GF(y)

    def _repair(self, rep):
        """H''(rep) = H' d H'(rep)."""
        once = _extend(self._projected, self._project, Vector.unit(rep))
        return _extend(self._projected, self._project, once.apply(boundary))


def _orbit(face):
    """(sigma, representative): sigma carries the standard face of the same
    block sizes onto ``face`` block by block in order, with sign +1."""
    sigma = tuple(x for b in face.blocks for x in b)
    return sigma, standard_face(face.n, [len(b) for b in face.blocks])


def _extend(memo, column, vec):
    """Apply an equivariant map, known by ``column`` on the orbit
    representatives (memoized in ``memo``), to a chain.  A face off its
    representative takes sigma of the representative's column, added term
    by term."""
    out = Vector()
    for f, c in vec.items():
        sigma, rep = _orbit(f)
        col = memo.get(rep)
        if col is None:
            col = memo[rep] = column(rep)
        if f == rep:
            out.accumulate(col, c)
        else:
            _transport(out, sigma, col, c)
    return out


def _transport(out, sigma, col, c):
    """out += c sigma(col), term by term: ``act`` is a bijection on faces."""
    negated = -c
    for g, cg in col.items():
        sign, image = act(sigma, g)
        out.add_term(image, (c if sign > 0 else negated) * cg)


def _solve_homotopy(n):
    """A homotopy with dH + Hd = 1 - GF, solved degreewise; not yet equivariant."""
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


def cobar_h(x):
    """Contracting homotopy on a cobar word via the face-complex homotopy."""
    return build_contraction(x.rank).cobar_homotopy(x)


def iota_omega(x):
    """Algebra anti-involution acting by -1 on cobar generators."""
    degs = [w.degree + 1 for w in x.letters]
    d = len(degs)
    sign = -1 if d % 2 else 1
    cross = sum(degs[i] * degs[j] for i in range(d) for j in range(i + 1, d))
    if cross % 2:
        sign = -sign
    return Vector.unit(CobarWord(tuple(reversed(x.letters))), sign)
