"""Exact rational graded linear algebra over named bases.

Generators carry a cohomological degree (differentials have degree +1).
Vectors and maps are sparse dictionaries with Fraction coefficients; every
operation is exact, there is no floating point anywhere in the package.
Where the transfer adds many rational terms, a vector is held exact as a
pair (terms, den): integer terms over one positive denominator, reduced by
their gcd (``exact_sum``).  ``exact_apply`` is the linear extension of a map
on such pairs, and ``to_vector`` and ``to_pair`` convert between the two
forms.
"""

from __future__ import annotations

import heapq
import itertools
import math
import weakref
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_scalar(text) -> Fraction:
    """Parse a rational from a 'p/q' (or plain integer) string."""
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def format_scalar(q) -> str:
    """Serialize a rational as an explicit 'p/q' string."""
    q = Fraction(q)
    return "%d/%d" % (q.numerator, q.denominator)


class Generator(NamedTuple):
    id: str
    degree: int

    rank = 1  # a generator is one algebra letter

    def shifted(self, by):
        return Generator(self.id, self.degree + by)

    def __repr__(self):
        return "%s[%d]" % (self.id, self.degree)

    def serialize(self):
        return self.id


def koszul_sign(perm, degrees):
    """Koszul sign of a rearrangement of graded letters.

    ``perm`` lists, for each output slot, the index of the input letter put
    there (0-indexed one-line notation).  An inverted pair of odd letters
    contributes -1; everything else is free.
    """
    if len(perm) != len(degrees):
        raise ValueError("permutation and degree list have different lengths")
    sign = 1
    n = len(perm)
    for k in range(n):
        for l in range(k + 1, n):
            if perm[k] > perm[l] and degrees[perm[k]] % 2 and degrees[perm[l]] % 2:
                sign = -sign
    return sign


def perm_parity(perm):
    """Plain sign (-1)^inversions of a permutation, or of any distinct values."""
    sign = 1
    n = len(perm)
    for k in range(n):
        for l in range(k + 1, n):
            if perm[k] > perm[l]:
                sign = -sign
    return sign


def antisymmetric_sign(perm, degrees):
    """Graded antisymmetric sign of a rearrangement: the Koszul sign times
    the plain sign of the permutation."""
    return koszul_sign(perm, degrees) * perm_parity(perm)


def unshuffles(degrees, sizes):
    """Unshuffles of graded letters: (inside, outside, Koszul sign).

    For each subset size in ``sizes``, runs over the position subsets of
    that size in lexicographic order; ``inside`` and ``outside`` are the
    increasing position tuples, and the sign is that of moving the inside
    letters in front of the outside ones.
    """
    n = len(degrees)
    for size in sizes:
        for inside in itertools.combinations(range(n), size):
            chosen = set(inside)
            outside = tuple(i for i in range(n) if i not in chosen)
            yield inside, outside, koszul_sign(inside + outside, degrees)


def merge_sign(letters):
    """Sort letters by (id, degree), returning (koszul sign, sorted tuple).

    Insertion sort; word lengths stay small throughout the package.
    """
    letters = list(letters)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1] > letters[j]:
            if letters[j - 1].degree % 2 and letters[j].degree % 2:
                sign = -sign
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            j -= 1
    return sign, tuple(letters)


def s_power_sign(degrees):
    """Koszul sign of applying s x ... x s to letters of the given degrees.

    The same formula serves for (s^{x m})^{-1} evaluated on suspended
    letters of degrees ``e``: use s_power_sign([e_i + 1]).
    """
    total = 0
    m = len(degrees)
    for i, d in enumerate(degrees):
        total += (m - 1 - i) * d
    return -1 if total % 2 else 1


def conjugation_sign(degrees):
    """Sign of the suspension conjugation (-1)^k s m_k (s^{x k})^{-1} on k
    letters of the given (unsuspended) degrees."""
    sign = s_power_sign(degrees)
    return -sign if len(degrees) % 2 else sign


TENSOR = "tensor"
SYMMETRIC = "symmetric"
COBAR = "cobar"
BAR = "bar"

# kind -> (degree shift of a letter, open, separator, close, letter printer).
# Tensor and symmetric words have generators as letters; a cobar word has
# desuspended symmetric words, a bar word suspended cobar or symmetric words.
_KINDS = {
    TENSOR: (0, "(", "#", ")", attrgetter("id")),
    SYMMETRIC: (0, "(", "*", ")", attrgetter("id")),
    COBAR: (1, "<", "|", ">", lambda w: repr(w)[1:-1]),
    BAR: (-1, "[", " ; ", "]", repr),
}

# ``degree`` and ``rank`` are read on every letter of every coderivation
# term; map over an attrgetter is faster than a generator expression
_degree, _rank = attrgetter("degree"), attrgetter("rank")


class Word:
    """A basis word: a kind and an ordered tuple of letters.

    Words are interned: there is one live object for each (kind, letters),
    so equality and hashing are by identity.  The table holds its words
    weakly, so a word lives only as long as something else holds it.

    Symmetric words are stored canonically sorted; use ``sym_word`` to build
    them (it returns the Koszul sign of the sort, and None for words that die
    because an odd generator repeats).  Words of one kind are ordered by
    ``sort_key``: rank, then length, then letters; ``<`` compares sort keys,
    so that the letters of a cobar or bar word compare by theirs.
    """

    __slots__ = ("kind", "letters", "__weakref__")

    _table = weakref.WeakValueDictionary()

    def __new__(cls, kind, letters):
        key = (kind, tuple(letters))
        word = cls._table.get(key)
        if word is None:
            word = object.__new__(cls)
            word.kind, word.letters = key
            cls._table[key] = word
        return word

    @property
    def degree(self):
        return sum(map(_degree, self.letters)) + _KINDS[self.kind][0] * len(self.letters)

    @property
    def rank(self):
        """The number of algebra letters."""
        return sum(map(_rank, self.letters))

    @property
    def length(self):
        return len(self.letters)

    def sort_key(self):
        return (self.rank, len(self.letters), self.letters, self.kind)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self):
        _, start, sep, end, show = _KINDS[self.kind]
        return start + sep.join(map(show, self.letters)) + end

    def serialize(self):
        return [x.serialize() for x in self.letters]


def sym_word(letters):
    """Canonicalize a symmetric word: returns (sign, word) or (0, None)."""
    sign, sorted_letters = merge_sign(letters)
    for a, b in zip(sorted_letters, sorted_letters[1:]):
        if a == b and a.degree % 2:
            return 0, None
    return sign, Word(SYMMETRIC, sorted_letters)


class Vector:
    """Sparse vector: finite map from basis keys to nonzero Fractions."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def unit(cls, word, coeff=ONE):
        if coeff == 0 or word is None:
            return cls()
        v = cls()
        v.terms[word] = Fraction(coeff)
        return v

    def __bool__(self):
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def copy(self):
        return Vector(self.terms)

    def add_term(self, word, coeff):
        # in-place accumulation; only used while assembling a new vector
        c = self.terms.get(word, ZERO) + coeff
        if c:
            self.terms[word] = c
        else:
            self.terms.pop(word, None)

    def accumulate(self, other, coeff=1):
        """self += coeff * other, in place; only for a vector being assembled."""
        axpy(self.terms, other.terms, coeff)
        return self

    def __add__(self, other):
        return Vector(self.terms).accumulate(other)

    def __sub__(self, other):
        return Vector(self.terms).accumulate(-other)

    def __neg__(self):
        return Vector({w: -c for w, c in self.terms.items()})

    def scaled(self, a):
        a = Fraction(a)
        if a == 0:
            return Vector()
        return Vector({w: a * c for w, c in self.terms.items()})

    def __rmul__(self, a):
        return self.scaled(a)

    def __eq__(self, other):
        return isinstance(other, Vector) and self.terms == other.terms

    def apply(self, op):
        """Linear extension: op maps a basis key to a Vector (or None)."""
        out = Vector()
        for w, c in self.terms.items():
            image = op(w)
            if image:
                out.accumulate(image, c)
        return out

    def coeff(self, word):
        return self.terms.get(word, ZERO)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=_generic_key):
            bits.append("%s %r" % (self.terms[w], w))
        return " + ".join(bits)


def _generic_key(word):
    if type(word) is int:  # a basis numbered in order
        return word
    sk = getattr(word, "sort_key", None)
    return sk() if sk else repr(word)


def memo_op(op):
    """Memoize a one-argument op; on a bound method, one memo per instance."""
    cache = {}

    def wrapped(word):
        v = cache.get(word)
        if v is None:
            v = op(word)
            cache[word] = v
        return v

    return wrapped


class Echelon:
    """Sparse Gaussian elimination over Q with combination tracking.

    Pivots are keyed by the minimal basis element (under sort_key) in the
    support of the reduced vector; insertion order is up to the caller, which
    makes the whole reduction deterministic.  Integer input stays integer:
    each pivot lead must then divide the entry it eliminates, or reduction
    raises RuntimeError.
    """

    def __init__(self):
        self.pivots = {}  # lead key -> (lead word, vec, combo)

    def reduce(self, vec, combo=None):
        """Reduce vec against the pivots; returns (residual, combo_used).

        Every support word matching a pivot lead is eliminated (pivot support
        never reaches below its lead, so elimination in increasing order
        terminates); the residual is the canonical projection along the pivot
        span.  combo_used collects, in the caller's tag space, the pivot-tag
        combination that was subtracted (plus the passed-in seed combo).
        """
        combo = combo.copy() if combo is not None else Vector()
        vec = vec.copy()
        key, pivots = _generic_key, self.pivots
        # every pivot key met so far; an elimination only brings in keys above
        # its lead, so the heap yields the hits in increasing order
        hits = [k for k in map(key, vec.terms) if k in pivots]
        seen = set(hits)
        heapq.heapify(hits)
        while hits:
            lead, pvec, pcombo = pivots[heapq.heappop(hits)]
            c = vec.terms.get(lead)
            if not c:
                continue
            factor = -_quotient(c, pvec.terms[lead])
            axpy(vec.terms, pvec.terms, factor)
            axpy(combo.terms, pcombo.terms, factor)
            for w in pvec.terms:
                k = key(w)
                if k in pivots and k not in seen:
                    seen.add(k)
                    heapq.heappush(hits, k)
        return vec, combo

    def insert(self, vec, combo=None):
        """Insert a vector (with tag combo); returns False if it reduced away."""
        residual, acc = self.reduce(vec, combo)
        if not residual:
            return False, acc
        lead = min(residual.terms, key=_generic_key)
        self.pivots[_generic_key(lead)] = (lead, residual, acc)
        return True, acc

    @property
    def rank(self):
        return len(self.pivots)


def _quotient(a, b):
    """a / b, exact: between integers, an integer or RuntimeError."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if r:
            raise RuntimeError("integer pivot %d does not divide %d" % (b, a))
        return q
    return a / b


def axpy(terms, other, factor=1):
    """terms += factor * other, in place, on term dicts: the one sparse
    update of the package.  A key that cancels is deleted; integer terms
    times an integer factor stay integer."""
    scale = factor != 1
    for w, c in other.items():
        if scale:
            c *= factor
        old = terms.get(w)
        if old is not None:
            c += old
            if not c:
                del terms[w]
                continue
        terms[w] = c


def exact_sum(parts):
    """The sum of (a / b) terms over ``parts`` of (terms, a, b), integer term
    dicts with integers a and b > 0, as one exact pair (terms, den): integer
    terms over the least common denominator, divided by the gcd of den and
    the terms.  The terms add in the order given, so keys come out in the
    order that adding the rationals one by one would give."""
    scaled = []
    den = 1
    for terms, a, b in parts:
        if terms and a:
            g = math.gcd(a, b)
            if g > 1:
                a, b = a // g, b // g
            scaled.append((terms, a, b))
            den = math.lcm(den, b)
    out = {}
    for terms, a, b in scaled:
        axpy(out, terms, a * (den // b))
    g = math.gcd(den, *out.values())
    if g > 1:
        den //= g
        out = {w: c // g for w, c in out.items()}
    return out, den


def exact_apply(pair, op):
    """The linear extension of an exact map ``op``, basis key -> pair, to an
    exact pair: the one exact counterpart of ``Vector.apply``."""
    terms, den = pair
    parts = []
    for w, c in terms.items():
        image, d = op(w)
        parts.append((image, c, den * d))
    return exact_sum(parts)


def to_vector(pair):
    """The ``Vector`` of an exact pair (terms, den)."""
    terms, den = pair
    return Vector({w: Fraction(n, den) for w, n in terms.items()})


def to_pair(vector):
    """The exact pair of a ``Vector``, the inverse of ``to_vector``: integer
    terms over the least common denominator of its coefficients, which is
    the reduced pair."""
    den = math.lcm(*(c.denominator for c in vector.terms.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in vector.items()}, den


def vector_view(op):
    """The ``Vector`` map of an exact map, converted on each call."""
    return lambda word: to_vector(op(word))


def rank_of(vectors):
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


class CheckResult:
    def __init__(self, ok, counterexample=None, detail=""):
        self.ok = ok
        self.counterexample = counterexample
        self.detail = detail

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "pass"
        return "FAIL at %r: %s" % (self.counterexample, self.detail)


def square_zero(keys, d, detail):
    """Fails at the first key where d(d(key)) is nonzero, with detail % (dd,)."""
    for key in keys:
        dd = d(key).apply(d)
        if dd:
            return CheckResult(False, key, detail % (dd,))
    return CheckResult(True)


def agree(keys, lhs, rhs, detail):
    """Fails at the first key where lhs(key) != rhs(key), with ``detail``."""
    for key in keys:
        if lhs(key) != rhs(key):
            return CheckResult(False, key, detail)
    return CheckResult(True)


class Contraction:
    """Big and small complexes with projection, inclusion and homotopy, each
    a map on basis keys.  F, G and H are exact: each returns a pair (terms,
    den), memoized; the differentials d_big and d_small return ``Vector``s.

    All five identities (FG = 1, 1 - GF = dH + Hd and the three side
    conditions) are expected to hold; ``verify_on`` checks them, and that F
    and G are chain maps, on a basis, and fails at the first basis key where
    one breaks, with its name.
    """

    def __init__(self, F, G, H, d_big, d_small):
        self.F = memo_op(F)
        self.G = memo_op(G)
        self.H = memo_op(H)
        self.d_big = memo_op(d_big)
        self.d_small = memo_op(d_small)

    def verify_on(self, big_words, small_words):
        # exact throughout: the differentials are converted once per key, and
        # both sides of each identity compare as reduced pairs
        F, G, H = self.F, self.G, self.H
        d_big, d_small = (memo_op(lambda w, d=d: to_pair(d(w)))
                          for d in (self.d_big, self.d_small))
        zero = ({}, 1)
        for w in small_words:
            g = G(w)
            if exact_apply(g, F) != ({w: 1}, 1):
                return CheckResult(False, w, "FG")
            if exact_apply(g, H) != zero:
                return CheckResult(False, w, "HG")
            if exact_apply(g, d_big) != exact_apply(d_small(w), G):
                return CheckResult(False, w, "G chain map")
        for w in big_words:
            f, h, d = F(w), H(w), d_big(w)
            (gf, a), (dh, b) = exact_apply(f, G), exact_apply(h, d_big)
            hd, c = exact_apply(d, H)
            if exact_sum([({w: 1}, 1, 1), (gf, -1, a)]) != exact_sum([(dh, 1, b), (hd, 1, c)]):
                return CheckResult(False, w, "homotopy identity")
            if exact_apply(h, F) != zero:
                return CheckResult(False, w, "FH")
            if exact_apply(h, H) != zero:
                return CheckResult(False, w, "HH")
            if exact_apply(f, d_small) != exact_apply(d, F):
                return CheckResult(False, w, "F chain map")
        return CheckResult(True)


class FiniteComplex:
    """A finite complex: basis per degree plus a degree +1 differential,
    which is taken to square to zero (``square_zero`` checks that)."""

    def __init__(self, components, differential):
        # components: {degree: sequence of basis keys}
        self.components = {p: tuple(ws) for p, ws in components.items() if ws}
        self.differential = differential

    def basis(self, p):
        return self.components.get(p, ())

    def degrees(self):
        return sorted(self.components)

    def homology_dims(self):
        """Exact homology dimensions per degree via sparse row reduction."""
        ranks = {}
        for p in self.degrees():
            ranks[p] = rank_of([self.differential(w) for w in self.basis(p)])
        dims = {}
        for p in self.degrees():
            dim = len(self.basis(p))
            h = dim - ranks.get(p, 0) - ranks.get(p - 1, 0)
            if h:
                dims[p] = h
        return dims


def symmetrize(word):
    """The graded average of all rearrangements of a word's letters, words of
    its kind, exact: integer terms over n!.  Each permutation is signed by
    the Koszul sign of the letters' degrees in the word, which for a cobar
    letter is one above its own."""
    kind, letters = word.kind, word.letters
    shift = _KINDS[kind][0]
    degs = [x.degree + shift for x in letters]
    terms = {}
    for perm in itertools.permutations(range(len(letters))):
        axpy(terms, {Word(kind, (letters[i] for i in perm)): koszul_sign(perm, degs)})
    return exact_sum([(terms, 1, math.factorial(len(letters)))])


def compositions(total):
    """Ordered compositions of a positive integer, deterministic order."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def set_partitions(items):
    """All set partitions of ``items``, as lists of blocks in a deterministic
    order; each block keeps the order of ``items``."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part
