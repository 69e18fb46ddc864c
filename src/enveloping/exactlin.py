"""Exact rational graded linear algebra over named bases.

Generators carry a cohomological degree (differentials have degree +1).
A vector is a ``Vector``, the exact pair (terms, den): integer terms over
one positive denominator, reduced by their gcd (``exact_sum``), and a map
sends a basis key to a ``Vector``; every operation is exact, there is no
floating point anywhere in the package.  ``exact_apply`` is the linear
extension of a map.  ``Fraction`` is read only where a scalar is parsed or
printed and in row reduction over Q.
"""

from __future__ import annotations

import heapq
import itertools
import math
import weakref
from fractions import Fraction
from operator import attrgetter
from typing import NamedTuple


def parse_scalar(text) -> Fraction:
    """Parse a rational from a 'p/q' (or plain integer) string."""
    try:
        return Fraction(str(text))
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (text,)) from None


def format_scalar(n, den=1) -> str:
    """Serialize the rational n / den as an explicit, reduced 'p/q' string."""
    q = Fraction(n, den)
    return "%d/%d" % (q.numerator, q.denominator)


def rationals(vector):
    """The coefficients of a ``Vector`` as 'p/q' strings, the form in which
    the input gives them to ``parse_scalar``."""
    terms, den = vector
    return {w: format_scalar(c, den) for w, c in terms.items()}


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
            yield (inside, *unshuffle(inside, degrees))


def unshuffle(inside, degrees):
    """One unshuffle of graded letters: the increasing positions outside
    the increasing position tuple ``inside``, and the Koszul sign of moving
    the inside letters in front of them."""
    outside = tuple(i for i in range(len(degrees)) if i not in inside)
    return outside, koszul_sign(inside + outside, degrees)


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


class _WordRef(weakref.ref):
    """The intern table's weak reference to a word, with the word's key."""

    __slots__ = ("key",)


def _forget(ref):
    """Drop a dead word from the intern table, unless its key already names
    a new word."""
    table = Word._table
    if table.get(ref.key) is ref:
        del table[ref.key]


class Word:
    """A basis word: a kind and an ordered tuple of letters.

    Words are interned: there is one live object for each (kind, letters),
    so equality and hashing are by identity.  The table holds its words
    weakly, so a word lives only as long as something else holds it: a dead
    word's entry goes with it.  A word dies as soon as its last holder
    does, so a run makes its words again where an earlier run's are gone;
    the table is a plain dict of ``_WordRef``s, which makes that cheap.

    Symmetric words are stored canonically sorted; use ``sym_word`` to build
    them (it returns the Koszul sign of the sort, and None for words that die
    because an odd generator repeats).  Words of one kind are ordered by
    ``sort_key``: rank, then length, then letters; ``<`` compares sort keys,
    so that the letters of a cobar or bar word compare by theirs.
    """

    __slots__ = ("kind", "letters", "__weakref__")

    _table = {}  # (kind, letters) -> _WordRef of the live word

    def __new__(cls, kind, letters):
        key = (kind, tuple(letters))
        ref = cls._table.get(key)
        word = None if ref is None else ref()
        if word is None:
            word = object.__new__(cls)
            word.kind, word.letters = key
            ref = cls._table[key] = _WordRef(word, _forget)
            ref.key = key
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


def live(letters):
    """Whether sorted letters repeat no odd one: whether their symmetric
    word is nonzero."""
    for a, b in zip(letters, letters[1:]):
        if a == b and a.degree % 2:
            return False
    return True


def sym_word(letters):
    """Canonicalize a symmetric word: returns (sign, word) or (0, None)."""
    sign, sorted_letters = merge_sign(letters)
    if not live(sorted_letters):
        return 0, None
    return sign, Word(SYMMETRIC, sorted_letters)


class Vector(NamedTuple):
    """Sparse exact vector: integer ``terms``, a finite map from basis keys
    to nonzero ints, over one positive denominator ``den``.  Built by
    ``exact_sum``, or directly where the terms share no factor with den
    (den = 1, or every term +-1), it is reduced, so that ``==`` is equality
    of vectors.  It unpacks as ``terms, den``, is false when it has no
    terms, and is never changed once built."""

    terms: dict
    den: int = 1

    def __bool__(self):
        return bool(self.terms)

    # a tuple's + and * concatenate and repeat; a vector has neither
    __add__ = __mul__ = __rmul__ = None

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            "%s %r" % (format_scalar(self.terms[w], self.den).removesuffix("/1"), w)
            for w in sorted(self.terms, key=_generic_key))


def _generic_key(word):
    if type(word) is int:  # a basis numbered in order
        return word
    sk = getattr(word, "sort_key", None)
    return sk() if sk else repr(word)


def memo_op(op):
    """Memoize a one-argument op.  The memo dict is the ``memo`` attribute
    of the map returned, and a map that has one is returned as it is, so no
    map is memoized twice.  The map holds ``op`` and its memo; an object
    that stores the map must not be reachable from ``op``, or the two form
    a cycle that only the cyclic collector frees: a method memoized per
    instance is a ``memo_method``."""
    if getattr(op, "memo", None) is not None:
        return op
    cache = {}

    def wrapped(word):
        v = cache.get(word)
        if v is None:
            v = op(word)
            cache[word] = v
        return v

    wrapped.memo = cache
    return wrapped


class memo_method(property):
    """A one-argument method memoized per instance, read as an attribute.

    The memo dict lives on the instance, and the instance never stores the
    map: each read of the attribute returns a fresh map over the instance's
    memo, whose ``memo`` attribute is that dict.  So the instance and its
    memo are freed by reference counting when the last reference to the
    instance goes, and a map taken from an instance keeps the instance
    alive for as long as the map lives.  A read costs a closure, so a
    recursion reads its maps once per call, not once per argument.  The
    unmemoized method is ``fn``, looked up on each read.
    """

    def __init__(self, fn):
        super().__init__(self.bind, doc=fn.__doc__)
        self.fn = fn
        self.key = "_%s_memo" % fn.__name__

    def bind(self, obj):
        """The map of ``obj``: ``fn`` on obj, over obj's memo."""
        memo = obj.__dict__.get(self.key)
        if memo is None:
            memo = obj.__dict__[self.key] = {}
        fn = self.fn

        def bound(arg):
            v = memo.get(arg)
            if v is None:
                v = fn(obj, arg)
                memo[arg] = v
            return v

        bound.memo = memo
        return bound


def memo_recursion(step):
    """The memoized map X with X(word) = step(word, X), for a ``step`` that
    reads X on other words; its memo is its ``memo`` attribute.  X holds
    ``step`` and the memo but never itself: on a miss, ``step`` reads a
    fresh map over the same memo."""
    memo = {}

    def X(word):
        v = memo.get(word)
        return _recursion_step(memo, step, word) if v is None else v

    X.memo = memo
    return X


def _recursion_step(memo, step, word):
    """``memo_recursion``'s value of ``word``, from its memo or computed."""
    v = memo.get(word)
    if v is None:
        v = step(word, lambda w: _recursion_step(memo, step, w))
        memo[word] = v
    return v


class Echelon:
    """Sparse Gaussian elimination on term dicts with combination tracking.

    Pivots are keyed by the minimal basis element (under sort_key) in the
    support of the reduced vector; insertion order is up to the caller, which
    makes the whole reduction deterministic.  Integer input stays integer:
    each pivot lead must then divide the entry it eliminates, or reduction
    raises RuntimeError; ``over_q`` gives the terms of a ``Vector`` for
    elimination over Q.
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
        combo = dict(combo or ())
        vec = dict(vec)
        key, pivots = _generic_key, self.pivots
        # every pivot key met so far; an elimination only brings in keys above
        # its lead, so the heap yields the hits in increasing order
        hits = [k for k in map(key, vec) if k in pivots]
        seen = set(hits)
        heapq.heapify(hits)
        while hits:
            lead, pvec, pcombo = pivots[heapq.heappop(hits)]
            c = vec.get(lead)
            if not c:
                continue
            factor = -_quotient(c, pvec[lead])
            axpy(vec, pvec, factor)
            axpy(combo, pcombo, factor)
            for w in pvec:
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
        lead = min(residual, key=_generic_key)
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
    dicts with integers a and b > 0, as one reduced ``Vector``: integer
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
    return Vector(out, den)


def vector_sum(*vectors):
    """The sum of ``Vector``s, as one ``Vector``."""
    return exact_sum([(terms, 1, den) for terms, den in vectors])


def exact_apply(vector, op):
    """The linear extension of a map ``op``, basis key -> ``Vector``, to a
    ``Vector``."""
    terms, den = vector
    parts = []
    for w, c in terms.items():
        image, d = op(w)
        parts.append((image, c, den * d))
    return exact_sum(parts)


def over_q(vector):
    """The coefficients of a ``Vector`` as Fractions, a term dict for
    ``Echelon`` over Q."""
    terms, den = vector
    return {w: Fraction(c, den) for w, c in terms.items()}


def rank_of(vectors):
    """The rank over Q of ``Vector``s."""
    ech = Echelon()
    for v in vectors:
        ech.insert(over_q(v))
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
        dd = exact_apply(d(key), d)
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
    a map from basis keys to ``Vector``s, memoized.

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
        F, G, H, d_big, d_small = self.F, self.G, self.H, self.d_big, self.d_small
        zero = Vector({})
        for w in small_words:
            g = G(w)
            if exact_apply(g, F) != Vector({w: 1}):
                return CheckResult(False, w, "FG")
            if exact_apply(g, H) != zero:
                return CheckResult(False, w, "HG")
            if exact_apply(g, d_big) != exact_apply(d_small(w), G):
                return CheckResult(False, w, "G chain map")
        for w in big_words:
            f, h, d = F(w), H(w), d_big(w)
            # 1 - GF = dH + Hd
            gf_dh_hd = vector_sum(exact_apply(f, G), exact_apply(h, d_big), exact_apply(d, H))
            if gf_dh_hd != Vector({w: 1}):
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


def consecutive_blocks(items, sizes):
    """``items`` cut into consecutive blocks of the given sizes, as tuples."""
    items = tuple(items)
    return [items[end - m : end] for m, end in zip(sizes, itertools.accumulate(sizes))]


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
