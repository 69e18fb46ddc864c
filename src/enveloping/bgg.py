"""Twisted cochains, twisted tensor complexes, and the module functors
between coalgebra-side and enveloping-side module categories.

The canonical weight-one projection is a generalized twisted cochain; the
twisted tensor complex it defines is acyclic on every total-weight truncation
(the truncation is an honest subcomplex because every differential piece
preserves or lowers total weight).  The two functors move a module structure
through the perturbed contraction; the round trips are the identity, and the
backward one genuinely uses the homotopy killing one-letter cobar words.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import CheckResult, FiniteComplex, Vector, memo_op, square_zero, sym_word
from .linfty import LInftyModule
from .words import BarWord


def tau_value(word):
    """The canonical twisted cochain: desuspended weight-one projection."""
    if word.weight != 1:
        return Vector()
    sign, w = sym_word([word.letters[0].shifted(1)])
    return Vector.unit(w, sign)


def _tau_inputs(pieces, c):
    """(tau of each piece, c times their coefficients); None if one vanishes."""
    inputs = []
    coeff = Fraction(c)
    for piece in pieces:
        t = tau_value(piece)
        if not t:
            return None
        ((w, cc),) = t.items()
        inputs.append(w)
        coeff *= cc
    return inputs, coeff


def canonical_tau(structure, weight_cap=None):
    """The canonical twisted cochain, with its defining equation verified.

    A failure here signals a sign inconsistency upstream, so it is an error
    rather than a check result.
    """
    result = generalized_cochain_check(structure, weight_cap)
    if not result:
        raise ValueError(
            "the canonical projection is not a twisted cochain at %r"
            % (result.counterexample,)
        )
    return tau_value


def generalized_cochain_check(structure, weight_cap=None):
    """tau d_C + d_A tau = sum_i m_i tau^{x i} Delta^(i) on capped words.

    The quadratic-and-higher side is evaluated through the degree-0 composite
    s tau, whose tensor powers carry no Koszul signs; unwinding the suspension
    conjugation of the products gives the sign (-1)^{i + sum (i-a)(|c_a|+1)}
    on each ordered split (c_1, ..., c_i).
    """
    cap = weight_cap or structure.weight_cap
    C = structure.transfer.Cfull
    for word in C.all_words(cap):
        lhs = C.delta(word).apply(tau_value) + tau_value(word).apply(structure.m1)
        rhs = Vector()
        for parts in range(2, min(word.weight, structure.arity_cap) + 1):
            for split, c in C.iterated_reduced_coproduct(word, parts).items():
                exp = parts
                for a, piece in enumerate(split):
                    exp += (parts - 1 - a) * (piece.degree + 1)
                taus = _tau_inputs(split, c * (-1 if exp % 2 else 1))
                if taus is None:
                    continue
                inputs, coeff = taus
                rhs.accumulate(structure.product(tuple(inputs)), coeff)
        if lhs != rhs:
            return CheckResult(False, word, "twisted cochain equation fails")
    return CheckResult(True)


def _coaction_splits(C, word, parts):
    """Ordered splits (c_0, c_1 .. c_{parts-1}) of a word, for parts >= 2.

    c_0 may be empty (None); the other factors are nonempty.
    """
    out = Vector()
    for split, c in C.iterated_reduced_coproduct(word, parts - 1).items():
        out.add_term((None,) + split, c)
    return out.accumulate(C.iterated_reduced_coproduct(word, parts))


class TwistedComplex:
    """C(L) (x)_tau U(L), truncated by total symmetric weight.

    Basis keys are pairs (coalgebra word or None, algebra word or None); the
    differential preserves or lowers total weight, so the truncation is exact.
    """

    def __init__(self, structure, weight_cap):
        self.structure = structure
        self.weight_cap = weight_cap
        self.C = structure.transfer.Cfull
        gens = structure.algebra.generators
        from .words import sym_words

        self.basis = [(None, None)]
        for wc in range(0, weight_cap + 1):
            cwords = [None] if wc == 0 else self.C.words(wc)
            for cw in cwords:
                for wu in range(0, weight_cap - wc + 1):
                    uwords = [None] if wu == 0 else sym_words(gens, wu)
                    for uw in uwords:
                        if (cw, uw) != (None, None):
                            self.basis.append((cw, uw))
        self.differential = memo_op(self.differential)

    def _m_ext(self, inputs, u):
        """Product with a possibly-unit last argument (strict unitality)."""
        if u is None:
            if len(inputs) == 1:
                return Vector.unit(inputs[0])
            return Vector()
        return self.structure.product(tuple(inputs) + (u,))

    def differential(self, key):
        cw, uw = key
        out = Vector()
        cdeg = 0 if cw is None else cw.degree
        if cw is not None:
            for c2, c in self.C.delta(cw).items():
                out.add_term((c2, uw), c)
        if uw is not None:
            sign = -1 if cdeg % 2 else 1
            for u2, c in self.structure.m1(uw).items():
                out.add_term((cw, u2), sign * c)
        if cw is not None:
            max_s = min(self.structure.arity_cap, cw.weight + 1)
            for s in range(2, max_s + 1):
                for split, c in _coaction_splits(self.C, cw, s).items():
                    c0, pieces = split[0], split[1:]
                    taus = _tau_inputs(pieces, c)
                    if taus is None:
                        continue
                    inputs, coeff = taus
                    deg0 = 0 if c0 is None else c0.degree
                    exp = deg0
                    before = 0
                    for p in pieces[:-1]:
                        before += p.degree
                        exp += before
                    sign = -1 if exp % 2 else 1
                    for u2, c2 in self._m_ext(inputs, uw).items():
                        out.add_term((c0, u2), sign * coeff * c2)
        return out

    def complex(self):
        by_degree = {}
        for key in self.basis:
            cw, uw = key
            deg = (0 if cw is None else cw.degree) + (0 if uw is None else uw.degree)
            by_degree.setdefault(deg, []).append(key)
        return FiniteComplex(by_degree, self.differential, check=True)


def twisted_tensor_acyclicity(structure, weight_cap=None):
    """Homology of the capped twisted tensor complex: one class in degree 0."""
    cap = weight_cap or structure.weight_cap
    cx = TwistedComplex(structure, cap).complex()
    dims = cx.homology_dims()
    ok = dims == {0: 1}
    return CheckResult(ok, None if ok else dims, "" if ok else "homology %r" % dims), dims


def omega_to_enveloping_check(structure, rank_cap=None):
    """The multiplicative extension of tau is a chain map (binary case)."""
    if not structure.algebra.is_dg_lie():
        raise ValueError("the multiplicative extension needs a binary-bracket algebra")
    cap = rank_cap or structure.weight_cap
    from .words import cobar_words

    sgens = structure.transfer.Cfull.sgens

    def rho(x):
        value = None
        for letter in x.letters:
            t = tau_value(letter)
            if not t:
                return Vector()
            value = t if value is None else _m2_vec(structure, value, t)
            if not value:
                return Vector()
        return value

    for r in range(1, cap + 1):
        for x in cobar_words(sgens, r):
            lhs = structure.transfer.d_omega_full(x).apply(rho)
            rhs = rho(x).apply(structure.m1)
            if lhs != rhs:
                return CheckResult(False, x, "algebra map is not a chain map")
    return CheckResult(True)


def _m2_vec(structure, left, right):
    out = Vector()
    for u, cu in left.items():
        for v, cv in right.items():
            out.accumulate(structure.m2(u, v), cu * cv)
    return out


def omega_comparison_check(structure, rank_cap=None):
    """Rank-by-rank homology of the two cobar models agrees (finite odd case).

    Compares the cobar construction of the coalgebra with the cobar
    construction of the bar construction of the enveloping structure; both
    are graded by the number of algebra letters, and each rank piece is a
    finite complex for an odd-concentrated algebra.
    """
    algebra = structure.algebra
    if any(g.degree % 2 == 0 for g in algebra.generators):
        raise ValueError("exact comparison needs an odd-concentrated algebra")
    cap = rank_cap or min(structure.weight_cap, 3)
    from .hpt import COPRODUCT_SIGN
    from .words import bar_words_algebra, cobar_words

    omega_c = {}
    d_omega = structure.transfer.d_omega_full
    for rank in range(1, cap + 1):
        by_degree = {}
        for x in cobar_words(structure.transfer.Cfull.sgens, rank):
            by_degree.setdefault(x.degree, []).append(x)
        omega_c[rank] = FiniteComplex(by_degree, d_omega).homology_dims()

    # the second model: letters are suspended-inverse bar words; the letter
    # differential is the bar differential and the coproduct deconcatenates
    def letter_diff(bar):
        return structure.bar_differential(bar)

    def d_omega_bu(word):
        bars = word  # tuple of BarWords
        out = Vector()
        left = 0
        for j, b in enumerate(bars):
            prefix = -1 if left % 2 else 1
            for b2, c in letter_diff(b).items():
                out.add_term(bars[:j] + (b2,) + bars[j + 1 :], -prefix * c)
            for cut in range(1, b.length):
                first = BarWord(b.letters[:cut])
                second = BarWord(b.letters[cut:])
                sA = -1 if (first.degree + 1) % 2 else 1
                out.add_term(
                    bars[:j] + (first, second) + bars[j + 1 :],
                    COPRODUCT_SIGN * prefix * sA,
                )
            left += b.degree + 1  # degree of the desuspended bar-word letter
        return out

    omega_bu = {}
    pool = bar_words_algebra(algebra.generators, cap, cap)
    for rank in range(1, cap + 1):
        words = {}
        def extend(prefix, remaining):
            if prefix:
                key = tuple(prefix)
                deg = sum(b.degree + 1 for b in prefix)
                words.setdefault(deg, []).append(key)
            for b in pool:
                if b.rank <= remaining:
                    extend(prefix + [b], remaining - b.rank)
        extend([], rank)
        by_degree = {
            deg: [k for k in keys if sum(b.rank for b in k) == rank]
            for deg, keys in words.items()
        }
        by_degree = {d: ks for d, ks in by_degree.items() if ks}
        omega_bu[rank] = FiniteComplex(by_degree, d_omega_bu).homology_dims()

    ok = omega_c == omega_bu
    return CheckResult(ok, None if ok else (omega_c, omega_bu)), omega_c


# ---------------------------------------------------------------------------
# endomorphism operators


class EndOp:
    """A finite-rank operator on the module space, as a column table."""

    __slots__ = ("table",)

    def __init__(self, table=None):
        self.table = {}
        for m, v in (table or {}).items():
            if v:
                self.table[m] = v

    def __bool__(self):
        return bool(self.table)

    def apply(self, m):
        return self.table.get(m, Vector())

    def apply_vec(self, vec):
        out = Vector()
        for m, c in vec.items():
            img = self.apply(m)
            for m2, c2 in img.items():
                out.add_term(m2, c * c2)
        return out

    def compose(self, other):
        """self after other."""
        out = {}
        for m, v in other.table.items():
            img = self.apply_vec(v)
            if img:
                out[m] = img
        return EndOp(out)

    def scaled(self, c):
        return EndOp({m: v.scaled(c) for m, v in self.table.items()})

    def plus(self, other):
        out = dict(self.table)
        op = EndOp(out)
        for m, v in other.table.items():
            merged = op.table.get(m, Vector()) + v
            if merged:
                op.table[m] = merged
            else:
                op.table.pop(m, None)
        return op

    def __eq__(self, other):
        return isinstance(other, EndOp) and self.table == other.table

    def __repr__(self):
        return "EndOp(%r)" % (self.table,)


ZERO_OP = EndOp()


class AInftyModule:
    """Module over the enveloping structure: a bar-word twisting cochain.

    ``cochain``: {BarWord over algebra words: EndOp}; the empty-word slot is
    the module differential, stored separately.
    """

    def __init__(self, structure, basis, d_m, cochain, name=""):
        self.structure = structure
        self.basis = tuple(sorted(basis))
        self.d_m = d_m  # EndOp
        self.cochain = {w: op for w, op in cochain.items() if op}
        self.name = name

    def t(self, bar):
        return self.cochain.get(bar, ZERO_OP)


def module_complex_check(module, arity_cap=None, weight_cap=None):
    """Square-zero of the twisted differential on BU (x) M within caps.

    Evaluation makes the module space a left module over its endomorphisms,
    so the comodule lives on the left: the cochain eats a bar-word suffix and
    the remaining prefix contributes its Koszul sign.
    """
    structure = module.structure
    acap = arity_cap or structure.arity_cap
    wcap = weight_cap or structure.weight_cap
    from .words import bar_words_algebra

    bars = [BarWord(())] + [
        b
        for b in bar_words_algebra(structure.algebra.generators, wcap, acap)
        if b.length <= acap
    ]

    def D(key):
        bar, m = key
        out = Vector()
        if bar.length:
            for b2, c in structure.bar_differential(bar).items():
                out.add_term((b2, m), c)
        sign = -1 if bar.degree % 2 else 1
        for m2, c in module.d_m.apply(m).items():
            out.add_term((bar, m2), sign * c)
        for cut in range(0, bar.length):
            pre = BarWord(bar.letters[:cut])
            post = BarWord(bar.letters[cut:])
            op = module.t(post)
            if not op:
                continue
            pre_sign = -1 if pre.degree % 2 else 1
            for m2, c in op.apply(m).items():
                out.add_term((pre, m2), pre_sign * c)
        return out

    keys = ((bar, m) for bar in bars for m in module.basis)
    return square_zero(keys, D, "module differential squares to %r")


# ---------------------------------------------------------------------------
# the functors


def _rho_cobar(module_l, x):
    """Multiplicative extension of the module twisting to a cobar word."""
    value = None
    for c in x.letters:
        op = _tau_op(module_l, c)
        if not op:
            return ZERO_OP
        value = op if value is None else value.compose(op)
    return value if value is not None else ZERO_OP


def _tau_op(module_l, word):
    table = {}
    for m in module_l.basis:
        v = module_l.tau(word, m)
        if v:
            table[m] = v
    return EndOp(table)


def functor_g(module_l, structure, arity_cap=None, weight_cap=None):
    """From a coalgebra-side module to an enveloping-side module."""
    acap = arity_cap or structure.arity_cap
    wcap = weight_cap or structure.weight_cap
    from .words import bar_words_algebra

    d_m = EndOp({m: module_l.differential(m) for m in module_l.basis})
    cochain = {}
    for bar in bar_words_algebra(structure.algebra.generators, wcap, acap):
        value = ZERO_OP
        image = structure.transfer.con.G(bar)
        for w, c in image.items():
            if w.length != 1:
                continue
            op = _rho_cobar(module_l, w.letters[0])
            if op:
                value = value.plus(op.scaled(c))
        if value:
            cochain[bar] = value
    return AInftyModule(structure, module_l.basis, d_m, cochain,
                        name=module_l.name + ">env")


def functor_f(module_u, arity_cap=None, weight_cap=None):
    """From an enveloping-side module back to a coalgebra-side module."""
    structure = module_u.structure
    wcap = weight_cap or structure.weight_cap
    C = structure.transfer.Cfull
    action = {}
    for word in C.all_words(wcap):
        unit = structure.transfer.unit_inclusion(word)
        value = ZERO_OP
        for bar, c in unit.apply(structure.transfer.con.F).items():
            op = module_u.t(bar)
            if op:
                value = value.plus(op.scaled(c))
        if value:
            action[word] = dict(value.table)
    d_m = {m: module_u.d_m.apply(m) for m in module_u.basis}
    return LInftyModule(structure.algebra, module_u.basis, d_m, action,
                        name=module_u.name + ">coalg")


def roundtrip_gf_check(module_u, arity_cap=None, weight_cap=None):
    """G(F(M)) has exactly the original cochain tables."""
    structure = module_u.structure
    back = functor_g(functor_f(module_u, arity_cap, weight_cap), structure,
                     arity_cap, weight_cap)
    return _same_module(module_u, back)


def roundtrip_fg_check(module_l, structure, arity_cap=None, weight_cap=None):
    """F(G(M)) has exactly the original action tables."""
    forward = functor_g(module_l, structure, arity_cap, weight_cap)
    back = functor_f(forward, arity_cap, weight_cap)
    wcap = weight_cap or structure.weight_cap
    C = structure.transfer.Cfull
    for word in C.all_words(wcap):
        before = _tau_op(module_l, word)
        after = _tau_op(back, word)
        if before != after:
            return CheckResult(False, word, "action tables changed on the round trip")
    if any(module_l.differential(m) != back.differential(m) for m in module_l.basis):
        return CheckResult(False, None, "module differential changed")
    return CheckResult(True)


def _same_module(left, right):
    keys = set(left.cochain) | set(right.cochain)
    for k in sorted(keys, key=lambda b: b.sort_key()):
        if left.t(k) != right.t(k):
            return CheckResult(False, k, "cochain tables differ")
    if left.d_m != right.d_m:
        return CheckResult(False, None, "module differentials differ")
    return CheckResult(True)
