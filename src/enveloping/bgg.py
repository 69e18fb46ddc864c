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

from .exactlin import CheckResult, FiniteComplex, Vector, memo_op, sym_word
from .linfty import LInftyModule
from .words import sym_words, vector_product


def tau_value(word):
    """The canonical twisted cochain: desuspended weight-one projection."""
    if word.rank != 1:
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
        for parts in range(2, min(word.rank, structure.arity_cap) + 1):
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
            max_s = min(self.structure.arity_cap, cw.rank + 1)
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


# ---------------------------------------------------------------------------
# module operators: Vectors over pairs (m, m') of module generators, the
# coefficient of m' in the image of m


def _compose(pairs):
    """``vector_product`` combine for a chain of operators, rightmost first:
    the pair (m, m'') of a composable path m -> ... -> m''."""
    for (_, target), (source, _) in zip(pairs, pairs[1:]):
        if target != source:
            return 0, None
    return 1, (pairs[0][0], pairs[-1][1])


def _operator(basis, column):
    """The operator sending each m of ``basis`` to the Vector ``column(m)``."""
    return Vector({(m, m2): c for m in basis for m2, c in column(m).items()})


def _columns(op):
    """An operator as a column table: {m: the Vector of its image of m}."""
    table = {}
    for (m, m2), c in op.items():
        table.setdefault(m, Vector()).add_term(m2, c)
    return table


class AInftyModule:
    """Module over the enveloping structure: a bar-word twisting cochain.

    ``cochain``: {bar word over algebra words: operator}; the empty-word slot
    is the module differential ``d_m``, stored separately.
    """

    def __init__(self, structure, basis, d_m, cochain, name=""):
        self.structure = structure
        self.basis = tuple(sorted(basis))
        self.d_m = d_m
        self.cochain = {w: op for w, op in cochain.items() if op}
        self.name = name

    def t(self, bar):
        return self.cochain.get(bar, Vector())


# ---------------------------------------------------------------------------
# the functors


def _rho_cobar(module_l, x):
    """Multiplicative extension of the module twisting to a cobar word: the
    composite of the letters' operators, the last letter acting first."""
    ops = [_tau_op(module_l, c) for c in reversed(x.letters)]
    return vector_product(ops, _compose)


def _tau_op(module_l, word):
    return _operator(module_l.basis, lambda m: module_l.tau(word, m))


def functor_g(module_l, structure, arity_cap=None, weight_cap=None):
    """From a coalgebra-side module to an enveloping-side module."""
    acap = arity_cap or structure.arity_cap
    wcap = weight_cap or structure.weight_cap
    from .words import bar_words_algebra

    def rho(w):
        return _rho_cobar(module_l, w.letters[0]) if w.length == 1 else None

    d_m = _operator(module_l.basis, module_l.differential)
    cochain = {}
    for bar in bar_words_algebra(structure.algebra.generators, wcap, acap):
        value = structure.transfer.con.G(bar).apply(rho)
        if value:
            cochain[bar] = value
    return AInftyModule(structure, module_l.basis, d_m, cochain,
                        name=module_l.name + ">env")


def functor_f(module_u, weight_cap=None):
    """From an enveloping-side module back to a coalgebra-side module."""
    structure = module_u.structure
    wcap = weight_cap or structure.weight_cap
    C = structure.transfer.Cfull
    action = {}
    for word in C.all_words(wcap):
        unit = structure.transfer.unit_inclusion(word)
        value = unit.apply(structure.transfer.con.F).apply(module_u.cochain.get)
        if value:
            action[word] = _columns(value)
    return LInftyModule(structure.algebra, module_u.basis, _columns(module_u.d_m),
                        action, name=module_u.name + ">coalg")


def roundtrip_fg_check(module_l, structure, arity_cap=None, weight_cap=None):
    """F(G(M)) has exactly the original action tables."""
    forward = functor_g(module_l, structure, arity_cap, weight_cap)
    back = functor_f(forward, weight_cap)
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
