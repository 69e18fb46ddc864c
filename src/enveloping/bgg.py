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

from .exactlin import (CheckResult, FiniteComplex, Vector, agree, conjugation_sign, exact_apply,
                       exact_sum, memo_method, square_zero, sym_word, vector_sum)
from .linfty import LInftyModule
from .uea import caps_suffice
from .words import sym_words, vector_product


def _tau_inputs(pieces):
    """The images tau c_a of weight-one coalgebra words: the unsuspended
    generator of each, with coefficient 1."""
    return tuple(sym_word([piece.letters[0].shifted(1)])[1] for piece in pieces)


def tau_value(word):
    """The canonical twisted cochain: desuspended weight-one projection."""
    return Vector({_tau_inputs((word,))[0]: 1} if word.rank == 1 else {})


def _arity_needed(structure, weight_cap):
    """The products that the cochain equation and the twisted tensor complex
    read: m_2, and m_k for each bracket arity k that ``weight_cap`` reaches."""
    return max([2] + [k for k in structure.algebra.arities() if k <= weight_cap])


def generalized_cochain_check(structure):
    """tau d_C + d_A tau = sum_i m_i tau^{x i} Delta^(i) on capped words.

    The quadratic-and-higher side is evaluated through the degree-0 composite
    s tau, whose tensor powers carry no Koszul signs; unwinding the suspension
    conjugation of the products gives ``conjugation_sign`` of the degrees of
    tau c_1, ..., tau c_i on each ordered split (c_1, ..., c_i).
    """
    caps = caps_suffice(structure, _arity_needed(structure, structure.weight_cap))
    if not caps:
        return caps
    C = structure.transfer.Cfull

    def lhs(word):
        return vector_sum(exact_apply(C.delta(word), tau_value),
                          exact_apply(tau_value(word), structure.m1))

    return agree(C.all_words(), lhs, lambda word: tau_products(structure, word),
                 "twisted cochain equation fails")


def tau_products(structure, word):
    """The right side of the cochain equation on a coalgebra word:
    sum over 2 <= i <= arity cap of m_i tau^{x i} Delta^(i)(word), each
    split with ``conjugation_sign`` of its tau images' degrees.  tau vanishes
    off weight one, so only the split into single letters, i = the word's
    weight, is read."""
    parts = []
    if 2 <= word.rank <= structure.arity_cap:
        for split, c in structure.transfer.Cfull.letter_splits(word).terms.items():
            inputs = _tau_inputs(split)
            sign = conjugation_sign([w.degree for w in inputs])
            terms, den = structure.product(inputs)
            parts.append((terms, c * sign, den))
    return exact_sum(parts)


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

    def _m_ext(self, inputs, u):
        """Product with a possibly-unit last argument (strict unitality)."""
        if u is None:
            return Vector({inputs[0]: 1} if len(inputs) == 1 else {})
        return self.structure.product(inputs + (u,))

    @memo_method
    def differential(self, key):
        """D(c (x) u) = d_C c (x) u - (-1)^|c| times the sum, over the
        coaction splits (c_0, c_1, ..., c_k) of c with k >= 0, of
        conjugation_sign(|tau c_1|, ..., |tau c_k|, 0) c_0 (x)
        m_{k+1}(tau c_1, ..., tau c_k, u).

        The sign is derived.  With the products' bar components
        b_n(s x_1, ..., s x_n) = (conjugation sign) s m_n(x_1, ..., x_n), as in
        ``hpt.bar_coderivation``, the twisted cochain equation reads
        s tau d_C = sum_{n >= 1} b_n (s tau)^{x n} Delta^(n), where s tau has
        degree 0.  So on C (x) sA the map
            D' = d_C (x) 1 + sum_k (1 (x) b_{k+1})(1 (x) (s tau)^{x k} (x) 1)(Delta^(k) (x) 1)
        squares to zero: where d_C hits c_0 it cancels against d_C (x) 1, b
        being odd, and the rest is sum b(1 (x) b (x) 1) = 0, through the
        cochain equation where d_C hits a piece and coassociativity where two
        b compose.  D = -(1 (x) s)^-1 D' (1 (x) s), with
        (1 (x) s)(c (x) u) = (-1)^|c| c (x) su.  In the k-th term, 1 (x) b_{k+1}
        passes c_0 and (1 (x) s)^-1 passes it back, which cancels;
        b_{k+1}(s tau c_1, ..., s tau c_k, su) is that conjugation sign times
        s m_{k+1}(...), the last slot adding nothing to the sign whatever the
        degree of u, hence the 0 in its place; 1 (x) s
        gives (-1)^|c|, and the overall minus keeps d_C (x) 1 as it is.  At
        k = 0 this is the m_1 term (-1)^|c| c (x) m_1 u.  The Koszul sign of
        (1 (x) m_{k+1})(1 (x) tau^{x k} (x) 1) alone,
        (-1)^(|c_0| + sum_a (k - 1 - a)|c_a|), lacks the factor (-1)^(k(k - 1)/2).
        """
        cw, uw = key
        parts = []
        splits = [((cw,), 1)]
        if cw is not None:
            terms, den = self.C.delta(cw)
            parts.append(({(c2, uw): c for c2, c in terms.items()}, 1, den))
            # (c_0, .., c_k) with c_1, .., c_k single letters, the only ones
            # tau keeps, and k < top: c_0 = cw, or c_0 and a split of the
            # rest of cw into letters, or None and a split of cw into letters
            top = min(self.structure.arity_cap, cw.rank + 1)
            letter_splits = self.C.letter_splits
            for (c0, rest), c in self.C.reduced_coproduct(cw).terms.items():
                if rest.rank < top:
                    splits += [((c0,) + split, c * c2)
                               for split, c2 in letter_splits(rest).terms.items()]
            if cw.rank < top:
                splits += [((None,) + split, c)
                           for split, c in letter_splits(cw).terms.items()]
        outer = 1 if cw is not None and cw.degree % 2 else -1
        for split, c in splits:
            c0, pieces = split[0], split[1:]
            inputs = _tau_inputs(pieces)
            coeff = outer * c * conjugation_sign([w.degree for w in inputs] + [0])
            terms, den = self._m_ext(inputs, uw)
            parts.append(({(c0, u2): c2 for u2, c2 in terms.items()}, coeff, den))
        return exact_sum(parts)

    def complex(self):
        by_degree = {}
        for key in self.basis:
            cw, uw = key
            deg = (0 if cw is None else cw.degree) + (0 if uw is None else uw.degree)
            by_degree.setdefault(deg, []).append(key)
        return FiniteComplex(by_degree, self.differential)


def twisted_tensor_acyclicity(structure, weight_cap):
    """Homology of the capped twisted tensor complex: one class in degree 0.

    The complex needs the products up to m_2 and up to the top bracket arity
    that its weight can reach; below that the caps are too small.  Its
    differential must square to zero before its homology means anything."""
    caps = caps_suffice(structure, _arity_needed(structure, weight_cap))
    if not caps:
        return caps, None
    twisted = TwistedComplex(structure, weight_cap)
    square = square_zero(twisted.basis, twisted.differential,
                         "twisted differential squares to %r")
    if not square:
        return square, None
    dims = twisted.complex().homology_dims()
    ok = dims == {0: 1}
    return CheckResult(ok, None if ok else dims, "" if ok else "homology %r" % dims), dims


# ---------------------------------------------------------------------------
# module operators: ``Vector``s over pairs (m, m') of module generators, the
# coefficient of m' in the image of m


def _compose(pairs):
    """``vector_product`` combine for a chain of operators, rightmost first:
    the pair (m, m'') of a composable path m -> ... -> m''."""
    for (_, target), (source, _) in zip(pairs, pairs[1:]):
        if target != source:
            return 0, None
    return 1, (pairs[0][0], pairs[-1][1])


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


# ---------------------------------------------------------------------------
# the functors


def _rho_cobar(module_l, x):
    """Multiplicative extension of the module twisting to a cobar word: the
    composite of the letters' operators, the last letter acting first."""
    return vector_product([module_l.tau(c) for c in reversed(x.letters)], _compose)


def functor_g(module_l, structure, arity_cap, weight_cap):
    """From a coalgebra-side module to an enveloping-side module."""
    from .words import bar_words_algebra

    cochain = {}
    for bar in bar_words_algebra(structure.algebra.generators, weight_cap, arity_cap):
        # Phi, the one-letter part of the perturbed inclusion, on cobar words
        value = exact_apply(structure.transfer.phi(bar.letters),
                            lambda x: _rho_cobar(module_l, x))
        if value:
            cochain[bar] = value
    return AInftyModule(structure, module_l.basis, module_l.d_m, cochain,
                        name=module_l.name + ">env")


def functor_f(module_u, weight_cap):
    """From an enveloping-side module back to a coalgebra-side module."""
    structure = module_u.structure
    C = structure.transfer.Cfull
    zero = Vector({})
    action = {}
    for word in C.all_words(weight_cap):
        unit = structure.transfer.unit_inclusion(word)
        action[word] = exact_apply(exact_apply(unit, structure.transfer.con.F),
                                   lambda bar: module_u.cochain.get(bar, zero))
    return LInftyModule(structure.algebra, module_u.basis, module_u.d_m, action,
                        name=module_u.name + ">coalg")


def roundtrip_fg_check(module_l, structure, arity_cap, weight_cap):
    """F(G(M)) has exactly the original action tables; it needs m_2."""
    caps = caps_suffice(structure, 2)
    if not caps:
        return caps
    forward = functor_g(module_l, structure, arity_cap, weight_cap)
    back = functor_f(forward, weight_cap)
    tables = agree(structure.transfer.Cfull.all_words(weight_cap), module_l.tau, back.tau,
                   "action tables changed on the round trip")
    if not tables:
        return tables
    if module_l.d_m != back.d_m:
        return CheckResult(False, None, "module differential changed")
    return CheckResult(True)
