"""L-infinity algebras, their coalgebra differentials, morphisms and modules.

Structure constants are held on canonically sorted words (repeats allowed on
odd generators) and extended by graded antisymmetry.  The induced coderivation
on the weight-truncated symmetric coalgebra of the suspension is the validator
for everything: an input is accepted exactly when it squares to zero.
"""

from __future__ import annotations

import itertools
import math

from .exactlin import (
    Generator,
    Vector,
    agree,
    antisymmetric_sign,
    axpy,
    conjugation_sign,
    exact_apply,
    exact_sum,
    koszul_sign,
    memo_method,
    parse_scalar,
    rationals,
    s_power_sign,
    set_partitions,
    square_zero,
    sym_word,
    unshuffle,
    unshuffles,
)
from .words import sym_words, sym_words_upto, vector_product


class LInftyAlgebra:
    """Generators with degrees plus bracket tables l_k of degree 2 - k.

    ``brackets``: {arity: {sorted generator tuple: {Generator: coefficient}}},
    each coefficient a rational that ``parse_scalar`` reads (an int, a
    Fraction or a 'p/q' string); ``self.brackets`` holds each value as a
    ``Vector``.  Keys must be sorted by (id, degree); a repeated generator
    is allowed only if it is odd (even repeats vanish by graded
    antisymmetry).
    """

    def __init__(self, generators, brackets, name=""):
        self.generators = tuple(sorted(generators))
        self.name = name
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise ValueError("generator ids must be unique")
        self.by_id = {g.id: g for g in self.generators}
        self.brackets = structure_tables(brackets, 2, self.generators, "bracket", "l")

    def arities(self):
        return sorted(self.brackets)

    def bracket(self, gens):
        """l_k on an arbitrary tuple of generators (antisymmetric extension)."""
        return antisymmetric_lookup(self.brackets, gens)

    def is_dg_lie(self):
        return all(k <= 2 for k in self.brackets)

    def truncate_to_dg_lie(self):
        kept = {k: {key: rationals(v) for key, v in t.items()}
                for k, t in self.brackets.items() if k <= 2}
        return LInftyAlgebra(self.generators, kept, self.name + "_trunc")

    def __repr__(self):
        return "LInftyAlgebra(%s, dim %d)" % (self.name or "?", len(self.generators))


def antisymmetric_lookup(tables, gens):
    """Entry of {arity: {sorted key: Vector}} on an arbitrary generator tuple.

    The tables hold sorted keys only; any other order is reached by graded
    antisymmetry, the Koszul sign times the plain sign of the sort.
    """
    k = len(gens)
    table = tables.get(k)
    if not table:
        return Vector({})
    order = sorted(range(k), key=lambda i: gens[i])
    vec = table.get(tuple(gens[i] for i in order))
    if not vec:
        return Vector({})
    if antisymmetric_sign(order, [g.degree for g in gens]) > 0:
        return vec
    return Vector({g: -c for g, c in vec.terms.items()}, vec.den)


def structure_tables(tables, shift, targets, kind, symbol):
    """{arity: {sorted key: Vector}} from {arity: {key: {target generator:
    coefficient}}}: the brackets (shift 2) or a morphism's components (shift 1).

    An arity is at least 1: the coalgebra differential and the transfer read
    no arity 0.  A key of arity k is a sorted tuple of k generators that
    repeats only odd ones (even repeats vanish by graded antisymmetry); its
    value lies in the span of ``targets``, in degree sum |x_i| + shift - k.
    Each coefficient is read by ``parse_scalar``.
    """
    targets = frozenset(targets)
    out = {}
    for arity, table in tables.items():
        if arity < 1:
            raise ValueError("%s arity must be at least 1, not %r" % (kind, arity))
        clean = {}
        for word, value in table.items():
            word = tuple(word)
            if len(word) != arity:
                raise ValueError("%s key has wrong arity" % kind)
            if list(word) != sorted(word):
                raise ValueError("%s keys must be sorted: %r" % (kind, word))
            for a, b in zip(word, word[1:]):
                if a == b and a.degree % 2 == 0:
                    raise ValueError("repeated even generator in %s key %r" % (kind, word))
            parts = []
            target_degree = sum(g.degree for g in word) + shift - arity
            for gen, coeff in value.items():
                if gen not in targets:
                    raise ValueError("%s value uses unknown generator" % kind)
                if gen.degree != target_degree:
                    raise ValueError(
                        "%s %s_%d on %r must land in degree %d"
                        % (kind, symbol, arity, word, target_degree)
                    )
                q = parse_scalar(coeff)
                parts.append(({gen: 1}, q.numerator, q.denominator))
            vec = exact_sum(parts)
            if vec:
                clean[word] = vec
        if clean:
            out[arity] = clean
    return out


def suspended_lookup(tables, letters, sign_rule):
    """The entry of ``tables`` on suspended letters, conjugated by the
    suspension: unsuspend the letters, look the entry up by graded
    antisymmetry, multiply by ``sign_rule`` of the unsuspended degrees and
    suspend the value."""
    unsus = tuple(g.shifted(1) for g in letters)
    terms, den = antisymmetric_lookup(tables, unsus)
    if not terms:
        return Vector({})
    sign = sign_rule([g.degree for g in unsus])
    return Vector({gen.shifted(-1): sign * coeff for gen, coeff in terms.items()}, den)


class CECoalgebra:
    """Weight-truncated symmetric coalgebra of the suspension, with the
    coderivation induced by the brackets (optionally an arity range of them).

    The brackets in that range are held once more, by their suspended keys:
    each value is suspended and signed by ``conjugation_sign``, the
    ``suspended_lookup`` of its key.
    """

    def __init__(self, algebra, weight_cap, min_arity=1, max_arity=None):
        if weight_cap < 1:
            raise ValueError("weight_cap must be at least 1")
        self.algebra = algebra
        self.weight_cap = weight_cap
        self.min_arity = min_arity
        self.max_arity = max_arity
        self.sgens = tuple(g.shifted(-1) for g in algebra.generators)
        keys = (tuple(g.shifted(-1) for g in key) for k, table in algebra.brackets.items()
                if min_arity <= k and (max_arity is None or k <= max_arity) for key in table)
        self._brackets = {letters: suspended_lookup(algebra.brackets, letters, conjugation_sign)
                          for letters in keys}

    def words(self, weight):
        return sym_words(self.sgens, weight)

    def all_words(self, max_weight=None):
        cap = self.weight_cap if max_weight is None else max_weight
        return sym_words_upto(self.sgens, cap)

    @memo_method
    def delta(self, word):
        """Coderivation on a symmetric word: the sum over its letter
        subsets that are bracket keys.  The letters are sorted, so each
        subset is looked up as it stands, and the Koszul sign of the
        unshuffle and the image are computed on a hit only."""
        letters = word.letters
        n = len(letters)
        brackets = self._brackets
        degrees = [g.degree for g in letters]
        parts = []
        max_k = n if self.max_arity is None else min(n, self.max_arity)
        for size in range(self.min_arity, max_k + 1):
            for inside, key in zip(itertools.combinations(range(n), size),
                                   itertools.combinations(letters, size)):
                value = brackets.get(key)
                if value is None:
                    continue
                outside, sign = unshuffle(inside, degrees)
                rest = [letters[i] for i in outside]
                # distinct generators give distinct words
                image = {}
                for gen, coeff in value.terms.items():
                    s2, w2 = sym_word([gen] + rest)
                    if w2 is not None:
                        image[w2] = coeff * s2
                parts.append((image, sign, value.den))
        return exact_sum(parts)

    @memo_method
    def reduced_coproduct(self, word):
        """Position-split reduced coproduct; an integer Vector over ordered
        pairs."""
        letters = word.letters
        out = {}
        for inside, outside, sign in unshuffles(
            [g.degree for g in letters], range(1, len(letters))
        ):
            sA, wA = sym_word([letters[i] for i in inside])
            sB, wB = sym_word([letters[i] for i in outside])
            if wA is None or wB is None:
                continue
            axpy(out, {(wA, wB): sign * sA * sB})
        return Vector(out)

    @memo_method
    def splits(self, word):
        """The iterated reduced coproducts Delta^(k) of a word for every
        k >= 1: its ordered splits into k nonempty symmetric words, an integer
        Vector over k-tuples ordered by k, by recursion on the second factor."""
        splits = self.splits
        out = {(word,): 1}
        for (wA, wB), c in self.reduced_coproduct(word).terms.items():
            axpy(out, {(wA,) + rest: c2 for rest, c2 in splits(wB).terms.items()}, c)
        return Vector(dict(sorted(out.items(), key=lambda term: len(term[0]))))

    @memo_method
    def letter_splits(self, word):
        """Delta^(n) of a word of weight n: its ordered splits into single
        letters, the terms of ``splits`` whose pieces all have weight one,
        by the same recursion with a first piece of weight one."""
        if word.rank == 1:
            return Vector({(word,): 1})
        letter_splits = self.letter_splits
        out = {}
        for (wA, wB), c in self.reduced_coproduct(word).terms.items():
            if wA.rank == 1:
                axpy(out, {(wA,) + rest: c2 for rest, c2 in letter_splits(wB).terms.items()}, c)
        return Vector(out)


def check_linfty(algebra, weight_cap):
    """Assert the coderivation squares to zero on all words within the cap."""
    C = CECoalgebra(algebra, weight_cap)
    return square_zero(C.all_words(), C.delta, "delta^2 = %r")


class LInftyMorphism:
    """Components phi_i: sorted words of arity i -> target generators."""

    def __init__(self, source, target, components):
        self.source = source
        self.target = target
        self.components = structure_tables(
            components, 1, target.generators, "morphism", "phi"
        )

    def is_strict(self):
        return all(k <= 1 for k in self.components)

    def component(self, gens):
        """phi_k on an arbitrary tuple (graded antisymmetric extension)."""
        return antisymmetric_lookup(self.components, gens)

    def suspended_component(self, letters):
        """s phi_k (s^{x k})^{-1} on suspended letters.

        Plain conjugation, no extra sign: the identity morphism must induce
        the identity coalgebra map, and the transferred first component must
        be the symmetrization of phi_1 on the nose.
        """
        return suspended_lookup(self.components, letters, s_power_sign)

    @memo_method
    def coalgebra_map(self, word):
        """Induced coalgebra morphism on a symmetric word of the source."""
        letters = word.letters
        degs = [g.degree for g in letters]
        n = len(letters)
        parts = []
        for partition in set_partitions(range(n)):
            # the sign of the unshuffle to the order of the blocks
            arrangement = [i for block in partition for i in block]
            sign = koszul_sign(tuple(arrangement), degs)
            terms, den = vector_product([self.suspended_component(tuple(letters[i] for i in block))
                                         for block in partition], sym_word)
            parts.append((terms, sign, den))
        return exact_sum(parts)


def identity_morphism(algebra):
    table = {(g,): {g: 1} for g in algebra.generators}
    return LInftyMorphism(algebra, algebra, {1: table})


def check_morphism(phi, weight_cap):
    """Commutation of the induced coalgebra map with both differentials."""
    CL = CECoalgebra(phi.source, weight_cap)
    CM = CECoalgebra(phi.target, weight_cap)
    return agree(CL.all_words(), lambda word: exact_apply(CL.delta(word), phi.coalgebra_map),
                 lambda word: exact_apply(phi.coalgebra_map(word), CM.delta),
                 "coalgebra map is not a chain map")


def compose_morphisms(psi, phi, weight_cap):
    """Corestriction of the composed coalgebra maps, as a new morphism."""
    if psi.source is not phi.target and psi.source.generators != phi.target.generators:
        raise ValueError("morphisms are not composable")
    components = {}
    for arity in range(1, weight_cap + 1):
        table = {}
        for word in sym_words(tuple(g.shifted(-1) for g in phi.source.generators), arity):
            image, den = exact_apply(phi.coalgebra_map(word), psi.coalgebra_map)
            unsus = tuple(g.shifted(1) for g in word.letters)
            # invert the suspension conjugation to recover plain components
            sign = s_power_sign([g.degree for g in unsus])
            vec = {w2.letters[0].shifted(1): sign * c for w2, c in image.items() if w2.rank == 1}
            if vec:
                table[unsus] = rationals(Vector(vec, den))
        if table:
            components[arity] = table
    return LInftyMorphism(phi.source, psi.target, components)


class LInftyModule:
    """Module data: a graded space with a degree +1 twisting into End(M).

    An operator is a ``Vector`` over pairs (m, m') of module generators, the
    coefficient of m' in the image of m.  ``d_m`` is the differential and
    ``action`` maps a symmetric sL word to its operator.
    """

    def __init__(self, algebra, basis, d_m=None, action=None, name=""):
        self.algebra = algebra
        self.basis = tuple(sorted(basis))
        self.name = name
        self.d_m = d_m or Vector({})
        self.action = {word: op for word, op in (action or {}).items() if op}

    def tau(self, word):
        """The operator of a coalgebra word."""
        return self.action.get(word) or Vector({})


def check_module(module, weight_cap):
    """Square-zero of the induced differential on C(L) (x) M.

    Basis keys are (word-or-None, module generator); None marks the counit
    component of the coalgebra factor.
    """
    C = CECoalgebra(module.algebra, weight_cap)
    words = [None] + list(C.all_words())

    def D(key):
        word, m = key
        parts = []
        if word is not None:
            terms, den = C.delta(word)
            parts.append(({(w2, m): c for w2, c in terms.items()}, 1, den))
        cdeg = 0 if word is None else word.degree
        pieces = [(word, module.d_m, -1 if cdeg % 2 else 1)]
        # (left factor, operator on m, sign): d_m, then the coaction terms
        if word is not None:
            pieces.append((None, module.tau(word), 1))
            for (wA, wB), c in C.reduced_coproduct(word).terms.items():
                pieces.append((wA, module.tau(wB), -c if wA.degree % 2 else c))
        for left, (terms, den), c in pieces:
            parts.append(({(left, m2): c2 for (m1, m2), c2 in terms.items() if m1 == m}, c, den))
        return exact_sum(parts)

    keys = ((word, m) for word in words for m in module.basis)
    return square_zero(keys, D, "module differential squares to %r")


def adjoint_module(algebra):
    """The algebra acting on itself through its binary bracket.

    Valid as stated for differential-free Lie algebras; the general validity
    test is check_module.
    """
    def operator(first):
        parts = []
        for m in algebra.generators:
            terms, den = algebra.bracket(first + (m,))
            parts.append(({(m, m2): c for m2, c in terms.items()}, 1, den))
        return exact_sum(parts)

    action = {sym_word([g.shifted(-1)])[1]: operator((g,)) for g in algebra.generators}
    d_m = operator(())
    return LInftyModule(algebra, algebra.generators, d_m, action, name="adjoint")


# ---------------------------------------------------------------------------
# bundled algebra builders


def abelian(degrees):
    gens = [Generator("a%d" % i, d) for i, d in enumerate(degrees, 1)]
    return LInftyAlgebra(gens, {}, name="abelian")


def heisenberg():
    x, y, z = Generator("x", 0), Generator("y", 0), Generator("z", 0)
    return LInftyAlgebra([x, y, z], {2: {(x, y): {z: 1}}}, name="heisenberg")


def dg_vector_space(pairs):
    """A complex as an L-infinity algebra: pairs (id, degree, dict image)."""
    gens = {gid: Generator(gid, d) for gid, d, _ in pairs}
    table = {}
    for gid, _, image in pairs:
        if image:
            table[(gens[gid],)] = {gens[t]: c for t, c in image.items()}
    return LInftyAlgebra(list(gens.values()), {1: table} if table else {}, name="dg")


def from_complete_intersection(variables, polynomials, divided_powers=False):
    """The L-infinity algebra of a polynomial complete intersection.

    ``variables``: ids of the ring variables (one odd degree-1 generator
    each); ``polynomials``: {id: [(coeff, monomial id tuple), ...]}, each with
    no constant or linear part.  Monomial coefficients act through iterated
    partial derivatives by default; set ``divided_powers`` to drop the
    multiplicity factorials.
    """
    xi = {v: Generator("xi_" + v, 1) for v in variables}
    if len(xi) != len(variables):
        raise ValueError("repeated variable in %r" % (list(variables),))
    zs = {}
    brackets = {}
    for pid, terms in polynomials.items():
        z = Generator("z_" + pid, 2)
        zs[pid] = z
        for coeff, monomial in terms:
            coeff = parse_scalar(coeff)
            if len(monomial) < 2:
                raise ValueError("polynomial %s has a term of degree < 2" % pid)
            if any(v not in xi for v in monomial):
                raise ValueError("unknown variable in %s" % pid)
            if coeff == 0:
                continue
            key = tuple(sorted(xi[v] for v in monomial))
            k = len(key)
            mult = 1
            if not divided_powers:
                for _, grp in itertools.groupby(key):
                    mult *= math.factorial(len(list(grp)))
            table = brackets.setdefault(k, {})
            entry = table.setdefault(key, {})
            entry[z] = entry.get(z, 0) + coeff * mult
    gens = list(xi.values()) + list(zs.values())
    return LInftyAlgebra(gens, brackets, name="ci")


# ---------------------------------------------------------------------------
# JSON interface


def algebra_to_json(algebra):
    gens = [{"id": g.id, "degree": g.degree} for g in algebra.generators]
    brackets = []
    for arity in algebra.arities():
        for word, vec in sorted(algebra.brackets[arity].items()):
            brackets.append(
                {
                    "arity": arity,
                    "inputs": [g.id for g in word],
                    "value": [
                        {"coeff": c, "monomial": [g.id]}
                        for g, c in sorted(rationals(vec).items())
                    ],
                }
            )
    return {"name": algebra.name, "generators": gens, "brackets": brackets}


def _integer(value, what):
    """An integer field of the JSON input; a fractional number, a boolean or
    a value of another type is refused."""
    integral = isinstance(value, int) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not integral:
        raise ValueError("%s must be an integer, not %r" % (what, value))
    return int(value)


def _string(value, what):
    """A string field of the JSON input; a number, null or list is refused."""
    if not isinstance(value, str):
        raise ValueError("%s must be a string, not %r" % (what, value))
    return value


def _boolean(value, what):
    """A boolean field of the JSON input; a string such as "false" is refused."""
    if not isinstance(value, bool):
        raise ValueError("%s must be a boolean, not %r" % (what, value))
    return value


def _ids(value, what):
    """A list of ids in the JSON input; a string or other non-list is refused."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError("%s must be a list of ids, not %r" % (what, value))
    return value


def _generators_from_json(entries):
    """{id: Generator} from the JSON generator list; a repeated id is refused."""
    gens = {}
    for g in entries:
        gid = _string(g["id"], "a generator id")
        if gid in gens:
            raise ValueError("duplicate generator id %r" % (gid,))
        gens[gid] = Generator(gid, _integer(g["degree"], "the degree of %r" % (gid,)))
    return gens


def algebra_from_json(data):
    if "complete_intersection" in data:
        ci = data["complete_intersection"]
        polys = {}
        for rel in ci["relations"]:
            if rel["id"] in polys:
                raise ValueError("duplicate relation id %r" % (rel["id"],))
            polys[rel["id"]] = [
                (parse_scalar(t["coeff"]), tuple(_ids(t["monomial"], "a monomial")))
                for t in rel["terms"]
            ]
        variables = _ids(ci["variables"], "complete-intersection variables")
        return from_complete_intersection(
            variables, polys, _boolean(ci.get("divided_powers", False), "divided_powers")
        )
    gens = _generators_from_json(data["generators"])
    brackets = {}
    for b in data.get("brackets", []):
        arity = _integer(b["arity"], "arity")
        word = tuple(sorted(gens[i] for i in _ids(b["inputs"], "bracket inputs")))
        value = {}
        for t in b["value"]:
            monomial = _ids(t["monomial"], "a monomial")
            if len(monomial) != 1:
                raise ValueError("bracket values must be single generators")
            g = gens[monomial[0]]
            value[g] = value.get(g, 0) + parse_scalar(t["coeff"])
        table = brackets.setdefault(arity, {})
        if word in table:
            raise ValueError("duplicate bracket entry for %r" % (word,))
        table[word] = value
    return LInftyAlgebra(list(gens.values()), brackets,
                         name=_string(data.get("name", ""), "the input name"))


def module_from_json(algebra, data):
    """The module of ``data`` over ``algebra``.  An action of arity k must
    have k inputs and land in degree sum |x_i| + |m| + 1 - k, the degree of
    l_{k+1}; the differential (arity 0) lands in degree |m| + 1."""
    gens = _generators_from_json(data["generators"])
    parts = {}  # None for d_m, or an action word -> the parts of its operator
    for entry in data.get("actions", []):
        arity = _integer(entry["arity"], "arity")
        inputs = _ids(entry.get("inputs", []), "module action inputs")
        if arity != len(inputs):
            raise ValueError(
                "module action of arity %d has %d inputs" % (arity, len(inputs))
            )
        m = gens[entry["module_input"]]
        letters = [algebra.by_id[i].shifted(-1) for i in inputs]
        # the desuspended inputs have total degree sum |x_i| - k
        target_degree = sum(g.degree for g in letters) + m.degree + 1
        terms = []
        for t in entry["value"]:
            monomial = _ids(t["monomial"], "a monomial")
            if len(monomial) != 1:
                raise ValueError("module action values must be single generators")
            g = gens[monomial[0]]
            if g.degree != target_degree:
                raise ValueError(
                    "module action of %r on %r must land in degree %d"
                    % (inputs, m, target_degree)
                )
            terms.append((g, parse_scalar(t["coeff"])))
        word, sign = None, 1
        if arity:
            sign, word = sym_word(letters)
            if word is None:
                raise ValueError("action word repeats an odd suspended generator")
        parts.setdefault(word, []).extend(
            ({(m, g): 1}, sign * c.numerator, c.denominator) for g, c in terms)
    ops = {word: exact_sum(p) for word, p in parts.items()}
    d_m = ops.pop(None, None)
    return LInftyModule(algebra, list(gens.values()), d_m, ops,
                        name=_string(data.get("name", ""), "the module name"))
