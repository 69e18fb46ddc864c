"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (run pytest with -s to see them all
even when everything passes).  Tolerances are zero everywhere: every
comparison is exact equality of rationals.
"""

import itertools
import random
import time

import pytest

from enveloping import bgg, linfty, permutahedra, tableaux, uea
from enveloping.exactlin import BAR, Generator, Vector, Word, exact_apply
from enveloping.hpt import Transfer, algebra_differential, bpl, cobar_differential
from enveloping.linfty import CECoalgebra
from enveloping.words import bar_words_algebra, cobar_words, sym_words

from conftest import (
    act,
    act_vector,
    bar_words_cobar,
    boundary,
    bundled,
    face_maps,
    induced_algebra_map,
    nu,
    nu_vector,
    odd_abelian,
    perturbation_parts,
    roundtrip_gf_check,
    scaled,
    t_complex,
    trivial_module,
    vector_sum,
)


# named builders: the criterion 3 test ids carry their names
def sl2():
    return bundled("sl2")


def l3_gadget():
    return bundled("l3only")


def report(name, ok, started):
    status = "PASS" if ok else "FAIL"
    print("[%s] %s (%.1fs)" % (status, name, time.monotonic() - started))
    assert ok, name


def brute_force_face_count(n):
    total = 0
    for d in range(1, n + 1):
        seen = set()
        for values in itertools.product(range(1, d + 1), repeat=n):
            if set(values) == set(range(1, d + 1)):
                seen.add(values)
        total += len(seen)
    return total


def test_criterion_01_permutahedra():
    started = time.monotonic()
    ok = True
    expected_totals = {1: 1, 2: 3, 3: 13, 4: 75, 5: 541}
    for n in range(1, 6):
        faces = permutahedra.all_faces(n)
        ok &= len(faces) == expected_totals[n] == brute_force_face_count(n)
        boundaries = {f: boundary(f) for f in faces}
        ok &= all(not exact_apply(b, boundary) for b in boundaries.values())
        ok &= permutahedra.chain_complex(n).homology_dims() == {0: 1}
        gens = []
        for i in range(1, n):
            sigma = list(range(1, n + 1))
            sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
            gens.append(tuple(sigma))
        for f in faces:
            v = Vector({f: 1})
            for sigma in gens:
                # chain action commuting with the involution
                s, g = act(sigma, f)
                ok &= scaled(boundaries[g], s) == act_vector(
                    sigma, boundaries[f]
                )
                ok &= act_vector(
                    sigma, nu_vector(v)
                ) == nu_vector(act_vector(sigma, v))
            s, g = nu(f)
            ok &= scaled(boundaries[g], s) == nu_vector(boundaries[f])
        # multiplicativity including signs, exhaustive at n = 3
        if n == 3:
            perms = list(itertools.permutations((1, 2, 3)))
            for sigma in perms:
                for tau in perms:
                    comp = tuple(sigma[tau[i - 1] - 1] for i in (1, 2, 3))
                    for f in faces:
                        s1, g1 = act(tau, f)
                        s2, g2 = act(sigma, g1)
                        ok &= (s1 * s2, g2) == act(comp, f)
        con = permutahedra.build_contraction(n)
        F, G, H = face_maps(con)
        one = Vector({(): 1})  # the basis of k
        ok &= exact_apply(exact_apply(one, G), F) == one
        ok &= not exact_apply(exact_apply(one, G), H)
        h_cols = {f: H(f) for f in faces}
        for f in faces:
            v = Vector({f: 1})
            hom = vector_sum(exact_apply(h_cols[f], boundary), exact_apply(boundaries[f], H))
            gf = exact_apply(exact_apply(v, F), G)
            ok &= vector_sum(v, scaled(gf, -1)) == hom
            ok &= not exact_apply(h_cols[f], F)
            ok &= not exact_apply(h_cols[f], H)
            for sigma in gens:
                ok &= exact_apply(act_vector(sigma, v), H) == act_vector(sigma, h_cols[f])
            ok &= exact_apply(nu_vector(v), H) == nu_vector(h_cols[f])
    report("criterion 1: permutahedron suite n <= 5", ok, started)


def test_criterion_02_cobar_contraction():
    started = time.monotonic()
    ok = True
    V = linfty.dg_vector_space([("v", 0, {"w": 1}), ("w", 1, {})])
    C1 = CECoalgebra(V, 6, max_arity=1)
    dOm = cobar_differential(C1)
    dE = algebra_differential(V)
    cobar_f, cobar_g, cobar_h = permutahedra.cobar_f, permutahedra.cobar_g, permutahedra.cobar_h

    def then(v, *ops):
        for op in ops:
            v = exact_apply(v, op)
        return v

    for weight in range(1, 5):
        for word in sym_words(V.generators, weight):
            u = Vector({word: 1})
            ok &= then(u, cobar_g, cobar_f) == u
            ok &= not then(u, cobar_g, cobar_h)
    for rank in range(1, 5):
        for x in cobar_words(C1.sgens, rank):
            v = Vector({x: 1})
            gf = then(v, cobar_f, cobar_g)
            hom = vector_sum(then(v, cobar_h, dOm), then(v, dOm, cobar_h))
            ok &= vector_sum(v, scaled(gf, -1)) == hom
            ok &= not then(v, cobar_h, cobar_f)
            ok &= not then(v, cobar_h, cobar_h)
            ok &= then(v, permutahedra.iota_omega, cobar_h) == then(
                v, cobar_h, permutahedra.iota_omega)
            ok &= then(v, cobar_f, dE) == then(v, dOm, cobar_f)
    # functoriality square for a random degree-zero chain map V -> W
    rng = random.Random(2026)
    W = linfty.dg_vector_space([("p", 0, {"q": 1}), ("q", 1, {})])
    a = rng.randrange(1, 7)
    b = rng.randrange(1, 7)
    v0, v1 = V.by_id["v"], V.by_id["w"]
    p0, p1 = W.by_id["p"], W.by_id["q"]

    def phi(g):
        if g == v0:
            return Vector({p0: a})
        if g == v1:
            return Vector({p1: a})  # chain map: same factor along d
        return Vector({})

    amap = induced_algebra_map(phi)
    for rank in range(1, 5):
        for x in cobar_words(C1.sgens, rank):
            v = Vector({x: 1})
            ok &= then(v, cobar_h, amap) == then(v, amap, cobar_h)
    report("criterion 2: cobar contraction suite rank <= 4", ok, started)


STASHEFF_ALGEBRAS = [
    ("abelian dim 1", lambda: linfty.abelian([0])),
    ("abelian dim 2", lambda: linfty.abelian([0, 1])),
    ("abelian dim 3", lambda: linfty.abelian([0, 0, 1])),
    ("sl2", sl2),
    ("heisenberg", linfty.heisenberg),
    ("odd-concentrated", lambda: odd_abelian([1, 3], name="odd2")),
    ("ternary-only", l3_gadget),
]


@pytest.mark.parametrize("label,builder", STASHEFF_ALGEBRAS)
def test_criterion_03_stasheff(label, builder):
    started = time.monotonic()
    algebra = builder()
    structure = uea.AInftyStructure(algebra, 4, 5)
    ok = bool(uea.stasheff_check(structure))
    ok &= bool(uea.m1_matches_l1(structure))
    report("criterion 3: bar differential squares to zero [%s]" % label, ok, started)


def test_criterion_04_pbw():
    started = time.monotonic()
    ok = True
    for algebra in (sl2(), linfty.heisenberg()):
        structure = uea.AInftyStructure(algebra, 3, 4)
        ok &= bool(uea.pbw_compare(structure))
    report("criterion 4: classical enveloping comparison", ok, started)


def test_criterion_05_antisymmetrized_products():
    started = time.monotonic()
    ok = True
    for algebra in (sl2(), linfty.heisenberg()):
        ok &= bool(uea.alt_bracket_check(uea.AInftyStructure(algebra, 2, 3), 2))
    ok &= bool(uea.alt_bracket_check(uea.AInftyStructure(l3_gadget(), 3, 4), 3))
    report("criterion 5: antisymmetrized products recover brackets", ok, started)


def test_criterion_06_involution_and_coproduct():
    started = time.monotonic()
    ok = True
    for algebra in (sl2(), l3_gadget()):
        structure = uea.AInftyStructure(algebra, 3, 3)
        ok &= bool(uea.involution_check(structure))
        ok &= bool(uea.coproduct_strictness_check(structure, 2, 3))
        structure3 = uea.AInftyStructure(algebra, 3, 4)
        ok &= bool(uea.coproduct_strictness_check(structure3, 3, 3))
    report("criterion 6: involution and coproduct strictness", ok, started)


def test_criterion_07_morphisms():
    started = time.monotonic()
    ok = True
    H = linfty.heisenberg()
    A2 = linfty.abelian([0, 0])
    x, y, z = (H.by_id[k] for k in ("x", "y", "z"))
    a1, a2 = A2.by_id["a1"], A2.by_id["a2"]
    strict = linfty.LInftyMorphism(
        H, A2, {1: {(x,): {a1: 1}, (y,): {a2: 1}, (z,): {}}}
    )
    ok &= bool(linfty.check_morphism(strict, 4))
    data = uea.u_morphism(strict, 3, 4)
    ok &= bool(uea.check_first_component(data))
    ok &= bool(uea.check_strict_vanishing(data))

    La = linfty.LInftyAlgebra([Generator("a", 1)], {}, name="A")
    Lb = linfty.LInftyAlgebra([Generator("b", 1)], {}, name="B")
    Lc = linfty.LInftyAlgebra([Generator("c", 1)], {}, name="C")
    a, b, c = La.by_id["a"], Lb.by_id["b"], Lc.by_id["c"]
    bent = linfty.LInftyMorphism(La, Lb, {1: {(a,): {b: 1}}, 2: {(a, a): {b: 1}}})
    bent2 = linfty.LInftyMorphism(Lb, Lc, {1: {(b,): {c: 1}}, 2: {(b, b): {c: 1}}})
    ok &= bool(linfty.check_morphism(bent, 4))
    data2 = uea.u_morphism(bent, 3, 4)
    ok &= bool(uea.check_first_component(data2))
    ok &= any(
        bar.length >= 2 and data2.component(bar.letters)
        for bar in data2.source.bar_words()
    )
    res, _ = uea.composition_homotopy_check(bent, bent2, 3, 4)
    ok &= bool(res)
    res, homotopy = uea.composition_homotopy_check(
        bent, linfty.identity_morphism(Lb), 3, 4
    )
    ok &= bool(res)
    res, homotopy = uea.composition_homotopy_check(
        linfty.identity_morphism(La), bent, 3, 4
    )
    ok &= bool(res)
    report("criterion 7: morphism transfer and composition homotopy", ok, started)


def test_criterion_08_perturbation_algebra():
    started = time.monotonic()
    ok = True
    T = Transfer(sl2(), 3)
    t_mu, t_L = perturbation_parts(T)
    staged = bpl(bpl(T.con0, t_mu), t_L)
    for bar in bar_words_cobar(T.C1.sgens, 3, 3):
        ok &= staged.F(bar) == T.con.F(bar)
        ok &= staged.H(bar) == T.con.H(bar)
    for bar in bar_words_algebra(T.algebra.generators, 3, 3):
        ok &= staged.G(bar) == T.con.G(bar)
        ok &= staged.d_small(bar) == T.con.d_small(bar)
    # abelian transfer reproduces the bar construction of the symmetric algebra
    A = linfty.abelian([0, 0, 1])
    TA = Transfer(A, 3)
    from enveloping.exactlin import s_power_sign

    for bar in bar_words_algebra(A.generators, 3, 3):
        direct = []
        letters = bar.letters
        left = 0
        for j in range(len(letters) - 1):
            u, w = letters[j], letters[j + 1]
            prefix = -1 if left % 2 else 1
            csign = s_power_sign([u.degree, w.degree])
            for w2, cc in uea.star_product(u, w).terms.items():
                direct.append(
                    Vector({Word(BAR, letters[:j] + (w2,) + letters[j + 2 :]): prefix * csign * cc}))
            left += u.degree - 1
        ok &= TA.con.d_small(bar) == vector_sum(*direct)
    report("criterion 8: perturbation composition law and abelian transfer", ok, started)


def test_criterion_09_tableaux():
    started = time.monotonic()
    ok = True
    for n in range(1, 5):
        for shape in tableaux.partitions(n):
            merged = {}
            for T in tableaux.standard_tableaux(shape):
                JT = tableaux.descents(T)
                for size in range(len(JT) + 1):
                    for combo in itertools.combinations(sorted(JT), size):
                        key = tableaux.column_tableau(T, frozenset(combo))
                        merged[key] = merged.get(key, 0) + 1
                ok &= bool(tableaux.t_complex_contraction_check(T))
                cx = t_complex(T)  # asserts that it squares to zero
                dims = cx.homology_dims()
                ok &= dims == ({0: 1} if not JT else {})
            direct = []
            for values in range(1, n + 1):
                direct.extend(tableaux.column_semistandard_fillings(shape, values))
            ok &= sorted(merged) == sorted(direct)
            ok &= all(v == 1 for v in merged.values())
        for dims_pair in ((2, 0), (1, 1)):
            res, cobar_profile, tab_profile = tableaux.decomposition_dims(n, *dims_pair)
            ok &= bool(res)
    report("criterion 9: tableau decomposition suite n <= 4", ok, started)


def test_criterion_10_bgg(top_cell_fault):
    started = time.monotonic()
    ok = True
    A4 = uea.AInftyStructure(sl2(), 4, 4)
    ok &= bool(bgg.generalized_cochain_check(A4))
    for degrees in ([1], [1, 3]):
        AO = uea.AInftyStructure(odd_abelian(degrees), 3, 4)
        res, dims = bgg.twisted_tensor_acyclicity(AO, 4)
        ok &= bool(res) and dims == {0: 1}
    structure = uea.AInftyStructure(sl2(), 4, 4)
    for M in (trivial_module(structure.algebra),
              linfty.adjoint_module(structure.algebra)):
        ok &= bool(bgg.roundtrip_fg_check(M, structure, 4, 4))
        forward = bgg.functor_g(M, structure, 4, 4)
        ok &= bool(roundtrip_gf_check(forward, 4, 4))
    top_cell_fault()
    faulty = uea.AInftyStructure(sl2(), 3, 3)
    mutated = bgg.roundtrip_fg_check(
        linfty.adjoint_module(faulty.algebra), faulty, 3, 3
    )
    ok &= not mutated
    report("criterion 10: twisted cochain, acyclicity, round trips", ok, started)
