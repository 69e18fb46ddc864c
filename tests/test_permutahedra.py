import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from enveloping.exactlin import (
    COBAR,
    Echelon,
    Vector,
    Word,
    axpy,
    compositions,
    exact_apply,
    exact_sum,
    format_scalar,
    koszul_sign,
    over_q,
    s_power_sign,
    sym_word,
    symmetrize,
)
from enveloping import permutahedra
from enveloping.linfty import abelian, heisenberg
from enveloping.permutahedra import (
    FaceIndex,
    HomotopySolve,
    OrderedPartition,
    PermutahedronContraction,
    _action,
    _solve_homotopy,
    all_faces,
    build_contraction,
    chain_complex,
    cobar_f,
    cobar_g,
    cobar_gf,
    cobar_h,
    enumerate_faces,
    homotopy_data,
    standard_face,
)
from enveloping.words import cobar_words, desuspended_letter, sym_words

from conftest import (
    act,
    act_vector,
    assert_reduced,
    boundary,
    bundled,
    face_column,
    face_maps,
    fractions_of,
    nu,
    nu_vector,
    odd_abelian,
    scaled,
    vector_sum,
)


def brute_force_faces(n, d):
    """Independent oracle: surjections {1..n} -> {1..d} up to nothing."""
    found = set()
    for values in itertools.product(range(1, d + 1), repeat=n):
        if set(values) != set(range(1, d + 1)):
            continue
        blocks = tuple(
            tuple(i for i in range(1, n + 1) if values[i - 1] == j)
            for j in range(1, d + 1)
        )
        found.add(blocks)
    return found


@pytest.mark.parametrize("n,total", [(1, 1), (2, 3), (3, 13), (4, 75)])
def test_face_counts(n, total):
    faces = all_faces(n)
    assert len(faces) == total
    assert len(set(faces)) == total
    for d in range(1, n + 1):
        got = {f.blocks for f in enumerate_faces(n, d)}
        assert got == brute_force_faces(n, d)


def test_single_faces():
    assert enumerate_faces(1, 1)[0].blocks == ((1,),)
    top = enumerate_faces(3, 1)[0]
    assert top.blocks == ((1, 2, 3),) and top.n - top.d == 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumerated_faces_equal_their_validated_construction(n):
    # enumerate_faces builds its faces unchecked; each must be the face that
    # the public constructor builds and validates from the same blocks
    for d in range(1, n + 1):
        for face in enumerate_faces(n, d):
            checked = OrderedPartition(n, face.blocks)
            assert face == checked and hash(face) == hash(checked)
            assert (face.n, face.blocks) == (checked.n, checked.blocks)


def F(*blocks):
    n = sum(len(b) for b in blocks)
    return OrderedPartition(n, blocks)


def test_boundary_of_vertex_and_edge():
    assert not boundary(F((1,), (2,)))
    b = boundary(F((1, 2)))
    assert b == Vector({F((1,), (2,)): -1, F((2,), (1,)): 1})


@pytest.mark.parametrize("n", [2, 3, 4])
def test_boundary_squares_to_zero(n):
    for f in all_faces(n):
        assert not exact_apply(boundary(f), boundary)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_homology_is_one_point(n):
    dims = chain_complex(n).homology_dims()
    assert dims == {0: 1}


def test_action_signs():
    f = F((1,), (2,))
    assert act((1, 2), f) == (1, f)
    assert act((2, 1), f) == (1, F((2,), (1,)))
    assert act((2, 1), F((1, 2))) == (-1, F((1, 2)))


def test_action_is_chain_map_and_multiplicative():
    for sigma in itertools.permutations((1, 2, 3)):
        for f in all_faces(3):
            lhs = act_vector(sigma, boundary(f))
            s, g = act(sigma, f)
            assert scaled(boundary(g), s) == lhs
    for sigma in itertools.permutations((1, 2, 3)):
        for tau in itertools.permutations((1, 2, 3)):
            composite = tuple(sigma[tau[i - 1] - 1] for i in (1, 2, 3))
            for f in all_faces(3):
                s1, g1 = act(tau, f)
                s2, g2 = act(sigma, g1)
                s3, g3 = act(composite, f)
                assert (s1 * s2, g2) == (s3, g3)


def test_involution_values_and_properties():
    assert nu(F((1,), (2,))) == (1, F((2,), (1,)))
    assert nu(F((1, 2))) == (-1, F((1, 2)))
    for n in (2, 3, 4):
        for f in all_faces(n):
            s, g = nu(f)
            s2, back = nu(g)
            assert (s * s2, back) == (1, f)
            assert nu_vector(boundary(f)) == scaled(boundary(g), s)
    # commutes with the symmetric group action
    for sigma in itertools.permutations((1, 2, 3)):
        for f in all_faces(3):
            v = Vector({f: 1})
            assert act_vector(sigma, nu_vector(v)) == nu_vector(act_vector(sigma, v))


# n = 5 is checked once, by criterion 01 of test_acceptance.py (all five
# identities and the equivariance on every face) and by the pinned H digest
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_contraction_identities(n):
    F, G, H = face_maps(build_contraction(n))
    faces = all_faces(n)
    # FG = 1 on k, whose one basis element is ()
    one = Vector({(): 1})
    assert exact_apply(G(()), F) == one
    for f in faces:
        # homotopy identity
        lhs = vector_sum(Vector({f: 1}), scaled(exact_apply(F(f), G), -1))
        rhs = vector_sum(boundary_vec(H(f)), exact_apply(boundary(f), H))
        assert lhs == rhs, (n, f)
        # side conditions
        assert not exact_apply(H(f), F)
        assert not exact_apply(H(f), H)
    assert not exact_apply(G(()), H)
    # H kills the top cell
    assert not H(enumerate_faces(n, 1)[0])


def boundary_vec(v):
    return exact_apply(v, boundary)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_contraction_equivariance(n):
    _, _, H = face_maps(build_contraction(n))
    gens = []
    for i in range(1, n):
        sigma = list(range(1, n + 1))
        sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        gens.append(tuple(sigma))
    for f in all_faces(n):
        v = Vector({f: 1})
        hv = H(f)
        for sigma in gens:
            assert exact_apply(act_vector(sigma, v), H) == act_vector(sigma, hv)
        assert exact_apply(nu_vector(v), H) == nu_vector(hv)


# SHA-256 of every column of H, taken from the homotopy that averaged and
# repaired all columns over the whole group; the orbit-representative build
# must reproduce it exactly
PINNED_H_DIGESTS = {
    1: "8059f1211b4abe7697e95365332fdd4ab018cd9ddd039b865b4a8db2bdfaad58",
    2: "5e9647367177a72b06bd2e7f1ddc03396e4cacc43540e2d00b7ca1ad5a7ad809",
    3: "118e63c555c0867eeb02c72415dbf2e531dae5df27013199e1ffbace03a05fcd",
    4: "2b2999c8d9dbdd98477192393cfc84bd4dcac6c800d4df85df8d64d1a0f0e9b3",
    5: "85d91347c4bf705916957743be35b3b6a87366912c7f33b16a1b286443389b6b",
}


@pytest.mark.parametrize("n", sorted(PINNED_H_DIGESTS))
def test_homotopy_matches_pinned_digest(n):
    con = build_contraction(n)
    rows = []
    for f in all_faces(n):
        terms, den = face_column(con, f)
        col = sorted(terms.items(), key=lambda t: t[0].sort_key())
        rows.append([f.serialize(), [[g.serialize(), format_scalar(c, den)] for g, c in col]])
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_H_DIGESTS[n]


def _column_rows(con, faces):
    rows = []
    for f in faces:
        terms, den = face_column(con, f)
        col = sorted(terms.items(), key=lambda t: t[0].sort_key())
        rows.append([f.serialize(), [[g.serialize(), format_scalar(c, den)] for g, c in col]])
    return rows


# SHA-256 of the 32 standard columns of H at n = 6, each sorted by face
# sort_key, as the Fraction build (the solve and every stage over Q) gave them
N6_STANDARD_COLUMNS_DIGEST = "fe103ff5e0af64e1679ab9fcfca9019e50fd9c48db803a5a0006cbc4fb709f23"


def test_n6_standard_columns_match_pinned_digest():
    n = 6
    con = PermutahedronContraction(n)  # not the cached one: freed afterwards
    rows = _column_rows(con, [standard_face(n, sizes) for sizes in compositions(n)])
    text = json.dumps(rows, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == N6_STANDARD_COLUMNS_DIGEST


def reference_solve_homotopy(n):
    """The raw solve over Q, on faces: dH + Hd = 1 - GF degree by degree, on
    term dicts of Fractions."""
    faces_by_deg = {-(n - d): enumerate_faces(n, d) for d in range(1, n + 1)}
    degrees = sorted(faces_by_deg)
    nfact = math.factorial(n)

    def proj(vec):  # 1 - GF
        out = dict(vec)
        total = sum((c for f, c in vec.items() if f.d == f.n), Fraction(0))
        if total:
            axpy(out, dict.fromkeys(faces_by_deg[0], Fraction(total, nfact)), -1)
        return out

    H = {}
    pending = Echelon()
    for p in degrees:
        for f in faces_by_deg[p]:
            x = {f: Fraction(1)}
            if p == 0:
                x = proj(x)
            residual, combo = pending.reduce(x)
            assert not (p == 0 and residual)
            value = {g: -c for g, c in combo.items()}
            if value:
                H[f] = value
        if p == degrees[-1]:
            break
        nxt = Echelon()
        for f in faces_by_deg[p]:
            rhs = proj({f: Fraction(1)})
            d_h = {}
            for g, c in H.get(f, {}).items():
                axpy(d_h, boundary(g).terms, c)
            axpy(rhs, d_h, -1)
            df = over_q(boundary(f))
            if df:
                fresh, acc = nxt.insert(df, rhs)
                assert fresh or not acc
            else:
                assert not rhs
        pending = nxt
    return H


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_integer_solve_matches_the_fraction_solve(n):
    faces = FaceIndex(n)
    scale = math.factorial(n)
    got = [
        (faces.faces[i], {faces.faces[j]: Fraction(c, scale) for j, c in col.items()})
        for i, col in _solve_homotopy(faces).items()
    ]
    for _, col in got:
        assert all(type(c) is Fraction for c in col.values())
    # same faces in the same order, and the same values; the terms of a
    # column come in the order of the elimination that found them
    want = [(f, dict(col.items())) for f, col in reference_solve_homotopy(n).items()]
    assert got == want


def test_integer_solve_raises_on_a_vertex_tag_off_a_multiple_of_n(monkeypatch):
    # a vertex is reduced with no seed combo, and its vector has several
    # terms; one tag off by one is no longer a multiple of N = 3! = 6
    reduce = Echelon.reduce

    def perturbed(self, vec, combo=None):
        residual, used = reduce(self, vec, combo)
        if combo is None and len(vec) > 1 and used:
            axpy(used, {next(iter(used)): 1})
        return residual, used

    monkeypatch.setattr(Echelon, "reduce", perturbed)
    with pytest.raises(RuntimeError, match="does not divide"):
        _solve_homotopy(FaceIndex(3))


def test_the_degree0_stage_reduces_the_vertex_sum_once(monkeypatch):
    # by linearity each vertex is reduced alone; the one reduction of a
    # vector with several terms is that of the vertex sum
    n = 4
    faces = FaceIndex(n)
    reduce = Echelon.reduce
    reduced = []

    def counted(self, vec, combo=None):
        if combo is None:
            reduced.append(dict(vec))
        return reduce(self, vec, combo)

    monkeypatch.setattr(Echelon, "reduce", counted)
    _solve_homotopy(faces)
    vertices = [i for i, f in enumerate(faces.faces) if f.d == n]
    assert len(reduced) == len(faces.faces) + 1
    assert [vec for vec in reduced if len(vec) > 1] == [dict.fromkeys(vertices, 1)]


def test_integer_solve_raises_on_a_vertex_sum_residual_off_n_times_a_vertex(monkeypatch):
    # N v - (vertex sum) lies in the image of d, so N times v's residual is
    # the vertex sum's; a vertex sum with its residual off by one breaks that
    reduce = Echelon.reduce

    def perturbed(self, vec, combo=None):
        residual, used = reduce(self, vec, combo)
        if combo is None and len(vec) > 1:
            axpy(residual, {next(iter(residual)): 1})
        return residual, used

    monkeypatch.setattr(Echelon, "reduce", perturbed)
    with pytest.raises(RuntimeError, match="degree-0 consistency failed"):
        _solve_homotopy(FaceIndex(3))


def test_integer_solve_raises_on_a_boundary_dependent_on_an_earlier_one():
    # [2|13] given the boundary of [1|23]: its constraint reduces to zero
    # while its right-hand side does not
    faces = FaceIndex(3)
    first, second = faces.index[F((1,), (2, 3))], faces.index[F((2,), (1, 3))]
    assert first < second
    faces.boundary[second] = dict(faces.boundary[first])
    with pytest.raises(RuntimeError, match=r"inconsistent homotopy constraint at \[2\|13\]"):
        _solve_homotopy(faces)


def test_integer_solve_raises_on_a_face_without_boundary():
    # a face off the vertices with no boundary leaves N f unmatched
    faces = FaceIndex(2)
    faces.boundary[faces.index[F((1, 2))]] = {}
    with pytest.raises(RuntimeError, match=r"inconsistent homotopy constraint at \[12\]"):
        _solve_homotopy(faces)


def test_a_raw_homotopy_that_moves_the_vertex_sum_is_refused(monkeypatch):
    # one vertex column off by an edge: Hraw no longer kills the vertex sum,
    # which the generator's projection reads when it builds H on a vertex
    solve = permutahedra._solve_homotopy

    def perturbed(faces):
        H = solve(faces)
        edge = next(i for i, f in enumerate(faces.faces) if f.d == faces.n - 1)
        vertex = next(i for i, f in enumerate(faces.faces) if f.d == faces.n)
        axpy(H.setdefault(vertex, {}), {edge: 1})
        return H

    monkeypatch.setattr(permutahedra, "_solve_homotopy", perturbed)
    faces = FaceIndex(3)
    solved = HomotopySolve(faces)
    with pytest.raises(RuntimeError, match="raw homotopy does not kill the vertex average"):
        solved.repair(faces.index[F((1,), (2,), (3,))])
    with pytest.raises(RuntimeError, match="raw homotopy does not kill the vertex average"):
        homotopy_data(FaceIndex(3))


def test_raw_columns_are_dropped_once_symmetrized():
    faces = FaceIndex(4)
    solved = HomotopySolve(faces)
    assert solved.raw
    for sizes in compositions(4):
        solved.repair(faces.index[standard_face(4, sizes)])
    assert solved.raw == {}


def test_a_pivot_that_does_not_divide_stops_the_generator(monkeypatch, tmp_path, capsys):
    # boundary entries of 2 instead of +-1: the integer solve meets a pivot
    # lead that does not divide, and stops there instead of rounding; n = 1,
    # which has no boundary, is written, and n = 2 is not
    index = permutahedra.FaceIndex.__init__

    def doubled(self, n):
        index(self, n)
        self.boundary = [{g: 2 * c for g, c in col.items()} for col in self.boundary]

    monkeypatch.setattr(permutahedra.FaceIndex, "__init__", doubled)
    with pytest.raises(RuntimeError, match="does not divide"):
        permutahedra.main([str(tmp_path), "2"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n1.json"]
    assert capsys.readouterr().out.startswith("n=1 faces=1 ")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_face_index_boundary_and_nu_match_the_face_maps(n):
    faces = FaceIndex(n)
    for f, col, (sign, image) in zip(faces.faces, faces.boundary, faces.nu):
        # term by term and in order, with integer coefficients
        assert [(faces.faces[g], c) for g, c in col.items()] == list(boundary(f).terms.items())
        assert all(type(c) is int for c in col.values())
        assert (sign, faces.faces[image]) == nu(f)


def test_an_empty_block_is_refused():
    with pytest.raises(ValueError, match="nonempty"):
        OrderedPartition(2, [(1, 2), ()])
    with pytest.raises(ValueError, match="nonempty"):
        standard_face(3, (3, 0))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stored_columns_are_integer_chains(n):
    # a stored column is (2N^2)^2 H(f), exact: nonzero integers on face
    # numbers, and H(f) is its reduced pair over the scale
    con = PermutahedronContraction(n)
    numbers = range(len(all_faces(n)))
    for f in numbers:
        con.H(f)
    assert sorted(con.columns) == list(numbers)
    for f, col in con.columns.items():
        assert col.den == 1
        assert all(g in numbers and type(c) is int and c for g, c in col.terms.items())
        pair = con.H(f)
        assert_reduced(pair)
        assert fractions_of(pair) == {g: Fraction(c, con.scale) for g, c in col.terms.items()}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_face_index_action_matches_act(n):
    faces = FaceIndex(n)
    for sigma in itertools.permutations(range(1, n + 1)):
        action = _action(sigma)
        for i, f in enumerate(faces.faces):
            out = {}
            faces.transport(out, action, {i: 5}, 3)
            sign, g = act(sigma, f)
            assert out == {faces.index[g]: 15 * sign}


def test_homotopy_builds_only_standard_columns():
    n = 5
    con = PermutahedronContraction(n)
    for sizes in compositions(n):
        con.homotopy_column(con.faces.index[standard_face(n, sizes)])
    assert len(con.columns) <= 2 ** (n - 1)


def test_n2_homotopy_matches_hand_computation():
    e12 = F((1,), (2,))
    e21 = F((2,), (1,))
    top = F((1, 2))
    _, _, H = face_maps(build_contraction(2))
    assert H(e12) == Vector({top: -1}, 2)
    assert H(e21) == Vector({top: 1}, 2)


def test_face_serialization():
    f = F((1, 3), (2,))
    assert f.serialize() == [[1, 3], [2]]


def reference_theta(gens, face):
    """The face/cobar dictionary with every sign written out: the Koszul sign
    of the arrangement, (n - d)|w|, and per block the desuspension and the
    sort of its letters."""
    degs = [g.degree for g in gens]
    arrangement = [x - 1 for b in face.blocks for x in b]
    sign = koszul_sign(arrangement, degs)
    if (face.n - face.d) % 2 and sum(degs) % 2:
        sign = -sign
    letters = []
    seen_deg = 0
    for b in face.blocks:
        block = [gens[x - 1] for x in b]
        bdegs = [g.degree for g in block]
        if (1 - len(block)) % 2 and seen_deg % 2:
            sign = -sign
        sign *= s_power_sign(bdegs)
        s2, w = sym_word([g.shifted(-1) for g in block])
        if w is None:
            return Vector({})
        sign *= s2
        letters.append(w)
        seen_deg += sum(bdegs)
    return Vector({Word(COBAR, letters): sign})


def reference_cobar_h(x):
    """cobar_h as the per-face loop sum_f c theta(gens, f) -(-1)^|gens| / gamma
    over the column of the standard face of x, as Fractions by cobar word."""
    gens = tuple(g.shifted(1) for w in x.letters for g in w.letters)
    face = standard_face(x.rank, [w.rank for w in x.letters])
    gamma = reference_theta(gens, face).terms.get(x)
    assert gamma
    sign = Fraction(-1 if sum(g.degree for g in gens) % 2 == 0 else 1, gamma)
    out = {}
    for f, c in fractions_of(face_column(build_contraction(x.rank), face)).items():
        for w, c2 in reference_theta(gens, f).terms.items():
            axpy(out, {w: sign * c * c2})
    return out


def _suspended_generators(algebra):
    return tuple(g.shifted(-1) for g in algebra.generators)


# even and odd letters, and repeated odd letters that kill a block
COBAR_H_CASES = [
    (heisenberg(), 4),
    (odd_abelian([1, 3], name="odd2"), 4),
    (bundled("l3only"), 4),
    (bundled("sl2"), 5),
]


@pytest.mark.parametrize("algebra,rank_cap", COBAR_H_CASES, ids=lambda c: getattr(c, "name", c))
def test_cobar_h_matches_theta_reference(algebra, rank_cap):
    sgens = _suspended_generators(algebra)
    for rank in range(1, rank_cap + 1):
        for x in cobar_words(sgens, rank):
            terms, den = pair = cobar_h(x)
            assert_reduced(pair)
            # same terms in the same order, so every later sum is unchanged
            assert list(fractions_of(pair).items()) == list(reference_cobar_h(x).items()), x
            assert terms == {w: c * den for w, c in reference_cobar_h(x).items()}, x


def test_cobar_h_follows_a_faulted_contraction(top_cell_fault):
    # the compiled homotopy lives on the contraction it was built from: a
    # contraction built after the fault must not reuse what the clean one
    # compiled for the same shape
    e, f, h = _suspended_generators(bundled("sl2"))
    _, letter = sym_word([e, f, h])
    x = Word(COBAR, (letter,))
    assert cobar_h(x) == ({}, 1)  # H vanishes on the top cell
    top_cell_fault()
    # H(top) = top now, so cobar_h(x) = -(-1)^|gens| x, and the unsuspended
    # letters e, f, h are even
    assert cobar_h(x) == ({x: -1}, 1)


def reference_cobar_g(word):
    """``cobar_g`` as it was written out on its own: every arrangement of the
    one-generator letters, signed by the Koszul sign of the generators'
    degrees, over n!."""
    letters = [desuspended_letter((g,))[1] for g in word.letters]
    degs = [g.degree for g in word.letters]
    terms = {}
    for perm in itertools.permutations(range(len(letters))):
        axpy(terms, {Word(COBAR, (letters[i] for i in perm)): koszul_sign(perm, degs)})
    return exact_sum([(terms, 1, math.factorial(len(letters)))])


# even generators, odd ones, and both
@pytest.mark.parametrize("algebra", [bundled("sl2"), odd_abelian([1, 3]), abelian([0, 1, 2])],
                         ids=["even", "odd", "mixed"])
def test_symmetrize_of_a_cobar_word_is_the_cobar_average(algebra):
    for weight in range(1, 5):
        for word in sym_words(algebra.generators, weight):
            expected = reference_cobar_g(word)
            got = symmetrize(Word(COBAR, [desuspended_letter((g,))[1] for g in word.letters]))
            assert got == expected, word
            assert list(got[0]) == list(expected[0]), word
            assert cobar_g(word) == expected, word


def test_cobar_gf_is_g_applied_to_f():
    # exact_apply against the linear extension in Fractions, on every cobar
    # word of rank <= 4
    hit = 0
    for rank in range(1, 5):
        for x in cobar_words(_suspended_generators(bundled("sl2")), rank):
            pair = cobar_gf(x)
            assert_reduced(pair)
            expected = {}
            for w, q in fractions_of(cobar_f(x)).items():
                for w2, q2 in fractions_of(cobar_g(w)).items():
                    axpy(expected, {w2: q * q2})
            assert list(fractions_of(pair).items()) == list(expected.items()), x
            hit += bool(pair[0])
    assert hit
