"""The stored homotopy of the permutahedron contraction: the package data
``data/homotopy/n<N>.json`` that every run loads instead of solving.

Its certificate: the SHA-256 of each file is pinned; the generator's solve
is run again for every stored rank and compared with the file entry by
entry, in order; the contraction identities hold on the standard faces and
each stored column is invariant under its face's stabilizer, which with the
equivariance of d, F and G gives them on every face; a flipped entry is
refused by the loader, by the CLI and by the comparison."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import zlib
from importlib import resources
from pathlib import Path

import pytest

from enveloping import cli, permutahedra
from enveloping.exactlin import compositions, perm_parity
from enveloping.permutahedra import (
    HOMOTOPY_CRC32,
    FaceIndex,
    OrderedPartition,
    PermutahedronContraction,
    _action,
    homotopy_data,
    standard_face,
    stored_homotopy,
)

ROOT = Path(__file__).resolve().parents[1]

# SHA-256 of each stored file, as the generator wrote it
HOMOTOPY_SHA256 = {
    1: "7423b9c84e71373b9a51c27f54d8fe43ce41fddda4ed67387079a97d46529aba",
    2: "9313e8b2fff177b20845e6c6e35ced44074db6bf8ea433f3ac7f950ec5c61140",
    3: "f2eb09b4fd2ca0b8b2ca146a81c67e7ef465f50fc07490651e400d8160462260",
    4: "e4892adba523dcb14876f43bbaf285f25084ecaa810d8800171227a6cccf9359",
    5: "b07f960d7cdf4dd9eff391c195096538b231d7547463906394e4fe79a6314561",
    6: "1ee777c38903d54aedfa45a61f7dd5ad5deae2a7bbe37db902ae802b38c2678d",
}


def stored_bytes(n):
    return permutahedra._homotopy_file(n).read_bytes()


def face_of(key):
    """The face of a stored block vector, for messages."""
    blocks = [int(c) for c in key]
    return OrderedPartition(len(blocks), [[x for x, b in enumerate(blocks, 1) if b == k]
                                          for k in range(max(blocks) + 1)])


def first_difference(stored, solved):
    """None when two stored homotopies agree entry by entry and in order;
    otherwise a message that names the first face where they differ."""
    if list(stored) != list(solved):
        return "standard faces differ: %r, %r" % (list(map(face_of, stored)),
                                                  list(map(face_of, solved)))
    for key, want in solved.items():
        for k, (got, expected) in enumerate(itertools.zip_longest(stored[key], want)):
            if got != expected:
                return "H(%r), entry %d: stored %s, solved %s" % (
                    face_of(key), k,
                    got and "%r: %d" % (face_of(got[0]), got[1]),
                    expected and "%r: %d" % (face_of(expected[0]), expected[1]))
    return None


def flipped_copy(tmp_path, n):
    """Every stored file copied to ``tmp_path``, with the first entry of the
    first nonzero column of rank n one larger; returns (face, entry face)."""
    for m in HOMOTOPY_CRC32:
        (tmp_path / ("n%d.json" % m)).write_bytes(stored_bytes(m))
    data = json.loads(stored_bytes(n))
    key = next(key for key, col in data.items() if col)
    data[key][0][1] += 1
    (tmp_path / ("n%d.json" % n)).write_text(json.dumps(data, separators=(",", ":")))
    return face_of(key), face_of(data[key][0][0])


@pytest.mark.parametrize("n", sorted(HOMOTOPY_SHA256))
def test_stored_files_match_their_pinned_digests(n):
    data = stored_bytes(n)
    assert hashlib.sha256(data).hexdigest() == HOMOTOPY_SHA256[n]
    assert zlib.crc32(data) == HOMOTOPY_CRC32[n]


@pytest.mark.parametrize("n", sorted(HOMOTOPY_CRC32))
def test_the_solve_regenerates_every_stored_file(n):
    # entry by entry and in order, then byte for byte as the generator
    # writes it
    solved = homotopy_data(FaceIndex(n))
    assert first_difference(json.loads(stored_bytes(n)), solved) is None
    assert json.dumps(solved, separators=(",", ":")).encode() == stored_bytes(n)


def test_the_generator_writes_the_stored_files(tmp_path, capsys):
    assert permutahedra.main([str(tmp_path / "homotopy"), "4"]) == 0
    for n in range(1, 5):
        assert (tmp_path / "homotopy" / ("n%d.json" % n)).read_bytes() == stored_bytes(n)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["n=1", "faces=1"], ["n=2", "faces=3"], ["n=3", "faces=13"], ["n=4", "faces=75"]]
    assert [line.split()[3] for line in lines] == [
        "crc32=0x%08x" % HOMOTOPY_CRC32[n] for n in range(1, 5)]


@pytest.mark.parametrize("n", sorted(HOMOTOPY_CRC32))
def test_stored_columns_are_invariant_under_their_stabilizers(n):
    # h in S_m1 x ... x S_mk fixes the standard face up to the product of
    # the blocks' signs, so h H(rep) = sign(h) H(rep); and nu H(rep) is
    # H(nu rep), which is transported from another representative
    con = PermutahedronContraction(n)  # not the cached one: freed afterwards
    faces = con.faces
    for sizes in compositions(n):
        rep = faces.index[standard_face(n, sizes)]
        col = con.homotopy_column(rep).terms
        for parts in itertools.product(*map(itertools.permutations, faces.faces[rep].blocks)):
            moved = {}
            faces.transport(moved, _action(tuple(x for part in parts for x in part)), col,
                            math.prod(map(perm_parity, parts)))
            assert moved == col, (faces.faces[rep], parts)
        sign, image = faces.nu[rep]
        reflected = {faces.nu[g][1]: sign * faces.nu[g][0] * c for g, c in col.items()}
        assert reflected == con.homotopy_column(image).terms, faces.faces[rep]


def test_n6_contraction_identities_hold_on_the_standard_faces():
    # d, F, G and H commute with S_n x <nu>, so the identities on the 32
    # standard faces give them on all 4,683
    n = 6
    con = PermutahedronContraction(n)
    standard = [con.faces.index[standard_face(n, sizes)] for sizes in compositions(n)]
    result = con.verify_on(standard, [()])
    assert result, result


def test_a_flipped_entry_is_refused_by_the_loader(monkeypatch, tmp_path):
    flipped_copy(tmp_path, 3)
    monkeypatch.setattr(permutahedra, "_homotopy_file", lambda n: tmp_path / ("n%d.json" % n))
    assert stored_homotopy(2) == json.loads(stored_bytes(2))
    with pytest.raises(RuntimeError, match="n3.json does not match its pinned crc32"):
        stored_homotopy(3)


def test_a_flipped_entry_makes_products_exit_three(monkeypatch, tmp_path, capsys):
    flipped_copy(tmp_path, 3)
    monkeypatch.setattr(permutahedra, "_homotopy_file", lambda n: tmp_path / ("n%d.json" % n))
    monkeypatch.setattr(permutahedra, "build_contraction",
                        functools.lru_cache(maxsize=None)(PermutahedronContraction))
    code = cli.main(["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap", "3",
                     "products"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == ("internal invariant violation: stored homotopy n3.json does not match "
                   "its pinned crc32\n")


def test_a_flipped_entry_is_named_by_the_regenerate_comparison(tmp_path):
    face, entry = flipped_copy(tmp_path, 3)
    stored = json.loads((tmp_path / "n3.json").read_bytes())
    difference = first_difference(stored, homotopy_data(FaceIndex(3)))
    assert difference.startswith("H(%r), entry 0: stored %r: " % (face, entry))


def test_the_rank_limit_is_the_largest_stored_rank():
    # raising the limit without the data fails here
    directory = resources.files("enveloping.data").joinpath("homotopy")
    stored = sorted(int(p.name[1:-len(".json")]) for p in directory.iterdir())
    assert stored == sorted(HOMOTOPY_CRC32) == list(range(1, cli.MAX_CONTRACTION_RANK + 1))


def test_a_rank_without_stored_columns_is_refused_without_solving(monkeypatch):
    def solved(*args):
        raise AssertionError("solved")

    monkeypatch.setattr(permutahedra, "_solve_homotopy", solved)
    monkeypatch.setattr(permutahedra.FaceIndex, "__init__", solved)
    rank = cli.MAX_CONTRACTION_RANK + 1
    message = ("no stored homotopy for the rank-%d permutahedron; the largest stored rank is %d"
               % (rank, cli.MAX_CONTRACTION_RANK))
    with pytest.raises(ValueError, match=message):
        permutahedra.build_contraction(rank)
    with pytest.raises(ValueError, match="rank-0 permutahedron"):
        permutahedra.build_contraction(0)


def test_no_run_solves(monkeypatch):
    # products on sl2 at 4/6 and check --suite all at 4/4 on every bundled
    # input build their contractions, up to rank 6, and solve nothing
    built, solves = [], []
    init, solve = PermutahedronContraction.__init__, permutahedra._solve_homotopy

    def recording_init(self, n):
        built.append(n)
        init(self, n)

    def counted(faces):
        solves.append(faces.n)
        return solve(faces)

    monkeypatch.setattr(PermutahedronContraction, "__init__", recording_init)
    monkeypatch.setattr(permutahedra, "_solve_homotopy", counted)
    monkeypatch.setattr(permutahedra, "build_contraction",
                        functools.lru_cache(maxsize=None)(PermutahedronContraction))
    runs = [["--input", "bundled:sl2", "--weight-cap", "6", "products"]]
    runs += [["--input", "bundled:" + name, "--weight-cap", "4", "check", "--suite", "all"]
             for name in sorted(cli.BUNDLED)]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in runs]
    assert codes == [0] * len(runs)
    assert sorted(set(built)) == [1, 2, 3, 4, 5, 6]
    assert solves == []


def test_products_and_check_do_not_import_hashlib():
    script = (
        "import contextlib, io, sys\n"
        "from enveloping import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['--input', 'bundled:sl2', '--weight-cap', '4', 'products']),\n"
        "             cli.main(['--input', 'bundled:sl2', '--weight-cap', '4', 'check'])]\n"
        "print(codes, 'hashlib' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[0, 0] False\n"
