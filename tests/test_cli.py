"""Command-line surface: exit codes, report determinism, bundled inputs."""

import contextlib
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DG_LIE
from enveloping import cli, hpt, linfty, permutahedra, uea
from enveloping.cli import BUNDLED, Report, build_parser, main
from enveloping.exactlin import CheckResult, Generator, rationals, sym_word

# SHA-256 of `products --format json` at arity cap 3 and weight cap 3: the
# product tables of every bundled input, and of each of FILE_INPUTS below,
# are pinned byte for byte.
PRODUCT_DIGESTS_3_3 = {
    "abelian1": "3920345d477cdffce9a1b30dc8dfbbbd045bd24649dc4babb7f4cc43b784a9b0",
    "abelian2": "e610c707a047fc9837a28b851415e6dca3377bf5662b7d7c00696352146d607e",
    "abelian3": "a4f800aeb1b1ba9b9b7f5d5b084ab85a6b117a4b0f3fc20e0aacc7365a2784c6",
    "sl2": "b59ce65eee4312a93de2e85b119da8b831a40c6be222dad39f26f239830ac593",
    "sl2_adjoint": "a774f5219c7d0d625a3e9183dfbf964cc5a260f2e3e814fca0705341c9f6ff41",
    "heisenberg": "60fb56e8c9fde0fe6005f19d5cd3c8c92e8c939e220e34e3f04a9474f1fcdb2d",
    "odd1": "016e896020f0b2ff41555b2ed20eee9c0f1f492ee4cb2f76d1aaf7d4409307a2",
    "odd2": "4c064926bfddc397ac82510fa34de38f4917ca8446c8a044a993a2373e24d7c5",
    "l3only": "9831241e01ef265f47718f4d07e8f62c1ee636515bdf7c11d26a8490925ee2c2",
    "ci_cubic": "0f7e30e4fa27a4174466049a4f1035d0234208a8c25463b6a86493f497cb998f",
    "ci_rational": "d51187b9872ffc2440fa4315b73b10d8bed5d0d181bbd7d8de51612f0b4262f4",
    "ci_sweep": "80664a533883d89b36bd2d4367b5dde368e216d81cfe6c656686e15755d3e8ac",
    "dg_lie": "313b9f88692e1c66216856a15df7fa9950e87249137cae5dcc9e4055bb1cd76c",
}

# The same at arity cap 4 and weight cap 4: the first pin on arity-4 bar
# words, whose order fixes the order of the table entries.
PRODUCT_DIGESTS_4_4 = {
    "abelian1": "2adeb210d01ab3f285af6fdcda31c112ce4bedd94eb2fd774e52679126f67ed2",
    "abelian2": "434488308e61fcb4b263e6457706577e6046a33154ccdc021fc084dd26e096ed",
    "abelian3": "b27fc9f15c643307d8290a3a309b7a0239f74c97a5c9fd9ceb1603a0300a2c40",
    "sl2": "0e1a1caa904867653a274fa600f19662c7f1855bddc2d9a5ebaf265a7a6d7d66",
    "sl2_adjoint": "478cd53f35f169da09e97896c2232da9a07a9148135cf6c4dd79cee624c5d35c",
    "heisenberg": "2aaa91c237faa4799d4f296b1657545b4c937f48726e08c3578be5c1216f8d35",
    "odd1": "06f59fc437377a7170c58ac070eaaa52dc243ee3717e26e61bc60cbdf136d514",
    "odd2": "5413ad9725a5e11d7ec0f2b64267e8b92a8618cc3a9c8d15e4937e130b8dfc65",
    "l3only": "3c324737474882487e66c1c14845c8e9938ba80a5701a2f5a1f2aafff5871a3f",
    "ci_cubic": "f6e761c9ab753abb1dfaa58233930c09111591222712df1b9d2e06ca42c69d64",
    "ci_rational": "002e611de756c9e22261ce3fc466df24a382736e8d6c04e241fde0138ceccd3f",
    "ci_sweep": "3f1879a9ba2ad1dc4a27f2a296aceb2b7d7eb06c476ff1aaa09c64d6a0e89a22",
    "dg_lie": "3a6e4ad58becee05e4c914c62f8d279f7e6d5313a8a5be974f08d9f3e2723b82",
}

# The same at the default caps, arity cap 4 and weight cap 5: the tables that
# a plain `products` prints.
PRODUCT_DIGESTS_4_5 = {
    "abelian1": "825d5d88f524436990117fa1e58e7781d758ee3c3bf5d654a030a1299928ae71",
    "abelian2": "f309d8bbff9659a0cc0ab985ffb8e0f66f5518f480aaf19244e1cf8ed1e70ad8",
    "abelian3": "5eb38bf9fc28fdfaa63aea36a40daa464d9bae32118154705c298eee66bf731f",
    "sl2": "d270abff9ba6c7c9bf682f5431f16d086b7c2d68d2310421a72f32deae7bb7ee",
    "sl2_adjoint": "ed7ed0c965db798f70e3d3628c33edae6b6504a60003806602b1058df9893876",
    "heisenberg": "b63c20495a7edb04573c5321c66b7be0b806a940b582495a6ee87686f596eb5d",
    "odd1": "969b05da8c7a18fb010ef1a368b0704b8f44d1e5ebd118066a38d375c9d2ebb9",
    "odd2": "3c2bed36352243672af1a24272b187a10d0ba8fa1e0b14cd07d6d278d0b592ef",
    "l3only": "666e4f1b6359a66fee25f554317eb1c6a7926d9896eb686000c80c64cbf0bdc0",
    "ci_cubic": "9885516b5471208c4cfcccd91eb2ba7b3ea797b81cdcb6636b236b931c337880",
    "ci_rational": "65e65f0583d22927775b525fd2278c8dd3a51c510439fd3a8ee5c1e1b9c006c6",
    "ci_sweep": "78bf7b3211aeaacaace800c29526b47eddd61b9dfe75e12821ca59dc151b714d",
    "dg_lie": "24c19ff303cc333d689ae1a8fba94526ab173110d0d347cdefd2d8c798dec8da",
}

# The same for sl2 alone at arity cap 3, weight cap 5 (the operation of the
# benchmark's rank5 workload) and at arity cap 4, weight cap 6.
SL2_PRODUCT_DIGESTS = {
    ("3", "5"): "277ddf0a73e47365d1634446a710c214c72ef00d042af2023eae889ae31fa923",
    ("4", "6"): "6321260016e08518501741ec105ff58f501fc5970dafecaecc7edfa034067845",
}

# The same for l3only at arity cap 4, weight cap 6, where the bracket
# selection skips the most trees: only l_3, so no pair runs the full tree.
L3ONLY_PRODUCT_DIGEST_4_6 = "2bc3a5e754f4596d99c3e0b6adff73bf7e1af3af7a1a3c7fa760268cdf60a571"

# Pinned inputs that are not bundled, read from "<name>.json" in the working
# directory: a complete intersection with rational coefficients (every
# bundled input has integer brackets), one shaped like the benchmark's
# generated inputs: two variables, two relations, an l_4 term, and a dg Lie
# algebra, whose m_1 is nonzero (every bundled input has l_1 = 0).
FILE_INPUTS = {
    "dg_lie": DG_LIE,
    "ci_rational": {"complete_intersection": {"variables": ["x", "y"], "relations": [
        {"id": "w", "terms": [{"coeff": "1/2", "monomial": ["x", "x", "y"]},
                              {"coeff": "-4/3", "monomial": ["x", "y", "y"]}]}]}},
    "ci_sweep": {"complete_intersection": {"variables": ["x", "y"], "relations": [
        {"id": "r1", "terms": [{"coeff": "-2/3", "monomial": ["x", "x", "y", "y"]},
                               {"coeff": "1/1", "monomial": ["x", "y"]}]},
        {"id": "r2", "terms": [{"coeff": "2/1", "monomial": ["x", "y", "y"]},
                               {"coeff": "1/2", "monomial": ["y", "y"]}]}]}},
}

# SHA-256 of `products --format json` at arity cap 4 and weight cap 4 on
# complete intersections, read from "<name>.json" in the working directory,
# on which F_t's step drops most faces of h: no l_2 acts on most pairs of
# generators, and no bracket at all on some letters.  One has l_2 and l_3,
# one l_3 and l_4 only, one three variables.
CI_INPUTS = {
    "ci_l2_l3": {"complete_intersection": {"variables": ["x", "y"], "relations": [
        {"id": "r1", "terms": [{"coeff": "1/1", "monomial": ["x", "y"]},
                               {"coeff": "-1/2", "monomial": ["x", "x", "y"]}]},
        {"id": "r2", "terms": [{"coeff": "3/1", "monomial": ["y", "y", "y"]}]}]}},
    "ci_l3_l4": {"complete_intersection": {"variables": ["x", "y"], "relations": [
        {"id": "r1", "terms": [{"coeff": "2/1", "monomial": ["x", "x", "y"]},
                               {"coeff": "-2/3", "monomial": ["x", "y", "y", "y"]}]}]}},
    "ci_three": {"complete_intersection": {"variables": ["x", "y", "w"], "relations": [
        {"id": "r1", "terms": [{"coeff": "1/1", "monomial": ["x", "y"]},
                               {"coeff": "-1/2", "monomial": ["y", "w", "w"]},
                               {"coeff": "3/1", "monomial": ["x", "x", "y", "w"]}]}]}},
}
CI_PRODUCT_DIGESTS_4_4 = {
    "ci_l2_l3": "d0e4d410337d5405c88d5bea4e35fefb3aa03019c96468815282aee5ff35bdee",
    "ci_l3_l4": "5d5bfb29e73c7371f053b1611d66231d7b470ac8e897d656c08d717e626fb2f4",
    "ci_three": "265d72492cab66293e5ce203e824f1ec65ae3a08acf77c2b43c613a2d4adb421",
}

# SHA-256 of `check --suite all --format json` at arity cap 3 and weight cap
# 3 (and at 4 and 4, the caps of the benchmark's verify workload), for every
# bundled input: the reports, all passing, are pinned byte for byte.
CHECK_DIGESTS_3_3 = {
    "abelian1": "2dd690ea08c269fa194931ab544f3274b450a031642cce846b09dd39d61ed4da",
    "abelian2": "5302e9f831ce042ada6dfece968cf5314ee3d1e256c3289fefd7d0aae6a9ac37",
    "abelian3": "a9739a85ec1ed145339d28dc76a92eae1628fc48c2b9546dee479d7612cbbdb6",
    "sl2": "e7667f453e1ebe8dc0f705306223b997022b3e2a9712066e11e880ee567b2cf4",
    "sl2_adjoint": "5a2936bcc09f42cdc29122dbf960a37396ee6e61b957a83c9cc96752f57dd7c2",
    "heisenberg": "d26580ee631df79e3e6653139f0a19eaad334f0a6bd98516dfbe0611a22e39bb",
    "odd1": "a00fbbfc8145e05bf3e16e3289d02a4b6ae769f250501be6c51e1b263d0eef53",
    "odd2": "84e138da24e1ff9356137f8869a6b4be690a83611daadc17353dc2b3fc821458",
    "l3only": "7edf2bc38734ae8d6d590c77596715cc904c7a9fa4914140021fa14c31d32621",
    "ci_cubic": "e70b5c6e2a4924159adf7d229b37fd74bcbeca9651fb53428576f47db2724b6d",
}
CHECK_DIGESTS_4_4 = {
    "abelian1": "81429340d2a27d519e967e3ba7e04aed802a3089219003d4bddfa52f0ad0382c",
    "abelian2": "02330a81e9465cf9dde7431b1b19b55dc20d26c82a3b89fe94713541f66dbe9e",
    "abelian3": "fa22755fb4091833ebedd7d193d08bf4ac9a041a982ce62ed7431600edf1e92f",
    "sl2": "4ebdf497005ee9c7ad909abcb8c808e4a67abeb07655fe71f5bd2042cd8dfa6f",
    "sl2_adjoint": "8ed8b629c69c8a4b8ad71fe9bb3f5a8d83a256217f3251819a7f138f93e2fc2c",
    "heisenberg": "4034eaade7038ed685493e0e4f6333bb091e6269c896c8a7cabca90dec0be1f2",
    "odd1": "2a056b83308f019899e15e137eb1850165492dfdff51f3a336bb623ceac99a80",
    "odd2": "754caec9d23070f0461c38098ec0ba25d12a275ae4600ce9368a426a8a820399",
    "l3only": "e9fc2b528ab18d0f86ae7d2d69e836ca0ce0b3dd464d3a2b612e8e1f79182047",
    "ci_cubic": "ed68ccfa4e48d5be71f08efb5dc0f4d096935d57bcdb7b5b3e9d0a3cff8db216",
}

# SHA-256 of `--n-cap 4 --format json tableaux` at (dim_even, dim_odd): the
# counting rows, the cube contraction and embedding rows, and both profiles.
TABLEAUX_DIGESTS_4 = {
    (2, 0): "e0a7fda1f2b3f60a986fc11fbe540148a844716afdb54c4b5f8bc2e0b1ab0795",
    (1, 1): "4fe43ccaf42c253fe9008cc6db8d354a7774e7f9750a0445c182b3544a7df1aa",
}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_bundled_algebras(capsys):
    for name in ("abelian1", "sl2", "heisenberg", "l3only", "odd1", "odd2", "ci_cubic"):
        code, out, err = run(
            capsys, ["--input", "bundled:%s" % name, "--weight-cap", "3", "validate"]
        )
        assert code == 0, (name, out, err)


def test_validate_module_input(capsys):
    code, out, _ = run(
        capsys, ["--input", "bundled:sl2_adjoint", "--weight-cap", "3", "validate"]
    )
    assert code == 0
    assert "check_module" in out


# sl2 with [f, h] = -2f: the Jacobi identity fails at weight three
JACOBI_BROKEN = {
    "generators": [
        {"id": "e", "degree": 0},
        {"id": "f", "degree": 0},
        {"id": "h", "degree": 0},
    ],
    "brackets": [
        {"arity": 2, "inputs": ["e", "f"],
         "value": [{"coeff": "1/1", "monomial": ["h"]}]},
        {"arity": 2, "inputs": ["e", "h"],
         "value": [{"coeff": "-2/1", "monomial": ["e"]}]},
        {"arity": 2, "inputs": ["f", "h"],
         "value": [{"coeff": "-2/1", "monomial": ["f"]}]},
    ],
}


def test_validate_corrupted_input_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(JACOBI_BROKEN))
    code, out, _ = run(
        capsys, ["--input", str(path), "--weight-cap", "3", "--format", "json", "validate"]
    )
    assert code == 1
    report = json.loads(out)
    assert report["exit_status"] == 1
    (check,) = report["checks"]
    assert check["status"] == "fail" and "counterexample" in check


def test_check_rejects_an_invalid_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(JACOBI_BROKEN))
    for suite in ("bgg", "stasheff", "pbw"):
        code, out, err = run(capsys, ["--input", str(path), "--arity-cap", "3",
                                      "--weight-cap", "3", "check", "--suite", suite])
        assert code == 2 and out == "", suite
        assert err.startswith("input error: ") and "(e*f*h)" in err, (suite, err)
    data = json.loads(resources.files("enveloping.data").joinpath(
        "sl2_adjoint.json").read_text())
    data["module"]["actions"][0]["value"][0]["coeff"] = "2/1"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["--input", str(path), "--arity-cap", "3",
                                  "--weight-cap", "3", "check", "--suite", "stasheff"])
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "module differential" in err


def test_parser_defaults():
    # weight cap 6 needs the rank-6 contraction and does not finish in practice
    args = build_parser().parse_args(["products"])
    assert (args.input, args.arity_cap, args.weight_cap, args.n_cap) == (None, 4, 5, 4)
    assert (args.format, args.timings) == ("text", False)
    args = build_parser().parse_args(["check"])
    assert args.suite == "all"
    args = build_parser().parse_args(["tableaux"])
    assert (args.dim_even, args.dim_odd) == (2, 0)


def input_data(name):
    """A fresh copy of the JSON of a bundled or a file input."""
    if name in FILE_INPUTS:
        return json.loads(json.dumps(FILE_INPUTS[name]))
    return json.loads(resources.files("enveloping.data").joinpath(name + ".json").read_text())


def with_entry(name, entry, key, value):
    data = input_data(name)
    entry(data)[key] = value
    return data


def with_repeat(name, entries):
    data = input_data(name)
    entries(data).append(entries(data)[0])
    return data


BAD_INPUTS = {
    "zero denominator in a bracket": (
        with_entry("sl2", lambda d: d["brackets"][1]["value"][0], "coeff", "1/0"),
        "zero denominator in '1/0'"),
    "zero denominator in a module action": (
        with_entry("sl2_adjoint", lambda d: d["module"]["actions"][0]["value"][0],
                   "coeff", "1/0"),
        "zero denominator in '1/0'"),
    "zero denominator in a relation": (
        with_entry("ci_rational", lambda d: d["complete_intersection"]["relations"][0]["terms"][1],
                   "coeff", "1/0"),
        "zero denominator in '1/0'"),
    "repeated generator id": (
        with_entry("abelian2", lambda d: d["generators"][1], "id", "a1"),
        "duplicate generator id 'a1'"),
    "repeated module generator id": (
        with_repeat("sl2_adjoint", lambda d: d["module"]["generators"]),
        "duplicate generator id 'e'"),
    "repeated variable": (
        with_repeat("ci_rational", lambda d: d["complete_intersection"]["variables"]),
        "repeated variable in ['x', 'y', 'x']"),
    "repeated relation id": (
        with_repeat("ci_rational", lambda d: d["complete_intersection"]["relations"]),
        "duplicate relation id 'w'"),
    "fractional degree": (
        with_entry("abelian2", lambda d: d["generators"][0], "degree", 1.5),
        "the degree of 'a1' must be an integer, not 1.5"),
    "fractional arity": (
        with_entry("sl2", lambda d: d["brackets"][0], "arity", 2.5),
        "arity must be an integer, not 2.5"),
    "module action arity": (
        with_entry("sl2_adjoint", lambda d: d["module"]["actions"][0], "arity", 2),
        "module action of arity 2 has 1 inputs"),
    "module action degree": (
        with_entry("sl2_adjoint", lambda d: d["module"]["generators"][0], "degree", 1),
        "module action of ['e'] on h[0] must land in degree 0"),
    "module differential degree": (
        with_entry("sl2_adjoint", lambda d: d["module"], "actions", [
            {"arity": 0, "module_input": "e", "value": [{"coeff": "1/1", "monomial": ["f"]}]}]),
        "module action of [] on e[0] must land in degree 1"),
    "variables as a string": (
        with_entry("ci_rational", lambda d: d["complete_intersection"], "variables", "xy"),
        "complete-intersection variables must be a list of ids, not 'xy'"),
    "bracket inputs as a string": (
        with_entry("sl2", lambda d: d["brackets"][0], "inputs", "ef"),
        "bracket inputs must be a list of ids, not 'ef'"),
    "bracket value monomial as a string": (
        with_entry("sl2", lambda d: d["brackets"][0]["value"][0], "monomial", "h"),
        "a monomial must be a list of ids, not 'h'"),
    "relation monomial as a string": (
        with_entry("ci_rational",
                   lambda d: d["complete_intersection"]["relations"][0]["terms"][0],
                   "monomial", "xxy"),
        "a monomial must be a list of ids, not 'xxy'"),
    "module action inputs as a string": (
        with_entry("sl2_adjoint", lambda d: d["module"]["actions"][0], "inputs", "e"),
        "module action inputs must be a list of ids, not 'e'"),
    "module action monomial as a string": (
        with_entry("sl2_adjoint", lambda d: d["module"]["actions"][0]["value"][0],
                   "monomial", "h"),
        "a monomial must be a list of ids, not 'h'"),
    # each of the next three loaded at validate and broke a later direct sum
    "null generator id": (
        with_entry("abelian1", lambda d: d["generators"][0], "id", None),
        "a generator id must be a string, not None"),
    "generator id as a number": (
        with_entry("abelian1", lambda d: d["generators"][0], "id", 7),
        "a generator id must be a string, not 7"),
    "name as a number": (
        with_entry("sl2", lambda d: d, "name", 3),
        "the input name must be a string, not 3"),
    "boolean degree": (
        with_entry("abelian2", lambda d: d["generators"][0], "degree", True),
        "the degree of 'a1' must be an integer, not True"),
    # each of the next two was accepted and then read wrongly: a curvature
    # l_0 was ignored, and the string "false" read as true
    "bracket of arity 0": (
        {"generators": [{"id": "z", "degree": 2}], "brackets": [
            {"arity": 0, "inputs": [], "value": [{"coeff": "1", "monomial": ["z"]}]}]},
        "bracket arity must be at least 1, not 0"),
    "divided powers as a string": (
        with_entry("ci_cubic", lambda d: d["complete_intersection"], "divided_powers", "false"),
        "divided_powers must be a boolean, not 'false'"),
    "module name as a number": (
        with_entry("sl2_adjoint", lambda d: d["module"], "name", 5),
        "the module name must be a string, not 5"),
}


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_two_before_any_computation(tmp_path, capsys, name):
    data, message = BAD_INPUTS[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["--input", str(path), "--weight-cap", "3", "validate"])
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and message in err, err


def json_paths(data, path=()):
    """The path of keys and indices to every value inside a JSON value."""
    items = data.items() if isinstance(data, dict) else (
        enumerate(data) if isinstance(data, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


DELETE = "delete"
REPLACEMENTS = (None, True, False, 0, -1, 3, 1.5, "", "x", "1/0", [], ["x"], {}, {"id": "x"})


@st.composite
def malformed_inputs(draw):
    """A bundled input with one value deleted, or replaced by a JSON value
    of any type."""
    data = input_data(draw(st.sampled_from(BUNDLED)))
    path = draw(st.sampled_from(list(json_paths(data))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    change = draw(st.sampled_from((DELETE,) + REPLACEMENTS))
    if change == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = change
    return data


@settings(max_examples=60, deadline=None, derandomize=True)
@given(malformed_inputs())
def test_a_malformed_input_gets_a_documented_outcome(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        Path(path).write_text(json.dumps(data))
        for command in (["validate"],
                        ["--arity-cap", "2", "--weight-cap", "2", "check", "--suite", "all"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["--input", path] + command)
            err = err.getvalue()
            assert code in (0, 1, 2), (command, err)
            assert "Traceback" not in err and "internal invariant violation" not in err, err


def test_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    code, _, err = run(capsys, ["--input", str(path), "validate"])
    assert code == 2
    assert "input error" in err
    code, _, err = run(capsys, ["--input", "bundled:nonsense", "validate"])
    assert code == 2


def test_products_json_is_deterministic(capsys):
    argv = [
        "--input", "bundled:sl2", "--arity-cap", "2", "--weight-cap", "2",
        "--format", "json", "products",
    ]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["exit_status"] == 0
    entry = report["products"][0]
    assert set(entry) == {"arity", "inputs", "output"}
    assert all("/" in t["coeff"] for t in entry["output"])


def test_permutahedron_command(capsys):
    code, out, _ = run(capsys, ["--n-cap", "4", "--format", "json", "permutahedron"])
    assert code == 0
    report = json.loads(out)
    assert report["face_counts"]["4"] == {"1": 1, "2": 14, "3": 36, "4": 24}
    assert report["face_counts"]["3"] == {"1": 1, "2": 6, "3": 6}
    assert report["homology"]["4"] == {"0": 1}


def test_the_contraction_build_is_charged_to_the_faces_row(monkeypatch, capsys):
    # --timings reads each row's time, so the raw solve of the n-th
    # contraction runs inside faces[n=N], not between rows
    rows, built = [], []
    run_row, init = Report.run, permutahedra.PermutahedronContraction.__init__

    def recording_run(self, name, fn):
        rows.append(name)
        try:
            return run_row(self, name, fn)
        finally:
            rows.pop()

    def recording_init(self, n):
        built.append((n, rows[-1] if rows else None))
        init(self, n)

    monkeypatch.setattr(Report, "run", recording_run)
    monkeypatch.setattr(permutahedra.PermutahedronContraction, "__init__", recording_init)
    monkeypatch.setattr(permutahedra, "build_contraction",
                        functools.lru_cache(maxsize=None)(permutahedra.PermutahedronContraction))
    code, _, _ = run(capsys, ["--n-cap", "4", "--timings", "permutahedron"])
    assert code == 0
    assert built == [(n, "faces[n=%d]" % n) for n in range(1, 5)]


def test_permutahedron_command_names_the_failing_face(top_cell_fault, capsys):
    # H must kill the top cell; at n = 1 the top cell is the vertex, and the
    # fault shows first on the basis element () of k, through H G
    top_cell_fault()
    code, out, _ = run(capsys, ["--n-cap", "3", "--format", "json", "permutahedron"])
    assert code == 1
    failed = {c["name"]: c["counterexample"]
              for c in json.loads(out)["checks"] if c["status"] == "fail"}
    assert failed == {"contraction[n=1]": [], "contraction[n=2]": [[1, 2]],
                      "contraction[n=3]": [[1, 2, 3]]}


def _failed_rows(out):
    return {c["name"]: (c["counterexample"], c["detail"])
            for c in json.loads(out)["checks"] if c["status"] == "fail"}


def test_a_wrong_entry_in_a_numbered_column_names_its_face(monkeypatch, capsys):
    # one entry added to the stored integer column of the top cell at n = 3,
    # the one face whose column no face before it reads: H(top) gains an
    # edge, and the homotopy identity fails there, named by the face
    @functools.lru_cache(maxsize=None)
    def faulty_contraction(n):
        con = permutahedra.PermutahedronContraction(n)
        if n == 3:
            (top,) = con.faces.by_size[1]
            con.homotopy_column(top).terms[con.faces.by_size[2][0]] = 1
        return con

    monkeypatch.setattr(permutahedra, "build_contraction", faulty_contraction)
    code, out, _ = run(capsys, ["--n-cap", "3", "--format", "json", "permutahedron"])
    assert code == 1
    assert _failed_rows(out) == {"contraction[n=3]": ([[1, 2, 3]], "homotopy identity")}


def test_a_flipped_sign_in_the_numbered_boundary_fails_boundary_squares(monkeypatch, capsys):
    # the checks read FaceIndex.boundary: one sign flipped in the boundary
    # of the top cell at n = 3 leaves d d(top) = -2 c d(e) for its first
    # term c e.  The contraction is built before the fault, and the complex
    # reads its FaceIndex, so the boundary row names the face and d d(top)
    # by faces, and the contraction's homotopy identity fails on the top
    contractions = {n: permutahedra.PermutahedronContraction(n) for n in (1, 2, 3)}
    top_boundary = contractions[3].faces.boundary[0]
    first = next(iter(top_boundary))
    top_boundary[first] = -top_boundary[first]
    monkeypatch.setattr(permutahedra, "build_contraction", contractions.__getitem__)
    code, out, _ = run(capsys, ["--n-cap", "3", "--format", "json", "permutahedron"])
    assert code == 1
    expected = "boundary squares to -2 [1|2|3] + 2 [1|3|2]"
    assert _failed_rows(out) == {"boundary_squares[n=3]": ([[1, 2, 3]], expected),
                                 "contraction[n=3]": ([[1, 2, 3]], "homotopy identity")}


def _negate_tree_product(monkeypatch, inputs):
    """Negate the table entry m_n on ``inputs``, a repr of its input words,
    where the products read it: the tree form of the transfer."""
    tree_product = hpt.Transfer.tree_product

    def negated(self, words):
        terms, den = tree_product(self, words)
        if "".join(map(repr, words)) == inputs:
            return {w: -c for w, c in terms.items()}, den
        return terms, den

    monkeypatch.setattr(hpt.Transfer, "tree_product", negated)


# the failing rows of ``check`` on sl2 at 3/3 with m_2(e, f) negated
NEGATED_EF_FAILURES = {
    "alt": {"alt[n=2]": (["e", "f"], "antisymmetrized product -2 (e*f) != bracket 1 (h)")},
    "stasheff": {"stasheff": ([["e"], ["e"], ["f"]],
                              "bar differential squares to -2/3 [(e)] + 2 [(e*h)] + 2 [(e*e*f)]")},
}


@pytest.mark.parametrize("suite", sorted(NEGATED_EF_FAILURES))
def test_a_negated_table_entry_fails_with_its_pinned_detail(monkeypatch, capsys, suite):
    # the detail prints vectors: the antisymmetrized product and the bracket,
    # or d d of a bar word, with a coefficient that is not an integer
    _negate_tree_product(monkeypatch, "(e)(f)")
    code, out, _ = run(capsys, ["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap",
                                "3", "--format", "json", "check", "--suite", suite])
    assert code == 1
    assert _failed_rows(out) == NEGATED_EF_FAILURES[suite]


def test_a_doubled_boundary_fails_the_contraction_row(monkeypatch, capsys):
    # boundary entries of 2 instead of +-1: the stored homotopy no longer
    # contracts the complex, d d is still zero and the homology is still one
    # point, so only the contraction row fails, at the first face of n = 2
    index = permutahedra.FaceIndex.__init__

    def doubled(self, n):
        index(self, n)
        self.boundary = [{g: 2 * c for g, c in col.items()} for col in self.boundary]

    monkeypatch.setattr(permutahedra.FaceIndex, "__init__", doubled)
    monkeypatch.setattr(permutahedra, "build_contraction",
                        functools.lru_cache(maxsize=None)(permutahedra.PermutahedronContraction))
    code, out, err = run(capsys, ["--n-cap", "2", "--format", "json", "permutahedron"])
    assert (code, err) == (1, "")
    assert _failed_rows(out) == {"contraction[n=2]": ([[1, 2]], "homotopy identity")}


def test_any_other_exception_exits_three(monkeypatch, capsys):
    def broken(_args):
        raise KeyError("lost")

    monkeypatch.setitem(cli.COMMANDS, "validate", broken)
    code, out, err = run(capsys, ["--input", "bundled:sl2", "validate"])
    assert code == 3 and out == ""
    assert err.splitlines() == ["internal invariant violation: 'lost'"]


def test_tableaux_command(capsys):
    code, out, _ = run(
        capsys, ["--n-cap", "3", "--format", "json", "tableaux", "--dim-even", "2"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["profiles"]["2"]["cobar"] == report["profiles"]["2"]["tableaux"]


def test_tableaux_reports_are_pinned(capsys):
    for (even, odd), digest in TABLEAUX_DIGESTS_4.items():
        argv = ["--n-cap", "4", "--format", "json", "tableaux",
                "--dim-even", str(even), "--dim-odd", str(odd)]
        code, out, _ = run(capsys, argv)
        assert code == 0, (even, odd)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, (even, odd)


def test_tableaux_rejects_a_negative_dimension(capsys):
    for flag in ("--dim-even", "--dim-odd"):
        with pytest.raises(SystemExit) as exit_info:
            main(["tableaux", flag, "-1"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2 and captured.out == "", flag
        assert "dimensions must not be negative" in captured.err


def test_check_pbw_suite(capsys):
    code, out, _ = run(
        capsys,
        ["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap", "3",
         "check", "--suite", "pbw"],
    )
    assert code == 0
    assert "pbw" in out


def test_check_pbw_suite_fails_cleanly_below_its_caps(capsys):
    # the closed form on two generators needs weight 2
    code, out, _ = run(capsys, ["--input", "bundled:sl2", "--weight-cap", "1",
                                "--format", "json", "check", "--suite", "pbw"])
    assert code == 1
    (check,) = json.loads(out)["checks"]
    assert check["name"] == "pbw" and check["status"] == "fail"


def test_check_morphism_and_theorem1_suites(capsys):
    code, out, _ = run(capsys, ["--n-cap", "3", "check", "--suite", "morphism"])
    assert code == 0
    code, out, _ = run(capsys, ["--n-cap", "3", "check", "--suite", "theorem1"])
    assert code == 0


def test_missing_input_is_a_parse_error(capsys):
    # every suite that reads the algebra; the suite that runs them all stops
    # at the first of them
    for suite in ("stasheff", "pbw", "alt", "involution", "coproduct", "truncation",
                  "bgg", "all"):
        code, _, err = run(capsys, ["check", "--suite", suite])
        first = "stasheff" if suite == "all" else suite
        assert code == 2, suite
        assert err == "input error: suite %r needs --input\n" % first, suite


def test_timings_flag_adds_fields(capsys):
    argv = ["--input", "bundled:abelian1", "--weight-cap", "2", "--format", "json",
            "--timings", "validate"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert all("time_s" in c for c in report["checks"])


def test_check_timings_cover_every_suite(capsys):
    argv = ["--n-cap", "3", "--format", "json", "--timings",
            "check", "--suite", "morphism"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(checks) == 6
    assert all(c["name"].startswith("morphism: ") and c["time_s"] > 0 for c in checks)


@pytest.mark.parametrize("caps, digests", [
    (("3", "3"), PRODUCT_DIGESTS_3_3),
    (("4", "4"), PRODUCT_DIGESTS_4_4),
    (("4", "5"), PRODUCT_DIGESTS_4_5),
], ids=["3_3", "4_4", "4_5"])
def test_product_tables_are_pinned(capsys, tmp_path, monkeypatch, caps, digests):
    assert set(digests) == set(BUNDLED) | set(FILE_INPUTS)
    monkeypatch.chdir(tmp_path)  # the path of a file input is in the report
    for name, data in FILE_INPUTS.items():
        Path("%s.json" % name).write_text(json.dumps(data))
    for name, digest in digests.items():
        source = "%s.json" % name if name in FILE_INPUTS else "bundled:%s" % name
        argv = ["--input", source, "--arity-cap", caps[0], "--weight-cap", caps[1],
                "--format", "json", "products"]
        code, out, _ = run(capsys, argv)
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


@pytest.mark.parametrize("name", list(CI_INPUTS))
def test_complete_intersection_tables_are_pinned_at_4_4(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # the path of a file input is in the report
    Path("%s.json" % name).write_text(json.dumps(CI_INPUTS[name]))
    argv = ["--input", "%s.json" % name, "--arity-cap", "4", "--weight-cap", "4",
            "--format", "json", "products"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CI_PRODUCT_DIGESTS_4_4[name]


@pytest.mark.parametrize("caps", list(SL2_PRODUCT_DIGESTS), ids=["3_5", "4_6"])
def test_sl2_product_tables_are_pinned_at_weight_5_and_6(capsys, caps):
    argv = ["--input", "bundled:sl2", "--arity-cap", caps[0], "--weight-cap", caps[1],
            "--format", "json", "products"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SL2_PRODUCT_DIGESTS[caps]


def test_l3only_product_table_is_pinned_at_weight_6(capsys):
    argv = ["--input", "bundled:l3only", "--arity-cap", "4", "--weight-cap", "6",
            "--format", "json", "products"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == L3ONLY_PRODUCT_DIGEST_4_6


def _check_reports_match(capsys, caps, digests):
    for name, digest in digests.items():
        argv = ["--input", "bundled:%s" % name, "--arity-cap", caps, "--weight-cap", caps,
                "--format", "json", "check", "--suite", "all"]
        code, out, _ = run(capsys, argv)
        assert code == 0, name
        assert hashlib.sha256(out.encode()).hexdigest() == digest, name


def test_check_reports_are_pinned(capsys):
    _check_reports_match(capsys, "3", CHECK_DIGESTS_3_3)


def test_check_reports_are_pinned_at_4_4(capsys):
    _check_reports_match(capsys, "4", CHECK_DIGESTS_4_4)


def test_bgg_below_the_top_bracket_arity_reports_small_caps(capsys):
    argv = ["--input", "bundled:l3only", "--arity-cap", "2", "--weight-cap", "3",
            "--format", "json", "check", "--suite", "bgg"]
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("bgg: twisted cochain equation", "bgg: twisted tensor homology is one point"):
        assert checks[name] == {"name": name, "status": "fail", "counterexample": "3",
                                "detail": "caps too small for the check"}
    assert len(checks) == 4
    code, out, err = run(capsys, [a for a in argv if a not in ("--format", "json")])
    assert code == 1 and err == ""
    assert out.count("      counterexample: 3\n      detail: caps too small for the check\n") == 2


# the rows that need m_2 (pbw runs only on a dg Lie input), and the bgg rows;
# the round trip needs m_2 to reach the longer bar words of the unit inclusion
SMALL_CAPS_ROWS = ["alt[n=2]", "involution", "coproduct", "truncation",
                   "bgg: twisted cochain equation", "bgg: twisted tensor homology is one point",
                   "bgg: round trip"]
SMALL_CAPS_FAILURES = {"sl2": ["pbw"] + SMALL_CAPS_ROWS, "l3only": SMALL_CAPS_ROWS}


@pytest.mark.parametrize("name", list(SMALL_CAPS_FAILURES))
def test_arity_cap_one_reports_small_caps(capsys, name):
    argv = ["--input", "bundled:%s" % name, "--arity-cap", "1", "--weight-cap", "2",
            "--format", "json", "check", "--suite", "all"]
    code, out, err = run(capsys, argv)
    assert code == 1 and err == ""
    rows = {c["name"]: c for c in json.loads(out)["checks"] if c["status"] == "fail"}
    assert sorted(rows) == sorted(SMALL_CAPS_FAILURES[name])
    assert all(c["counterexample"] == "2" and c["detail"] == "caps too small for the check"
               for c in rows.values())


def test_check_transfers_its_input_once(capsys, monkeypatch):
    # the truncation check reads the run's structure; only the 2-truncation
    # (sl2_trunc), the doubled algebra and the morphism checks build their
    # own, and sl2, a dg Lie algebra, is its own 2-truncation, whose
    # structure reads the run's transfer
    built, transferred = [], []
    init, transfer_init = uea.AInftyStructure.__init__, uea.Transfer.__init__

    def recording_init(self, algebra, arity_cap, weight_cap, transfer=None):
        built.append(algebra.name)
        init(self, algebra, arity_cap, weight_cap, transfer)

    def recording_transfer(self, algebra, weight_cap):
        transferred.append(algebra.name)
        transfer_init(self, algebra, weight_cap)

    monkeypatch.setattr(uea.AInftyStructure, "__init__", recording_init)
    monkeypatch.setattr(uea.Transfer, "__init__", recording_transfer)
    argv = ["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap", "3",
            "--format", "json", "check", "--suite", "all"]
    code, _, _ = run(capsys, argv)
    assert code == 0
    assert built.count("sl2") == 1 and "sl2_trunc" in built
    assert transferred.count("sl2") == 1 and "sl2_trunc" not in transferred


# the maps that the checkers re-read, each memoized on its owner: name ->
# where the unmemoized computation is patched, (memo_method, "fn") or
# (module, function)
MEMOIZED_MAPS = {
    "coalgebra_map": (linfty.LInftyMorphism.coalgebra_map, "fn"),
    "reduced_coproduct": (linfty.CECoalgebra.reduced_coproduct, "fn"),
    "splits": (linfty.CECoalgebra.splits, "fn"),
    "letter_splits": (linfty.CECoalgebra.letter_splits, "fn"),
    "symmetrize": (uea.ClassicalEnveloping.symmetrize, "fn"),
    "coproduct_map": (uea, "coproduct_map"),
}

# the same maps on a fresh owner, with empty memos
FRESH = {
    "coalgebra_map": lambda phi, word: linfty.LInftyMorphism(
        phi.source, phi.target,
        {k: {key: rationals(v) for key, v in table.items()}
         for k, table in phi.components.items()}).coalgebra_map(word),
    "reduced_coproduct": lambda C, word: linfty.CECoalgebra(
        C.algebra, C.weight_cap, C.min_arity, C.max_arity).reduced_coproduct(word),
    "splits": lambda C, word: linfty.CECoalgebra(
        C.algebra, C.weight_cap, C.min_arity, C.max_arity).splits(word),
    "letter_splits": lambda C, word: linfty.CECoalgebra(
        C.algebra, C.weight_cap, C.min_arity, C.max_arity).letter_splits(word),
    "symmetrize": lambda oracle, word: uea.ClassicalEnveloping(oracle.algebra).symmetrize(word),
    "coproduct_map": uea.coproduct_map,
    "bar_words": lambda structure: uea.AInftyStructure(
        structure.algebra, structure.arity_cap, structure.weight_cap).bar_words(),
}


@pytest.mark.parametrize("name", ["sl2", "l3only"])
def test_check_computes_each_map_once(capsys, monkeypatch, name):
    # one run computes each map that the checkers re-read once per owner
    # and argument, and enumerates each structure's bar words once; every
    # value still equals a fresh evaluation after the run, so no caller
    # changed a shared Vector
    computed = []

    def recording(key, fn):
        def wrapped(*args):
            value = fn(*args)
            computed.append(((key,) + args, value))
            return value
        return wrapped

    for key, (owner, attr) in MEMOIZED_MAPS.items():
        monkeypatch.setattr(owner, attr, recording(key, getattr(owner, attr)))
    enumerations = []
    enumerate_words = uea.bar_words_algebra
    monkeypatch.setattr(uea, "bar_words_algebra",
                        lambda *caps: enumerations.append(caps) or enumerate_words(*caps))
    bar_words = uea.AInftyStructure.bar_words

    def recording_bar_words(self):
        before = len(enumerations)
        words = bar_words(self)
        computed.extend((("bar_words", self), words) for _ in enumerations[before:])
        return words

    monkeypatch.setattr(uea.AInftyStructure, "bar_words", recording_bar_words)
    argv = ["--input", "bundled:" + name, "--arity-cap", "3", "--weight-cap", "3",
            "--format", "json", "check", "--suite", "all"]
    code, _, _ = run(capsys, argv)
    monkeypatch.undo()
    assert code == 0
    counts = Counter(key for key, _ in computed)
    assert [key for key, n in counts.items() if n > 1] == []
    expected = set(FRESH) - ({"symmetrize"} if name == "l3only" else set())
    assert {key[0] for key in counts} == expected
    for (key, *args), value in computed:
        assert FRESH[key](*args) == value, (key, args[1:])


def test_counterexamples_keep_their_order():
    e, f = Generator("e", 0), Generator("f", 0)
    word_f, word_e = sym_word([f])[1], sym_word([e])[1]
    report = Report("check", {})
    report.add("pair", CheckResult(False, (word_f, word_e)), 0.0)
    report.add("tuple", CheckResult(False, (3, 1, 2)), 0.0)
    report.add("generators", CheckResult(False, (f, e)), 0.0)
    report.add("set", CheckResult(False, frozenset({3, 1, 2})), 0.0)
    report.add("passing", CheckResult(True, (2, 1)), 0.0)
    checks = report.as_dict()["checks"]
    assert [c.get("counterexample") for c in checks] == [
        [["f"], ["e"]], ["3", "1", "2"], ["f", "e"], ["1", "2", "3"], None]
    assert report.as_dict()["exit_status"] == 1


def test_products_do_not_depend_on_the_hash_seed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    argv = [sys.executable, "-m", "enveloping", "--input", "bundled:l3only",
            "--arity-cap", "3", "--weight-cap", "3", "--format", "json", "products"]
    outputs = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    digest = hashlib.sha256(outputs[0].encode()).hexdigest()
    assert digest == PRODUCT_DIGESTS_3_3["l3only"]


@pytest.mark.parametrize("argv, cap, rank", [
    (["--input", "bundled:odd2", "--weight-cap", "12", "products"],
     "--arity-cap 4 with --weight-cap 12", 8),
    (["--input", "bundled:sl2", "--weight-cap", "7", "check", "--suite", "stasheff"],
     "--weight-cap 7", 7),
    (["--input", "bundled:l3only", "--arity-cap", "2", "--weight-cap", "9", "check"],
     "--weight-cap 9", 9),
    (["--n-cap", "7", "permutahedron"], "--n-cap 7", 7),
    (["--input", "bundled:sl2", "--n-cap", "8", "check"], "--n-cap 8", 8),
], ids=["odd2-products", "sl2-stasheff", "l3only-all", "permutahedron", "check-n-cap"])
def test_a_contraction_above_rank_6_is_refused_before_any_computation(
        capsys, monkeypatch, argv, cap, rank):
    # a computation that started would raise, and exit 3
    def computed(*args):
        raise AssertionError("computed")

    monkeypatch.setattr(linfty, "check_linfty", computed)
    monkeypatch.setattr(permutahedra, "all_faces", computed)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == ("input error: %s needs the rank-%d permutahedron contraction; the largest "
                   "that a run may build is rank 6\n" % (cap, rank))


def test_contraction_rank_of_the_transfer():
    # all generators odd: at most one of each in a symmetric word
    ranks = {name: uea.contraction_rank(cli.load_input("bundled:" + name)[0], 4, 12)
             for name in ("odd1", "odd2", "l3only", "sl2")}
    assert ranks == {"odd1": 4, "odd2": 8, "l3only": 12, "sl2": 12}
    assert uea.contraction_rank(cli.load_input("bundled:odd2")[0], 3, 5) == 5


def test_odd1_runs_at_weight_cap_12(capsys):
    # its transfer needs only the rank-4 contraction
    code, out, err = run(capsys, ["--input", "bundled:odd1", "--weight-cap", "12",
                                  "--format", "json", "products"])
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["weight_cap"] == 12
