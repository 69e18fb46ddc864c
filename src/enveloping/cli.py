"""Command-line surface: load algebras, run computations and verification
suites, emit deterministic machine-readable reports.

Exit codes: 0 all checks pass, 1 a check failed, 2 input could not be
parsed, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from importlib import resources

from . import bgg, hpt, linfty, permutahedra, tableaux, uea, words
from .exactlin import CheckResult, Generator, Vector, agree, exact_apply, memo_op, square_zero

TEXT = "text"
JSON = "json"

BUNDLED = (
    "abelian1",
    "abelian2",
    "abelian3",
    "sl2",
    "sl2_adjoint",
    "heisenberg",
    "odd1",
    "odd2",
    "l3only",
    "ci_cubic",
)


class ParseFailure(Exception):
    pass


class Report:
    """Deterministic run report; timings only surface when asked for."""

    def __init__(self, command, config):
        self.command = command
        self.config = config
        self.checks = []

    def add(self, name, result, elapsed):
        entry = {"name": name, "status": "pass" if result else "fail"}
        if not result:
            if getattr(result, "counterexample", None) is not None:
                entry["counterexample"] = _serialize(result.counterexample)
            if getattr(result, "detail", ""):
                entry["detail"] = result.detail
        entry["_elapsed"] = elapsed
        self.checks.append(entry)

    def run(self, name, fn):
        start = time.monotonic()
        result = fn()
        self.add(name, result, time.monotonic() - start)
        return result

    @property
    def ok(self):
        return all(c["status"] == "pass" for c in self.checks)

    def as_dict(self, timings=False):
        checks = []
        for c in self.checks:
            c2 = {k: v for k, v in c.items() if not k.startswith("_")}
            if timings:
                c2["time_s"] = round(c["_elapsed"], 6)
            checks.append(c2)
        return {
            "command": self.command,
            "config": self.config,
            "checks": checks,
            "exit_status": 0 if self.ok else 1,
        }

    def emit(self, fmt, timings=False, payload=None):
        data = self.as_dict(timings)
        if payload:
            data.update(payload)
        if fmt == JSON:
            print(json.dumps(data, indent=2))
            return
        print("command: %s" % self.command)
        for key, value in self.config.items():
            print("  %s: %s" % (key, value))
        for c in self.checks:
            line = "  [%s] %s" % ("ok" if c["status"] == "pass" else "FAIL", c["name"])
            if timings:
                line += "  (%.3fs)" % c["_elapsed"]
            print(line)
            if "counterexample" in c:
                print("      counterexample: %s" % (c["counterexample"],))
            if "detail" in c:
                print("      detail: %s" % (c["detail"],))
        print("result: %s" % ("pass" if self.ok else "fail"))


def _serialize(obj):
    """JSON form of a counterexample; sequences keep their order, sets are sorted."""
    if obj is None:
        return None
    if hasattr(obj, "serialize"):
        return obj.serialize()
    if isinstance(obj, (frozenset, set)):
        return [_serialize(x) for x in sorted(obj, key=repr)]
    if isinstance(obj, (list, tuple)):
        return [_serialize(x) for x in obj]
    return repr(obj)


def load_input(path):
    if path is None:
        raise ParseFailure("this command needs --input")
    if path.startswith("bundled:"):
        name = path.split(":", 1)[1]
        if name not in BUNDLED:
            raise ParseFailure("unknown bundled input %r" % name)
        text = resources.files("enveloping.data").joinpath(name + ".json").read_text()
        data = json.loads(text)
    else:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseFailure(str(exc))
    try:
        algebra = linfty.algebra_from_json(data)
        module = None
        if "module" in data:
            module = linfty.module_from_json(algebra, data["module"])
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseFailure("bad algebra description: %s" % exc)
    return algebra, module


def cmd_validate(args):
    report = Report("validate", _config(args))
    algebra, module = load_input(args.input)
    report.run("check_linfty[%s]" % (algebra.name or "input"),
               lambda: linfty.check_linfty(algebra, args.weight_cap))
    if module is not None:
        report.run("check_module", lambda: linfty.check_module(module, args.weight_cap))
    return report, None


# the largest permutahedron contraction that a run may build: the largest
# rank whose homotopy is stored
MAX_CONTRACTION_RANK = max(permutahedra.HOMOTOPY_CRC32)


def _refuse_large_contraction(rank, cap):
    """Exit 2, before any computation, when a request needs a permutahedron
    contraction above MAX_CONTRACTION_RANK; ``cap`` names the option."""
    if rank > MAX_CONTRACTION_RANK:
        raise ParseFailure("%s needs the rank-%d permutahedron contraction; the largest "
                           "that a run may build is rank %d" % (cap, rank, MAX_CONTRACTION_RANK))


def _refuse_large_transfer(algebra, args):
    rank = uea.contraction_rank(algebra, args.arity_cap, args.weight_cap)
    cap = "--weight-cap %d" % args.weight_cap
    if rank < args.weight_cap:
        cap = "--arity-cap %d with %s" % (args.arity_cap, cap)
    _refuse_large_contraction(rank, cap)


def cmd_products(args):
    report = Report("products", _config(args))
    algebra, _ = load_input(args.input)
    _refuse_large_transfer(algebra, args)
    result = report.run("check_linfty", lambda: linfty.check_linfty(algebra, args.weight_cap))
    if not result:
        return report, None
    structure = uea.AInftyStructure(algebra, args.arity_cap, args.weight_cap)
    tables = structure.export_tables()
    report.run("stasheff", lambda: uea.stasheff_check(structure))
    return report, {"products": tables}


SUITES = (
    "stasheff",
    "pbw",
    "alt",
    "involution",
    "coproduct",
    "morphism",
    "truncation",
    "theorem1",
    "permutahedron",
    "tableaux",
    "bgg",
    "all",
)


# the suites that transfer the input
STRUCTURE_SUITES = {"stasheff", "pbw", "alt", "involution", "coproduct", "truncation", "bgg"}


def cmd_check(args):
    report = Report("check", _config(args))
    suites = SUITES[:-1] if args.suite == "all" else (args.suite,)
    if "permutahedron" in suites:
        _refuse_large_contraction(args.n_cap, "--n-cap %d" % args.n_cap)
    algebra = None
    if args.input is not None:
        algebra, module = load_input(args.input)
        if STRUCTURE_SUITES.intersection(suites):
            _refuse_large_transfer(algebra, args)
        _validate_input(algebra, module, args.weight_cap)
    structure = None

    def need_algebra():
        if algebra is None:
            raise ParseFailure("suite %r needs --input" % (suite,))
        return algebra

    def need_structure():
        nonlocal structure
        if structure is None:
            structure = uea.AInftyStructure(need_algebra(), args.arity_cap,
                                            args.weight_cap)
        return structure

    for suite in suites:
        if suite == "stasheff":
            report.run("stasheff", lambda: uea.stasheff_check(need_structure()))
        elif suite == "pbw":
            if args.suite == "pbw" or (algebra is not None and algebra.is_dg_lie()):
                report.run("pbw", lambda: uea.pbw_compare(need_structure()))
        elif suite == "alt":
            # alt[n=2] reports small caps at arity cap 1
            for n in range(2, max(min(args.arity_cap, 3), 2) + 1):
                report.run("alt[n=%d]" % n,
                           lambda n=n: uea.alt_bracket_check(need_structure(), n))
        elif suite == "involution":
            report.run("involution", lambda: uea.involution_check(need_structure()))
        elif suite == "coproduct":
            report.run("coproduct", lambda: uea.coproduct_strictness_check(
                need_structure(), min(args.arity_cap, 2), min(args.weight_cap, 3)))
        elif suite == "truncation":
            report.run("truncation",
                       lambda: uea.truncation_agreement_check(need_structure()))
        elif suite == "morphism":
            _morphism_checks(report)
        elif suite == "theorem1":
            report.run("theorem1: contraction and involution identities",
                       lambda: _theorem1_check(args.n_cap))
        elif suite == "permutahedron":
            _permutahedron_checks(report, args.n_cap)
        elif suite == "tableaux":
            _tableaux_checks(report, min(args.n_cap, 4))
        elif suite == "bgg":
            _bgg_checks(report, args, need_structure())
    return report, None


def _validate_input(algebra, module, weight_cap):
    """Reject an input that is not an L-infinity algebra (or module)."""
    result = linfty.check_linfty(algebra, weight_cap)
    if result and module is not None:
        result = linfty.check_module(module, weight_cap)
    if not result:
        raise ParseFailure("not a valid L-infinity input: %r" % (result,))


def _morphism_checks(report):
    H = linfty.heisenberg()
    A2 = linfty.abelian([0, 0])
    x, y, z = (H.by_id[k] for k in ("x", "y", "z"))
    a1, a2 = A2.by_id["a1"], A2.by_id["a2"]
    strict = linfty.LInftyMorphism(H, A2, {1: {(x,): {a1: 1}, (y,): {a2: 1}, (z,): {}}})
    La = linfty.LInftyAlgebra([Generator("a", 1)], {}, name="A")
    Lb = linfty.LInftyAlgebra([Generator("b", 1)], {}, name="B")
    a, b = La.by_id["a"], Lb.by_id["b"]
    bent = linfty.LInftyMorphism(La, Lb, {1: {(a,): {b: 1}}, 2: {(a, a): {b: 1}}})
    report.run("morphism: strict map valid", lambda: linfty.check_morphism(strict, 3))
    data = uea.u_morphism(strict, 3, 3)
    report.run("morphism: first component", lambda: uea.check_first_component(data))
    report.run("morphism: strict vanishing", lambda: uea.check_strict_vanishing(data))
    report.run("morphism: non-strict valid", lambda: linfty.check_morphism(bent, 3))
    data2 = uea.u_morphism(bent, 3, 3)
    report.run("morphism: non-strict chain map",
               lambda: uea.check_morphism_chain_map(data2))
    report.run("morphism: strict factor homotopy vanishes",
               lambda: uea.composition_homotopy_check(
                   bent, linfty.identity_morphism(Lb), 2, 3)[0])


def _theorem1_check(n_cap):
    V = linfty.dg_vector_space([("v", 0, {"w": 1}), ("w", 1, {})])
    C1 = linfty.CECoalgebra(V, n_cap + 1, max_arity=1)
    con = hpt.cobar_contraction(C1)
    cobar = [xw for r in range(1, min(n_cap, 4) + 1) for xw in words.cobar_words(C1.sgens, r)]
    result = con.verify_on(cobar, [])
    if not result:
        return result
    iota, H = permutahedra.iota_omega, con.H
    return agree(cobar, lambda xw: exact_apply(iota(xw), H), lambda xw: exact_apply(H(xw), iota),
                 "h does not commute with iota_omega")


def _permutahedron_checks(report, n_cap):
    """Run the checks for n <= n_cap; returns the face counts and homology.
    Every check runs on face numbers; a failing row names its face."""
    payload = {"face_counts": {}, "homology": {}}
    for n in range(1, n_cap + 1):
        cx = None

        def faces(n=n):
            # the complex builds the contraction: its time is this row's
            nonlocal cx
            cx = permutahedra.chain_complex(n)
            counts = {p + n: len(cx.basis(p)) for p in cx.degrees()}
            payload["face_counts"][str(n)] = {str(d): counts[d] for d in sorted(counts)}
            expected = {d: _stirling(n, d) * math.factorial(d) for d in range(1, n + 1)}
            return CheckResult(counts == expected, (counts, expected))

        report.run("faces[n=%d]" % n, faces)
        numbers = range(sum(len(cx.basis(p)) for p in cx.degrees()))
        report.run("boundary_squares[n=%d]" % n, lambda n=n, d=memo_op(cx.differential):
                   _on_faces(n, square_zero(numbers, d, "%r"), d))

        def homology(n=n, cx=cx):
            dims = cx.homology_dims()
            payload["homology"][str(n)] = {str(p): v for p, v in sorted(dims.items())}
            return CheckResult(dims == {0: 1})

        report.run("homology[n=%d]" % n, homology)

        report.run("contraction[n=%d]" % n, lambda n=n: _on_faces(
            n, permutahedra.build_contraction(n).verify_on(numbers, [()])))
    return payload


def _on_faces(n, result, d=None):
    """A check's ``result`` over the face numbers of the n-th permutahedron,
    with a failing face number named by its face; for ``square_zero`` on
    the boundary ``d``, the detail names the faces of d(d(face)) too."""
    if result or type(result.counterexample) is not int:
        return result
    faces = permutahedra.all_faces(n)
    detail = result.detail
    if d is not None:
        terms, den = exact_apply(d(result.counterexample), d)
        detail = "boundary squares to %r" % (Vector({faces[g]: c for g, c in terms.items()}, den),)
    return CheckResult(False, faces[result.counterexample], detail)


def _stirling(n, d):
    # second kind, small inputs only
    if d == 0:
        return 1 if n == 0 else 0
    if n == 0:
        return 0
    return d * _stirling(n - 1, d) + _stirling(n - 1, d - 1)


def _tableaux_checks(report, n_cap, dims=(2, 0)):
    """Run the counting checks for n <= n_cap; returns both dimension profiles."""
    profiles = {}
    for n in range(1, n_cap + 1):
        def bijection(n=n):
            # every column-semistandard filling arises exactly once
            for shape in tableaux.partitions(n):
                total = {}
                for T in tableaux.standard_tableaux(shape):
                    for J in tableaux.descent_subsets(T):
                        key = tableaux.column_tableau(T, J)
                        total[key] = total.get(key, 0) + 1
                direct = []
                for values in range(1, n + 1):
                    direct.extend(tableaux.column_semistandard_fillings(shape, values))
                if sorted(total) != sorted(direct) or any(v != 1 for v in total.values()):
                    return CheckResult(False, shape)
            return CheckResult(True)

        def profile(n=n):
            result, cobar, tabs = tableaux.decomposition_dims(n, *dims)
            profiles[str(n)] = {
                "cobar": {str(k): v for k, v in sorted(cobar.items())},
                "tableaux": {str(k): v for k, v in sorted(tabs.items())},
            }
            return result

        report.run("tableaux_bijection[n=%d]" % n, bijection)
        report.run("profile[n=%d]" % n, profile)
    return profiles


def _bgg_checks(report, args, structure):
    wcap = min(args.weight_cap, 3)
    report.run("bgg: twisted cochain equation",
               lambda: bgg.generalized_cochain_check(structure))
    report.run("bgg: twisted tensor homology is one point",
               lambda: bgg.twisted_tensor_acyclicity(structure, wcap)[0])
    M = linfty.adjoint_module(structure.algebra)
    if report.run("bgg: adjoint module valid", lambda: linfty.check_module(M, wcap)):
        report.run("bgg: round trip", lambda: bgg.roundtrip_fg_check(
            M, structure, min(args.arity_cap, 3), wcap))


def cmd_permutahedron(args):
    _refuse_large_contraction(args.n_cap, "--n-cap %d" % args.n_cap)
    report = Report("permutahedron", _config(args))
    return report, _permutahedron_checks(report, args.n_cap)


def cmd_tableaux(args):
    report = Report("tableaux", _config(args))
    dims = (args.dim_even, args.dim_odd)
    profiles = _tableaux_checks(report, args.n_cap, dims)
    gens = tableaux.generators(*dims)
    space = linfty.dg_vector_space([(g.id, g.degree, {}) for g in gens])
    d_omega = hpt.cobar_differential(linfty.CECoalgebra(space, args.n_cap, max_arity=1))
    # n -> the embedding images, computed once for the two embedding rows
    embedding_images = functools.cache(lambda n: tableaux.embedding_images(n, gens))

    for n in range(1, args.n_cap + 1):
        def cube(n=n):
            for T in tableaux.tableaux_of_size(n):
                result = tableaux.t_complex_contraction_check(T)
                if not result:
                    return result
            return CheckResult(True)

        report.run("cube_contraction[n=%d]" % n, cube)
        report.run("embedding_spans[n=%d]" % n,
                   lambda n=n: tableaux.embedding_rank_check(n, gens, embedding_images(n)))
        report.run("embedding_chain_map[n=%d]" % n,
                   lambda n=n: tableaux.embedding_chain_check(embedding_images(n), d_omega))
    return report, {"profiles": profiles}


def _config(args):
    cfg = {
        "input": args.input,
        "arity_cap": args.arity_cap,
        "weight_cap": args.weight_cap,
        "n_cap": args.n_cap,
        "format": args.format,
    }
    if getattr(args, "suite", None):
        cfg["suite"] = args.suite
    if args.command == "tableaux":
        cfg["dim_even"], cfg["dim_odd"] = args.dim_even, args.dim_odd
    return cfg


def build_parser():
    parser = argparse.ArgumentParser(
        prog="enveloping",
        description="exact universal enveloping of L-infinity algebras",
    )
    parser.add_argument("--input", help="algebra JSON path or bundled:<name>")
    parser.add_argument("--arity-cap", dest="arity_cap", type=int, default=4)
    parser.add_argument("--weight-cap", dest="weight_cap", type=int, default=5)
    parser.add_argument("--n-cap", dest="n_cap", type=int, default=4)
    parser.add_argument("--format", choices=(TEXT, JSON), default=TEXT)
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock timings in the report")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    sub.add_parser("products")
    check = sub.add_parser("check")
    check.add_argument("--suite", choices=SUITES, default="all")
    sub.add_parser("permutahedron")
    tab = sub.add_parser("tableaux")
    tab.add_argument("--dim-even", type=int, default=2)
    tab.add_argument("--dim-odd", type=int, default=0)
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "products": cmd_products,
    "check": cmd_check,
    "permutahedron": cmd_permutahedron,
    "tableaux": cmd_tableaux,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.arity_cap < 1 or args.weight_cap < 1 or args.n_cap < 1:
        parser.error("caps must be positive")
    if args.command == "tableaux" and min(args.dim_even, args.dim_odd) < 0:
        parser.error("dimensions must not be negative")
    try:
        report, payload = COMMANDS[args.command](args)
    except ParseFailure as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal invariant violation: %s" % exc, file=sys.stderr)
        return 3
    report.emit(args.format, timings=args.timings, payload=payload)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
