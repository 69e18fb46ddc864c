"""Spans and counts recorded around the calls between the engine's layers.

The benchmark measures from outside: ``install`` replaces, from here, the
module and class attributes through which the layers call each other with
wrappers, before any ``Transfer`` is constructed.  The engine's sources are
not touched.

A span wrapper records (name, start, end, parent) and adds the span's self
time (its duration minus the part its child spans cover) to its name.  Calls
made millions of times (``theta``, the transfer perturbation ``t``,
``product``) are only counted.  Spans stay in memory and are written out at
the end of the traced repetition.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

clock = time.perf_counter

LAYERS = ("permutahedra", "hpt", "uea", "exactlin", "linfty", "words", "bgg",
          "tableaux", "cli")


class Tracer:
    def __init__(self):
        self.span_names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.stack = []  # [span index, time covered by child spans]
        self.self_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)  # outermost spans of a name only
        self.calls = defaultdict(int)
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.columns_read = defaultdict(set)
        self.contractions = {}  # n -> the contraction built while tracing
        self.all_faces = None
        self.coeff_max_bits = 0

    def span(self, name, fn):
        """Wrap ``fn`` so that each call records a span called ``name``."""

        def traced(*args, **kwargs):
            stack = self.stack
            index = len(self.starts)
            self.span_names.append(name)
            self.parents.append(stack[-1][0] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            self.depth[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.starts[index] = start
                self.ends[index] = end
                duration = end - start
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                self.depth[name] -= 1
                if not self.depth[name]:
                    self.inclusive_s[name] += duration
                if stack:
                    stack[-1][1] += duration

        return functools.wraps(fn)(traced)

    def count(self, name, fn):
        """Wrap ``fn`` so that each call is counted under ``name``."""
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(counted)

    def note_coefficients(self, scalars):
        for q in scalars:
            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
            if bits > self.coeff_max_bits:
                self.coeff_max_bits = bits

    def note_tables(self, structures):
        """Record coefficient sizes of the product tables of ``structures``."""
        for structure in structures:
            for value in structure._tables.values():
                self.note_coefficients(value.terms.values())

    def write_spans(self, path):
        names = sorted(set(self.span_names))
        ids = {name: i for i, name in enumerate(names)}
        origin = self.starts[0] if self.starts else 0.0
        rows = [
            [ids[n], round(s - origin, 7), round(e - origin, 7), p]
            for n, s, e, p in zip(self.span_names, self.starts, self.ends, self.parents)
        ]
        with open(path, "w") as fh:
            json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")

    def metrics(self):
        """The per-layer metrics, as {name: (value, unit)}."""
        s, incl, calls, counts = self.self_s, self.inclusive_s, self.calls, self.counts
        out = {}
        for n in (4, 5):
            con = self.contractions.get(n)
            columns = con.columns.values() if con else ()
            self.note_coefficients(q for col in columns for q in col.terms.values())
            stored = len(columns)
            read = len(self.columns_read[n])
            out["permutahedra.build_s.n%d" % n] = (incl["permutahedra.build.n%d" % n], "s")
            out["permutahedra.faces.n%d" % n] = (
                len(self.all_faces(n)) if con else 0, "count")
            out["permutahedra.h_entries.n%d" % n] = (
                sum(len(col.terms) for col in columns), "count")
            out["permutahedra.h_columns_stored.n%d" % n] = (stored, "count")
            out["permutahedra.h_columns_read.n%d" % n] = (read, "count")
            out["permutahedra.h_useful_ratio.n%d" % n] = (
                read / stored if stored else 0.0, "ratio")
        products = counts["uea.product"]
        out.update({
            "permutahedra.cobar_h_s": (s["permutahedra.cobar_h"], "s"),
            "permutahedra.cobar_h.calls": (calls["permutahedra.cobar_h"], "count"),
            "permutahedra.theta.calls": (counts["permutahedra.theta"], "count"),
            "permutahedra.cobar_gf.calls": (counts["permutahedra.cobar_gf"], "count"),
            "permutahedra.homology_s": (incl["permutahedra.homology"], "s"),
            "hpt.X_s": (s["hpt.X"], "s"),
            "hpt.X.calls": (calls["hpt.X"], "count"),
            "hpt.lifted_h_s": (s["hpt.lifted_h"], "s"),
            "hpt.lifted_h.calls": (calls["hpt.lifted_h"], "count"),
            "hpt.d_small_s": (incl["hpt.d_small"], "s"),
            "hpt.d_small.calls": (calls["hpt.d_small"], "count"),
            "hpt.t.calls": (counts["hpt.t"], "count"),
            "uea.tables_s": (incl["uea.tables"], "s"),
            "uea.bar_words": (counts["uea.bar_words"], "count"),
            "uea.products_nonzero": (counts["uea.products_nonzero"], "count"),
            "uea.product.calls": (products, "count"),
            "uea.table_hit_ratio": (
                counts["uea.product.hits"] / products if products else 0.0, "ratio"),
            "exactlin.echelon_s": (s["exactlin.echelon"], "s"),
            "exactlin.echelon.calls": (calls["exactlin.echelon"], "count"),
            "exactlin.homology_s": (incl["exactlin.homology"], "s"),
            "exactlin.coeff_max_bits": (self.coeff_max_bits, "bits"),
            "linfty.check_s": (s["linfty.check"], "s"),
            "words.enumerate_s": (s["words.enumerate"], "s"),
            "cli.emit_s": (s["cli.emit"], "s"),
            "trace.spans": (len(self.starts), "count"),
        })
        # self time per layer: the first component of the span names
        for layer in LAYERS:
            out["%s.self_s" % layer] = (
                sum((t for name, t in s.items() if name.split(".")[0] == layer), 0.0), "s")
        for name in ("stasheff", "pbw", "alt", "involution", "coproduct",
                     "truncation", "morphism"):
            out["uea.%s_s" % name] = (s["uea." + name], "s")
        for name in ("cochain", "acyclicity", "roundtrip"):
            out["bgg.%s_s" % name] = (s["bgg." + name], "s")
        out["tableaux.profile_s"] = (s["tableaux.profile"], "s")
        return out


def _patch(owner, attr, make):
    setattr(owner, attr, make(getattr(owner, attr)))


def install(tracer):
    """Wrap the inter-layer calls, recording into ``tracer``."""
    from enveloping import bgg, cli, exactlin, hpt, linfty, permutahedra, tableaux, uea, words

    span, count = tracer.span, tracer.count

    # permutahedra: the lazy contraction build, the homotopy and its columns
    build = permutahedra.build_contraction

    def build_contraction(n):
        if n in tracer.contractions:
            return build(n)
        con = span("permutahedra.build.n%d" % n, build)(n)
        tracer.contractions[n] = con
        return con

    permutahedra.build_contraction = build_contraction
    tracer.all_faces = permutahedra.all_faces
    for module in (hpt, permutahedra):
        _patch(module, "cobar_h", lambda fn: span("permutahedra.cobar_h", fn))
    _patch(permutahedra, "theta", lambda fn: count("permutahedra.theta", fn))
    _patch(hpt, "cobar_gf", lambda fn: count("permutahedra.cobar_gf", fn))

    column = permutahedra.PermutahedronContraction.homotopy_column

    def homotopy_column(self, face):
        tracer.columns_read[self.n].add(face)
        return column(self, face)

    permutahedra.PermutahedronContraction.homotopy_column = homotopy_column

    def chain_complex(fn):
        def tagged(n):
            cx = fn(n)
            cx.homology_dims = span("permutahedra.homology", cx.homology_dims)
            return cx
        return tagged

    _patch(permutahedra, "chain_complex", chain_complex)

    # hpt: the perturbation series, the lifted homotopy, the perturbed d
    series = hpt.perturbation_series
    hpt.perturbation_series = lambda t, H, budget: span(
        "hpt.X", series(count("hpt.t", t), H, budget))
    lifted = hpt.lifted_homotopy
    hpt.lifted_homotopy = lambda gf, h: span("hpt.lifted_h", lifted(gf, h))
    bpl = hpt.bpl

    def perturbed(con, t, *args, **kwargs):
        out = bpl(con, t, *args, **kwargs)
        out.d_small = span("hpt.d_small", out.d_small)
        return out

    hpt.bpl = perturbed

    # uea: product tables and the checkers
    product = uea.AInftyStructure.product

    def counted_product(self, words):
        key = tuple(words)
        tracer.counts["uea.product"] += 1
        if key in self._tables:
            tracer.counts["uea.product.hits"] += 1
        return product(self, key)

    uea.AInftyStructure.product = counted_product
    # the structure's own bar words: their number is uea.bar_words
    enumerated = [0]  # size of the latest enumeration
    bar_words = span("words.enumerate", uea.bar_words_algebra)

    def bar_words_algebra(*args):
        out = bar_words(*args)
        enumerated[0] = len(out)
        return out

    uea.bar_words_algebra = bar_words_algebra
    export = span("uea.tables", uea.AInftyStructure.export_tables)

    def export_tables(self):
        tables = export(self)
        tracer.counts["uea.bar_words"] += enumerated[0]
        tracer.counts["uea.products_nonzero"] += len(tables)
        return tables

    uea.AInftyStructure.export_tables = export_tables
    checkers = {
        "stasheff_check": "uea.stasheff",
        "pbw_compare": "uea.pbw",
        "alt_bracket_check": "uea.alt",
        "involution_check": "uea.involution",
        "coproduct_strictness_check": "uea.coproduct",
        "truncation_agreement_check": "uea.truncation",
        "u_morphism": "uea.morphism",
        "check_first_component": "uea.morphism",
        "check_strict_vanishing": "uea.morphism",
        "check_morphism_chain_map": "uea.morphism",
        "composition_homotopy_check": "uea.morphism",
    }
    for attr, name in checkers.items():
        _patch(uea, attr, lambda fn, name=name: span(name, fn))
    for attr, name in (("generalized_cochain_check", "bgg.cochain"),
                       ("twisted_tensor_acyclicity", "bgg.acyclicity"),
                       ("roundtrip_fg_check", "bgg.roundtrip")):
        _patch(bgg, attr, lambda fn, name=name: span(name, fn))
    _patch(tableaux, "decomposition_dims", lambda fn: span("tableaux.profile", fn))

    # exactlin: row reduction and homology
    for attr in ("reduce", "insert"):
        _patch(exactlin.Echelon, attr, lambda fn: span("exactlin.echelon", fn))
    _patch(exactlin.FiniteComplex, "homology_dims",
           lambda fn: span("exactlin.homology", fn))

    # linfty checks, word enumeration, report serialisation
    for attr in ("check_linfty", "check_module", "check_morphism"):
        _patch(linfty, attr, lambda fn: span("linfty.check", fn))
    for module, attr in ((words, "bar_words_algebra"), (words, "cobar_words"),
                         (tableaux, "cobar_words")):
        _patch(module, attr, lambda fn: span("words.enumerate", fn))
    _patch(cli.Report, "emit", lambda fn: span("cli.emit", fn))
