"""The tree form of the transfer against the perturbed contraction on bar
words.

``AInftyStructure.product`` reads ``Transfer.letters``, the letter
contraction of the cobar algebra perturbed by the higher brackets, on cobar
words only: m_1 is its d_small, and m_n for n >= 2 is ``tree_product``,
F_t(B), by a recursion on Phi.  ``Transfer.con`` perturbs the lifted
contraction on bar words of cobar words by the whole perturbation, and is the
independent reference here.  The one-letter part of its d_small on
[u_1|..|u_n] must be m_n before its conjugation sign, and Phi the one-letter
part of its inclusion.  The whole of ``Transfer.con`` has a tree form too,
built here from the letters' maps alone: G is the coalgebra map with the
components Phi, F the coalgebra map with the components p below, and H a
sum over the prefixes; the engine keeps the bar-level series, which this
form cannot replace (``test_the_tree_projection_hides_a_top_cell_fault``).
The bracket selection of ``AInftyStructure.product`` skips the tree only
where the tree is zero, and f t_omega P h B only where it is zero.
"""

from collections import Counter

import pytest
from conftest import bar_words_cobar, bundled, complete_intersections, dg_lie, scaled
from hypothesis import given, settings
from hypothesis import strategies as st

from enveloping.bgg import roundtrip_fg_check
from enveloping.cli import BUNDLED, main
from enveloping import hpt
from enveloping.exactlin import (BAR, SYMMETRIC, Vector, Word, compositions, consecutive_blocks,
                                 exact_apply, exact_sum, memo_op)
from enveloping.hpt import Transfer
from enveloping.linfty import CECoalgebra, adjoint_module, dg_vector_space
from enveloping.permutahedra import cobar_f, cobar_h
from enveloping.uea import AInftyStructure, corestriction
from enveloping.words import bar_words_algebra, vector_product


def assert_tree_matches_series(algebra, arity_cap, weight_cap):
    """m_n from the letters against the one-letter part of the bar-level
    d_small: at arity 1, m_1 = d_small_t(u) is -1 times it (the conjugation
    sign of one letter), at arity n >= 2 F_t(B) is it.  Returns whether some
    product of arity n >= 2 is nonzero."""
    transfer = Transfer(algebra, weight_cap)
    bars = bar_words_algebra(algebra.generators, weight_cap, arity_cap)
    for bar in bars:
        series = corestriction(transfer.con.d_small(bar))
        if bar.length == 1:
            assert transfer.letters.d_small(bar.letters[0]) == scaled(series, -1), bar
        else:
            assert transfer.tree_product(bar.letters) == series, bar
    return any(transfer.tree_product(bar.letters)[0] for bar in bars if bar.length >= 2)


def algebra_of(name):
    """A bundled input, or the dg input ``dg_lie`` of ``conftest``."""
    return dg_lie() if name == "dg_lie" else bundled(name)


@pytest.mark.parametrize("name", BUNDLED + ("dg_lie",))
def test_tree_products_match_the_series(name):
    # on odd1 every product of arity >= 2 vanishes: t1 * t1 = 0; on dg_lie,
    # m_1 holds terms of l_1 and of the perturbation
    assert assert_tree_matches_series(algebra_of(name), 3, 3) == (name != "odd1")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complete_intersections(), st.integers(2, 3))
def test_tree_products_match_the_series_on_complete_intersections(algebra, arity_cap):
    assert assert_tree_matches_series(algebra, arity_cap, 3)


def assert_live_steps(algebra, arity_cap, weight_cap):
    """F_t's step on the letters, t_omega h(w) with h read only on the
    faces that hold a letter t_omega acts on, is t_omega h(w) with the whole
    h on every word that the series reaches in a run of the product tables,
    and its F_t is that of the series with the whole h.  Returns the number
    of those words on which the step's h drops terms."""
    recorded = []
    series = hpt._series

    def recording(A, K, budget):
        X = series(A, K, budget)
        recorded.append((K, X))
        return X

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hpt, "_series", recording)
        structure = AInftyStructure(algebra, arity_cap, weight_cap)
        structure.export_tables()
    transfer = structure.transfer
    (step, F_t), = [(K, X) for K, X in recorded if X is transfer.letters.F]
    C2 = CECoalgebra(algebra, weight_cap, min_arity=2)
    t_omega = memo_op(hpt.bar_coderivation({1: C2.delta}))
    letter = hpt.cobar_contraction(transfer.C1)
    reference = hpt.bpl(letter, t_omega)
    live = lambda letter: bool(C2.delta(letter))
    dropped = 0
    for w in list(F_t.memo):
        assert step(w) == exact_apply(cobar_h(w), t_omega), w
        assert F_t(w) == reference.F(w), w
        dropped += cobar_h(w, live) != cobar_h(w)
    return dropped


@pytest.mark.parametrize("name", BUNDLED + ("dg_lie",))
def test_the_live_step_of_F_t_is_the_whole_step(name):
    # l3only's brackets act only on three generators of one letter, so the
    # step drops the faces whose letters all have fewer
    dropped = assert_live_steps(algebra_of(name), 3, 4)
    if name == "l3only":
        assert dropped > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complete_intersections(), st.integers(2, 3))
def test_the_live_step_of_F_t_is_the_whole_step_on_complete_intersections(
        algebra, arity_cap):
    assert_live_steps(algebra, arity_cap, 3)


@pytest.mark.parametrize("name", ["sl2", "l3only", "odd2", "ci_cubic", "heisenberg",
                                  "abelian3", "sl2_adjoint", "odd1"])
def test_phi_is_the_one_letter_part_of_the_perturbed_inclusion(name):
    algebra = bundled(name)
    transfer = Transfer(algebra, 3)
    bars = bar_words_algebra(algebra.generators, 3, 3)
    for bar in bars:
        terms, den = transfer.con.G(bar)
        one_letter = {w.letters[0]: c for w, c in terms.items() if w.length == 1}
        assert transfer.phi(bar.letters) == exact_sum([(one_letter, 1, den)]), bar
    assert any(transfer.phi(bar.letters)[0] for bar in bars if bar.length >= 2)


def coalgebra_map(component):
    """The coalgebra map of bar words with the one-letter components
    ``component``, a tuple of letters -> exact pair: on [x_1|..|x_n], the sum
    over the splittings of the letters into consecutive blocks of
    [c(b_1)|..|c(b_k)], with no signs (the components have degree 0)."""

    def on_bar(bar):
        words = bar.letters
        parts = []
        for sizes in compositions(len(words)):
            terms, den = vector_product(list(map(component, consecutive_blocks(words, sizes))),
                                        lambda ws: (1, Word(BAR, ws)))
            parts.append((terms, 1, den))
        return exact_sum(parts)

    return on_bar


def product(left, right, combine, sign=1):
    """The product of two exact pairs under the ``vector_product`` combine
    ``combine``, with a sign, as a part (terms, sign, den) of
    ``exact_sum``."""
    terms, den = vector_product([left, right], combine)
    return terms, sign, den


def t2(left, right, sign=1):
    """t_2(x, y) = (-1)^|x| xy on two exact pairs of cobar words."""
    return product(left, right, hpt._t2, sign)


def prepend(left, right, sign):
    """[x|w] for x in the exact pair ``left`` of cobar words and w in the
    exact pair ``right`` of bar words."""
    return product(left, right, lambda xw: (1, Word(BAR, (xw[0],) + xw[1].letters)), sign)


class BarTree:
    """``Transfer.con`` in tree form, from the letters' perturbed maps F_t,
    G_t and H_t alone, on tuples of cobar words x_1..x_n:
        Psi(x_1..x_n) = t_2(q(x_1..x_n-1), x_n)
            - sum_k<n (-1)^(|x_1|+..+|x_k|) t_2(r(x_1..x_k), q(x_k+1..x_n)),
        p = F_t x and q = H_t x on one letter, p = F_t Psi and q = H_t Psi
            on n >= 2,
        r = G_t F_t x on one letter, and on n >= 2
            r = G_t p + H_t sum_k t_2(r(x_1..x_k), r(x_k+1..x_n)),
        H(w) = sum_j (-[q(w_<=j)|w_>j]
                      + (-1)^(|w_<=j| + j) [r(w_<=j)|H(w_>j)]).
    p are the one-letter components of con.F, -q those of con.H, and r those
    of con.G con.F.  Every map is exact and memoized per tuple.
    """

    def __init__(self, transfer):
        self.letters = transfer.letters
        self.psi = memo_op(self.psi)
        self.p = memo_op(self.p)
        self.q = memo_op(self.q)
        self.r = memo_op(self.r)
        self.h = memo_op(self.h)

    def psi(self, xs):
        parts = [t2(self.q(xs[:-1]), Vector({xs[-1]: 1}))]
        left = 0
        for k in range(1, len(xs)):
            left += xs[k - 1].degree
            parts.append(t2(self.r(xs[:k]), self.q(xs[k:]), 1 if left % 2 else -1))
        return exact_sum(parts)

    def p(self, xs):
        if len(xs) == 1:
            return self.letters.F(xs[0])
        return exact_apply(self.psi(xs), self.letters.F)

    def q(self, xs):
        if len(xs) == 1:
            return self.letters.H(xs[0])
        return exact_apply(self.psi(xs), self.letters.H)

    def r(self, xs):
        G, H = self.letters.G, self.letters.H
        if len(xs) == 1:
            return exact_apply(self.letters.F(xs[0]), G)
        products = exact_sum([t2(self.r(xs[:k]), self.r(xs[k:])) for k in range(1, len(xs))])
        (a, da), (b, db) = exact_apply(self.p(xs), G), exact_apply(products, H)
        return exact_sum([(a, 1, da), (b, 1, db)])

    def h(self, xs):
        parts = []
        left = 0
        for j in range(1, len(xs) + 1):
            head, rest = xs[:j], xs[j:]
            left += xs[j - 1].degree + 1
            terms, den = self.q(head)
            parts.append(({Word(BAR, (y,) + rest): c for y, c in terms.items()}, -1, den))
            if rest:
                parts.append(prepend(self.r(head), self.h(rest), -1 if left % 2 else 1))
        return exact_sum(parts)


@pytest.mark.parametrize("caps", [(3, 3), (4, 4)])
@pytest.mark.parametrize("name", BUNDLED + ("dg_lie",))
def test_inclusion_from_phi_is_the_perturbed_inclusion(name, caps):
    # G_t as the coalgebra map with the one-letter components Phi, against
    # the bar-level G_t = G - H_t t G, as exact pairs on every bar word
    arity_cap, weight_cap = caps
    algebra = algebra_of(name)
    transfer = Transfer(algebra, weight_cap)
    inclusion = coalgebra_map(transfer.phi)
    for bar in bar_words_algebra(algebra.generators, weight_cap, arity_cap):
        assert inclusion(bar) == transfer.con.G(bar), bar


def assert_tree_form_matches_the_series(algebra, arity_cap, weight_cap):
    """con.F and con.H against ``BarTree``, as exact pairs on every bar word
    of cobar words within the caps.  Returns whether some component p_n,
    n >= 2, and whether some H(w) is nonzero."""
    transfer = Transfer(algebra, weight_cap)
    tree = BarTree(transfer)
    projection = coalgebra_map(tree.p)
    bars = bar_words_cobar(transfer.C1.sgens, weight_cap, arity_cap)
    for bar in bars:
        assert projection(bar) == transfer.con.F(bar), bar
        assert tree.h(bar.letters) == transfer.con.H(bar), bar
    return (any(tree.p(bar.letters)[0] for bar in bars if bar.length >= 2),
            any(tree.h(bar.letters)[0] for bar in bars))


@pytest.mark.parametrize("name", BUNDLED + ("dg_lie",))
def test_tree_form_is_the_bar_contraction(name):
    # F's higher components need a bracket of arity >= 3; abelian1 has one
    # even generator, whose bar words H kills
    higher, homotopy = assert_tree_form_matches_the_series(algebra_of(name), 3, 3)
    assert higher == (name in ("l3only", "ci_cubic"))
    assert homotopy == (name != "abelian1")


@pytest.mark.parametrize("name", ["l3only", "dg_lie"])
def test_tree_form_is_the_bar_contraction_at_4_4(name):
    higher, homotopy = assert_tree_form_matches_the_series(algebra_of(name), 4, 4)
    assert higher == (name == "l3only") and homotopy


def test_the_tree_projection_hides_a_top_cell_fault(top_cell_fault, monkeypatch):
    # with the tree's F_t, F(G(M)) is the identity whatever the homotopy:
    # the round trip that detects a faulted top cell through the bar-level
    # series no longer does, so the engine keeps the series for con.F
    top_cell_fault()
    for tree_projection in (False, True):
        faulty = AInftyStructure(bundled("sl2"), 3, 3)
        if tree_projection:
            tree = BarTree(faulty.transfer)
            monkeypatch.setattr(faulty.transfer.con, "F", coalgebra_map(tree.p))
        M = adjoint_module(faulty.algebra)
        assert bool(roundtrip_fg_check(M, faulty, 3, 3)) == tree_projection


def test_phi_shares_the_perturbed_inclusion():
    # Phi of one word is the memo entry of the letters' perturbed inclusion
    transfer = Transfer(bundled("sl2"), 3)
    for bar in bar_words_algebra(transfer.algebra.generators, 3, 1):
        (u,) = bar.letters
        assert transfer.phi(bar.letters) is transfer.letters.G(u), bar


@pytest.mark.parametrize("name", ["sl2", "l3only", "ci_cubic", "dg_lie"])
def test_products_build_no_bar_word_of_several_cobar_words(name, monkeypatch):
    # stricter: while the products are computed, m_1 included (nonzero on
    # dg_lie), no bar word is built and no map of the bar-level contractions
    # or the perturbation t receives one
    structure = AInftyStructure(algebra_of(name), 3, 3)
    transfer = structure.transfer
    bars = structure.bar_words()
    assert {bar.length for bar in bars} == {1, 2, 3}
    received, built = [], []

    def recording(op):
        return lambda b: received.append(b) or op(b)

    for con, attrs in ((transfer.con0, ("F", "G", "H", "d_big", "d_small")),
                       (transfer.con, ("F", "G", "H", "d_big", "d_small"))):
        for attr in attrs:
            monkeypatch.setattr(con, attr, recording(getattr(con, attr)))
    monkeypatch.setattr(transfer, "t", recording(transfer.t))
    new = Word.__new__

    def new_recorded(cls, kind, letters):
        if kind == BAR:
            built.append(letters)
        return new(cls, kind, letters)

    monkeypatch.setattr(Word, "__new__", new_recorded)
    m1 = [structure.product(bar.letters) for bar in bars if bar.length == 1]
    assert any(structure.product(bar.letters) for bar in bars if bar.length >= 2)
    assert any(m1) == (name == "dg_lie")
    assert received == [] and built == []


def test_each_B_is_built_once(monkeypatch, capsys):
    # B(u_1..u_n) is memoized per tuple: Phi(u_1..u_n) and m_n read one
    # build.  l3only at 4/5 builds 567 of them; a pair that only f(B)
    # reaches builds none, since f(B) there is +-u_1 u_2.
    built = Counter()
    split = hpt.Transfer.split.fn

    def split_recorded(self, words):
        built[words] += 1
        return split(self, words)

    monkeypatch.setattr(hpt.Transfer.split, "fn", split_recorded)
    argv = ["--input", "bundled:l3only", "--arity-cap", "4", "--weight-cap", "5",
            "--format", "json", "products"]
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert len(built) == 567
    assert set(built.values()) == {1}


def move_ends(algebra, gens):
    """(total excess, end) of every nonempty sequence of moves from the
    multiset ``gens``, by brute force: a move takes the key of a bracket
    l_k, k >= 2, out of the multiset and puts one generator of its value
    in, with excess k - 2."""
    ends = []
    frontier = [(0, Counter(gens))]
    while frontier:
        excess, current = frontier.pop()
        for k, table in algebra.brackets.items():
            for key, value in table.items():
                if k < 2 or not Counter(key) <= current:
                    continue
                for g in value.terms:
                    step = (excess + k - 2, current - Counter(key) + Counter([g]))
                    ends.append(step)
                    frontier.append(step)
    return ends


def is_live(multiset):
    return all(count == 1 or g.degree % 2 == 0 for g, count in multiset.items())


def selection(algebra, bar):
    """"tree" where the tree of m_n runs, "split" where m_2 is f(B) alone,
    "skip" where the product is zero: the rule of ``AInftyStructure``, from
    an enumeration of the move sequences."""
    gens = [g for w in bar.letters for g in w.letters]
    if any(excess == bar.length - 2 and is_live(end) for excess, end in move_ends(algebra, gens)):
        return "tree"
    if bar.length == 2 and is_live(Counter(gens)):
        return "split"
    return "skip"


def assert_bracket_selection(algebra, arity_cap, weight_cap):
    """The structure runs the full tree on exactly the products that the
    rule keeps and f(B) alone on exactly its split pairs; the tree is zero
    on every product that it skips, and f(B) is the whole tree on every
    split pair.  Returns the number of products of each selection and
    arity."""
    structure = AInftyStructure(algebra, arity_cap, weight_cap)
    transfer, calls = structure.transfer, {"tree": [], "split": []}
    tree_product, split_product = transfer.tree_product, transfer.split_product
    transfer.tree_product = lambda words: calls["tree"].append(words) or tree_product(words)
    transfer.split_product = lambda words: calls["split"].append(words) or split_product(words)
    bars = [bar for bar in structure.bar_words() if bar.length >= 2]
    for bar in bars:
        structure.product(bar.letters)
    selected = {bar: selection(algebra, bar) for bar in bars}
    for kind in ("tree", "split"):
        assert calls[kind] == [bar.letters for bar in bars if selected[bar] == kind], kind
    for bar in bars:
        if selected[bar] == "skip":
            assert not structure.product(bar.letters), bar
            assert tree_product(bar.letters) == ({}, 1), bar
        elif selected[bar] == "split":
            assert split_product(bar.letters) == tree_product(bar.letters), bar
        # +-u_1 u_2 is f(B) on every pair, whichever path the pair takes
        if bar.length == 2:
            f_of_B = exact_apply(transfer.split(bar.letters), cobar_f)
            assert split_product(bar.letters) == f_of_B, bar
    return Counter((kind, bar.length) for bar, kind in selected.items())


@pytest.mark.parametrize("caps", [(3, 3), (4, 4)], ids=["3_3", "4_4"])
@pytest.mark.parametrize("name", BUNDLED)
def test_the_degree_rule_skips_only_zero_products(name, caps):
    # the rule reaches m_n's degree through chains of brackets; sl2 has
    # only l_2, so no sequence of moves has an excess above 0, and only
    # pairs run the tree
    selected = assert_bracket_selection(bundled(name), *caps)
    if name == "sl2":
        assert {arity for kind, arity in selected if kind == "tree"} == {2}
        assert selected["skip", 3] > 0


@settings(max_examples=30, deadline=None, derandomize=True)
@given(complete_intersections(), st.integers(2, 3))
def test_the_degree_rule_skips_only_zero_products_on_complete_intersections(
        algebra, arity_cap):
    assert_bracket_selection(algebra, arity_cap, 3)


def test_bracket_selection_on_l3only_at_4_5_runs_no_pair_tree():
    # l3only has only l_3, whose moves have excess 1: every pair is f(B)
    # alone or zero, and only the triples run the tree
    selected = assert_bracket_selection(bundled("l3only"), 4, 5)
    assert {arity for kind, arity in selected if kind == "tree"} == {3}
    assert selected["split", 2] > 0


def test_bracket_selection_on_a_complex():
    # l_1 only: no move at all, so every pair is f(B) alone or zero
    algebra = dg_vector_space([("v", 0, {"u": 1}), ("u", 1, {}), ("w", 0, {})])
    selected = assert_bracket_selection(algebra, 3, 3)
    assert {kind for kind, _ in selected} == {"split", "skip"}


def test_products_on_sl2_at_3_5_compute_no_triple(monkeypatch, capsys):
    arities, d_small_kinds = [], set()
    tree_product, perturb = hpt.Transfer.tree_product, hpt.bpl

    def tree_product_recorded(self, words):
        arities.append(len(words))
        return tree_product(self, words)

    def bpl_recorded(con, t, *h_t):
        perturbed = perturb(con, t, *h_t)
        d_small = perturbed.d_small
        perturbed.d_small = lambda w: d_small_kinds.add(w.kind) or d_small(w)
        return perturbed

    monkeypatch.setattr(hpt.Transfer, "tree_product", tree_product_recorded)
    monkeypatch.setattr(hpt, "bpl", bpl_recorded)
    argv = ["--input", "bundled:sl2", "--arity-cap", "3", "--weight-cap", "5",
            "--format", "json", "products"]
    assert main(argv) == 0
    assert capsys.readouterr().out
    # the pairs are computed, no triple is; m_1 reads the letters' d_small
    # on symmetric words
    assert arities and set(arities) == {2}
    assert d_small_kinds == {SYMMETRIC}
