import hashlib
import json
import random
import sys
import time
from itertools import combinations, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import (
    mis_bruteforce,
    random_star_spec,
    relabel,
    star_audit_rows_reference,
    star_connection_M,
    survey_class_loop_reference,
    survey_pairwise_reference,
)
from csftrees.decomposition import (
    _independence_and_splits,
    alpha_mis,
    chain_holds,
    chain_sequence,
    leaf_decomposition,
)
from csftrees.errors import CapExceededError, GraphError, InternalError
from csftrees.generators import (
    Gluing,
    SpiderSpec,
    StarConnectionSpec,
    _free_tree_edge_sets,
    enumerate_free_trees,
    gen_path,
    gen_spider,
    gen_star,
    gen_star_connection,
)
from csftrees.graphs import Tree, _row_code, canonical_code, forest_walk
from csftrees.symfunc import csf_equal, csf_powersum
from csftrees.theorems import (
    APPLICABLE,
    NOT_APPLICABLE,
    SURVEY_CSV_HEADER,
    SurveyReport,
    TheoremVerdict,
    TreeFacts,
    spider_M_formula,
    spider_audit,
    star_connection_audit,
    star_connection_counts,
    star_connection_distinct,
    survey,
    survey_report_to_json_dict,
    thm_componentwise_check,
    thm_leaves_check,
    thm_sum_check,
    tree_facts,
    verdict_to_json_dict,
)


def _tree(n, *edges):
    return Tree(n, tuple(edges))


# comb: path 0-1-2-3-4 with one extra leaf hanging off every spine vertex
COMB10 = _tree(10, *((i, i + 1) for i in range(4)), *((i, i + 5) for i in range(5)))
COMB8 = _tree(8, (0, 1), (1, 2), (2, 3), (0, 4), (1, 5), (2, 6), (3, 7))
REVERSED14 = _tree(14, (0, 1), (0, 7), (0, 13), (1, 2), (1, 6), (2, 3), (2, 5), (3, 4), (7, 8),
                   (7, 10), (7, 12), (8, 9), (10, 11))


def test_tree_facts():
    f = tree_facts(gen_path(7))
    assert (f.levels, f.rho, f.is_path) == (((2, 2), (2, 1)), 3, True)
    f1 = tree_facts(gen_path(1))
    assert (f1.rho, f1.is_path) == (0, True)


def test_survey_decomposes_each_tree_once(monkeypatch):
    from csftrees import decomposition, theorems

    calls = []
    real = decomposition._peel

    def counted(n, edges):
        calls.append(n)
        return real(n, edges)

    monkeypatch.setattr(decomposition, "_peel", counted)
    monkeypatch.setattr(theorems, "_peel", counted)
    rep = survey(7)
    assert len(calls) == rep.num_trees == 11


def test_survey_payloads_reuse_the_enumerated_trees(tree_builds):
    from csftrees import theorems

    rows = _free_tree_edge_sets(8)
    for row in rows:
        theorems._survey_payload(row)
    assert tree_builds == []


def test_survey_builds_the_chain_sequence_once_per_failing_class(monkeypatch):
    # the chain reads only a tree's levels, so the survey folds it once per
    # fact class and lists each failing class's trees in index order
    from csftrees import theorems

    calls = []
    real = theorems.chain_sequence

    def counted(levels):
        calls.append(levels)
        return real(levels)

    monkeypatch.setattr(theorems, "chain_sequence", counted)
    for n, classes, trees in ((12, 1, 1), (14, 5, 18)):
        calls.clear()
        rep = survey(n)
        levels = [leaf_decomposition(t).level_counts() for t in enumerate_free_trees(n)]
        failed = [i for i, lv in enumerate(levels) if not chain_holds(lv)]
        assert len(calls) == classes and len(failed) == trees
        assert list(rep.chain_audit_violations) == [
            {"tree": i, "sequence": list(real(levels[i]))} for i in failed
        ]


@pytest.mark.parametrize("n", range(1, 13))
def test_rows_match_the_tree_route(n):
    # the code, facts, chain and key folded over each row are those of the
    # validated Tree built from the same level sequence
    from csftrees import generators, theorems

    rows = set(_free_tree_edge_sets(n))
    for s in generators._free_tree_level_sequences(n):
        # a vertex's parent is the last vertex before it one level up
        parents = [max(j for j in range(i) if s[j] == s[i] - 1) for i in range(1, n)]
        row = bytes((0, *parents))
        rows.remove(row)
        t = Tree(n, tuple(zip(parents, range(1, n))))
        assert _row_code(row) == canonical_code(t)
        facts, key = theorems._survey_payload(row)
        assert facts == tree_facts(t)
        assert key == _independence_and_splits(forest_walk(t))
        levels = leaf_decomposition(t).level_counts()
        assert chain_sequence(facts.levels) == chain_sequence(levels)
        assert chain_holds(facts.levels) == chain_holds(levels)
    assert not rows


def test_survey_payload_max_block_is_max_block_from_csf():
    # the survey reads each max block as the sum of b_i of the facts
    from csftrees import theorems
    from csftrees.symfunc import max_block_from_csf

    for n in range(1, 12):
        for row, t in zip(_free_tree_edge_sets(n), enumerate_free_trees(n)):
            facts = theorems._survey_payload(row)[0]
            assert sum(b for b, _ in facts.levels) == max_block_from_csf(csf_powersum(t))


def test_survey_builds_trees_only_for_the_audits(tree_builds):
    # the audits build 94 spiders and 93 star connections, one per row; the
    # 40 of the 3,159 trees on 14 vertices that share their key (i(T; x),
    # edge splits) with another run the tree DP on their rows
    survey(14)
    assert len(tree_builds) == 187


@pytest.mark.parametrize("n", range(7, 11))
def test_survey_calls_alpha_mis_only_in_the_audits(monkeypatch, n):
    from csftrees import theorems

    calls = []

    def counted(g):
        calls.append(g.n)
        return alpha_mis(g)

    monkeypatch.setattr(theorems, "alpha_mis", counted)
    rep = survey(n)
    assert len(calls) == len(rep.spider_audit) + len(rep.star_audit)


def test_verdict_json_shape():
    v = thm_leaves_check(gen_star(4), gen_path(4))
    d = verdict_to_json_dict(v)
    assert d == {
        "theorem": "LEAVES_RHO",
        "status": "Applicable",
        "case": 1,
        "m1": 3,
        "m2": 2,
        "swapped": False,
        "detail": "rho1 = rho2 = 0",
    }


# ----------------------------------------------------------------- LEAVES_RHO

def test_leaves_case1_star_vs_path():
    v = thm_leaves_check(gen_star(4), gen_path(4))
    assert (v.status, v.case_id, v.m1, v.m2, v.swapped) == (APPLICABLE, 1, 3, 2, False)
    back = thm_leaves_check(gen_path(4), gen_star(4))
    assert (back.status, back.case_id, back.m1, back.m2, back.swapped) == (
        APPLICABLE, 1, 3, 2, True,
    )


def test_leaves_case3_star_vs_path():
    v = thm_leaves_check(gen_star(7), gen_path(7))
    assert (v.status, v.case_id, v.m1, v.m2) == (APPLICABLE, 3, 6, 4)


def test_leaves_case2():
    # caterpillar with rho = 0 vs a one-branch tree with rho = 1
    lo = _tree(8, (0, 1), (1, 2), (2, 3), (2, 7), (3, 4), (3, 6), (4, 5))
    hi = _tree(8, (0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (3, 6), (3, 7))
    v = thm_leaves_check(lo, hi)
    assert (v.status, v.case_id, v.m1, v.m2, v.swapped) == (APPLICABLE, 2, 6, 4, True)
    assert (alpha_mis(hi), alpha_mis(lo)) == (6, 4)


def test_leaves_case4():
    hi = _tree(8, (0, 1), (1, 2), (2, 3), (3, 4), (3, 7), (4, 5), (4, 6))
    v = thm_leaves_check(gen_path(8), hi)
    assert (v.status, v.case_id, v.m1, v.m2, v.swapped) == (APPLICABLE, 4, 5, 4, True)
    assert (alpha_mis(hi), alpha_mis(gen_path(8))) == (5, 4)
    assert "for all k >= 3" in v.detail


def test_leaves_case4_bound_fails():
    v = thm_leaves_check(gen_spider((2, 2, 2, 2)), gen_path(9))
    assert v.status == NOT_APPLICABLE
    assert "case-4 bound fails at k = 3" in v.detail


def test_leaves_tie_is_not_applicable():
    """The case-4 inequality alone does not separate the block maxima: the
    5-tooth comb and P10 pass the bound but tie at m = 5, and their CSFs are
    distinguished anyway."""
    v = thm_leaves_check(COMB10, gen_path(10))
    assert v.status == NOT_APPLICABLE
    assert "block maxima tie (m1 = m2 = 5)" in v.detail
    assert alpha_mis(COMB10) == alpha_mis(gen_path(10)) == 5
    assert not csf_equal(COMB10, gen_path(10))


def test_leaves_reversed_maxima_are_not_a_tie():
    """From n = 14 on the case-4 bound can hold with m1 < m2: b = 7, rho = 0
    against the (11, 1, 1)-spider, b = 3, rho = 9, gives m = (7, 8).  The
    refusal names both maxima, in either input order."""
    spider = gen_spider((11, 1, 1))
    assert alpha_mis(REVERSED14) == 7 and alpha_mis(spider) == 8
    for t1, t2, swapped in ((REVERSED14, spider, False), (spider, REVERSED14, True)):
        v = thm_leaves_check(t1, t2)
        assert (v.status, v.case_id, v.m1, v.m2, v.swapped) == (
            NOT_APPLICABLE, None, None, None, swapped)
        assert "block maxima are reversed (m1 = 7 < m2 = 8)" in v.detail
        assert "tie" not in v.detail


def test_leaves_case4_pairs_whose_maxima_do_not_order_at_n8():
    """The ordered pairs at n = 8 in case 4's domain (both rho-sets paths,
    b1 > b2, delta = rho2 - rho1 >= 2, b1 - b2 <= ceil(delta/2)), where
    m = b + ceil(rho/2) is alpha.  The bound as coded, b1 - b2 >
    ceil(delta/k) for every admissible k, passes 4 pairs whose maxima tie;
    the sign-flipped reading, ceil(-delta/k) < b1 - b2, passes every pair
    of the domain, 2 of them with the maxima reversed.  Without the guard
    m1 > m2, either reading would claim m1 > m2 there; the checker refuses
    each pair and names the tie or the reversal."""
    trees = enumerate_free_trees(8)
    facts = [tree_facts(t) for t in trees]
    outcomes = {}  # (coded bound passes, sign of m1 - m2) -> pairs
    for i, j in permutations(range(len(trees)), 2):
        f1, f2 = facts[i], facts[j]
        diff, delta = f1.levels[0][0] - f2.levels[0][0], f2.rho - f1.rho
        if not (f1.is_path and f2.is_path and diff > 0 and 2 <= delta and diff <= -(-delta // 2)):
            continue
        admissible = [k for k in range(3, 40) if k <= delta * (k - 2) and delta < k * diff]
        coded = all(diff > -(-delta // k) for k in admissible)
        m1, m2 = f1.levels[0][0] + -(-f1.rho // 2), f2.levels[0][0] + -(-f2.rho // 2)
        assert (alpha_mis(trees[i]), alpha_mis(trees[j])) == (m1, m2)
        outcomes.setdefault((coded, (m1 > m2) - (m1 < m2)), []).append((i, j))
    assert {key: len(pairs) for key, pairs in outcomes.items()} == {
        (True, 1): 4, (True, 0): 4, (False, 0): 20, (False, -1): 2
    }
    coded_ties, flipped_reversals = outcomes[True, 0], outcomes[False, -1]
    assert coded_ties == [(15, 3), (17, 3), (19, 3), (21, 3)]
    assert flipped_reversals == [(9, 3), (20, 3)]
    tie_facts = TreeFacts(((5, 3),), 0, True), TreeFacts(((3, 2), (2, 1)), 3, True)
    reversal_facts = TreeFacts(((4, 4),), 0, True), TreeFacts(((3, 2), (2, 1)), 3, True)
    for pairs, expected, alphas, named in (
        (coded_ties, tie_facts, (5, 5), "block maxima tie (m1 = m2 = 5)"),
        (flipped_reversals, reversal_facts, (4, 5), "block maxima are reversed (m1 = 4 < m2 = 5)"),
    ):
        for i, j in pairs:
            assert (facts[i], facts[j]) == expected
            assert (alpha_mis(trees[i]), alpha_mis(trees[j])) == alphas
            v = thm_leaves_check(trees[i], trees[j])
            assert (v.status, v.case_id, v.m1, v.m2, v.swapped) == (
                NOT_APPLICABLE, None, None, None, False)
            assert named in v.detail


def test_leaves_equal_leaf_counts():
    # the comb and the (3,2,1,1)-spider both have 4 leaves
    v = thm_leaves_check(COMB8, gen_spider((3, 2, 1, 1)))
    assert v.status == NOT_APPLICABLE
    assert "equal leaf counts" in v.detail


def test_leaves_rho_not_path():
    # path 0..6 plus a leaf on vertex 3: rho vertices {2, 4} are disconnected
    branchy = _tree(8, *((i, i + 1) for i in range(6)), (3, 7))
    v = thm_leaves_check(branchy, gen_path(8))
    assert v.status == NOT_APPLICABLE
    assert "not a path" in v.detail


def test_pair_prechecks():
    with pytest.raises(GraphError, match="^the checkers need equal vertex counts, got 5 and 6$"):
        thm_leaves_check(gen_path(5), gen_path(6))
    with pytest.raises(GraphError, match="^the checkers need non-isomorphic trees$"):
        thm_leaves_check(gen_path(6), relabel(gen_path(6), (5, 4, 3, 2, 1, 0)))
    with pytest.raises(GraphError, match="^the checkers need non-isomorphic trees$"):
        thm_leaves_check(gen_path(3), gen_path(3))  # no valid pair has n < 4


# -------------------------------------------------------------- COMPONENTWISE

def test_componentwise_applicable():
    hi = _tree(8, (0, 1), (1, 2), (1, 3), (1, 4), (0, 5), (5, 6), (5, 7))
    v = thm_componentwise_check(hi, COMB8)
    assert (v.status, v.m1, v.m2, v.swapped) == (APPLICABLE, 6, 4, False)
    assert (alpha_mis(hi), alpha_mis(COMB8)) == (6, 4)


def test_componentwise_identical_levels():
    a = _tree(7, (0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5))
    b = _tree(7, (0, 1), (1, 2), (2, 3), (2, 5), (3, 4), (5, 6))
    v = thm_componentwise_check(a, b)
    assert v.status == NOT_APPLICABLE
    assert "identical level sequences" in v.detail


def test_componentwise_no_dominance():
    v = thm_componentwise_check(gen_star(7), gen_path(7))
    assert v.status == NOT_APPLICABLE
    assert "dominance" in v.detail


# --------------------------------------------------------------------- SUMMED

def test_sum_applicable():
    v = thm_sum_check(gen_star(7), gen_path(7))
    assert (v.status, v.m1, v.m2, v.swapped) == (APPLICABLE, 6, 4, False)
    assert "deficit 2 < surplus 4" in v.detail


def test_sum_not_applicable_equal_alpha():
    v = thm_sum_check(COMB8, gen_path(8))
    assert v.status == NOT_APPLICABLE


def test_sum_equal_b_lists():
    a = _tree(7, (0, 1), (1, 2), (2, 3), (3, 4), (3, 6), (4, 5))
    b = _tree(7, (0, 1), (1, 2), (2, 3), (2, 5), (3, 4), (5, 6))
    v = thm_sum_check(a, b)
    assert v.status == NOT_APPLICABLE
    assert "identical b sequences" in v.detail


# ------------------------------------------------- soundness on a full census

def test_applicable_verdicts_match_alpha_n7():
    """Every Applicable verdict at n = 7 reports the true independence
    numbers, in the claimed order, for a CSF-distinguished pair."""
    trees = enumerate_free_trees(7)
    for a, b in combinations(trees, 2):
        al_a, al_b = alpha_mis(a), alpha_mis(b)
        for check in (thm_leaves_check, thm_componentwise_check, thm_sum_check):
            v = check(a, b)
            if v.status != APPLICABLE:
                continue
            hi, lo = (al_b, al_a) if v.swapped else (al_a, al_b)
            assert (v.m1, v.m2) == (hi, lo)
            assert v.m1 > v.m2
            assert not csf_equal(a, b)


def test_orientation_stability():
    rng = random.Random(811)
    trees = enumerate_free_trees(8)
    for _ in range(40):
        a, b = rng.sample(trees, 2)
        for check in (thm_leaves_check, thm_componentwise_check, thm_sum_check):
            v1, v2 = check(a, b), check(b, a)
            assert (v1.status, v1.case_id, v1.m1, v1.m2) == (v2.status, v2.case_id, v2.m1, v2.m2)


# ------------------------------------------------------------ star connection

CHAIN_4534 = StarConnectionSpec(
    (4, 5, 3, 4), (Gluing((0, 1)), Gluing((1, 2)), Gluing((2, 3)))
)


def test_star_connection_counts_chain():
    assert star_connection_counts(CHAIN_4534) == (13, 3)
    assert star_connection_M(CHAIN_4534) == 9
    assert alpha_mis(gen_star_connection(CHAIN_4534)) == 9


def test_star_connection_M_small():
    two_s3 = StarConnectionSpec((3, 3), (Gluing((0, 1)),))
    assert star_connection_counts(two_s3) == (5, 1)
    assert star_connection_M(two_s3) == 3
    two_s4 = StarConnectionSpec((4, 4), (Gluing((0, 1)),))
    assert star_connection_M(two_s4) == 5


def test_star_connection_distinct():
    two_s7 = StarConnectionSpec((7, 7), (Gluing((0, 1)),))
    v = star_connection_distinct(two_s7, CHAIN_4534)
    assert (v.status, v.m1, v.m2, v.swapped) == (APPLICABLE, 11, 9, False)
    back = star_connection_distinct(CHAIN_4534, two_s7)
    assert (back.status, back.m1, back.m2, back.swapped) == (APPLICABLE, 11, 9, True)
    assert not csf_equal(gen_star_connection(two_s7), gen_star_connection(CHAIN_4534))


def test_star_connection_audit_rejects_a_tree_that_breaks_the_closed_forms(monkeypatch):
    from csftrees import theorems

    real = theorems.gen_star_connection

    def built(spec):  # one leaf more at vertex 0, a center: the excess holds
        t = real(spec)
        return Tree(t.n + 1, t.edges + ((0, t.n),))

    monkeypatch.setattr(theorems, "gen_star_connection", built)
    with pytest.raises(
        InternalError, match="built with 14 vertices and excess 3, closed forms give 13 and 3"
    ):
        star_connection_audit(CHAIN_4534)


def test_star_connections_are_built_once(tree_builds):
    star_connection_distinct(StarConnectionSpec((7, 7), (Gluing((0, 1)),)), CHAIN_4534)
    assert tree_builds == [13, 13]
    tree_builds.clear()
    assert star_connection_audit(CHAIN_4534) == (13, 3, 9, 9)
    assert tree_builds == [13]
    tree_builds.clear()
    survey(10)
    assert len(tree_builds) == 25 + 15  # spiders, star connections; the 106 trees are rows


@pytest.mark.parametrize("n", range(3, 19))
def test_star_audit_rows_match_the_code_dedup(monkeypatch, n):
    # one built star connection per row, and the rows of building every
    # candidate and dropping repeated canonical codes
    from csftrees import theorems

    built = []

    def counted(spec):
        built.append(spec)
        return gen_star_connection(spec)

    monkeypatch.setattr(theorems, "gen_star_connection", counted)
    rows = theorems._star_audit_rows(n)
    assert len(built) == len(rows)
    monkeypatch.undo()
    assert rows == star_audit_rows_reference(n)


def test_star_connection_equal_star_counts():
    a = StarConnectionSpec((4, 4), (Gluing((0, 1)),))
    b = StarConnectionSpec((5, 3), (Gluing((0, 1)),))
    v = star_connection_distinct(a, b)
    assert v.status == NOT_APPLICABLE
    assert "equal star counts" in v.detail


def test_star_connection_unequal_vertex_counts():
    with pytest.raises(GraphError, match="vertex counts differ: 5 != 7"):
        star_connection_distinct(
            StarConnectionSpec((3, 3), (Gluing((0, 1)),)),
            StarConnectionSpec((4, 4), (Gluing((0, 1)),)),
        )


def test_star_connection_random_specs():
    rng = random.Random(1900)
    for _ in range(60):
        spec = random_star_spec(rng)
        nverts, excess = star_connection_counts(spec)
        assert nverts == sum(spec.star_sizes) - (spec.num_stars - 1)
        assert excess == spec.num_stars - 1
        t = gen_star_connection(spec)
        assert star_connection_M(spec) == alpha_mis(t) == mis_bruteforce(t)


@pytest.fixture(scope="module")
def audit_specs():
    """Every star connection the survey's audit builds for n = 5..18, in
    build order, captured at star_connection_audit."""
    from csftrees import theorems

    specs = []
    real = theorems.star_connection_audit
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(theorems, "star_connection_audit", lambda spec: specs.append(spec) or real(spec))
        for n in range(5, 19):
            theorems._star_audit_rows(n)
    return specs


def _by_vertex_count(specs, max_n):
    """The specs grouped by vertex count N <= max_n, each group in order."""
    groups: dict[int, list[StarConnectionSpec]] = {}
    for spec in specs:
        nverts = star_connection_counts(spec)[0]
        if nverts <= max_n:
            groups.setdefault(nverts, []).append(spec)
    return groups


def test_star_count_formula_is_n_minus_r(audit_specs):
    # with N = sum(n_k) - (r - 1) vertices, the paper's sum(n_k - 1) - (r - 1)
    # is N - r, so "r < s stars gives M1 > M2" is arithmetic; checked on every
    # star connection the survey's audit builds for n = 5..18 and on 200
    # random specs
    assert len(audit_specs) == 1570
    rng = random.Random(1901)
    specs = audit_specs + [random_star_spec(rng) for _ in range(200)]
    firsts: dict[int, dict[int, StarConnectionSpec]] = {}  # N -> r -> first spec
    for spec in specs:
        nverts, _, m, _ = star_connection_audit(spec)
        assert m == star_connection_M(spec) == nverts - spec.num_stars
        firsts.setdefault(nverts, {}).setdefault(spec.num_stars, spec)
    for spec in specs:
        nverts, r = star_connection_counts(spec)[0], spec.num_stars
        for s, other in firsts[nverts].items():
            if s != r:
                v = star_connection_distinct(spec, other)
                m = (nverts - min(r, s), nverts - max(r, s))
                assert (v.status, (v.m1, v.m2), v.swapped) == (APPLICABLE, m, r > s)


def test_star_count_claims_match_alpha(audit_specs):
    # every STAR_COUNT claim against the independence numbers of the two
    # built trees, on each ordered pair of audit specs with equal N <= 14
    # and unequal star counts
    pairs = 0
    for group in _by_vertex_count(audit_specs, 14).values():
        alpha = [alpha_mis(gen_star_connection(spec)) for spec in group]
        for (a, alpha_a), (b, alpha_b) in permutations(zip(group, alpha), 2):
            if a.num_stars == b.num_stars:
                continue
            v = star_connection_distinct(a, b)
            claimed = (alpha_b, alpha_a) if v.swapped else (alpha_a, alpha_b)
            assert (v.status, (v.m1, v.m2)) == (APPLICABLE, claimed)
            assert v.m1 > v.m2
            pairs += 1
    assert pairs == 10802


# sha256 of the JSON verdicts of star_connection_distinct on every ordered
# pair (a, b) of audit specs with equal N <= 12, a == b and r == s included,
# frozen so that any drift in status, M, swap or detail text shows
STAR_COUNT_DIGEST = (2562, "d6040983bfdb4af1107d6765686fce9bc3ab6da5cb4fb9daab72469f691a0a80")


def test_star_count_verdicts_are_frozen(audit_specs):
    lines = [
        json.dumps(verdict_to_json_dict(star_connection_distinct(a, b)), sort_keys=True)
        for group in _by_vertex_count(audit_specs, 12).values()
        for a, b in product(group, repeat=2)
    ]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == STAR_COUNT_DIGEST


# --------------------------------------------------------------------- spider

def test_spider_formula_parity_cases():
    assert spider_M_formula(SpiderSpec((2, 2, 2))) == 3
    assert spider_M_formula((3, 3, 3)) == 4
    assert spider_M_formula((2, 1, 1)) == 1


@pytest.mark.parametrize(
    "legs, expected",
    [((1, 1, 1), (1, 3, False)), ((2, 2, 2), (3, 4, False)), ((4, 2, 2), (4, 5, False)),
     ((12, 12, 1), (12, 13, False))],
)
def test_spider_audit_goldens(legs, expected):
    assert spider_audit(legs) == expected


def test_spider_audit_oracle_agreement():
    for legs in ((2, 2, 1), (3, 2, 2), (5, 1, 1), (2, 2, 2, 2)):
        formula, oracle, agrees = spider_audit(legs)
        assert oracle == mis_bruteforce(gen_spider(legs))
        assert agrees == (formula == oracle)


def test_spider_audit_cap():
    # the audit takes every spider that gen_spider builds, and only those
    start = time.perf_counter()
    assert spider_audit((3333, 3333, 3333)) == (4999, 5001, False)
    assert time.perf_counter() - start < 1.0
    with pytest.raises(CapExceededError, match="^spider capped at 10000 vertices, got 10001$"):
        spider_audit((3333, 3333, 3334))


# --------------------------------------------------------------------- survey

def test_survey_smallest():
    rep = survey(3)
    assert isinstance(rep, SurveyReport)
    assert (rep.num_trees, rep.pairs, rep.x_equal_pairs) == (1, 0, 0)
    assert list(rep.pair_rows()) == []
    assert rep.soundness_violations == ()


def test_survey_n4():
    rep = survey(4)
    assert (rep.num_trees, rep.pairs) == (2, 1)
    assert rep.verdict_counts["LEAVES_RHO"]["case1"] == 1
    assert list(rep.pair_rows()) == list(survey_pairwise_reference(4).pair_rows())
    assert len(list(rep.pair_rows())) == 1


def test_survey_n8_frozen_counts():
    rep = survey(8)
    assert (rep.num_trees, rep.pairs, rep.x_equal_pairs) == (23, 253, 0)
    assert rep.verdict_counts == {
        "LEAVES_RHO": {
            "case1": 47, "case2": 4, "case3": 64, "case4": 4, "not_applicable": 134,
        },
        "COMPONENTWISE": {"applicable": 88, "not_applicable": 165},
        "SUMMED": {"applicable": 128, "not_applicable": 125},
    }
    assert rep.soundness_violations == ()
    assert rep.chain_audit_violations == ()
    assert all(row["agrees"] for row in rep.star_audit)


def test_survey_n12_frozen_counts():
    rep = survey(12)
    assert (rep.num_trees, rep.pairs, rep.x_equal_pairs) == (551, 151525, 0)
    assert rep.verdict_counts == {
        "LEAVES_RHO": {
            "case1": 11769, "case2": 3870, "case3": 26905, "case4": 2109,
            "not_applicable": 106872,
        },
        "COMPONENTWISE": {"applicable": 42065, "not_applicable": 109460},
        "SUMMED": {"applicable": 94521, "not_applicable": 57004},
    }
    assert rep.soundness_violations == ()
    assert [row["tree"] for row in rep.chain_audit_violations] == [28]
    assert (sum(row["agrees"] for row in rep.spider_audit), len(rep.spider_audit)) == (0, 50)
    assert (sum(row["agrees"] for row in rep.star_audit), len(rep.star_audit)) == (38, 38)


def test_survey_n9_spec_sizes():
    rep = survey(9)
    assert (rep.num_trees, rep.pairs, rep.x_equal_pairs) == (47, 1081, 0)
    assert rep.soundness_violations == ()


def test_survey_audit_row_counts():
    assert len(survey(7).spider_audit) == 7  # partitions of 6 into >= 3 parts
    assert len(survey(9).star_audit) == 11


def test_survey_json_key_order():
    keys = list(survey_report_to_json_dict(survey(4)).keys())
    assert keys == [
        "n", "num_trees", "pairs", "x_equal_pairs",
        "soundness_violations", "verdict_counts", "chain_audit_violations",
        "spider_audit", "star_audit",
    ]


def _assert_same_survey(rep, ref):
    """Equal reports, and equal CSV text (pair_rows is left out of the
    record equality; the survey yields a block per first tree, the
    references a row at a time)."""
    assert rep == ref
    text = "".join(rep.pair_rows())
    assert text == "".join(ref.pair_rows())
    rows = text.splitlines()
    assert len(rows) == rep.pairs
    assert all(row.count(",") == len(SURVEY_CSV_HEADER) - 1 for row in rows)


@pytest.mark.parametrize("n", range(3, 11))
def test_survey_matches_pairwise_reference(n):
    _assert_same_survey(survey(n), survey_pairwise_reference(n))


@pytest.mark.parametrize("n", range(11, 14))
def test_survey_matches_the_class_loop_reference(n):
    # the first sizes with trees that tie on (i(T; x), edge splits)
    _assert_same_survey(survey(n), survey_class_loop_reference(n))


def test_survey_rows_are_rebuilt_on_each_call():
    rep = survey(6)
    assert list(rep.pair_rows()) == list(rep.pair_rows())


class _Colliding(tuple):
    """A key that hashes to 0: the trees given one share a digest bucket."""

    def __hash__(self):
        return 0


def _patch_payloads(monkeypatch, n, edit):
    """Make theorems._survey_payload, whose payload is (facts, key), return
    edit(index, key) as the key of the index-th row of
    _free_tree_edge_sets(n); the facts stay the row's own."""
    from csftrees import theorems

    index = {row: i for i, row in enumerate(_free_tree_edge_sets(n))}
    real = theorems._survey_payload

    def edited(row):
        facts, key = real(row)
        return facts, edit(index[row], key)

    monkeypatch.setattr(theorems, "_survey_payload", edited)


def _patch_terms(monkeypatch, n, fake):
    """Make symfunc._tree_powersum_terms, which the survey (on its rows) and
    both references (on forest_walk rows) call, return fake[index] for the
    trees of enumerate_free_trees(n) listed in fake.  A tree is found by
    its code: a forest_walk row is relabeled, so its edges are not the
    Tree's."""
    from csftrees import symfunc

    index = {canonical_code(t): i for i, t in enumerate(enumerate_free_trees(n))}
    real = symfunc._tree_powersum_terms
    monkeypatch.setattr(
        symfunc,
        "_tree_powersum_terms",
        lambda row: fake.get(index[_row_code(row)]) or real(row),
    )


def test_survey_reports_a_wrong_max_block_like_the_reference(monkeypatch):
    # LEAVES_RHO claims m1 one too high on every pair that holds the facts
    # of the last tree sharing its facts with an earlier one, in survey and
    # oracle alike: the survey checks the claim once per class pair and
    # reports it for every tree of the class
    from csftrees import theorems

    facts = [tree_facts(t) for t in enumerate_free_trees(9)]
    bad = facts[max(i for i, f in enumerate(facts) if f in facts[:i])]
    real = theorems._leaves_rule

    def off_by_one(f1, f2):
        status, case, m1, m2, swapped, why = real(f1, f2)
        if status != APPLICABLE or bad not in (f1, f2):
            return status, case, m1, m2, swapped, why
        return status, case, m1 + 1, m2, swapped, why

    monkeypatch.setattr(theorems, "_leaves_rule", off_by_one)
    rep, ref = survey(9), survey_pairwise_reference(9)
    assert rep.soundness_violations
    assert all(
        bad in (facts[v["a"]], facts[v["b"]]) and v["theorem"] == "LEAVES_RHO"
        for v in rep.soundness_violations
    )
    flagged = {i for v in rep.soundness_violations for i in (v["a"], v["b"])}
    assert {i for i, f in enumerate(facts) if f == bad} <= flagged
    assert list(rep.soundness_violations) == list(ref.soundness_violations)
    _assert_same_survey(rep, ref)


def test_survey_with_one_key_per_degree_runs_the_dp_on_every_tied_tree(monkeypatch):
    # every tree gets a key that holds only deg i(T; x), so the trees of
    # each degree tie; only the star, alone with degree n - 1, stays apart
    from csftrees import symfunc

    clean = survey(7)
    _patch_payloads(monkeypatch, 7, lambda i, key: ((None,) * len(key[0]), ()))
    calls = []
    real = symfunc._tree_powersum_terms

    def counted(row):
        calls.append(_row_code(row))
        return real(row)

    monkeypatch.setattr(symfunc, "_tree_powersum_terms", counted)
    rep = survey(7)
    assert len(calls) == len(set(calls)) == rep.num_trees - 1 == 10
    assert rep.x_equal_pairs == 0
    assert survey_report_to_json_dict(rep) == survey_report_to_json_dict(clean)
    _assert_same_survey(rep, clean)
    _assert_same_survey(rep, survey_pairwise_reference(7))


def test_survey_with_one_digest_runs_the_dp_once_per_tree(monkeypatch):
    # every key hashes alike, so all 47 trees on 9 vertices share one
    # digest bucket; the p-terms still tell every tree apart
    from csftrees import symfunc

    clean = survey(9)
    _patch_payloads(monkeypatch, 9, lambda i, key: _Colliding(key))
    calls = []
    real = symfunc._tree_powersum_terms

    def counted(row):
        calls.append(_row_code(row))
        return real(row)

    monkeypatch.setattr(symfunc, "_tree_powersum_terms", counted)
    rep = survey(9)
    assert len(calls) == len(set(calls)) == rep.num_trees == 47
    assert rep.x_equal_pairs == 0
    assert survey_report_to_json_dict(rep) == survey_report_to_json_dict(clean)
    _assert_same_survey(rep, clean)


def test_x_equal_groups_needs_only_rows_and_digests():
    # the X stage reads no fact class: with one digest for all 47 trees on
    # 9 vertices they fall into one bucket, and their p-terms all differ
    from csftrees import theorems

    rows = _free_tree_edge_sets(9)
    assert len(rows) == 47
    assert theorems._x_equal_groups(rows, [0] * len(rows)) == []


def test_survey_trees_reads_its_rows_once():
    from csftrees import theorems

    rows = _free_tree_edge_sets(8)
    cls, class_of, digests = theorems._survey_trees(row for row in rows)
    assert (cls, class_of, digests) == theorems._survey_trees(rows)
    assert len(cls) == len(digests) == 23
    facts = dict.fromkeys(tree_facts(t) for t in enumerate_free_trees(8))
    assert class_of == [(f, sum(b for b, _ in f.levels)) for f in facts]


def test_survey_class_pair_memo_holds_only_cells():
    # the memo is the survey's one table of CSV cells: each entry is the 13
    # cells of an ordered class pair, one string, or None
    from csftrees import theorems

    rows = _free_tree_edge_sets(12)
    cls, class_of, digests = theorems._survey_trees(rows)
    groups = theorems._x_equal_groups(rows, digests)
    later = {i: group[pos + 1 :] for group in groups for pos, i in enumerate(group)}
    members, memo, _, _ = theorems._survey_class_pairs(cls, class_of, later)
    assert len(memo) == len(members) ** 2
    assert all(entry is None or type(entry) is str for entry in memo)
    cells = [entry for entry in memo if entry is not None]
    assert cells and all(entry.count(",") == len(SURVEY_CSV_HEADER) - 3 for entry in cells)


def test_survey_frees_its_rows_before_the_class_pair_stage(monkeypatch):
    # the X stage is the rows' last reader; a list subclass can be weakly
    # referenced, so the wrapped class-pair stage sees whether they are gone
    import gc
    import weakref

    from csftrees import theorems

    class Rows(list):
        pass

    refs, dead = [], []
    real_rows, real_pairs = theorems._free_tree_edge_sets, theorems._survey_class_pairs

    def rows(n):
        made = Rows(real_rows(n))
        refs.append(weakref.ref(made))
        return made

    def class_pairs(*args):
        gc.collect()
        dead.append(len(refs) == 1 and refs[0]() is None)
        return real_pairs(*args)

    clean = survey(10)
    monkeypatch.setattr(theorems, "_free_tree_edge_sets", rows)
    monkeypatch.setattr(theorems, "_survey_class_pairs", class_pairs)
    rep = survey(10)
    assert dead == [True]
    assert survey_report_to_json_dict(rep) == survey_report_to_json_dict(clean)
    assert "".join(rep.pair_rows()) == "".join(clean.pair_rows())


def test_survey_x_equality_compares_full_terms(monkeypatch):
    # Trees 0, 1 and last keep their keys, which all hash to 0, so they
    # share one digest bucket.  Trees 0 and last get tree 0's p-terms, the
    # last tree's copy marked so that its hooks read its own alpha, which
    # both references take as its max block (the survey reads no hook: its
    # X stage compares terms only).  Tree 1, whose alpha is tree 0's, gets
    # terms that differ from them in two coefficients by +-(2^61 - 1): the
    # tuples hash equal in CPython and the hook coefficients, hence the max
    # block, are unchanged (neither partition has a part 1, and the two
    # changes cancel in the coefficient sum).
    from csftrees import symfunc

    class Marked(tuple):
        pass

    trees = enumerate_free_trees(7)
    last = len(trees) - 1
    alpha = [alpha_mis(t) for t in trees]
    assert alpha[1] == alpha[0] != alpha[last]
    terms = csf_powersum(trees[0]).terms
    big = sys.hash_info.modulus
    twin = tuple(
        (parts, c + big if parts == (7,) else c - big if parts == (5, 2) else c)
        for parts, c in terms
    )
    assert hash(twin) == hash(terms) and twin != terms
    _patch_terms(monkeypatch, 7, {0: terms, 1: twin, last: Marked(terms)})
    real_hook = symfunc._hook_max_block
    monkeypatch.setattr(
        symfunc,
        "_hook_max_block",
        lambda n, t: alpha[last] if type(t) is Marked else real_hook(n, t),
    )
    _patch_payloads(monkeypatch, 7, lambda i, key: _Colliding(key) if i in (0, 1, last) else key)
    rep, ref = survey(7), survey_pairwise_reference(7)
    assert rep.x_equal_pairs == ref.x_equal_pairs == 1
    equal = [v for v in rep.soundness_violations if "csf_equal is true" in v["reason"]]
    assert equal and all((v["a"], v["b"]) == (0, last) for v in equal)
    assert equal == [v for v in ref.soundness_violations if "csf_equal is true" in v["reason"]]
    _assert_same_survey(rep, ref)
    _assert_same_survey(rep, survey_class_loop_reference(7))
    rows = "".join(rep.pair_rows()).splitlines()
    equal_rows = [row.split(",")[:3] for row in rows if row.split(",")[2] == "true"]
    assert equal_rows == [["0", str(last), "true"]]


def test_survey_blocks_mark_every_pair_of_an_x_equal_group(monkeypatch):
    # three trees of one alpha get the first one's key and p-terms, so they
    # form one X-equal group; its three pairs' rows must read true inside
    # the blocks of the first two trees
    trees = enumerate_free_trees(8)
    alpha = [alpha_mis(t) for t in trees]
    same = [i for i, a in enumerate(alpha) if a == alpha[0]]
    group = (same[0], same[len(same) // 2], same[-1])
    terms = csf_powersum(trees[group[0]]).terms
    key = _independence_and_splits(forest_walk(trees[group[0]]))
    _patch_terms(monkeypatch, 8, dict.fromkeys(group, terms))
    _patch_payloads(monkeypatch, 8, lambda i, own: key if i in group else own)
    rep, ref = survey(8), survey_pairwise_reference(8)
    assert rep.x_equal_pairs == 3
    assert "".join(rep.pair_rows()) == "".join(ref.pair_rows())
    rows = [row.split(",") for row in "".join(rep.pair_rows()).splitlines()]
    assert [(int(a), int(b)) for a, b, x, *_ in rows if x == "true"] == list(combinations(group, 2))
    _assert_same_survey(rep, ref)


@pytest.mark.parametrize("n", range(4, 12))
def test_rules_match_their_verdicts(n):
    # on every ordered pair of fact classes, each rule's tuple holds its
    # checker's verdict: status, case, m1, m2, swapped and, from why(), the
    # detail after the swap note
    from csftrees import theorems

    classes = list(dict.fromkeys(tree_facts(t) for t in enumerate_free_trees(n)))
    checkers = (
        (theorems._leaves_rule, theorems._leaves_verdict, "inputs swapped so that b1 > b2; "),
        (theorems._componentwise_rule, theorems._componentwise_verdict, "inputs swapped; "),
        (theorems._sum_rule, theorems._sum_verdict, "inputs swapped; "),
    )
    for fa in classes:
        for fb in classes:
            for rule, checker, note in checkers:
                status, case, m1, m2, swapped, why = rule(fa, fb)
                v = checker(fa, fb)
                assert (v.status, v.case_id, v.m1, v.m2) == (status, case, m1, m2)
                assert v.swapped == swapped
                assert v.detail == (note if swapped else "") + why()


def test_componentwise_rejects_an_applicable_claim_with_equal_maxima():
    # (3, 1) dominates (3, 2) levelwise with m1 = m2 = 3; the levels of real
    # trees of equal n partition V, so only hand-made facts get here
    from csftrees import theorems

    f1, f2 = theorems.TreeFacts(((3, 1),), 0, True), theorems.TreeFacts(((3, 2),), 0, True)
    assert theorems._componentwise_rule(f1, f2)[:4] == (APPLICABLE, None, 3, 3)
    with pytest.raises(InternalError, match="COMPONENTWISE: Applicable verdict with m1 = 3 <= m2 = 3"):
        theorems._componentwise_verdict(f1, f2)


@pytest.mark.parametrize(
    "rule, check, theorem",
    [
        ("_leaves_rule", thm_leaves_check, "LEAVES_RHO"),
        ("_componentwise_rule", thm_componentwise_check, "COMPONENTWISE"),
        ("_sum_rule", thm_sum_check, "SUMMED"),
    ],
)
def test_checkers_reject_a_rule_that_claims_equal_maxima(monkeypatch, rule, check, theorem):
    # the rules only make claims; the verdict every checker returns is
    # checked for m1 > m2 where a rule's tuple becomes a TheoremVerdict
    from csftrees import theorems

    monkeypatch.setattr(theorems, rule, lambda f1, f2: (APPLICABLE, None, 2, 2, False, lambda: ""))
    with pytest.raises(InternalError, match=f"{theorem}: Applicable verdict with m1 = 2 <= m2 = 2"):
        check(gen_path(5), gen_star(5))


_LEVELS = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=1, max_size=4)
_FACTS = st.builds(
    lambda levels, rho, is_path: TreeFacts(tuple(levels), rho, is_path),
    _LEVELS,
    st.integers(0, 12),
    st.booleans(),
)


@settings(max_examples=500, deadline=None)
@given(_FACTS, _FACTS)
@example(TreeFacts(((4, 0),), 0, True), TreeFacts(((2, 0),), 3, True))
def test_leaves_and_sum_rules_claim_strict_maxima_on_any_facts(f1, f2):
    # cases 1-3 of LEAVES_RHO order the maxima by their bounds, case 4 by
    # its guard, and SUMMED's deficit < surplus is sum b1 > sum b2, so no
    # facts at all, real or not, give these rules an Applicable tie (the
    # example passes the case-4 bound with m = (4, 4))
    from csftrees import theorems

    for rule in (theorems._leaves_rule, theorems._sum_rule):
        status, _, m1, m2, _, _ = rule(f1, f2)
        assert status != APPLICABLE or m1 > m2


def test_componentwise_rule_claims_strict_maxima_on_real_trees():
    # the levels of two trees on n vertices partition the same n vertices,
    # so levelwise dominance of distinct sequences makes sum b1 > sum b2;
    # hand-made facts can tie (test above), so the check stays in _verdict
    from csftrees import theorems

    applicable = 0
    for n in range(4, 15):
        class_of = theorems._survey_trees(_free_tree_edge_sets(n))[1]
        for (fa, _), (fb, _) in permutations(class_of, 2):
            status, _, m1, m2, _, _ = theorems._componentwise_rule(fa, fb)
            if status == APPLICABLE:
                applicable += 1
                assert m1 > m2, (fa, fb)
    assert applicable > 0


def test_survey_lists_an_applicable_claim_that_is_not_strict(monkeypatch):
    # the survey builds no TheoremVerdict, so _verdict's check never runs
    # there; a patched rule reaches the survey's own check of m1 > m2
    from csftrees import theorems

    monkeypatch.setattr(
        theorems, "_sum_rule", lambda f1, f2: (APPLICABLE, None, 2, 2, False, lambda: "")
    )
    rep = survey(6)
    assert any(
        v["theorem"] == "SUMMED" and "m1 = 2 is not strictly greater than m2 = 2" in v["reason"]
        for v in rep.soundness_violations
    )


def test_survey_rejects_a_degree_that_the_peel_contradicts(monkeypatch):
    from csftrees import theorems

    real = theorems._independence_and_splits
    star = _free_tree_edge_sets(7)[-1]

    def one_more(row):
        ind, splits = real(row)
        return (ind + (1,), splits) if row == star else (ind, splits)

    monkeypatch.setattr(theorems, "_independence_and_splits", one_more)
    with pytest.raises(InternalError, match="deg i\\(T; x\\) = 7 but sum of b_i = 6"):
        survey(7)


def test_survey_rejects_a_verdict_that_depends_on_the_order(monkeypatch):
    # verdict_counts weighs a class pair by its tree pairs in both orders
    from csftrees import theorems

    real = theorems._sum_rule

    def one_sided(f1, f2):
        v = real(f1, f2)
        return (NOT_APPLICABLE, None, None, None, False, v[5]) if v[4] else v

    monkeypatch.setattr(theorems, "_sum_rule", one_sided)
    with pytest.raises(InternalError, match="depends on the order of classes"):
        survey(7)


@pytest.mark.parametrize("bad", [2, 19, 7.0, True, "7"])
def test_survey_rejects_bad_n(bad):
    # only n above the enumeration cap is a cap; the rest is malformed input
    expected = CapExceededError if bad == 19 else GraphError
    with pytest.raises(GraphError, match="survey needs an integer n with 3 <= n <= 18") as exc:
        survey(bad)
    assert exc.type is expected
