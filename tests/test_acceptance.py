"""Acceptance gate: ten end-to-end criteria, each with a hard runtime cap.

Every test times its own body and prints one "[criterion N] PASS/FAIL (x.xxs)"
line outside pytest's capture, then asserts both the checked facts and the
cap.
"""

import json
import random
import time
from contextlib import contextmanager
from itertools import combinations, product

from _oracles import (
    ahu_code_reference,
    alpha_from_decomposition,
    mis_bruteforce,
    monomial_by_stable_partitions,
    evaluate_ones,
    prufer_adjacency,
    random_star_spec,
    star_connection_M,
)
from csftrees.cli import main
from csftrees.decomposition import alpha_mis, leaf_decomposition
from csftrees.generators import (
    Gluing,
    StarConnectionSpec,
    enumerate_free_trees,
    gen_spider,
    gen_star_connection,
)
from csftrees.partitions import partitions_desc
from csftrees.symfunc import (
    csf_equal,
    csf_monomial,
    max_block_from_csf,
)
from csftrees.theorems import (
    spider_audit,
    star_connection_counts,
    survey,
    thm_componentwise_check,
    tree_facts,
)


@contextmanager
def criterion(capsys, num, cap, desc):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        dt = time.perf_counter() - t0
        status = "PASS" if ok and dt < cap else "FAIL"
        with capsys.disabled():
            print(f"[criterion {num}] {status} ({dt:.2f}s) {desc}", flush=True)
    assert dt < cap, f"criterion {num}: {dt:.2f}s exceeds the {cap}s cap"


def _edge_file(tmp_path, name, n, edges):
    p = tmp_path / name
    p.write_text(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    return str(p)


def test_criterion_01_s4_p4_compare(tmp_path, capsys):
    with criterion(capsys, 1, 1.0, "compare S4 vs P4: X distinct, case 1, M 3 vs 2"):
        a = _edge_file(tmp_path, "s4.txt", 4, [(0, 1), (0, 2), (0, 3)])
        b = _edge_file(tmp_path, "p4.txt", 4, [(0, 1), (1, 2), (2, 3)])
        assert main(["compare", "--a", a, "--b", b, "--theorems"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["x_equal"] is False
        lv = rep["theorems"][0]
        assert (lv["theorem"], lv["status"], lv["case"]) == ("LEAVES_RHO", "Applicable", 1)
        assert (lv["m1"], lv["m2"]) == (3, 2)


def test_criterion_02_chain_4534(capsys):
    with criterion(capsys, 2, 1.0, "star chain (4,5,3,4): 13 vertices, M = alpha = 9"):
        spec = StarConnectionSpec(
            (4, 5, 3, 4), (Gluing((0, 1)), Gluing((1, 2)), Gluing((2, 3)))
        )
        nverts, excess = star_connection_counts(spec)
        assert (nverts, excess) == (13, 3)
        assert star_connection_M(spec) == 9
        assert alpha_mis(gen_star_connection(spec)) == 9


def test_criterion_03_componentwise_pair_n8(capsys):
    with criterion(capsys, 3, 5.0, "n=8 levels [(5,2),(1,0)] vs [(4,4)]: componentwise 6 vs 4"):
        want_hi, want_lo = ((5, 2), (1, 0)), ((4, 4),)
        his, los = [], []
        for t in enumerate_free_trees(8):
            levels = leaf_decomposition(t).level_counts()
            if levels == want_hi:
                his.append(t)
            elif levels == want_lo:
                los.append(t)
        assert his and los
        for hi in his:
            for lo in los:
                v = thm_componentwise_check(hi, lo)
                assert (v.status, v.m1, v.m2, v.swapped) == ("Applicable", 6, 4, False)


def test_criterion_04_shared_levels_n10(capsys):
    with criterion(capsys, 4, 30.0, "n=10 shared levels [(6,3),(1,0)]: NotApplicable, X distinct"):
        want = ((6, 3), (1, 0))
        group = [
            t for t in enumerate_free_trees(10)
            if leaf_decomposition(t).level_counts() == want
        ]
        assert len(group) >= 2
        for a, b in combinations(group, 2):
            assert thm_componentwise_check(a, b).status == "NotApplicable"
            assert not csf_equal(a, b)


def test_criterion_05_oracle_equivalence(capsys):
    with criterion(capsys, 5, 600.0, "all trees n<=10: route equality, alpha, colorings"):
        for n in range(1, 11):
            for t in enumerate_free_trees(n):
                mono = monomial_by_stable_partitions(t)
                assert csf_monomial(t).terms == mono.terms
                alpha = alpha_mis(t)
                assert max_block_from_csf(mono) == alpha
                assert alpha_from_decomposition(leaf_decomposition(t)) == alpha
                for r in range(5):
                    assert evaluate_ones(mono, r) == r * (r - 1) ** (n - 1)


def test_criterion_06_survey_soundness(capsys):
    with criterion(capsys, 6, 900.0, "survey n=4..10: zero violations, zero X-equal pairs"):
        for n in range(4, 11):
            rep = survey(n)
            assert rep.soundness_violations == ()
            assert rep.x_equal_pairs == 0


def test_criterion_07_enumeration_counts(capsys):
    with criterion(capsys, 7, 60.0, "tree counts n=1..8 match the Prufer oracle"):
        expected = (1, 1, 1, 2, 3, 6, 11, 23)
        for n, want in enumerate(expected, start=1):
            got = len(enumerate_free_trees(n))
            assert got == want
            if n == 1:
                oracle = 1
            else:
                # every labeled tree, coded by the reference AHU walk on its
                # adjacency lists, not by the row fold the enumeration sorts by
                oracle = len(
                    {
                        ahu_code_reference(n, prufer_adjacency(seq))
                        for seq in product(range(n), repeat=n - 2)
                    }
                )
            assert got == oracle


def test_criterion_08_star_connection_formula(capsys):
    with criterion(capsys, 8, 60.0, "250 random star connections: M = alpha, identities hold"):
        rng = random.Random(20250812)
        for _ in range(250):
            spec = random_star_spec(rng, max_vertices=20)
            t = gen_star_connection(spec)
            nverts, excess = star_connection_counts(spec)
            r = spec.num_stars
            assert nverts == sum(spec.star_sizes) - (r - 1) == t.n
            assert excess == r - 1
            assert star_connection_M(spec) == alpha_mis(t)


def test_criterion_09_spider_audit(capsys):
    with criterion(capsys, 9, 60.0, "spider audit n<=12: goldens hold, every gap confirmed"):
        rows = {}
        for total in range(3, 12):
            for legs in partitions_desc(total):
                if len(legs) < 3:
                    continue
                formula, oracle, agrees = spider_audit(legs)
                rows[legs] = (formula, oracle, agrees)
                assert agrees == (formula == oracle)
                if not agrees:
                    assert oracle == mis_bruteforce(gen_spider(legs))
        assert rows[(1, 1, 1)] == (1, 3, False)
        assert rows[(2, 2, 2)] == (3, 4, False)
        assert rows[(4, 2, 2)] == (4, 5, False)


def test_criterion_10_path_formula(capsys):
    with criterion(capsys, 10, 120.0, "trees n<=12 with path rho-set: alpha = b1 + ceil(rho/2)"):
        for n in range(1, 13):
            for t in enumerate_free_trees(n):
                f = tree_facts(t)
                if not f.is_path:
                    continue
                b1 = f.levels[0][0]
                assert alpha_mis(t) == b1 + (f.rho + 1) // 2
