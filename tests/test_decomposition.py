import math
import random
import time

import pytest

from _oracles import (
    alpha_from_decomposition,
    edge_splits_bruteforce,
    independent_set_counts_bruteforce,
    leaf_decomposition_reference,
    mis_bruteforce,
    prufer_tree,
    relabel,
    rho_path_bruteforce,
    rooted,
)
from csftrees.decomposition import (
    _independence_and_splits,
    alpha_mis,
    chain_holds,
    chain_sequence,
    decomposition_to_json_dict,
    leaf_decomposition,
    padded_levels,
    rho_data,
)
from csftrees.errors import GraphError
from csftrees.generators import (
    Gluing,
    StarConnectionSpec,
    enumerate_free_trees,
    gen_path,
    gen_spider,
    gen_star,
    gen_star_connection,
)
from csftrees.graphs import Graph, Tree, degrees
from csftrees.partitions import partitions_desc
from csftrees.symfunc import _hook_max_block, _tree_powersum_terms
from csftrees.theorems import tree_facts


@pytest.mark.parametrize(
    "tree, counts, term_alpha",
    [
        (gen_star(4), ((3, 1),), 0),
        (gen_path(4), ((2, 2),), 0),
        (gen_path(7), ((2, 2), (2, 1)), 0),
        (gen_path(2), ((1, 1),), 2),
        (gen_path(1), ((1, 0),), 0),
        (gen_spider((2, 2, 2)), ((3, 3), (1, 0)), 0),
    ],
)
def test_decomposition_goldens(tree, counts, term_alpha):
    d = leaf_decomposition(tree)
    assert d.level_counts() == counts
    assert d.terminal_alpha == term_alpha
    assert len(d.levels) == len(counts)


def test_long_path_peels_in_linear_time():
    """P_50000 has 12,500 levels; a peel that scans every alive vertex on
    every level takes about n^2 / 8 steps here, over 15 s."""
    t = gen_path(50_000)
    start = time.perf_counter()
    d = leaf_decomposition(t)
    assert time.perf_counter() - start < 2.0
    assert d.level_counts() == ((2, 2),) * 12_500
    assert d.terminal_alpha == 0


def test_peel_matches_reference():
    """The frontier peel against the per-level scan of every alive vertex:
    every tree with n <= 12 and seeded random labeled trees with n <= 300."""
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            assert leaf_decomposition(t) == leaf_decomposition_reference(t)
    rng = random.Random(25)
    for _ in range(300):
        n = rng.randint(2, 300)
        t = prufer_tree([rng.randrange(n) for _ in range(n - 2)])
        assert leaf_decomposition(t) == leaf_decomposition_reference(t)


def test_pairing_inside_a_level():
    """The path 6-7 is a two-vertex component of the second level's forest,
    which still has vertex 2 of degree 2: the smaller id 6 goes to b."""
    t = Tree(11, ((0, 1), (0, 6), (0, 10), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7), (7, 8), (8, 9)))
    d = leaf_decomposition(t)
    levels = tuple((lvl.leaf_vertices, lvl.neighbor_vertices) for lvl in d.levels)
    assert levels == (((5, 9, 10), (0, 4, 8)), ((1, 3, 6), (2, 7)))
    assert d.terminal_alpha == 0


def test_chain_example_alpha():
    spec = StarConnectionSpec((4, 5, 3, 4), (Gluing((0, 1)), Gluing((1, 2)), Gluing((2, 3))))
    t = gen_star_connection(spec)
    assert alpha_from_decomposition(leaf_decomposition(t)) == 9


def test_levels_partition_vertices():
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            d = leaf_decomposition(t)
            seen = []
            for lvl in d.levels:
                assert lvl.b == len(lvl.leaf_vertices)
                assert lvl.eta == len(lvl.neighbor_vertices)
                assert lvl.b >= lvl.eta
                seen.extend(lvl.leaf_vertices)
                seen.extend(lvl.neighbor_vertices)
            assert sorted(seen) == list(range(n))


def test_block_sum_is_independence_number():
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            d = leaf_decomposition(t)
            alpha = alpha_mis(t)
            assert alpha_from_decomposition(d) == alpha
            if n <= 8:
                assert alpha == mis_bruteforce(t)


def test_independence_and_splits_by_brute_force():
    for n in range(1, 10):
        for t in enumerate_free_trees(n):
            assert _independence_and_splits(*rooted(t)) == (
                independent_set_counts_bruteforce(t),
                edge_splits_bruteforce(t),
            )
    assert _independence_and_splits(*rooted(gen_path(4))) == ((1, 4, 3), (1, 1, 2))
    assert _independence_and_splits(*rooted(gen_star(5))) == ((1, 5, 6, 4, 1), (1, 1, 1, 1))


def test_independence_and_splits_are_coefficients_of_x():
    """[m_(k,1^(n-k))] X = (n-k)! i_k, read from the p-terms by the hook
    closed form; [p_(n-a,a)] X = (-1)^n times the number of edges with
    splits a; and deg i(T; x) = alpha_mis = the max block of the p-terms."""
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            walk = rooted(t)
            ind, splits = _independence_and_splits(*walk)
            terms = _tree_powersum_terms(*walk)
            for k in range(1, n + 1):
                hook = sum(c * math.perm(parts.count(1), n - k) for parts, c in terms)
                assert hook == math.factorial(n - k) * (ind[k] if k < len(ind) else 0)
            coeff = dict(terms)
            for a in range(1, n // 2 + 1):
                assert coeff.get((n - a, a), 0) == (-1) ** n * splits.count(a)
            assert len(ind) - 1 == alpha_mis(t) == _hook_max_block(n, terms)


def test_greedy_witness():
    """The b-vertices of all levels form a maximum independent set that, for
    n >= 3, contains every leaf."""
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            d = leaf_decomposition(t)
            members = {v for lvl in d.levels for v in lvl.leaf_vertices}
            assert len(members) == alpha_mis(t)
            assert not any(u in members and v in members for u, v in t.edges)
            if n >= 3:
                deg = degrees(t)
                assert all(v in members for v in range(n) if deg[v] == 1)


def test_chain_inequalities_hold_empirically():
    for n in range(1, 10):
        for t in enumerate_free_trees(n):
            levels = leaf_decomposition(t).level_counts()
            assert chain_holds(levels), chain_sequence(levels)


def test_chain_inequalities_first_failure():
    """b1 >= eta1 >= b2 >= ... is an audited claim, not a theorem: the first
    counterexample is P11 with a pendant leaf on its center, at n = 12."""
    edges = tuple((i, i + 1) for i in range(10)) + ((5, 11),)
    t = Tree(12, edges)
    d = leaf_decomposition(t)
    assert chain_sequence(d.level_counts()) == (3, 3, 4, 2)
    assert not chain_holds(d.level_counts())
    assert alpha_from_decomposition(d) == alpha_mis(t) == 7


def test_relabeling_invariance():
    # the level counts, and the whole facts (rho and is_path too)
    rng = random.Random(2024)
    for n in range(2, 10):
        for t in enumerate_free_trees(n):
            perm = list(range(n))
            rng.shuffle(perm)
            t2 = relabel(t, perm)
            assert leaf_decomposition(t2).level_counts() == leaf_decomposition(t).level_counts()
            assert tree_facts(t2) == tree_facts(t)


def test_rho_data_goldens():
    r = rho_data(gen_path(7))
    assert (r.rho, r.rho_vertices, r.is_path) == (3, (2, 3, 4), True)
    assert rho_data(gen_star(4)) == rho_data(gen_star(4))  # hashable/frozen
    assert rho_data(gen_star(4)).rho == 0
    assert rho_data(gen_star(4)).is_path
    assert rho_data(gen_path(2)).rho == 0
    assert rho_data(gen_path(5)).rho == 1 and rho_data(gen_path(5)).is_path


def test_rho_set_may_be_disconnected():
    # path 0-..-6 with an extra leaf on vertex 3: rho vertices {2, 4} split up
    edges = tuple((i, i + 1) for i in range(6)) + ((3, 7),)
    t = Tree(8, edges)
    r = rho_data(t)
    assert r.rho == 2
    assert r.rho_vertices == (2, 4)
    assert not r.is_path


def test_rho_path_rule_matches_induced_subgraph():
    """rho - 1 inside edges and inside degrees <= 2, read off the peel's
    neighbor sets once its first level is gone, against a flood fill of the
    induced subgraph: every tree with n <= 11 and seeded random labeled
    trees with n = 12..60, through rho_data and tree_facts alike."""
    rng = random.Random(31)
    randoms = [
        prufer_tree([rng.randrange(n) for _ in range(n - 2)])
        for n in range(12, 61)
        for _ in range(20)
    ]
    kinds = set()
    for t in [t for n in range(2, 12) for t in enumerate_free_trees(n)] + randoms:
        r = rho_data(t)
        expected = rho_path_bruteforce(t)
        assert (r.rho_vertices, r.is_path) == expected
        assert r.rho == len(r.rho_vertices)
        assert tree_facts(t).is_path == expected[1]
        if t.n >= 12:
            kinds.add((r.rho > 1, r.is_path))
    # the random trees hold long paths and non-paths alike
    assert kinds == {(False, True), (True, True), (True, False)}
    # spider (3,3,3): V(rho) induces a claw, connected with rho - 1 edges
    r = rho_data(gen_spider((3, 3, 3)))
    assert (r.rho, r.is_path) == (4, False)


def test_rho_needs_two_vertices():
    with pytest.raises(GraphError):
        rho_data(gen_path(1))


def test_padded_levels():
    assert padded_levels([], [(1, 0)]) == ([(0, 0)], [(1, 0)])
    d1 = leaf_decomposition(gen_path(7))
    d2 = leaf_decomposition(gen_star(7))
    s1, s2 = padded_levels(d1.level_counts(), d2.level_counts())
    assert s1 == [(2, 2), (2, 1)]
    assert s2 == [(6, 1), (0, 0)]


def test_alpha_mis_forest_and_cycle():
    forest = Graph(5, ((0, 1), (1, 2), (3, 4)))  # P3 + P2
    assert alpha_mis(forest) == 3
    assert alpha_mis(Graph(3)) == 3
    with pytest.raises(GraphError):
        alpha_mis(Graph(3, ((0, 1), (1, 2), (0, 2))))


def test_alpha_mis_forest_rule():
    """|E| = n - #components decides acyclicity, isolated vertices included."""
    triangle = ((0, 1), (1, 2), (0, 2))
    for isolated in range(4):
        with pytest.raises(GraphError, match="acyclic"):
            alpha_mis(Graph(3 + isolated, triangle))
        with pytest.raises(GraphError, match="acyclic"):
            alpha_mis(Graph(5 + isolated, triangle + ((3, 4),)))
    rng = random.Random(11)
    for _ in range(30):
        t = enumerate_free_trees(7)[rng.randrange(11)]
        kept = tuple(e for e in t.edges if rng.random() < 0.6)
        g = Graph(7 + rng.randint(0, 3), kept)
        assert alpha_mis(g) == mis_bruteforce(g)


def test_alpha_mis_of_every_spider_has_a_closed_form():
    """On a spider, a maximum independent set leaves the center out and
    takes ceil(L/2) of each leg, or puts it in and takes floor(L/2): every
    spider with 4 to 24 vertices (5,607 leg multisets with >= 3 legs)."""
    checked = 0
    for total in range(3, 24):
        for legs in partitions_desc(total):
            if len(legs) < 3:
                continue
            without_center = sum((L + 1) // 2 for L in legs)
            with_center = 1 + sum(L // 2 for L in legs)
            assert alpha_mis(gen_spider(legs)) == max(without_center, with_center), legs
            checked += 1
    assert checked == 5607


def test_decomposition_json():
    d = leaf_decomposition(gen_path(7))
    assert decomposition_to_json_dict(d) == {
        "levels": [{"b": 2, "eta": 2}, {"b": 2, "eta": 1}],
        "alpha_correction": 0,
    }
