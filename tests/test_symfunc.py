import itertools
import math
import random
import re
import time
from math import perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    acyclic_orientations,
    coloring_count,
    evaluate_ones,
    monomial_by_stable_partitions,
    p_to_m_reference,
    prufer_tree,
    stable_partitions,
    tree_powersum_reference,
)
from csftrees import _kernels, symfunc
from csftrees._kernels import edge_subset_type_counts, stable_type_counts
from csftrees.decomposition import alpha_mis
from csftrees.errors import CapExceededError, GraphError
from csftrees.generators import (
    _free_tree_edge_sets,
    enumerate_free_trees,
    gen_path,
    gen_spider,
    gen_star,
)
from csftrees.graphs import Graph, forest_walk
from csftrees.partitions import mult_factorial, partitions_desc
from csftrees.symfunc import (
    SymmetricFunction,
    csf_equal,
    csf_monomial,
    csf_powersum,
    max_block_from_csf,
    pretty,
    symfunc_to_json_dict,
    to_monomial,
)


def _cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


# ------------------------------------------------------- the container itself

def test_terms_normalized():
    f = SymmetricFunction(3, "m", {(1, 1, 1): 6, (3,): 0, (2, 1): 1})
    assert f.terms == (((2, 1), 1), ((1, 1, 1), 6))  # zero dropped, desc-lex
    assert dict(f.terms) == {(2, 1): 1, (1, 1, 1): 6}


# The first ten ids are the ones pytest gives by default.
_CONTAINER_REJECTS = {
    "3-q-terms0": (3, "q", {}, "unknown basis 'q'"),
    "-1-m-terms1": (-1, "m", {}, "weight must be a non-negative integer, got -1"),
    "3-m-terms2": (3, "m", {(2, 1): True}, "coefficient of (2, 1) is not an exact integer"),
    "3-m-terms3": (3, "m", {(2, 0, 1): 1}, "partition (2, 0, 1) has a non-positive part"),
    "3-m-terms4": (3, "m", {(1, 2): 1}, "partition (1, 2) is not weakly decreasing"),
    "3-m-terms5": (3, "m", {(2, 2): 1}, "partition (2, 2) does not sum to the weight 3"),
    "3-m-terms6": (3, "m", [((2, 1), 1), ((2, 1), 2)], "duplicate partition (2, 1)"),
    "True-m-terms7": (True, "m", {(1,): 1}, "weight must be a non-negative integer, got True"),
    "2.0-m-terms8": (2.0, "m", {(1, 1): 1}, "weight must be a non-negative integer, got 2.0"),
    "2-p-terms9": (2, "p", {(True, True): 1}, "partition (True, True) has a non-integer part"),
    "float-part": (3, "p", {(1.5, 1.5): 1}, "partition (1.5, 1.5) has a non-integer part"),
    "nested-list-part": (3, "p", [(([2], 1), 1)], "partition ([2], 1) has a non-integer part"),
}


@pytest.mark.parametrize(
    "n, basis, terms, msg", list(_CONTAINER_REJECTS.values()), ids=list(_CONTAINER_REJECTS)
)
def test_container_rejects(n, basis, terms, msg):
    with pytest.raises(GraphError, match=re.escape(msg)):
        SymmetricFunction(n, basis, terms)


# ------------------------------------------------------------------- goldens

def test_single_vertex():
    g = Graph(1)
    assert csf_monomial(g).terms == (((1,), 1),)
    assert csf_powersum(g).terms == (((1,), 1),)


def test_k2_both_bases():
    g = gen_path(2)
    assert dict(csf_monomial(g).terms) == {(1, 1): 2}
    assert dict(csf_powersum(g).terms) == {(1, 1): 1, (2,): -1}


def test_p3_both_bases():
    t = gen_path(3)
    assert dict(csf_monomial(t).terms) == {(2, 1): 1, (1, 1, 1): 6}
    assert dict(csf_powersum(t).terms) == {(1, 1, 1): 1, (2, 1): -2, (3,): 1}


def test_edgeless_graph_is_power_of_sum():
    # X of the empty graph on 2 vertices is (x1 + x2 + ...)^2
    assert dict(csf_monomial(Graph(2)).terms) == {(2,): 1, (1, 1): 2}


def test_domain_errors():
    with pytest.raises(GraphError, match="csf_monomial needs n >= 1"):
        csf_monomial(Graph(0))
    with pytest.raises(GraphError, match="csf_powersum needs n >= 1"):
        csf_powersum(Graph(0))


def test_caps():
    with pytest.raises(CapExceededError):
        csf_monomial(gen_path(15))
    with pytest.raises(CapExceededError):
        csf_powersum(gen_path(26))
    with pytest.raises(CapExceededError):
        to_monomial(SymmetricFunction(15, "p", {(15,): 1}))


def test_powersum_caps_n_before_any_table():
    # one edge and 70 vertices: p(70) is about 4.1 million partitions
    t0 = time.perf_counter()
    with pytest.raises(CapExceededError, match="n <= 25"):
        csf_powersum(Graph(70, ((0, 1),)))
    assert time.perf_counter() - t0 < 0.5
    with pytest.raises(CapExceededError, match=r"\|E\| <= 24"):
        csf_powersum(Graph(12, tuple(itertools.combinations(range(12), 2))[:25]))


# ------------------------------------------------------------ the routes

def _sweep(g: Graph) -> dict:
    """The 2^|E| signed edge-subset sweep, called directly."""
    return dict(edge_subset_type_counts(g.n, g.edges))


def test_tree_dp_matches_sweep():
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            assert dict(csf_powersum(t).terms) == _sweep(t)


def _assert_canonical(n: int, terms) -> None:
    """Nonzero integer coefficients on partitions of n, strictly descending."""
    for parts, coeff in terms:
        assert isinstance(coeff, int) and coeff != 0
        assert sum(parts) == n and all(a >= b >= 1 for a, b in zip(parts, parts[1:] + (1,)))
    partitions = [parts for parts, _ in terms]
    assert partitions == sorted(partitions, reverse=True)
    assert len(set(partitions)) == len(partitions)


def test_packed_dp_matches_tuple_keyed_dp():
    # on each tree's breadth-first walk, and on its row in index order as
    # the survey passes it
    for n in range(1, 12):
        for row, t in zip(_free_tree_edge_sets(n), enumerate_free_trees(n)):
            terms = symfunc._tree_powersum_terms(forest_walk(t))
            _assert_canonical(n, terms)
            assert terms == tree_powersum_reference(t)
            assert symfunc._tree_powersum_terms(row) == terms


def _prufer_trees(min_n: int, max_n: int):
    return st.integers(min_value=min_n, max_value=max_n).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2)
    ).map(prufer_tree)


@settings(max_examples=25, deadline=None)
@given(_prufer_trees(12, 18))
def test_packed_dp_matches_tuple_keyed_dp_on_random_trees(g):
    terms = symfunc._tree_powersum_terms(forest_walk(g))
    _assert_canonical(g.n, terms)
    assert terms == tree_powersum_reference(g)
    assert csf_powersum(g).terms == terms


def test_forests_take_the_dp_and_cycles_the_sweep(monkeypatch):
    calls = []

    def counted(kernel):
        def run(n, edges):
            calls.append(n)
            return kernel(n, edges)
        return run

    monkeypatch.setattr(_kernels, "edge_subset_type_counts", counted(edge_subset_type_counts))
    monkeypatch.setattr(_kernels, "stable_type_counts", counted(stable_type_counts))
    csf_powersum(gen_path(6))
    csf_powersum(Graph(7, gen_star(7).edges))  # a tree, though not built as a Tree
    csf_powersum(Graph(4, ((0, 1),)))  # a forest of three trees
    csf_monomial(Graph(4, ((0, 1),)))
    csf_powersum(Graph(3))
    assert calls == []
    csf_powersum(_cycle(5))
    csf_powersum(Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4))))  # a cycle and a forest
    assert calls == [5, 6]


def test_forests_with_n_up_to_6_match_the_sweep_and_stable_partitions():
    """Every labeled forest with n <= 6: the DP against the 2^|E| sweep and
    the stable-partition count."""
    checked = 0
    for n in range(1, 7):
        pool = list(itertools.combinations(range(n), 2))
        for k in range(n):
            for es in itertools.combinations(pool, k):
                g = Graph(n, es)
                if forest_walk(g) is None:
                    continue
                dp = csf_powersum(g)
                assert dict(dp.terms) == _sweep(g)
                assert to_monomial(dp).terms == monomial_by_stable_partitions(g).terms
                checked += 1
    assert checked == 1 + 2 + 7 + 38 + 291 + 2932  # labeled forests, OEIS A001858


def _random_forests(max_n: int):
    """Prüfer trees with some of their edges dropped."""
    return _prufer_trees(3, max_n).flatmap(
        lambda t: st.sets(st.sampled_from(t.edges), min_size=1).map(
            lambda dropped: Graph(t.n, tuple(e for e in t.edges if e not in dropped))))


@settings(max_examples=40, deadline=None)
@given(_random_forests(18))
def test_dp_on_random_forests_matches_the_sweep_and_stable_partitions(g):
    """Up to 16 edges against the sweep; the stable-partition count, which
    grows with 2^n, up to n = 12."""
    dp = csf_powersum(g)
    _assert_canonical(g.n, dp.terms)
    assert dict(dp.terms) == _sweep(g)
    if g.n <= 12:
        assert to_monomial(dp).terms == monomial_by_stable_partitions(g).terms


def test_forest_of_two_paths_on_25_vertices_is_the_product_of_the_paths():
    """P12 + P13, 23 edges, on which the 2^|E| sweep took over 5 s; X of a
    disjoint union is the product of the parts' X."""
    forest = Graph(25, tuple((i, i + 1) for i in range(11))
                   + tuple((i, i + 1) for i in range(12, 24)))
    t0 = time.perf_counter()
    terms = csf_powersum(forest).terms
    assert time.perf_counter() - t0 < 2.0
    product: dict = {}
    for a, x in csf_powersum(gen_path(12)).terms:
        for b, y in csf_powersum(gen_path(13)).terms:
            key = tuple(sorted(a + b, reverse=True))
            product[key] = product.get(key, 0) + x * y
    assert dict(terms) == {key: c for key, c in product.items() if c}
    _assert_canonical(25, terms)


def test_forests_report_the_tree_caps(monkeypatch):
    """csf_monomial checks its own cap before it walks g, so a forest gets
    the same message as a graph with cycles, and P25, within csf_powersum's
    caps, is refused without running the tree DP."""
    def no_dp(row):
        raise AssertionError("the tree DP ran past csf_monomial's cap")

    monkeypatch.setattr(symfunc, "_tree_powersum_terms", no_dp)
    forests = (Graph(15, tuple((i, i + 1) for i in range(13))), Graph(30, ((0, 1), (2, 3))),
               gen_path(25))
    for g in forests:
        with pytest.raises(CapExceededError,
                           match=re.escape(f"csf_monomial capped at n <= 14, got {g.n}")):
            csf_monomial(g)
    with pytest.raises(GraphError):
        csf_equal(Graph(0), Graph(0))


def test_csf_monomial_counts_stable_partitions_only_off_trees(monkeypatch):
    calls = []

    def counting(n, edges):
        calls.append(n)
        return stable_type_counts(n, edges)

    monkeypatch.setattr(_kernels, "stable_type_counts", counting)
    csf_monomial(gen_path(6))
    csf_monomial(Graph(7, gen_star(7).edges))  # a tree, though not built as a Tree
    assert calls == []
    csf_monomial(_cycle(5))
    assert calls == [5]


def test_each_forest_is_walked_once_per_call(monkeypatch):
    """csf_equal and csf_monomial hand the row they route on to the DP, so
    each forest is walked once per call; a graph with |E| >= n cannot be a
    forest and is not walked at all."""
    from csftrees import graphs

    path, spider, forest = gen_path(7), gen_spider((2, 2, 2)), Graph(6, ((0, 1), (2, 3)))
    cycle, kite = _cycle(5), Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    calls = []
    real = graphs._walk_row

    def counted(adj, roots):
        calls.append(len(adj))
        return real(adj, roots)

    monkeypatch.setattr(graphs, "_walk_row", counted)
    assert not csf_equal(path, spider)
    assert calls == [7, 7]
    csf_monomial(forest)
    csf_powersum(forest)
    assert calls == [7, 7, 6, 6]
    del calls[:]
    assert not csf_equal(cycle, kite)
    assert csf_equal(cycle, _cycle(5))
    for g in (cycle, kite):
        csf_monomial(g)
        csf_powersum(g)
        assert forest_walk(g) is None
    assert calls == []
    # a triangle and two isolated vertices against a triangle and an edge:
    # |E| < n, so each is walked once to route, and not again to count
    assert not csf_equal(Graph(5, ((0, 1), (1, 2), (0, 2))),
                         Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4))))
    assert calls == [5, 5]
    assert forest_walk(Graph(0)) == []
    with pytest.raises(GraphError, match="csf_powersum needs n >= 1"):
        csf_equal(Graph(0), Graph(0))


def test_csf_equal_of_forest_and_graph_with_cycles_counts_nothing(monkeypatch):
    """X fixes |E| and the number of components, both read from the
    chromatic polynomial X(1^k), so a forest and a graph with a cycle
    always differ: checked on every graph with n <= 5 against the counting
    route, then csf_equal must answer without a kernel call.  Two forests
    take the DP, and two graphs with cycles the counting route."""
    for n in range(1, 6):
        pool = list(itertools.combinations(range(n), 2))
        graphs = [Graph(n, es) for k in range(len(pool) + 1)
                  for es in itertools.combinations(pool, k)]
        forests = {monomial_by_stable_partitions(g).terms
                   for g in graphs if forest_walk(g) is not None}
        others = {monomial_by_stable_partitions(g).terms
                  for g in graphs if forest_walk(g) is None}
        assert forests and not forests & others

    def no_counting(n, edges):
        raise AssertionError("a kernel ran to compare a forest with a graph with a cycle")

    monkeypatch.setattr(_kernels, "stable_type_counts", no_counting)
    monkeypatch.setattr(_kernels, "edge_subset_type_counts", no_counting)
    triangle_and_path = Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5)))  # n - 1 edges
    pairs = [
        (gen_path(14), _cycle(14)),
        (gen_star(15), _cycle(15)),  # beyond csf_monomial's cap
        (gen_path(6), triangle_and_path),
        # four edges each: two paths against a triangle and an edge
        (Graph(6, ((0, 1), (1, 2), (3, 4), (4, 5))), Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4)))),
    ]
    for forest, other in pairs:
        assert not csf_equal(forest, other)
        assert not csf_equal(other, forest)
    assert csf_equal(gen_path(1), Graph(1))  # one vertex, no edge: a tree
    assert csf_equal(Graph(6, ((0, 1), (2, 3))), Graph(6, ((4, 5), (1, 2))))
    assert not csf_equal(Graph(4, ((0, 1), (1, 2))), Graph(4, ((0, 1), (2, 3))))

    calls = []

    def counting(n, edges):
        calls.append(n)
        return stable_type_counts(n, edges)

    monkeypatch.setattr(_kernels, "stable_type_counts", counting)
    assert not csf_equal(_cycle(4), Graph(4, ((0, 1), (1, 2), (0, 2), (2, 3))))
    assert calls == [4, 4]


@settings(max_examples=30, deadline=None)
@given(_prufer_trees(3, 11))
def test_dp_sweep_and_stable_partitions_agree(t):
    dp = csf_powersum(t)
    assert dict(dp.terms) == _sweep(t)
    assert to_monomial(dp).terms == monomial_by_stable_partitions(t).terms


def _graphs_with_cycles(max_n: int, max_edges: int):
    def edges(n):
        pairs = list(itertools.combinations(range(n), 2))
        if not pairs:
            return st.just(Graph(n))
        return st.sets(st.sampled_from(pairs), max_size=max_edges).map(
            lambda es: Graph(n, tuple(es)))
    return st.integers(min_value=1, max_value=max_n).flatmap(edges)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_graphs_with_cycles(9, 14), _prufer_trees(3, 9)))
def test_random_graphs_counting_dp_and_sweep_agree(g):
    """On any graph, cycles allowed, and on random trees, which the graph
    strategy alone rarely draws: the stable-partition DP matches the
    partition-by-partition stream, and the 2^|E| sweep (or, on a forest,
    the DP) matches it after the change of basis."""
    tally = {}
    for p in stable_partitions(g):
        typ = tuple(sorted(map(len, p), reverse=True))
        tally[typ] = tally.get(typ, 0) + 1
    assert dict(stable_type_counts(g.n, g.edges)) == tally
    want = monomial_by_stable_partitions(g).terms
    assert to_monomial(csf_powersum(g)).terms == want
    assert csf_monomial(g).terms == want


@pytest.mark.parametrize("n", range(15, 26))
def test_tree_invariants_beyond_brute_force(n):
    rng = random.Random(n)
    spine = (n + 1) // 2
    leg = (n - 1) // 3
    comb = Graph(n, tuple((i, i + 1) for i in range(spine - 1))
                 + tuple((i, spine + i) for i in range(n - spine)))
    trees = [
        gen_path(n),
        gen_star(n),
        comb,
        gen_spider((n - 1 - 2 * leg, leg, leg)),
        prufer_tree([rng.randrange(n) for _ in range(n - 2)]),
    ]
    for g in trees:
        f = csf_powersum(g)
        for r in range(1, 5):
            assert evaluate_ones(f, r) == r * (r - 1) ** (n - 1)
        assert dict(f.terms)[(1,) * n] == 1
        assert dict(f.terms)[(n,)] == (-1) ** (n - 1)
        assert max_block_from_csf(f) == alpha_mis(g)


def test_hook_closed_form_matches_slot_assignments():
    """[m_(k,1^(n-k))] p_lambda = perm(m_1(lambda), n - k), the closed form
    max_block_from_csf uses, against the general p-to-m transition count."""
    for n in range(1, 15):
        for lam in partitions_desc(n):
            for k in range(1, n + 1):
                hook = (k,) + (1,) * (n - k)
                assert perm(lam.count(1), n - k) == p_to_m_reference(lam, hook)


@pytest.mark.parametrize("n", range(0, 15))
def test_to_monomial_matches_slot_assignments(n):
    """Every [m_mu] p_lambda of to_monomial's DP, zero or not, against the
    slot-assignment recursion, for every lambda and mu of n <= 14."""
    for lam in partitions_desc(n):
        got = dict(to_monomial(SymmetricFunction(n, "p", {lam: 1})).terms)
        assert got == {mu: c for mu in partitions_desc(n) if (c := p_to_m_reference(lam, mu))}


def test_routes_agree_on_trees():
    for n in range(1, 10):
        for t in enumerate_free_trees(n):
            assert csf_monomial(t).terms == monomial_by_stable_partitions(t).terms


@pytest.mark.parametrize("n", range(1, 8))
def test_complete_graphs(n):
    """X_{K_n} = n! e_n: [p_lambda] = (-1)^(n - l(lambda)) n!/z_lambda, with
    z_lambda = prod(lambda) * prod m_i(lambda)!, and csf_monomial is
    n! m_(1^n)."""
    g = Graph(n, tuple(itertools.combinations(range(n), 2)))
    z = {lam: math.prod(lam) * mult_factorial(lam) for lam in partitions_desc(n)}
    want = {lam: (-1) ** (n - len(lam)) * math.factorial(n) // z[lam] for lam in z}
    assert dict(csf_powersum(g).terms) == want
    assert dict(csf_monomial(g).terms) == {(1,) * n: math.factorial(n)}


def test_powersum_terms_count_acyclic_orientations():
    """The identity the sweep's pruning rests on: X_G is a sum over the
    broken-circuit-free edge sets, one per acyclic orientation, so every
    [p_lambda] has sign (-1)^(n - l(lambda)) and their absolute values add
    up to the number of acyclic orientations."""
    rng = random.Random(2401)
    for _ in range(60):
        n = rng.randint(1, 7)
        pool = list(itertools.combinations(range(n), 2))
        g = Graph(n, tuple(rng.sample(pool, rng.randint(0, min(len(pool), 12)))))
        terms = csf_powersum(g).terms
        assert all(c * (-1) ** (n - len(lam)) > 0 for lam, c in terms)
        assert sum(abs(c) for _, c in terms) == acyclic_orientations(g)


def test_routes_agree_on_cycles_and_random_graphs():
    rng = random.Random(1207)
    graphs = [_cycle(4), _cycle(5), _cycle(6)]
    for n in (5, 6, 7):
        pool = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, tuple(rng.sample(pool, rng.randint(0, min(len(pool), 12))))))
    for g in graphs:
        assert to_monomial(csf_powersum(g)).terms == monomial_by_stable_partitions(g).terms


def test_to_monomial_rejects_monomial_input():
    with pytest.raises(GraphError, match="to_monomial supports basis 'p', not 'm'"):
        to_monomial(csf_monomial(gen_path(3)))


# ------------------------------------------------------------ specialization

def test_evaluate_ones_counts_colorings():
    rng = random.Random(406)
    graphs = [gen_path(4), gen_star(5), _cycle(4), _cycle(5), Graph(3)]
    for n in (4, 5):
        pool = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, tuple(rng.sample(pool, rng.randint(0, len(pool))))))
    for g in graphs:
        fm, fp = csf_monomial(g), csf_powersum(g)
        for r in range(4):
            want = coloring_count(g, r)
            assert evaluate_ones(fm, r) == want
            assert evaluate_ones(fp, r) == want


def test_evaluate_ones_tree_closed_form():
    for n in range(2, 9):
        for t in enumerate_free_trees(n):
            f = csf_monomial(t)
            for r in range(1, 6):
                assert evaluate_ones(f, r) == r * (r - 1) ** (n - 1)


def test_evaluate_ones_rejects_bad_r():
    f = csf_monomial(gen_path(3))
    with pytest.raises(GraphError, match="r must be a non-negative integer, got -1"):
        evaluate_ones(f, -1)
    with pytest.raises(GraphError, match=r"r must be a non-negative integer, got 2\.0"):
        evaluate_ones(f, 2.0)


# -------------------------------------------------------------------- extras

def test_stable_partitions_wrapper():
    parts = list(stable_partitions(gen_path(2)))
    assert parts == [((0,), (1,))]
    with pytest.raises(GraphError, match="stable_partitions needs n >= 1"):
        stable_partitions(Graph(0))


def test_max_block_from_csf():
    assert max_block_from_csf(csf_monomial(gen_star(4))) == 3
    assert max_block_from_csf(csf_monomial(gen_path(7))) == 4
    assert max_block_from_csf(csf_powersum(gen_path(3))) == 2
    with pytest.raises(GraphError, match="unknown basis"):
        SymmetricFunction(3, "am", {(1, 1, 1): 1})
    with pytest.raises(GraphError, match="empty symmetric function"):
        max_block_from_csf(SymmetricFunction(3, "m", {}))
    with pytest.raises(GraphError, match="every hook coefficient is zero"):
        max_block_from_csf(SymmetricFunction(4, "p", {(2, 2): 1, (4,): -1}))  # 2*m[2,2]


def test_max_block_from_hooks_matches_monomial_support():
    graphs = [t for n in range(1, 10) for t in enumerate_free_trees(n)]
    graphs += [_cycle(4), _cycle(5), _cycle(6), Graph(3), Graph(5, ((0, 1), (2, 3)))]
    rng = random.Random(5)
    for n in (5, 6, 7):
        pool = list(itertools.combinations(range(n), 2))
        graphs.append(Graph(n, tuple(rng.sample(pool, rng.randint(0, 12)))))
    for g in graphs:
        want = max_block_from_csf(monomial_by_stable_partitions(g))
        assert max_block_from_csf(csf_powersum(g)) == want


def test_csf_equal():
    p6 = gen_path(6)
    relabeled = Graph(6, tuple((5 - u, 5 - v) for u, v in p6.edges))
    assert csf_equal(p6, relabeled)
    assert not csf_equal(p6, gen_star(6))
    assert not csf_equal(gen_path(5), gen_path(6))
    assert csf_equal(_cycle(5), Graph(5, ((0, 2), (2, 4), (4, 1), (1, 3), (3, 0))))
    assert not csf_equal(_cycle(4), gen_path(4))


def test_json_round_trip():
    for f in (csf_monomial(gen_path(4)), csf_powersum(gen_star(5))):
        d = symfunc_to_json_dict(f)
        terms = [(tuple(t["partition"]), t["coeff"]) for t in d["terms"]]
        assert SymmetricFunction(d["n"], d["basis"], terms) == f
        assert all(isinstance(t["coeff"], int) for t in d["terms"])


def test_pretty():
    assert pretty(csf_monomial(gen_path(3))) == "m[2,1] + 6*m[1,1,1]"
    assert pretty(csf_powersum(gen_path(2))) == "-p[2] + p[1,1]"
    assert pretty(SymmetricFunction(2, "m", {})) == "0"
