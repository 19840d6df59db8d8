import itertools
import math
import random
import time

from _oracles import stable_partitions_bruteforce, stable_partitions_rgs
from csftrees._kernels import edge_subset_type_counts, stable_type_counts
from csftrees.generators import gen_path, gen_star
from csftrees.graphs import Graph
from csftrees.partitions import partitions_desc


def _adjsets(g: Graph):
    out = [set() for _ in range(g.n)]
    for u, v in g.edges:
        out[u].add(v)
        out[v].add(u)
    return out


def _random_graph(rng: random.Random, n: int) -> Graph:
    pool = list(itertools.combinations(range(n), 2))
    m = rng.randint(0, len(pool))
    return Graph(n, tuple(rng.sample(pool, m)))


def test_rgs_stream_matches_bruteforce():
    """The restricted-growth stream visits every stable partition once."""
    rng = random.Random(303)
    cases = [gen_path(4), gen_star(5), Graph(3), Graph(3, ((0, 1), (1, 2), (0, 2)))]
    cases += [_random_graph(rng, n) for n in (4, 5, 5, 6)]
    for g in cases:
        got = sorted(tuple(tuple(b) for b in p) for p in stable_partitions_rgs(g.n, _adjsets(g)))
        want = sorted(
            tuple(tuple(b) for b in sorted(p)) for p in stable_partitions_bruteforce(g)
        )
        assert got == want


def test_rgs_empty_graph():
    assert list(stable_partitions_rgs(0, [])) == [()]


def test_stable_counts_match_stream():
    for g in [gen_path(6), gen_star(6), Graph(4, ((0, 1), (2, 3)))]:
        expect = dict.fromkeys(partitions_desc(g.n), 0)
        for p in stable_partitions_rgs(g.n, _adjsets(g)):
            expect[tuple(sorted((len(b) for b in p), reverse=True))] += 1
        assert list(stable_type_counts(g.n, g.edges)) == list(expect.values())


def test_stable_counts_edgeless_12():
    """Every set partition of 12 points is stable: the counts sum to
    Bell(12), and each type lambda has n! / (prod parts! * prod mult!)."""
    n = 12
    counts = stable_type_counts(n, ())
    assert sum(counts) == 4_213_597
    for parts, cnt in zip(partitions_desc(n), counts):
        denom = math.prod(math.factorial(x) for x in parts)
        denom *= math.prod(math.factorial(parts.count(x)) for x in set(parts))
        assert cnt == math.factorial(n) // denom


def test_edge_subset_counts_golden():
    # K2: empty subset -> (1,1) with +, the edge -> (2) with -
    got = edge_subset_type_counts(2, ((0, 1),))
    assert list(got) == [-1, 1]  # order: (2), (1,1)
    # P3: subsets {} (1,1,1)+, {01} (2,1)-, {12} (2,1)-, both (3)+
    got = edge_subset_type_counts(3, ((0, 1), (1, 2)))
    assert list(got) == [1, -2, 1]  # order: (3), (2,1), (1,1,1)


def test_sweep_stops_where_its_branches_cancel():
    """K_{2,2,2,2} has 24 edges but only 24,024 acyclic orientations: the
    sweep visits one leaf per orientation, well under a second, where a
    walk over all 2^24 edge subsets takes over ten."""
    edges = tuple((i, j) for i, j in itertools.combinations(range(8), 2) if j != i + 4)
    start = time.perf_counter()
    got = edge_subset_type_counts(8, edges)
    assert time.perf_counter() - start < 1.0
    assert sum(map(abs, got)) == 24024
    assert dict(zip(partitions_desc(8), got))[(1,) * 8] == 1
