import itertools
import random
import time

import pytest

from _oracles import free_tree_codes_reference, prufer_tree
from csftrees import generators
from csftrees.errors import CapExceededError, GraphError, InternalError
from csftrees.generators import (
    BUILD_MAX_VERTICES,
    Gluing,
    SpiderSpec,
    StarConnectionSpec,
    enumerate_free_trees,
    gen_path,
    gen_spider,
    gen_star,
    gen_star_connection,
)
from csftrees.graphs import _centers, adjacency, canonical_code, degrees

# A000055: free trees on n vertices, n = 1..18
FREE_TREE_COUNTS = [
    1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159, 7741, 19320, 48629, 123867,
]


def test_gen_path():
    assert gen_path(1).n == 1
    t = gen_path(4)
    assert t.edges == ((0, 1), (1, 2), (2, 3))
    with pytest.raises(GraphError):
        gen_path(0)


def test_gen_star():
    t = gen_star(5)
    assert t.edges == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert degrees(t) == [4, 1, 1, 1, 1]
    assert gen_star(2).n == 2
    with pytest.raises(GraphError):
        gen_star(1)


def test_spider_spec():
    spec = SpiderSpec((2, 2, 2))
    assert spec.num_vertices == 7
    assert SpiderSpec((3, 1, 1)).legs == (3, 1, 1)
    for bad in [(2, 2), (2, 2, 0), (2, 2, "x"), (2, 2, True), (2, 2, 1.0)]:
        with pytest.raises(GraphError):
            SpiderSpec(tuple(bad))


def test_gen_spider_shape():
    t = gen_spider(SpiderSpec((3, 2, 1)))
    assert t.n == 7
    deg = degrees(t)
    assert deg[0] == 3
    assert deg.count(1) == 3  # one tip per leg
    # spiders have exactly one vertex of degree > 2
    assert sum(1 for d in deg if d > 2) == 1
    assert gen_spider((2, 2, 2)).n == 7  # raw sequences accepted


@pytest.mark.parametrize(
    "n,count", zip(range(4, 15), [1, 2, 4, 7, 11, 17, 25, 36, 50, 70, 94])
)
def test_spiders_list_every_spider_once(n, count):
    """The spiders on n vertices are the trees with exactly one vertex of
    degree >= 3; _spiders lists each once, by legs in descending order."""
    specs = list(generators._spiders(n))
    expected = sorted(
        canonical_code(t)
        for t in enumerate_free_trees(n)
        if sum(d >= 3 for d in degrees(t)) == 1
    )
    assert sorted(canonical_code(gen_spider(spec)) for spec in specs) == expected
    assert len(expected) == count
    assert [spec.legs for spec in specs] == sorted((spec.legs for spec in specs), reverse=True)


def test_star_connection_example_chain():
    spec = StarConnectionSpec(
        (4, 5, 3, 4), (Gluing((0, 1)), Gluing((1, 2)), Gluing((2, 3)))
    )
    t = gen_star_connection(spec)
    assert t.n == spec.num_vertices == 13
    deg = degrees(t)
    assert deg[:4] == [3, 4, 2, 3]  # centers: size - 1
    assert deg[4:7] == [2, 2, 2]  # the three gluing vertices
    assert all(d == 1 for d in deg[7:])


def test_star_connection_bouquet():
    spec = StarConnectionSpec((3, 3, 3), (Gluing((0, 1, 2)),))
    t = gen_star_connection(spec)
    assert t.n == spec.num_vertices == 7
    assert degrees(t)[3] == 3  # the shared vertex sees all three centers


def test_star_connection_slots():
    with pytest.raises(GraphError, match="gluing 2: star 0 has no free leaf slot"):
        gen_star_connection(
            StarConnectionSpec(
                (3, 3, 3, 3),
                (Gluing((0, 1)), Gluing((0, 2)), Gluing((0, 3))),
            )
        )
    text = '{"stars": [4, 4], "gluings": [{"stars": [0, 1], "slots": [2, 0]}]}'
    with pytest.raises(GraphError, match="slots"):
        StarConnectionSpec.from_json(text)


def test_star_connection_structure_errors():
    with pytest.raises(GraphError, match="r >= 2"):
        StarConnectionSpec((4,), ())
    with pytest.raises(GraphError, match=">= 3"):
        StarConnectionSpec((4, 2), (Gluing((0, 1)),))
    with pytest.raises(GraphError, match="references star"):
        StarConnectionSpec((3, 3), (Gluing((0, 2)),))
    with pytest.raises(GraphError, match="at least 2 stars"):
        Gluing((0,))
    with pytest.raises(GraphError, match="twice"):
        Gluing((1, 1))
    with pytest.raises(GraphError, match="share 2"):
        gen_star_connection(
            StarConnectionSpec((4, 4), (Gluing((0, 1)), Gluing((0, 1))))
        )
    with pytest.raises(GraphError, match="cycle"):
        gen_star_connection(
            StarConnectionSpec(
                (4, 4, 4), (Gluing((0, 1)), Gluing((1, 2)), Gluing((2, 0)))
            )
        )
    with pytest.raises(GraphError, match="not connected"):
        gen_star_connection(
            StarConnectionSpec((3, 3, 3, 3), (Gluing((0, 1)), Gluing((2, 3))))
        )


@pytest.mark.parametrize(
    "sizes,gluings,msg",
    [
        # share + not connected
        ((4, 4, 3), ((0, 1), (0, 1)), "stars 0 and 1 share 2 vertices (at most 1 allowed)"),
        # cycle + not connected
        ((4, 4, 4, 3), ((0, 1), (1, 2), (2, 0)), "gluing structure contains a cycle"),
        # two shared pairs: the smaller pair is named, whatever the gluing order
        ((5, 5, 5, 5), ((2, 3), (3, 2), (0, 1), (1, 0), (1, 2)),
         "stars 0 and 1 share 2 vertices (at most 1 allowed)"),
        ((5, 5), ((0, 1), (0, 1), (1, 0)), "stars 0 and 1 share 3 vertices (at most 1 allowed)"),
        # a pair shared through a three-star gluing
        ((4, 4, 4), ((0, 1, 2), (2, 0)), "stars 0 and 2 share 2 vertices (at most 1 allowed)"),
        # a cycle through a three-star gluing, no pair shared twice
        ((4, 4, 4, 4), ((0, 1, 2), (2, 3), (3, 1)), "gluing structure contains a cycle"),
        # out of leaf slots + cycle: the slot check runs while edges are built
        ((3, 3, 3), ((0, 1), (1, 2), (2, 0), (0, 2)),
         "gluing 3: star 0 has no free leaf slot left"),
    ],
)
def test_star_connection_message_precedence(sizes, gluings, msg):
    spec = StarConnectionSpec(sizes, tuple(Gluing(g) for g in gluings))
    with pytest.raises(GraphError) as exc:
        gen_star_connection(spec)
    assert str(exc.value) == msg


@pytest.mark.parametrize(
    "spec",
    [
        # 3,333 S_3's in one gluing plus the gluing (0, 1): only stars 0 and 1
        # are in two gluings, so the share search looks at one pair, not 5.5
        # million
        StarConnectionSpec((3,) * 3333, (Gluing(tuple(range(3333))), Gluing((0, 1)))),
        # 4,999 S_3's in two gluings that each hold every star: the search
        # stops at star 0, not after counting 2 x 12.5 million pairs
        StarConnectionSpec((3,) * 4999, (Gluing(tuple(range(4999))),) * 2),
    ],
    ids=["one_shared_pair", "every_pair_shared"],
)
def test_share_search_skips_stars_in_one_gluing(spec):
    start = time.perf_counter()
    with pytest.raises(GraphError) as exc:
        gen_star_connection(spec)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == "stars 0 and 1 share 2 vertices (at most 1 allowed)"


def test_build_cap():
    """The cap admits exactly BUILD_MAX_VERTICES vertices."""
    legs = (BUILD_MAX_VERTICES // 3,) * 3  # 1 + 3 * 3333 = 10000 vertices
    assert gen_spider(legs).n == BUILD_MAX_VERTICES
    with pytest.raises(CapExceededError, match="spider capped at 10000 vertices, got 10001"):
        gen_spider(legs[:2] + (legs[2] + 1,))
    glued = (Gluing((0, 1)),)
    assert gen_star_connection(StarConnectionSpec((3, 9998), glued)).n == BUILD_MAX_VERTICES
    with pytest.raises(CapExceededError, match="star connection capped at 10000 vertices, got 10001"):
        gen_star_connection(StarConnectionSpec((3, 9999), glued))


def test_star_connection_json():
    text = '{"stars":[4,5,3,4],"gluings":[{"stars":[0,1]},{"stars":[1,2]},{"stars":[2,3]}]}'
    spec = StarConnectionSpec.from_json(text)
    assert spec.star_sizes == (4, 5, 3, 4)
    assert spec.gluings == (Gluing((0, 1)), Gluing((1, 2)), Gluing((2, 3)))
    for bad in [
        "[]",
        '{"stars": [3, 3]}',
        '{"stars": [3,3], "gluings": [{"at": [0,1]}]}',
        "[" * 100_000 + "]" * 100_000,
    ]:
        with pytest.raises(GraphError):
            StarConnectionSpec.from_json(bad)
    for bad in ['{"stars": 3, "gluings": []}', '{"stars": [3, 3], "gluings": {}}']:
        with pytest.raises(GraphError, match='"stars" and "gluings" must be lists'):
            StarConnectionSpec.from_json(bad)


def test_prufer_tree():
    assert prufer_tree(()).edges == ((0, 1),)
    assert prufer_tree((0,)).edges == ((0, 1), (0, 2))
    assert prufer_tree((3, 3, 3)).edges == ((0, 3), (1, 3), (2, 3), (3, 4))
    with pytest.raises(GraphError):
        prufer_tree((5,))


@pytest.mark.parametrize("n", range(1, 17))
def test_enumerate_counts(n):
    trees = enumerate_free_trees(n)
    assert len(trees) == FREE_TREE_COUNTS[n - 1]
    codes = [canonical_code(t) for t in trees]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(trees)


@pytest.mark.parametrize("n", [17, 18])
def test_enumeration_walk_counts_up_to_the_cap(n):
    # enumerate_free_trees keeps one tree per level sequence of this walk
    # (a repeated code is an InternalError); coding and building 123,867
    # trees would take 13 s, the walk alone takes 0.5 s
    assert n <= generators.ENUM_MAX_N
    assert sum(1 for _ in generators._free_tree_level_sequences(n)) == FREE_TREE_COUNTS[n - 1]


def test_enumerate_matches_prufer_classes():
    """The level-sequence enumerator and Prüfer decoding agree exactly."""
    for n in range(3, 8):
        via_prufer = {
            canonical_code(prufer_tree(seq))
            for seq in itertools.product(range(n), repeat=n - 2)
        }
        via_enum = {canonical_code(t) for t in enumerate_free_trees(n)}
        assert via_enum == via_prufer


@pytest.mark.parametrize("n", range(1, 15))
def test_enumerate_matches_the_rooted_sequence_route(n):
    """WROM and the dedup of all rooted level sequences give the same trees
    in the same order."""
    assert [canonical_code(t) for t in enumerate_free_trees(n)] == free_tree_codes_reference(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_enumeration_codes_one_sequence_per_tree(monkeypatch, n):
    coded = []
    real = generators._row_code

    def code(row):
        coded.append(row)
        return real(row)

    monkeypatch.setattr(generators, "_row_code", code)
    assert len(generators._free_tree_edge_sets(n)) == len(coded) == FREE_TREE_COUNTS[n - 1]


def test_enumeration_rows_are_n_bytes():
    # a row holds parent indices below n <= ENUM_MAX_N, so each fits a byte
    assert generators.ENUM_MAX_N < 256
    for n in range(1, 13):
        for row in generators._free_tree_edge_sets(n):
            assert type(row) is bytes and len(row) == n


def test_representatives_are_rooted_at_a_center():
    for n in range(1, 12):
        for t in enumerate_free_trees(n):
            assert 0 in _centers(t.n, adjacency(t))


def test_enumerate_rejects_a_repeated_code(monkeypatch):
    sequences = generators._free_tree_level_sequences

    def twice(n):
        for s in sequences(n):
            yield s
            yield s

    monkeypatch.setattr(generators, "_free_tree_level_sequences", twice)
    with pytest.raises(InternalError, match="twice at n = 6"):
        generators._free_tree_edge_sets(6)


def test_enumerate_bounds(monkeypatch):
    with pytest.raises(GraphError):
        enumerate_free_trees(0)

    def no_enumeration(n):
        raise AssertionError(f"enumerated n = {n} before the cap check")

    # the checks run on the rows, so the row list and the Trees share them
    monkeypatch.setattr(generators, "_free_tree_level_sequences", no_enumeration)
    for enumerate_n in (enumerate_free_trees, generators._free_tree_edge_sets):
        with pytest.raises(GraphError, match="positive integer, got 0"):
            enumerate_n(0)
        with pytest.raises(CapExceededError, match="n <= 18, got 19"):
            enumerate_n(19)


def test_enumerate_shapes_present():
    """Paths and stars always appear among the representatives."""
    for n in range(2, 10):
        codes = {canonical_code(t) for t in enumerate_free_trees(n)}
        assert canonical_code(gen_path(n)) in codes
        if n >= 2:
            assert canonical_code(gen_star(n)) in codes


def test_spider_random_shapes():
    rng = random.Random(5)
    for _ in range(20):
        legs = tuple(rng.randint(1, 4) for _ in range(rng.randint(3, 5)))
        t = gen_spider(SpiderSpec(legs))
        assert t.n == 1 + sum(legs)
        deg = degrees(t)
        assert deg[0] == len(legs) > 2
        if all(x == legs[0] for x in legs):
            assert _centers(t.n, adjacency(t)) == [0]
