import copy
import itertools
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ahu_code_reference, prufer_tree, relabel
from csftrees.errors import GraphError
from csftrees.generators import (
    Gluing,
    SpiderSpec,
    StarConnectionSpec,
    _free_tree_edge_sets,
    enumerate_free_trees,
    gen_path,
    gen_spider,
    gen_star,
)
from csftrees.graphs import (
    Graph,
    Tree,
    _centers,
    _walk_row,
    adjacency,
    canonical_code,
    degrees,
    forest_walk,
    parse_edge_list,
    serialize,
    trees_isomorphic,
)
from csftrees.symfunc import SymmetricFunction


def test_graph_normalizes_edges():
    g = Graph(4, ((2, 1), (0, 3), (3, 1)))
    assert g.edges == ((0, 3), (1, 2), (1, 3))
    assert g.num_edges == 3
    assert Graph(4, ((1, 2), (3, 0), (1, 3))) == g


@pytest.mark.parametrize(
    "n,edges,msg",
    [
        (3, ((0, 0),), "loop"),
        (3, ((0, 1), (1, 0)), "duplicate"),
        (3, ((0, 3),), "outside"),
        (3, ((0, 1.0),), "non-integer"),
        (3, ((0,),), "not a pair"),
        (-1, (), "non-negative"),
        (3, ((0, True),), "non-integer"),
        (3, ((True, 2),), "non-integer"),
    ],
)
def test_graph_rejects(n, edges, msg):
    with pytest.raises(GraphError, match=msg):
        Graph(n, edges)


@pytest.mark.parametrize(
    "make,args,msg",
    [
        (Graph, (3, 5), "Graph edges must be iterable"),
        (Tree, (3, None), "Tree edges must be iterable"),
        (SpiderSpec, (5,), "SpiderSpec legs must be iterable"),
        (Gluing, (5,), "Gluing stars must be iterable"),
        (StarConnectionSpec, (5, ()), "StarConnectionSpec star_sizes must be iterable"),
        (StarConnectionSpec, ((3, 3), [(0, 1)]), "StarConnectionSpec gluings must be Gluing"),
        (SymmetricFunction, (2, "m", 5), "SymmetricFunction terms must be iterable"),
        (SymmetricFunction, (2, "m", [(2, 1)]), r"term \(2, 1\) is not a \(partition"),
        (SymmetricFunction, (2, "m", [((2,),)]), r"not a \(partition, coefficient\) pair"),
    ],
)
def test_value_types_reject_malformed_containers(make, args, msg):
    """A field that is not a container of the right kind is bad input, so
    a GraphError naming it, not a TypeError, ValueError or AttributeError."""
    with pytest.raises(GraphError, match=msg):
        make(*args)


@pytest.mark.parametrize(
    "make,args,kwargs,error,words",
    [
        (Graph, ("9" * 10**4, []), {}, GraphError, "vertex count must be"),
        (Graph, (3, [(0, "x" * 10**5)]), {}, GraphError, "non-integer"),
        (Graph, (3, [tuple(range(30000))]), {}, GraphError, "not a pair"),
        (SymmetricFunction, (2, "b" * 10**4, ()), {}, GraphError, "unknown basis"),
        (SymmetricFunction, ("9" * 10**4, "m", ()), {}, GraphError, "weight must be"),
        (SymmetricFunction, (2, "m", ["t" * 10**4]), {}, GraphError,
         r"is not a \(partition, coefficient\) pair"),
        (SymmetricFunction, (2, "m", [(("x",) * 10**4, 1)]), {}, GraphError, "non-integer part"),
        (StarConnectionSpec, ((3, 3), ["g" * 10**4]), {}, GraphError, "must be Gluing values"),
        (_free_tree_edge_sets, ("9" * 10**4,), {}, GraphError, "tree order must be"),
        (Graph, (), {"k" * 10**4: 1}, TypeError, "unexpected or repeated field"),
    ],
    ids=["graph-n", "graph-endpoint", "graph-edge", "sf-basis", "sf-weight", "sf-term",
         "sf-partition", "starconn-gluing", "enumerate-n", "record-keyword"],
)
def test_constructor_messages_echo_a_bounded_prefix_of_the_input(make, args, kwargs, error, words):
    """A library constructor given a huge value keeps its error type and
    wording, and quotes at most a clipped prefix of the value."""
    with pytest.raises(error, match=words) as exc:
        make(*args, **kwargs)
    assert len(str(exc.value)) <= 200


def test_tree_validation():
    Tree(1)
    Tree(2, ((0, 1),))
    with pytest.raises(GraphError, match="at least one vertex"):
        Tree(0)
    with pytest.raises(GraphError, match="3 edges"):
        Tree(4, ((0, 1), (1, 2)))
    with pytest.raises(GraphError, match="not connected"):
        Tree(4, ((0, 1), (1, 2), (0, 2)))  # triangle + isolated vertex


def test_tree_is_a_graph():
    """A Tree adds no field, stays frozen, and runs Graph's checks first."""
    t = Tree(3, ((2, 1), (1, 0)))
    assert isinstance(t, Graph) and Tree._fields == Graph._fields == ("n", "edges")
    assert t.edges == ((0, 1), (1, 2))
    assert t != Graph(3, t.edges)  # record equality compares the class too
    with pytest.raises(AttributeError):
        t.n = 4
    with pytest.raises(GraphError, match="outside 0..-1"):
        Tree(0, ((0, 1),))  # Graph's check, before "at least one vertex"


def test_records_are_frozen_values():
    """Every record type: keyword construction and defaults, frozen slots,
    equality and hash by class and fields, Class(field=value) repr, and
    copies rebuilt through the constructor."""
    from csftrees.generators import SpiderSpec
    from csftrees.theorems import SurveyReport, TheoremVerdict

    v = TheoremVerdict("SUMMED", "NotApplicable", detail="x")
    assert (v.case_id, v.m1, v.m2, v.swapped) == (None, None, None, False)
    assert v == TheoremVerdict(theorem_id="SUMMED", status="NotApplicable", detail="x")
    assert hash(v) == hash(TheoremVerdict("SUMMED", "NotApplicable", None, None, None, False, "x"))
    assert v != TheoremVerdict("SUMMED", "NotApplicable")
    assert repr(v) == ("TheoremVerdict(theorem_id='SUMMED', status='NotApplicable', "
                       "case_id=None, m1=None, m2=None, swapped=False, detail='x')")
    with pytest.raises(AttributeError):
        v.extra = 1
    with pytest.raises(AttributeError):
        del v.status
    spec = SpiderSpec(legs=[2, 1, 1])  # the inherited __init__, then __post_init__
    assert spec == SpiderSpec((2, 1, 1)) and spec.legs == (2, 1, 1)
    assert repr(spec) == "SpiderSpec(legs=(2, 1, 1))"
    for args, kwargs in (((), {}), (((1, 1, 1), 2), {}), (((1, 1, 1),), {"legs": (1, 1, 1)}),
                         ((), {"stars": (1, 1, 1)})):
        with pytest.raises(TypeError):  # missing, extra, repeated, unknown
            SpiderSpec(*args, **kwargs)
    fields = dict(n=4, num_trees=2, pairs=1, x_equal_pairs=0,
                  soundness_violations=(), verdict_counts={}, chain_audit_violations=(),
                  spider_audit=(), star_audit=())
    a = SurveyReport(**fields, pair_rows=lambda: iter(["0,1"]))
    b = SurveyReport(**fields, pair_rows=list)
    assert a == b and "pair_rows" not in repr(a)  # pair_rows stays out of both
    t = Tree(3, ((0, 1), (1, 2)))
    for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(clone) is Tree and clone == t and hash(clone) == hash(t)


def test_degrees_adjacency_components():
    g = Graph(5, ((0, 1), (1, 2)))
    assert degrees(g) == [1, 2, 1, 0, 0]
    assert adjacency(g) == [[1], [0, 2], [1], [], []]
    # a forest's row: each component breadth-first from its smallest
    # vertex, which is its own parent, relabeled in visiting order
    assert forest_walk(g) == [0, 0, 1, 3, 4]
    # visits 0, 4, 2, then 1, 3, 5
    assert forest_walk(Graph(6, ((0, 4), (1, 3), (3, 5), (4, 2)))) == [0, 0, 1, 3, 3, 4]
    assert forest_walk(Graph(3, ((0, 1), (1, 2), (0, 2)))) is None  # a triangle
    assert forest_walk(Graph(5, ((0, 1), (1, 2), (0, 2), (3, 4)))) is None
    # a triangle and two isolated vertices: |E| < n, caught by the count
    assert forest_walk(Graph(5, ((0, 1), (1, 2), (0, 2)))) is None
    assert forest_walk(Graph(1)) == [0]
    assert forest_walk(Graph(0)) == []


@st.composite
def _shuffled_graphs(draw):
    """A random simple graph on n <= 12 vertices whose edges come in a
    random order, each pair in a random orientation."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))]
    return n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]


@settings(max_examples=200, deadline=None)
@given(_shuffled_graphs())
def test_adjacency_lists_ascend_for_any_edge_order(drawn):
    """adjacency does not sort: each list ascends because Graph sorts its
    edges, whatever order and orientation they are given in."""
    n, edges = drawn
    adj = adjacency(Graph(n, edges))
    for v in range(n):
        assert adj[v] == sorted({u for e in edges for u in e if v in e and u != v})


def test_adjacency_lists_ascend_on_enumerated_trees():
    for n in range(1, 11):
        for t in enumerate_free_trees(n):
            adj = adjacency(t)
            for v in range(n):
                assert adj[v] == sorted({u for e in t.edges for u in e if v in e and u != v})


def test_walk_row_walks_the_roots_in_turn():
    adj = adjacency(Graph(6, ((0, 1), (0, 2), (2, 3), (4, 5))))
    # from 2 the walk visits 2, 0, 3, 1; root 0 is already reached and
    # skipped; from 5 it visits 5, 4
    assert _walk_row(adj, [2, 0, 5, 4]) == [0, 0, 0, 1, 4, 4]
    # only what the roots reach is walked
    assert _walk_row(adj, [5]) == [0, 0]
    assert _walk_row(adj, [3]) == [0, 0, 1, 2]  # the path 3, 2, 0, 1
    assert _walk_row(adj, []) == []


def _components_and_cycle(n: int, edges) -> tuple[int, bool]:
    """The number of components and whether there is a cycle, by union-find."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    components, cycle = n, False
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            cycle = True
        else:
            root[ru] = rv
            components -= 1
    return components, cycle


@settings(max_examples=300, deadline=None)
@given(_shuffled_graphs())
def test_forest_walk_is_a_row_exactly_on_forests(drawn):
    n, edges = drawn
    row = forest_walk(Graph(n, edges))
    components, cycle = _components_and_cycle(n, edges)
    assert (row is None) == cycle
    if row is not None:
        assert len(row) == n and all(row[i] <= i for i in range(n))
        assert sum(row[i] == i for i in range(n)) == components


def test_relabel():
    g = Graph(4, ((0, 1), (1, 2), (2, 3)))
    assert relabel(g, [3, 2, 1, 0]).edges == g.edges
    assert type(relabel(g, [3, 2, 1, 0])) is Graph
    assert type(relabel(gen_path(4), [3, 2, 1, 0])) is Tree
    with pytest.raises(GraphError):
        relabel(g, [0, 0, 1, 2])


def test_parse_edge_list_header():
    g = parse_edge_list("# comment\n\nn 5\n0 1\n\n1 2\n")
    assert g.n == 5 and g.edges == ((0, 1), (1, 2))
    assert parse_edge_list("n 999999999999999999\n").n == 10**18 - 1  # 18 digits, the most


def test_parse_edge_list_no_header_infers_n():
    g = parse_edge_list("0 1\n1 4\n")
    assert g.n == 5
    assert parse_edge_list("").n == 0
    assert parse_edge_list("# only comments\n").n == 0


@pytest.mark.parametrize(
    "text,msg",
    [
        ("0 1\nn 4\n", "first content line"),
        ("n 4 5\n", "malformed header"),
        ("n x\n", "malformed header"),
        ("n -2\n", "negative vertex count"),
        ("0 1 2\n", "expected 'u v'"),
        ("a b\n", "expected 'u v'"),
        ("0 -1\n", "negative vertex id"),
        ("2 2\n", "loop"),
        ("0 1\n1 0\n", "duplicate"),
        ("n 2\n0 5\n", "declared n"),
        ("0 \u0661\n", "expected 'u v'"),
        ("0 1_0\n", "expected 'u v'"),
        ("+0 1\n", "expected 'u v'"),
        ("n \uff13\n0 1\n", "malformed header"),
        ("n +3\n0 1\n", "malformed header"),
        ("n 1000000000000000000\n", "malformed header"),
        ("0 1000000000000000000\n", "expected 'u v'"),
    ],
)
def test_parse_edge_list_rejects(text, msg):
    with pytest.raises(GraphError, match=msg):
        parse_edge_list(text)


def test_serialize_roundtrip():
    assert serialize(Graph(0)) == "n 0\n"
    assert serialize(Graph(3, ((1, 2), (0, 1)))) == "n 3\n0 1\n1 2\n"
    rng = random.Random(11)
    for n in range(1, 9):
        for t in enumerate_free_trees(n):
            g = parse_edge_list(serialize(t))  # a Graph, so compare fields, not classes
            assert (g.n, g.edges) == (t.n, t.edges)
        # also a graph with isolated vertices
        g = Graph(n + 2, enumerate_free_trees(n)[0].edges)
        assert parse_edge_list(serialize(g)) == g
    del rng


def test_tree_center():
    for t, centers in [
        (gen_path(5), [2]),
        (gen_path(4), [1, 2]),
        (gen_star(6), [0]),
        (gen_path(1), [0]),
        (gen_path(2), [0, 1]),
    ]:
        assert _centers(t.n, adjacency(t)) == centers


def test_canonical_code_relabeling_invariant():
    """The code must not move under any vertex relabeling."""
    rng = random.Random(20240817)
    for n in range(1, 8):
        for t in enumerate_free_trees(n):
            code = canonical_code(t)
            perms = (
                list(itertools.permutations(range(n)))
                if n <= 4
                else [rng.sample(range(n), n) for _ in range(20)]
            )
            for perm in perms:
                rt = relabel(t, perm)
                assert canonical_code(rt) == code


def _assert_code_is_the_reference(t: Tree) -> None:
    assert canonical_code(t) == ahu_code_reference(t.n, adjacency(t))


def test_canonical_code_matches_the_adjacency_reference():
    """The row fold against an independent AHU fold over adjacency lists:
    every tree on up to 12 vertices under seeded relabelings, seeded
    Prüfer trees, and bicentral paths and spiders (the two-center branch)."""
    rng = random.Random(33)
    for n in range(1, 13):
        for t in enumerate_free_trees(n):
            for _ in range(5):
                _assert_code_is_the_reference(relabel(t, rng.sample(range(n), n)))
    for n in range(2, 61):
        for _ in range(5):
            _assert_code_is_the_reference(prufer_tree([rng.randrange(n) for _ in range(n - 2)]))
    for n in range(2, 61, 2):
        _assert_code_is_the_reference(relabel(gen_path(n), rng.sample(range(n), n)))
    for k in range(1, 12):
        for legs in ((k + 1, k, 1), (k + 1, k, k), (k + 2, k + 1, k, 1)):
            spider = gen_spider(legs)
            assert len(_centers(spider.n, adjacency(spider))) == 2
            _assert_code_is_the_reference(spider)
            _assert_code_is_the_reference(relabel(spider, rng.sample(range(spider.n), spider.n)))


def test_canonical_code_separates_classes():
    for n in range(1, 9):
        codes = {canonical_code(t) for t in enumerate_free_trees(n)}
        assert len(codes) == len(enumerate_free_trees(n))


def test_trees_isomorphic():
    p6 = gen_path(6)
    cat = Tree(6, ((0, 1), (1, 2), (2, 3), (2, 4), (4, 5)))
    assert not trees_isomorphic(p6, cat)
    assert trees_isomorphic(p6, relabel(p6, [5, 3, 1, 0, 2, 4]))
    assert not trees_isomorphic(gen_path(5), gen_path(6))


def test_prufer_code_classes_n6():
    """All 6^4 labeled trees on 6 vertices fall into exactly 6 classes."""
    codes = set()
    for seq in itertools.product(range(6), repeat=4):
        codes.add(canonical_code(prufer_tree(seq)))
    assert len(codes) == 6
