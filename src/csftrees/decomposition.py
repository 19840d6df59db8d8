"""Leaf decomposition, the rho statistic, and independence numbers.

The decomposition peels a tree level by level, every level by one rule:
in the current forest F_i each vertex of degree 1 goes to the b-side and
its neighbor to the eta-side, except that a two-vertex component (both
endpoints leaves, so counting both as b would double-count it) puts only
its smaller id in b and the other in eta. The level is removed and the
peeling repeats. The last level is the one where no vertex of F_i has
degree 2 or more: its isolated vertices go to b as well, and terminal_alpha
is twice its eta count (the degree-1 vertices of that forest). With that
rule the level vertex sets partition V, every level has b_i >= eta_i, and
the greedy witness (all b-vertices) is a maximum independent set:
sum(b_i) = alpha(T) for every tree, which the survey checks against
deg i(T; x) on every tree and the tests against alpha_mis.

Each level reads only its frontier: the alive vertices of degree 1 and of
degree 0. Every vertex of degree 1 leaves on its own level (to b, or to
eta as the larger id of a two-vertex component), and a vertex of degree 0
never changes, so the next level's leaves are among the vertices whose
degree just fell: the neighbors of eta left alive. A level is the last one
exactly when its frontier holds every alive vertex. Each vertex and edge
is touched a bounded number of times, so the peel costs O(n log n), the
log from sorting each level's vertex tuples.

rho = n - b_1 - eta_1 uses the first level only; its vertex set V(rho) is
everything that is neither a leaf nor a leaf-neighbor, and is_path reports
whether the induced subgraph is a path (vacuously true for rho <= 1).  The
peel answers it on the way: after the first level the alive vertices are
V(rho) and their neighbor sets its induced adjacency, a forest, so it is a
path iff its degrees sum to 2(rho - 1) with none above 2.

Two exact invariants of the chromatic symmetric function come from one
children-first pass (_independence_and_splits): the independence
polynomial i(T; x), since [m_(k,1^(n-k))] X_T = (n-k)! i_k, and the sorted
edge splits min(s, n - s), since [p_(n-a,a)] X_T = (-1)^n times the number
of edges whose removal leaves sides of sizes a and n - a.  Trees that
differ in either have different X; the survey runs the full tree DP only
where both tie.  The degree of i(T; x) is alpha(T), the survey's check on
the peel's sum(b_i).

leaf_decomposition and rho_data take a Tree and are thin entries over
_peel, which takes only an edge list; _independence_and_splits, like the
tree DP and alpha_mis, takes a row (see graphs), so the survey runs the
same folds on its rows without building Trees.
theorems._facts folds the checkers' facts from one _peel.
"""

from __future__ import annotations

from operator import ge

from .errors import GraphError
from .graphs import Graph, Record, Tree, forest_walk


class LeafLevel(Record):
    __slots__ = ("b", "eta", "leaf_vertices", "neighbor_vertices")


class LeafDecomposition(Record):
    __slots__ = ("levels", "terminal_alpha")

    def level_counts(self) -> tuple[tuple[int, int], ...]:
        return tuple((lvl.b, lvl.eta) for lvl in self.levels)


def leaf_decomposition(t: Tree) -> LeafDecomposition:
    """The levels of t, each with its vertices (see _peel)."""
    levels, last, _ = _peel(t.n, t.edges)
    return LeafDecomposition(
        tuple(
            LeafLevel(len(b), len(eta), tuple(sorted(b)), tuple(sorted(eta))) for b, eta in levels
        ),
        2 * len(levels[-1][1]) if last else 0,
    )


def _peel(n: int, edges) -> tuple[list[tuple[list[int], set[int]]], bool, bool]:
    """The levels of the tree on 0..n-1 with these edges (read once), as
    (b-vertices, eta-vertices), peeled from neighbor sets; each level reads
    only its frontier (see the module docstring).  Also whether the final
    level met the last-level rule (its frontier held every alive vertex),
    which is when terminal_alpha counts its eta-vertices, and whether V(rho)
    induces a path, read once the first level is removed."""
    adjsets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adjsets[u].add(v)
        adjsets[v].add(u)
    alive = n
    leaves = [v for v in range(alive) if len(adjsets[v]) == 1]
    isolated = [v for v in range(alive) if not adjsets[v]]
    levels = []
    is_path = None
    while alive:
        last = len(leaves) + len(isolated) == alive
        b, eta = [], set()
        for v in leaves:
            (u,) = adjsets[v]
            if v < u or len(adjsets[u]) > 1:  # a two-vertex component: smaller id to b
                b.append(v)
                eta.add(u)
        if last:
            b += isolated
        levels.append((b, eta))
        removed = eta.union(b)
        alive -= len(removed)
        # A b-vertex's one neighbor is in eta, so every alive vertex that
        # loses a neighbor is a neighbor of eta.
        touched = set()
        for u in eta:
            for w in adjsets[u]:
                if w not in removed:
                    adjsets[w].discard(u)
                    touched.add(w)
        leaves = [w for w in touched if len(adjsets[w]) == 1]
        isolated += [w for w in touched if not adjsets[w]]
        if is_path is None:
            # The alive vertices are V(rho) and their sets its induced
            # adjacency, a forest: a path iff rho - 1 edges, no degree above 2.
            inside = [len(adjsets[v]) for v in range(n) if v not in removed]
            is_path = len(inside) <= 1 or (
                sum(inside) == 2 * len(inside) - 2 and max(inside) <= 2
            )
    return levels, last, is_path


def padded_levels(s1, s2) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Both (b, eta) sequences extended with (0, 0) levels to equal length."""
    r = max(len(s1), len(s2), 1)
    return list(s1) + [(0, 0)] * (r - len(s1)), list(s2) + [(0, 0)] * (r - len(s2))


class RhoData(Record):
    __slots__ = ("rho", "rho_vertices", "is_path")


def rho_data(t: Tree) -> RhoData:
    """rho and V(rho) of t, from the first level of its peel."""
    levels, _, is_path = _peel(t.n, t.edges)
    b1, eta1 = levels[0]
    peeled = eta1.union(b1)
    rest = tuple(v for v in range(t.n) if v not in peeled)
    return RhoData(len(rest), rest, is_path)


def alpha_mis(g: Graph) -> int:
    """Independence number of a forest by an include/exclude DP over its
    row (graphs.forest_walk), summed over the roots (their own parents)."""
    row = forest_walk(g)
    if row is None:
        raise GraphError("alpha_mis needs an acyclic graph")
    n = len(row)
    take = [1] * n
    skip = [0] * n
    for v in range(n - 1, -1, -1):
        p = row[v]
        if p != v:
            take[p] += skip[v]
            skip[p] += max(take[v], skip[v])
    return sum(max(take[v], skip[v]) for v in range(n) if row[v] == v)


def _independence_and_splits(row) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(i_0, i_1, ..., i_alpha), where i_k counts the independent k-sets,
    and the sizes min(s, n - s) of the smaller side of every edge,
    ascending, of the tree whose row this is (row[v] < v the parent of
    vertex v >= 1, vertex 0 the root).

    Each vertex keeps two polynomials of its subtree: `take` over the
    independent sets that contain it and `skip` over those that avoid it.
    In reverse order each vertex is final when it is reached and folds into
    its parent: the parent's take gains the factor skip, its skip the
    factor take + skip.  A polynomial is packed one coefficient per n-bit
    field of an int, so a product is one int multiplication: every
    coefficient counts k-sets of at most n vertices, so it stays below 2^n
    and never carries into the next field.  Removing the edge above a
    vertex leaves its subtree on one side."""
    n = len(row)
    x = 1 << n
    take = [x] * n
    skip = [1] * n
    size = [1] * n
    splits = []
    for v in range(n - 1, 0, -1):
        p = row[v]
        take[p] *= skip[v]
        skip[p] *= take[v] + skip[v]
        size[p] += size[v]
        splits.append(min(size[v], n - size[v]))
    mask = x - 1
    poly, coeffs = take[0] + skip[0], []
    while poly:
        coeffs.append(poly & mask)
        poly >>= n
    splits.sort()
    return tuple(coeffs), tuple(splits)


def chain_sequence(levels) -> tuple[int, ...]:
    """b_1, eta_1, b_2, eta_2, ... flattened, from the (b, eta) level counts
    (LeafDecomposition.level_counts(), TreeFacts.levels)."""
    return tuple(x for level in levels for x in level)


def chain_holds(levels) -> bool:
    """Whether b_1 >= eta_1 >= b_2 >= eta_2 >= ... (audited, not assumed)."""
    seq = chain_sequence(levels)
    return all(map(ge, seq, seq[1:]))


def decomposition_to_json_dict(d: LeafDecomposition) -> dict:
    return {
        "levels": [{"b": lvl.b, "eta": lvl.eta} for lvl in d.levels],
        "alpha_correction": d.terminal_alpha,
    }
