"""Leaf decomposition, the rho statistic, and independence numbers.

The decomposition peels a tree level by level: level i records the leaves of
the current forest F_i (the b-side) and the vertices adjacent to a leaf (the
eta-side), removes both, and repeats. The peeling stops when the remaining
forest has maximum degree <= 1; its vertices form one final level via the
pairing correction: isolated vertices all count as b, and each surviving edge
contributes one endpoint to b and one to eta (alpha = number of degree-1
vertices in that terminal forest, always even).

The same pairing is applied to any two-vertex component that appears *inside*
an earlier level (both endpoints are leaves of F_i, but counting both as b
would double-count the component): the smaller-id endpoint goes to b, the
other to eta. With that convention the level vertex sets partition V, every
level has b_i >= eta_i, and the greedy witness (all b-vertices) is a maximum
independent set — sum(b_i) = alpha(T) for every tree, which alpha_mis
cross-checks by dynamic programming.

rho = n - b_1 - eta_1 uses the first level only; its vertex set V(rho) is
everything that is neither a leaf nor a leaf-neighbor, and is_path reports
whether the induced subgraph is a path (vacuously true for rho <= 1). Any
vertex set of a tree induces a forest, so is_path counts on the tree's edge
list: rho - 1 edges inside V(rho) and no inside degree above 2.

Two exact invariants of the chromatic symmetric function come from one
post-order pass (independence_and_splits): the independence polynomial
i(T; x), since [m_(k,1^(n-k))] X_T = (n-k)! i_k, and the sorted edge splits
min(s, n - s), since [p_(n-a,a)] X_T = (-1)^n times the number of edges whose
removal leaves sides of sizes a and n - a.  Trees that differ in either have
different X; the survey runs the full tree DP only where both tie.  The
degree of i(T; x) is alpha(T), which alpha_mis computes independently.
"""

from __future__ import annotations

from .errors import GraphError
from .graphs import Graph, Record, Tree, adjacency, bfs_order


class LeafLevel(Record):
    __slots__ = ("b", "eta", "leaf_vertices", "neighbor_vertices")


class LeafDecomposition(Record):
    __slots__ = ("levels", "terminal_alpha")

    def level_counts(self) -> tuple[tuple[int, int], ...]:
        return tuple((lvl.b, lvl.eta) for lvl in self.levels)


def leaf_decomposition(t: Tree) -> LeafDecomposition:
    """The levels of t, peeled from neighbor sets built from t.edges."""
    n = t.n
    adjsets: list[set[int]] = [set() for _ in range(n)]
    for u, v in t.edges:
        adjsets[u].add(v)
        adjsets[v].add(u)
    alive = set(range(n))
    levels: list[LeafLevel] = []
    terminal_alpha = 0
    while alive:
        maxdeg = max(len(adjsets[v]) for v in alive)
        if maxdeg <= 1:
            pairs = sorted(
                (v, next(iter(adjsets[v])))
                for v in alive
                if adjsets[v] and v < next(iter(adjsets[v]))
            )
            isolated = [v for v in alive if not adjsets[v]]
            b_set = sorted(isolated + [u for u, _ in pairs])
            eta_set = sorted(w for _, w in pairs)
            terminal_alpha = 2 * len(pairs)
            levels.append(LeafLevel(len(b_set), len(eta_set), tuple(b_set), tuple(eta_set)))
            break
        leaves = {v for v in alive if len(adjsets[v]) == 1}
        b_set, eta_set = set(), set()
        for v in leaves:
            u = next(iter(adjsets[v]))
            if u in leaves:  # two-vertex component inside this level
                b_set.add(min(u, v))
                eta_set.add(max(u, v))
            else:
                b_set.add(v)
                eta_set.add(u)
        removed = b_set | eta_set
        levels.append(
            LeafLevel(len(b_set), len(eta_set), tuple(sorted(b_set)), tuple(sorted(eta_set)))
        )
        for v in removed:
            for w in adjsets[v]:
                adjsets[w].discard(v)
            adjsets[v] = set()
        alive -= removed
    return LeafDecomposition(tuple(levels), terminal_alpha)


def padded_levels(s1, s2) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Both (b, eta) sequences extended with (0, 0) levels to equal length."""
    r = max(len(s1), len(s2), 1)
    return list(s1) + [(0, 0)] * (r - len(s1)), list(s2) + [(0, 0)] * (r - len(s2))


class RhoData(Record):
    __slots__ = ("rho", "rho_vertices", "is_path")


def rho_data(t: Tree, d: LeafDecomposition | None = None) -> RhoData:
    """rho and V(rho) of t; pass d = leaf_decomposition(t) if already built."""
    if t.n < 2:
        raise GraphError("rho_data needs n >= 2")
    lvl1 = (d or leaf_decomposition(t)).levels[0]
    rest = sorted(set(range(t.n)) - set(lvl1.leaf_vertices) - set(lvl1.neighbor_vertices))
    rho = t.n - lvl1.b - lvl1.eta
    # V(rho) induces a forest, so it is a path iff it has rho - 1 inside
    # edges (one component) and no inside degree above 2.
    inside = set(rest)
    deg = [0] * t.n
    edges = 0
    for u, v in t.edges:
        if u in inside and v in inside:
            deg[u] += 1
            deg[v] += 1
            edges += 1
    path = rho <= 1 or (edges == rho - 1 and max(deg) <= 2)
    return RhoData(rho, tuple(rest), path)


def alpha_mis(g: Graph) -> int:
    """Independence number of a forest by include/exclude DP per component.

    A simple graph is a forest iff |E| = n - #components; the components
    are counted by the same traversal that orders the DP."""
    n = g.n
    adj = adjacency(g)
    parent = [-1] * n
    orders = [bfs_order(adj, root, parent) for root in range(n) if parent[root] == -1]
    if g.num_edges != n - len(orders):
        raise GraphError("alpha_mis needs an acyclic graph")
    take = [0] * n
    skip = [0] * n
    total = 0
    for order in orders:
        for v in reversed(order):
            t_in, t_out = 1, 0
            for w in adj[v]:
                if parent[w] == v:
                    t_in += skip[w]
                    t_out += max(take[w], skip[w])
            take[v], skip[v] = t_in, t_out
        total += max(take[order[0]], skip[order[0]])
    return total


def independence_and_splits(t: Tree) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(i_0, i_1, ..., i_alpha), where i_k counts the independent k-sets of
    t, and the sizes min(s, n - s) of the smaller side of every edge,
    ascending.

    Rooted at vertex 0, each vertex keeps two polynomials of its subtree:
    `take` over the independent sets that contain it (x times the product of
    its children's sets that avoid them) and `total` over all of them.  A
    polynomial is packed one coefficient per n-bit field of an int, so a
    product is one int multiplication: every coefficient counts k-sets of at
    most n vertices, so it stays below 2^n and never carries into the next
    field.  Removing the edge above a vertex leaves its subtree on one
    side."""
    n = t.n
    adj = adjacency(t)
    parent = [-1] * n
    order = bfs_order(adj, 0, parent)
    x = 1 << n
    take = [0] * n
    total = [0] * n
    size = [1] * n
    splits = []
    for v in reversed(order):
        t_in, t_out = x, 1
        for w in adj[v]:
            if parent[w] == v:
                t_in *= total[w] - take[w]
                t_out *= total[w]
                size[v] += size[w]
                splits.append(min(size[w], n - size[w]))
        take[v], total[v] = t_in, t_in + t_out
    mask = x - 1
    poly, coeffs = total[0], []
    while poly:
        coeffs.append(poly & mask)
        poly >>= n
    splits.sort()
    return tuple(coeffs), tuple(splits)


def chain_sequence(d: LeafDecomposition) -> tuple[int, ...]:
    """b_1, eta_1, b_2, eta_2, ... flattened."""
    out: list[int] = []
    for lvl in d.levels:
        out.extend((lvl.b, lvl.eta))
    return tuple(out)


def chain_holds(d: LeafDecomposition) -> bool:
    """Whether b_1 >= eta_1 >= b_2 >= eta_2 >= ... (audited, not assumed)."""
    seq = chain_sequence(d)
    return all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))


def decomposition_to_json_dict(d: LeafDecomposition) -> dict:
    return {
        "levels": [{"b": lvl.b, "eta": lvl.eta} for lvl in d.levels],
        "alpha_correction": d.terminal_alpha,
    }
