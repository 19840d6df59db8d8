"""Constructors for tree families and exhaustive free-tree enumeration.

Vertex numbering is deterministic for every generator (golden tests depend on
it): the center(s) come first, then the legs/stars in spec order.

  gen_path      0 - 1 - ... - n-1
  gen_star      center 0, leaves 1..n-1
  gen_spider    center 0; leg i occupies the next L_i ids walking outward
  gen_star_connection
                centers 0..r-1 in star order, then one vertex per gluing in
                gluing order, then the unshared leaves star by star

Free trees are enumerated directly, one center-rooted level sequence per
tree (the WROM algorithm of Wright, Richmond, Odlyzko & McKay, 1986), and
sorted by canonical code.  Each is kept as a row, the sequence's parent
list, and its code is read from the row, so the walk builds no Tree;
enumerate_free_trees builds one validated Tree per row.

Caps (CapExceededError): spiders and star connections are built only up to
BUILD_MAX_VERTICES vertices, checked on the spec before any edge exists;
enumeration takes n <= ENUM_MAX_N.
"""

from __future__ import annotations

import json

from .errors import CapExceededError, GraphError, InternalError
from .graphs import Graph, Record, Tree, adjacency, bfs_order, is_int

ENUM_MAX_N = 18
BUILD_MAX_VERTICES = 10_000


def gen_path(n: int) -> Tree:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def gen_star(n: int) -> Tree:
    if n < 2:
        raise GraphError("star needs n >= 2")
    return Tree(n, tuple((0, i) for i in range(1, n)))


class SpiderSpec(Record):
    """Leg lengths (in edges) of a spider; at least 3 legs, each of length >= 1."""

    __slots__ = ("legs",)

    def __post_init__(self) -> None:
        legs = tuple(self.legs)
        object.__setattr__(self, "legs", legs)
        if len(legs) < 3:
            raise GraphError("spider needs at least 3 legs (center degree > 2)")
        if any(not is_int(x) or x < 1 for x in legs):
            raise GraphError("spider leg lengths must be integers >= 1")

    @property
    def num_vertices(self) -> int:
        return 1 + sum(self.legs)


def gen_spider(spec: SpiderSpec) -> Tree:
    if not isinstance(spec, SpiderSpec):
        spec = SpiderSpec(tuple(spec))
    if spec.num_vertices > BUILD_MAX_VERTICES:
        raise CapExceededError(
            f"spider capped at {BUILD_MAX_VERTICES} vertices, got {spec.num_vertices}"
        )
    edges = []
    nxt = 1
    for length in spec.legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Tree(nxt, tuple(edges))


class Gluing(Record):
    """One shared non-center vertex: the stars meeting there (>= 2 of them)."""

    __slots__ = ("stars",)

    def __post_init__(self) -> None:
        stars = tuple(self.stars)
        object.__setattr__(self, "stars", stars)
        if len(stars) < 2:
            raise GraphError("a gluing must involve at least 2 stars")
        for k in stars:
            if not is_int(k):
                raise GraphError(f"gluing star {k!r} is not an integer")
        if len(set(stars)) != len(stars):
            raise GraphError(f"gluing lists a star twice: {stars}")


class StarConnectionSpec(Record):
    """Stars S_{n_1},...,S_{n_r} (each n_k >= 3, r >= 2) glued at shared
    non-center vertices. Each gluing takes one of the n_k - 1 leaves of each
    member star."""

    __slots__ = ("star_sizes", "gluings")

    def __post_init__(self) -> None:
        sizes = tuple(self.star_sizes)
        object.__setattr__(self, "star_sizes", sizes)
        object.__setattr__(self, "gluings", tuple(self.gluings))
        if len(sizes) < 2:
            raise GraphError("star connection needs r >= 2 stars")
        if any(not is_int(x) or x < 3 for x in sizes):
            raise GraphError("every star size must be an integer >= 3")
        r = len(sizes)
        for g in self.gluings:
            for k in g.stars:
                if not (0 <= k < r):
                    raise GraphError(f"gluing references star {k}, but there are {r} stars")

    @property
    def num_stars(self) -> int:
        return len(self.star_sizes)

    @classmethod
    def from_json(cls, text: str) -> "StarConnectionSpec":
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise GraphError(f"malformed star connection spec: {exc}") from None
        if not isinstance(data, dict) or "stars" not in data or "gluings" not in data:
            raise GraphError('star connection spec must be {"stars": [..], "gluings": [..]}')
        sizes = data["stars"]
        raw_gluings = data["gluings"]
        if not isinstance(sizes, list) or not isinstance(raw_gluings, list):
            raise GraphError('star connection "stars" and "gluings" must be lists')
        gluings = []
        for item in raw_gluings:
            if not isinstance(item, dict) or "stars" not in item:
                raise GraphError('each gluing must be {"stars": [..]}')
            if "slots" in item:
                raise GraphError('gluing "slots" are not supported: leaves are taken in order')
            if not isinstance(item["stars"], list):
                raise GraphError('gluing "stars" must be a list')
            gluings.append(Gluing(tuple(item["stars"])))
        return cls(tuple(sizes), tuple(gluings))


def gen_star_connection(spec: StarConnectionSpec) -> Tree:
    r = spec.num_stars
    t = len(spec.gluings)
    # Every star puts n_k - 1 edges into the result, so a valid spec has
    # sum(n_k) - (r - 1) vertices; the cap is checked on that count.
    nverts = sum(spec.star_sizes) - (r - 1)
    if nverts > BUILD_MAX_VERTICES:
        raise CapExceededError(
            f"star connection capped at {BUILD_MAX_VERTICES} vertices, got {nverts}"
        )
    # Star k joins gluing vertex r+gi for each gluing gi it is in; each such
    # join uses up one of its n_k - 1 leaves.
    edges = []
    used = [0] * r
    for gi, g in enumerate(spec.gluings):
        for k in g.stars:
            if used[k] == spec.star_sizes[k] - 1:
                raise GraphError(f"gluing {gi}: star {k} has no free leaf slot left")
            used[k] += 1
            edges.append((k, r + gi))

    # Tree-ness of the gluing structure, with targeted messages before the
    # generic Tree validation would fire: the star-gluing incidence graph
    # built so far is a forest iff |E| = #vertices - #components.
    adj = adjacency(Graph(r + t, edges))
    parent = [-1] * (r + t)
    components = 0
    for v in range(r + t):
        if parent[v] == -1:
            bfs_order(adj, v, parent)
            components += 1
    if len(edges) != r + t - components:
        # A pair of stars shares two vertices only if both are in two or
        # more gluings (adj[k] lists star k's gluings, adj[r + gi] gluing
        # gi's stars), so only those count. The first star a, ascending,
        # with a later star b in two of its gluings names the smallest pair.
        for a in range(r):
            if len(adj[a]) < 2:
                continue
            shared: dict[int, int] = {}
            for g in adj[a]:
                for b in adj[g]:
                    if b > a and len(adj[b]) > 1:
                        shared[b] = shared.get(b, 0) + 1
            twice = [b for b, count in shared.items() if count > 1]
            if twice:
                b = min(twice)
                raise GraphError(
                    f"stars {a} and {b} share {shared[b]} vertices (at most 1 allowed)"
                )
        raise GraphError("gluing structure contains a cycle")
    if components != 1:
        raise GraphError("gluing structure is not connected")

    nxt = r + t
    for k, size in enumerate(spec.star_sizes):
        for _ in range(size - 1 - used[k]):
            edges.append((k, nxt))
            nxt += 1
    return Tree(nxt, tuple(edges))


def _free_tree_level_sequences(n: int):
    """One level sequence per free tree on n >= 1 vertices: the WROM order
    (Wright, Richmond, Odlyzko & McKay, SIAM J. Comput. 15, 1986).

    Each sequence is the canonical (Beyer-Hedetniemi) level sequence of the
    tree rooted at a center. Split it into the root's first subtree L and
    the rest R (the root with its other subtrees), each measured from its
    own root; it represents its free tree iff height(L) < height(R), or the
    heights tie, |L| <= |R| and, if the sizes tie too, L <= R as level
    sequences. The walk starts at the path rooted at its center and steps
    with the rooted successor; where a step lands on a sequence that breaks
    the rule, one jump (the successor taken at the last vertex of L, then
    R's tail reset to a path as deep as L) lands on the next sequence that
    keeps it, so every sequence visited is yielded. Yields an internal
    buffer — consume, don't store."""
    if n <= 2:
        yield list(range(n))
        return
    s = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))
    while True:
        m = _rest_start(s)
        left_h, rest_h = max(s[1:m]) - 1, max(s[m:], default=0)
        if left_h > rest_h or (
            left_h == rest_h
            and (m - 1, [x - 1 for x in s[1:m]]) > (n - m + 1, [0] + s[m:])
        ):
            big = s[m - 1] > 2
            _next_rooted(s, m - 1)
            if big:
                h = max(s[1 : _rest_start(s)])
                s[n - h :] = range(1, h + 1)
        yield s
        p = n - 1
        while s[p] == 1:
            p -= 1
        if p == 0:
            return
        _next_rooted(s, p)


def _rest_start(s: list[int]) -> int:
    """Index of the root's second child (where R's first subtree starts),
    len(s) if the root has one child."""
    try:
        return s.index(1, 2)
    except ValueError:
        return len(s)


def _next_rooted(s: list[int], p: int) -> None:
    """Beyer-Hedetniemi successor in place, taken at position p (s[p] > 1):
    the subtree hanging from p's parent q is copied over s[p:] periodically."""
    q = p - 1
    while s[q] != s[p] - 1:
        q -= 1
    for i in range(p, len(s)):
        s[i] = s[i - (p - q)]


def _free_tree_edge_sets(n: int) -> list[tuple[int, ...]]:
    """The free trees on n vertices as rows, sorted by canonical code.  A
    row is the parent list of a WROM level sequence: row[0] = 0 for the
    root, a center, and row[v] < v, the last vertex before v one level up,
    so reversed index order is a post-order.  Its code is read from the row
    (_row_code); no Tree is built.  The name is older than the return type;
    benchmark traces time this step under it."""
    if not is_int(n) or n < 1:
        raise GraphError(f"tree order must be a positive integer, got {n!r}")
    if n > ENUM_MAX_N:
        raise CapExceededError(f"enumeration capped at n <= {ENUM_MAX_N}, got {n}")
    coded = []
    for s in _free_tree_level_sequences(n):
        last = [0] * n  # a vertex's parent is the last vertex before it one level up
        row = [0] * n
        for i in range(1, n):
            row[i] = last[s[i] - 1]
            last[s[i]] = i
        row = tuple(row)
        coded.append((_row_code(row), row))
    coded.sort()
    for (a, _), (b, _) in zip(coded, coded[1:]):
        if a == b:
            raise InternalError(f"free-tree enumeration met the code {a} twice at n = {n}")
    return [row for _, row in coded]


def _row_code(row: tuple[int, ...]) -> str:
    """The canonical code of a row's tree (graphs._code_from_adj), folded
    children first in reversed index order.  Vertex 0 is a center, and a
    second center can only be vertex 1, which roots the first and deepest
    of vertex 0's subtrees: it is one exactly when every other subtree of
    vertex 0 is less deep than vertex 1's."""
    n = len(row)
    kids: list[list[str]] = [[] for _ in range(n)]
    height = [0] * n
    for v in range(n - 1, 0, -1):
        mine = kids[v]
        mine.sort()
        p = row[v]
        kids[p].append("(" + "".join(mine) + ")")
        if height[p] <= height[v]:
            height[p] = height[v] + 1
    top = kids[0]
    top.sort()
    code = "(" + "".join(top) + ")"
    if n == 1 or max((height[v] + 1 for v in range(2, n) if row[v] == 0), default=0) > height[1]:
        return code
    first = "(" + "".join(kids[1]) + ")"
    top.remove(first)
    mine = kids[1] + ["(" + "".join(top) + ")"]
    mine.sort()
    return min(code, "(" + "".join(mine) + ")")


def enumerate_free_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of trees on n vertices,
    in canonical-code order.

    Each representative is labeled by its WROM level sequence (vertex 0 a
    center, the rest in preorder) and built once from it, so A000055(n)
    sequences are visited and each tree's canonical code is computed once,
    to sort them; a code met twice is an InternalError."""
    return [Tree(n, tuple(zip(row[1:], range(1, n)))) for row in _free_tree_edge_sets(n)]
