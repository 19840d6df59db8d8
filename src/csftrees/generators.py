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
list as n bytes, keyed by its code, which graphs._row_code reads from the
row, so the walk builds no Tree; enumerate_free_trees builds one
validated Tree per row, for library callers (the survey and the CLI
listing read the rows).

The two families the paper ends with are listed here, one spec per
isomorphism class, for the survey's formula audits (theorems): _spiders(n),
every spider on n vertices, and _star_connections(n), the chains and
bouquets of stars on n vertices.  Each family's rules live in its spec.

Caps (CapExceededError): spiders and star connections are built only up to
BUILD_MAX_VERTICES vertices, checked on the spec before any edge exists;
enumeration takes n <= ENUM_MAX_N.
"""

from __future__ import annotations

import json

from .errors import CapExceededError, GraphError, InternalError
from .graphs import Graph, Record, Tree, _as_tuple, _clipped, _row_code, adjacency, forest_walk, is_int, parse_int

ENUM_MAX_N = 18
BUILD_MAX_VERTICES = 10_000
_MIN_LEGS = 3  # a spider has at least 3 legs: its center has degree > 2
_MIN_STAR = 3  # a star connection glues stars of at least 3 vertices


def gen_path(n: int) -> Tree:
    if n < 1:
        raise GraphError("path needs n >= 1")
    return Tree(n, tuple((i, i + 1) for i in range(n - 1)))


def gen_star(n: int) -> Tree:
    if n < 2:
        raise GraphError("star needs n >= 2")
    return Tree(n, tuple((0, i) for i in range(1, n)))


class SpiderSpec(Record):
    """Leg lengths (in edges) of a spider: at least _MIN_LEGS legs, each of
    length >= 1."""

    __slots__ = ("legs",)

    def __post_init__(self) -> None:
        legs = _as_tuple(self.legs, "SpiderSpec legs")
        object.__setattr__(self, "legs", legs)
        if len(legs) < _MIN_LEGS:
            raise GraphError(f"spider needs at least {_MIN_LEGS} legs (center degree > 2)")
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
        stars = _as_tuple(self.stars, "Gluing stars")
        object.__setattr__(self, "stars", stars)
        if len(stars) < 2:
            raise GraphError("a gluing must involve at least 2 stars")
        for k in stars:
            if not is_int(k):
                raise GraphError(f"gluing star {_clipped(k)} is not an integer")
        if len(set(stars)) != len(stars):
            raise GraphError(f"gluing lists a star twice: {_clipped(stars)}")


class StarConnectionSpec(Record):
    """Stars S_{n_1},...,S_{n_r} (each n_k >= _MIN_STAR, r >= 2) glued at
    shared non-center vertices. Each gluing takes one of the n_k - 1 leaves
    of each member star."""

    __slots__ = ("star_sizes", "gluings")

    def __post_init__(self) -> None:
        sizes = _as_tuple(self.star_sizes, "StarConnectionSpec star_sizes")
        gluings = _as_tuple(self.gluings, "StarConnectionSpec gluings")
        object.__setattr__(self, "star_sizes", sizes)
        object.__setattr__(self, "gluings", gluings)
        if len(sizes) < 2:
            raise GraphError("star connection needs r >= 2 stars")
        if any(not is_int(x) or x < _MIN_STAR for x in sizes):
            raise GraphError(f"every star size must be an integer >= {_MIN_STAR}")
        r = len(sizes)
        for g in gluings:
            if not isinstance(g, Gluing):
                raise GraphError(f"StarConnectionSpec gluings must be Gluing values, got {_clipped(g)}")
            for k in g.stars:
                if not (0 <= k < r):
                    raise GraphError(f"gluing references star {k}, but there are {r} stars")

    @property
    def num_stars(self) -> int:
        return len(self.star_sizes)

    @property
    def num_vertices(self) -> int:
        """sum(n_k) - (r - 1): every star puts n_k - 1 edges into the tree."""
        return sum(self.star_sizes) - (self.num_stars - 1)

    @classmethod
    def from_json(cls, text: str) -> "StarConnectionSpec":
        try:
            data = json.loads(text, parse_int=parse_int)  # JSONDecodeError is a ValueError
        except (ValueError, RecursionError) as exc:
            raise GraphError(f"malformed star connection spec: {exc}") from None
        if not isinstance(data, dict) or "stars" not in data or "gluings" not in data:
            raise GraphError('star connection spec must be {"stars": [..], "gluings": [..]}')
        if unknown := [key for key in data if key not in ("stars", "gluings")]:
            raise GraphError(f"star connection spec has an unknown key {_clipped(unknown[0])}")
        sizes = data["stars"]
        raw_gluings = data["gluings"]
        if not isinstance(sizes, list) or not isinstance(raw_gluings, list):
            raise GraphError('star connection "stars" and "gluings" must be lists')
        gluings = []
        for item in raw_gluings:
            if not isinstance(item, dict) or "stars" not in item:
                raise GraphError('each gluing must be {"stars": [..]}')
            if unknown := [key for key in item if key != "stars"]:
                raise GraphError(f"gluing has an unknown key {_clipped(unknown[0])}")
            if not isinstance(item["stars"], list):
                raise GraphError('gluing "stars" must be a list')
            gluings.append(Gluing(tuple(item["stars"])))
        return cls(tuple(sizes), tuple(gluings))


def gen_star_connection(spec: StarConnectionSpec) -> Tree:
    r = spec.num_stars
    t = len(spec.gluings)
    # The cap is checked on the vertex count of a valid spec, num_vertices.
    if spec.num_vertices > BUILD_MAX_VERTICES:
        raise CapExceededError(
            f"star connection capped at {BUILD_MAX_VERTICES} vertices, got {spec.num_vertices}"
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
    # built so far is a tree iff a forest with r + t - 1 edges.
    structure = Graph(r + t, edges)
    if forest_walk(structure) is None:
        adj = adjacency(structure)
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
    if len(edges) != r + t - 1:
        raise GraphError("gluing structure is not connected")

    nxt = r + t
    for k, size in enumerate(spec.star_sizes):
        for _ in range(size - 1 - used[k]):
            edges.append((k, nxt))
            nxt += 1
    return Tree(nxt, tuple(edges))


def _spiders(n: int):
    """An iterator over every spider on n vertices, one per isomorphism
    class: its legs are a partition of n - 1 into at least _MIN_LEGS parts,
    in partitions_desc order."""
    from .partitions import partitions_desc  # not compiled by `csf enumerate`

    return (SpiderSpec(legs) for legs in partitions_desc(n - 1) if len(legs) >= _MIN_LEGS)


def _compositions(total: int, r: int):
    """The compositions of total >= _MIN_STAR * r into r parts of at least
    _MIN_STAR each, in lexicographic order."""
    if r == 1:
        yield (total,)
        return
    for first in range(_MIN_STAR, total - _MIN_STAR * (r - 1) + 1):
        for rest in _compositions(total - first, r - 1):
            yield (first,) + rest


def _star_connections(n: int):
    """Yields the star connections on n vertices that are chains or
    bouquets, one per isomorphism class, by star count r.  For each r, the
    chains (stars glued in a row) come first, in lexicographic order of
    sizes: each is the caterpillar on its centers and gluing vertices, so
    only its reversal gives the same tree, and the smaller sizes of the two
    are kept.  Then the bouquets (every star glued at one shared vertex,
    never a caterpillar), one per partition, in descending order."""
    from .partitions import partitions_desc  # not compiled by `csf enumerate`

    # n - 1 = sum(n_k - 1), the tree's edges, so r <= (n - 1) // (_MIN_STAR - 1)
    for r in range(2, (n - 1) // (_MIN_STAR - 1) + 1):
        total = n + r - 1  # the sizes' sum: num_vertices is total - (r - 1)
        for sizes in _compositions(total, r):
            if sizes <= sizes[::-1]:
                yield StarConnectionSpec(sizes, tuple(Gluing((i, i + 1)) for i in range(r - 1)))
        if r >= 3:  # a bouquet of two stars is their chain
            for sizes in partitions_desc(total):
                if len(sizes) == r and sizes[-1] >= _MIN_STAR:
                    yield StarConnectionSpec(sizes, (Gluing(tuple(range(r))),))


def _free_tree_level_sequences(n: int):
    """One level sequence per free tree on n >= 1 vertices: the WROM order
    (Wright, Richmond, Odlyzko & McKay, SIAM J. Comput. 15, 1986).  n = 1
    yields [0]; every n >= 2 takes the walk below ([0, 1] alone at n = 2).

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
    if n == 1:  # a lone root has no first subtree to split off
        yield [0]
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


def _free_tree_edge_sets(n: int) -> list[bytes]:
    """The free trees on n vertices as rows, sorted by canonical code.  A
    row is the parent list of a WROM level sequence as bytes (n <=
    ENUM_MAX_N < 256): row[0] = 0 for the root, a center, and row[v] < v,
    the last vertex before v one level up, so reversed index order is a
    post-order.  Its code (graphs._row_code) keys it, so a code met twice
    is caught at insertion; no Tree is built.  The name is older than the
    return type; benchmark traces time this step under it."""
    if not is_int(n) or n < 1:
        raise GraphError(f"tree order must be a positive integer, got {_clipped(n)}")
    if n > ENUM_MAX_N:
        raise CapExceededError(f"enumeration capped at n <= {ENUM_MAX_N}, got {n}")
    by_code: dict[str, bytes] = {}
    for s in _free_tree_level_sequences(n):
        last = [0] * n  # a vertex's parent is the last vertex before it one level up
        row = [0] * n
        for i in range(1, n):
            row[i] = last[s[i] - 1]
            last[s[i]] = i
        code = _row_code(row)
        if code in by_code:
            raise InternalError(f"free-tree enumeration met the code {code} twice at n = {n}")
        by_code[code] = bytes(row)
    return [by_code[c] for c in sorted(by_code)]


def enumerate_free_trees(n: int) -> list[Tree]:
    """One representative per isomorphism class of trees on n vertices,
    in canonical-code order: the library's Tree view of the rows of
    _free_tree_edge_sets, which the survey and `csf enumerate` read
    without it.

    Each representative is labeled by its WROM level sequence (vertex 0 a
    center, the rest in preorder) and built once from its row, so A000055(n)
    sequences are visited and each tree's canonical code is computed once,
    to sort them; a code met twice is an InternalError."""
    return [Tree(n, tuple(zip(row[1:], range(1, n)))) for row in _free_tree_edge_sets(n)]
