"""Finite simple graphs restricted to the forest/tree world.

Vertices are dense integers 0..n-1. A Graph is immutable: edges are stored as
a sorted tuple of (u, v) pairs with u < v, so equal graphs compare and hash
equal and every downstream computation is deterministic. A Tree is a Graph
with no field of its own: Tree(n, edges) runs Graph's checks and then
requires n >= 1, n - 1 edges and one component. Record equality also
compares the class, so a Tree never equals a Graph with the same edges.

Canonical form for trees is the AHU parenthesis code rooted at the tree's
center: peel leaf layers until one or two vertices remain; with two centers,
take the lexicographically smaller of the two rooted codes. Equal codes are
equivalent to isomorphism, which is what the enumeration and the pairwise
surveys rely on.

Edge-list text format: lines "u v"; blank lines and lines starting with '#'
are ignored; an optional header "n <k>" (first content line) declares the
vertex count, which allows isolated vertices. u, v and k are ASCII decimal
integers (parse_int). Without a header, n is one plus the maximum vertex id
(0 for an empty file).
"""

from __future__ import annotations

import re
from operator import attrgetter

from .errors import GraphError

_INT_TOKEN = re.compile(r"-?[0-9]+")


def is_int(x) -> bool:
    """True for an int that is not a bool (JSON true would pass isinstance)."""
    return isinstance(x, int) and not isinstance(x, bool)


class Record:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and may give values for
    its trailing fields in ``_defaults``; that is all it declares.
    ``_fields`` lists the fields, its bases' first.  ``__init__`` is the one
    constructor: it takes every field, by position or keyword, the trailing
    ones optional when ``_defaults`` covers them, then calls
    ``__post_init__``, where a subclass validates its fields and rewrites
    one, if it normalizes it, with ``object.__setattr__``.
    Instances are frozen (assignment raises AttributeError), equal when
    their class and their fields outside ``_hidden`` are, hash like those
    fields and print as ``Class(field=value, ...)`` without the hidden
    ones."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls._fields + tuple(cls.__dict__.get("__slots__", ()))
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        # one C call reads the compared fields (a bare value for one field)
        cls._key = staticmethod(attrgetter(*cls._shown))
        # each slot's own descriptor writes it past the frozen __setattr__
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        i = 0  # an index, not zip(): on Python 3.11 a zip costs more than two fields
        for set_field in setters:
            set_field(self, args[i])
            i += 1
        self.__post_init__()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        """Every field's value in field order, from positions, keywords and
        the trailing _defaults."""
        fields = self._fields
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError(f"{type(self).__name__}: unexpected or repeated field {name!r}")
            values[name] = value
        for name, value in zip(fields[len(fields) - len(self._defaults) :], self._defaults):
            values.setdefault(name, value)
        if len(args) > len(fields) or len(values) < len(fields):
            raise TypeError(f"{type(self).__name__} takes the fields {fields}")
        return [values[name] for name in fields]

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__name__}({shown})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return type(self), tuple(getattr(self, f) for f in self._fields)


class Graph(Record):
    """Simple undirected graph on vertices 0..n-1; edges normalized and sorted."""

    __slots__ = ("n", "edges")
    _defaults = ((),)

    def __post_init__(self) -> None:
        if not is_int(self.n) or self.n < 0:
            raise GraphError(f"vertex count must be a non-negative integer, got {self.n!r}")
        norm = []
        seen = set()
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not a pair") from None
            if not is_int(u) or not is_int(v):
                raise GraphError(f"edge {e!r} has non-integer endpoint")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) has endpoint outside 0..{self.n - 1}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


class Tree(Graph):
    """A connected acyclic Graph: Graph's checks run first, then the tree's."""

    __slots__ = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        n, m = self.n, self.num_edges
        if n == 0:
            raise GraphError("a tree needs at least one vertex")
        # With n - 1 edges, a cycle is the same as a second component.
        if m != n - 1:
            raise GraphError(f"tree on {n} vertices needs {n - 1} edges, got {m}")
        if forest_walk(self) is None:
            raise GraphError("graph is not connected")


def adjacency(g: Graph) -> list[list[int]]:
    """Adjacency lists, each ascending with no sort: g.edges is sorted with
    u < v in each pair, so w's smaller neighbors come first, then the rest."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def degrees(g: Graph) -> list[int]:
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def bfs_order(adj: list[list[int]], root: int, parent: list[int]) -> list[int]:
    """Vertices reachable from `root` in breadth-first order.

    Sets parent[root] = root and parent[w] to the vertex that reached w.
    Vertices whose parent entry is not -1 on entry count as visited, so one
    `parent` list shared over calls walks a forest component by component."""
    parent[root] = root
    order = [root]
    for v in order:
        for w in adj[v]:
            if parent[w] == -1:
                parent[w] = v
                order.append(w)
    return order


def forest_walk(g: Graph) -> tuple[list[int], list[int]] | None:
    """The walk (parent, order) of g if g is a forest, else None: the
    breadth-first walks of its components in turn, each from its smallest
    vertex, its own parent.  A simple graph is a forest iff |E| = n -
    #components."""
    adj = adjacency(g)
    parent = [-1] * g.n
    order: list[int] = []
    components = 0
    for root in range(g.n):
        if parent[root] == -1:
            order += bfs_order(adj, root, parent)
            components += 1
    if g.num_edges != g.n - components:
        return None
    return parent, order


def parse_int(token: str) -> int:
    """The integer an ASCII token -?[0-9]+ spells; ValueError for anything
    else, such as "+1", "1_0" or non-ASCII digits, which int() accepts."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    return Graph(*_parse_edges(text))


def _parse_edges(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    n_header: int | None = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    saw_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if toks[0] == "n":
            if saw_content:
                raise GraphError(f"line {lineno}: header 'n <k>' must be the first content line")
            if len(toks) != 2:
                raise GraphError(f"line {lineno}: malformed header {line!r}")
            try:
                n_header = parse_int(toks[1])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed header {line!r}") from None
            if n_header < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
            saw_content = True
            continue
        saw_content = True
        if len(toks) != 2:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = parse_int(toks[0]), parse_int(toks[1])
        except ValueError:
            raise GraphError(f"line {lineno}: expected 'u v', got {line!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphError(f"line {lineno}: loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise GraphError(f"line {lineno}: duplicate edge ({key[0]},{key[1]})")
        seen.add(key)
        edges.append(key)
    if n_header is not None:
        n = n_header
        for u, v in edges:
            if v >= n:  # v is the larger endpoint
                raise GraphError(f"edge ({u},{v}) has endpoint >= declared n={n}")
    else:
        n = 1 + max((v for _, v in edges), default=-1)
    return n, tuple(edges)


def serialize(g: Graph) -> str:
    """Inverse of parse_edge_list: header plus one edge per line, ascending."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _centers(n: int, adj: list[list[int]]) -> list[int]:
    """The 1 or 2 central vertices (sorted), found by peeling leaf layers."""
    if n <= 2:
        return list(range(n))
    deg = [len(a) for a in adj]
    layer = [v for v in range(n) if deg[v] <= 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            for w in adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt
    return sorted(layer)


def _code_from_adj(n: int, adj: list[list[int]]) -> str:
    """AHU parenthesis code rooted at the center; with two centers, the
    smaller of the codes rooted at each.

    One BFS from the first center c1 gives every subtree's code.  Rooted at
    the second center c2, the children of c2 are its children under c1 plus
    c1's side without c2, which is c1 with its other children; so the
    second code is assembled from the same subtree codes."""
    centers = _centers(n, adj)
    root = centers[0]
    parent = [-1] * n
    order = bfs_order(adj, root, parent)
    code = ["()"] * n
    for v in reversed(order):
        kids = [code[w] for w in adj[v] if parent[w] == v]
        if kids:
            kids.sort()
            code[v] = "(" + "".join(kids) + ")"
    if len(centers) == 1:
        return code[root]
    other = centers[1]
    side = "(" + "".join(sorted(code[w] for w in adj[root] if w != other)) + ")"
    kids = [code[w] for w in adj[other] if w != root]
    kids.append(side)
    kids.sort()
    return min(code[root], "(" + "".join(kids) + ")")


def canonical_code(t: Tree) -> str:
    """Relabeling-invariant code; equal codes iff isomorphic trees."""
    return _code_from_adj(t.n, adjacency(t))


def trees_isomorphic(a: Tree, b: Tree) -> bool:
    if a.n != b.n:
        return False
    return canonical_code(a) == canonical_code(b)
