"""Finite simple graphs restricted to the forest/tree world.

Vertices are dense integers 0..n-1. A Graph is immutable: edges are stored as
a sorted tuple of (u, v) pairs with u < v, so equal graphs compare and hash
equal and every downstream computation is deterministic. A Tree is a Graph
with no field of its own: Tree(n, edges) runs Graph's checks and then
requires n >= 1, n - 1 edges and one component. Record equality also
compares the class, so a Tree never equals a Graph with the same edges.

A rooted tree or forest has one shape, the row: row[i] <= i is vertex i's
parent and a root is its own, so reversed index order is children first.
forest_walk gives a forest's row (its breadth-first walks, relabeled).

Canonical form for trees is the AHU parenthesis code rooted at the tree's
center: peel leaf layers until one or two vertices remain; with two centers,
take the lexicographically smaller of the two rooted codes. Equal codes are
equivalent to isomorphism, which is what the enumeration and the pairwise
surveys rely on.  _row_code, on a row rooted at a center, is the one fold.

Edge-list text format: lines "u v"; blank lines and lines starting with '#'
are ignored; an optional header "n <k>" (first content line) declares the
vertex count, which allows isolated vertices. u, v and k are ASCII decimal
integers of at most 18 digits (parse_int). Without a header, n is one plus
the maximum vertex id (0 for an empty file).
"""

from __future__ import annotations

import re
from operator import attrgetter, eq

from .errors import GraphError

_INT_TOKEN = re.compile(r"-?[0-9]{1,18}")


def is_int(x) -> bool:
    """True for an int that is not a bool (JSON true would pass isinstance)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _clipped(value) -> str:
    """repr(value) for an error message, cut after 40 characters with a
    marker, so that no message echoes unbounded input."""
    return r if len(r := repr(value)) <= 40 else f"{r[:40]}... ({len(r)} characters)"


def _as_tuple(value, field: str) -> tuple:
    """tuple(value), or a GraphError naming the field when it is not iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise GraphError(f"{field} must be iterable, got {_clipped(value)}") from None
    return tuple(items)


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
                raise TypeError(f"{type(self).__name__}: unexpected or repeated field {_clipped(name)}")
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
            raise GraphError(f"vertex count must be a non-negative integer, got {_clipped(self.n)}")
        norm = []
        seen = set()
        for e in _as_tuple(self.edges, f"{type(self).__name__} edges"):
            try:
                u, v = e
            except (TypeError, ValueError):
                raise GraphError(f"edge {_clipped(e)} is not a pair") from None
            if not is_int(u) or not is_int(v):
                raise GraphError(f"edge {_clipped(e)} has non-integer endpoint")
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


def _walk_row(adj: list[list[int]], roots) -> list[int]:
    """The breadth-first walks from `roots` in turn, skipping a root an
    earlier walk reached, as a row: vertex i of the row is the i-th vertex
    visited and row[i] the index of its parent, a root its own parent, so
    row[i] <= i and reversed index order is children first."""
    parent = [-1] * len(adj)
    order: list[int] = []
    for root in roots:
        if parent[root] == -1:
            parent[root] = root
            walk = [root]
            for v in walk:
                for w in adj[v]:
                    if parent[w] == -1:
                        parent[w] = v
                        walk.append(w)
            order += walk
    index = [0] * len(adj)
    for i, v in enumerate(order):
        index[v] = i
    return [index[parent[v]] for v in order]


def forest_walk(g: Graph) -> list[int] | None:
    """g's row (_walk_row from every vertex in turn, so each component is
    walked from its smallest vertex) if g is a forest, else None.  A simple
    graph is a forest iff |E| = n - #components, the number of roots."""
    if g.num_edges >= max(g.n, 1):
        return None
    row = _walk_row(adjacency(g), range(g.n))
    return row if g.num_edges == g.n - sum(map(eq, row, range(g.n))) else None


def parse_int(token: str) -> int:
    """The integer an ASCII token -?[0-9]{1,18} spells; ValueError for
    anything else, such as "+1", "1_0" or non-ASCII digits, which int()
    accepts, or 19 digits or more: every cap is far below 10^18, and int()
    and str() refuse numbers past 4,300 digits with a bare ValueError."""
    if _INT_TOKEN.fullmatch(token) is None:
        raise ValueError(f"not a decimal integer of at most 18 digits: {_clipped(token)}")
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
            try:
                _, count = toks  # ValueError unless the line has two tokens
                n_header = parse_int(count)
            except ValueError:
                raise GraphError(f"line {lineno}: malformed header {_clipped(line)}") from None
            if n_header < 0:
                raise GraphError(f"line {lineno}: negative vertex count")
            saw_content = True
            continue
        saw_content = True
        try:
            u, v = toks  # ValueError unless the line has two tokens
            u, v = parse_int(u), parse_int(v)
        except ValueError:
            raise GraphError(f"line {lineno}: expected 'u v', got {_clipped(line)}") from None
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
    smaller of the codes rooted at each (_row_code of the walk from the
    first center, which visits the second, listed first, as vertex 1)."""
    centers = _centers(n, adj)
    if len(centers) == 2:
        first, second = centers
        adj = adj.copy()
        adj[first] = [second] + [w for w in adj[first] if w != second]
    return _row_code(_walk_row(adj, centers[:1]))


def _row_code(row) -> str:
    """The canonical code of a row's tree, folded children first in
    reversed index order.  The row must have a center at vertex 0 and a
    second center, if any, at vertex 1 (a WROM row roots its first and
    deepest subtree there; _code_from_adj walks the second center first).
    Vertex 1 is a center exactly when every other subtree of vertex 0 is
    less deep than vertex 1's; rooted there, its children are its own plus
    vertex 0 with its other children."""
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


def canonical_code(t: Tree) -> str:
    """Relabeling-invariant code; equal codes iff isomorphic trees."""
    return _code_from_adj(t.n, adjacency(t))


def trees_isomorphic(a: Tree, b: Tree) -> bool:
    if a.n != b.n:
        return False
    return canonical_code(a) == canonical_code(b)
