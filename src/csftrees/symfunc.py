"""Chromatic symmetric functions of small graphs, exactly.

A SymmetricFunction is a sparse exact-integer coefficient map indexed by
integer partitions of its weight n, tagged with a basis:

    "m"   monomial
    "p"   power sum

Which route computes X_G depends on the graph, never on how it was built
(a Tree is a Graph): forests take the DP, graphs with cycles the kernels.

  * Forests (graphs.forest_walk): csf_powersum runs a rooted DP over
    Stanley's signed edge-subset expansion
    X_G = sum over S subset of E of (-1)^|S| p_(component sizes of S)
    on the forest's row, one table per component, multiplied, as X of a
    disjoint union is the product of its parts' X.  Its tables are
    bounded by the partitions of n, not by 2^|E| (under 0.1 s at n = 25),
    and it is the engine behind csf_equal, the survey and the CLI on
    forests; csf_monomial of a forest is to_monomial of its result.  Each
    entry walks each graph once and routes on that row; only the results
    of csf_powersum, csf_monomial and to_monomial are SymmetricFunctions.
  * Graphs with cycles: csf_powersum sums the same expansion with a
    depth-first edge sweep that stops wherever taking an edge would close
    a cycle, since there taking and skipping it cancel. It visits one leaf
    per acyclic orientation (Stanley's broken-circuit-free sets), not one
    per edge subset.  csf_monomial counts stable (independent) vertex
    partitions by block-size type with a subset DP over vertex sets, each
    stable partition of type lambda contributing (product of part
    multiplicities!) to [m_lambda] (_stable_terms).  Both kernels live in
    _kernels, which these branches import when they run, so a process that
    sees only forests never loads it.
  * Oracles: on forests the edge sweep (edge_subset_type_counts, 2^|E|
    leaves there) and the stable-partition count (stable_type_counts),
    each called directly, are independent checks of the DP at the sizes
    where they can run.

to_monomial changes basis with [m_mu] p_lambda = (number of set partitions
of lambda's parts whose block sums are mu) * prod m_i(mu)!, counted by one
DP per p-term over the multisets of block sums.  The forest DP, both kernels
and to_monomial key their tables by packed ints in the layout of
partitions.py, and all four hand their tally to partitions.packed_terms.

The change of basis is invertible, so equality in the p basis is equality
of X.  max_block_from_csf reads the independence number from either basis;
in p it forms only the hook coefficients, by the closed form
[m_(k,1^(n-k))] p_lambda = perm(m_1(lambda), n - k) (m_1 counts the parts
equal to 1), never the full to_monomial.
Everything is exact Python int arithmetic, the two kernels' counts
included.

Caps: csf_powersum needs n <= CSF_POWERSUM_MAX_N and |E| <=
CSF_POWERSUM_MAX_EDGES, csf_monomial and to_monomial n <= CSF_MONOMIAL_MAX_N;
_caps is the one check.  Both entries check their caps before they walk g,
and csf_equal checks the caps of the route it takes, for both graphs,
before any DP or kernel runs.

Term order is canonical everywhere: partitions in descending lexicographic
order, no zero coefficients stored.
"""

from __future__ import annotations

from math import perm

from .errors import CapExceededError, GraphError
from .graphs import Graph, Record, _as_tuple, _clipped, forest_walk, is_int
from .partitions import mult_factorial, packed_layout, packed_terms

BASIS_MONOMIAL = "m"
BASIS_POWERSUM = "p"
_BASES = (BASIS_MONOMIAL, BASIS_POWERSUM)

CSF_MONOMIAL_MAX_N = 14
CSF_POWERSUM_MAX_EDGES = 24
CSF_POWERSUM_MAX_N = CSF_POWERSUM_MAX_EDGES + 1


class SymmetricFunction(Record):
    """Weight-n symmetric function in one of the supported bases.

    terms is normalized on construction: tuple of (partition, coeff) pairs in
    descending lexicographic partition order with zero coefficients dropped.
    A dict is accepted for convenience.
    """

    __slots__ = ("n", "basis", "terms")

    def __post_init__(self) -> None:
        if self.basis not in _BASES:
            raise GraphError(f"unknown basis {_clipped(self.basis)}; expected one of {_BASES}")
        if not is_int(self.n) or self.n < 0:
            raise GraphError(f"weight must be a non-negative integer, got {_clipped(self.n)}")
        terms = self.terms
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = _as_tuple(terms, "SymmetricFunction terms")
        norm = []
        seen = set()
        for term in items:
            try:
                parts, coeff = term
                parts = tuple(parts)
            except (TypeError, ValueError):
                raise GraphError(f"term {_clipped(term)} is not a (partition, coefficient) pair") from None
            if not is_int(coeff):
                raise GraphError(f"coefficient of {_clipped(parts)} is not an exact integer")
            if not all(is_int(x) for x in parts):
                raise GraphError(f"partition {_clipped(parts)} has a non-integer part")
            if any(x < 1 for x in parts):
                raise GraphError(f"partition {_clipped(parts)} has a non-positive part")
            if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
                raise GraphError(f"partition {_clipped(parts)} is not weakly decreasing")
            if sum(parts) != self.n:
                raise GraphError(f"partition {_clipped(parts)} does not sum to the weight {_clipped(self.n)}")
            if parts in seen:
                raise GraphError(f"duplicate partition {_clipped(parts)}")
            seen.add(parts)
            if coeff != 0:
                norm.append((parts, coeff))
        norm.sort(key=lambda item: item[0], reverse=True)
        object.__setattr__(self, "terms", tuple(norm))


def csf_monomial(g: Graph) -> SymmetricFunction:
    """X_G in the monomial basis: to_monomial of the forest DP when g is a
    forest, stable-partition counting otherwise.  The caps are checked
    before g is walked."""
    _caps("csf_monomial", g, CSF_MONOMIAL_MAX_N)
    row = forest_walk(g)
    if row is not None:
        return to_monomial(SymmetricFunction(g.n, BASIS_POWERSUM, _tree_powersum_terms(row)))
    return SymmetricFunction(g.n, BASIS_MONOMIAL, _stable_terms(g))


def csf_powersum(g: Graph) -> SymmetricFunction:
    """X_G in the power-sum basis: the rooted DP over g's row when g is a
    forest, the signed edge sweep otherwise, which visits one edge set per
    acyclic orientation of g.  The caps are checked before g is walked."""
    _caps("csf_powersum", g, CSF_POWERSUM_MAX_N, CSF_POWERSUM_MAX_EDGES)
    row = forest_walk(g)
    if row is not None:
        return SymmetricFunction(g.n, BASIS_POWERSUM, _tree_powersum_terms(row))
    from ._kernels import edge_subset_type_counts

    return SymmetricFunction(g.n, BASIS_POWERSUM, edge_subset_type_counts(g.n, g.edges))


def _caps(entry: str, g: Graph, max_n: int, max_edges: int | None = None) -> None:
    if g.n < 1:
        raise GraphError(f"{entry} needs n >= 1")
    if g.n > max_n:
        raise CapExceededError(f"{entry} capped at n <= {max_n}, got {_clipped(g.n)}")
    if max_edges is not None and g.num_edges > max_edges:
        raise CapExceededError(f"{entry} capped at |E| <= {max_edges}, got {g.num_edges}")


def _stable_terms(g: Graph) -> list[tuple[tuple[int, ...], int]]:
    """The canonical m-terms of X_G from g's stable partitions: each of type
    lambda adds prod m_i(lambda)! to [m_lambda]."""
    from ._kernels import stable_type_counts

    return [(parts, c * mult_factorial(parts)) for parts, c in stable_type_counts(g.n, g.edges)]


def _tree_powersum_terms(row) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Signed edge-subset expansion of a forest, summed by a rooted DP; the
    terms come back canonical (descending partitions, no zero coefficient).

    The forest is a row: row[v] <= v is the parent of vertex v, a root its
    own parent, as graphs.forest_walk gives it or as a survey row is.  In
    reversed index order each vertex merges its children's tables, which
    are final by then, in index order.  Each vertex keeps a sparse table
    over the edge subsets S of its subtree: the key is (size of the
    vertex's own component in S, sizes of the components already closed
    off), the value the sum of (-1)^|S| over the subsets with that key.
    Each child edge is either left out of S, which closes the child's open
    component (sign +), or put in S, which merges it into the parent's
    component (sign -).  The roots' tables,
    closed, are multiplied: X of a disjoint union is the product of X's.

    A key is one int in the packed layout of partitions.py: field 0 holds
    the open size and field c the number of closed components of size c.
    Merging is then addition: kept = parent + child, and cut = parent +
    child with the child's open size b moved from field 0 to field b, and a
    product adds keys."""
    n = len(row)
    _, mask, unit = packed_layout(n)
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        if row[v] != v:
            kids[row[v]].append(v)
    tables: list[dict | None] = [None] * n
    for v in range(n - 1, -1, -1):
        cur = {1: 1}
        for c in kids[v]:
            child = [(k, k - (k & mask) + unit[k & mask], y) for k, y in tables[c].items() if y]
            tables[c] = None
            nxt: dict[int, int] = {}
            get = nxt.get
            for k1, x in cur.items():
                for kept, cut, y in child:
                    xy = x * y
                    key = k1 + cut
                    nxt[key] = get(key, 0) + xy
                    key = k1 + kept
                    nxt[key] = get(key, 0) - xy
            cur = nxt
        tables[v] = cur
    closed = {0: 1}
    for root in [v for v in range(n) if row[v] == v]:
        nxt = {}
        for k, x in tables[root].items():
            k += unit[k & mask] - (k & mask)  # close the root's component
            for k0, y in closed.items():
                nxt[k0 + k] = nxt.get(k0 + k, 0) + x * y
        closed = nxt
    return packed_terms(n, closed)


def to_monomial(f: SymmetricFunction) -> SymmetricFunction:
    """Exact change of basis from the power-sum into the monomial basis.

    [m_mu] p_lambda counts the set partitions of lambda's parts (as labelled
    items) whose block sums are mu, times prod m_i(mu)! for the ways to
    match blocks of equal sum to the equal parts of mu.  One DP per p-term
    walks the parts of lambda; its state is the multiset of block sums in
    the packed layout of partitions.py (field s counts the blocks summing
    to s), its value the coefficient times the number of set partitions of
    the parts so far with those sums.  Each part a opens a block (key +
    unit[a]) or joins one of the m_s blocks of sum s (weight m_s, key -
    unit[s] + unit[s + a])."""
    if f.n > CSF_MONOMIAL_MAX_N:
        raise CapExceededError(f"to_monomial capped at n <= {CSF_MONOMIAL_MAX_N}, got {_clipped(f.n)}")
    if f.basis != BASIS_POWERSUM:
        raise GraphError(f"to_monomial supports basis 'p', not {f.basis!r}")
    n = f.n
    width, mask, unit = packed_layout(n)
    acc: dict[int, int] = {}
    for parts, coeff in f.terms:
        cur = {0: coeff}
        for a in parts:
            nxt: dict[int, int] = {}
            get = nxt.get
            for key, x in cur.items():
                k = key + unit[a]
                nxt[k] = get(k, 0) + x
                s, rest = 1, key >> width
                while rest:
                    m_s = rest & mask
                    if m_s:
                        k = key - unit[s] + unit[s + a]
                        nxt[k] = get(k, 0) + m_s * x
                    s, rest = s + 1, rest >> width
            cur = nxt
        for key, x in cur.items():
            acc[key] = acc.get(key, 0) + x
    terms = [(parts, x * mult_factorial(parts)) for parts, x in packed_terms(n, acc)]
    return SymmetricFunction(n, BASIS_MONOMIAL, terms)


def csf_equal(a: Graph, b: Graph) -> bool:
    """True iff the chromatic symmetric functions coincide (unequal n: False).
    Two forests are compared by their p-terms from the forest DP, and two
    graphs with cycles by their m-terms from the stable partitions, under
    csf_powersum's and csf_monomial's caps; no SymmetricFunction is built.
    A forest and a graph with a cycle always differ, so nothing is counted:
    X at 1^k is the chromatic polynomial, whose k^(n-1) coefficient is -|E|
    and whose lowest power of k is k^(#components), so X fixes
    |E| = n - #components."""
    if a.n != b.n:
        return False
    row_a, row_b = forest_walk(a), forest_walk(b)
    if (row_a is None) != (row_b is None):
        return False
    if row_a is not None:
        for g in (a, b):
            _caps("csf_powersum", g, CSF_POWERSUM_MAX_N, CSF_POWERSUM_MAX_EDGES)
        return _tree_powersum_terms(row_a) == _tree_powersum_terms(row_b)
    for g in (a, b):
        _caps("csf_monomial", g, CSF_MONOMIAL_MAX_N)
    return _stable_terms(a) == _stable_terms(b)


def max_block_from_csf(f: SymmetricFunction) -> int:
    """Independence number read from a chromatic symmetric function: the
    largest block over all stable partitions.

    In the m basis it is the largest part in the support.  In the p basis
    only the hook coefficients are formed:
    [m_(k,1^(n-k))] X_G = (n-k)! * #(independent k-sets), nonzero exactly
    when k <= alpha, so alpha is the largest k where it is nonzero.  Each
    hook slot of size 1 takes one part equal to 1 and the k slot takes the
    rest, so [m_(k,1^(n-k))] p_lambda = perm(m_1(lambda), n - k), where
    m_1(lambda) is the number of parts equal to 1."""
    if not f.terms:
        raise GraphError("empty symmetric function")
    if f.basis == BASIS_MONOMIAL:
        return max(parts[0] for parts, _ in f.terms)
    return _hook_max_block(f.n, f.terms)


def _hook_max_block(n: int, terms) -> int:
    """The largest k whose hook coefficient [m_(k,1^(n-k))] is nonzero, from
    weight-n p-terms (see max_block_from_csf)."""
    by_ones: dict[int, int] = {}
    for parts, coeff in terms:
        m1 = parts.count(1)
        by_ones[m1] = by_ones.get(m1, 0) + coeff
    for k in range(n, 0, -1):
        if sum(coeff * perm(m1, n - k) for m1, coeff in by_ones.items()):
            return k
    raise GraphError("not a chromatic symmetric function: every hook coefficient is zero")


# ------------------------------------------------------------- serialization

def symfunc_to_json_dict(f: SymmetricFunction) -> dict:
    return {
        "n": f.n,
        "basis": f.basis,
        "terms": [{"partition": list(p), "coeff": c} for p, c in f.terms],
    }


def pretty(f: SymmetricFunction) -> str:
    """Plain-text form like "m[2,1] + 6*m[1,1,1]"."""
    if not f.terms:
        return "0"
    pieces = []
    for i, (parts, coeff) in enumerate(f.terms):
        mag = abs(coeff)
        body = f"{f.basis}[{','.join(map(str, parts))}]"
        if mag != 1:
            body = f"{mag}*{body}"
        if i == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)
