"""Chromatic symmetric functions of small graphs, exactly.

A SymmetricFunction is a sparse exact-integer coefficient map indexed by
integer partitions of its weight n, tagged with a basis:

    "m"   monomial
    "p"   power sum

Which route computes X_G depends on the graph, never on how it was built
(a Tree is a Graph, and any Graph with n - 1 edges and one component takes
the tree route):

  * Trees: csf_powersum runs a rooted tree DP over Stanley's signed
    edge-subset expansion
    X_G = sum over S subset of E of (-1)^|S| p_(component sizes of S).
    Its tables are bounded by the partitions of n, not by 2^|E| (under
    0.1 s at n = 25), and it is the engine behind csf_equal, the survey
    and the CLI on trees; csf_monomial of a tree is to_monomial of its
    result.
  * Other graphs (cycles, or several components): csf_powersum sums the
    same expansion with a depth-first edge sweep that stops wherever
    taking an edge would close a cycle, since there taking and skipping it
    cancel. It visits one leaf per acyclic orientation (Stanley's
    broken-circuit-free sets), not one per edge subset; a forest has no
    cycle to cut and still costs 2^|E|, hence the |E| cap.  csf_monomial
    counts stable (independent) vertex partitions by block-size type with
    a subset DP over vertex sets, each stable partition of type lambda
    contributing (product of part multiplicities!) to [m_lambda].  Both
    kernels live in _kernels, which these two branches import when they
    run, so a process that sees only trees never loads it.
  * Oracles: on trees the edge sweep (edge_subset_type_counts, 2^|E|
    leaves there) and the stable-partition count (stable_type_counts),
    each called directly, are independent checks of the DP at the sizes
    where they can run.

to_monomial changes basis with [m_mu] p_lambda = (number of set partitions
of lambda's parts whose block sums are mu) * prod m_i(mu)!, counted by one
DP per p-term over the multisets of block sums.  The tree DP, both kernels
and to_monomial all key their tables by packed ints in the one layout of
partitions.py (field c counts the parts equal to c).

The change of basis is invertible, so equality in the p basis is equality
of X.  max_block_from_csf reads the independence number from either basis;
in p it forms only the hook coefficients, by the closed form
[m_(k,1^(n-k))] p_lambda = perm(m_1(lambda), n - k) (m_1 counts the parts
equal to 1), never the full to_monomial.
Everything is exact Python int arithmetic, the two kernels' counts
included.

Caps: csf_powersum needs n <= CSF_POWERSUM_MAX_N and |E| <=
CSF_POWERSUM_MAX_EDGES (checked before any partition table is built);
csf_monomial and to_monomial need n <= CSF_MONOMIAL_MAX_N (on a tree,
csf_monomial reports the cap of whichever of the two it hits first).

Term order is canonical everywhere: partitions in descending lexicographic
order, no zero coefficients stored.
"""

from __future__ import annotations

from math import perm

from .errors import CapExceededError, GraphError
from .graphs import Graph, Record, adjacency, bfs_order, is_int, is_tree
from .partitions import mult_factorial, partition_keys, partitions_desc

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
    _defaults = ((),)

    def __post_init__(self) -> None:
        if self.basis not in _BASES:
            raise GraphError(f"unknown basis {self.basis!r}; expected one of {_BASES}")
        if not is_int(self.n) or self.n < 0:
            raise GraphError(f"weight must be a non-negative integer, got {self.n!r}")
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        norm = []
        seen = set()
        for parts, coeff in items:
            parts = tuple(parts)
            if not is_int(coeff):
                raise GraphError(f"coefficient of {parts} is not an exact integer")
            if not all(is_int(x) for x in parts):
                raise GraphError(f"partition {parts} has a non-integer part")
            if any(x < 1 for x in parts):
                raise GraphError(f"partition {parts} has a non-positive part")
            if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
                raise GraphError(f"partition {parts} is not weakly decreasing")
            if sum(parts) != self.n:
                raise GraphError(f"partition {parts} does not sum to the weight {self.n}")
            if parts in seen:
                raise GraphError(f"duplicate partition {parts}")
            seen.add(parts)
            if coeff != 0:
                norm.append((parts, coeff))
        norm.sort(key=lambda item: item[0], reverse=True)
        object.__setattr__(self, "terms", tuple(norm))


def csf_monomial(g: Graph) -> SymmetricFunction:
    """X_G in the monomial basis: to_monomial of the tree DP when g is a
    tree (so its caps apply), stable-partition counting otherwise."""
    if g.n < 1:
        raise GraphError("csf_monomial needs n >= 1")
    if is_tree(g):
        return to_monomial(csf_powersum(g))
    if g.n > CSF_MONOMIAL_MAX_N:
        raise CapExceededError(
            f"csf_monomial capped at n <= {CSF_MONOMIAL_MAX_N}, got {g.n}"
        )
    from ._kernels import stable_type_counts

    counts = stable_type_counts(g.n, g.edges)
    plist = partitions_desc(g.n)
    terms = {}
    for i, cnt in enumerate(counts):
        if cnt:
            parts = plist[i]
            terms[parts] = cnt * mult_factorial(parts)
    return SymmetricFunction(g.n, BASIS_MONOMIAL, terms)


def csf_powersum(g: Graph) -> SymmetricFunction:
    """X_G in the power-sum basis: the rooted tree DP when g is a tree, the
    signed edge sweep otherwise, which visits one edge set per acyclic
    orientation of g (2^|E| on a forest)."""
    if g.n < 1:
        raise GraphError("csf_powersum needs n >= 1")
    if g.n > CSF_POWERSUM_MAX_N:
        raise CapExceededError(
            f"csf_powersum capped at n <= {CSF_POWERSUM_MAX_N}, got {g.n}"
        )
    if g.num_edges > CSF_POWERSUM_MAX_EDGES:
        raise CapExceededError(
            f"csf_powersum capped at |E| <= {CSF_POWERSUM_MAX_EDGES}, got {g.num_edges}"
        )
    if is_tree(g):
        parent = [-1] * g.n
        order = bfs_order(adjacency(g), 0, parent)
        return SymmetricFunction(g.n, BASIS_POWERSUM, _tree_powersum_terms(parent, order))
    from ._kernels import edge_subset_type_counts

    signed = edge_subset_type_counts(g.n, g.edges)
    plist = partitions_desc(g.n)
    terms = {plist[i]: c for i, c in enumerate(signed) if c}
    return SymmetricFunction(g.n, BASIS_POWERSUM, terms)


def _tree_powersum_terms(parent, order) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Signed edge-subset expansion of a tree, summed by a rooted DP; the
    terms come back canonical (descending partitions, no zero coefficient).

    The tree is a rooted walk: its vertices are `order`, each after its
    parent parent[v] (order[0] the root), as csf_powersum's breadth-first
    walk from vertex 0 or a survey row in index order.  In reverse order
    each vertex merges its children's tables, which are final by then, in
    the order the walk lists them.  Each vertex keeps a sparse table over
    the edge subsets S of its subtree: the key is (size of the vertex's own
    component in S, sizes of the components already closed off), the value
    the sum of (-1)^|S| over the subsets with that key.  Each child edge is
    either left out of S, which closes the child's open component (sign +),
    or put in S, which merges it into the parent's component (sign -).

    A key is one int in the packed layout of partitions.py: field 0 holds
    the open size and field c the number of closed components of size c.
    Merging is then addition: kept = parent + child, and cut = parent +
    child with the child's open size b moved from field 0 to field b.  With
    field 0 empty, larger keys are exactly the larger partitions in
    descending lexicographic order, so the root's keys are sorted as ints."""
    n = len(order)
    width = n.bit_length()
    mask = (1 << width) - 1
    unit = [1 << (width * c) for c in range(n + 1)]
    kids: list[list[int]] = [[] for _ in range(n)]
    for v in order[1:]:
        kids[parent[v]].append(v)
    tables: list[dict | None] = [None] * n
    for v in reversed(order):
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
    closed: dict[int, int] = {}
    for k, x in tables[order[0]].items():
        key = k - (k & mask) + unit[k & mask]
        closed[key] = closed.get(key, 0) + x
    decode = partition_keys(n)
    return tuple((decode[key], closed[key]) for key in sorted(closed, reverse=True) if closed[key])


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
        raise CapExceededError(f"to_monomial capped at n <= {CSF_MONOMIAL_MAX_N}, got {f.n}")
    if f.basis != BASIS_POWERSUM:
        raise GraphError(f"to_monomial supports basis 'p', not {f.basis!r}")
    n = f.n
    width = n.bit_length()
    mask = (1 << width) - 1
    unit = [1 << (width * c) for c in range(n + 1)]
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
    decode = partition_keys(n)
    out = {decode[key]: x * mult_factorial(decode[key]) for key, x in acc.items() if x}
    return SymmetricFunction(n, BASIS_MONOMIAL, out)


def csf_equal(a: Graph, b: Graph) -> bool:
    """True iff the chromatic symmetric functions coincide (unequal n: False).
    Two trees are compared in the p basis through the tree DP, and two
    graphs that are not trees through csf_monomial.  A tree and a non-tree
    always differ, so nothing is counted: X fixes |E| as -[p_(2,1^(n-2))],
    and a graph with n - 1 edges that is not a tree is disconnected, so its
    [p_(n)] is 0 where a tree's is (-1)^(n-1)."""
    if a.n != b.n:
        return False
    a_tree = is_tree(a)
    if a_tree != is_tree(b):
        return False
    if a_tree:
        return csf_powersum(a).terms == csf_powersum(b).terms
    return csf_monomial(a).terms == csf_monomial(b).terms


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
