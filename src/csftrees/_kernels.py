"""The two counting kernels behind the CSF of a graph with cycles, in plain
Python:

  * stable_type_counts: count vertex-set partitions with all blocks
    independent, bucketed by block-size type. A subset DP over vertex
    bitmasks: f(S), the type counts of the stable partitions of S, is the
    sum over independent sets B of S that contain min(S) of f(S \\ B) with
    the part |B| added, memoized on S. No partition is listed one by one.
  * edge_subset_type_counts: signed count over the edge subsets, bucketed
    by component-size type (sign = parity of |subset|). A depth-first walk
    decides one edge at a time on a union-find that is undone on the way
    back. An edge whose ends the edges already taken join cancels: taking
    it or not gives the same components with opposite signs, so the walk
    stops there. What is left are Stanley's broken-circuit-free sets, one
    leaf per acyclic orientation of the graph (5,040 for K_7, against
    2^21 subsets). A forest has no circuit to prune and still costs
    2^|E| leaves.

Inside the kernels a type is one packed int in the layout of
partitions.py: the multiplicity of part size c sits in field c, so adding a
part or merging two components is one integer addition. Both kernels hand
their tally to partitions.packed_terms and return its canonical terms,
((partition, count), ...) in descending order with no zero count.
"""

from __future__ import annotations

from .partitions import packed_layout, packed_terms

# The one kernel implementation, named for run reports and benchmarks.
BACKEND = "python"


class TypeCounts(tuple):
    """The terms a kernel returns, with one extra method: sum(), the sum of
    the counts, which perfbench/trace_child.py reads as the number of stable
    partitions. The benchmark change (ROADMAP item 4) sums the terms in the
    hook instead and deletes this subclass."""

    def sum(self) -> int:
        return sum(count for _, count in self)


def stable_type_counts(n: int, edges) -> TypeCounts:
    """Canonical terms: (block-size type, number of stable partitions)."""
    unit = packed_layout(n)[2]
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    memo: dict[int, dict[int, int]] = {0: {0: 1}}

    def f(s: int) -> dict[int, int]:
        got = memo.get(s)
        if got is not None:
            return got
        low = s & -s
        out: dict[int, int] = {}
        # Independent sets containing min(s): (set, its size, vertices that
        # may still join it). Each candidate is added in increasing order,
        # so every set is produced once.
        stack = [(low, 1, s & ~low & ~nbr[low.bit_length() - 1])]
        while stack:
            block, size, cand = stack.pop()
            shift = unit[size]
            for key, cnt in f(s ^ block).items():
                key += shift
                out[key] = out.get(key, 0) + cnt
            while cand:
                bit = cand & -cand
                cand ^= bit
                stack.append((block | bit, size + 1, cand & ~nbr[bit.bit_length() - 1]))
        memo[s] = out
        return out

    return TypeCounts(packed_terms(n, f((1 << n) - 1)))


def edge_subset_type_counts(n: int, edges) -> TypeCounts:
    """Canonical terms: (component-size type, signed count of edge subsets)."""
    unit = packed_layout(n)[2]
    edges = tuple(edges)
    m = len(edges)
    parent = list(range(n))
    size = [1] * n
    tally: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def walk(e: int, key: int, sign: int) -> None:
        # Edges e.. are undecided; key packs the component sizes so far.
        if e == m:
            tally[key] = tally.get(key, 0) + sign
            return
        # An edge inside one component leaves the components as they are, so
        # taking it cancels skipping it. find does not compress paths and
        # every union below is undone before walk returns, so a and b are
        # still the roots after the skip branch.
        a, b = find(edges[e][0]), find(edges[e][1])
        if a == b:
            return
        walk(e + 1, key, sign)
        if size[a] < size[b]:
            a, b = b, a
        sa, sb = size[a], size[b]
        merged = key + unit[sa + sb] - unit[sa] - unit[sb]
        parent[b] = a
        size[a] = sa + sb
        walk(e + 1, merged, -sign)
        parent[b] = b
        size[a] = sa

    walk(0, n * unit[1], 1)
    return TypeCounts(packed_terms(n, tally))
