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
partitions.py: the multiplicity of part size c sits in field c, n.bit_length()
bits wide, so adding a part or merging two components is one integer
addition. The tally is read out in partition_keys order into a list of
exact ints, so entry r counts the type partitions_desc(n)[r].
"""

from __future__ import annotations

import builtins

from .errors import InternalError
from .partitions import partition_keys

# The one kernel implementation, named for run reports and benchmarks.
BACKEND = "python"


class TypeCounts(list):
    """The count list a kernel returns, with one extra method: sum().

    perfbench/trace_child.py reads the number of stable partitions as
    result.sum(). The benchmark change (ROADMAP item 4) switches that hook
    to sum(result) and deletes this subclass."""

    def sum(self) -> int:
        return builtins.sum(self)


def _dense_counts(n: int, tally: dict[int, int]) -> TypeCounts:
    """Counts of length p(n), in partitions_desc order, from a tally keyed
    by packed types."""
    keys = partition_keys(n)
    if not tally.keys() <= keys.keys():
        raise InternalError(f"a kernel tallied a type that is not a partition of {n}")
    return TypeCounts(tally.get(key, 0) for key in keys)


def stable_type_counts(n: int, edges):
    """Counts of length p(n): entry r counts the stable partitions whose
    block-size type is partitions_desc(n)[r]."""
    width = n.bit_length()
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
            shift = 1 << (width * size)
            for key, cnt in f(s ^ block).items():
                key += shift
                out[key] = out.get(key, 0) + cnt
            while cand:
                bit = cand & -cand
                cand ^= bit
                stack.append((block | bit, size + 1, cand & ~nbr[bit.bit_length() - 1]))
        memo[s] = out
        return out

    return _dense_counts(n, f((1 << n) - 1))


def edge_subset_type_counts(n: int, edges):
    """Signed subset counts by component-size type, same indexing as above."""
    width = n.bit_length()
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
        merged = key + (1 << (width * (sa + sb))) - (1 << (width * sa)) - (1 << (width * sb))
        parent[b] = a
        size[a] = sa + sb
        walk(e + 1, merged, -sign)
        parent[b] = b
        size[a] = sa

    walk(0, n << width, 1)
    return _dense_counts(n, tally)
