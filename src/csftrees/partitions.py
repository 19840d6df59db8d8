"""Integer partition utilities.

Partitions of n are tuples of positive ints in weakly decreasing order. The
canonical ordering everywhere in this package is *descending lexicographic*:
(n) first, (1,)*n last. partitions_desc is the one place that order is
built; counts, ranks and unranks are lookups into it.

Packed layout: the tree DP, both kernels and the change of basis key a
multiset of sizes by one int of fields n.bit_length() bits wide, field c
holding the number of sizes equal to c. Adding a size c is adding 1 << (width
* c), and merging two multisets is adding their keys. Field 0 is free for a
caller's own use (the tree DP keeps its open component there); with it
empty, larger keys are larger partitions in descending lexicographic order.
partition_keys decodes such keys.
"""

from __future__ import annotations

from functools import lru_cache
from math import perm


@lru_cache(maxsize=None)
def partitions_desc(n: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of n in descending lexicographic order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[tuple[int, ...]] = []

    def rec(m: int, bound: int, prefix: tuple[int, ...]) -> None:
        if m == 0:
            out.append(prefix)
            return
        for part in range(min(m, bound), 0, -1):
            rec(m - part, part, prefix + (part,))

    rec(n, n, ())
    return tuple(out)


@lru_cache(maxsize=None)
def partition_keys(n: int) -> dict[int, tuple[int, ...]]:
    """Packed key (field 0 empty) -> partition, for every partition of n,
    in partitions_desc order."""
    width = n.bit_length()
    return {sum(1 << (width * x) for x in parts): parts for parts in partitions_desc(n)}


def num_partitions(n: int) -> int:
    return len(partitions_desc(n))


def rank_desc(parts: tuple[int, ...]) -> int:
    """Index of `parts` within partitions_desc(sum(parts)); ValueError if it
    is not listed there."""
    return partitions_desc(sum(parts)).index(tuple(parts))


def unrank_desc(n: int, rank: int) -> tuple[int, ...]:
    """Inverse of rank_desc for partitions of n."""
    parts = partitions_desc(n)
    if not 0 <= rank < len(parts):
        raise ValueError("rank out of range")
    return parts[rank]


def mult_factorial(parts: tuple[int, ...]) -> int:
    """Product of factorials of part multiplicities: (2,2,1) -> 2!*1! = 2."""
    out = 1
    run = 1
    for i in range(1, len(parts)):
        if parts[i] == parts[i - 1]:
            run += 1
            out *= run
        else:
            run = 1
    return out


def falling_factorial(r: int, length: int) -> int:
    """r * (r-1) * ... * (r-length+1), exact; 1 when length == 0."""
    return perm(r, length)
