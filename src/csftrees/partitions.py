"""Integer partition utilities, and the packed layout of the CSF layer.

Partitions of n are tuples of positive ints in weakly decreasing order. The
canonical ordering everywhere in this package is *descending lexicographic*:
(n) first, (1,)*n last. partitions_desc is the one place that order is
built; counts, ranks and unranks are lookups into it.

Packed layout: the tree DP, both kernels and the change of basis key a
multiset of sizes by one int of fields n.bit_length() bits wide, field c
holding the number of sizes equal to c. Adding a size c is adding unit[c],
and merging two multisets is adding their keys. Field 0 is free for a
caller's own use (the tree DP keeps its open component there). Only this
module builds the layout (packed_layout) or decodes a key (packed_terms,
to canonical terms: ((partition, coefficient), ...), descending, no zero).
"""

from __future__ import annotations

from functools import lru_cache
from math import perm

from .errors import InternalError


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
def packed_layout(n: int) -> tuple[int, int, tuple[int, ...]]:
    """(width, mask, unit) for weight n: the field width, the mask of field
    0, and unit[c] = 1 << (width * c) for c = 0..n."""
    width = n.bit_length()
    return width, (1 << width) - 1, tuple(1 << (width * c) for c in range(n + 1))


@lru_cache(maxsize=None)
def _partition_keys(n: int) -> dict[int, tuple[int, ...]]:
    """Packed key (field 0 empty) -> partition, for every partition of n."""
    unit = packed_layout(n)[2]
    return {sum(unit[x] for x in parts): parts for parts in partitions_desc(n)}


def packed_terms(n: int, tally: dict[int, int]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The canonical terms of a tally keyed by packed partitions of n. With
    field 0 empty, larger keys are the larger partitions in descending
    lexicographic order. Any other key is an InternalError."""
    decode = _partition_keys(n)
    if not tally.keys() <= decode.keys():
        raise InternalError(f"a packed key is not a partition of {n}")
    return tuple((decode[key], tally[key]) for key in sorted(tally, reverse=True) if tally[key])


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
