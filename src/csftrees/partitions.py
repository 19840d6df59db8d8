"""Integer partition utilities.

Partitions of n are tuples of positive ints in weakly decreasing order. The
canonical ordering everywhere in this package is *descending lexicographic*:
(n) first, (1,)*n last. Ranks refer to positions in that order.

The counting table C with C[m][k] = #{partitions of m with all parts <= k}
drives both ranking (partition -> dense index) and unranking.

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


@lru_cache(maxsize=None)
def count_table(nmax: int) -> tuple[tuple[int, ...], ...]:
    """(nmax+1) x (nmax+1) table of ints; entry [m][k] counts partitions of m
    into parts of size at most k."""
    c = [[1] * (nmax + 1)]
    for m in range(1, nmax + 1):
        row = [0] * (nmax + 1)
        for k in range(1, nmax + 1):
            row[k] = row[k - 1] + (c[m - k][k] if m >= k else 0)
        c.append(row)
    return tuple(map(tuple, c))


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
    return count_table(n)[n][n] if n > 0 else 1


def rank_desc(parts: tuple[int, ...]) -> int:
    """Index of `parts` within partitions_desc(sum(parts))."""
    n = sum(parts)
    table = count_table(max(n, 1))
    rank = 0
    m = n
    bound = n
    for part in parts:
        # count partitions of m (parts <= bound) whose first part exceeds `part`
        for t in range(part + 1, min(bound, m) + 1):
            rank += table[m - t][t]
        bound = part
        m -= part
    return rank


def unrank_desc(n: int, rank: int) -> tuple[int, ...]:
    """Inverse of rank_desc for partitions of n."""
    table = count_table(max(n, 1))
    parts: list[int] = []
    m = n
    bound = n
    while m > 0:
        for t in range(min(bound, m), 0, -1):
            cnt = table[m - t][t]  # partitions with first part exactly t
            if rank < cnt:
                parts.append(t)
                bound = t
                m -= t
                break
            rank -= cnt
        else:
            raise ValueError("rank out of range")
    if rank != 0:
        raise ValueError("rank out of range")
    return tuple(parts)


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
    out = 1
    for i in range(length):
        out *= r - i
    return out
