import math
import random
from collections import Counter

import pytest

from csftrees.partitions import (
    falling_factorial,
    mult_factorial,
    num_partitions,
    partitions_desc,
    rank_desc,
    unrank_desc,
)

# p(0)..p(14)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135]


def test_partitions_desc_golden():
    assert partitions_desc(0) == ((),)
    assert partitions_desc(1) == ((1,),)
    assert partitions_desc(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert partitions_desc(5)[0] == (5,)
    assert partitions_desc(5)[-1] == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("n", range(11))
def test_partitions_desc_properties(n):
    parts = partitions_desc(n)
    assert len(parts) == PARTITION_COUNTS[n] == num_partitions(n)
    assert len(set(parts)) == len(parts)
    for p in parts:
        assert sum(p) == n
        assert all(a >= b for a, b in zip(p, p[1:]))
        assert all(x >= 1 for x in p)
    assert list(parts) == sorted(parts, reverse=True)


@pytest.mark.parametrize("n", range(13))
def test_rank_unrank_roundtrip(n):
    for i, p in enumerate(partitions_desc(n)):
        assert rank_desc(p) == i
        assert unrank_desc(n, i) == p


def test_unrank_out_of_range():
    with pytest.raises(ValueError):
        unrank_desc(5, num_partitions(5))


@pytest.mark.parametrize("parts", [(1, 2), (2, 0)])
def test_rank_rejects_non_partitions(parts):
    with pytest.raises(ValueError):
        rank_desc(parts)


def test_num_partitions_rejects_negative():
    with pytest.raises(ValueError):
        num_partitions(-1)


def test_mult_factorial():
    assert mult_factorial(()) == 1
    assert mult_factorial((3,)) == 1
    assert mult_factorial((2, 2, 1)) == 2
    assert mult_factorial((1, 1, 1, 1)) == 24
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 12)
        p = rng.choice(partitions_desc(n))
        expect = math.prod(math.factorial(c) for c in Counter(p).values())
        assert mult_factorial(p) == expect


def test_falling_factorial():
    assert falling_factorial(5, 0) == 1
    assert falling_factorial(5, 3) == 60
    assert falling_factorial(3, 4) == 0  # runs through the zero factor
    for r in range(8):
        for k in range(r + 1):
            assert falling_factorial(r, k) == math.factorial(r) // math.factorial(r - k)
