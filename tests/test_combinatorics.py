import random
from math import comb

import pytest

from schubertcount.combinatorics import (
    InvalidLength,
    NotInRectangle,
    Partition,
    catalan,
    classify_partition,
    complement,
    compositions,
    feasibility,
)


def test_partition_validation():
    Partition((3, 2, 2, 0))
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))
    assert Partition.constant(4, 3).parts == (4, 4, 4)
    assert Partition((5, 1)).size() == 6
    assert len(Partition((0, 0))) == 2


def test_partition_is_an_immutable_value():
    a = Partition((3, 1, 0))
    assert a == Partition([3, 1, 0]) and hash(a) == hash(Partition([3, 1, 0]))
    assert a != Partition((3, 1)) and a != (3, 1, 0)
    assert {a: "x"}[Partition((3, 1, 0))] == "x"
    with pytest.raises(AttributeError):
        a.parts = (4, 1, 0)
    assert a.parts == (3, 1, 0)
    with pytest.raises(ValueError, match=r"^negative part in \(2, -1\)$"):
        Partition((2, -1))
    with pytest.raises(ValueError, match=r"^not weakly decreasing: \(1, 2\)$"):
        Partition((1, 2))


def test_compositions_examples():
    assert compositions(1, 2) == [(1, 0), (0, 1)]
    assert len(compositions(3, 4)) == 20 == comb(6, 3)
    assert compositions(0, 3) == [(0, 0, 0)]
    # more parts than the interpreter's recursion limit
    deep = compositions(1, 1000)
    assert len(deep) == 1000 and deep[0] == (1,) + (0,) * 999 and deep[-1] == (0,) * 999 + (1,)


def test_compositions_order_and_cardinality():
    for d in range(13):
        for k in range(1, 7):
            comps = compositions(d, k)
            assert len(comps) == comb(d + k - 1, k - 1)
            assert comps == sorted(comps, reverse=True), (d, k)
            assert all(sum(c) == d for c in comps)


def test_classify_partition_examples():
    assert classify_partition(Partition((4, 4, 2, 2))) == "even"
    assert classify_partition(Partition((5, 5, 3, 3))) == "odd"
    assert classify_partition(Partition((3, 2, 1, 0))) == "neither"
    with pytest.raises(InvalidLength):
        classify_partition(Partition((2, 1, 0)))


def test_classify_partition_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 5)
        beta = tuple(sorted((rng.randint(0, 6) for _ in range(k)), reverse=True))
        even = Partition(tuple(x for b in beta for x in (2 * b, 2 * b)))
        odd = Partition(tuple(x for b in beta for x in (2 * b + 1, 2 * b + 1)))
        assert classify_partition(even) == "even"
        assert classify_partition(odd) == "odd"


def test_complement_examples():
    assert complement(Partition((2, 2, 0, 0)), 2, 4) == Partition((2, 2, 0, 0))
    assert complement(Partition((3, 1)), 3, 2) == Partition((2, 0))
    assert complement(Partition((0, 0)), 5, 2) == Partition((5, 5))
    with pytest.raises(NotInRectangle):
        complement(Partition((4, 0)), 3, 2)
    with pytest.raises(InvalidLength):
        complement(Partition((1, 0)), 3, 3)


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(300):
        k = rng.randint(1, 5)
        m = rng.randint(0, 6)
        alpha = Partition(tuple(sorted((rng.randint(0, m) for _ in range(k)), reverse=True)))
        assert complement(complement(alpha, m, k), m, k) == alpha


def test_catalan():
    assert catalan(0) == 1
    assert catalan(3) == 5
    assert catalan(5) == 42
    for n in range(31):
        assert catalan(n) == comb(2 * n, n) - comb(2 * n, n + 1)


def test_feasibility():
    f = feasibility(3, 4, "complex")
    assert f.feasible and f.m == 5 and f.odd_degree is None
    f = feasibility(5, 2, "real")
    assert f.feasible and f.m == 14 and f.odd_degree is True
    f = feasibility(3, 3, "real")
    assert not f.feasible and f.m is None
    f = feasibility(2, 2, "complex")
    assert not f.feasible
    f = feasibility(2, 2, "real")
    assert f.odd_degree is False
    with pytest.raises(ValueError):
        feasibility(0, 2, "real")
    with pytest.raises(ValueError):
        feasibility(3, 2, "rational")
