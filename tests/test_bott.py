"""The plane counts against Bott's residue formula (`bott.py`), which reads no code of the package.

Each residue sum is exact (`Fraction`), so each comparison is an equality of integers.  Complex sums equal the
count.  A real sum is 2 * (-1)^(k * C(m, 2)) times the signed Schur coefficient that the engine reads before it
takes the absolute value: the sign is that of the chosen forms and orientations, not of the count, and this rule
is the one every case below (and real (11,2), (3,4), (13,1) and (15,1) when it was found) follows.
"""

import math

import pytest

from bott import complex_bott, dimension_m, real_bott
from schubertcount.combinatorics import Partition
from schubertcount.counts import linear_factors, plane_count
from schubertcount.schur import schur_coefficient

# (d, k, published count): lines on the cubic surface and the quintic threefold, the plane in P^3, planes on the
# quartic fivefold, and 3-planes on the cubic in P^8
COMPLEX_CASES = [(3, 2, 27), (5, 2, 2875), (1, 3, 1), (4, 3, 3297280), (3, 4, 321489)]


@pytest.mark.parametrize("d,k,published", COMPLEX_CASES)
def test_complex_counts_match_bott(d, k, published):
    report = plane_count("complex", d, k)
    assert report.m == dimension_m(d, k)
    assert complex_bott(d, k) == report.value == published


# real (d,1) is d!! for odd d; then 3-planes at d = 3, 5, 7
REAL_CASES = [(d, 1) for d in (1, 3, 5, 7, 9)] + [(3, 2), (5, 2), (7, 2)]


@pytest.mark.parametrize("d,k", REAL_CASES)
def test_real_counts_match_bott(d, k):
    report, m, total = plane_count("real", d, k), dimension_m(d, 2 * k), real_bott(d, k)
    assert report.m == m
    assert abs(total) == 2 * report.value
    signed = schur_coefficient("real", linear_factors("real", d, k), Partition.constant(m, 2 * k))
    assert total == 2 * (-1) ** (k * math.comb(m, 2)) * signed
    if k == 1:
        assert report.value == math.prod(range(d, 0, -2))
