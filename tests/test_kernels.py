"""The torus quadrature kernel, `schur.torus_quadrature`, against a node by
node sum and against a line table summed per exponent, and its sorted-shift
table against the expanded one, unsorted and sorted."""

import cmath
import itertools
import math
import random
from operator import mul, sub

import pytest

from helpers import threshold_from_terms
from schubertcount.combinatorics import Partition
from schubertcount.counts import linear_factors, root_poly
from schubertcount.schur import (
    _alternant_exponents,
    _sorted_shifts,
    numeric_schur_coefficient,
    root_of_unity,
    torus_quadrature,
    vandermonde,
)


def _expanded_shifts(va, vb, sort=False):
    """The monomials z^(ea - eb) of V_a * conj(V_b) over all k!^2 pairs of
    terms of the alternants {exponents: sign} `va` and `vb`, each shift as it
    is or sorted: equal shifts merged by adding their signs, cancelled ones
    dropped."""
    shifts = {}
    for ea, sign_a in va.items():
        for eb, sign_b in vb.items():
            shift = map(sub, ea, eb)
            shift = tuple(sorted(shift) if sort else shift)
            shifts[shift] = shifts.get(shift, 0) + sign_a * sign_b
    return {shift: sign for shift, sign in shifts.items() if sign}


def _quadrature_case(k, spower, seed):
    """A random small integer f in k variables, with per-axis degrees 2 or 3
    so that the axes differ in length, alternant exponents
    gb = spower * delta + a partition, and the signed permutations of S_k."""
    rng = random.Random(seed)
    terms = {}
    for _ in range(3 * k):
        terms[tuple(rng.randint(0, 2 + i % 2) for i in range(k))] = rng.choice((-3, -2, -1, 1, 2, 3))
    parts = sorted((rng.randint(0, 3) for _ in range(k)), reverse=True)
    gb = tuple(p + spower * (k - 1 - i) for i, p in enumerate(parts))
    perm_data = []
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        perm_data.append((perm, -1 if inv % 2 else 1))
    return terms, gb, perm_data


def _pointwise_quadrature(terms, gb, perm_data, spower, g):
    """The trapezoidal sum of f * V_a * conj(V_b) / k! node by node, in plain
    Python complex arithmetic."""
    k = len(gb)
    nodes = [cmath.exp(2j * cmath.pi * t / g) for t in range(g)]
    total = 0j
    for idx in itertools.product(range(g), repeat=k):
        z = [nodes[t] for t in idx]
        f = 0j
        for e, c in terms.items():
            term = complex(c)
            for zi, ei in zip(z, e):
                term *= zi**ei
            f += term
        va = 1 + 0j
        for i in range(k):
            for j in range(i + 1, k):
                va *= z[i] ** spower - z[j] ** spower
        vb = 0j
        for perm, sign in perm_data:
            term = complex(sign)
            for i in range(k):
                term *= z[perm[i]] ** gb[i]
            vb += term
        total += f * va * vb.conjugate()
    return total / (math.factorial(k) * g**k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("spower", [1, 2])
@pytest.mark.parametrize("above", [0, 1])
def test_torus_quadrature_against_pointwise(k, spower, above):
    terms, gb, perm_data = _quadrature_case(k, spower, seed=47)  # every value nonzero, axes 1.. of unequal length
    max_exponents = tuple(max(e[i] for e in terms) for i in range(k))
    ga = tuple(spower * (k - 1 - i) for i in range(k))
    # the exactness threshold, the default grid of `schur.numeric_schur_coefficient`
    g = max(gb[0], max(max_exponents) + ga[0] - gb[-1]) + 1 + above
    ref = _pointwise_quadrature(terms, gb, perm_data, spower, g)
    # f is not symmetric, so its shifts are passed unsorted
    out = torus_quadrature(terms, _expanded_shifts(vandermonde(ga, k).terms, vandermonde(gb, k).terms), g)
    assert abs(ref) > 0.1
    assert k < 3 or len(set(max_exponents[1:])) > 1
    assert abs(out - ref) <= 1e-9 * max(1.0, abs(ref)), (out, ref)


# every root polynomial that a `lambda --numeric` of the benchmark or the README runs
SORTED_SHIFT_CASES = [
    ("complex", 3, 4, (5, 5, 5, 5), None),
    ("complex", 3, 4, (5, 5, 5, 5), 61),
    ("real", 5, 2, (14, 14, 14, 14), None),
    ("real", 3, 2, (5, 5, 5, 5), None),
    ("complex", 3, 2, (2, 2), None),
]


@pytest.mark.parametrize("regime,d,k,parts,grid", SORTED_SHIFT_CASES,
                         ids=[f"{r}-{d}-{k}-{','.join(map(str, p))}-grid{g}" for r, d, k, p, g in SORTED_SHIFT_CASES])
def test_sorted_shifts_match_expanded_shifts(regime, d, k, parts, grid):
    f, alpha = root_poly(regime, d, k), Partition(parts)
    ga, gb = _alternant_exponents(regime, alpha, k)
    va, vb = vandermonde(ga, k).terms, vandermonde(gb, k).terms
    grid = grid or threshold_from_terms(regime, f.poly.terms, parts)
    sorted_shifts, expanded_shifts = _sorted_shifts(ga, vb), _expanded_shifts(va, vb)
    assert all(list(s) == sorted(s) for s in sorted_shifts)
    assert len(sorted_shifts) < len(expanded_shifts)
    merged = torus_quadrature(f.poly.terms, sorted_shifts, grid)
    expanded = torus_quadrature(f.poly.terms, expanded_shifts, grid)
    assert abs(expanded) > 1.0
    assert abs(merged - expanded) <= 1e-12 * abs(expanded), (merged, expanded)
    assert numeric_schur_coefficient(regime, linear_factors(regime, d, k), alpha, grid=grid) == merged


# the alternants of every SORTED_SHIFT_CASES row (the grid plays no part), then complex k = 5 and 6 and real k = 3
# and 4
PAIRWISE_CASES = list(dict.fromkeys((regime, parts) for regime, _, _, parts, _ in SORTED_SHIFT_CASES)) + [
    ("complex", (3, 2, 2, 1, 0)),
    ("complex", (4, 3, 3, 1, 1, 0)),
    ("real", (4, 4, 2, 2, 0, 0)),
    ("real", (5, 5, 3, 3, 1, 1, 1, 1)),
]


@pytest.mark.parametrize("regime,parts", PAIRWISE_CASES,
                         ids=[f"{r}-{','.join(map(str, p))}" for r, p in PAIRWISE_CASES])
def test_sorted_shifts_match_pairwise_shifts(regime, parts):
    # one term of V_b weighted by k! stands for the k! pairs of terms with its sorted shift: the same
    # table, key for key, in the same order, with the same integer weights
    ga, gb = _alternant_exponents(regime, Partition(parts))
    k = len(ga)
    pairwise = _expanded_shifts(vandermonde(ga, k).terms, vandermonde(gb, k).terms, sort=True)
    assert list(_sorted_shifts(ga, vandermonde(gb, k).terms).items()) == list(pairwise.items())


def _per_exponent_quadrature(terms, shifts, grid):
    """`torus_quadrature` with a grid-long sum of roots for every exponent u
    in lo…hi of its line table, instead of one per residue u mod grid."""
    columns = list(zip(*terms))
    lo = min(map(min, shifts))
    hi = max(map(max, columns)) + max(map(max, shifts))
    roots = [root_of_unity(t, grid) for t in range(grid)]
    line = [sum(roots[t * u % grid] for t in range(grid)) for u in range(lo, hi + 1)]
    coeffs = [float(c) for c in terms.values()]
    total = 0j
    for shift, sign in shifts.items():
        values = coeffs
        for column, s in zip(columns, shift):
            values = map(mul, values, map(line[s - lo:].__getitem__, column))
        total += sign * sum(values)
    return total / (math.factorial(len(columns)) * grid ** len(columns))


# at the default grid every exponent range is wider than the grid, so the line table wraps:
# real (11,2) at α 91⁴ spans 166 exponents at grid 94
PER_RESIDUE_CASES = [("real", 11, 2, (91, 91, 91, 91))] + [case[:4] for case in SORTED_SHIFT_CASES if case[4] is None]


@pytest.mark.parametrize("regime,d,k,parts", PER_RESIDUE_CASES,
                         ids=[f"{r}-{d}-{k}-{','.join(map(str, p))}" for r, d, k, p in PER_RESIDUE_CASES])
def test_line_table_per_residue_matches_per_exponent(regime, d, k, parts):
    f, alpha = root_poly(regime, d, k), Partition(parts)
    ga, gb = _alternant_exponents(regime, alpha, k)
    shifts = _sorted_shifts(ga, vandermonde(gb, k).terms)
    grid = threshold_from_terms(regime, f.poly.terms, parts)
    span = max(max(e) for e in f.poly.terms) + max(map(max, shifts)) - min(map(min, shifts)) + 1
    assert span > grid
    assert torus_quadrature(f.poly.terms, shifts, grid) == _per_exponent_quadrature(f.poly.terms, shifts, grid)
