"""Vandermonde alternants, Schur polynomials and Schur coefficient
extraction, in either regime: the regime, taken first, only picks the data.
A class is a plain `SparsePoly`, checked once where it is built by
`root_class`: symmetric (complex) or in the Euler-Pontryagin ring (real).

Coefficient extraction is exact: the torus integral behind a Schur
coefficient equals one coefficient of f multiplied by the plain (complex
case) or squared-variable (real case) Vandermonde alternant, because the
product is antisymmetric and its coefficients at permuted exponents agree up
to sign.  f is given as (factor, exponent) pairs, and never expanded:
`polynomial.kronecker_product` reads the product's coefficients at the k!
shifted targets from one packed int.  A floating trapezoidal quadrature
of the same integral, from the same pairs, is an independent oracle: on a
uniform torus grid the rule is exact for trigonometric polynomials once
the grid passes the bandwidth threshold, so the two routes must agree to
rounding.  The oracle reads no exact coefficient: it sums the same nodes
as products of one-dimensional node sums, one per axis of each monomial
of f * V_a * conj(V_b).  Since f is symmetric, V_a * conj(V_b) is read as
the k! shifts ga - eb over the terms of V_b alone, each sorted and
weighted by k!, with equal shifts merged (`_sorted_shifts`).  This module
checks the oracle's input and builds f and the shifts; the float sweep is
`asymptotics.torus_quadrature`, imported only when the oracle runs.
"""

import itertools
import math
import sys
from collections.abc import Sequence
from operator import sub

from .combinatorics import (InvalidLength, NotInRectangle, OutOfDomain, Partition, classify_partition, rank,
                            require_alternant_variables)
from .polynomial import MAX_PEAK_BYTES, MAX_WORK, ArityMismatch, SparsePoly, kronecker_product


class DegenerateAlternant(ValueError):
    """Alternant exponents are not strictly decreasing; the sum vanishes."""


class NotEvenOrOdd(OutOfDomain):
    """2k-partition is neither even nor odd; no real Schur class exists."""


class NotEulerPontryagin(ValueError):
    """Polynomial is outside the Euler-Pontryagin ring."""


# the most terms accepted for the division of a Schur polynomial: C(k, 2) binomials, each dividing at most
# max(k!, C(b + k - 1, k - 1)) terms, b the quotient's degree in y = x^s; in process on a 2-vCPU VM 5,4,3,2,1,0
# (2.3e5) took 0.04 s, 2,2,2,2,1,1,1,0 (1.1e6) 0.61 s, 6,5,4,3,2,1,0 (6.2e6) 0.87 s; 7,6,5,4,3,2,1,0 is 1.9e8
MAX_DIVISION_TERMS = 10**7
# the bytes each of the quotient's C(b + k - 1, k - 1) terms is priced at against polynomial.MAX_PEAK_BYTES: max-RSS
# less the interpreter's read 340-380 bytes a term in fresh runs of 250000,0 to 2000000,0, 2000,0,0 and 200,0,0,0
DIVISION_TERM_BYTES = 384


def delta(k: int) -> tuple[int, ...]:
    """The staircase (k-1, k-2, ..., 1, 0)."""
    return tuple(range(k - 1, -1, -1))


def vandermonde(gamma: Sequence[int], k: int) -> SparsePoly:
    """Alternating sum over S_k of sign(tau) * prod_i z_{tau(i)}^{gamma_i}."""
    gamma = tuple(int(g) for g in gamma)
    if len(gamma) != k:
        raise InvalidLength(f"exponent sequence length {len(gamma)} != k={k}")
    if any(g < 0 for g in gamma):
        raise DegenerateAlternant(f"negative exponent in {gamma}")
    if any(gamma[i] <= gamma[i + 1] for i in range(k - 1)):
        raise DegenerateAlternant(f"{gamma} is not strictly decreasing")
    # permutations and Lehmer codes both run in lexicographic order; a code's digit sum is the inversion count
    codes = itertools.product(*map(range, range(k, 0, -1)))
    terms = {}
    for perm, code in zip(itertools.permutations(range(k)), codes):
        e = [0] * k
        for p, g in zip(perm, gamma):
            e[p] = g
        terms[tuple(e)] = -1 if sum(code) % 2 else 1
    return SparsePoly._raw(k, terms)


def is_symmetric(poly: SparsePoly) -> bool:
    """Exact symmetry test: the terms are invariant under the generators of
    S_k, the transposition (1 2) and the cycle (1 2 ... k)."""
    terms = poly.terms
    return all(terms.get(e[1::-1] + e[2:]) == c == terms.get(e[1:] + e[:1]) for e, c in terms.items())


def in_euler_pontryagin(poly: SparsePoly) -> bool:
    """Membership test: symmetric, and each monomial all-even or all-odd."""
    for e in poly.terms:
        parity = e[0] % 2 if e else 0
        if any(x % 2 != parity for x in e):
            return False
    return is_symmetric(poly)


def root_class(regime: str, poly: SparsePoly) -> SparsePoly:
    """`poly`, unchanged, once checked to be a root polynomial of the regime:
    symmetric in the Chern roots (complex), or in the Euler-Pontryagin ring
    (real: symmetric, every monomial with all exponents even or all odd).
    An unknown regime is refused (OutOfDomain) first."""
    rank(regime, 1)  # refuses a regime outside REGIMES
    if regime == "real":
        if not in_euler_pontryagin(poly):
            raise NotEulerPontryagin("real root polynomial must lie in the Euler-Pontryagin ring")
    elif not is_symmetric(poly):
        raise ValueError("complex root polynomial must be symmetric")
    return poly


def _alternant_exponents(regime: str, alpha: Partition, k: int | None = None):
    """Alternant exponents ga = s*delta and target gb = beta + ga at the
    regime's scale s = rank(regime, 1), with beta = alpha[::s]: alpha itself
    (complex) or the half-length profile of an even or odd 2k-partition alpha
    (real).  alpha must fit k variables if given."""
    s = rank(regime, 1)
    if regime == "real" and classify_partition(alpha) == "neither":
        raise NotEvenOrOdd(f"{alpha.parts} is neither an even nor an odd partition")
    beta = alpha.parts[::s]
    require_alternant_variables(len(beta))
    if k is not None and len(beta) != k:
        raise InvalidLength(f"partition of length {len(alpha)} against {k} variables ({regime} regime)")
    ga = tuple(s * x for x in delta(len(beta)))
    return ga, tuple(a + b for a, b in zip(beta, ga))


def _divide_binomial(terms, i: int, j: int):
    """Quotient of the polynomial {exponents: coefficient} `terms` by x_i - x_j, i < j.  In a slice of
    fixed e_i + e_j = n and every other exponent, its coefficient at x_i^(a-1) x_j^(n-a) is the running
    sum of the dividend's at x_i^b, b >= a; a slice whose sum ends nonzero raises ValueError."""
    slices = {}
    for e, c in terms.items():
        key = list(e)
        key[i], key[j] = e[i] + e[j], 0
        slices.setdefault(tuple(key), {})[e[i]] = c
    quotient = {}
    for key, column in slices.items():
        e, n, total = list(key), key[i], 0
        for a in range(max(column), 0, -1):
            total += column.get(a, 0)
            if total:
                e[i], e[j] = a - 1, n - a
                quotient[tuple(e)] = total
        if total + column.get(0, 0):
            raise ValueError(f"the dividend is not a multiple of x{i + 1} - x{j + 1}")
    return quotient


def schur_polynomial(regime: str, alpha: Partition) -> SparsePoly:
    """Schur polynomial as a bialternant quotient: V_{alpha+delta} / V_delta
    in len(alpha) variables (complex), or, for an even or odd 2k-partition,
    V_{beta+2delta} / V_{2delta} in k variables with beta the half-length
    profile of alpha (real).  Less (x_1...x_k)^(gb_k), the numerator is an
    alternant in y = x^s, divided by V_{s delta} = prod_{i<j} (y_i - y_j)
    one binomial at a time.  A division that may touch more than
    MAX_DIVISION_TERMS terms, or whose quotient's terms would take more than
    MAX_PEAK_BYTES at DIVISION_TERM_BYTES each, is refused (OutOfDomain)
    before it starts."""
    ga, gb = _alternant_exponents(regime, alpha)
    k, s, low = len(ga), rank(regime, 1), min(gb, default=0)
    b = (sum(gb) - sum(ga) - k * low) // s
    held = math.comb(b + k - 1, k - 1) if k else 0
    touched = math.comb(k, 2) * max(math.factorial(k), held)
    if touched > MAX_DIVISION_TERMS or held * DIVISION_TERM_BYTES > MAX_PEAK_BYTES:
        raise OutOfDomain(f"the Schur division of {alpha.parts} may touch {touched} terms and hold {held}, above "
                          f"{MAX_DIVISION_TERMS} or {MAX_PEAK_BYTES >> 20} MiB at {DIVISION_TERM_BYTES} bytes a term")
    terms = vandermonde([(g - low) // s for g in gb], k).terms
    for i, j in itertools.combinations(range(k), 2):
        terms = _divide_binomial(terms, i, j)
    return root_class(regime, SparsePoly._raw(k, {tuple(low + s * x for x in e): c for e, c in terms.items()}))


def _alternant_coefficient(factors: Sequence[tuple[SparsePoly, int]], target: tuple[int, ...], van: SparsePoly) -> int:
    """Coefficient of x^target in f * van, f given as (factor, exponent) pairs:
    the sum over the terms c*x^e of van of c times the coefficient of
    x^(target - e) in f, all read from one `kronecker_product`."""
    shifted = {tuple(map(sub, target, e)): c for e, c in van.terms.items()}
    coefficients = kronecker_product(factors, len(target), list(shifted))
    return sum(c * coefficients[s] for s, c in shifted.items())


def schur_coefficient(regime: str, factors: Sequence[tuple[SparsePoly, int]], alpha: Partition) -> int:
    """Exact Schur coefficient of f, given as (factor, exponent) pairs: the
    coefficient of z^{alpha+delta} in f*V_delta (complex), or of
    x^{beta+2delta} in f*V_{2delta} for an even or odd 2k-partition alpha with
    half-length profile beta (real, pinned only up to a global sign by
    orientation conventions).  The product is never built; a polynomial f is
    passed as [(f, 1)]."""
    ga, gb = _alternant_exponents(regime, alpha, factors[0][0].nvars if factors else None)
    return _alternant_coefficient(factors, gb, vandermonde(ga, len(ga)))


def duality_pairing(alpha: Partition, beta: Partition, m: int, k: int) -> int:
    """Pairing of two Schubert classes against the k x m fundamental class.

    Equals 1 exactly when alpha and beta are m-complementary, else 0.
    """
    if len(alpha) != k or len(beta) != k:
        raise InvalidLength("both partitions must have length k")
    if (k and alpha[0] > m) or (k and beta[0] > m):
        raise NotInRectangle(f"partitions must fit in the {k}x{m} rectangle")
    factors = [(schur_polynomial("complex", alpha), 1), (schur_polynomial("complex", beta), 1)]
    return schur_coefficient("complex", factors, Partition.constant(m, k))


# -- numeric quadrature oracle -------------------------------------------------

def _sorted_shifts(ga, vb):
    """The monomials of V_a * conj(V_b) against a symmetric f, as the shifts
    ga - eb over the terms {exponents: sign} `vb` of V_b, each sorted, equal
    shifts merged and cancelled ones dropped, each weighted by k!.  Sorting is
    exact on the uniform grid: permuting a shift permutes the axes of the node
    sum of f * z^shift, so the pair of terms (sigma ga, tau gb) sums as
    (ga, sigma^-1 tau gb), and each term of V_b stands for k! pairs."""
    weight = math.factorial(len(ga))
    shifts = {}
    for eb, sign in vb.items():
        shift = tuple(sorted(map(sub, ga, eb)))
        shifts[shift] = shifts.get(shift, 0) + weight * sign
    return {shift: w for shift, w in shifts.items() if w}


# a float product of the quadrature's sweep took 80-100 ns (in process, on a 2-vCPU VM), so each is priced at
# 100 units of work, about 1 ns each as in the packed engine, against the same budget, MAX_WORK
SWEEP_UNITS = 100


def numeric_schur_coefficient(regime: str, factors: Sequence[tuple[SparsePoly, int]], alpha: Partition,
                              grid: int | None = None) -> complex:
    """Trapezoidal torus quadrature of the Schur-coefficient integral of f,
    given as (factor, exponent) pairs in k variables, as in `schur_coefficient`.

    The rule is exact for the integrand (up to floating rounding) once the
    grid passes its per-axis frequencies [-gb_1, E + ga_1 - gb_k]: ga, gb the
    alternant exponents, E = max hi_a, hi_a the sum of m times each factor's
    largest exponent on axis a.  That threshold is the default grid; grids
    below it or above MAX_GRID are refused.  f is symmetric and the grid is
    the same on every axis, so V_a * conj(V_b) is read from the terms of V_b
    alone (`_sorted_shifts`: 16 of the 24 remain at k = 4).  The sweep's
    (shifts) x (terms of f) x k float products, SWEEP_UNITS units each, are
    priced against MAX_WORK, f's terms bounded by the exponent vectors of its
    degree D (the sum of m * deg) with each e_a at most hi_a (never more than
    C(D + k - 1, k - 1)); an f whose lex-leading coefficient, the product of
    each factor's to the m, is past the float range is refused.  All of this
    runs before f is built as an open box, checked symmetric (complex) or in
    the Euler-Pontryagin ring (real); any other coefficient past the float
    range is refused after that.  A zero product gives 0j.
    """
    from .asymptotics import MAX_GRID, torus_quadrature  # the float module, loaded only by the oracle

    ga, gb = _alternant_exponents(regime, alpha, factors[0][0].nvars if factors else None)
    k, factors = len(ga), [(f, m) for f, m in factors if m]
    if any(f.nvars != k for f, _ in factors):
        raise ArityMismatch(f"factors must have {k} variables")
    zero = not all(f for f, _ in factors)
    hi = [0 if zero else sum(m * max(e[a] for e in f.terms) for f, m in factors) for a in range(k)]
    sharp = max(gb[0], max(hi, default=0) + ga[0] - gb[-1]) + 1
    grid = sharp if grid is None else grid
    if grid < sharp:
        raise OutOfDomain(f"grid {grid} below the exactness threshold {sharp}")
    if grid > MAX_GRID:
        raise OutOfDomain(f"grid {grid} above the largest accepted grid {MAX_GRID}")
    if zero:
        return 0j
    shifts = _sorted_shifts(ga, vandermonde(gb, k).terms)
    # ways[t]: the exponent vectors on the axes so far that sum to t, each entry at most its hi_a
    total = sum(m * f.degree() for f, m in factors)
    ways = [1] + [0] * total
    for h in hi:
        run = [0, *itertools.accumulate(ways)]
        ways = [run[t + 1] - run[max(t - h, 0)] for t in range(total + 1)]
    products = len(shifts) * ways[total] * k
    if products * SWEEP_UNITS > MAX_WORK:
        raise OutOfDomain(f"the quadrature's sweep may take 10^{math.log10(products):.1f} float products, "
                          f"{SWEEP_UNITS} units of work each, above {MAX_WORK:.0e}")
    if abs(math.prod(f.terms[max(f.terms)] ** m for f, m in factors)) > sys.float_info.max:
        raise OutOfDomain("the leading coefficient of f exceeds the float range; the oracle cannot weigh it")
    f = root_class(regime, SparsePoly._raw(k, kronecker_product(factors, k))).terms
    if max(map(abs, f.values()), default=0) > sys.float_info.max:
        raise OutOfDomain("a coefficient of f exceeds the float range; the oracle cannot weigh it")
    return torus_quadrature(f, shifts, grid)
