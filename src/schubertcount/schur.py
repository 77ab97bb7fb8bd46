"""Vandermonde alternants, Schur polynomials and Schur coefficient
extraction, in either regime: the regime, taken first, only picks the data.

Coefficient extraction is exact: the torus integral behind a Schur
coefficient equals one coefficient of f multiplied by the plain (complex
case) or squared-variable (real case) Vandermonde alternant, because the
product is antisymmetric and its coefficients at permuted exponents agree up
to sign.  f is given as a list of its factors, which is never expanded:
`polynomial.kronecker_product` multiplies them into one packed int, a
signed slot per monomial in the box of the k! shifted targets, cleared of
the monomials past that box once per factor.  A floating
trapezoidal quadrature of the same integral is kept as an independent
oracle: on a uniform torus grid the rule is exact for trigonometric
polynomials once the grid passes the bandwidth threshold, so the two routes
must agree to rounding.  The oracle reads no exact coefficient: it sums the
same nodes as products of one-dimensional node sums, one per axis of each
monomial of f * V_a * conj(V_b), with the terms of the two alternants
expanded pairwise into shifts that are sorted and merged, since f is
symmetric (`torus_quadrature`, in plain Python).
"""

from __future__ import annotations

import itertools
import math
import sys
from operator import mul, sub
from typing import Optional, Sequence, Tuple

from .combinatorics import InvalidLength, NotInRectangle, OutOfDomain, Partition, classify_partition, rank
from .polynomial import SparsePoly, exact_div, kronecker_product


class DegenerateAlternant(ValueError):
    """Alternant exponents are not strictly decreasing; the sum vanishes."""


class NotEvenOrOdd(OutOfDomain):
    """2k-partition is neither even nor odd; no real Schur class exists."""


class NotEulerPontryagin(ValueError):
    """Polynomial is outside the Euler-Pontryagin ring."""


def delta(k: int) -> Tuple[int, ...]:
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
    terms = {}
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        e = [0] * k
        for i in range(k):
            e[perm[i]] = gamma[i]
        terms[tuple(e)] = -1 if inv % 2 else 1
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


class RootPolynomial:
    """A cohomology class represented by its root polynomial.

    Complex regime: symmetric polynomial in the Chern roots z_i.  Real
    regime: member of the Euler-Pontryagin ring (symmetric, every monomial
    with all exponents even or all odd).  Immutable, compared by value.
    """

    __slots__ = ("poly", "regime")

    def __init__(self, poly: SparsePoly, regime: str) -> None:
        rank(regime, 1)  # refuses a regime outside REGIMES
        if regime == "real":
            if not in_euler_pontryagin(poly):
                raise NotEulerPontryagin(
                    "real root polynomial must lie in the Euler-Pontryagin ring"
                )
        elif not is_symmetric(poly):
            raise ValueError("complex root polynomial must be symmetric")
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "regime", regime)

    def __setattr__(self, name, value):
        raise AttributeError("RootPolynomial is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootPolynomial):
            return NotImplemented
        return self.poly == other.poly and self.regime == other.regime

    def __repr__(self) -> str:
        return f"RootPolynomial(poly={self.poly!r}, regime={self.regime!r})"

    @property
    def variables(self) -> int:
        return self.poly.nvars

    def degree(self) -> int:
        return self.poly.degree()


def _alternant_exponents(regime: str, alpha: Partition, k: Optional[int] = None):
    """Alternant exponents ga = s*delta and target gb = beta + ga at the
    regime's scale s = rank(regime, 1), with beta = alpha[::s]: alpha itself
    (complex) or the half-length profile of an even or odd 2k-partition alpha
    (real).  alpha must fit k variables if given."""
    s = rank(regime, 1)
    if regime == "real" and classify_partition(alpha) == "neither":
        raise NotEvenOrOdd(f"{alpha.parts} is neither an even nor an odd partition")
    beta = alpha.parts[::s]
    if k is not None and len(beta) != k:
        raise InvalidLength(f"partition of length {len(alpha)} against {k} variables ({regime} regime)")
    ga = tuple(s * x for x in delta(len(beta)))
    return ga, tuple(a + b for a, b in zip(beta, ga))


def schur_polynomial(regime: str, alpha: Partition) -> RootPolynomial:
    """Schur polynomial as a bialternant quotient: V_{alpha+delta} / V_delta
    in len(alpha) variables (complex), or, for an even or odd 2k-partition,
    V_{beta+2delta} / V_{2delta} in k variables with beta the half-length
    profile of alpha (real)."""
    ga, gb = _alternant_exponents(regime, alpha)
    return RootPolynomial(exact_div(vandermonde(gb, len(gb)), vandermonde(ga, len(ga))), regime)


def _alternant_coefficient(factors: Sequence[SparsePoly], target: Tuple[int, ...], van: SparsePoly) -> int:
    """Coefficient of x^target in prod(factors) * van: the sum over the terms
    c*x^e of van of c times the coefficient of x^(target - e) in the product,
    all read from one `kronecker_product` of the factors."""
    shifted = {}
    for e, c in van.terms.items():
        s = tuple(map(sub, target, e))
        if min(s, default=0) >= 0:
            shifted[s] = c
    coefficients = kronecker_product(factors, len(target), list(shifted))
    return sum(c * coefficients[s] for s, c in shifted.items())


def schur_coefficient(regime: str, factors: Sequence[SparsePoly], alpha: Partition) -> int:
    """Exact Schur coefficient of f = prod(factors): the coefficient of
    z^{alpha+delta} in f*V_delta (complex), or of x^{beta+2delta} in
    f*V_{2delta} for an even or odd 2k-partition alpha with half-length
    profile beta (real, pinned only up to a global sign by orientation
    conventions).  The factors are taken as they are, since their product is
    never built; a polynomial f is passed as [f]."""
    ga, gb = _alternant_exponents(regime, alpha, factors[0].nvars if factors else None)
    return _alternant_coefficient(factors, gb, vandermonde(ga, len(ga)))


def duality_pairing(alpha: Partition, beta: Partition, m: int, k: int) -> int:
    """Pairing of two Schubert classes against the k x m fundamental class.

    Equals 1 exactly when alpha and beta are m-complementary, else 0.
    """
    if len(alpha) != k or len(beta) != k:
        raise InvalidLength("both partitions must have length k")
    if (k and alpha[0] > m) or (k and beta[0] > m):
        raise NotInRectangle(f"partitions must fit in the {k}x{m} rectangle")
    factors = [schur_polynomial("complex", alpha).poly, schur_polynomial("complex", beta).poly]
    return schur_coefficient("complex", factors, Partition.constant(m, k))


# -- numeric quadrature oracle -------------------------------------------------

# largest quadrature or scan grid accepted; the grid sizes the oracle's table
# of roots and the scan's values, one per node angle
MAX_GRID = 4096


def root_of_unity(e: int, grid: int) -> complex:
    """exp(2 pi i e / grid), for an exponent already reduced mod grid."""
    angle = 2.0 * math.pi * e / grid
    return complex(math.cos(angle), math.sin(angle))


def quadrature_threshold(f: RootPolynomial, alpha: Partition) -> int:
    """Smallest grid at which the trapezoidal rule is provably exact.

    The integrand is a Laurent polynomial whose per-axis frequencies lie in
    [-gb_1, E + ga_1 - gb_k] with E the largest per-axis exponent of f and
    ga, gb the two alternant exponent sequences; once the grid exceeds both
    endpoints in absolute value, only the zero frequency survives the
    periodic sum.
    """
    ga, gb = _alternant_exponents(f.regime, alpha, f.variables)
    emax = max((x for e in f.poly.terms for x in e), default=0)
    return max(gb[0], emax + ga[0] - gb[-1]) + 1


def _sorted_shifts(va, vb):
    """The monomials z^(ea - eb) of V_a * conj(V_b), over pairs of terms of
    the alternants {exponents: sign} `va` and `vb`, each shift sorted, equal
    shifts merged by adding their signs, and shifts whose signs cancel
    dropped.  Sorting is exact against a symmetric f on the uniform grid:
    permuting a shift permutes the axes of the node sum of f * z^shift."""
    shifts = {}
    for ea, sign_a in va.items():
        for eb, sign_b in vb.items():
            shift = tuple(sorted(map(sub, ea, eb)))
            shifts[shift] = shifts.get(shift, 0) + sign_a * sign_b
    return {shift: sign for shift, sign in shifts.items() if sign}


def torus_quadrature(terms, shifts, grid):
    """Trapezoidal rule, on a grid^k torus lattice, for the integral of
    f(z) * sum(sign * z^shift) / k!, with f = sum c z^e over `terms` and
    `shifts` the table {shift: sign}.

    Each node sum of z^(e + shift) is the product over the axes of the 1-D
    node sums line[u] = sum_t z_t^u, taken in floating point from one table
    of the grid's roots, with the angle reduced exactly, (t * u) mod grid, so
    line[u] depends only on u mod grid and is summed once per residue.  One
    sweep per shift runs over the per-axis exponent columns of f, weighed by
    its coefficients as floats.
    """
    if not terms:
        return 0j
    columns = list(zip(*terms))
    lo = min(map(min, shifts))
    hi = max(map(max, columns)) + max(map(max, shifts))
    roots = [root_of_unity(t, grid) for t in range(grid)]
    residue = [sum(roots[t * r % grid] for t in range(grid)) for r in range(grid)]
    line = [residue[u % grid] for u in range(lo, hi + 1)]  # line[u - lo]
    coeffs = [float(c) for c in terms.values()]
    total = 0j
    for shift, sign in shifts.items():
        values = coeffs
        for column, s in zip(columns, shift):
            values = map(mul, values, map(line[s - lo:].__getitem__, column))
        total += sign * sum(values)
    return total / (math.factorial(len(columns)) * grid ** len(columns))


def numeric_schur_coefficient(f: RootPolynomial, alpha: Partition, grid: Optional[int] = None) -> complex:
    """Trapezoidal torus quadrature of the Schur-coefficient integral.

    Sums over grid^k nodes; the rule is exact for the polynomial integrand
    (up to floating rounding) whenever grid reaches `quadrature_threshold`,
    which is the default grid.  `torus_quadrature` takes each node sum of a
    monomial as the product of its one-dimensional node sums, so the grid
    only sizes one table of those; grids above MAX_GRID are refused.  f is
    symmetric and the grid is the same on every axis, so the shifts of
    V_a * conj(V_b) are taken sorted and merged (`_sorted_shifts`: 16 of 576
    pairs at k = 4).
    """
    if not isinstance(f, RootPolynomial):
        raise TypeError("numeric_schur_coefficient expects a RootPolynomial")
    ga, gb = _alternant_exponents(f.regime, alpha, f.variables)
    sharp = quadrature_threshold(f, alpha)
    if grid is None:
        grid = sharp
    if grid < sharp:
        raise OutOfDomain(f"grid {grid} below the exactness threshold {sharp}")
    if grid > MAX_GRID:
        raise OutOfDomain(f"grid {grid} above the largest accepted grid {MAX_GRID}")
    if max(map(abs, f.poly.terms.values()), default=0) > sys.float_info.max:
        raise OutOfDomain("a coefficient of f exceeds the float range; the oracle cannot weigh it")
    k = f.variables
    return torus_quadrature(f.poly.terms, _sorted_shifts(vandermonde(ga, k).terms, vandermonde(gb, k).terms), grid)
