"""Vandermonde alternants, Schur polynomials and Schur coefficient
extraction, in either regime: the regime, taken first, only picks the data.

Coefficient extraction is exact: the torus integral behind a Schur
coefficient equals one coefficient of f multiplied by the plain (complex
case) or squared-variable (real case) Vandermonde alternant, because the
product is antisymmetric and its coefficients at permuted exponents agree up
to sign.  f may be given as a list of its factors, which is never expanded:
`polynomial.kronecker_product` multiplies them into one packed int, a B-bit
slot per monomial in the box of the k! shifted targets (homogeneous factors
fix the first exponent by degree), signed slots masked carry-free through a
2^(B-1) bias, B growing by repacking with the running l1 bound.  A floating
trapezoidal quadrature of the same integral is kept as an independent
oracle: on a uniform torus grid the rule is exact for trigonometric
polynomials once the grid passes the bandwidth threshold, so the two routes
must agree to rounding.  The oracle reads no exact coefficient: it sums the
same nodes as products of one-dimensional node sums, one per axis of each
monomial of f * V_a * conj(V_b) (`kernels.torus_quadrature`).
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from math import factorial
from operator import sub
from typing import Optional, Sequence, Tuple, Union

from .combinatorics import InvalidLength, NotInRectangle, OutOfDomain, Partition, classify_partition
from .polynomial import SparsePoly, exact_div, kronecker_product

# a root polynomial, or a list of its factors
Factorable = Union["RootPolynomial", SparsePoly, Sequence[SparsePoly]]


class DegenerateAlternant(ValueError):
    """Alternant exponents are not strictly decreasing; the sum vanishes."""


class NotEvenOrOdd(OutOfDomain):
    """2k-partition is neither even nor odd; no real Schur class exists."""


class NotEulerPontryagin(ValueError):
    """Polynomial is outside the Euler-Pontryagin ring."""


def delta(k: int) -> Tuple[int, ...]:
    """The staircase (k-1, k-2, ..., 1, 0)."""
    return tuple(range(k - 1, -1, -1))


def _perm_data(k: int) -> list[Tuple[Tuple[int, ...], int]]:
    out = []
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        out.append((perm, -1 if inv % 2 else 1))
    return out


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
    for perm, sign in _perm_data(k):
        e = [0] * k
        for i in range(k):
            e[perm[i]] = gamma[i]
        terms[tuple(e)] = sign
    return SparsePoly._raw(k, terms)


def _multinomial_orbit_size(sorted_e: Tuple[int, ...]) -> int:
    size = factorial(len(sorted_e))
    run = 1
    for i in range(1, len(sorted_e)):
        if sorted_e[i] == sorted_e[i - 1]:
            run += 1
        else:
            size //= factorial(run)
            run = 1
    return size // factorial(run)


def is_symmetric(poly: SparsePoly) -> bool:
    """Exact symmetry test via orbit grouping (no k! expansion per term)."""
    orbits: dict = {}
    for e, c in poly.terms.items():
        key = tuple(sorted(e, reverse=True))
        orbits.setdefault(key, []).append(c)
    for key, coeffs in orbits.items():
        if len(coeffs) != _multinomial_orbit_size(key):
            return False
        first = coeffs[0]
        if any(c != first for c in coeffs[1:]):
            return False
    return True


def in_euler_pontryagin(poly: SparsePoly) -> bool:
    """Membership test: symmetric, and each monomial all-even or all-odd."""
    for e in poly.terms:
        parity = e[0] % 2 if e else 0
        if any(x % 2 != parity for x in e):
            return False
    return is_symmetric(poly)


@dataclass(frozen=True)
class RootPolynomial:
    """A cohomology class represented by its root polynomial.

    Complex regime: symmetric polynomial in the Chern roots z_i.  Real
    regime: member of the Euler-Pontryagin ring (symmetric, every monomial
    with all exponents even or all odd).
    """

    poly: SparsePoly
    regime: str

    def __post_init__(self) -> None:
        if self.regime == "complex":
            if not is_symmetric(self.poly):
                raise ValueError("complex root polynomial must be symmetric")
        elif self.regime == "real":
            if not in_euler_pontryagin(self.poly):
                raise NotEulerPontryagin(
                    "real root polynomial must lie in the Euler-Pontryagin ring"
                )
        else:
            raise OutOfDomain(f"unknown regime {self.regime!r}")

    @property
    def variables(self) -> int:
        return self.poly.nvars

    def degree(self) -> int:
        return self.poly.degree()


def _alternant_exponents(regime: str, alpha: Partition, k: Optional[int] = None):
    """Alternant exponents ga and target gb: delta and alpha + delta (complex),
    or 2*delta and beta + 2*delta with beta the half-length profile of an
    even or odd 2k-partition alpha (real); alpha must fit k variables if given."""
    if regime == "complex":
        kk, parts, scale = len(alpha), alpha.parts, 1
    elif regime == "real":
        parity = classify_partition(alpha)
        if not (parity.is_even or parity.is_odd):
            raise NotEvenOrOdd(f"{alpha.parts} is neither an even nor an odd partition")
        kk, parts, scale = len(alpha) // 2, alpha.parts[0::2], 2
    else:
        raise OutOfDomain(f"unknown regime {regime!r}")
    if k is not None and kk != k:
        raise InvalidLength(f"partition of length {len(alpha)} against {k} variables ({regime} regime)")
    ga = tuple(scale * x for x in delta(kk))
    return ga, tuple(a + b for a, b in zip(parts, ga))


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


def schur_coefficient(regime: str, f: Factorable, alpha: Partition) -> int:
    """Exact Schur coefficient of f: the coefficient of z^{alpha+delta} in
    f*V_delta (complex), or of x^{beta+2delta} in f*V_{2delta} for an even
    or odd 2k-partition alpha with half-length profile beta (real, pinned
    only up to a global sign by orientation conventions).  f is a root
    polynomial of the regime or a list of factors of one, taken as it is,
    since their product is never built."""
    if isinstance(f, (list, tuple)):
        factors, k = f, (f[0].nvars if f else None)
    else:
        if not isinstance(f, RootPolynomial):
            f = RootPolynomial(f, regime)
        elif f.regime != regime:
            error = NotEulerPontryagin if regime == "real" else OutOfDomain
            raise error(f"expected a {regime!r}-regime root polynomial, got a {f.regime!r} one")
        factors, k = [f.poly], f.variables
    ga, gb = _alternant_exponents(regime, alpha, k)
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

# largest quadrature or scan grid accepted; the grid sizes the oracle's power
# table and the scan's values, one per node angle
MAX_GRID = 4096


def quadrature_threshold(f: RootPolynomial, alpha: Partition) -> int:
    """Smallest grid at which the trapezoidal rule is provably exact.

    The integrand is a Laurent polynomial whose per-axis frequencies lie in
    [-gb_1, E + ga_1 - gb_k] with E the largest per-axis exponent of f and
    ga, gb the two alternant exponent sequences; once the grid exceeds both
    endpoints in absolute value, only the zero frequency survives the
    periodic sum.
    """
    ga, gb = _alternant_exponents(f.regime, alpha, f.variables)
    emax = max(f.poly.max_exponents(), default=0)
    return max(gb[0], emax + ga[0] - gb[-1]) + 1


def numeric_schur_coefficient(f: RootPolynomial, alpha: Partition, grid: Optional[int] = None) -> complex:
    """Trapezoidal torus quadrature of the Schur-coefficient integral.

    Sums over grid^k nodes; the rule is exact for the polynomial integrand
    (up to floating rounding) whenever grid reaches `quadrature_threshold`,
    which is the default grid.  `kernels.torus_quadrature` takes each node
    sum of a monomial as the product of its one-dimensional node sums, so
    the grid only sizes one table of those; grids above MAX_GRID are refused.
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
    from . import kernels  # numpy is loaded on the float paths only

    return kernels.torus_quadrature(f.poly.terms, ga, gb, _perm_data(f.variables), grid)
