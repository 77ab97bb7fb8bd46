"""Enumerative counts: complex planes on hypersurfaces, real signed counts via
Euler classes, cubic complete intersections, and Catalan-type incidence
problems, plus the orientability predicates guarding them.

Every count is one Schur coefficient of a product of small factors, read
by `schur` from the factors without expanding the product; the regime,
taken first, picks the factors and, through `combinatorics.rank`, the rank.
Complex counts use the top-Chern root polynomial, the product of all
degree-d composition linear forms, at rank k.  Real counts use the real
root polynomial, the product of one difference form from each pair
{r, -r}, at rank 2k, taken as one product per sign-flip orbit of those
forms, which is even in every variable; the exact square root of the signed
product of all difference forms (`real_square_poly`) is its cross-check.  Incidence counts
use the regime's (2,2,0,0) Schur polynomial at rank 4, to the power 2n.  All
values are exact integers; real values are reported as absolute values
because orientation conventions only pin them up to sign.
"""

import itertools
from collections import Counter, namedtuple
from math import comb
from operator import sub

from .combinatorics import Infeasible, OutOfDomain, Partition, catalan, compositions, feasibility, rank
from .polynomial import SparsePoly, kronecker_product, product_of_linear_forms
from .schur import RootPolynomial, require_alternant_variables, schur_coefficient, schur_polynomial


class EvenDegree(Infeasible):
    """Real signed counts require odd degree; even degree is rejected."""


class Orientability(namedtuple("Orientability", "grassmannian sym_power euler_defined")):
    """The three predicates behind a well-defined signed count, each a bool."""

    __slots__ = ()


class CountReport(namedtuple("CountReport", "regime d k m value feasible orientability")):
    """An exact enumerative answer with its parameters and feasibility data.

    `value` is absent (None) when the dimension condition fails; in the real
    regime it is the absolute value of the signed count.  `d` is a tuple of
    degrees for complete intersections, else an int.  `m` is None where the
    count is infeasible, and `orientability` an Orientability or None.
    """

    __slots__ = ()


def grassmannian_orientable(k: int, m: int) -> bool:
    """G_k(R^{k+m}) is orientable iff k+m is even."""
    return (k + m) % 2 == 0


def sym_power_orientable(d: int, k: int) -> bool:
    """Sym^d of the dual tautological rank-k bundle is orientable iff
    C(d+k-1, k) is even."""
    return comb(d + k - 1, k) % 2 == 0


def euler_number_defined(d: int, k: int, m: int) -> bool:
    """The twisted Euler number is an integer well-defined up to sign:
    zero virtual dimension plus the parity condition k+m = d*m mod 2."""
    return comb(d + k - 1, k - 1) == k * m and (k + m - d * m) % 2 == 0


def _orientability(d: int, r: int, m: int | None) -> Orientability | None:
    if m is None:
        return None
    return Orientability(
        grassmannian=grassmannian_orientable(r, m),
        sym_power=sym_power_orientable(d, r),
        euler_defined=euler_number_defined(d, r, m),
    )


def require_odd_degree(d: int) -> None:
    """Real signed counts need a degree d >= 1 (OutOfDomain otherwise) that
    is odd (EvenDegree otherwise: even degree gives vanishing factors)."""
    if d < 1:
        raise OutOfDomain("d must be >= 1")
    if d % 2 == 0:
        raise EvenDegree(f"degree {d} is even; real signed counts need odd degree")


def _difference_forms(d: int, k: int) -> list[tuple[int, ...]]:
    """The real difference forms (l_1 - l_2, ..., l_{2k-1} - l_{2k}) over all
    compositions l of an odd degree d into 2k parts, in composition order."""
    require_odd_degree(d)
    return [tuple(map(sub, c[0::2], c[1::2])) for c in compositions(d, 2 * k)]


def linear_factor_rows(regime: str, d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient rows of the linear factors of the degree-d root polynomial.

    Complex: the forms l_1 z_1 + ... + l_k z_k over all compositions l of d
    into k parts.  Real: the difference forms (l_1 - l_2) x_1 + ... +
    (l_{2k-1} - l_{2k}) x_k over compositions of d into 2k parts come in
    pairs {r, -r}, because swapping every l_{2i-1} with l_{2i} negates a form
    and, for odd d, fixes no composition.  One form of each pair is kept, the
    one whose first nonzero coefficient is positive; their product is the
    exact square root of `real_square_poly`, sign included.  A k whose
    alternant is too large to sum is refused before any row is built.
    """
    require_alternant_variables(k)
    if regime == "real":
        return tuple(r for r in _difference_forms(d, k) if next(x for x in r if x) > 0)
    n = rank(regime, k)
    if d < 1:
        raise OutOfDomain("d must be >= 1")
    return tuple(compositions(d, n))


def linear_factors(regime: str, d: int, k: int) -> list[tuple[SparsePoly, int]]:
    """(factor, exponent) pairs whose product is the degree-d root polynomial, sign included.

    Complex: (form, 1) per row.  Real: (orbit product, multiplicity) per
    sign-flip orbit of the rows.  Swapping l_{2j-1} with l_{2j} flips
    coordinate j of a difference form, so the multiset of rows is
    invariant under every coordinate sign flip (followed by normalization),
    each row of an orbit occurring equally often; the orbit of a row is every
    sign pattern on its nonzero entries with the first one positive.  Its
    product is the norm form N_r(y) = prod over signs of (y_1 +- y_2 ... +-
    y_r), r the row's support size, at y_i = |a_i| x_i over the support's
    entries a_i (a^2 x_1^2 - b^2 x_2^2 for r = 2).  N_r is expanded once per
    r, and every orbit product is even in every variable, so the engine
    divides out a step of 2 on every axis.
    """
    rows = linear_factor_rows(regime, d, k)
    if regime != "real":
        return [(SparsePoly.linear_form(row), 1) for row in rows]
    norms, factors = {}, []
    for size, count in Counter(tuple(map(abs, row)) for row in rows).items():
        support = [i for i, x in enumerate(size) if x]
        r = len(support)
        if r not in norms:
            units = [(SparsePoly.linear_form((1,) + signs), 1) for signs in itertools.product((1, -1), repeat=r - 1)]
            norms[r] = kronecker_product(units, r)
        terms = {}
        for e, c in norms[r].items():
            full = [0] * k
            for i, x in zip(support, e):
                full[i] = x
                c *= size[i] ** x
            terms[tuple(full)] = c
        factors.append((SparsePoly._raw(k, terms), count // 2 ** (r - 1)))
    return factors


def root_poly(regime: str, d: int, k: int) -> RootPolynomial:
    """Root polynomial of the top Chern class of Sym^d (complex) or of its
    Euler class at rank 2k (real, leading coefficient positive by
    convention), expanded for --dump-poly and the tests from the factors
    that the count and the quadrature oracle read."""
    return RootPolynomial(SparsePoly._raw(k, kronecker_product(linear_factors(regime, d, k), k)), regime)


def plane_count(regime: str, d: int, k: int) -> CountReport:
    """Exact number of projective (k-1)-planes on a generic degree-d
    hypersurface (complex), or absolute signed count of real (2k-1)-planes
    on a generic real one of odd degree d, via the Euler class of Sym^d
    (real).  Checked in order: domain, even real degree, dimension."""
    feas = feasibility(d, k, regime)
    if regime == "real":
        require_odd_degree(d)
    r = rank(regime, k)
    orient = _orientability(d, r, feas.m)
    if not feas.feasible:
        return CountReport(regime, d, k, None, None, False, orient)
    value = schur_coefficient(regime, linear_factors(regime, d, k), Partition.constant(feas.m, r))
    return CountReport(regime, d, k, feas.m, abs(value), True, orient)


def real_square_poly(d: int, k: int) -> SparsePoly:
    """The signed square of the real root polynomial, rank 2k (an oracle).

    Product over all compositions of d into 2k parts of the difference
    forms ((l_1 - lbar_1) x_1 + ... + (l_k - lbar_k) x_k), times (-1)^(N/2)
    with N the number of factors, which makes the result a perfect square.
    Even d is rejected: it produces vanishing factors.
    """
    rows = _difference_forms(d, k)
    poly = product_of_linear_forms(rows, k)
    if (len(rows) // 2) % 2:
        poly = -poly
    return poly


def factored_real_root_poly(d: int) -> RootPolynomial:
    """Closed factored form of the k=2 real root polynomial.

    prod_{i=0}^{(d-1)/2} [ (d-2i)^2 x1 x2 *
        prod_{l1<l2, l1+l2=d-2i, l1,l2>=1} (l1^2 x1^2 - l2^2 x2^2)(l2^2 x1^2 - l1^2 x2^2)
    ]^(i+1)

    Runs over unordered pairs {l1, l2}; the x1 x2 prefactor accumulates to
    exponent (d+1)(d+3)/8.  Must equal root_poly("real", d, 2) up to a global
    sign; the test suite checks it.
    """
    require_odd_degree(d)
    result = SparsePoly.one(2)
    for i in range((d - 1) // 2 + 1):
        s = d - 2 * i
        block = SparsePoly(2, {(1, 1): s * s})
        for l1 in range(1, (s + 1) // 2):
            l2 = s - l1
            q1 = SparsePoly(2, {(2, 0): l1 * l1, (0, 2): -(l2 * l2)})
            q2 = SparsePoly(2, {(2, 0): l2 * l2, (0, 2): -(l1 * l1)})
            block = block * q1 * q2
        result = result * block ** (i + 1)
    return RootPolynomial(result, "real")


def cubic_ci_real(r: int) -> CountReport:
    """Absolute signed count of real 3-planes on an intersection of r generic
    real cubics (m = 5r), from the factors of the cubic's real root
    polynomial, each exponent times r; r=0 degenerates to the empty
    intersection.  The engine's price refuses an r too large to run."""
    if r < 0:
        raise OutOfDomain("r must be >= 0")
    m = 5 * r
    value = schur_coefficient("real", [(f, e * r) for f, e in linear_factors("real", 3, 2)], Partition.constant(m, 4))
    orient = _orientability(3, 4, m) if r else None
    return CountReport("real", (3,) * r, 2, m, abs(value), True, orient)


def catalan_substitution(r: int) -> int:
    """Evaluate 9^r (25 - 4t)^r with t^j replaced by the j-th Catalan number."""
    if r < 0:
        raise OutOfDomain("r must be >= 0")
    total = 0
    for j in range(r + 1):
        total += comb(r, j) * 25 ** (r - j) * (-4) ** j * catalan(j)
    return 9**r * total


def incidence(regime: str, n: int) -> int:
    """Number of complex, or absolute signed count of real, 3-planes meeting
    2n generic (2n-1)-planes along lines: the 2n-th power of the regime's
    (2,2,0,0) Schur class (x1^2 + x2^2 in the real regime) against the
    fundamental class, read from the pair (class, 2n).  The real count is the
    n-th Catalan number.  The engine's price refuses an n too large to run."""
    if n < 1:
        raise OutOfDomain("n must be >= 1")
    factors = [(schur_polynomial(regime, Partition((2, 2, 0, 0))).poly, 2 * n)]
    return abs(schur_coefficient(regime, factors, Partition.constant(2 * n, 4)))
