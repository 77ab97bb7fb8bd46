import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import partitions_of, random_poly, symmetrize
from schubertcount.combinatorics import InvalidLength, NotInRectangle, OutOfDomain, Partition
from schubertcount.counts import root_poly
from schubertcount.polynomial import ArityMismatch, SparsePoly
from schubertcount.schur import (
    MAX_GRID,
    DegenerateAlternant,
    NotEulerPontryagin,
    NotEvenOrOdd,
    RootPolynomial,
    _alternant_coefficient,
    delta,
    duality_pairing,
    in_euler_pontryagin,
    is_symmetric,
    numeric_schur_coefficient,
    quadrature_threshold,
    schur_coefficient,
    schur_polynomial,
    vandermonde,
)


def test_vandermonde_examples():
    assert vandermonde((1, 0), 2).terms == {(1, 0): 1, (0, 1): -1}
    assert vandermonde((3, 0), 2).terms == {(3, 0): 1, (0, 3): -1}
    v = vandermonde((2, 1, 0), 3)
    expected = SparsePoly(3, {(1, 0, 0): 1, (0, 1, 0): -1}) \
        * SparsePoly(3, {(1, 0, 0): 1, (0, 0, 1): -1}) \
        * SparsePoly(3, {(0, 1, 0): 1, (0, 0, 1): -1})
    assert v == expected
    assert len(v.terms) == 6


def test_vandermonde_errors():
    with pytest.raises(DegenerateAlternant):
        vandermonde((2, 2), 2)
    with pytest.raises(DegenerateAlternant):
        vandermonde((1, 2), 2)
    with pytest.raises(InvalidLength):
        vandermonde((2, 1, 0), 2)


def test_schur_polynomial_examples():
    assert schur_polynomial("complex", Partition((1, 1))).poly.terms == {(1, 1): 1}
    assert schur_polynomial("complex", Partition((2, 0))).poly.terms == {
        (2, 0): 1, (1, 1): 1, (0, 2): 1}
    s22 = schur_polynomial("complex", Partition((2, 2, 0, 0)))
    assert sum(s22.poly.terms.values()) == 20
    assert s22.poly.degree() == 4


def test_schur_elementary_and_rectangular():
    for k in range(1, 5):
        for r in range(1, k + 1):
            alpha = Partition((1,) * r + (0,) * (k - r))
            s = schur_polynomial("complex", alpha).poly
            expected = {}
            for combo in itertools.combinations(range(k), r):
                e = [0] * k
                for i in combo:
                    e[i] = 1
                expected[tuple(e)] = 1
            assert s.terms == expected
    for k in range(1, 5):
        for m in range(6):
            s = schur_polynomial("complex", Partition.constant(m, k)).poly
            assert s.terms == {(m,) * k: 1}


def test_schur_coefficient_examples():
    s20 = schur_polynomial("complex", Partition((2, 0)))
    assert schur_coefficient("complex", s20, Partition((2, 0))) == 1
    c14 = SparsePoly(2, {(1, 0): 1, (0, 1): 1}) ** 4
    assert schur_coefficient("complex", c14, Partition((2, 2))) == 2
    lam = schur_coefficient("complex", root_poly("complex", 3, 4), Partition((5, 5, 5, 5)))
    assert lam == 321489
    with pytest.raises(ArityMismatch):
        schur_coefficient("complex", [SparsePoly.one(2), SparsePoly.one(3)], Partition((1, 1)))


def test_orthonormality():
    for k in range(1, 5):
        for n in range(0, 9):
            parts = [Partition(p) for p in partitions_of(n, k)]
            schurs = {b.parts: schur_polynomial("complex", b) for b in parts}
            for a in parts:
                for b in parts:
                    lam = schur_coefficient("complex", schurs[b.parts], a)
                    assert lam == (1 if a == b else 0), (k, a.parts, b.parts)


def test_basis_reconstruction_complex():
    rng = random.Random(41)
    for _ in range(10):
        k = rng.randint(1, 3)
        deg = rng.randint(1, 8)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            e = [0] * k
            rem = deg
            for i in range(k - 1):
                e[i] = rng.randint(0, rem)
                rem -= e[i]
            e[-1] = rem
            terms[tuple(e)] = terms.get(tuple(e), 0) + rng.randint(-9, 9)
        f = symmetrize(SparsePoly(k, terms))
        if f.is_zero():
            continue
        recon = SparsePoly.zero(k)
        for p in partitions_of(deg, k):
            lam = schur_coefficient("complex", f, Partition(p))
            if lam:
                recon = recon + schur_polynomial("complex", Partition(p)).poly * lam
        assert recon == f


def test_real_schur_polynomial_examples():
    assert schur_polynomial("real", Partition((5, 5, 5, 5))).poly.terms == {(5, 5): 1}
    assert schur_polynomial("real", Partition((7, 7, 3, 3))).poly.terms == {
        (7, 3): 1, (5, 5): 1, (3, 7): 1}
    assert schur_polynomial("real", Partition((4, 4, 2, 2))).poly.terms == {
        (4, 2): 1, (2, 4): 1}
    with pytest.raises(NotEvenOrOdd):
        schur_polynomial("real", Partition((3, 2, 1, 0)))


def test_real_complex_bridge():
    # even 2k-partitions: the real Schur polynomial is the complex one in squares
    for k in (1, 2, 3):
        for n in range(0, 7):
            for beta in partitions_of(n, k):
                alpha = Partition(tuple(x for b in beta for x in (2 * b, 2 * b)))
                real = schur_polynomial("real", alpha).poly
                cplx = schur_polynomial("complex", Partition(beta)).poly
                squared = SparsePoly(k, {tuple(2 * x for x in e): c for e, c in cplx.terms.items()})
                assert real == squared, (beta, k)


def test_real_schur_coefficient_examples():
    f3 = root_poly("real", 3, 2)
    lam = schur_coefficient("real", f3, Partition((5, 5, 5, 5)))
    assert abs(lam) == 189
    assert abs(schur_coefficient("real", f3, Partition((7, 7, 3, 3)))) == 36
    s = schur_polynomial("real", Partition((4, 4, 2, 2)))
    assert schur_coefficient("real", s, Partition((4, 4, 2, 2))) == 1
    with pytest.raises(NotEvenOrOdd):
        schur_coefficient("real", f3, Partition((3, 2, 1, 0)))
    with pytest.raises(NotEulerPontryagin):
        schur_coefficient("real", SparsePoly(2, {(1, 0): 1, (0, 1): 1}), Partition((1, 1, 1, 1)))


def test_real_basis_reconstruction():
    # EP polynomials in k=2 decompose exactly over real Schur polynomials
    rng = random.Random(43)
    for deg in range(1, 11):
        terms = {}
        for _ in range(4):
            a = rng.randint(0, deg)
            if (deg - a) < 0:
                continue
            e = (a, deg - a)
            if e[0] % 2 != e[1] % 2:
                continue
            terms[e] = terms.get(e, 0) + rng.randint(-9, 9)
        f = symmetrize(SparsePoly(2, terms))
        if f.is_zero() or not in_euler_pontryagin(f):
            continue
        recon = SparsePoly.zero(2)
        for beta in partitions_of(deg, 2):
            if beta[0] % 2 != beta[1] % 2:
                continue
            alpha = Partition(tuple(x for b in beta for x in (b, b)))
            lam = schur_coefficient("real", f, alpha)
            if lam:
                recon = recon + schur_polynomial("real", alpha).poly * lam
        assert recon == f, deg


def test_pullback_lands_in_euler_pontryagin():
    # substituting z_{2i-1} = x_i, z_{2i} = -x_i into a symmetric polynomial
    rng = random.Random(47)
    for _ in range(10):
        k = rng.randint(1, 2)
        h = symmetrize(random_poly(rng, 2 * k, 4, 3, max_coeff=9))
        terms: dict = {}
        for e, c in h.terms.items():
            xe = tuple(e[2 * i] + e[2 * i + 1] for i in range(k))
            sign = -1 if sum(e[2 * i + 1] for i in range(k)) % 2 else 1
            terms[xe] = terms.get(xe, 0) + sign * c
        pulled = SparsePoly(k, terms)
        assert in_euler_pontryagin(pulled)


def test_root_polynomial_validation():
    with pytest.raises(ValueError):
        RootPolynomial(SparsePoly(2, {(1, 0): 1}), "complex")
    with pytest.raises(NotEulerPontryagin):
        RootPolynomial(SparsePoly(2, {(2, 1): 1, (1, 2): 1}), "real")
    with pytest.raises(ValueError):
        RootPolynomial(SparsePoly.one(2), "quaternionic")
    assert is_symmetric(SparsePoly(2, {(1, 0): 2, (0, 1): 2}))
    assert not is_symmetric(SparsePoly(2, {(1, 0): 2, (0, 1): 3}))


def test_duality_pairing():
    assert duality_pairing(Partition((1, 0)), Partition((1, 0)), 1, 2) == 1
    # (2,0) is its own 2-complement in a 2x2 box; (1,1) pairs with itself
    assert duality_pairing(Partition((2, 0)), Partition((2, 0)), 2, 2) == 1
    assert duality_pairing(Partition((1, 1)), Partition((1, 1)), 2, 2) == 1
    assert duality_pairing(Partition((2, 0)), Partition((1, 1)), 2, 2) == 0
    with pytest.raises(NotInRectangle):
        duality_pairing(Partition((3, 0)), Partition((1, 0)), 2, 2)


def test_numeric_schur_coefficient_examples():
    s20 = schur_polynomial("complex", Partition((2, 0)))
    num = numeric_schur_coefficient(s20, Partition((2, 0)), grid=16)
    assert abs(num - 1.0) < 1e-9

    f3 = root_poly("real", 3, 2)
    num = numeric_schur_coefficient(f3, Partition((5, 5, 5, 5)), grid=64)
    assert min(abs(num - 189), abs(num + 189)) < 1e-6 * 189

    f34 = root_poly("complex", 3, 4)
    num = numeric_schur_coefficient(f34, Partition((5, 5, 5, 5)))
    assert abs(num - 321489) < 1e-6 * 321489


def test_numeric_threshold_guard():
    f34 = root_poly("complex", 3, 4)
    thr = quadrature_threshold(f34, Partition((5, 5, 5, 5)))
    assert thr <= 2 * f34.poly.degree() + 1
    num = numeric_schur_coefficient(f34, Partition((5, 5, 5, 5)), grid=thr)
    assert abs(num - 321489) < 1e-6 * 321489
    with pytest.raises(ValueError):
        numeric_schur_coefficient(f34, Partition((5, 5, 5, 5)), grid=thr - 1)
    num = numeric_schur_coefficient(f34, Partition((5, 5, 5, 5)), grid=MAX_GRID)
    assert abs(num - 321489) < 1e-6 * 321489
    with pytest.raises(OutOfDomain, match=str(MAX_GRID)):
        numeric_schur_coefficient(f34, Partition((5, 5, 5, 5)), grid=MAX_GRID + 1)


def test_numeric_zero_polynomial():
    zero = RootPolynomial(SparsePoly.zero(2), "complex")
    assert numeric_schur_coefficient(zero, Partition((1, 0))) == 0j


NUMERIC_LADDER = [
    ("complex", 3, 4, (5, 5, 5, 5), 9),
    ("complex", 3, 4, (5, 5, 5, 5), 41),
    ("complex", 3, 4, (5, 5, 5, 5), 61),
    ("complex", 3, 4, (6, 5, 5, 4), None),
    ("real", 5, 2, (14, 14, 14, 14), None),
    ("real", 3, 2, (5, 5, 5, 5), 40),
    ("real", 3, 2, (7, 7, 5, 5), 40),
    ("real", 3, 3, (5, 5, 5, 5, 5, 5), None),
]


@pytest.mark.parametrize("regime,d,k,parts,grid", NUMERIC_LADDER,
                         ids=[f"{r}-{d}-{k}-{','.join(map(str, p))}-grid{g}" for r, d, k, p, g in NUMERIC_LADDER])
def test_numeric_ladder_against_exact(regime, d, k, parts, grid):
    alpha = Partition(parts)
    if regime == "complex":
        f, exact, signs = root_poly("complex", d, k), schur_coefficient, (1,)
    else:
        f, exact, signs = root_poly("real", d, k), schur_coefficient, (1, -1)
    value = exact(regime, f, alpha)
    num = numeric_schur_coefficient(f, alpha, grid=grid)
    err = min(abs(num - s * value) for s in signs)
    assert err <= 1e-9 * (abs(value) or 1), (value, num)


def test_delta():
    assert delta(4) == (3, 2, 1, 0)
    assert delta(1) == (0,)


@st.composite
def factors_and_partition(draw, regime):
    """Random short lists of small factors in 1-3 variables, and a partition
    of the regime: length k (complex) or an even or odd 2k-partition (real)."""
    k = draw(st.integers(1, 3))
    exponent = st.tuples(*[st.integers(0, 3)] * k)
    factor = st.dictionaries(exponent, st.integers(-4, 4), min_size=1, max_size=4)
    factors = [SparsePoly(k, terms) for terms in draw(st.lists(factor, max_size=5))]
    parts = sorted(draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), reverse=True)
    if regime == "complex":
        return factors, Partition(tuple(parts))
    parity = draw(st.integers(0, 1))
    return factors, Partition(tuple(x for p in parts for x in (2 * p + parity,) * 2))


def _expanded_coefficient(factors, alpha, regime):
    """The reference: expand the product, multiply by the alternant, read one coefficient."""
    if regime == "complex":
        k, parts, ga = len(alpha), alpha.parts, delta(len(alpha))
    else:
        k = len(alpha) // 2
        parts, ga = alpha.parts[0::2], tuple(2 * x for x in delta(k))
    product = SparsePoly.one(k)
    for f in factors:
        product = product * f
    return (product * vandermonde(ga, k)).coefficient_at(tuple(a + b for a, b in zip(parts, ga)))


@settings(max_examples=150, deadline=None)
@given(factors_and_partition("complex"))
def test_engine_matches_expansion_complex(case):
    factors, alpha = case
    assert schur_coefficient("complex", factors, alpha) == _expanded_coefficient(factors, alpha, "complex")


@settings(max_examples=150, deadline=None)
@given(factors_and_partition("real"))
def test_engine_matches_expansion_real(case):
    factors, alpha = case
    assert schur_coefficient("real", factors, alpha) == _expanded_coefficient(factors, alpha, "real")


def test_engine_slot_growth_against_expansion():
    # signed coefficients near 10^6 widen the slots several times inside a truncated box
    rng = random.Random(53)
    for regime, k, alpha in (("complex", 3, Partition((6, 5, 2))), ("real", 2, Partition((7, 7, 3, 3)))):
        for _ in range(3):
            terms = [{tuple(rng.randint(0, 2) for _ in range(k)): rng.choice((-1, 1)) * rng.randint(10**6 - 99, 10**6)
                      for _ in range(3)} for _ in range(5)]
            factors = [SparsePoly(k, t) for t in terms]
            assert schur_coefficient(regime, factors, alpha) == _expanded_coefficient(factors, alpha, regime)


def test_engine_degree_mismatch_and_empty_box():
    factors = [SparsePoly.linear_form((3, -1, 2)), SparsePoly.linear_form((0, 5, -7))] * 3
    for parts in ((2, 2, 2), (3, 2, 1), (2, 2, 1), (4, 1, 0)):
        alpha = Partition(parts)
        assert schur_coefficient("complex", factors, alpha) == _expanded_coefficient(factors, alpha, "complex")
    assert schur_coefficient("complex", factors, Partition((3, 2, 1))) != 0
    assert schur_coefficient("complex", factors, Partition((2, 2, 1))) == 0
    # no term of the alternant fits under the target: the shifted box is empty
    factors = [SparsePoly(3, {(0, 0, 0): 5, (1, 0, 0): -2, (0, 1, 1): 3})] * 3
    van = vandermonde((2, 1, 0), 3)
    product = factors[0] * factors[1] * factors[2]
    assert _alternant_coefficient(factors, (1, 1, 0), van) == (product * van).coefficient_at((1, 1, 0)) == 0
