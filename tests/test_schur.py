import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    is_symmetric_by_permutations,
    once,
    partitions_in_box,
    partitions_of,
    random_poly,
    symmetrize,
    threshold_from_terms,
)
from schubertcount.asymptotics import MAX_GRID
from schubertcount.combinatorics import InvalidLength, NotInRectangle, OutOfDomain, Partition, catalan, compositions
from schubertcount.counts import linear_factors, root_poly
from schubertcount.polynomial import ArityMismatch, NotAPerfectSquare, SparsePoly, exact_sqrt, kronecker_product
from schubertcount.schur import (
    DegenerateAlternant,
    NotEulerPontryagin,
    NotEvenOrOdd,
    _alternant_coefficient,
    _divide_binomial,
    delta,
    duality_pairing,
    in_euler_pontryagin,
    is_symmetric,
    numeric_schur_coefficient,
    root_class,
    schur_coefficient,
    schur_polynomial,
    vandermonde,
)
from test_kernels import SORTED_SHIFT_CASES


def test_vandermonde_examples():
    assert vandermonde((1, 0), 2).terms == {(1, 0): 1, (0, 1): -1}
    assert vandermonde((3, 0), 2).terms == {(3, 0): 1, (0, 3): -1}
    v = vandermonde((2, 1, 0), 3)
    expected = SparsePoly(3, {(1, 0, 0): 1, (0, 1, 0): -1}) \
        * SparsePoly(3, {(1, 0, 0): 1, (0, 0, 1): -1}) \
        * SparsePoly(3, {(0, 1, 0): 1, (0, 0, 1): -1})
    assert v == expected
    assert len(v.terms) == 6


X = SparsePoly(1, {(1,): 1})
LINEAR = SparsePoly.linear_form((1, 2, 3))
NOT_HOMOGENEOUS = SparsePoly(2, {(2, 0): 1, (1, 0): 1})


@pytest.mark.parametrize("call,error,match", [
    (lambda: exact_sqrt(X), NotAPerfectSquare, "leading exponent"),
    (lambda: exact_sqrt(SparsePoly(1, {(2,): 1, (1,): 1})), NotAPerfectSquare, "not divisible by 2"),
    (lambda: SparsePoly(2, {(1,): 1}), ArityMismatch, "expected 2"),
    (lambda: SparsePoly(1, {(-1,): 1}), ValueError, "negative exponent"),
    (lambda: SparsePoly(-1), ValueError, "nvars must be non-negative"),
    (lambda: vandermonde((1, -1), 2), DegenerateAlternant, "negative exponent"),
    (lambda: compositions(-1, 2), OutOfDomain, "d must be non-negative"),
    (lambda: catalan(-1), ValueError, "n must be non-negative"),
    (lambda: numeric_schur_coefficient("complex", [(SparsePoly(2, {(1, 0): 1}), 1)], Partition((1, 0))), ValueError,
     "must be symmetric"),
    (lambda: numeric_schur_coefficient("complex", [(LINEAR, 1), (X, 1)], Partition((1, 0, 0))), ArityMismatch,
     "must have 3 variables"),
    (lambda: duality_pairing(Partition((1,)), Partition((1, 0)), 2, 2), InvalidLength, "length k"),
    (lambda: kronecker_product([(LINEAR, 1)], 3, [(1, 0, 0), (1, 0, 0, 0)]), ArityMismatch, "must have 3 variables"),
    (lambda: kronecker_product([(LINEAR, 1)], 3, [(1, 0)]), ArityMismatch, "must have 3 variables"),
    (lambda: kronecker_product([(NOT_HOMOGENEOUS, 1)], 2), ValueError, "must be homogeneous"),
    (lambda: schur_coefficient("complex", [(NOT_HOMOGENEOUS, 1)], Partition((2, 1))), ValueError,
     "must be homogeneous"),
], ids=["sqrt-odd-leading-exponent", "sqrt-odd-residual", "poly-arity", "poly-negative-exponent", "poly-nvars",
        "vandermonde-negative-exponent", "compositions-negative-degree", "catalan-negative", "numeric-not-symmetric",
        "numeric-arity", "duality-unequal-lengths", "kronecker-long-target", "kronecker-short-target",
        "kronecker-not-homogeneous", "schur-not-homogeneous"])
def test_bad_arguments_raise(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_vandermonde_errors():
    with pytest.raises(DegenerateAlternant):
        vandermonde((2, 2), 2)
    with pytest.raises(DegenerateAlternant):
        vandermonde((1, 2), 2)
    with pytest.raises(InvalidLength):
        vandermonde((2, 1, 0), 2)


def test_schur_polynomial_examples():
    assert schur_polynomial("complex", Partition((1, 1))).terms == {(1, 1): 1}
    assert schur_polynomial("complex", Partition((2, 0))).terms == {
        (2, 0): 1, (1, 1): 1, (0, 2): 1}
    s22 = schur_polynomial("complex", Partition((2, 2, 0, 0)))
    assert sum(s22.terms.values()) == 20
    assert s22.degree() == 4


def _bialternant_ladder():
    yield "complex", ()
    for k in range(1, 5):
        for parts in partitions_in_box(k, 4):
            yield "complex", parts
    yield from (("complex", p) for p in [(3, 2, 2, 1, 0), (5, 3, 1, 0, 0), (2, 2, 1, 1, 0, 0), (3, 1, 1, 0, 0, 0)])
    for k in range(1, 4):
        for beta in partitions_in_box(k, 3):
            for shift in (0, 1):  # the even partition (2b, 2b, ...) and the odd one (2b+1, 2b+1, ...)
                yield "real", tuple(x for b in beta for x in (2 * b + shift,) * 2)


@pytest.mark.parametrize("regime,parts", list(_bialternant_ladder()))
def test_schur_polynomial_times_the_denominator_is_the_numerator(regime, parts):
    # checked by SparsePoly multiplication, a route independent of the binomial division
    s = 2 if regime == "real" else 1
    beta = parts[::s]
    k = len(beta)
    ga = tuple(s * x for x in delta(k))
    gb = tuple(b + g for b, g in zip(beta, ga))
    assert schur_polynomial(regime, Partition(parts)) * vandermonde(ga, k) == vandermonde(gb, k)


def test_divide_binomial_exactness_check():
    assert _divide_binomial({(3, 0, 1): 1, (0, 3, 1): -1}, 0, 1) == {(2, 0, 1): 1, (1, 1, 1): 1, (0, 2, 1): 1}
    assert _divide_binomial({(1, 1, 0): 1, (0, 1, 1): -1}, 0, 2) == {(0, 1, 0): 1}
    # x1^2 + x2^2 is symmetric, not an alternant: over x1 - x2 it leaves 2 x2^2
    with pytest.raises(ValueError, match="not a multiple"):
        _divide_binomial({(2, 0): 1, (0, 2): 1}, 0, 1)
    # x1 x3 - x2 x3 + x1: the slice of x3 divides, the slice of 1 does not
    with pytest.raises(ValueError, match="not a multiple"):
        _divide_binomial({(1, 0, 1): 1, (0, 1, 1): -1, (1, 0, 0): 1}, 0, 1)


def test_schur_elementary_and_rectangular():
    for k in range(1, 5):
        for r in range(1, k + 1):
            alpha = Partition((1,) * r + (0,) * (k - r))
            s = schur_polynomial("complex", alpha)
            expected = {}
            for combo in itertools.combinations(range(k), r):
                e = [0] * k
                for i in combo:
                    e[i] = 1
                expected[tuple(e)] = 1
            assert s.terms == expected
    for k in range(1, 5):
        for m in range(6):
            s = schur_polynomial("complex", Partition.constant(m, k))
            assert s.terms == {(m,) * k: 1}


def test_schur_coefficient_examples():
    s20 = schur_polynomial("complex", Partition((2, 0)))
    assert schur_coefficient("complex", [(s20, 1)], Partition((2, 0))) == 1
    c14 = SparsePoly(2, {(1, 0): 1, (0, 1): 1}) ** 4
    assert schur_coefficient("complex", [(c14, 1)], Partition((2, 2))) == 2
    lam = schur_coefficient("complex", [(root_poly("complex", 3, 4), 1)], Partition((5, 5, 5, 5)))
    assert lam == 321489
    with pytest.raises(ArityMismatch):
        schur_coefficient("complex", once([SparsePoly.one(2), SparsePoly.one(3)]), Partition((1, 1)))


def test_orthonormality():
    for k in range(1, 5):
        for n in range(0, 9):
            parts = [Partition(p) for p in partitions_of(n, k)]
            schurs = {b.parts: schur_polynomial("complex", b) for b in parts}
            for a in parts:
                for b in parts:
                    lam = schur_coefficient("complex", [(schurs[b.parts], 1)], a)
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
            lam = schur_coefficient("complex", [(f, 1)], Partition(p))
            if lam:
                recon = recon + schur_polynomial("complex", Partition(p)) * lam
        assert recon == f


def test_real_schur_polynomial_examples():
    assert schur_polynomial("real", Partition((5, 5, 5, 5))).terms == {(5, 5): 1}
    assert schur_polynomial("real", Partition((7, 7, 3, 3))).terms == {
        (7, 3): 1, (5, 5): 1, (3, 7): 1}
    assert schur_polynomial("real", Partition((4, 4, 2, 2))).terms == {
        (4, 2): 1, (2, 4): 1}
    with pytest.raises(NotEvenOrOdd):
        schur_polynomial("real", Partition((3, 2, 1, 0)))


def test_real_complex_bridge():
    # even 2k-partitions: the real Schur polynomial is the complex one in squares
    for k in (1, 2, 3):
        for n in range(0, 7):
            for beta in partitions_of(n, k):
                alpha = Partition(tuple(x for b in beta for x in (2 * b, 2 * b)))
                real = schur_polynomial("real", alpha)
                cplx = schur_polynomial("complex", Partition(beta))
                squared = SparsePoly(k, {tuple(2 * x for x in e): c for e, c in cplx.terms.items()})
                assert real == squared, (beta, k)


def test_real_schur_coefficient_examples():
    f3 = [(root_poly("real", 3, 2), 1)]
    lam = schur_coefficient("real", f3, Partition((5, 5, 5, 5)))
    assert abs(lam) == 189
    assert abs(schur_coefficient("real", f3, Partition((7, 7, 3, 3)))) == 36
    s = schur_polynomial("real", Partition((4, 4, 2, 2)))
    assert schur_coefficient("real", [(s, 1)], Partition((4, 4, 2, 2))) == 1
    with pytest.raises(NotEvenOrOdd):
        schur_coefficient("real", f3, Partition((3, 2, 1, 0)))


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
            lam = schur_coefficient("real", [(f, 1)], alpha)
            if lam:
                recon = recon + schur_polynomial("real", alpha) * lam
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
    with pytest.raises(ValueError, match="^complex root polynomial must be symmetric$"):
        root_class("complex", SparsePoly(2, {(1, 0): 1}))
    with pytest.raises(NotEulerPontryagin, match="^real root polynomial must lie in the Euler-Pontryagin ring$"):
        root_class("real", SparsePoly(2, {(2, 1): 1, (1, 2): 1}))
    with pytest.raises(OutOfDomain, match="unknown regime 'quaternionic'"):
        root_class("quaternionic", SparsePoly(2, {(1, 0): 1}))  # the regime is refused before the symmetry
    assert is_symmetric(SparsePoly(2, {(1, 0): 2, (0, 1): 2}))
    assert not is_symmetric(SparsePoly(2, {(1, 0): 2, (0, 1): 3}))


def test_root_polynomial_is_an_immutable_value():
    with pytest.raises(ValueError, match="must be symmetric"):
        root_class("complex", SparsePoly(2, {(2, 0): 1, (0, 2): 2}))
    f = SparsePoly(2, {(1, 0): 1, (0, 1): 1})
    assert root_class("complex", f) is f
    g = SparsePoly(2, {(2, 0): 1, (1, 1): 3, (0, 2): 1})
    assert root_class("real", g) is g
    r = schur_polynomial("complex", Partition((1, 0)))
    assert r == SparsePoly(2, {(0, 1): 1, (1, 0): 1})
    assert r != f * f
    with pytest.raises(AttributeError):
        r.terms = (f * f).terms
    with pytest.raises(AttributeError):
        r.nvars = 3
    assert r == f


def test_is_symmetric_against_every_permutation():
    rng = random.Random(29)
    cases = [
        SparsePoly(3, {(2, 1, 0): 1, (0, 2, 1): 1, (1, 0, 2): 1}),  # invariant under the 3-cycle only
        SparsePoly(3, {(1, 2, 0): 1, (2, 1, 0): 1}),  # invariant under (1 2) only
    ]
    for k in range(1, 5):
        for _ in range(20):
            f = random_poly(rng, k, 6, 3)
            g = symmetrize(f)
            cases += [f, g, g + SparsePoly(k, {tuple(rng.randint(0, 3) for _ in range(k)): 1})]
        for parts in partitions_of(4, k):
            cases.append(schur_polynomial("complex", Partition(parts)))
    for f in cases:
        assert is_symmetric(f) == is_symmetric_by_permutations(f), f
    assert not is_symmetric(cases[0]) and not is_symmetric(cases[1])
    assert sum(map(is_symmetric, cases)) > len(cases) // 3


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
    num = numeric_schur_coefficient("complex", [(s20, 1)], Partition((2, 0)), grid=16)
    assert abs(num - 1.0) < 1e-9

    num = numeric_schur_coefficient("real", linear_factors("real", 3, 2), Partition((5, 5, 5, 5)), grid=64)
    assert min(abs(num - 189), abs(num + 189)) < 1e-6 * 189

    num = numeric_schur_coefficient("complex", linear_factors("complex", 3, 4), Partition((5, 5, 5, 5)))
    assert abs(num - 321489) < 1e-6 * 321489


def test_numeric_threshold_guard():
    f34, factors, alpha = root_poly("complex", 3, 4), linear_factors("complex", 3, 4), Partition((5, 5, 5, 5))
    thr = threshold_from_terms("complex", f34.terms, alpha.parts)
    assert thr <= 2 * f34.degree() + 1
    num = numeric_schur_coefficient("complex", factors, alpha, grid=thr)
    assert abs(num - 321489) < 1e-6 * 321489
    with pytest.raises(ValueError):
        numeric_schur_coefficient("complex", factors, alpha, grid=thr - 1)
    num = numeric_schur_coefficient("complex", factors, alpha, grid=MAX_GRID)
    assert abs(num - 321489) < 1e-6 * 321489
    with pytest.raises(OutOfDomain, match=str(MAX_GRID)):
        numeric_schur_coefficient("complex", factors, alpha, grid=MAX_GRID + 1)


def test_numeric_zero_polynomial():
    assert numeric_schur_coefficient("complex", [(SparsePoly.zero(2), 1)], Partition((1, 0))) == 0j


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
    alpha, signs = Partition(parts), (1,) if regime == "complex" else (1, -1)
    value = schur_coefficient(regime, [(root_poly(regime, d, k), 1)], alpha)
    num = numeric_schur_coefficient(regime, linear_factors(regime, d, k), alpha, grid=grid)
    err = min(abs(num - s * value) for s in signs)
    assert err <= 1e-9 * (abs(value) or 1), (value, num)


@pytest.mark.parametrize("regime,d,k,parts", [(r, d, k, p) for r, d, k, p, _ in NUMERIC_LADDER[3:]])
def test_quadrature_price(monkeypatch, regime, d, k, parts):
    # the sweep is priced before f is built, on the exponent vectors of f's degree with each entry at most
    # its axis's largest exponent, which bound f's terms: at the price it runs, and one unit below it is
    # refused
    from schubertcount import schur

    alpha, factors, f = Partition(parts), linear_factors(regime, d, k), root_poly(regime, d, k)
    caps = [max(e[a] for e in f.terms) for a in range(k)]
    vectors = sum(sum(e) == f.degree() for e in itertools.product(*(range(c + 1) for c in caps)))
    assert len(f.terms) <= vectors <= math.comb(f.degree() + k - 1, k - 1)
    ga, gb = schur._alternant_exponents(regime, alpha, k)
    shifts = schur._sorted_shifts(ga, vandermonde(gb, k).terms)
    price = len(shifts) * vectors * k * schur.SWEEP_UNITS
    monkeypatch.setattr(schur, "MAX_WORK", price)
    schur.numeric_schur_coefficient(regime, factors, alpha)
    monkeypatch.setattr(schur, "MAX_WORK", price - 1)
    monkeypatch.setattr(schur, "kronecker_product", _unbuilt)
    with pytest.raises(OutOfDomain, match="quadrature"):
        schur.numeric_schur_coefficient(regime, factors, alpha)


def _unbuilt(*args, **kwargs):
    raise AssertionError("f was built")


# the rows of both ladders, each once (the grid plays no part)
THRESHOLD_CASES = list(dict.fromkeys(case[:4] for case in NUMERIC_LADDER + SORTED_SHIFT_CASES))


@pytest.mark.parametrize("regime,d,k,parts", THRESHOLD_CASES,
                         ids=[f"{r}-{d}-{k}-{','.join(map(str, p))}" for r, d, k, p in THRESHOLD_CASES])
def test_threshold_from_factors_matches_expanded_terms(monkeypatch, regime, d, k, parts):
    # the oracle reads its threshold from the factors, before f is built: the same one as f's terms give
    from schubertcount import schur

    thr = threshold_from_terms(regime, root_poly(regime, d, k).terms, parts)
    monkeypatch.setattr(schur, "kronecker_product", _unbuilt)
    with pytest.raises(OutOfDomain, match=f"^grid {thr - 1} below the exactness threshold {thr}$"):
        numeric_schur_coefficient(regime, linear_factors(regime, d, k), Partition(parts), grid=thr - 1)


def test_quadrature_refusals_come_before_f_is_built(monkeypatch):
    # a grid out of range, and a leading coefficient past the float range, are refused from the factors alone;
    # any other coefficient past the float range is refused once f is built
    from schubertcount import schur

    factors, alpha = linear_factors("complex", 7, 4), Partition((30, 30, 30, 30))
    big = [(SparsePoly(2, {(2, 0): 1, (1, 1): 10**309, (0, 2): 1}), 1)]
    with pytest.raises(OutOfDomain, match="a coefficient of f exceeds the float range"):
        numeric_schur_coefficient("complex", big, Partition((1, 0)))
    monkeypatch.setattr(schur, "kronecker_product", _unbuilt)
    for grid, match in ((MAX_GRID + 1, "above the largest accepted grid"), (57, "below the exactness threshold 58"),
                        (3, "below the exactness threshold 58")):
        with pytest.raises(OutOfDomain, match=match):
            numeric_schur_coefficient("complex", factors, alpha, grid=grid)
    lead = [(SparsePoly.linear_form((10**160, 10**160)), 2)]
    with pytest.raises(OutOfDomain, match="leading coefficient of f exceeds the float range"):
        numeric_schur_coefficient("complex", lead, Partition((1, 0)))
    assert numeric_schur_coefficient("complex", [(SparsePoly.zero(2), 1), (SparsePoly.linear_form((1, 1)), 3)],
                                     Partition((1, 0))) == 0j


def test_delta():
    assert delta(4) == (3, 2, 1, 0)
    assert delta(1) == (0,)


@st.composite
def factors_and_partition(draw, regime):
    """Random short lists of small homogeneous factors in 1-3 variables, their
    exponents of degree 0-3 times a common step of 1 or 2, and a partition of
    the regime: length k (complex) or an even or odd 2k-partition (real)."""
    k, step = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def factor(degree):
        # a multiset of `degree` variables is an exponent of that degree
        exponent = st.lists(st.integers(0, k - 1), min_size=degree, max_size=degree).map(
            lambda xs: tuple(step * xs.count(i) for i in range(k)))
        return st.dictionaries(exponent, st.integers(-4, 4), min_size=1, max_size=4)

    factors = [SparsePoly(k, terms) for terms in draw(st.lists(st.integers(0, 3).flatmap(factor), max_size=5))]
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
    return (product * vandermonde(ga, k)).terms.get(tuple(a + b for a, b in zip(parts, ga)), 0)


@settings(max_examples=150, deadline=None)
@given(factors_and_partition("complex"))
def test_engine_matches_expansion_complex(case):
    factors, alpha = case
    assert schur_coefficient("complex", once(factors), alpha) == _expanded_coefficient(factors, alpha, "complex")


@settings(max_examples=150, deadline=None)
@given(factors_and_partition("real"))
def test_engine_matches_expansion_real(case):
    factors, alpha = case
    assert schur_coefficient("real", once(factors), alpha) == _expanded_coefficient(factors, alpha, "real")


def test_engine_slot_growth_against_expansion():
    # signed coefficients near 10^6 widen the slots several times inside a truncated box
    rng = random.Random(53)
    # five homogeneous factors, whose degrees add up to the target's degree less the alternant's
    for regime, k, alpha, degrees in (("complex", 3, Partition((6, 5, 2)), (3, 3, 3, 2, 2)),
                                      ("real", 2, Partition((7, 7, 3, 3)), (2, 2, 2, 2, 2))):
        for _ in range(3):
            # an exponent of degree d counts the variables in d draws
            terms = [{tuple(map([rng.randrange(k) for _ in range(d)].count, range(k))):
                      rng.choice((-1, 1)) * rng.randint(10**6 - 99, 10**6) for _ in range(3)} for d in degrees]
            factors = [SparsePoly(k, t) for t in terms]
            assert schur_coefficient(regime, once(factors), alpha) == _expanded_coefficient(factors, alpha, regime)


def test_engine_degree_mismatch_and_empty_box():
    factors = [SparsePoly.linear_form((3, -1, 2)), SparsePoly.linear_form((0, 5, -7))] * 3
    for parts in ((2, 2, 2), (3, 2, 1), (2, 2, 1), (4, 1, 0)):
        alpha = Partition(parts)
        assert schur_coefficient("complex", once(factors), alpha) == _expanded_coefficient(factors, alpha, "complex")
    assert schur_coefficient("complex", once(factors), Partition((3, 2, 1))) != 0
    assert schur_coefficient("complex", once(factors), Partition((2, 2, 1))) == 0
    # no term of the alternant fits under the target: the shifted box is empty
    factors = [SparsePoly(3, {(2, 0, 0): 5, (1, 1, 0): -2, (0, 1, 1): 3})] * 3
    van = vandermonde((2, 1, 0), 3)
    product = factors[0] * factors[1] * factors[2]
    assert _alternant_coefficient(once(factors), (1, 1, 0), van) == (product * van).terms.get((1, 1, 0), 0) == 0


# homogeneous multi-term factors whose exponents all step by 2, with least exponents (2, 0, 0) and (2, 0, 2)
STEP_TWO_U = SparsePoly(3, {(2, 2, 0): 1, (2, 0, 2): -2, (4, 0, 0): 3})
STEP_TWO_V = SparsePoly(3, {(4, 0, 2): 3, (2, 2, 2): -1})
MONOMIAL = SparsePoly(3, {(3, 1, 0): -3})
CONSTANT = SparsePoly(3, {(0, 0, 0): 5})


@pytest.mark.parametrize("factors", [
    [MONOMIAL, STEP_TWO_U, STEP_TWO_V],
    [STEP_TWO_U, MONOMIAL, STEP_TWO_V],
    [STEP_TWO_U, STEP_TWO_V, MONOMIAL],
    [STEP_TWO_U, STEP_TWO_U, STEP_TWO_V, MONOMIAL, CONSTANT, STEP_TWO_U, MONOMIAL],
    [STEP_TWO_V] * 3,
    [MONOMIAL, CONSTANT, MONOMIAL],
    [STEP_TWO_U, SparsePoly.zero(3), STEP_TWO_V],
], ids=["monomial first", "monomial between", "monomial last", "repeated objects", "shifted only",
        "single terms only", "zero factor"])
def test_engine_reduction_against_expansion(factors):
    # single-term factors leave the product as a scalar and a shift; the rest are divided by their common step
    product = SparsePoly.one(3)
    for f in factors:
        product = product * f
    # the open box is reduced the same way and maps every term back
    assert kronecker_product(once(factors), 3) == product.terms
    top = sum(max(map(sum, f.terms), default=0) for f in factors)
    values = []
    for size in range(top + 1):
        for parts in partitions_of(size, 3):
            alpha = Partition(parts)
            value = schur_coefficient("complex", once(factors), alpha)
            assert value == _expanded_coefficient(factors, alpha, "complex"), parts
            values.append(value)
    assert any(values) == all(factors)
