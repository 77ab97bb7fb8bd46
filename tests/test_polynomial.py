import math
import random

import pytest

from helpers import naive_product_of_linear_forms, random_poly
from schubertcount.polynomial import (
    ArityMismatch,
    NotAPerfectSquare,
    NotDivisible,
    SparsePoly,
    TorusPoint,
    exact_div,
    exact_sqrt,
    product_of_linear_forms,
)

# f_3 for k=2, expanded by hand: 9 z1 z2 (2z1+z2)(z1+2z2)
F3_K2 = {(3, 1): 18, (2, 2): 45, (1, 3): 18}


def P(nvars, terms):
    return SparsePoly(nvars, terms)


def test_add_examples():
    z1 = P(2, {(1, 0): 1})
    assert (z1 + P(2, {(1, 0): -1})).is_zero()
    s = P(2, {(1, 0): 1, (0, 1): 1}) + P(2, {(0, 1): 1})
    assert s.terms == {(1, 0): 1, (0, 1): 2}
    m = P(2, {(2, 2): 1})
    assert (m + SparsePoly.zero(2)) == m
    with pytest.raises(ArityMismatch):
        z1 + P(3, {(1, 0, 0): 1})


def test_mul_examples():
    a = P(2, {(1, 0): 1, (0, 1): 1})
    b = P(2, {(1, 0): 1, (0, 1): -1})
    assert (a * b).terms == {(2, 0): 1, (0, 2): -1}
    m = P(2, {(1, 1): 1})
    assert (m * m).terms == {(2, 2): 1}
    f = random_poly(random.Random(0), 3, 8, 4)
    assert f * SparsePoly.one(3) == f
    assert (f * 0).is_zero()
    assert (3 * f).terms == {e: 3 * c for e, c in f.terms.items()}


def test_pow_examples():
    a = P(2, {(1, 0): 1, (0, 1): 1})
    assert (a**2).terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    f = random_poly(random.Random(1), 2, 5, 3)
    assert f**0 == SparsePoly.one(2)
    q = P(2, {(2, 0): 1, (0, 2): 1})
    assert (q**2).coefficient_at((2, 2)) == 2
    with pytest.raises(ValueError):
        f**-1


def test_product_of_linear_forms():
    assert product_of_linear_forms([(1, 0), (0, 1)], 2).terms == {(1, 1): 1}
    f3 = product_of_linear_forms([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    assert f3.terms == F3_K2
    assert product_of_linear_forms([], 2) == SparsePoly.one(2)
    with pytest.raises(ArityMismatch):
        product_of_linear_forms([(1, 0), (1,)], 2)


def test_product_matches_naive_oracle_and_permutation_invariance():
    rng = random.Random(3)
    for _ in range(25):
        k = rng.randint(1, 4)
        rows = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(0, 7))]
        expected = naive_product_of_linear_forms(rows, k)
        assert product_of_linear_forms(rows, k) == expected
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert product_of_linear_forms(shuffled, k) == expected


def test_coefficient_at():
    f = P(2, {(2, 0): 1, (0, 2): -1})
    assert f.coefficient_at((2, 0)) == 1
    assert f.coefficient_at((1, 1)) == 0
    f3 = product_of_linear_forms([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    assert f3.coefficient_at((2, 2)) == 45
    with pytest.raises(ArityMismatch):
        f.coefficient_at((1, 0, 0))


def test_exact_div_examples():
    num = P(2, {(3, 0): 1, (0, 3): -1})
    den = P(2, {(1, 0): 1, (0, 1): -1})
    assert exact_div(num, den).terms == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    assert exact_div(P(2, {(2, 2): 1}), P(2, {(1, 1): 1})).terms == {(1, 1): 1}
    with pytest.raises(NotDivisible):
        exact_div(P(2, {(2, 0): 1, (0, 2): 1}), den)
    with pytest.raises(ZeroDivisionError):
        exact_div(num, SparsePoly.zero(2))


def test_exact_div_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        k = rng.randint(1, 4)
        f = random_poly(rng, k, 10, 5)
        g = random_poly(rng, k, 6, 4)
        if g.is_zero():
            continue
        assert exact_div(f * g, g) == f


def test_exact_sqrt_examples():
    assert exact_sqrt(P(2, {(2, 2): 1})).terms == {(1, 1): 1}
    with pytest.raises(NotAPerfectSquare):
        exact_sqrt(P(2, {(2, 0): 1, (0, 2): 1}))
    with pytest.raises(NotAPerfectSquare):
        exact_sqrt(P(1, {(2,): -4}))
    with pytest.raises(NotAPerfectSquare):
        exact_sqrt(P(1, {(2,): 2}))
    with pytest.raises(ValueError):
        exact_sqrt(SparsePoly.zero(2))
    # 9 x^3 y^3 (4(x^2+y^2)^2 - 25 x^2 y^2), squared and recovered
    f = P(2, {(7, 3): 36, (5, 5): -153, (3, 7): 36})
    assert exact_sqrt(f * f) == f


def test_exact_sqrt_round_trip_normalizes_sign():
    rng = random.Random(9)
    for _ in range(40):
        k = rng.randint(1, 3)
        f = random_poly(rng, k, 8, 4)
        if f.is_zero():
            continue
        r = exact_sqrt(f * f)
        assert r == f or r == -f
        assert r.leading_term()[1] > 0


def test_ring_axioms_random():
    rng = random.Random(17)
    for _ in range(30):
        k = rng.randint(1, 4)
        f = random_poly(rng, k, 6, 4)
        g = random_poly(rng, k, 6, 4)
        h = random_poly(rng, k, 6, 4)
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_eval_torus():
    m = P(2, {(1, 1): 1})
    assert m.eval_torus(TorusPoint((0.0, 0.0))) == pytest.approx(1 + 0j)
    s = P(2, {(1, 0): 1, (0, 1): 1})
    assert abs(s.eval_torus(TorusPoint((0.0, math.pi)))) < 1e-12
    with pytest.raises(ArityMismatch):
        m.eval_torus(TorusPoint((0.0,)))


def test_eval_torus_multiplicative():
    rng = random.Random(29)
    for _ in range(20):
        k = rng.randint(1, 3)
        f = random_poly(rng, k, 6, 5, max_coeff=50)
        g = random_poly(rng, k, 6, 5, max_coeff=50)
        p = TorusPoint(tuple(rng.uniform(0, 2 * math.pi) for _ in range(k)))
        lhs = (f * g).eval_torus(p)
        rhs = f.eval_torus(p) * g.eval_torus(p)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_torus_point_normalizes():
    p = TorusPoint((2 * math.pi + 0.5, -0.5))
    assert p.angles[0] == pytest.approx(0.5)
    assert 0 <= p.angles[1] < 2 * math.pi


def test_text_round_trip():
    f3 = product_of_linear_forms([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    text = f3.to_text()
    assert text == "18*x1^3*x2^1 + 45*x1^2*x2^2 + 18*x1^1*x2^3"
    assert SparsePoly.from_text(text) == f3
    assert SparsePoly.zero(3).to_text() == "0"
    assert SparsePoly.from_text("0", nvars=3) == SparsePoly.zero(3)
    rng = random.Random(31)
    for _ in range(20):
        f = random_poly(rng, rng.randint(1, 4), 8, 5)
        assert SparsePoly.from_text(f.to_text(), nvars=f.nvars) == f


def test_degree_and_leading():
    f = P(2, {(2, 0): 3, (1, 1): -1})
    assert f.degree() == 2
    assert f.leading_term() == ((2, 0), 3)
    assert SparsePoly.zero(2).degree() == -1
    assert f.max_exponents() == (2, 1)
