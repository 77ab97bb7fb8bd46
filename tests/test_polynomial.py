import itertools
import math
import operator
import random
import time

import pytest

from helpers import naive_product_of_linear_forms, once, random_poly
from schubertcount.combinatorics import OutOfDomain
from schubertcount.polynomial import (
    ArityMismatch,
    NotAPerfectSquare,
    SparsePoly,
    exact_sqrt,
    kronecker_product,
    packed_layout,
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
    assert (q**2).terms.get((2, 2), 0) == 2
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


def _sequential_product(factors, nvars):
    product = SparsePoly.one(nvars)
    for f in factors:
        product = product * f
    return product


def test_product_of_wide_signed_rows():
    # entries up to 10^6 in size, zeros among them, widen the slots several times
    rng = random.Random(11)
    for _ in range(20):
        k = rng.randint(1, 4)
        rows = [tuple(rng.choice((0, rng.randint(-10**6, 10**6))) for _ in range(k)) for _ in range(rng.randint(1, 9))]
        assert product_of_linear_forms(rows, k) == naive_product_of_linear_forms(rows, k), rows
    assert product_of_linear_forms([(2, -3), (0, 0), (1, 1)], 2).is_zero()


def _random_factor(rng, nvars, size):
    """Four draws of a term of degree 2 in nvars >= 2 variables, redrawn until
    at least two differ, with coefficients of either sign near `size`."""
    terms = {}
    while len(terms) < 2:
        for _ in range(4):
            e = [0] * nvars
            for _ in range(2):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = rng.choice((-1, 1)) * rng.randint(size - 1000, size)
    return SparsePoly(nvars, terms)


def test_kronecker_slot_width_grows_through_repacks():
    # l1 norms near 4*10^6 need 3, 6, 9, 12 and 14 bytes as the factors go in: the planned
    # slots double to 3, 6 and 12 bytes, hold at 12, and end capped at the final 14
    rng = random.Random(7)
    for nvars in (3, 4, 2, 2):
        factors = [_random_factor(rng, nvars, 10**6) for _ in range(5)]
        expected = _sequential_product(factors, nvars)
        assert max(abs(c) for c in expected.terms.values()).bit_length() > 96
        assert packed_layout(once(factors), nvars).widths == [3, 6, 12, 12, 14]
        assert kronecker_product(once(factors), nvars) == expected.terms
        # a truncated box drops monomials that a full product keeps
        targets = rng.sample(sorted(expected.terms), 4) + [(1,) * nvars]
        assert kronecker_product(once(factors), nvars, targets) == {t: expected.terms.get(t, 0) for t in targets}
        # boxes narrower than the steps of 2 on one slotted axis: hi of 0 or 1 there,
        # for all five factors and for the first two alone
        pair = (factors[:2], _sequential_product(factors[:2], nvars))
        for axis in range(1, nvars):
            for top in (0, 1):
                for some, product in ((factors, expected), pair):
                    targets = [t for t in sorted(product.terms) if t[axis] <= top]
                    targets.append(tuple(top if a == axis else 1 for a in range(nvars)))
                    expected_here = {t: product.terms.get(t, 0) for t in targets}
                    assert kronecker_product(once(some), nvars, targets) == expected_here


@pytest.mark.parametrize("signed", [False, True])
def test_unsigned_and_signed_slots_match_the_expansion(signed):
    # non-negative factors run on unsigned slots; factors of mixed sign, whose partial products go negative
    # before the last factor, on signed ones.  Each set repacks at least once, in an open box (no padding,
    # no clear) and in a box of targets (padding, cleared after each factor)
    rng = random.Random(29)
    for nvars in (3, 4, 2, 2):
        factors = [_random_factor(rng, nvars, 10**6) for _ in range(5)]
        if not signed:
            factors = [P(nvars, {e: abs(c) for e, c in f.terms.items()}) for f in factors]
        partial = list(itertools.accumulate(factors, operator.mul))
        assert any(c < 0 for p in partial[:-1] for c in p.terms.values()) == signed
        expected = partial[-1].terms
        targets = rng.sample(sorted(expected), 4) + [(1,) * nvars]
        for box in (None, targets):
            layout = packed_layout(once(factors), nvars, box)
            assert layout.signed == signed
            assert layout.widths[0] < layout.widths[-1]
            assert any(layout.pad) == (box is not None)
            got = kronecker_product(once(factors), nvars, box)
            assert got == (expected if box is None else {t: expected.get(t, 0) for t in box})


def test_a_negative_term_past_the_box_leaves_the_slots_unsigned():
    # -5 x2^3 lies past the box of targets whose x2 exponent is at most 2, so no kept coefficient is negative
    f, g = P(2, {(3, 0): 3, (2, 1): 2, (0, 3): -5}), P(2, {(1, 0): 1, (0, 1): 4})
    expected = (f * f * g).terms
    targets = [t for t in sorted(expected) if t[1] <= 2]
    assert packed_layout([(f, 2), (g, 1)], 2, targets).signed is False
    assert packed_layout([(f, 2), (g, 1)], 2).signed is True
    assert kronecker_product([(f, 2), (g, 1)], 2, targets) == {t: expected[t] for t in targets}
    assert kronecker_product([(f, 2), (g, 1)], 2) == expected


@pytest.mark.parametrize("size", [2000, 10**6, 10**30])
def test_width_schedule(monkeypatch, size):
    # one width per multi-term factor, never decreasing, each wide enough for the running
    # product of l1 norms, the last being the final width the refusal prices
    from schubertcount import polynomial

    rng = random.Random(size)
    for nvars in (3, 4, 2, 2):
        factors = [_random_factor(rng, nvars, size) for _ in range(6)]
        factors[2] = SparsePoly(nvars, {(1,) * nvars: -7})
        product = sorted(_sequential_product(factors, nvars).terms)
        top = max(e[1] for e in product)
        for targets in (None, product[::3], [e for e in product if e[1] >= top - 1]):
            layout = packed_layout(once(factors), nvars, targets)
            norms = [sum(map(abs, f.terms.values())) for f in factors if len(f.terms) > 1]
            needs = [(math.prod(norms[:i + 1]).bit_length() + 8) // 8 for i in range(len(norms))]
            assert len(layout.widths) == len(layout.terms) == 5
            assert layout.widths == sorted(layout.widths)
            assert all(w >= need for w, need in zip(layout.widths, needs))
            assert layout.widths[-1] == layout.width == needs[-1]
            # the price is the schedule that runs: each copy on the slots still live when it goes in
            live = [layout.nslots - layout.stride[0] * d for d in [0] + layout.drops[:-1]]
            assert targets is not None or not any(layout.drops)  # an open box reads every row
            assert layout.peak == 8 * max(map(operator.mul, live, layout.widths))
            assert layout.work == sum(n * len(t) * w for n, t, w in zip(live, layout.terms, layout.widths))
            expected = kronecker_product(once(factors), nvars, targets)
            for budget, price in (("MAX_PEAK_BYTES", layout.peak), ("MAX_WORK", layout.work)):
                monkeypatch.setattr(polynomial, budget, price)
                assert kronecker_product(once(factors), nvars, targets) == expected
                monkeypatch.setattr(polynomial, budget, price - 1)
                with pytest.raises(OutOfDomain):
                    kronecker_product(once(factors), nvars, targets)
                monkeypatch.undo()


def _drop_cases():
    """(nvars, pairs, targets) on one, two and three slotted axes, on unsigned and signed slots: runs of
    m > 1, a single-term factor, a run that reaches nothing on the outer slotted axis (with two or three
    axes), coefficients near 10^6 (so the slots widen after rows are dropped), and targets on the top three
    rows of the outer slotted axis, the lowest of them read."""
    rng = random.Random(31)
    for nvars in (2, 3, 4):
        for signed in (False, True):
            fs = [_random_factor(rng, nvars, 10**6) for _ in range(3)]
            if nvars > 2:
                # x2 appears in no term: its copies go in last and lift no row
                inner = [a for a in range(nvars) if a != 1]
                squares = {tuple(2 * (a == i) for a in range(nvars)): c for i, c in zip(inner, (5, 7))}
                fs.append(P(nvars, {e: c for e, c in _random_factor(rng, nvars, 10**6).terms.items()
                                    if not e[1]} | squares))
            if not signed:
                fs = [P(nvars, {e: abs(c) for e, c in f.terms.items()}) for f in fs]
            single = P(nvars, {(0,) * (nvars - 1) + (1,): -3 if signed else 3})
            pairs = [(fs[0], 2), (fs[1], 4), (single, 2), (fs[2], 3)] + [(f, 3) for f in fs[3:]]
            expected = _sequential_product([f for f, m in pairs for _ in range(m)], nvars).terms
            top = max(e[1] for e in expected)
            targets = [e for e in sorted(expected) if e[1] >= top - 2] + [(0,) * nvars]
            yield pytest.param(nvars, pairs, targets, {t: expected.get(t, 0) for t in targets},
                               id=f"{nvars - 1}-axes-{'signed' if signed else 'unsigned'}")


@pytest.mark.parametrize("nvars,pairs,targets,expected", _drop_cases())
def test_dropped_rows_match_the_expansion(monkeypatch, nvars, pairs, targets, expected):
    # rows that no copy still to come can lift to a read are shifted out as the copies go in; the drops
    # never decrease, never pass the lowest row read, and the price (which the lower bound checked before
    # layout never exceeds) is the schedule that runs
    from schubertcount import polynomial

    layout = packed_layout(pairs, nvars, targets)
    lowest = min(u[1] for u in layout.reads.values())
    assert layout.drops == sorted(layout.drops) and 0 < layout.drops[-1] <= lowest
    live = [layout.nslots - layout.stride[0] * d for d in [0] + layout.drops[:-1]]
    assert layout.peak == 8 * max(map(operator.mul, live, layout.widths))
    assert layout.work == sum(n * len(t) * w for n, t, w in zip(live, layout.terms, layout.widths))
    assert kronecker_product(pairs, nvars, targets) == expected
    for budget, price in (("MAX_WORK", layout.work), ("MAX_PEAK_BYTES", layout.peak)):
        monkeypatch.setattr(polynomial, budget, price)
        assert kronecker_product(pairs, nvars, targets) == expected
        monkeypatch.setattr(polynomial, budget, price - 1)
        with pytest.raises(OutOfDomain):
            packed_layout(pairs, nvars, targets)
        monkeypatch.undo()


def test_the_drop_ladder_covers_its_cases():
    # among the cases: signed slots with drops, a read on the lowest live row, and a repack after a drop
    seen = set()
    for case in _drop_cases():
        nvars, pairs, targets, _ = case.values
        layout = packed_layout(pairs, nvars, targets)
        lowest = min(u[1] for u in layout.reads.values())
        seen.add("signed" if layout.signed else "unsigned")
        if layout.drops[-1] == lowest:
            seen.add("lowest row read")
        if any(w > v and d for v, w, d in zip(layout.widths, layout.widths[1:], layout.drops)):
            seen.add("repack after a drop")
    assert seen == {"signed", "unsigned", "lowest row read", "repack after a drop"}


def test_runs_go_in_by_their_reach():
    # g reaches x2^3 on the outer slotted axis and goes in first; f and h reach x2^1 and keep their order
    f, g, h = P(2, {(1, 0): 1, (0, 1): 2}), P(2, {(3, 0): 1, (0, 3): 5}), P(2, {(1, 0): 7, (0, 1): 1})
    product = (f * g * h).terms
    layout = packed_layout(once([f, g, h]), 2, sorted(product))
    assert layout.terms == [[(0, 1), (3, 5)], [(0, 1), (1, 2)], [(0, 7), (1, 1)]]
    assert kronecker_product(once([f, g, h]), 2, sorted(product)) == product


def _power_cases():
    """(nvars, f, g): two random factors in 3, 4, 2 and 2 variables, f shifted by
    x1...xn so that its least exponents are not 0, and two real orbit products."""
    from schubertcount.counts import linear_factors

    rng = random.Random(19)
    for nvars in (3, 4, 2, 2):
        f = _random_factor(rng, nvars, 10**6) * P(nvars, {(1,) * nvars: 1})
        yield nvars, f, _random_factor(rng, nvars, 10**6)
    for d, k in ((5, 2), (5, 3)):
        f, g = [f for f, _ in linear_factors("real", d, k) if len(f.terms) > 1][-2:]
        yield k, f, g


@pytest.mark.parametrize("nvars,f,g", _power_cases())
def test_power_equals_its_copies(nvars, f, g):
    copies, power = [(f, 1), (g, 1), (f, 1)], [(f, 2), (g, 1)]
    expected = _sequential_product([f, g, f], nvars)
    assert kronecker_product(power, nvars) == kronecker_product(copies, nvars) == expected.terms
    targets = sorted(expected.terms)[::2] + [(1,) * nvars]
    got = kronecker_product(power, nvars, targets)
    assert got == kronecker_product(copies, nvars, targets) == {t: expected.terms.get(t, 0) for t in targets}
    for box in (None, targets):
        a, b = packed_layout(copies, nvars, box), packed_layout(power, nvars, box)
        assert (a.hi, a.pad, a.nslots) == (b.hi, b.pad, b.nslots)
    # a pair with exponent 0 contributes 1
    assert kronecker_product([(f, 0), (g, 1)], nvars) == g.terms
    assert kronecker_product([(f, 0), (SparsePoly.zero(nvars), 0)], nvars) == {(0,) * nvars: 1}


def test_huge_exponents_are_answered_or_refused_before_their_copies():
    # x2 + x3 keeps no term under x1^m, so every coefficient is 0 whatever m is; x1 + x2 keeps x1, one
    # slot byte per copy while its running norm 2^j stays below 2^7, and copy j needs at least (j + 2)/8
    # bytes, so 10^12 copies are refused by the closed-form bound alone; copy j of x1 + 255*x2 needs
    # (8j + 2)/8 bytes or more, so 10^6 of its copies on one slot are refused before the running product
    # of their norms is built
    start = time.perf_counter()
    f, g = P(3, {(0, 1, 0): 1, (0, 0, 1): 1}), P(3, {(1, 0, 0): 1, (0, 1, 0): 1})
    for m in (3, 10**12):
        assert packed_layout([(f, m)], 3, [(m, 0, 0)]) is None
        assert kronecker_product([(f, m), (g, 1)], 3, [(m + 1, 0, 0)]) == {(m + 1, 0, 0): 0}
    assert packed_layout([(g, 3)], 3, [(3, 0, 0)]).work == 3
    h = P(3, {(1, 0, 0): 1, (0, 1, 0): 255})
    for factor, m in ((g, 10**12), (g, 10**500), (h, 10**6)):
        with pytest.raises(OutOfDomain, match=r"^the packed product of 10\^\d+\.\d copies on 10\^0\.0 slots .{,80}$"):
            packed_layout([(factor, m)], 3, [(m, 0, 0)])
    assert time.perf_counter() - start < 0.5


def test_kronecker_empty_and_zero_factors():
    assert kronecker_product([], 3) == {(0, 0, 0): 1}
    assert kronecker_product([], 2, [(0, 0), (1, 0)]) == {(0, 0): 1, (1, 0): 0}
    rng = random.Random(13)
    f, g = (_random_factor(rng, 3, 10**6) for _ in range(2))
    assert kronecker_product(once([f, SparsePoly.zero(3), g]), 3) == {}
    targets = [(2, 1, 1), (1, 2, 1), (0, 0, 4)]
    assert kronecker_product(once([f, g, SparsePoly.zero(3)]), 3, targets) == dict.fromkeys(targets, 0)
    # without the zero factor the same targets are not all zero
    expected = {t: (f * g).terms.get(t, 0) for t in targets}
    assert kronecker_product(once([f, g]), 3, targets) == expected != dict.fromkeys(targets, 0)
    with pytest.raises(ArityMismatch):
        kronecker_product(once([f, SparsePoly.one(2)]), 3)


def test_kronecker_one_variable():
    # one variable, where every factor is a single term, and one slotted axis: factors of degree 8 and 6
    # over the common step 2, with least exponents (2, 2) and (4, 0)
    u, v = P(2, {(2, 6): 10**6, (4, 4): -3, (6, 2): 7}), P(2, {(4, 2): -(10**6), (6, 0): 1})
    for nvars, factors in ((1, [P(1, {(2,): 3}), P(1, {(1,): -5})] * 3), (2, [u, v] * 3)):
        expected = _sequential_product(factors, nvars)
        assert kronecker_product(once(factors), nvars) == expected.terms
        targets = [(e,) for e in range(10)] if nvars == 1 else [(42 - e, e) for e in range(20)] + [(0, 8)]
        assert kronecker_product(once(factors), nvars, targets) == {t: expected.terms.get(t, 0) for t in targets}


def test_open_box_has_no_padding():
    # with no targets hi is the full degree along each axis, which no partial product passes,
    # so each slotted axis has radix hi + 1: complex root_poly(5, 4) has 35 forms with z_a, and
    # 5*z_a folds into the scalar and shift, so hi is 34 and the box has 35^3 slots, not 36^3
    from schubertcount.combinatorics import linear_factor_rows

    forms = [SparsePoly.linear_form(row) for row in linear_factor_rows("complex", 5, 4)]
    layout = packed_layout(once(forms), 4)
    assert layout.hi == [34, 34, 34]
    assert layout.pad == [0, 0, 0]
    assert layout.radix == [35, 35, 35]
    assert layout.nslots == 42875
    assert len(kronecker_product(once(forms), 4)) == 20535


def test_kronecker_degree_mismatch_is_zero():
    rng = random.Random(17)
    factors = [_random_factor(rng, 3, 50) for _ in range(3)]
    expected = _sequential_product(factors, 3)
    assert all(sum(e) == 6 for e in expected.terms)
    targets = [(3, 2, 1), (2, 2, 1), (3, 2, 2), (0, 0, 0)]
    got = kronecker_product(once(factors), 3, targets)
    assert got == {t: expected.terms.get(t, 0) for t in targets}
    assert kronecker_product(once(factors), 3, targets[1:]) == dict.fromkeys(targets[1:], 0)


def test_coefficient_at():
    f = P(2, {(2, 0): 1, (0, 2): -1})
    assert f.terms.get((2, 0), 0) == 1
    assert f.terms.get((1, 1), 0) == 0
    f3 = product_of_linear_forms([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    assert f3.terms.get((2, 2), 0) == 45


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


def test_to_text():
    f3 = product_of_linear_forms([(3, 0), (2, 1), (1, 2), (0, 3)], 2)
    assert f3.to_text() == "18*x1^3*x2^1 + 45*x1^2*x2^2 + 18*x1^1*x2^3"
    assert SparsePoly.zero(3).to_text() == "0"


def test_degree_and_leading():
    f = P(2, {(2, 0): 3, (1, 1): -1})
    assert f.degree() == 2
    assert f.leading_term() == ((2, 0), 3)
    assert SparsePoly.zero(2).degree() == -1
