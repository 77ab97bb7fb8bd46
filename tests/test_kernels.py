import cmath
import itertools
import math
import random

import pytest

from schubertcount import kernels
from schubertcount.counts import linear_factor_rows, root_poly


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
    # the threshold of `schur.quadrature_threshold`
    g = max(gb[0], max(max_exponents) + ga[0] - gb[-1]) + 1 + above
    ref = _pointwise_quadrature(terms, gb, perm_data, spower, g)
    out = kernels.torus_quadrature(terms, ga, gb, perm_data, g)
    assert abs(ref) > 0.1
    assert k < 3 or len(set(max_exponents[1:])) > 1
    assert abs(out - ref) <= 1e-9 * max(1.0, abs(ref)), (out, ref)


def _pointwise_extrema(d, g):
    """min, max and sign constancy of F_d = f_d / (x1 x2)^m over all g^2 torus
    nodes, and its argmax nodes row-major, from the expanded root polynomial
    evaluated node by node in plain Python."""
    terms = root_poly("real", d, 2).poly.terms
    m = sum(next(iter(terms))) // 2
    roots = [cmath.exp(2j * cmath.pi * t / g) for t in range(g)]
    values = [
        sum(c * roots[((e1 - m) * i + (e2 - m) * j) % g] for (e1, e2), c in terms.items())
        for i in range(g)
        for j in range(g)
    ]
    moduli = [abs(v) for v in values]
    top = max(moduli)
    sign_constant = (
        (all(v.real > 0 for v in values) or all(v.real < 0 for v in values))
        and max(abs(v.imag) for v in values) <= 1e-8 * top
    )
    hits = [divmod(n, g) for n, r in enumerate(moduli) if r >= top * (1.0 - 1e-9)]
    return min(moduli), top, sign_constant, hits


@pytest.mark.parametrize("d", [1, 3, 5])
def test_torus_extrema_against_pointwise(d):
    g = 64
    rows = linear_factor_rows("real", d, 2)
    ref_min, ref_max, ref_sign, ref_hits = _pointwise_extrema(d, g)
    lo, hi, sign_constant, hits = kernels.torus_extrema(rows, len(rows) // 2, g)
    assert abs(lo - ref_min) <= 1e-9 * ref_min
    assert abs(hi - ref_max) <= 1e-9 * ref_max
    assert sign_constant is ref_sign is True
    assert [tuple(hit) for hit in hits.tolist()] == ref_hits
