import cmath
import itertools

import numpy as np
import pytest

from schubertcount import kernels


def _slab_case(k, g, seed=0):
    rng = np.random.default_rng(seed)
    perms = []
    signs = []
    for perm in itertools.permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k) if perm[i] > perm[j])
        perms.append(perm)
        signs.append(-1.0 if inv % 2 else 1.0)
    fvals = rng.normal(size=g ** (k - 1)) + 1j * rng.normal(size=g ** (k - 1))
    zgrid = np.exp(2j * np.pi * np.arange(g) / g)
    z0 = np.exp(0.37j)
    gammas = np.sort(rng.integers(0, 9, size=k))[::-1].copy()
    gammas = gammas + np.arange(k - 1, -1, -1)  # make strictly decreasing
    return (
        fvals.astype(np.complex128),
        complex(z0),
        zgrid.astype(np.complex128),
        gammas.astype(np.int64),
        np.array(perms, np.int64),
        np.array(signs, np.float64),
    )


def _pointwise_slab(fvals, z0, zgrid, gammas, perms, signs, spower):
    """The slab sum node by node, in plain Python complex arithmetic."""
    k = len(gammas)
    total = 0j
    for flat, idx in enumerate(itertools.product(range(len(zgrid)), repeat=k - 1)):
        z = [complex(z0)] + [complex(zgrid[t]) for t in idx]
        va = 1 + 0j
        for i in range(k):
            for j in range(i + 1, k):
                va *= z[i] ** spower - z[j] ** spower
        vb = 0j
        for sign, perm in zip(signs, perms):
            term = complex(sign)
            for i in range(k):
                term *= z[perm[i]] ** int(gammas[i])
            vb += term
        total += complex(fvals[flat]) * va * vb.conjugate()
    return total


@pytest.mark.parametrize("k,g", [(2, 17), (3, 9), (4, 6)])
@pytest.mark.parametrize("spower", [1, 2])
def test_quadrature_slab_against_pointwise(k, g, spower):
    fvals, z0, zgrid, gammas, perms, signs = args = _slab_case(k, g, seed=k * 10 + spower)
    ref = _pointwise_slab(*args, spower)
    table = kernels.alternant_table(zgrid, gammas, list(zip(perms, signs)), spower)
    out = kernels.quadrature_slab(fvals, z0, zgrid, table, gammas, spower)
    assert abs(out - ref) <= 1e-9 * max(1.0, abs(ref))


def test_torus_grid_eval_random_against_pointwise():
    rng = np.random.default_rng(5)
    exps = rng.integers(0, 12, size=(9, 2)).astype(np.int64)
    coeffs = rng.normal(size=9)
    g, shift = 64, 4
    vals = kernels.torus_grid_eval(exps, coeffs, shift, g)
    step = 2 * cmath.pi / g
    ref = np.array([
        [sum(c * cmath.exp(1j * step * ((e1 - shift) * t1 + (e2 - shift) * t2))
             for (e1, e2), c in zip(exps.tolist(), coeffs.tolist()))
         for t2 in range(g)]
        for t1 in range(g)
    ])
    assert np.max(np.abs(vals - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_torus_grid_eval_against_pointwise():
    # one torus node, checked against a plain Python evaluation
    exps = np.array([[3, 1], [2, 2], [1, 3]], np.int64)
    coeffs = np.array([18.0, 45.0, 18.0])
    g = 64
    vals = kernels.torus_grid_eval(exps, coeffs, 2, g)
    t1, t2 = 5, 17
    th1 = 2 * np.pi * t1 / g
    th2 = 2 * np.pi * t2 / g
    direct = sum(
        c * np.exp(1j * ((e1 - 2) * th1 + (e2 - 2) * th2))
        for (e1, e2), c in zip(exps, coeffs)
    )
    assert abs(vals[t1, t2] - direct) < 1e-10 * abs(direct)
