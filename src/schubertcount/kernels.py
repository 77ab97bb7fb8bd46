"""Hot numeric kernels, written in numpy; the only module that imports it.

Two kernels live here, both floating-point:

* ``quadrature_slab`` - the inner sum of the torus quadrature oracle: for one
  fixed first coordinate z0 it accumulates f(z) * V_a(z) * conj(V_b(z)) over
  the remaining grid axes, where V_a is a Vandermonde product (plain or in
  squared variables) and V_b a generalized Vandermonde alternant.  The part
  of V_a * conj(V_b) free of z0 is built once, by ``alternant_table``.
* ``torus_grid_eval`` - evaluation of a two-variable Laurent polynomial
  f(x) / (x1 x2)^shift on the full torus grid.

``torus_quadrature`` and ``torus_extrema`` set up their arrays and reduce
their results.  The exact integer arithmetic elsewhere in the package never
goes through this module, and imports it only on the float paths
(`schur.numeric_schur_coefficient` and `asymptotics.torus_scan`), so exact
commands never load numpy.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import factorial

import numpy as np


def quadrature_slab(fvals, z0, zgrid, table, gammas, spower):
    """Sum f(z)*V_a(z)*conj(V_b(z)) over one slab of the torus grid.

    fvals: flattened values of f on the slab, axes (z_2, ..., z_k) in
    row-major order, g nodes per axis.  z0 is the fixed first coordinate.
    `table` is `alternant_table` of the same grid, `gammas` and `spower`;
    the slab applies what depends on z0: f times the factors
    (z0^spower - z_j^spower) of V_a, and conj(z0^gammas) on the rows.
    """
    g = len(zgrid)
    dims = len(gammas) - 1
    gap = complex(z0) ** spower - np.asarray(zgrid) ** spower
    a = np.asarray(fvals).reshape((g,) * dims)
    for j in range(dims):
        a = a * gap.reshape([g if i == j else 1 for i in range(dims)])
    return complex(np.conj(complex(z0) ** np.asarray(gammas)) @ (table @ a.ravel()))


def alternant_table(zgrid, gammas, perm_data, spower):
    """The z0-free part of V_a * conj(V_b) on one slab: k rows of g^(k-1) nodes.

    V_a = prod_{i<j} (z_i^spower - z_j^spower) is prod_{j>=2} (z0^s - z_j^s)
    times B, the same product over z_2, ..., z_k.  V_b, the alternant of the
    exponents `gammas` over the (permutation, sign) pairs `perm_data`, is
    sum_i z0^gammas[i] * C_i(z_2, ..., z_k), with C_i the sum of the terms
    whose permutation puts z0 at place i.  Row i is conj(C_i) * B.
    """
    k = len(gammas)
    g = len(zgrid)
    axes = [np.asarray(zgrid).reshape([g if i == j else 1 for i in range(k - 1)]) for j in range(k - 1)]
    table = np.zeros((k,) + (g,) * (k - 1), np.complex128)
    for perm, sign in perm_data:
        term = np.complex128(sign)
        for i in range(k):
            if perm[i] != 0:
                term = term * axes[perm[i] - 1] ** int(gammas[i])
        table[list(perm).index(0)] += term
    np.conjugate(table, out=table)
    for i in range(k - 1):
        for j in range(i + 1, k - 1):
            table *= axes[i] ** spower - axes[j] ** spower
    return table.reshape(k, -1)


def torus_grid_eval(exps, coeffs, shift, grid):
    """Values of sum_r coeffs[r] * x1^(e1-shift) * x2^(e2-shift) on the torus grid."""
    th = 2.0 * np.pi * np.arange(grid) / grid
    f1 = np.asarray(exps)[:, 0] - shift
    f2 = np.asarray(exps)[:, 1] - shift
    u1, i1 = np.unique(f1, return_inverse=True)
    u2, i2 = np.unique(f2, return_inverse=True)
    c = np.zeros((len(u1), len(u2)), np.float64)
    np.add.at(c, (i1, i2), coeffs)
    p1 = np.exp(1j * np.outer(u1, th))
    p2 = np.exp(1j * np.outer(u2, th))
    return p1.T @ (c @ p2)


def _powers(grid, exps):
    """z^e at the nodes z = exp(2 pi i t / grid), rows t, columns e; the angle
    is reduced exactly, (t * e) mod grid, so exponents past the grid wrap."""
    steps = np.outer(np.arange(grid), np.asarray(exps, np.int64)) % grid
    return np.exp(2j * np.pi * steps / grid)


def torus_quadrature(terms, max_exponents, gb, perm_data, spower, grid, threads):
    """Trapezoidal rule, on a grid^k torus lattice, for the integral of
    f(z) * V_a(z) * conj(V_b(z)) / k!, with f = sum c z^e over `terms`.

    V_b is the alternant of the exponents `gb` over the (permutation, sign)
    pairs `perm_data`.  `alternant_table` is built once (k * grid^(k-1)
    complex values, 14.5 MB at k=4, grid 61).  On each slab of the first
    axis, f comes from one table of powers z^e per axis: the coefficient
    cube is contracted with the row of z0, then with each remaining axis.
    The slabs run in `quadrature_slab`, on `threads` workers if more than
    one, and are reduced in slab order so the result is deterministic.
    """
    k = len(gb)
    g = int(grid)
    cube = np.zeros(tuple(x + 1 for x in max_exponents), np.complex128)
    for e, c in terms.items():
        cube[e] = float(c)
    powers = [_powers(g, range(n)) for n in cube.shape]

    if k == 1:
        return complex(np.conj(_powers(g, gb))[:, 0] @ (powers[0] @ cube)) / g

    zgrid = np.exp(2j * np.pi * np.arange(g) / g)
    table = alternant_table(zgrid, gb, perm_data, spower)

    def slab(t0: int) -> complex:
        fvals = np.tensordot(powers[0][t0], cube, axes=(0, 0))
        for p in powers[1:]:
            fvals = np.tensordot(fvals, p, axes=(0, 1))
        return quadrature_slab(fvals.ravel(), zgrid[t0], zgrid, table, gb, spower)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            partials = list(pool.map(slab, range(g)))
    else:
        partials = [slab(t0) for t0 in range(g)]
    total = sum(partials, start=0j)
    return total / (factorial(k) * g**k)


def torus_extrema(terms, shift, grid):
    """Extrema of |f(x) / (x1 x2)^shift| over the grid x grid torus lattice,
    f = sum c x^e over the two-variable `terms` (exponents, coefficient).

    Returns the least and greatest modulus, whether the real part keeps one
    sign while the imaginary part stays below 1e-8 of the greatest modulus,
    and the grid nodes (i, j) where the modulus is within 1e-9 of its maximum.
    """
    exps = np.array([e for e, _ in terms], np.int64).reshape(len(terms), 2)
    coeffs = np.array([float(c) for _, c in terms], np.float64)
    values = torus_grid_eval(exps, coeffs, shift, grid)
    modulus = np.abs(values)
    max_mod = float(modulus.max())
    re = values.real
    sign_constant = bool(
        (np.all(re > 0.0) or np.all(re < 0.0))
        and np.abs(values.imag).max() <= 1e-8 * max_mod
    )
    hits = np.argwhere(modulus >= max_mod * (1.0 - 1e-9))
    return float(modulus.min()), max_mod, sign_constant, [(int(i), int(j)) for i, j in hits]
