"""Hot numeric kernels, written in numpy; the only module that imports it.

Two kernels live here, both floating-point:

* ``torus_quadrature`` - the torus quadrature oracle: the trapezoidal sum of
  f(z) * V_a(z) * conj(V_b(z)), where V_a is a Vandermonde product (plain or
  in squared variables) and V_b a generalized Vandermonde alternant.  The
  part of V_a * conj(V_b) free of the first coordinate z0 is built once, by
  ``alternant_table``, and swept once into its moments against powers of
  the other coordinates; f and the z0 factors are weighed against those.
* ``torus_grid_eval`` - evaluation of a two-variable Laurent polynomial
  f(x) / (x1 x2)^shift on the full torus grid.

``torus_extrema`` reduces the grid values of a scan.  The exact integer
arithmetic elsewhere in the package never goes through this module, and
imports it only on the float paths (`schur.numeric_schur_coefficient` and
`asymptotics.torus_scan`), so exact commands never load numpy.
"""

from __future__ import annotations

import itertools
from math import factorial

import numpy as np


def alternant_table(zgrid, gammas, perm_data, spower):
    """The z0-free part of V_a * conj(V_b): k rows over the g^(k-1) nodes of z_2, ..., z_k.

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


def torus_quadrature(terms, max_exponents, gb, perm_data, spower, grid):
    """Trapezoidal rule, on a grid^k torus lattice, for the integral of
    f(z) * V_a(z) * conj(V_b(z)) / k!, with f = sum c z^e over `terms`.

    V_b is the alternant of the exponents `gb` over the (permutation, sign)
    pairs `perm_data`.  The same node sum is taken in moment order, with no
    loop over the nodes:

    * `alternant_table` (k * grid^(k-1) complex values, 14.5 MB at k=4,
      grid 61) is swept once, each node axis z_j contracted with the powers
      z_j^u, u <= E_j + spower, into the moments M_i(u) = sum table_i * z^u;
    * the z0 factors of V_a, prod_j (z0^s - z_j^s), expand over the subsets
      S of the axes into (-1)^|S| z0^(s*(k-1-|S|)) prod_{j in S} z_j^s, so
      each S reads the moments shifted by s on its axes, against f;
    * the z0 sums of z0^(e_0 + s*(k-1-|S|)) * conj(z0^gb_i) weigh the rest.
    """
    k = len(gb)
    g = int(grid)
    cube = np.zeros(tuple(x + 1 for x in max_exponents), np.complex128)
    for e, c in terms.items():
        cube[e] = float(c)
    z0_powers = _powers(g, range(cube.shape[0]))

    if k == 1:
        return complex(np.conj(_powers(g, gb))[:, 0] @ (z0_powers @ cube)) / g

    zgrid = np.exp(2j * np.pi * np.arange(g) / g)
    moments = alternant_table(zgrid, gb, perm_data, spower).reshape((k,) + (g,) * (k - 1))
    for n in reversed(cube.shape[1:]):
        # the last axis first, so the table is read in place; P^T @ table^T,
        # not table @ P, lets BLAS pack the table by blocks instead of copying it whole
        swept = (_powers(g, range(n + spower)).T @ moments.reshape(-1, g).T).T
        moments = np.moveaxis(swept.reshape(moments.shape[:-1] + (n + spower,)), -1, 1)
    # weights[m, i, e0]: the z0 sum for |S| = m, row i and the z0 exponent e0 of f
    gaps = _powers(g, [spower * (k - 1 - m) for m in range(k)])
    weights = np.einsum("ti,tm,te->mie", np.conj(_powers(g, gb)), gaps, z0_powers)
    flat = cube.reshape(cube.shape[0], -1)
    total = 0j
    for offsets in itertools.product((0, spower), repeat=k - 1):
        window = moments[(slice(None),) + tuple(slice(o, o + n) for o, n in zip(offsets, cube.shape[1:]))]
        m = sum(o > 0 for o in offsets)
        total += (-1) ** m * complex(np.sum(weights[m] * (window.reshape(k, -1) @ flat.T)))
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
