"""Hot numeric kernels, written in numpy; the only module that imports it.

Two kernels live here, both floating-point:

* ``quadrature_slab`` - the inner sum of the torus quadrature oracle: for one
  fixed first coordinate z0 it accumulates f(z) * V_a(z) * conj(V_b(z)) over
  the remaining grid axes, where V_a is a Vandermonde product (plain or in
  squared variables) and V_b a generalized Vandermonde alternant.
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


def quadrature_slab(fvals, z0, zgrid, gammas, perms, signs, spower):
    """Sum f(z)*V_a(z)*conj(V_b(z)) over one slab of the torus grid.

    fvals: flattened values of f on the slab, axes (z_2, ..., z_k) in
    row-major order, g nodes per axis.  z0 is the fixed first coordinate.
    V_a = prod_{i<j} (z_i^spower - z_j^spower); V_b is the alternant with
    exponent sequence `gammas` summed over the permutations `perms` with
    the matching `signs`.
    """
    k = int(len(gammas))
    g = int(len(zgrid))
    if k == 1:
        return complex(fvals[0] * np.conj(z0 ** int(gammas[0])))
    shape = (g,) * (k - 1)
    fv = np.asarray(fvals).reshape(shape)
    zs: list = [np.complex128(z0)]
    for j in range(1, k):
        sh = [1] * (k - 1)
        sh[j - 1] = g
        zs.append(np.asarray(zgrid).reshape(sh))
    zp = [z ** int(spower) for z in zs]
    va = np.ones(shape, np.complex128)
    for i in range(k):
        for j in range(i + 1, k):
            va = va * (zp[i] - zp[j])
    vb = np.zeros(shape, np.complex128)
    for sign, perm in zip(signs, perms):
        term = np.complex128(sign)
        for i in range(k):
            term = term * zs[int(perm[i])] ** int(gammas[i])
        vb = vb + term
    return complex(np.sum(fv * va * np.conj(vb)))


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


def _fold_to_grid(arr: np.ndarray, grid: int) -> np.ndarray:
    """Reduce every axis length to `grid` by summing entries with equal
    exponent residues (z^e on the grid only sees e mod grid)."""
    for axis in range(arr.ndim):
        n = arr.shape[axis]
        if n == grid:
            continue
        arr = np.moveaxis(arr, axis, 0)
        blocks = -(-n // grid)
        if blocks * grid != n:
            pad = [(0, blocks * grid - n)] + [(0, 0)] * (arr.ndim - 1)
            arr = np.pad(arr, pad)
        arr = arr.reshape((blocks, grid) + arr.shape[1:]).sum(axis=0)
        arr = np.moveaxis(arr, 0, axis)
    return arr


def torus_quadrature(terms, max_exponents, gb, perm_data, spower, grid, threads):
    """Trapezoidal rule, on a grid^k torus lattice, for the integral of
    f(z) * V_a(z) * conj(V_b(z)) / k!, with f = sum c z^e over `terms`.

    V_b is the alternant of the exponents `gb` over the (permutation, sign)
    pairs `perm_data`.  f is evaluated through an FFT per slab of the first
    axis; the slabs run in `quadrature_slab`, on `threads` workers if more
    than one, and are reduced in slab order so the result is deterministic.
    """
    k = len(gb)
    g = int(grid)
    cube = np.zeros(tuple(x + 1 for x in max_exponents), np.complex128)
    for e, c in terms.items():
        cube[e] = float(c)

    perms = np.array([p for p, _ in perm_data], np.int64).reshape(len(perm_data), k)
    signs = np.array([s for _, s in perm_data], np.float64)
    gammas = np.array(gb, np.int64)
    zgrid = np.exp(2j * np.pi * np.arange(g) / g)

    if k == 1:
        vals = np.fft.ifft(_fold_to_grid(cube, g)) * g
        total = complex(np.sum(vals * np.conj(zgrid ** int(gb[0]))))
        return total / g

    e0 = np.arange(cube.shape[0])

    def slab(t0: int) -> complex:
        z0 = zgrid[t0]
        reduced = np.tensordot(z0**e0, cube, axes=(0, 0))
        folded = _fold_to_grid(reduced, g)
        fvals = np.fft.ifftn(folded) * g ** (k - 1)
        return quadrature_slab(fvals.ravel(), complex(z0), zgrid, gammas, perms, signs, spower)

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
