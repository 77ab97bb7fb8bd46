"""Hot numeric kernels, written in numpy.

Two kernels live here, both floating-point:

* ``quadrature_slab`` - the inner sum of the torus quadrature oracle: for one
  fixed first coordinate z0 it accumulates f(z) * V_a(z) * conj(V_b(z)) over
  the remaining grid axes, where V_a is a Vandermonde product (plain or in
  squared variables) and V_b a generalized Vandermonde alternant.
* ``torus_grid_eval`` - evaluation of a two-variable Laurent polynomial
  f(x) / (x1 x2)^shift on the full torus grid.

The exact integer arithmetic elsewhere in the package never goes through
this module.
"""

from __future__ import annotations

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
