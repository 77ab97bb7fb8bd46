"""Hot numeric kernels, written in numpy; the only module that imports it.

Two kernels live here, both floating-point:

* ``torus_quadrature`` - the torus quadrature oracle: the trapezoidal sum of
  f(z) * V_a(z) * conj(V_b(z)), where V_a and V_b are generalized
  Vandermonde alternants.  On the uniform torus grid the node sum of a
  monomial is the product of its one-dimensional node sums, so the sum is
  taken term by term from one table of those.
* ``torus_grid_eval`` - evaluation of a two-variable Laurent polynomial
  f(x) / (x1 x2)^shift on the full torus grid.

``torus_extrema`` reduces the grid values of a scan.  The exact integer
arithmetic elsewhere in the package never goes through this module, and
imports it only on the float paths (`schur.numeric_schur_coefficient` and
`asymptotics.torus_scan`), so exact commands never load numpy.
"""

from __future__ import annotations

from math import factorial

import numpy as np


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


def torus_quadrature(terms, ga, gb, perm_data, grid):
    """Trapezoidal rule, on a grid^k torus lattice, for the integral of
    f(z) * V_a(z) * conj(V_b(z)) / k!, with f = sum c z^e over `terms`.

    V_a and V_b are the alternants of the exponents `ga` and `gb` over the
    (permutation, sign) pairs `perm_data`.  Their product expands into
    monomials z^(sigma(ga) - tau(gb)); equal shifts merge by adding their
    signs.  Each node sum of z^(e + shift) is the product over the axes of
    the 1-D node sums line[u] = sum_t z_t^u, taken in floating point.
    """
    if not terms:
        return 0j
    k = len(gb)
    shifts = {}
    for sigma, sign_a in perm_data:
        for tau, sign_b in perm_data:
            shift = [0] * k
            for i in range(k):
                shift[sigma[i]] += ga[i]
                shift[tau[i]] -= gb[i]
            shift = tuple(shift)
            shifts[shift] = shifts.get(shift, 0) + sign_a * sign_b
    shifts = {shift: sign for shift, sign in shifts.items() if sign}
    exps = np.array(list(terms), np.int64).T
    lo = min(map(min, shifts))
    hi = int(exps.max()) + max(map(max, shifts))
    line = _powers(grid, range(lo, hi + 1)).sum(axis=0)  # line[u - lo] = sum_t z_t^u
    exps -= lo
    acc = np.zeros(len(terms), np.complex128)
    for shift, sign in shifts.items():
        node_sums = line[exps[0] + shift[0]]
        for j in range(1, k):
            node_sums *= line[exps[j] + shift[j]]
        acc += sign * node_sums
    coeffs = np.array([float(c) for c in terms.values()])
    return complex(coeffs @ acc) / (factorial(k) * grid**k)


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
