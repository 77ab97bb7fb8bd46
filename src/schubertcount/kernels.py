"""Hot numeric kernels, written in numpy; the only module that imports it.

Two kernels live here, both floating-point:

* ``torus_quadrature`` - the torus quadrature oracle: the trapezoidal sum of
  f(z) * V_a(z) * conj(V_b(z)), where V_a and V_b are generalized
  Vandermonde alternants.  On the uniform torus grid the node sum of a
  monomial is the product of its one-dimensional node sums, so the sum is
  taken term by term from one table of those.
* ``torus_extrema`` - the extrema of a torus scan.  The scanned function
  is a product of linear forms in x1, x2 over (x1 x2)^shift, so on the torus
  it depends on theta1 - theta2 alone: it is evaluated as a product, once
  per residue (i - j) mod grid, never expanded and never on the grid^2
  lattice.

The exact integer arithmetic elsewhere in the package never goes through
this module, and imports it only on the float paths
(`schur.numeric_schur_coefficient` and `asymptotics.torus_scan`), so exact
commands never load numpy.
"""

from __future__ import annotations

from math import factorial

import numpy as np


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


def torus_extrema(rows, shift, grid):
    """Extrema of |F| = |f(x) / (x1 x2)^shift| over the grid x grid torus lattice,
    f = prod (a x1 + b x2) over the linear factors `rows` (a, b), 2 * shift of them.

    On the torus F = z^(-shift) * prod (a z + b) with z = x1 / x2, so the node
    (i, j) takes the value at the residue t = (i - j) mod grid, and F is
    evaluated once per residue, as a product.  Returns the least and
    greatest modulus, whether the real part keeps one sign while the
    imaginary part stays below 1e-8 of the greatest modulus, and the grid
    nodes (i, j) where the modulus is within 1e-9 of its maximum, as the rows
    of one (n, 2) int array, row-major.
    """
    powers = _powers(grid, (1, -shift))
    z, values = powers[:, 0], powers[:, 1]
    for a, b in rows:
        values *= a * z + b
    modulus = np.abs(values)
    max_mod = float(modulus.max())
    re = values.real
    sign_constant = bool(
        (np.all(re > 0.0) or np.all(re < 0.0))
        and np.abs(values.imag).max() <= 1e-8 * max_mod
    )
    residues = np.flatnonzero(modulus >= max_mod * (1.0 - 1e-9))
    hits = np.empty((grid, len(residues), 2), np.int64)
    hits[..., 0] = np.arange(grid)[:, None]
    hits[..., 1] = (hits[..., 0] - residues) % grid
    hits[..., 1].sort(axis=1)
    return float(modulus.min()), max_mod, sign_constant, hits.reshape(-1, 2)
