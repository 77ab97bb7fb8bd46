"""The hot numeric kernel, written in numpy; the only module that imports it.

One kernel lives here, in floating point: ``torus_quadrature``, the torus
quadrature oracle.  It takes the trapezoidal sum of f(z) * V_a(z) *
conj(V_b(z)), where V_a and V_b are generalized Vandermonde alternants.  On
the uniform torus grid the node sum of a monomial is the product of its
one-dimensional node sums, so the sum is taken term by term from one table
of those.

The exact integer arithmetic elsewhere in the package never goes through
this module, and only `schur.numeric_schur_coefficient` (`lambda --numeric`)
imports it, so no other command loads numpy.  The torus scan is plain Python,
in `asymptotics.torus_scan`.
"""

from __future__ import annotations

from math import factorial
from operator import sub

import numpy as np


def _powers(grid, exps):
    """z^e at the nodes z = exp(2 pi i t / grid), rows t, columns e; the angle
    is reduced exactly, (t * e) mod grid, so exponents past the grid wrap."""
    steps = np.outer(np.arange(grid), np.asarray(exps, np.int64)) % grid
    return np.exp(2j * np.pi * steps / grid)


def torus_quadrature(terms, va, vb, grid):
    """Trapezoidal rule, on a grid^k torus lattice, for the integral of
    f(z) * V_a(z) * conj(V_b(z)) / k!, with f = sum c z^e over `terms`.

    `va` and `vb` are the terms {exponents: sign} of the alternants V_a and
    V_b.  Their product expands into monomials z^(ea - eb); equal shifts
    merge by adding their signs.  Each node sum of z^(e + shift) is the
    product over the axes of the 1-D node sums line[u] = sum_t z_t^u, taken
    in floating point.
    """
    if not terms:
        return 0j
    shifts = {}
    for ea, sign_a in va.items():
        for eb, sign_b in vb.items():
            shift = tuple(map(sub, ea, eb))
            shifts[shift] = shifts.get(shift, 0) + sign_a * sign_b
    shifts = {shift: sign for shift, sign in shifts.items() if sign}
    exps = np.array(list(terms), np.int64).T
    k = len(exps)
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
