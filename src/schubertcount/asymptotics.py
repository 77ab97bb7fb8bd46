"""Floating-point diagnostics: torus maxima, sign constancy, and log-scale
asymptote tables for the exact counts.

Exact big integers carry the enumerative content; this module only takes
logarithms and scans grids.  The closed-form torus maximum uses the
corrected reading of the factored maximum (unordered pairs, double-factorial
prefactor); the grid scan is the ground-truth oracle for it.  The scan takes
F_d from its linear factors, as a product on one angle, so it never expands
the root polynomial.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .combinatorics import Infeasible, OutOfDomain
from .counts import complex_count, incidence_complex, incidence_real, linear_factor_rows, real_count, require_odd_degree
from .schur import MAX_GRID


@dataclass(frozen=True)
class TorusSample:
    """Extrema of |F_d| = |f_d / (x1 x2)^m| over a uniform torus grid.

    sign_constant says the real part never changes sign over the grid while
    the imaginary part stays below 1e-8 of the maximum modulus (the global
    sign itself is a convention of the root polynomial's normalization).
    """

    d: int
    grid: int
    min_modulus: float
    max_modulus: float
    sign_constant: bool
    argmax_angles: Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class AsymptoteRow:
    """Log of an exact count against a predicted leading term."""

    parameter: int
    exact_log: float
    prediction: float
    ratio: Optional[float]
    degenerate: bool = False


def torus_scan(d: int, grid: int) -> TorusSample:
    """Evaluate F_d on a grid x grid torus lattice and report extrema.

    f_d is the product of 2m linear forms a x1 + b x2, so on the torus
    F_d = z^(-m) * prod (a z + b) with z = exp(i (theta1 - theta2)).  The
    maximum sits on the curves theta1 - theta2 = +-pi/2; grids divisible by
    4 hit those curves exactly.  Degrees whose |F_d| can pass the largest
    float are refused: for odd d every factor has modulus at least 1 on the
    torus (|a| != |b|), so prod (|a| + |b|) bounds every partial product.
    """
    require_odd_degree(d)
    if grid < 64:
        raise OutOfDomain("grid must be at least 64")
    if grid > MAX_GRID:
        raise OutOfDomain(f"grid must be at most {MAX_GRID}")
    rows = linear_factor_rows("real", d, 2)
    if math.prod(abs(a) + abs(b) for a, b in rows) > sys.float_info.max:
        raise OutOfDomain(f"|F_{d}| can exceed the largest float on the torus; scan a smaller degree")
    from . import kernels  # numpy is loaded on the float paths only

    min_mod, max_mod, sign_constant, hits = kernels.torus_extrema(rows, len(rows) // 2, grid)
    step = 2.0 * math.pi / grid
    argmax = tuple((i * step, j * step) for i, j in hits)
    return TorusSample(d, grid, min_mod, max_mod, sign_constant, argmax)


def closed_form_max(d: int) -> int:
    """Exact closed form of max |F_d| on the torus.

    C_d * prod_{i=0}^{(d-1)/2} prod_{l1<l2, l1+l2=d-2i, l1,l2>=1}
    (l1^2 + l2^2)^{2(i+1)}, with C_d the squared product of the odd double
    factorials d!! (d-2)!! ...; pairs are unordered.  The grid scan of
    `torus_scan` is the oracle for this formula.
    """
    require_odd_degree(d)
    c = 1
    j = d
    while j >= 1:
        dbl = 1
        i = j
        while i >= 1:
            dbl *= i
            i -= 2
        c *= dbl
        j -= 2
    result = c * c
    for i in range((d - 1) // 2 + 1):
        s = d - 2 * i
        for l1 in range(1, (s + 1) // 2 + 1):
            l2 = s - l1
            if l1 >= l2:
                continue
            result *= (l1 * l1 + l2 * l2) ** (2 * (i + 1))
    return result


def real_asymptote_table(ds: Sequence[int]) -> list[AsymptoteRow]:
    """log of the real signed count against (1/12) d^3 log d."""
    rows = []
    for d in ds:
        report = real_count(d, 2)
        if not report.feasible:
            raise Infeasible(f"(d={d}, k=2) is infeasible in the real regime")
        exact_log = math.log(report.value)
        prediction = (d**3 / 12.0) * math.log(d)
        if prediction == 0.0:
            rows.append(AsymptoteRow(d, exact_log, prediction, None, degenerate=True))
        else:
            rows.append(AsymptoteRow(d, exact_log, prediction, exact_log / prediction))
    return rows


def complex_asymptote_table(ds: Sequence[int], k: int, slack: float = 1.7) -> list[AsymptoteRow]:
    """log of the complex count against (1/(k-1)!) d^(k-1) log d.

    The prediction is an asymptotic upper bound; at desk-scale degrees the
    exact log overshoots it by a bounded factor, so each row is checked
    against prediction * (1 + slack).  The default slack 1.7 covers the
    computed range (ratio 2.57 at d=3, k=4, decreasing in d); a violation
    raises OutOfDomain, as does a count of 0 (no log).  The conjectural
    asymptotic equality is reported via the ratio column, never asserted.
    """
    rows = []
    for d in ds:
        report = complex_count(d, k)
        if not report.feasible:
            raise Infeasible(f"(d={d}, k={k}) is infeasible in the complex regime")
        if report.value == 0:
            raise OutOfDomain(f"the complex count at (d={d}, k={k}) is 0, so its log is undefined")
        exact_log = math.log(report.value)
        prediction = (d ** (k - 1) / math.factorial(k - 1)) * math.log(d)
        if prediction == 0.0:
            rows.append(AsymptoteRow(d, exact_log, prediction, None, degenerate=True))
            continue
        if exact_log > prediction * (1.0 + slack):
            raise OutOfDomain(
                f"log count {exact_log:.3f} exceeds bound {prediction:.3f}*(1+{slack}) at d={d}"
            )
        rows.append(AsymptoteRow(d, exact_log, prediction, exact_log / prediction))
    return rows


def incidence_asymptote_table(ns: Sequence[int]) -> dict[str, list[AsymptoteRow]]:
    """Two families: log incidence counts against 2n log 20 (complex) and
    2n log 2 (real)."""
    complex_rows = []
    real_rows = []
    for n in ns:
        if n < 1:
            raise OutOfDomain("n must be >= 1")
        cval = incidence_complex(n)
        rval = incidence_real(n)
        cpred = 2 * n * math.log(20.0)
        rpred = 2 * n * math.log(2.0)
        clog = math.log(cval)
        rlog = math.log(rval)
        complex_rows.append(AsymptoteRow(n, clog, cpred, clog / cpred))
        real_rows.append(AsymptoteRow(n, rlog, rpred, rlog / rpred))
    return {"complex": complex_rows, "real": real_rows}
