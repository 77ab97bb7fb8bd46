"""Floating-point diagnostics: torus maxima, sign constancy, the torus
quadrature behind the Schur-coefficient oracle, and log-scale asymptote
tables for the exact counts, one function for every family.

Exact big integers carry the enumerative content; this module only takes
logarithms, scans grids and sums nodes.  The closed-form torus maximum uses
the corrected reading of the factored maximum (unordered pairs,
double-factorial prefactor); the grid scan is the ground-truth oracle for
it.  The scan takes F_d from its linear factors, as a product on one angle
in plain Python complex arithmetic, so it never expands the root
polynomial and never loads numpy.  It reads the factor rows from
`combinatorics`, and nothing else of the package: a scan loads no
exact-engine module (`counts`, `polynomial`, `schur`).  `torus_quadrature`
is the float sweep of `schur.numeric_schur_coefficient`, which checks its
input and imports it when it runs; `asymptote_table` imports `counts` when
it runs, for the exact values it takes logarithms of.
"""

import math
import sys
from collections import Counter, namedtuple
from collections.abc import Sequence
from functools import partial
from operator import mul

from .combinatorics import Infeasible, OutOfDomain, linear_factor_rows, require_odd_degree

# largest quadrature or scan grid accepted; the grid sizes the oracle's table
# of roots and the scan's values, one per node angle
MAX_GRID = 4096


def root_of_unity(e: int, grid: int) -> complex:
    """exp(2 pi i e / grid), for an exponent already reduced mod grid."""
    angle = 2.0 * math.pi * e / grid
    return complex(math.cos(angle), math.sin(angle))


class TorusSample(namedtuple("TorusSample", "d grid min_modulus max_modulus sign_constant argmax_residues")):
    """Extrema of |F_d| = |f_d / (x1 x2)^m| over a uniform torus grid.

    sign_constant says the real part never changes sign over the grid while
    the imaginary part stays below 1e-8 of the maximum modulus (the global
    sign itself is a convention of the root polynomial's normalization).
    argmax_residues holds the residues (i - j) mod grid of the argmax nodes
    (i, j).
    """

    __slots__ = ()

    def argmax_head(self, count: int | None = None) -> list[list[float]]:
        """The first `count` argmax nodes, or all, row-major and sorted within
        each row, as [theta1, theta2] angle pairs."""
        grid, residues = self.grid, self.argmax_residues
        rows = grid if count is None else -(-count // len(residues))
        step = 2.0 * math.pi / grid
        return [[i * step, j * step] for i in range(rows) for j in sorted((i - t) % grid for t in residues)][:count]


class AsymptoteRow(namedtuple("AsymptoteRow", "parameter exact_log prediction ratio degenerate", defaults=(False,))):
    """Log of an exact count against a predicted leading term (`ratio` None where it has none)."""

    __slots__ = ()


def torus_scan(d: int, grid: int) -> TorusSample:
    """Evaluate F_d on a grid x grid torus lattice and report extrema.

    f_d is the product of 2m linear forms a x1 + b x2, so on the torus
    F_d = z^(-m) * prod (a z + b) with z = exp(i (theta1 - theta2)): the node
    (i, j) takes the value at the residue t = (i - j) mod grid, and F_d is
    evaluated once per residue, as a product, with z^(-m) at the exactly
    reduced angle (-t m) mod grid.  The rows are integers, so F_d at grid - t
    is the conjugate of F_d at t: only t = 0 .. grid // 2 are evaluated, and
    their moduli and real parts stand for the mirrored half too.

    Reports the least and greatest modulus; whether the real part keeps one
    sign while the imaginary part stays below 1e-8 of the greatest modulus;
    and the residues whose modulus is within 1e-9 of the maximum.  The
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
    # a repeated factor is taken as one power; a and b as the complex(a, 0.0) that int * complex converts to
    m, factors = len(rows) // 2, [(complex(a), complex(b), n) for (a, b), n in Counter(rows).items()]
    values = []
    for t in range(grid // 2 + 1):
        z, value = root_of_unity(t, grid), root_of_unity(-t * m % grid, grid)
        for a, b, n in factors:
            w = a * z + b
            value *= w ** n if n > 1 else w  # w ** 1 is 1 * w, which differs from w only in the sign of a zero
        values.append(value)
    moduli = [abs(v) for v in values]
    top = max(moduli)
    reals = [v.real for v in values]
    sign_constant = (min(reals) > 0.0 or max(reals) < 0.0) and max(abs(v.imag) for v in values) <= 1e-8 * top
    hits = [t for t, r in enumerate(moduli) if r >= top * (1.0 - 1e-9)]
    return TorusSample(d, grid, min(moduli), top, sign_constant, tuple(sorted({*hits, *(-t % grid for t in hits)})))


def closed_form_max(d: int) -> int:
    """Exact closed form of max |F_d| on the torus.

    C_d * prod_{i=0}^{(d-1)/2} prod_{l1<l2, l1+l2=d-2i, l1,l2>=1}
    (l1^2 + l2^2)^{2(i+1)}, with C_d the squared product of the odd double
    factorials d!! (d-2)!! ...; pairs are unordered.  The grid scan of
    `torus_scan` is the oracle for this formula.
    """
    require_odd_degree(d)
    result = math.prod(math.prod(range(j, 0, -2)) for j in range(d, 0, -2)) ** 2
    for i in range((d - 1) // 2 + 1):
        s = d - 2 * i
        for l1 in range(1, (s + 1) // 2):
            l2 = s - l1
            result *= (l1 * l1 + l2 * l2) ** (2 * (i + 1))
    return result


# bound on exact log / prediction of a complex row: 2.57 at d=3, k=4, decreasing in d
COMPLEX_BOUND = 2.7


def _plane_value(report) -> int:
    """The value of a `counts.CountReport`, refused where it has no logarithm."""
    regime, d, k = report.regime, report.d, report.k
    if not report.feasible:
        raise Infeasible(f"(d={d}, k={k}) is infeasible in the {regime} regime")
    if report.value == 0:
        raise OutOfDomain(f"the {regime} count at (d={d}, k={k}) is 0, so its log is undefined")
    return report.value


def asymptote_table(family: str, params: Sequence[int], k: int = 4) -> dict[str, list[AsymptoteRow]]:
    """Logs of exact counts against predicted leading terms, one table per
    regime of the family; the families differ only in data.

    real: the count at k=2 against (1/2) d^(r-1)/(r-1)! log d at rank r=2k,
    that is (1/12) d^3 log d.  complex: the count at rank k against
    d^(k-1)/(k-1)! log d, an asymptotic upper bound that the exact log
    overshoots at desk-scale degrees by a bounded factor; a row above
    COMPLEX_BOUND times its prediction raises OutOfDomain.  incidence: both
    regimes' counts against 2n log 20 (complex) and 2n log 2 (real).  A
    prediction of 0 gives a degenerate row without a ratio.  The conjectural
    asymptotic equality is reported via the ratio column, never asserted.
    """
    from .counts import incidence, plane_count  # the exact engine, loaded by tables only

    if family == "incidence":
        bases = {"complex": 20.0, "real": 2.0}
        tables = {r: (partial(incidence, r), lambda n, b=b: 2 * n * math.log(b)) for r, b in bases.items()}
    else:
        k, rank, half = (2, 4, 2) if family == "real" else (k, k, 1)
        tables = {family: (lambda d: _plane_value(plane_count(family, d, k)),
                           lambda d: d ** (rank - 1) / (half * math.factorial(rank - 1)) * math.log(d))}
    out = {}
    for regime, (value, predict) in tables.items():
        rows = out[regime] = []
        for p in params:
            exact_log, prediction = math.log(value(p)), predict(p)
            if family == "complex" and prediction and exact_log > prediction * COMPLEX_BOUND:
                raise OutOfDomain(f"log count {exact_log:.3f} exceeds bound {prediction:.3f}*(1+1.7) at d={p}")
            ratio = exact_log / prediction if prediction else None
            rows.append(AsymptoteRow(p, exact_log, prediction, ratio, degenerate=ratio is None))
    return out


def torus_quadrature(terms, shifts, grid):
    """Trapezoidal rule, on a grid^k torus lattice, for the integral of
    f(z) * sum(weight * z^shift) / k!, with f = sum c z^e over `terms` and
    `shifts` the table {shift: weight}.

    Each node sum of z^(e + shift) is the product over the axes of the 1-D
    node sums line[u] = sum_t z_t^u, taken in floating point from one table
    of the grid's roots, with the angle reduced exactly, (t * u) mod grid, so
    line[u] depends only on u mod grid and is summed once for each residue
    that some u in the table's range reads.  One sweep per shift runs over
    the per-axis exponent columns of f, weighed by its coefficients as
    floats.  The shifts are swept in sorted order, and shifts that share a
    prefix share its partial products c * line[e_0 + s_0] * ... *
    line[e_j + s_j]: a prefix's products are kept as a list while the next
    shift shares it, and streamed otherwise, so no list is built that is
    read once.  Each term still multiplies in axis order, each shift sums
    its terms in order, and the shifts' sums add up in the table's order, so
    the sharing changes no bit of the result.
    """
    if not terms:
        return 0j
    columns = list(zip(*terms))
    lo = min(map(min, shifts))
    hi = max(map(max, columns)) + max(map(max, shifts))
    roots = [root_of_unity(t, grid) for t in range(grid)]
    residue = {r: sum(roots[t * r % grid] for t in range(grid)) for r in {u % grid for u in range(lo, hi + 1)}}
    line = [residue[u % grid] for u in range(lo, hi + 1)]  # line[u - lo]
    # prefix[j]: each term's product over the first j axes of the shifts in hand, prefix[0] its coefficient
    ordered, prefix, sums = sorted(shifts), [[float(c) for c in terms.values()]], {}
    for shift, after in zip(ordered, ordered[1:] + [None]):
        shared = 0  # the axes this shift shares with the next one swept
        while after and shift[shared] == after[shared]:
            shared += 1
        values = prefix[-1]
        for axis in range(len(prefix) - 1, len(columns)):
            values = map(mul, values, map(line[shift[axis] - lo:].__getitem__, columns[axis]))
            if axis < shared:
                values = list(values)
                prefix.append(values)
        sums[shift] = sum(values)
        del prefix[shared + 1:]
    total = 0j
    for shift, weight in shifts.items():
        total += weight * sums[shift]
    return total / (math.factorial(len(columns)) * grid ** len(columns))
