"""Bott's residue formula for the plane counts, exactly: a check that shares no code with `schubertcount`.

Every exact route of the package reads a count as one Schur coefficient of a product of linear forms.  This module
computes the same counts by torus localization instead (Ellingsrud and Strømme, "Bott's formula and enumerative
geometry", J. Amer. Math. Soc. 9, 1996), from the standard library alone: it builds its own compositions, its own
linear forms and its own m, and sums the residues as `Fraction`s, so every value is exact.

Complex: the torus of C^n, n = k + m, acts on Gr(k, n) with weights w_1 ... w_n, all distinct.  Its fixed points are
the coordinate k-planes, one per k-subset I, and the count of (k-1)-planes on a generic degree-d hypersurface is

    sum over I of  prod over compositions a of d into k parts of (-a . w_I)  /  prod over i in I, j not in I of (w_j - w_i),

the Euler class of Sym^d of the dual tautological bundle over that of the tangent bundle Hom(S, Q), at each point.

Real: the signed count of real (2k-1)-planes on a real hypersurface of odd degree d is an Euler number on the oriented
Grassmannian of 2k-planes in R^N, N = 2k + m.  Take R^N as C^h, h = N // 2, plus a line when N is odd, and weights
y_1 ... y_h, distinct and positive.  A fixed point is a k-subset I with an orientation, x = y_I with x_1 -> +-x_1.
Its numerator is the product of the difference forms (l_1 - l_2) x_1 + ... + (l_(2k-1) - l_2k) x_k over the
compositions l of d into 2k parts, one form of each pair {r, -r}: the one whose first nonzero coefficient is
positive.  Its denominator is prod over i in I, j not in I of (y_j^2 - x_i^2), times prod x_i when N is odd.  The
sum over both orientations is +-2 times the count; which sign it takes is a convention of the chosen forms and
orientations, and the package reports real counts as absolute values.
"""

from fractions import Fraction
from itertools import combinations
from math import comb, prod


def compositions(d, parts):
    """All `parts`-tuples of non-negative integers summing to d."""
    if parts == 1:
        return [(d,)]
    return [(first,) + rest for first in range(d, -1, -1) for rest in compositions(d - first, parts - 1)]


def dimension_m(d, rank):
    """m with rank * m = C(d + rank - 1, rank - 1), the dimension condition; None where it fails."""
    total = comb(d + rank - 1, rank - 1)
    return total // rank if total % rank == 0 else None


def complex_bott(d, k):
    """The number of (k-1)-planes on a generic degree-d hypersurface, as the exact sum of Bott's residues on
    Gr(k, k + m), with the weights 1 ... k + m."""
    m = dimension_m(d, k)
    n = k + m
    forms = compositions(d, k)
    total = Fraction(0)
    for subset in combinations(range(1, n + 1), k):
        rest = [w for w in range(1, n + 1) if w not in subset]
        numerator = prod(-sum(a * w for a, w in zip(form, subset)) for form in forms)
        total += Fraction(numerator, prod(wj - wi for wi in subset for wj in rest))
    return total


def real_bott(d, k):
    """+-2 times the signed count of real (2k-1)-planes on a generic real hypersurface of odd degree d, as the exact
    sum of Bott's residues on the oriented Grassmannian of 2k-planes in R^(2k + m), with the weights 1 ... h."""
    m = dimension_m(d, 2 * k)
    n = 2 * k + m
    h = n // 2
    forms = []
    for c in compositions(d, 2 * k):
        form = [c[2 * i] - c[2 * i + 1] for i in range(k)]
        if next(a for a in form if a) > 0:
            forms.append(form)
    total = Fraction(0)
    for subset in combinations(range(1, h + 1), k):
        rest = [y for y in range(1, h + 1) if y not in subset]
        for sign in (1, -1):
            x = [sign * subset[0], *subset[1:]]
            numerator = prod(sum(a * xi for a, xi in zip(form, x)) for form in forms)
            denominator = prod(yj * yj - xi * xi for xi in x for yj in rest) * (prod(x) if n % 2 else 1)
            total += Fraction(numerator, denominator)
    return total
