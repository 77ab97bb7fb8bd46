"""Exact Schubert-calculus counts of projective subspaces on hypersurfaces.

Complex counts, real signed (Euler-class) counts, Catalan-type incidence
counts, and log-scale asymptotic diagnostics, all through exact symmetric
polynomial arithmetic with a torus-quadrature oracle on the side.  The
complex and real regimes share one exact path: `schur_polynomial`,
`schur_coefficient`, `root_poly`, `plane_count`, `incidence` and
`asymptote_table` take the regime (or the family) first, and
`combinatorics.rank` alone maps it to its rank, k or 2k.  `schur_coefficient`
reads a list of factors, never their product.

Every public name below loads its module on first use (PEP 562), so
`python -m schubertcount` imports only what its command runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "combinatorics": (
        "Feasibility", "InvalidLength", "NotInRectangle", "Partition", "catalan", "classify_partition",
        "complement", "compositions", "feasibility",
    ),
    "polynomial": (
        "ArityMismatch", "NotAPerfectSquare", "NotDivisible", "SparsePoly", "exact_div", "exact_sqrt",
        "product_of_linear_forms",
    ),
    "schur": (
        "DegenerateAlternant", "NotEulerPontryagin", "NotEvenOrOdd", "RootPolynomial", "duality_pairing",
        "numeric_schur_coefficient", "quadrature_threshold", "schur_coefficient", "schur_polynomial",
        "vandermonde",
    ),
    "counts": (
        "CountReport", "EvenDegree", "Orientability", "catalan_substitution", "cubic_ci_real",
        "euler_number_defined", "factored_real_root_poly", "grassmannian_orientable", "incidence",
        "plane_count", "real_square_poly", "root_poly", "sym_power_orientable",
    ),
    "asymptotics": ("AsymptoteRow", "TorusSample", "asymptote_table", "closed_form_max", "torus_scan"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
