"""Exact Schubert-calculus counts of projective subspaces on hypersurfaces.

Complex counts, real signed (Euler-class) counts, Catalan-type incidence
counts, and log-scale asymptotic diagnostics, all through exact symmetric
polynomial arithmetic with a torus-quadrature oracle on the side.
"""

__version__ = "0.1.0"

from .combinatorics import (
    Feasibility,
    InvalidLength,
    NotInRectangle,
    Partition,
    PartitionParity,
    catalan,
    classify_partition,
    complement,
    compositions,
    feasibility,
)
from .polynomial import (
    ArityMismatch,
    NotAPerfectSquare,
    NotDivisible,
    SparsePoly,
    exact_div,
    exact_sqrt,
    product_of_linear_forms,
)
from .schur import (
    DegenerateAlternant,
    NotEulerPontryagin,
    NotEvenOrOdd,
    RootPolynomial,
    SchurCoefficient,
    duality_pairing,
    numeric_schur_coefficient,
    quadrature_threshold,
    real_schur_coefficient,
    real_schur_polynomial,
    schur_coefficient,
    schur_polynomial,
    vandermonde,
)
from .counts import (
    CountReport,
    EvenDegree,
    Orientability,
    catalan_substitution,
    complex_count,
    complex_root_poly,
    cubic_ci_real,
    euler_number_defined,
    factored_real_root_poly,
    grassmannian_orientable,
    incidence_complex,
    incidence_real,
    real_count,
    real_root_poly,
    real_square_poly,
    sym_power_orientable,
)
from .asymptotics import (
    AsymptoteRow,
    TorusSample,
    closed_form_max,
    complex_asymptote_table,
    incidence_asymptote_table,
    real_asymptote_table,
    torus_scan,
)
