"""Regimes and their ranks, partitions, compositions, the coefficient rows
of the linear factors of a root polynomial, parity classification, and
feasibility arithmetic.

Everything here is exact integer combinatorics on immutable values; all
functions are pure and safe to call concurrently.  Both the exact engine
(`counts`, `schur`) and the float scan (`asymptotics`) read the factor rows
from here, so a scan loads no exact-engine module.
"""

from collections import namedtuple
from collections.abc import Iterator
from math import comb
from operator import sub


class OutOfDomain(ValueError):
    """A parameter lies outside the domain of a count or diagnostic."""


class Infeasible(ValueError):
    """The parameters are valid but admit no count (dimension or parity)."""


class EvenDegree(Infeasible):
    """Real signed counts require odd degree; even degree is rejected."""


class InvalidLength(OutOfDomain):
    """Sequence has the wrong length for the requested operation."""


class NotInRectangle(OutOfDomain):
    """Partition sticks out of the k x m rectangle."""


REGIMES = ("complex", "real")


def rank(regime: str, k: int) -> int:
    """Rank of the Grassmannian a count of the regime lives on: k (complex),
    or 2k (real, in the squared variables of k Pontryagin roots).  The one
    check of a regime name: anything outside REGIMES raises OutOfDomain."""
    if regime not in REGIMES:
        raise OutOfDomain(f"unknown regime {regime!r}")
    return 2 * k if regime == "real" else k


class Partition:
    """Weakly decreasing tuple of non-negative integers.

    Trailing zeros are significant: a length-k and a length-2k partition with
    the same nonzero parts are distinct objects, so rank-k and rank-2k
    contexts never alias.  Immutable, compared and hashed by its parts.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]) -> None:
        parts = tuple(int(p) for p in parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts!r}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"not weakly decreasing: {parts!r}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    def __eq__(self, other) -> bool:
        return self.parts == other.parts if isinstance(other, Partition) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition(parts={self.parts!r})"

    @classmethod
    def constant(cls, value: int, length: int) -> "Partition":
        return cls((value,) * length)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def size(self) -> int:
        return sum(self.parts)


class Feasibility(namedtuple("Feasibility", "d k regime m odd_degree", defaults=(None,))):
    """Divisibility data for the zero-dimensionality condition.

    In the complex regime the count lives on a rank-k Grassmannian and needs
    k*m = C(d+k-1, k-1); in the real regime the rank is 2k and the condition
    is 2k*m = C(d+2k-1, 2k-1).  Infeasibility is data, not an error: m is
    simply absent (None).  `odd_degree` is a bool, or None by default.
    """

    __slots__ = ()

    @property
    def feasible(self) -> bool:
        return self.m is not None


# the most compositions enumerated: the 1,394,204 of 201 into 4 parts, with
# the real difference forms built from them, took 1.6 s (in process, on a
# 2-vCPU VM)
MAX_COMPOSITIONS = 10**6


def compositions(d: int, k: int) -> list[tuple[int, ...]]:
    """All k-tuples of non-negative integers summing to d.

    Enumerated in graded lexicographic order (all tuples share grade d, so
    this is descending lexicographic order on the tuples); the cardinality
    is C(d+k-1, k-1), and above MAX_COMPOSITIONS it is refused before any
    tuple is built.  The order is part of the contract: downstream
    polynomial products consume it and must be reproducible bit-for-bit.
    """
    if k < 1:
        raise OutOfDomain("k must be positive")
    if d < 0:
        raise OutOfDomain("d must be non-negative")
    count = comb(d + k - 1, k - 1)
    if count > MAX_COMPOSITIONS:
        raise OutOfDomain(f"{d} has {count} compositions into {k} parts, above the limit of {MAX_COMPOSITIONS}")
    out: list[tuple[int, ...]] = []
    c = [d] + [0] * (k - 1)
    while True:
        out.append(tuple(c))
        # the successor moves one unit out of the last nonzero part before the
        # final one, into the next part, which also takes the final part's units
        i = k - 2
        while i >= 0 and not c[i]:
            i -= 1
        if i < 0:
            return out
        c[i] -= 1
        rest, c[-1] = c[-1] + 1, 0
        c[i + 1] = rest


def require_odd_degree(d: int) -> None:
    """Real signed counts need a degree d >= 1 (OutOfDomain otherwise) that
    is odd (EvenDegree otherwise: even degree gives vanishing factors)."""
    if d < 1:
        raise OutOfDomain("d must be >= 1")
    if d % 2 == 0:
        raise EvenDegree(f"degree {d} is even; real signed counts need odd degree")


# the most variables an alternant may have: `schur.vandermonde` sums k! terms, which
# took 0.05 s at k = 8 and 0.5 s at k = 9 (in process, on a 2-vCPU VM)
MAX_ALTERNANT_VARIABLES = 8


def require_alternant_variables(k: int) -> None:
    """Refuse (OutOfDomain) a count or class whose alternant has more than
    MAX_ALTERNANT_VARIABLES variables, before anything of its size is built."""
    if k > MAX_ALTERNANT_VARIABLES:
        raise OutOfDomain(
            f"an alternant in {k} variables sums {k}! terms; at most {MAX_ALTERNANT_VARIABLES} variables are accepted"
        )


def _difference_forms(d: int, k: int) -> list[tuple[int, ...]]:
    """The real difference forms (l_1 - l_2, ..., l_{2k-1} - l_{2k}) over all
    compositions l of an odd degree d into 2k parts, in composition order."""
    require_odd_degree(d)
    return [tuple(map(sub, c[0::2], c[1::2])) for c in compositions(d, 2 * k)]


def linear_factor_rows(regime: str, d: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Coefficient rows of the linear factors of the degree-d root polynomial.

    Complex: the forms l_1 z_1 + ... + l_k z_k over all compositions l of d
    into k parts.  Real: the difference forms (l_1 - l_2) x_1 + ... +
    (l_{2k-1} - l_{2k}) x_k over compositions of d into 2k parts come in
    pairs {r, -r}, because swapping every l_{2i-1} with l_{2i} negates a form
    and, for odd d, fixes no composition.  One form of each pair is kept, the
    one whose first nonzero coefficient is positive; their product is the
    exact square root of `counts.real_square_poly`, sign included.  A k whose
    alternant is too large to sum is refused before any row is built.
    """
    require_alternant_variables(k)
    if regime == "real":
        return tuple(r for r in _difference_forms(d, k) if next(x for x in r if x) > 0)
    n = rank(regime, k)
    if d < 1:
        raise OutOfDomain("d must be >= 1")
    return tuple(compositions(d, n))


def classify_partition(alpha: Partition) -> str:
    """Classify a 2k-partition as "even" (entries 2*b1, 2*b1, 2*b2, 2*b2, ...
    for a k-partition b), "odd" (1 more in every entry), or "neither"."""
    n = len(alpha)
    if n == 0 or n % 2 != 0:
        raise InvalidLength(f"need even positive length, got {n}")
    evens = alpha.parts[0::2]
    if evens == alpha.parts[1::2] and len({p % 2 for p in evens}) == 1:
        return "odd" if evens[0] % 2 else "even"
    return "neither"


def complement(alpha: Partition, m: int, k: int) -> Partition:
    """The partition beta with alpha_i + beta_{k+1-i} = m for all i."""
    if len(alpha) != k:
        raise InvalidLength(f"partition length {len(alpha)} != k={k}")
    if k > 0 and alpha[0] > m:
        raise NotInRectangle(f"{alpha.parts} does not fit in a {k}x{m} rectangle")
    return Partition(tuple(m - alpha[k - 1 - i] for i in range(k)))


def catalan(n: int) -> int:
    """The n-th Catalan number C(2n, n) / (n+1), exactly."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return comb(2 * n, n) // (n + 1)


# the most bits of C(d+r-1, r-1) by the bound min(d, r-1) * bit_length(d+r-1): C(320000, 160000) at 3.0e6
# took 0.85 s and C(400000, 200000) at 3.8e6 1.2 s (in process, on a 2-vCPU VM)
MAX_BINOMIAL_BITS = 3 * 10**6


def feasibility(d: int, k: int, regime: str) -> Feasibility:
    """Check the zero-dimensionality condition r*m = C(d+r-1, r-1) at the
    regime's rank r, and recover m when it holds.  A binomial whose bound
    passes MAX_BINOMIAL_BITS is refused (OutOfDomain) before it is taken."""
    if d < 1 or k < 1:
        raise OutOfDomain("need d >= 1 and k >= 1")
    r = rank(regime, k)
    bits = min(d, r - 1) * (d + r - 1).bit_length()
    if bits > MAX_BINOMIAL_BITS:
        raise OutOfDomain(f"C({d + r - 1}, {r - 1}) may have {bits} bits, above {MAX_BINOMIAL_BITS}")
    total = comb(d + r - 1, r - 1)
    m = total // r if total % r == 0 else None
    return Feasibility(d, k, regime, m, d % 2 == 1 if regime == "real" else None)
