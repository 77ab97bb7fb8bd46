"""Shared test helpers: small independent oracles kept deliberately naive."""

from __future__ import annotations

import random
from typing import Iterator, Tuple

from schubertcount.polynomial import SparsePoly


def once(factors) -> list:
    """The engine's (factor, exponent) pairs for a list of factors, each taken once."""
    return [(f, 1) for f in factors]


def partitions_of(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """All weakly decreasing length-k tuples of non-negative ints summing to n."""

    def rec(prefix, rem, slots, bound):
        if slots == 0:
            if rem == 0:
                yield prefix
            return
        for v in range(min(rem, bound), -1, -1):
            yield from rec(prefix + (v,), rem - v, slots - 1, v)

    yield from rec((), n, k, n)


def partitions_in_box(k: int, m: int) -> Iterator[Tuple[int, ...]]:
    """All length-k partitions with largest part at most m."""

    def rec(prefix, slots, bound):
        if slots == 0:
            yield prefix
            return
        for v in range(bound, -1, -1):
            yield from rec(prefix + (v,), slots - 1, v)

    yield from rec((), k, m)


def naive_product_of_linear_forms(rows, nvars: int) -> SparsePoly:
    """Left-fold product via raw dict convolution: the oracle for the
    packed implementation."""
    acc = {(0,) * nvars: 1}
    for row in rows:
        nxt: dict = {}
        for e, c in acc.items():
            for i, coeff in enumerate(row):
                if not coeff:
                    continue
                e2 = list(e)
                e2[i] += 1
                e2 = tuple(e2)
                nxt[e2] = nxt.get(e2, 0) + c * coeff
        acc = {e: c for e, c in nxt.items() if c}
    return SparsePoly(nvars, acc)


def random_poly(rng: random.Random, nvars: int, max_terms: int, max_deg: int,
                max_coeff: int = 1000) -> SparsePoly:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        c = rng.randint(-max_coeff, max_coeff)
        if c:
            terms[e] = terms.get(e, 0) + c
    return SparsePoly(nvars, terms)


def symmetrize(poly: SparsePoly) -> SparsePoly:
    """Sum of all coordinate permutations of a polynomial."""
    import itertools

    k = poly.nvars
    terms: dict = {}
    for perm in itertools.permutations(range(k)):
        for e, c in poly.terms.items():
            pe = tuple(e[perm[i]] for i in range(k))
            terms[pe] = terms.get(pe, 0) + c
    return SparsePoly(k, terms)


def is_symmetric_by_permutations(poly: SparsePoly) -> bool:
    """Symmetry by brute force: the terms are unchanged by each of the k!
    coordinate permutations."""
    import itertools

    return all(
        {tuple(e[i] for i in perm): c for e, c in poly.terms.items()} == poly.terms
        for perm in itertools.permutations(range(poly.nvars))
    )


def threshold_from_terms(regime: str, terms, parts) -> int:
    """The quadrature's exactness threshold read from the terms of the expanded f: one past both ends of the
    integrand's per-axis frequencies [-gb_1, E + ga_1 - gb_k], E the largest exponent of any term of f, with
    ga = s * delta and gb = parts[::s] + ga at the regime's scale s (1 complex, 2 real)."""
    s = 2 if regime == "real" else 1
    beta = parts[::s]
    ga = [s * (len(beta) - 1 - i) for i in range(len(beta))]
    gb = [b + g for b, g in zip(beta, ga)]
    return max(gb[0], max((x for e in terms for x in e), default=0) + ga[0] - gb[-1]) + 1
