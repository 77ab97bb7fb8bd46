"""The three workloads and the pinned answer of every query in them.

Each query is an argv for `python -m schubertcount` plus a check that reads
the query's stdout and raises `Mismatch` when the answer is not the pinned
one.  Pins come from published values where they exist (A027363 for complex
lines, d!! for signed real lines, Catalan numbers for real incidence, the
Catalan substitution for cubic complete intersections) and otherwise from
the values the engine gave when this benchmark was written.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass, replace
from math import comb
from typing import Callable


class Mismatch(Exception):
    """The query ran but its output is not the pinned answer."""


@dataclass(frozen=True)
class Query:
    argv: tuple
    check: Callable[[str], None]
    # queries the result cache may serve (stdout JSON carries "cached")
    cacheable: bool = True
    # executions per draw in a measured pass, to time short queries steadily
    runs: int = 1

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# -- published sequences, computed here so no pin depends on the engine -------

# complex lines on a generic degree-d hypersurface in P^{(d+3)/2}, OEIS A027363
# (Grunberg-Moree, Exp. Math. 2008)
COMPLEX_LINES = {3: 27, 5: 2875, 7: 698005, 9: 305093061, 11: 210480374951}


def double_factorial(d: int) -> int:
    """d!!, the signed count of real lines (Okonek-Teleman, Finashin-Kharlamov)."""
    return math.prod(range(d, 0, -2))


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def catalan_substitution(r: int) -> int:
    """9^r (25 - 4t)^r with t^j replaced by the j-th Catalan number."""
    return 9**r * sum(comb(r, j) * 25 ** (r - j) * (-4) ** j * catalan(j) for j in range(r + 1))


# -- values the engine gave when this benchmark was written --------------------

SEED_VALUES = {
    ("complex", 3, 4): 321489,
    ("complex", 5, 4): 64127725294951805931404297113125,
    ("complex", 3, 5): 1812646836,
    ("complex", 11, 3): 7937408575884424724019635722350148703822387692677961301359612005526786667486,
    ("real", 3, 2): 189,
    ("real", 5, 2): 37655727525,
    ("real", 7, 2): 262564604885908553719426543125,
    ("real", 5, 3): 731282707860990814833962787125573040618750,
    ("real", 11, 2): int(
        "1155571936563723544670210420266668804737060256614258005559232695782729662229163950"
        "03518984345958100759293002523916015625"
    ),
}
INCIDENCE_COMPLEX = {1: 1, 2: 6, 3: 145, 4: 8806, 5: 830622, 6: 100317140, 8: 2325250316950}
# exact max |F_d| on the torus (asymptotics.closed_form_max at the seed commit)
CLOSED_FORM_MAX = {
    3: 225,
    5: 61814390625,
    7: 598786785913865409722900390625,
    9: 18980648015900747709825977724177467558330977977812290191650390625,
}
# sha256 of the "poly" text of small polynomials
POLY_SHA256 = {
    "schur-real-7733": "86a886f40411a9804b2dbd1b9a0b30851346418306659dac77684495ca50bdac",
    "schur-complex-321": "40fc57e2f59086c448116f8e6091cbf845abfa709bceca0c44c8bf354cbe4a6a",
    "root-real-3-2": "072b0ba7e1c03df85b61acb16c900ffbc6923f29334b7f1c320c05dcf6f4f38a",
    "root-complex-3-2": "7c2b5095ed544f3e0f26d8f2d1166792573304f46c5a3f993417c21e3e7bdb74",
}
FEASIBILITY_REAL_K2 = [  # (d, feasible, m) for d = 3..11
    (3, True, 5), (4, False, None), (5, True, 14), (6, True, 21), (7, True, 30),
    (8, False, None), (9, True, 55), (10, False, None), (11, True, 91),
]


# -- checks -------------------------------------------------------------------


def _body(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if len(lines) != 1:
        raise Mismatch(f"expected one JSON line, got {len(lines)} lines")
    try:
        body = json.loads(lines[0])
    except ValueError as exc:
        raise Mismatch(f"unparsable JSON: {exc}") from None
    if not isinstance(body, dict):
        raise Mismatch("JSON body is not an object")
    return body


def _expect(body: dict, **fields) -> None:
    for key, want in fields.items():
        if body.get(key) != want:
            raise Mismatch(f"{key}: got {body.get(key)!r}, pinned {want!r}")


def _abs_value(body: dict) -> int:
    try:
        return abs(int(body["value"]))
    except (KeyError, TypeError, ValueError):
        raise Mismatch(f"no integer value in {sorted(body)}") from None


def count(regime: str, d: int, k: int, value: int, dump: str = "") -> Query:
    argv = ("count", "--regime", regime, "-d", str(d), "-k", str(k))
    if dump:
        argv += ("--dump-poly",)

    def check(stdout: str) -> None:
        body = _body(stdout)
        _expect(body, command="count", regime=regime, d=d, k=k, feasible=True)
        if _abs_value(body) != value:
            raise Mismatch(f"value {body['value']} != pinned {value}")
        if dump and hashlib.sha256(str(body.get("poly")).encode()).hexdigest() != POLY_SHA256[dump]:
            raise Mismatch(f"poly text differs from pin {dump}")

    return Query(argv, check)


def incidence(regime: str, n: int) -> Query:
    want = catalan(n) if regime == "real" else INCIDENCE_COMPLEX[n]

    def check(stdout: str) -> None:
        body = _body(stdout)
        _expect(body, command="incidence", regime=regime, n=n)
        if _abs_value(body) != want:
            raise Mismatch(f"value {body['value']} != pinned {want}")

    return Query(("incidence", "--regime", regime, "-n", str(n)), check)


def cubic_ci(r: int) -> Query:
    want = catalan_substitution(r)

    def check(stdout: str) -> None:
        body = _body(stdout)
        _expect(body, command="cubic-ci", catalan_substitution=str(want))
        if _abs_value(body) != want:
            raise Mismatch(f"value {body['value']} != pinned {want}")

    return Query(("cubic-ci", "-r", str(r)), check)


def schur(regime: str, alpha: str, pin: str) -> Query:
    def check(stdout: str) -> None:
        body = _body(stdout)
        _expect(body, command="schur", regime=regime)
        if hashlib.sha256(str(body.get("poly")).encode()).hexdigest() != POLY_SHA256[pin]:
            raise Mismatch(f"poly text differs from pin {pin}")

    return Query(("schur", "--regime", regime, "--alpha", alpha), check)


def lam(regime: str, d: int, k: int, alpha: str, value: int, numeric: bool = False, extra=()) -> Query:
    argv = ("lambda", "--regime", regime, "-d", str(d), "-k", str(k), "--alpha", alpha)
    if numeric:
        argv += ("--numeric",) + tuple(extra)

    def check(stdout: str) -> None:
        body = _body(stdout)
        _expect(body, command="lambda", regime=regime, d=d, k=k)
        if _abs_value(body) != value:
            raise Mismatch(f"value {body['value']} != pinned {value}")
        if numeric and body.get("numeric_matches") is not True:
            raise Mismatch(f"numeric_matches is {body.get('numeric_matches')!r}")

    # --numeric runs bypass the cache by design
    return Query(argv, check, cacheable=not numeric)


def scan(d: int, grid: int = 0) -> Query:
    argv = ("scan", "-d", str(d)) + (("--grid", str(grid)) if grid else ())
    want = CLOSED_FORM_MAX[d]

    def check(stdout: str) -> None:
        body = _body(stdout)
        _expect(body, command="scan", d=d)
        got = body.get("max_modulus")
        if not isinstance(got, (int, float)) or abs(got - want) > 1e-4 * want:
            raise Mismatch(f"max_modulus {got!r} not within 1e-4 of closed form {want}")

    return Query(argv, check)


def _check_log_rows(rows, family: str, exact: dict) -> None:
    got = [(int(r["parameter"]), float(r["exact_log"])) for r in rows]
    if [p for p, _ in got] != list(exact):
        raise Mismatch(f"{family}: parameters {[p for p, _ in got]} != {list(exact)}")
    for p, log_value in got:
        want = math.log(exact[p])
        if abs(log_value - want) > 1e-12 * max(1.0, abs(want)):
            raise Mismatch(f"{family} {p}: exact_log {log_value} != log({exact[p]})")


def asymptote_json(family: str, ds: tuple, exact: dict) -> Query:
    def check(stdout: str) -> None:
        body = _body(stdout)
        _expect(body, command="asymptote", family=family)
        try:
            rows = body["tables"][family]
        except (KeyError, TypeError):
            raise Mismatch("no table for the family") from None
        _check_log_rows(rows, family, exact)

    return Query(("asymptote", "--family", family, "--ds", ",".join(map(str, ds))), check)


def _csv_rows(stdout: str, header: list) -> list:
    reader = csv.DictReader(io.StringIO(stdout))
    if reader.fieldnames != header:
        raise Mismatch(f"CSV header {reader.fieldnames} != {header}")
    return list(reader)


_ASYMPTOTE_HEADER = ["family", "parameter", "exact_log", "exact_log10", "prediction", "ratio", "degenerate"]


def asymptote_csv(family: str, flag: str, params: tuple, exact: dict, extra=()) -> Query:
    argv = ("asymptote", "--family", family, flag, ",".join(map(str, params))) + tuple(extra) + ("--format", "csv")

    def check(stdout: str) -> None:
        rows = _csv_rows(stdout, _ASYMPTOTE_HEADER)
        for name, values in exact.items():
            _check_log_rows([r for r in rows if r["family"] == name], name, values)
        if {r["family"] for r in rows} != set(exact):
            raise Mismatch(f"families {sorted({r['family'] for r in rows})} != {sorted(exact)}")

    # CSV tables are written before the cache is consulted
    return Query(argv, check, cacheable=False)


def feasibility_csv() -> Query:
    def check(stdout: str) -> None:
        rows = _csv_rows(stdout, ["regime", "d", "k", "feasible", "m", "odd_degree"])
        got = [(int(r["d"]), r["feasible"] == "True", int(r["m"]) if r["m"] else None) for r in rows]
        if got != FEASIBILITY_REAL_K2:
            raise Mismatch(f"feasibility rows {got} != pinned")

    argv = ("feasibility", "--regime", "real", "-d", "3", "-k", "2", "--d-max", "11", "--format", "csv")
    return Query(argv, check, cacheable=False)


def feasibility_json() -> Query:
    def check(stdout: str) -> None:
        _expect(_body(stdout), command="feasibility", regime="complex", d=3, k=4, feasible=True, m=5)

    return Query(("feasibility", "--regime", "complex", "-d", "3", "-k", "4"), check, cacheable=False)


# -- workloads ----------------------------------------------------------------

NO_CACHE = ("--no-cache",)


def with_flags(query: Query, extra: tuple, runs: int = 1) -> Query:
    """The query with `extra` flags appended, run `runs` times per draw."""
    cacheable = query.cacheable and "--no-cache" not in extra
    return replace(query, argv=query.argv + extra, cacheable=cacheable, runs=runs)


# The queries that decide a workload's median run three times per draw, so
# the median rests on more than one sample per pass.
MEDIAN_RUNS = 3


def exact_queries() -> list:
    """Seven heavy exact counts; the engine's product, square root and power."""
    sv = SEED_VALUES
    return [
        with_flags(count("complex", 5, 4, sv[("complex", 5, 4)]), NO_CACHE),
        with_flags(count("complex", 3, 5, sv[("complex", 3, 5)]), NO_CACHE, MEDIAN_RUNS),
        with_flags(count("complex", 11, 3, sv[("complex", 11, 3)]), NO_CACHE),
        with_flags(count("real", 5, 3, sv[("real", 5, 3)]), NO_CACHE),
        with_flags(count("real", 11, 2, sv[("real", 11, 2)]), NO_CACHE),
        with_flags(incidence("complex", 8), NO_CACHE),
        with_flags(cubic_ci(4), NO_CACHE),
    ]


def oracle_queries() -> list:
    """Float diagnostics: torus quadrature oracle and torus scans."""
    c34 = SEED_VALUES[("complex", 3, 4)]
    return [
        with_flags(lam("complex", 3, 4, "5,5,5,5", c34, numeric=True), NO_CACHE),
        with_flags(lam("complex", 3, 4, "5,5,5,5", c34, numeric=True, extra=("--grid", "61", "--threads", "1")), NO_CACHE),
        with_flags(lam("complex", 3, 4, "5,5,5,5", c34, numeric=True, extra=("--grid", "61", "--threads", "2")), NO_CACHE),
        with_flags(lam("real", 5, 2, "14,14,14,14", SEED_VALUES[("real", 5, 2)], numeric=True), NO_CACHE),
    ] + [with_flags(scan(d, 1440), NO_CACHE, MEDIAN_RUNS) for d in (3, 5, 7, 9)]


def interactive_pool() -> list:
    """(query, times drawn per pass): cheap queries over all eight commands,
    plus moderate ones.  The multiset is fixed so that passes with different
    seeds do the same work; the seed sets the order.

    Nine draws of an uncached complex incidence n=5 (about 2.5 times a cheap
    query, run twice per draw) take up the 5th to 13th slowest places, so
    p90 (the 11th and 12th slowest of 107) falls inside one block of
    identical work.  Without it, p90 fell among first sightings of cheap
    queries: single samples, noisy."""
    sv = SEED_VALUES
    lines = [count("complex", d, 2, COMPLEX_LINES[d]) for d in (3, 5, 7, 9, 11)]
    real_lines = [count("real", d, 1, double_factorial(d)) for d in (3, 5, 7, 9, 11)]
    return [(q, 3) for q in lines + real_lines] + [
        (with_flags(incidence("complex", 5), NO_CACHE, 2), 9),
        (count("complex", 3, 4, sv[("complex", 3, 4)]), 3),
        (count("complex", 5, 4, sv[("complex", 5, 4)]), 3),
        (count("real", 3, 2, sv[("real", 3, 2)]), 3),
        (count("real", 5, 2, sv[("real", 5, 2)]), 3),
        (count("real", 3, 2, sv[("real", 3, 2)], dump="root-real-3-2"), 3),
        (count("complex", 3, 2, COMPLEX_LINES[3], dump="root-complex-3-2"), 3),
        (incidence("real", 3), 3),
        (incidence("real", 5), 3),
        (incidence("complex", 2), 3),
        (incidence("complex", 6), 3),
        (cubic_ci(1), 3),
        (cubic_ci(2), 3),
        (schur("real", "7,7,3,3", "schur-real-7733"), 3),
        (schur("complex", "3,2,1", "schur-complex-321"), 3),
        (lam("real", 3, 2, "5,5,5,5", sv[("real", 3, 2)], numeric=True), 3),
        (lam("complex", 3, 2, "2,2", COMPLEX_LINES[3]), 3),
        (scan(3, 720), 3),
        (scan(5), 3),
        (asymptote_json("real", (3, 5, 7), {d: sv[("real", d, 2)] for d in (3, 5, 7)}), 3),
        (asymptote_csv("complex", "--ds", (3, 5, 7), {"complex": {d: COMPLEX_LINES[d] for d in (3, 5, 7)}},
                       extra=("-k", "2")), 3),
        (asymptote_csv("incidence", "--ns", (1, 2, 3, 4, 5), {
            "complex": {n: INCIDENCE_COMPLEX[n] for n in range(1, 6)},
            "real": {n: catalan(n) for n in range(1, 6)},
        }), 2),
        (feasibility_csv(), 3),
        (feasibility_json(), 3),
    ]


def interactive_queries(seed: int) -> list:
    stream = [q for q, times in interactive_pool() for _ in range(times)]
    random.Random(seed).shuffle(stream)
    return stream


def queries(workload: str, seed: int) -> list:
    """The ordered queries of one pass.  For `exact` and `oracle` the seed
    only permutes the order; for `interactive` it orders a fixed multiset."""
    if workload == "interactive":
        return interactive_queries(seed)
    base = {"exact": exact_queries, "oracle": oracle_queries}[workload]()
    random.Random(seed).shuffle(base)
    return base


WORKLOADS = ("exact", "interactive", "oracle")
