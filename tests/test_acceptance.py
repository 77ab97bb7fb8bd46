"""Acceptance suite: each numbered criterion runs as one test at its stated
tolerance and prints one verdict line (run with `pytest -s` to see them all).

Heavy counts are exercised through the real CLI in subprocesses where the
criterion names a command; pure-API criteria run in process.
"""

import functools
import json
import math
import os
import subprocess
import sys
import time

import pytest

from helpers import partitions_in_box, partitions_of
from schubertcount.asymptotics import asymptote_table, closed_form_max, torus_scan
from schubertcount.combinatorics import Partition, catalan, complement, feasibility
from schubertcount.counts import (
    catalan_substitution,
    cubic_ci_real,
    factored_real_root_poly,
    incidence,
    plane_count,
    real_square_poly,
    root_poly,
)
from schubertcount.polynomial import SparsePoly, exact_sqrt
from schubertcount.schur import (
    duality_pairing,
    numeric_schur_coefficient,
    schur_coefficient,
    schur_polynomial,
)

N3_COMPLEX = 321489
N5_COMPLEX = 64127725294951805931404297113125
N3_REAL = 189
N5_REAL = 37655727525


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:2d}] FAIL  {desc}")
                raise
            print(f"[criterion {num:2d}] PASS  {desc}")
        return wrapper
    return deco


def run_cli(args, timeout=900):
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "schubertcount", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    return proc, time.perf_counter() - start


@pytest.fixture(scope="module")
def cli_complex54():
    proc, elapsed = run_cli(["count", "--regime", "complex", "-d", "5", "-k", "4", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), elapsed


@criterion(1, "count --regime complex -d 3 -k 4 = 321489, under 10 s")
def test_criterion_01():
    proc, elapsed = run_cli(["count", "--regime", "complex", "-d", "3", "-k", "4", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    body = json.loads(proc.stdout)
    assert body["value"] == str(N3_COMPLEX)
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion(2, "count --regime complex -d 5 -k 4 = 64127725294951805931404297113125, under 10 min")
def test_criterion_02(cli_complex54):
    body, elapsed = cli_complex54
    assert body["value"] == str(N5_COMPLEX)
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


@criterion(3, "count --regime real: d=3,k=2 = 189 and d=5,k=2 = 37655727525, each under 60 s")
def test_criterion_03():
    proc, elapsed = run_cli(["count", "--regime", "real", "-d", "3", "-k", "2", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == str(N3_REAL)
    assert elapsed < 60.0
    proc, elapsed = run_cli(["count", "--regime", "real", "-d", "5", "-k", "2", "--no-cache"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == str(N5_REAL)
    assert elapsed < 60.0


@criterion(4, "real lines: d=3 -> 3, d=5 -> 15, d=7 -> 105 = (2n-1)!!")
def test_criterion_04():
    for d, expected in ((3, 3), (5, 15), (7, 105)):
        assert plane_count("real", d, 1).value == expected, d
        n = (d + 1) // 2
        double_factorial = 1
        for j in range(1, 2 * n, 2):
            double_factorial *= j
        assert expected == double_factorial


@criterion(5, "complex lines sanity: d=3, k=2 -> 27")
def test_criterion_05():
    assert plane_count("complex", 3, 2).value == 27


@criterion(6, "incidence_real(n) = catalan(n) for n = 1..8, exactly")
def test_criterion_06():
    for n in range(1, 9):
        assert incidence("real", n) == catalan(n), n


@criterion(7, "cubic_ci_real(r) = catalan_substitution(r) for r = 1..4; r=1 is 189")
def test_criterion_07():
    assert cubic_ci_real(1).value == 189
    for r in range(1, 5):
        assert cubic_ci_real(r).value == catalan_substitution(r), r


@criterion(8, "dual-basis suite: orthonormality |a|=|b|<=8, k<=4; duality_pairing on all k<=4, m<=3")
def test_criterion_08():
    for k in range(1, 5):
        for n in range(0, 9):
            parts = [Partition(p) for p in partitions_of(n, k)]
            schurs = {p.parts: schur_polynomial("complex", p) for p in parts}
            for a in parts:
                for b in parts:
                    expected = 1 if a == b else 0
                    assert schur_coefficient("complex", [(schurs[b.parts].poly, 1)], a) == expected
    for k in range(1, 5):
        for m in range(0, 4):
            parts = [Partition(p) for p in partitions_in_box(k, m)]
            for a in parts:
                for b in parts:
                    expected = 1 if complement(a, m, k) == b else 0
                    assert duality_pairing(a, b, m, k) == expected, (k, m, a.parts, b.parts)


@criterion(9, "exact_sqrt(real_square_poly(d,2)) = factored_real_root_poly(d) up to sign, d in {1,3,5,7}")
def test_criterion_09():
    for d in (1, 3, 5, 7):
        via_sqrt = exact_sqrt(real_square_poly(d, 2))
        factored = factored_real_root_poly(d).poly
        assert via_sqrt == factored or via_sqrt == -factored, d


@criterion(10, "quadrature oracle agrees with every exact lambda in criteria 1-7 within 1e-6 relative")
def test_criterion_10():
    cases = []  # (regime, (factor, exponent) pairs, 2k- or k-partition, exact value)

    for d, expected in ((3, N3_COMPLEX), (5, N5_COMPLEX)):
        m = feasibility(d, 4, "complex").m
        root = root_poly("complex", d, 4)
        alpha = Partition.constant(m, 4)
        assert schur_coefficient("complex", [(root.poly, 1)], alpha) == expected
        cases.append(("complex", [(root.poly, 1)], alpha, expected))

    root = root_poly("complex", 3, 2)
    cases.append(("complex", [(root.poly, 1)], Partition.constant(2, 2), 27))

    for d, expected in ((3, N3_REAL), (5, N5_REAL)):
        m = feasibility(d, 2, "real").m
        root = root_poly("real", d, 2)
        alpha = Partition.constant(m, 4)
        assert abs(schur_coefficient("real", [(root.poly, 1)], alpha)) == expected
        cases.append(("real", [(root.poly, 1)], alpha, expected))

    for d, expected in ((3, 3), (5, 15), (7, 105)):
        m = feasibility(d, 1, "real").m
        cases.append(("real", [(root_poly("real", d, 1).poly, 1)], Partition.constant(m, 2), expected))

    base = SparsePoly(2, {(2, 0): 1, (0, 2): 1})
    for n in range(1, 9):
        cases.append(("real", [(base, 2 * n)], Partition.constant(2 * n, 4), catalan(n)))

    f3 = root_poly("real", 3, 2)
    for r in range(1, 5):
        cases.append(("real", [(f3.poly, r)], Partition.constant(5 * r, 4), catalan_substitution(r)))

    for regime, factors, alpha, exact in cases:
        # the default grid is the exactness threshold
        numeric = numeric_schur_coefficient(regime, factors, alpha)
        err = min(abs(numeric - exact), abs(numeric + exact))
        assert err <= 1e-6 * max(1.0, abs(exact)), (alpha.parts, exact, numeric)


@criterion(11, "torus diagnostics at 720^2: grid max matches closed form to 1e-4; d=3 max is 225; "
              "Re F_d sign-constant; argmax on theta1-theta2 = +-pi/2")
def test_criterion_11():
    cell = 2 * math.pi / 720
    for d in (3, 5):
        sample = torus_scan(d, 720)
        exact = closed_form_max(d)
        assert abs(sample.max_modulus - exact) <= 1e-4 * exact, d
        assert sample.sign_constant, d
        for t1, t2 in sample.argmax_angles:
            diff = (t1 - t2) % (2 * math.pi)
            dist = min(abs(diff - math.pi / 2), abs(diff - 3 * math.pi / 2))
            assert dist <= cell + 1e-9, (d, t1, t2)
    assert torus_scan(3, 720).max_modulus == pytest.approx(225.0, abs=1e-6)


@criterion(12, "asymptote ratios: 2.1205 +- 0.01 at d=3, 1.4526 +- 0.01 at d=5, strictly decreasing over {3,5,7}")
def test_criterion_12():
    rows = asymptote_table("real", [3, 5, 7])["real"]
    ratios = [r.ratio for r in rows]
    assert abs(ratios[0] - 2.1205) <= 0.01
    assert abs(ratios[1] - 1.4526) <= 0.01
    assert ratios[0] > ratios[1] > ratios[2]


@criterion(13, "inequality chain: real signed count <= complex count for d in {3,5}")
def test_criterion_13():
    assert plane_count("real", 3, 2).value <= plane_count("complex", 3, 4).value
    assert plane_count("real", 5, 2).value <= plane_count("complex", 5, 4).value


@criterion(14, "determinism: criterion 2 with and without cache yields byte-identical JSON value fields")
def test_criterion_14(cli_complex54, tmp_path):
    no_cache_body, _ = cli_complex54
    args = ["count", "--regime", "complex", "-d", "5", "-k", "4", "--cache-dir", str(tmp_path)]
    proc, _ = run_cli(args)
    assert proc.returncode == 0, proc.stderr
    cold = json.loads(proc.stdout)
    assert cold["cached"] is False
    proc, _ = run_cli(args)
    assert proc.returncode == 0, proc.stderr
    warm = json.loads(proc.stdout)
    assert warm["cached"] is True

    values = {no_cache_body["value"], cold["value"], warm["value"]}
    assert values == {str(N5_COMPLEX)}

    def body_without_runtime(b):
        return {k: v for k, v in b.items() if k not in ("cached", "elapsed_ms")}

    assert body_without_runtime(no_cache_body) == body_without_runtime(cold) == body_without_runtime(warm)
