import json
import math
import os
import subprocess
import sys

import pytest

import schubertcount
from schubertcount.asymptotics import (
    closed_form_max,
    complex_asymptote_table,
    incidence_asymptote_table,
    real_asymptote_table,
    torus_scan,
)
from schubertcount.combinatorics import catalan
from schubertcount.counts import EvenDegree, linear_factor_rows


def test_closed_form_max():
    assert closed_form_max(1) == 1
    assert closed_form_max(3) == 9 * 25
    assert closed_form_max(5) == 2025 * (1 + 16) ** 2 * (4 + 9) ** 2 * (1 + 4) ** 4
    with pytest.raises(EvenDegree):
        closed_form_max(4)


def test_torus_scan_degree_one():
    s = torus_scan(1, 64)
    assert s.max_modulus == pytest.approx(1.0)
    assert s.min_modulus == pytest.approx(1.0)
    assert s.sign_constant


def test_torus_scan_degree_three():
    s = torus_scan(3, 360)
    assert s.max_modulus == pytest.approx(225.0, abs=1e-6)
    assert s.min_modulus > 0
    assert s.sign_constant
    for t1, t2 in s.argmax_angles:
        diff = (t1 - t2) % (2 * math.pi)
        dist = min(abs(diff - math.pi / 2), abs(diff - 3 * math.pi / 2))
        assert dist <= 2 * math.pi / 360 + 1e-9


def test_torus_scan_matches_closed_form():
    for d, grid in ((3, 720), (5, 720), (7, 720)):
        s = torus_scan(d, grid)
        exact = closed_form_max(d)
        assert abs(s.max_modulus - exact) <= 1e-4 * exact, d
        assert s.sign_constant, d


@pytest.mark.parametrize("d", [7, 9, 11, 13])
def test_torus_scan_extrema_exact_at_high_degree(d):
    # the minimum is F_d(1, 1) = prod (a + b) over the linear factors
    s = torus_scan(d, 720)
    least = abs(math.prod(a + b for a, b in linear_factor_rows("real", d, 2)))
    assert abs(s.min_modulus - least) <= 1e-12 * least
    assert abs(s.max_modulus - closed_form_max(d)) <= 1e-12 * closed_form_max(d)
    assert s.sign_constant


def test_torus_scan_guards():
    with pytest.raises(EvenDegree):
        torus_scan(2, 360)
    with pytest.raises(ValueError):
        torus_scan(3, 32)


def test_closed_form_ratio_trend():
    ratios = []
    for d in (3, 5, 7, 9, 11):
        ratio = math.log(closed_form_max(d)) / ((d**3 / 12) * math.log(d))
        ratios.append(ratio)
        assert ratio >= 1.0, d
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_real_asymptote_table():
    rows = real_asymptote_table([1, 3, 5])
    assert rows[0].degenerate and rows[0].ratio is None
    assert rows[1].ratio == pytest.approx(2.1205, abs=1e-3)
    assert rows[2].ratio == pytest.approx(1.4526, abs=1e-3)


def test_real_asymptote_ratio_decreasing():
    rows = real_asymptote_table([3, 5, 7])
    ratios = [r.ratio for r in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_complex_asymptote_table():
    rows = complex_asymptote_table([3, 5], 4)
    assert rows[0].exact_log == pytest.approx(math.log(321489))
    assert rows[0].exact_log == pytest.approx(12.681, abs=1e-2)
    # log of the exact degree-5 count, 64127725294951805931404297113125
    assert rows[1].exact_log == pytest.approx(73.2384, abs=1e-3)
    assert rows[0].ratio > rows[1].ratio
    rows = complex_asymptote_table([3], 2)
    assert rows[0].exact_log == pytest.approx(math.log(27))
    assert rows[0].ratio == pytest.approx(1.0)
    with pytest.raises(ValueError):
        complex_asymptote_table([3], 4, slack=0.1)


def test_incidence_asymptote_table():
    tables = incidence_asymptote_table([1, 5, 8])
    creal = tables["real"]
    assert tables["complex"][0].exact_log == 0.0
    assert creal[1].exact_log / 10 == pytest.approx(math.log(42) / 10, abs=1e-9)
    assert math.log(catalan(5)) / 10 < math.log(2)
    # normalized real logs increase toward log 2
    norm = [r.exact_log / (2 * r.parameter) for r in creal]
    assert norm[0] < norm[1] < norm[2] < math.log(2)


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 to read the child's max-RSS")
def test_scan_with_every_node_an_argmax_stays_small():
    # |F_1| is constant on the torus, so all 1440^2 nodes are argmax nodes
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubertcount.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    argv = [sys.executable, "-m", "schubertcount", "scan", "-d", "1", "--grid", "1440", "--no-cache"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert json.loads(out)["argmax_count"] == 1440**2
    max_rss_mib = usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    assert max_rss_mib < 160, max_rss_mib
