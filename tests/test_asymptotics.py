import cmath
import json
import math
import os
import subprocess
import sys
from collections import Counter

import pytest

import schubertcount
from schubertcount.asymptotics import TorusSample, asymptote_table, closed_form_max, root_of_unity, torus_scan
from schubertcount.combinatorics import EvenDegree, catalan, linear_factor_rows
from schubertcount.counts import root_poly


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
    for t1, t2 in s.argmax_head():
        diff = (t1 - t2) % (2 * math.pi)
        dist = min(abs(diff - math.pi / 2), abs(diff - 3 * math.pi / 2))
        assert dist <= 2 * math.pi / 360 + 1e-9


def test_torus_sample_fields_and_angles():
    assert TorusSample._fields == ("d", "grid", "min_modulus", "max_modulus", "sign_constant", "argmax_residues")
    s = torus_scan(3, 64)
    assert len(s.argmax_head()) == s.grid * len(s.argmax_residues)
    assert s.argmax_head()[:8] == s.argmax_head(8)
    (pair,) = s.argmax_head(1)
    assert len(pair) == 2 and all(type(angle) is float for angle in pair)


def _extrema(values):
    """min and max modulus, sign constancy and the indices of the argmax values,
    by the definitions of `torus_scan`."""
    moduli = [abs(v) for v in values]
    top = max(moduli)
    sign_constant = (
        (all(v.real > 0 for v in values) or all(v.real < 0 for v in values))
        and max(abs(v.imag) for v in values) <= 1e-8 * top
    )
    hits = [n for n, r in enumerate(moduli) if r >= top * (1.0 - 1e-9)]
    return min(moduli), top, sign_constant, hits


def _pointwise_extrema(d, g):
    """Extrema of F_d = f_d / (x1 x2)^m over all g^2 torus nodes, with its argmax
    nodes row-major, from the expanded root polynomial evaluated node by node
    in plain Python."""
    terms = root_poly("real", d, 2).terms
    m = sum(next(iter(terms))) // 2
    roots = [cmath.exp(2j * cmath.pi * t / g) for t in range(g)]
    values = [
        sum(c * roots[((e1 - m) * i + (e2 - m) * j) % g] for (e1, e2), c in terms.items())
        for i in range(g)
        for j in range(g)
    ]
    lo, top, sign_constant, hits = _extrema(values)
    return lo, top, sign_constant, [divmod(n, g) for n in hits]


@pytest.mark.parametrize("d", [1, 3, 5])
def test_torus_extrema_against_pointwise(d):
    g = 64
    ref_min, ref_max, ref_sign, ref_hits = _pointwise_extrema(d, g)
    s = torus_scan(d, g)
    assert abs(s.min_modulus - ref_min) <= 1e-9 * ref_min
    assert abs(s.max_modulus - ref_max) <= 1e-9 * ref_max
    assert s.sign_constant is ref_sign is True
    step = 2.0 * math.pi / g
    assert s.argmax_head() == [[i * step, j * step] for i, j in ref_hits]


def _residue_extrema(d, grid):
    """Extrema of F_d = z^(-m) * prod (a z + b) with z = exp(2 pi i t / grid),
    evaluated in cmath at every residue t, with no mirror, no grouping of
    repeated factors and no reduction of the angle."""
    rows = linear_factor_rows("real", d, 2)
    values = []
    for t in range(grid):
        z = cmath.exp(2j * cmath.pi * t / grid)
        value = z ** -(len(rows) // 2)
        for a, b in rows:
            value *= a * z + b
        values.append(value)
    lo, top, sign_constant, residues = _extrema(values)
    return lo, top, sign_constant, tuple(residues)


@pytest.mark.parametrize("grid", [64, 65, 361, 720])  # odd grids have no residue grid/2 to mirror onto itself
@pytest.mark.parametrize("d", [1, 3, 5, 7])
def test_torus_scan_against_every_residue(d, grid):
    ref_min, ref_max, ref_sign, ref_residues = _residue_extrema(d, grid)
    s = torus_scan(d, grid)
    assert abs(s.min_modulus - ref_min) <= 1e-12 * ref_min
    assert abs(s.max_modulus - ref_max) <= 1e-12 * ref_max
    assert s.sign_constant is ref_sign
    assert s.argmax_residues == ref_residues


def _reference_scan(d, grid):
    """`torus_scan` with each factor's a and b left as ints and every factor
    raised to its power, a simple one too: the float operations that
    `torus_scan` saves, with the same results but for the sign of a zero."""
    rows = linear_factor_rows("real", d, 2)
    m, factors = len(rows) // 2, Counter(rows).items()
    values = []
    for t in range(grid // 2 + 1):
        z, value = root_of_unity(t, grid), root_of_unity(-t * m % grid, grid)
        for (a, b), n in factors:
            value *= (a * z + b) ** n
        values.append(value)
    moduli = [abs(v) for v in values]
    top = max(moduli)
    reals = [v.real for v in values]
    sign_constant = (min(reals) > 0.0 or max(reals) < 0.0) and max(abs(v.imag) for v in values) <= 1e-8 * top
    hits = [t for t, r in enumerate(moduli) if r >= top * (1.0 - 1e-9)]
    return TorusSample(d, grid, min(moduli), top, sign_constant, tuple(sorted({*hits, *(-t % grid for t in hits)})))


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11, 13])
def test_torus_scan_matches_the_reference_bit_for_bit(d):
    for grid in (64, 65, 361, 720, 1440, 4096):
        assert repr(torus_scan(d, grid)) == repr(_reference_scan(d, grid)), grid


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
    rows = asymptote_table("real", [1, 3, 5])["real"]
    assert rows[0].degenerate and rows[0].ratio is None
    assert rows[1].ratio == pytest.approx(2.1205, abs=1e-3)
    assert rows[2].ratio == pytest.approx(1.4526, abs=1e-3)


def test_real_asymptote_ratio_decreasing():
    rows = asymptote_table("real", [3, 5, 7])["real"]
    ratios = [r.ratio for r in rows]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


def test_complex_asymptote_table():
    rows = asymptote_table("complex", [3, 5], 4)["complex"]
    assert rows[0].exact_log == pytest.approx(math.log(321489))
    assert rows[0].exact_log == pytest.approx(12.681, abs=1e-2)
    # log of the exact degree-5 count, 64127725294951805931404297113125
    assert rows[1].exact_log == pytest.approx(73.2384, abs=1e-3)
    assert rows[0].ratio > rows[1].ratio
    rows = asymptote_table("complex", [3], 2)["complex"]
    assert rows[0].exact_log == pytest.approx(math.log(27))
    assert rows[0].ratio == pytest.approx(1.0)
    with pytest.raises(ValueError):
        asymptote_table("complex", [3], 5)


def test_incidence_asymptote_table():
    tables = asymptote_table("incidence", [1, 5, 8])
    creal = tables["real"]
    assert tables["complex"][0].exact_log == 0.0
    assert creal[1].exact_log / 10 == pytest.approx(math.log(42) / 10, abs=1e-9)
    assert math.log(catalan(5)) / 10 < math.log(2)
    # normalized real logs increase toward log 2
    norm = [r.exact_log / (2 * r.parameter) for r in creal]
    assert norm[0] < norm[1] < norm[2] < math.log(2)


# Reads a command's max-RSS from a small launcher process: a child spawned
# straight from the test runner is charged the runner's own peak, since it
# starts by vfork and Linux keeps the borrowed memory's high-water mark at exec.
_MAX_RSS = ("import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:])\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, file=sys.stderr)\n")


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 to read the child's max-RSS")
def test_scan_with_every_node_an_argmax_stays_small():
    # |F_1| is constant on the torus, so all grid^2 nodes are argmax nodes
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubertcount.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "SCHUBERT_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
    for grid, bound_mib in ((1440, 160), (4096, 64)):
        argv = [sys.executable, "-m", "schubertcount", "scan", "-d", "1", "--grid", str(grid), "--no-cache"]
        proc = subprocess.run([sys.executable, "-c", _MAX_RSS] + argv, capture_output=True, env=env)
        returncode, max_rss = map(int, proc.stderr.split()[-2:])
        assert returncode == 0
        assert json.loads(proc.stdout)["argmax_count"] == grid**2
        max_rss_mib = max_rss / (2**20 if sys.platform == "darwin" else 2**10)
        assert max_rss_mib < bound_mib, (grid, max_rss_mib)
