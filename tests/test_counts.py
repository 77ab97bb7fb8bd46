import json
import math

import pytest

from schubertcount import cli, counts, polynomial
from schubertcount.combinatorics import OutOfDomain, Partition, catalan
from schubertcount.counts import (
    EvenDegree,
    catalan_substitution,
    cubic_ci_real,
    euler_number_defined,
    factored_real_root_poly,
    grassmannian_orientable,
    incidence_complex,
    incidence_real,
    linear_factor_rows,
    linear_factors,
    plane_count,
    real_square_poly,
    root_poly,
    sym_power_orientable,
)
from schubertcount.polynomial import SparsePoly, exact_sqrt
from schubertcount.schur import in_euler_pontryagin, schur_coefficient, schur_polynomial

# 9 x^3 y^3 (4(x^2+y^2)^2 - 25 x^2 y^2), the degree-3 real root polynomial
F3_REAL = SparsePoly(2, {(7, 3): 36, (5, 5): -153, (3, 7): 36})


def test_complex_root_poly():
    assert root_poly("complex", 1, 2).poly.terms == {(1, 1): 1}
    assert root_poly("complex", 3, 2).poly.terms == {(3, 1): 18, (2, 2): 45, (1, 3): 18}
    f = root_poly("complex", 3, 4).poly
    assert f.degree() == 20
    assert all(sum(e) == 20 for e in f.terms)


# complex lines on a generic degree-d hypersurface in P^{(d+3)/2}: OEIS A027363
# (Grunberg-Moree, Exp. Math. 2008)
PUBLISHED_COMPLEX_LINES = {3: 27, 5: 2875, 7: 698005, 9: 305093061, 11: 210480374951}
# signed counts of real lines, d!! (Okonek-Teleman; Finashin-Kharlamov)
PUBLISHED_REAL_LINES = {1: 1, 3: 3, 5: 15, 7: 105, 9: 945, 11: 10395}


def test_complex_count():
    for d, lines in PUBLISHED_COMPLEX_LINES.items():
        assert plane_count("complex", d, 2).value == lines, d
    report = plane_count("complex", 3, 4)
    assert report.value == 321489 and report.m == 5 and report.feasible
    report = plane_count("complex", 2, 2)
    assert not report.feasible and report.value is None and report.m is None
    assert plane_count("complex", 6, 4).value == 509790561507026458604600562562407674699832025446617186304
    assert plane_count("complex", 7, 4).value == (
        37790124497665395358326142935602591866292446308215498549851841984133180781777204421879037543)


def test_real_square_poly():
    assert real_square_poly(1, 2).terms == {(2, 2): 1}
    assert real_square_poly(3, 2) == F3_REAL * F3_REAL
    assert real_square_poly(3, 1).terms == {(4,): 9}
    with pytest.raises(EvenDegree):
        real_square_poly(2, 2)


def test_real_root_poly():
    f3 = root_poly("real", 3, 2)
    assert f3.poly == F3_REAL
    assert root_poly("real", 1, 2).poly.terms == {(1, 1): 1}
    assert root_poly("real", 3, 1).poly.terms == {(2,): 3}
    assert f3.poly.leading_term()[1] > 0


def test_real_root_poly_degree_and_ring():
    for d, k in ((1, 1), (3, 1), (5, 1), (1, 2), (3, 2), (5, 2), (7, 2), (1, 3)):
        root = root_poly("real", d, k)
        assert root.poly.degree() == math.comb(d + 2 * k - 1, 2 * k - 1) // 2, (d, k)
        assert in_euler_pontryagin(root.poly)


REAL_LADDER = ((1, 1), (3, 1), (5, 1), (1, 2), (3, 2), (5, 2), (7, 2), (9, 2), (1, 3), (3, 3), (5, 3))


@pytest.mark.parametrize("d,k", REAL_LADDER)
def test_real_root_poly_is_the_square_root(d, k):
    # one difference form from each pair {r, -r} multiplies out to the square root, sign included
    assert root_poly("real", d, k).poly == exact_sqrt(real_square_poly(d, k))


def test_counts_never_expand_the_product(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a count built a full product, a power or a square root")

    for module in (polynomial, counts, cli):
        for name in ("product_of_linear_forms", "exact_sqrt", "root_poly", "real_square_poly"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(SparsePoly, "__mul__", refuse)
    monkeypatch.setattr(SparsePoly, "__pow__", refuse)
    assert plane_count("complex", 5, 4).value == 64127725294951805931404297113125
    assert plane_count("real", 5, 3).value == 731282707860990814833962787125573040618750
    assert cubic_ci_real(4).value == catalan_substitution(4)
    assert incidence_real(8) == catalan(8)
    assert incidence_complex(8) == 2325250316950
    code = cli.main(["lambda", "--regime", "real", "-d", "3", "-k", "2", "--alpha", "5,5,5,5", "--no-cache"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["value"] == "-189"


def test_factored_real_root_poly():
    assert factored_real_root_poly(1).poly.terms == {(1, 1): 1}
    assert factored_real_root_poly(3).poly == F3_REAL
    for d in (1, 3, 5, 7):
        factored = factored_real_root_poly(d).poly
        direct = root_poly("real", d, 2).poly
        assert factored == direct or factored == -direct, d
    with pytest.raises(EvenDegree):
        factored_real_root_poly(4)


def test_real_count():
    assert plane_count("real", 3, 2).value == 189
    report = plane_count("real", 3, 2)
    assert report.m == 5 and report.feasible
    assert plane_count("real", 3, 1).value == 3
    assert plane_count("real", 5, 1).value == 15
    assert plane_count("real", 7, 1).value == 105
    assert plane_count("real", 1, 3).value == 1
    with pytest.raises(EvenDegree):
        plane_count("real", 2, 2)
    report = plane_count("real", 3, 3)
    assert not report.feasible and report.value is None
    assert plane_count("real", 7, 3).value == int(
        "4397430044975380702982018526137651501007299932159063004978923718221358559083711678679819225783508"
        "1733450117954880390805621603598935087084424859210061280447552769138816171875000")


def test_real_lines_double_factorial():
    for d, lines in PUBLISHED_REAL_LINES.items():
        assert lines == math.prod(range(d, 0, -2)), d
        assert plane_count("real", d, 1).value == lines, d


def test_cubic_ci_and_catalan_substitution():
    assert cubic_ci_real(0).value == 1
    assert cubic_ci_real(1).value == 189
    assert catalan_substitution(1) == 189
    assert catalan_substitution(2) == 81 * (625 - 200 + 2 * 16)
    for r in range(1, 5):
        assert cubic_ci_real(r).value == catalan_substitution(r), r
    report = cubic_ci_real(2)
    assert report.d == (3, 3) and report.m == 10


def test_incidence_real_is_catalan():
    for n in range(1, 9):
        assert incidence_real(n) == catalan(n), n


def test_incidence_complex():
    assert incidence_complex(1) == 1
    v2 = incidence_complex(2)
    assert v2 > 0
    assert math.log(v2) / 4 < math.log(20)


def test_orientability_predicates():
    assert grassmannian_orientable(4, 6)
    assert not grassmannian_orientable(4, 5)
    assert grassmannian_orientable(2, 2)
    assert not sym_power_orientable(3, 4)   # C(6,4) = 15
    assert sym_power_orientable(3, 2)       # C(4,2) = 6
    assert not sym_power_orientable(2, 2)   # C(3,2) = 3
    assert euler_number_defined(3, 4, 5)
    assert euler_number_defined(3, 2, 2)
    assert not any(euler_number_defined(2, 4, m) for m in range(1, 40))


def test_count_report_orientability_fields():
    report = plane_count("real", 3, 2)
    o = report.orientability
    assert o is not None
    assert o.grassmannian == grassmannian_orientable(4, 5) == False
    assert o.sym_power == sym_power_orientable(3, 4) == False
    assert o.euler_defined == euler_number_defined(3, 4, 5) == True


def test_positivity_of_complex_counts():
    # positivity is claimed for odd degrees (even-degree counts can vanish:
    # a quadric threefold carries no 2-planes, plane_count("complex", 2, 3) == 0)
    for d, k in ((1, 2), (3, 2), (5, 2), (3, 4), (1, 3)):
        report = plane_count("complex", d, k)
        if report.feasible:
            assert report.value > 0, (d, k)
    assert plane_count("complex", 2, 3).value == 0


def test_unknown_regime_is_refused():
    # a regime is "complex" or "real"; any other name must not fall through to either
    with pytest.raises(OutOfDomain, match="Complex"):
        linear_factor_rows("Complex", 3, 1)
    with pytest.raises(OutOfDomain, match="Complex"):
        schur_polynomial("Complex", Partition((2, 2)))
    root = root_poly("complex", 3, 2)
    for f in (linear_factors("complex", 3, 2), root.poly, root):
        with pytest.raises(OutOfDomain, match="Complex"):
            schur_coefficient("Complex", f, Partition((2, 2)))
    with pytest.raises(OutOfDomain, match="Complex"):
        root_poly("Complex", 3, 2)
    with pytest.raises(OutOfDomain, match="Complex"):
        plane_count("Complex", 3, 2)
