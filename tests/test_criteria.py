import random
from fractions import Fraction

import pytest

from ample.bundles import ChernData
from ample.criteria import (
    Assertions,
    build_counterexample,
    check_criterion,
    check_rank2_criterion,
    epsilon_choice,
    lubke_coefficient,
    nakai_check,
)
from ample.errors import InvalidInputError
from ample.intersection import SurfaceRing

ALL = Assertions(c1_positive=True, ample_on_curves=True, semistable=True)


def data(rank, c1_sq, c2):
    ring = SurfaceRing.from_rows(("D",), [[1]])
    return ChernData(rank, ring.zero(), Fraction(c2), Fraction(c1_sq))


def test_lubke_coefficient_closed_form():
    expected = {
        2: Fraction(2),
        3: Fraction(12, 5),
        4: Fraction(12, 5),
        5: Fraction(40, 17),
        6: Fraction(30, 13),
        7: Fraction(84, 37),
        8: Fraction(56, 25),
        9: Fraction(144, 65),
        10: Fraction(90, 41),
    }
    for r, value in expected.items():
        assert lubke_coefficient(r) == value
        assert lubke_coefficient(r) == Fraction(2 * r * (r - 1), r * r - 2 * r + 2)
    with pytest.raises(InvalidInputError):
        lubke_coefficient(1)


def test_rank2_coefficient_collapses_to_two():
    assert lubke_coefficient(2) == 2
    report = check_criterion(data(2, 5, 1), ALL)
    assert report.lubke_gap == report.st_gap == 3
    assert report.verdict == "hypotheses-satisfied"


def test_boundary_family_fails_numerically_even_with_assertions():
    ce = build_counterexample(3, 2)
    report = check_criterion(ce.chern, ALL)
    assert report.c1_sq == 12
    assert report.c2 == 5
    assert report.lubke_gap == 0
    assert report.st_gap is None
    assert report.verdict == "numerically-failed"


def test_missing_assertions_reported_when_numerics_pass():
    report = check_criterion(data(3, 50, 1), Assertions(c1_positive=True))
    assert report.verdict == "assertions-missing"
    assert report.assertions.missing() == ("ample_on_curves", "semistable")


def test_numerical_failure_takes_precedence_over_missing_assertions():
    report = check_criterion(data(3, 1, 50), Assertions())
    assert report.verdict == "numerically-failed"


def test_check_criterion_rejects_line_bundles():
    with pytest.raises(InvalidInputError):
        check_criterion(data(1, 1, 0), ALL)


def test_c1sq_minus_c2_condition_is_enforced():
    # negative c2 separates the two conditions: gap positive, c1^2 - c2 <= 0
    report = check_criterion(data(10, 100, 40), ALL)
    assert report.lubke_gap == Fraction(500, 41)
    assert report.verdict == "hypotheses-satisfied"
    report2 = check_criterion(data(10, -10, -10), ALL)
    assert report2.lubke_gap > 0
    assert report2.c1sq_minus_c2 == 0
    assert report2.verdict == "numerically-failed"


@pytest.mark.parametrize(
    "c1_sq,c2,ok",
    [(5, 1, True), (5, 3, False), (5, 0, False)],
)
def test_rank2_criterion_examples(c1_sq, c2, ok):
    report = check_rank2_criterion(data(2, c1_sq, c2), ALL)
    assert (report.verdict == "hypotheses-satisfied") is ok
    if not ok:
        assert report.verdict == "numerically-failed"


def test_rank2_criterion_rejects_other_ranks():
    with pytest.raises(InvalidInputError):
        check_rank2_criterion(data(3, 5, 1), ALL)


def test_rank2_reports_share_the_gap():
    rng = random.Random(991)
    for _ in range(100):
        cd = data(2, Fraction(rng.randint(-20, 20)), Fraction(rng.randint(-20, 20)))
        a = check_criterion(cd, ALL)
        b = check_rank2_criterion(cd, ALL)
        assert a.lubke_gap == a.st_gap == b.st_gap == cd.c1_sq_value - 2 * cd.c2_value


def test_epsilon_choice_examples():
    assert epsilon_choice(data(2, 5, 1), 100) == Fraction(3, 250)
    assert epsilon_choice(data(2, 10**6, 1), 1) == 1
    ce = build_counterexample(4, 3)
    assert epsilon_choice(ce.chern, 17) == 0
    with pytest.raises(InvalidInputError):
        epsilon_choice(data(2, 5, 1), 0)
    with pytest.raises(InvalidInputError):
        epsilon_choice(data(2, 5, 1), "-3/2")


def test_nakai_examples():
    ring = SurfaceRing.from_rows(("L", "H"), [[0, 2], [2, 1]])
    L = ring.basis_divisor("L")
    H = ring.basis_divisor("H")

    rep = nakai_check(L, [H], ring)
    assert rep.self_intersection == 0
    assert not rep.passed

    d = L + H.scale(2)
    rep2 = nakai_check(d, [L, H], ring)
    assert rep2.self_intersection == 12
    assert rep2.curve_degrees == (4, 4)
    assert rep2.passed
    assert rep2.warnings == ()


def test_nakai_empty_list_passes_with_warning():
    ring = SurfaceRing.from_rows(("H",), [[1]])
    rep = nakai_check(ring.basis_divisor("H"), [], ring)
    assert rep.passed
    assert rep.warnings


def test_nakai_is_monotone_in_the_curve_list():
    ring = SurfaceRing.from_rows(("L", "H"), [[0, 1], [1, 1]])
    L = ring.basis_divisor("L")
    H = ring.basis_divisor("H")
    d = H  # H.H = 1 > 0 but H.(H - L) = 0
    assert nakai_check(d, [L], ring).passed
    assert not nakai_check(d, [L, H - L], ring).passed


def test_nakai_rejects_classes_of_another_ring():
    ring = SurfaceRing.from_rows(("H",), [[1]])
    other = SurfaceRing.from_rows(("L", "H"), [[0, 1], [1, 1]])
    with pytest.raises(InvalidInputError):
        nakai_check(other.basis_divisor("H"), [], ring)
    with pytest.raises(InvalidInputError):
        nakai_check(ring.basis_divisor("H"), [other.basis_divisor("L")], ring)


def test_counterexample_rank3_frozen_values():
    ce = build_counterexample(3, 2)
    assert ce.chern.c1_sq_value == 12
    assert ce.chern.c2_value == 5
    assert ce.slopes == (4, 4, 4)
    assert ce.all_hold()
    by_name = {check.name: check for check in ce.identities}
    assert by_name["lubke_gap"].actual == 0
    assert by_name["slope_spread"].actual == 0


def test_counterexample_identities_hold_across_ranks():
    rng = random.Random(5150)
    for r in range(3, 11):
        a = Fraction(rng.randint(1, 12), rng.randint(1, 7))
        ce = build_counterexample(r, a)
        assert ce.all_hold()
        assert ce.chern.c1_sq_value == r * (r - 1) * a
        assert ce.chern.c2_value == a * Fraction(r * r - 2 * r + 2, 2)
        assert set(ce.slopes) == {(r - 1) * a}
        report = check_criterion(ce.chern, ALL)
        assert report.lubke_gap == 0
        assert report.verdict == "numerically-failed"


def test_counterexample_input_validation():
    with pytest.raises(InvalidInputError):
        build_counterexample(2, 1)
    with pytest.raises(InvalidInputError):
        build_counterexample(3, 0)
    with pytest.raises(InvalidInputError):
        build_counterexample(3, "-1/2")
