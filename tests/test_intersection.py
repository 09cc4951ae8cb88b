import random
from fractions import Fraction

import pytest

from ample.bundles import Line, Sum, Twist, chern_of, split_slopes
from ample.criteria import nakai_check
from ample.errors import InvalidInputError
from ample.intersection import SurfaceRing, as_rational, intersect


def two_generator_ring(a, b):
    return SurfaceRing.from_rows(("L", "H"), [[0, a], [a, b]])


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(-7, 2)) == Fraction(-7, 2)
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-12") == Fraction(-12)


@pytest.mark.parametrize("bad", [1.5, True, False, None, [1], "3/0", "x", "1e3", "2E-1", "1e5000"])
def test_as_rational_rejects_inexact_and_malformed(bad):
    with pytest.raises((InvalidInputError, TypeError)):
        as_rational(bad)


def test_as_rational_rejects_what_a_report_could_not_print():
    # Python prints integers of up to 4300 digits; a decimal string of that
    # many digits either side of the point has a numerator twice as long
    assert as_rational("9" * 4300) == 10**4300 - 1
    assert as_rational("1/" + "9" * 4300) == Fraction(1, 10**4300 - 1)
    for bad in (10**4300, -(10**4300), "1" * 4299 + "." + "1" * 4299):
        with pytest.raises(InvalidInputError, match="more than 4300 digits"):
            as_rational(bad)


def test_as_rational_errors_echo_a_bounded_prefix_of_long_input():
    # Fraction's own message would repeat the whole input a second time
    for bad, reason in (("x" * 5000, "cannot parse rational"), ("1e" + "0" * 4998, "exponent notation")):
        with pytest.raises(InvalidInputError) as info:
            as_rational(bad)
        message = str(info.value)
        assert message.startswith(reason)
        assert "(5000 characters)" in message
        assert len(message) < 200


def test_ring_validation():
    with pytest.raises(InvalidInputError):
        SurfaceRing.from_rows((), [])
    with pytest.raises(InvalidInputError):
        SurfaceRing.from_rows(("A", "A"), [[1, 0], [0, 1]])
    with pytest.raises(InvalidInputError):
        SurfaceRing.from_rows(("A", "B"), [[1, 0]])
    with pytest.raises(InvalidInputError):
        SurfaceRing.from_rows(("A", "B"), [[0, 1], [2, 0]])


def test_divisor_constructors_agree():
    ring = two_generator_ring(1, 1)
    d1 = ring.divisor({"L": 2, "H": "1/3"})
    d2 = ring.divisor([2, Fraction(1, 3)])
    assert d1 == d2
    with pytest.raises(InvalidInputError):
        ring.divisor({"L": 1, "Z": 2})
    with pytest.raises(InvalidInputError):
        ring.divisor([1, 2, 3])


def test_basic_intersection_numbers():
    ring = two_generator_ring(1, 1)
    L = ring.basis_divisor("L")
    H = ring.basis_divisor("H")
    assert intersect(L, L) == 0
    assert intersect(L, H) == 1
    assert intersect(H, H) == 1
    d = L.scale(2) + H
    assert intersect(d, d) == 5


def test_pairing_bilinearity_random():
    rng = random.Random(20260821)
    for _ in range(200):
        k = rng.randint(1, 4)
        names = tuple(f"D{i}" for i in range(k))
        rows = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        ring = SurfaceRing.from_rows(names, rows)
        a = ring.divisor([Fraction(rng.randint(-5, 5)) for _ in range(k)])
        b = ring.divisor([Fraction(rng.randint(-5, 5)) for _ in range(k)])
        c = ring.divisor([Fraction(rng.randint(-5, 5)) for _ in range(k)])
        s = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a.scale(s) + b, c) == s * intersect(a, c) + intersect(b, c)


def test_class_arity_must_match_ring():
    ring = two_generator_ring(1, 1)
    other = SurfaceRing.from_rows(("A",), [[1]])
    with pytest.raises(InvalidInputError):
        intersect(other.basis_divisor("A"), ring.basis_divisor("L"))
    with pytest.raises(InvalidInputError):
        intersect(ring.basis_divisor("L"), other.basis_divisor("A"))


def test_a_class_of_another_ring_of_the_same_rank_is_rejected():
    r = SurfaceRing.from_rows(("A", "B"), [[0, 1], [1, 1]])
    o = SurfaceRing.from_rows(("A", "B"), [[5, 0], [0, -3]])
    oa, ob = o.basis_divisor("A"), o.basis_divisor("B")
    ra, rb = r.basis_divisor("A"), r.basis_divisor("B")
    with pytest.raises(InvalidInputError):
        intersect(ra, oa)
    with pytest.raises(InvalidInputError):
        nakai_check(rb, [ob])
    with pytest.raises(InvalidInputError):
        chern_of(Sum(Line(oa), Line(rb)))
    with pytest.raises(InvalidInputError):
        chern_of(Twist(Line(oa), rb))
    with pytest.raises(InvalidInputError):
        split_slopes([oa, ob], ra + rb)
    with pytest.raises(InvalidInputError):
        ra + ob
    # each class pairs in its own ring
    assert intersect(oa, oa) == 5 and intersect(ra, ra) == 0
    assert nakai_check(ob, []).self_intersection == -3
    assert nakai_check(rb, []).self_intersection == 1
    # a ring with the same basis and pairing is the same ring
    twin = SurfaceRing.from_rows(("A", "B"), [[5, 0], [0, -3]])
    assert intersect(oa + twin.basis_divisor("B"), oa) == 5
