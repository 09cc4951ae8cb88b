import random
from fractions import Fraction

import pytest

from ample.errors import InvalidInputError
from ample.intersection import SurfaceRing, as_rational, intersect


def two_generator_ring(a, b):
    return SurfaceRing.from_rows(("L", "H"), [[0, a], [a, b]])


def test_as_rational_accepts_exact_forms():
    assert as_rational(3) == Fraction(3)
    assert as_rational(Fraction(-7, 2)) == Fraction(-7, 2)
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational("-12") == Fraction(-12)


@pytest.mark.parametrize("bad", [1.5, True, False, None, [1], "3/0", "x"])
def test_as_rational_rejects_inexact_and_malformed(bad):
    with pytest.raises((InvalidInputError, TypeError)):
        as_rational(bad)


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
    assert intersect(L, L, ring) == 0
    assert intersect(L, H, ring) == 1
    assert intersect(H, H, ring) == 1
    d = L.scale(2) + H
    assert intersect(d, d, ring) == 5


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
        assert intersect(a, b, ring) == intersect(b, a, ring)
        assert intersect(a.scale(s) + b, c, ring) == s * intersect(a, c, ring) + intersect(b, c, ring)


def test_class_arity_must_match_ring():
    ring = two_generator_ring(1, 1)
    other = SurfaceRing.from_rows(("A",), [[1]])
    with pytest.raises(InvalidInputError):
        intersect(other.basis_divisor("A"), ring.basis_divisor("L"), ring)
    with pytest.raises(InvalidInputError):
        intersect(ring.basis_divisor("L"), other.basis_divisor("A"), ring)
