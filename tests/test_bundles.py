import random
from fractions import Fraction

import pytest

from ample.bundles import (
    ChernData,
    Dual,
    Line,
    Sum,
    Twist,
    chern_of,
    is_semistable_split,
    rank_of,
    split_slopes,
)
from ample.errors import InvalidInputError
from ample.intersection import SurfaceRing, intersect


def two_generator_ring(a, b):
    return SurfaceRing.from_rows(("L", "H"), [[0, a], [a, b]])


def random_ring(rng, k):
    names = tuple(f"D{i}" for i in range(k))
    rows = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return SurfaceRing.from_rows(names, rows)


def random_divisor(rng, ring):
    return ring.divisor([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ring.k)])


def test_line_bundle_chern():
    ring = two_generator_ring(2, 1)
    L = ring.basis_divisor("L")
    cd = chern_of(Line(L), ring)
    assert cd.rank == 1
    assert cd.c1 == L
    assert cd.c2_value == 0
    assert cd.c1_sq_value == 0


def test_split_rank3_sum_matches_closed_form():
    # pairing L.L = 0, L.H = a, H.H = b; c2(L + H + H) = 2a + b
    a, b = Fraction(2), Fraction(1)
    ring = two_generator_ring(a, b)
    L = ring.basis_divisor("L")
    H = ring.basis_divisor("H")
    cd = chern_of(Sum(Line(L), Line(H), Line(H)), ring)
    assert cd.rank == 3
    assert cd.c1 == L + H.scale(2)
    assert cd.c2_value == 2 * a + b
    assert cd.c1_sq_value == intersect(cd.c1, cd.c1, ring)


def test_twist_of_trivial_sum_equals_direct_sum_of_twists():
    ring = two_generator_ring(3, -1)
    M = ring.divisor({"L": 1, "H": 2})
    zero = ring.zero()
    twisted = chern_of(Twist(Sum(Line(zero), Line(zero)), M), ring)
    direct = chern_of(Sum(Line(M), Line(M)), ring)
    assert twisted == direct
    assert twisted.c1 == M.scale(2)
    assert twisted.c2_value == intersect(M, M, ring)


def test_dual_negates_c1_and_fixes_c2():
    ring = two_generator_ring(2, 5)
    E = Sum(Line(ring.basis_divisor("L")), Line(ring.basis_divisor("H")))
    cd = chern_of(E, ring)
    dual = chern_of(Dual(E), ring)
    assert dual.rank == cd.rank
    assert dual.c1 == -cd.c1
    assert dual.c2_value == cd.c2_value
    assert chern_of(Dual(Dual(E)), ring) == cd


def test_empty_sum_rejected():
    ring = two_generator_ring(1, 1)
    with pytest.raises(InvalidInputError):
        chern_of(Sum(), ring)
    with pytest.raises(InvalidInputError):
        rank_of(Sum())


def test_sum_takes_its_summands_as_arguments():
    ring = two_generator_ring(1, 1)
    L = Line(ring.basis_divisor("L"))
    assert chern_of(Sum(L, L), ring).rank == 2
    with pytest.raises(InvalidInputError):
        chern_of(Sum([L, L]), ring)


def test_divisor_from_wrong_ring_rejected():
    ring = two_generator_ring(1, 1)
    other = SurfaceRing.from_rows(("A",), [[2]])
    with pytest.raises(InvalidInputError):
        chern_of(Line(other.basis_divisor("A")), ring)
    with pytest.raises(InvalidInputError):
        chern_of(Twist(Line(ring.basis_divisor("L")), other.basis_divisor("A")), ring)


def test_rank_bookkeeping():
    ring = two_generator_ring(1, 1)
    L = Line(ring.basis_divisor("L"))
    E = Sum(L, Sum(L, L), Twist(Dual(Sum(L, L)), ring.basis_divisor("H")))
    assert rank_of(E) == 5
    assert chern_of(E, ring).rank == 5


def test_whitney_associativity_random():
    rng = random.Random(411)
    for _ in range(60):
        ring = random_ring(rng, rng.randint(1, 3))
        A, B, C = (Line(random_divisor(rng, ring)) for _ in range(3))
        nested = chern_of(Sum(A, Sum(B, C)), ring)
        flat = chern_of(Sum(A, B, C), ring)
        assert nested == flat


def test_twist_composition_random():
    rng = random.Random(412)
    for _ in range(60):
        ring = random_ring(rng, 2)
        E = Sum(*(Line(random_divisor(rng, ring)) for _ in range(rng.randint(1, 4))))
        M = random_divisor(rng, ring)
        N = random_divisor(rng, ring)
        twice = chern_of(Twist(Twist(E, M), N), ring)
        once = chern_of(Twist(E, M + N), ring)
        assert twice == once


def test_splitting_principle_elementary_symmetric_oracle():
    rng = random.Random(413)
    for _ in range(100):
        ring = random_ring(rng, rng.randint(1, 3))
        divisors = [random_divisor(rng, ring) for _ in range(rng.randint(1, 6))]
        cd = chern_of(Sum(*(Line(d) for d in divisors)), ring)
        e2 = sum(
            (intersect(divisors[i], divisors[j], ring)
             for i in range(len(divisors))
             for j in range(i + 1, len(divisors))),
            Fraction(0),
        )
        assert cd.c2_value == e2
        assert cd.c1 == sum(divisors[1:], divisors[0])


def constructor_rules(expr, ring):
    """(rank, c1, c2) of expr by the rules of each constructor.

    Sum multiplies total Chern classes (Whitney), a twist by M sends
    (c1, c2) to (c1 + rM, c2 + (r-1) c1.M + r(r-1)/2 M.M), and the dual
    negates c1 and keeps c2.
    """
    if isinstance(expr, Line):
        return 1, expr.divisor, Fraction(0)
    if isinstance(expr, Sum):
        rank, c1, c2 = constructor_rules(expr.summands[0], ring)
        for child in expr.summands[1:]:
            r2, d1, d2 = constructor_rules(child, ring)
            rank, c1, c2 = rank + r2, c1 + d1, c2 + d2 + intersect(c1, d1, ring)
        return rank, c1, c2
    rank, c1, c2 = constructor_rules(expr.bundle, ring)
    if isinstance(expr, Dual):
        return rank, -c1, c2
    M = expr.divisor
    c2 += (rank - 1) * intersect(c1, M, ring) + Fraction(rank * (rank - 1), 2) * intersect(M, M, ring)
    return rank, c1 + M.scale(rank), c2


def random_expr(rng, ring, depth):
    if depth == 0:
        return Line(random_divisor(rng, ring))
    kind = rng.choice(("sum", "twist", "dual"))
    if kind == "sum":
        return Sum(*(random_expr(rng, ring, depth - 1) for _ in range(rng.randint(1, 3))))
    inner = random_expr(rng, ring, depth - 1)
    return Twist(inner, random_divisor(rng, ring)) if kind == "twist" else Dual(inner)


def test_splitting_matches_the_constructor_rules_on_nested_expressions():
    rng = random.Random(414)
    for _ in range(80):
        ring = random_ring(rng, rng.randint(1, 3))
        expr = random_expr(rng, ring, rng.randint(3, 4))
        rank, c1, c2 = constructor_rules(expr, ring)
        assert rank_of(expr) == rank
        assert chern_of(expr, ring) == ChernData(rank, c1, c2, intersect(c1, c1, ring))


def test_split_slopes_examples():
    # the (r-2)a = (r-1)b balance makes all three slopes agree
    ring = two_generator_ring(2, 1)
    L = ring.basis_divisor("L")
    H = ring.basis_divisor("H")
    det = L + H.scale(2)
    assert split_slopes([L, H, H], det, ring) == [4, 4, 4]
    assert is_semistable_split([L, H, H], det, ring)

    ring2 = two_generator_ring(1, 1)
    L2 = ring2.basis_divisor("L")
    H2 = ring2.basis_divisor("H")
    det2 = L2 + H2.scale(2)
    assert split_slopes([L2, H2, H2], det2, ring2) == [2, 3, 3]
    assert not is_semistable_split([L2, H2, H2], det2, ring2)


def test_single_summand_always_semistable():
    ring = two_generator_ring(1, 1)
    assert is_semistable_split([ring.basis_divisor("L")], ring.basis_divisor("H"), ring)


def test_zero_polarization_rejected():
    ring = two_generator_ring(1, 1)
    with pytest.raises(InvalidInputError):
        split_slopes([ring.basis_divisor("L")], ring.zero(), ring)
