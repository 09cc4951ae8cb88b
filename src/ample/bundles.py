"""Chern-class calculus for bundle expressions built from line bundles.

Supported constructors: a line bundle with a given divisor class, finite
direct sums, twists by a line bundle, and duals.  The total Chern class is
tracked as (rank, c1, c2-on-X): on a surface the degree-4 group is one
dimensional, so c2 is stored as the exact rational obtained by evaluating
against the fundamental class.  Sums multiply total Chern classes truncated
at degree 4, a twist by M sends (c1, c2) to (c1 + r*M, c2 + (r-1)*c1.M +
r(r-1)/2 * M.M), and the dual negates c1 and fixes c2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError
from .intersection import CohClass, SurfaceRing, intersect


@dataclass(frozen=True)
class Line:
    divisor: CohClass


@dataclass(frozen=True)
class Sum:
    summands: tuple["BundleExpr", ...]

    def __init__(self, *summands):
        # accept Sum(a, b, c) as well as Sum([a, b, c])
        if len(summands) == 1 and isinstance(summands[0], (list, tuple)):
            summands = tuple(summands[0])
        object.__setattr__(self, "summands", tuple(summands))


@dataclass(frozen=True)
class Twist:
    bundle: "BundleExpr"
    divisor: CohClass


@dataclass(frozen=True)
class Dual:
    bundle: "BundleExpr"


BundleExpr = Line | Sum | Twist | Dual


@dataclass(frozen=True)
class ChernData:
    """Rank, first Chern class, and the two intersection numbers c2.X, c1^2.X."""

    rank: int
    c1: CohClass
    c2_value: Fraction
    c1_sq_value: Fraction


def _check_divisor(d: CohClass, ring: SurfaceRing, where: str) -> CohClass:
    if len(d.deg2) != ring.k:
        raise InvalidInputError(f"{where}: divisor class does not belong to this ring")
    if not d.is_pure_deg2():
        raise InvalidInputError(f"{where}: divisor class must be concentrated in degree 2")
    return d


def chern_of(expr: BundleExpr, ring: SurfaceRing) -> ChernData:
    """Chern data of a bundle expression over the given ring."""
    rank, c1, c2 = _chern(expr, ring)
    return ChernData(rank, c1, c2, intersect(c1, c1, ring))


def _chern(expr: BundleExpr, ring: SurfaceRing) -> tuple[int, CohClass, Fraction]:
    if isinstance(expr, Line):
        d = _check_divisor(expr.divisor, ring, "Line")
        return 1, d, Fraction(0)
    if isinstance(expr, Sum):
        if not expr.summands:
            raise InvalidInputError("Sum needs at least one summand")
        rank, c1, c2 = _chern(expr.summands[0], ring)
        for child in expr.summands[1:]:
            r2, d1, d2 = _chern(child, ring)
            # Whitney: c(A + B) = c(A) c(B), truncated at degree 4
            c2 = c2 + d2 + intersect(c1, d1, ring)
            c1 = c1 + d1
            rank += r2
        return rank, c1, c2
    if isinstance(expr, Twist):
        rank, c1, c2 = _chern(expr.bundle, ring)
        m = _check_divisor(expr.divisor, ring, "Twist")
        c2 = (
            c2
            + (rank - 1) * intersect(c1, m, ring)
            + Fraction(rank * (rank - 1), 2) * intersect(m, m, ring)
        )
        c1 = c1 + m.scale(rank)
        return rank, c1, c2
    if isinstance(expr, Dual):
        rank, c1, c2 = _chern(expr.bundle, ring)
        return rank, -c1, c2
    raise InvalidInputError(f"not a bundle expression: {type(expr).__name__}")


def rank_of(expr: BundleExpr) -> int:
    """Rank of a bundle expression, without touching any ring data."""
    if isinstance(expr, Line):
        return 1
    if isinstance(expr, Sum):
        if not expr.summands:
            raise InvalidInputError("Sum needs at least one summand")
        return sum(rank_of(child) for child in expr.summands)
    if isinstance(expr, (Twist, Dual)):
        return rank_of(expr.bundle)
    raise InvalidInputError(f"not a bundle expression: {type(expr).__name__}")


def split_slopes(
    summands: list[CohClass],
    polarization: CohClass,
    ring: SurfaceRing,
) -> list[Fraction]:
    """Intersection number of each summand class with the polarization class.

    For a direct sum of line bundles every summand is both a subsheaf and a
    quotient, so the sum is semistable with respect to the polarization
    exactly when all these numbers coincide.
    """
    _check_divisor(polarization, ring, "polarization")
    if polarization.is_zero():
        raise InvalidInputError("polarization must be nonzero")
    return [
        intersect(_check_divisor(d, ring, f"summand {i}"), polarization, ring)
        for i, d in enumerate(summands)
    ]


def is_semistable_split(
    summands: list[CohClass],
    polarization: CohClass,
    ring: SurfaceRing,
) -> bool:
    """True when all summand slopes with respect to the polarization agree."""
    slopes = split_slopes(summands, polarization, ring)
    return all(s == slopes[0] for s in slopes)
