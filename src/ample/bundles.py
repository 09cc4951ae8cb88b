"""Chern-class calculus for bundle expressions built from line bundles.

Supported constructors: a line bundle with a given divisor class, finite
direct sums, twists by a line bundle, and duals.  Each of them keeps a sum
of line bundles split, so every expression is a direct sum of line bundles
with classes d_1, ..., d_r: a sum concatenates the lines of its summands, a
twist by M adds M to each line, and the dual negates each line.  The Chern
data are read off that splitting: rank r, c1 = sum of the d_i, and c2 the
second elementary symmetric function of the d_i, evaluated on X as
(c1^2 - sum of d_i^2)/2.  Every product here is the intersection number of
two divisor classes, so c2 and c1^2 are stored as exact rationals.
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
        object.__setattr__(self, "summands", summands)


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


def _lines(expr: BundleExpr) -> list[CohClass]:
    """Classes of the line bundles that expr splits into, in summand order."""
    if isinstance(expr, Line):
        return [expr.divisor]
    if isinstance(expr, Sum):
        if not expr.summands:
            raise InvalidInputError("Sum needs at least one summand")
        return [d for child in expr.summands for d in _lines(child)]
    if isinstance(expr, Twist):
        return [d + expr.divisor for d in _lines(expr.bundle)]
    if isinstance(expr, Dual):
        return [-d for d in _lines(expr.bundle)]
    raise InvalidInputError(f"not a bundle expression: {type(expr).__name__}")


def chern_of(expr: BundleExpr, ring: SurfaceRing) -> ChernData:
    """Chern data of a bundle expression over the given ring, from the lines it splits into."""
    lines = _lines(expr)
    c1 = sum(lines[1:], lines[0])
    c1_sq = intersect(c1, c1, ring)
    c2 = (c1_sq - sum(intersect(d, d, ring) for d in lines)) / 2
    return ChernData(len(lines), c1, c2, c1_sq)


def rank_of(expr: BundleExpr) -> int:
    """Rank of a bundle expression, without touching any ring data."""
    return len(_lines(expr))


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
    if polarization.is_zero():
        raise InvalidInputError("polarization must be nonzero")
    return [intersect(d, polarization, ring) for d in summands]


def is_semistable_split(
    summands: list[CohClass],
    polarization: CohClass,
    ring: SurfaceRing,
) -> bool:
    """True when all summand slopes with respect to the polarization agree."""
    slopes = split_slopes(summands, polarization, ring)
    return all(s == slopes[0] for s in slopes)
