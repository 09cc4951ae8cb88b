"""Exact rational divisor classes on a compact complex surface.

A :class:`SurfaceRing` is a finite divisor basis together with the symmetric
matrix of intersection numbers of the basis divisors, evaluated against the
fundamental class.  Its elements are :class:`CohClass` values, divisor
classes given by their coordinates in that basis, and :func:`intersect` is
their pairing: the intersection number of two divisors.  All arithmetic is
exact (``fractions.Fraction``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError

RatLike = Fraction | int | str


def as_rational(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" string to an exact Fraction.

    Floats are rejected on purpose: every quantity in this module is exact.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise InvalidInputError(f"expected an exact rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse rational from {x!r}: {exc}") from None
    raise InvalidInputError(f"expected an exact rational, got {type(x).__name__}")


@dataclass(frozen=True)
class CohClass:
    """Divisor class: its coordinates in the divisor basis of a surface ring."""

    deg2: tuple[Fraction, ...]

    def __add__(self, other: "CohClass") -> "CohClass":
        if len(self.deg2) != len(other.deg2):
            raise InvalidInputError("cannot add classes from rings of different rank")
        return CohClass(tuple(a + b for a, b in zip(self.deg2, other.deg2)))

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return self.scale(-1)

    def scale(self, c: RatLike) -> "CohClass":
        c = as_rational(c)
        return CohClass(tuple(c * x for x in self.deg2))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.deg2)


@dataclass(frozen=True)
class SurfaceRing:
    """Divisor basis plus the symmetric rational intersection matrix."""

    basis_names: tuple[str, ...]
    pairing: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.basis_names)
        if k == 0:
            raise InvalidInputError("ring needs at least one basis divisor")
        if any(not name for name in self.basis_names):
            raise InvalidInputError("basis names must be nonempty")
        if len(set(self.basis_names)) != k:
            raise InvalidInputError("basis names must be pairwise distinct")
        if len(self.pairing) != k or any(len(row) != k for row in self.pairing):
            raise InvalidInputError(f"pairing must be a {k}x{k} matrix")
        for i in range(k):
            for j in range(i):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise InvalidInputError(
                        f"pairing must be symmetric; entries ({i},{j}) and ({j},{i}) differ"
                    )

    @classmethod
    def from_rows(cls, basis_names, rows) -> "SurfaceRing":
        """Build from any nesting of int/str/Fraction entries."""
        return cls(
            tuple(basis_names),
            tuple(tuple(as_rational(x) for x in row) for row in rows),
        )

    @property
    def k(self) -> int:
        return len(self.basis_names)

    def zero(self) -> CohClass:
        return CohClass((Fraction(0),) * self.k)

    def divisor(self, coords: dict[str, RatLike] | list | tuple) -> CohClass:
        """Divisor class from coordinates, given as a vector or a name->value map."""
        if isinstance(coords, dict):
            unknown = set(coords) - set(self.basis_names)
            if unknown:
                raise InvalidInputError(f"unknown basis names: {sorted(unknown)}")
            vec = tuple(as_rational(coords.get(name, 0)) for name in self.basis_names)
        else:
            if len(coords) != self.k:
                raise InvalidInputError(
                    f"divisor vector has length {len(coords)}, ring has rank {self.k}"
                )
            vec = tuple(as_rational(x) for x in coords)
        return CohClass(vec)

    def basis_divisor(self, name: str) -> CohClass:
        return self.divisor({name: 1})


def intersect(a: CohClass, b: CohClass, ring: SurfaceRing) -> Fraction:
    """Intersection number of two divisor classes through the pairing matrix."""
    if len(a.deg2) != ring.k or len(b.deg2) != ring.k:
        raise InvalidInputError("class does not belong to this ring (wrong rank)")
    total = Fraction(0)
    for i, ai in enumerate(a.deg2):
        if ai == 0:
            continue
        row = ring.pairing[i]
        for j, bj in enumerate(b.deg2):
            if bj != 0:
                total += ai * row[j] * bj
    return total
