"""Exact rational divisor classes on a compact complex surface.

A :class:`SurfaceRing` is a finite divisor basis together with the symmetric
matrix of intersection numbers of the basis divisors, evaluated against the
fundamental class.  Its elements are :class:`CohClass` values, divisor
classes given by their coordinates in that basis together with the ring
they belong to, and :func:`intersect` is their pairing: the intersection
number of two divisors of the same ring, read off that ring's pairing.  No
function takes a ring beside a class; each reads the ring from the class.
All arithmetic is exact (``fractions.Fraction``).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InvalidInputError

RatLike = Fraction | int | str


def as_rational(x: RatLike) -> Fraction:
    """Coerce an int, Fraction, or "p/q" or decimal string to an exact Fraction.

    Floats are rejected on purpose: every quantity in this module is exact.
    So is exponent notation, which Fraction expands before any digit limit
    applies: "1e999999999" would build a billion-digit integer.  An int or a
    string whose numerator or denominator has more digits than Python's
    int-to-str limit allows is rejected too, since no report could print it:
    a decimal string of 4300 digits either side of the point has an
    8600-digit numerator.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool) or isinstance(x, float):
        raise InvalidInputError(f"expected an exact rational, got {x!r}")
    if isinstance(x, int):
        # an integer of b bits has at most b // 3 + 1 digits
        return _printable(Fraction(x), x.bit_length() // 3 + 1)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise InvalidInputError(f"exponent notation is not accepted, got {_echo(x)}")
        try:
            value = Fraction(x.strip())
        except ValueError:
            raise InvalidInputError(f"cannot parse rational from {_echo(x)}") from None
        except ZeroDivisionError:
            raise InvalidInputError(f"zero denominator in {_echo(x)}") from None
        # neither the numerator nor the denominator has more digits than x
        return _printable(value, len(x))
    raise InvalidInputError(f"expected an exact rational, got {type(x).__name__}")


def _echo(x: str, limit: int = 40) -> str:
    """repr(x) for an error message, cut to a prefix and the length past limit characters."""
    if len(x) <= limit:
        return repr(x)
    return f"{x[:limit]!r}... ({len(x)} characters)"


# Python's int-to-str digit limit, 0 for none; Python 3.10 before 3.10.7 has none
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def _printable(q: Fraction, max_digits: int) -> Fraction:
    """q, unless its numerator or denominator has more digits than str() prints.

    max_digits bounds both digit counts from above, so that only a long
    input pays for the exact comparison.
    """
    limit = _max_str_digits()
    if limit and max_digits > limit and max(abs(q.numerator), q.denominator) >= 10**limit:
        raise InvalidInputError(
            f"a rational with more than {limit} digits in its numerator or denominator"
            " is not accepted"
        )
    return q


@dataclass(frozen=True)
class CohClass:
    """Divisor class: its coordinates in the divisor basis of a surface ring, and that ring.

    Classes are made by SurfaceRing.divisor and the ring's other
    constructors; a class of one ring never meets a class or the pairing of
    another, even one of the same rank.
    """

    deg2: tuple[Fraction, ...]
    ring: SurfaceRing = field(repr=False)

    def __add__(self, other: "CohClass") -> "CohClass":
        if not _same_ring(self.ring, other.ring):
            raise InvalidInputError("cannot add classes from different rings")
        return CohClass(tuple(a + b for a, b in zip(self.deg2, other.deg2)), self.ring)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return self.scale(-1)

    def scale(self, c: RatLike) -> "CohClass":
        c = as_rational(c)
        return CohClass(tuple(c * x for x in self.deg2), self.ring)

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
        return CohClass((Fraction(0),) * self.k, self)

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
        return CohClass(vec, self)

    def basis_divisor(self, name: str) -> CohClass:
        return self.divisor({name: 1})


def _same_ring(a: SurfaceRing, b: SurfaceRing) -> bool:
    # identity first: the classes of one config all come from its one ring,
    # so on the CLI's path this is O(1)
    return a is b or a == b


def intersect(a: CohClass, b: CohClass) -> Fraction:
    """Intersection number of two divisor classes of one ring, through its pairing matrix."""
    if not _same_ring(a.ring, b.ring):
        raise InvalidInputError("cannot intersect classes from different rings")
    total = Fraction(0)
    for i, ai in enumerate(a.deg2):
        if ai == 0:
            continue
        row = a.ring.pairing[i]
        for j, bj in enumerate(b.deg2):
            if bj != 0:
                total += ai * row[j] * bj
    return total
