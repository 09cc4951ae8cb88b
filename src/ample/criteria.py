"""Numerical ampleness criteria for bundles on surfaces.

Two checkers are provided.  The rank-2 one is the classical Schneider-Tancredi
test (c1^2 - 2c2 > 0 and c2 > 0); the higher-rank one replaces the factor 2
with the Lubke coefficient 2r(r-1)/(r^2-2r+2) and additionally requires
(c1^2 - c2).X > 0.  Both tests also depend on hypotheses that no finite
computation can decide from intersection data alone (positivity of c1,
ampleness on every curve, semistability with respect to the determinant);
those enter as caller-supplied assertions and the verdict vocabulary keeps
them visible instead of folding them into a boolean.  Every number these
tests compare (c1^2, c2, (c1^2 - c2).X, d^2, d.C) is computed from
intersection numbers of divisor classes (intersection.intersect).

All comparisons are strict and exact.  The boundary is genuinely unsafe: for
every rank r >= 3 there is a split bundle with equal slopes whose Lubke gap
vanishes identically and which fails to be ample, and build_counterexample
reconstructs that family together with exact checks of its defining
identities.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction

from .bundles import BundleExpr, ChernData, Line, Sum, chern_of, split_slopes
from .errors import InvalidInputError
from .intersection import CohClass, RatLike, SurfaceRing, as_rational, intersect

VERDICT_OK = "hypotheses-satisfied"
VERDICT_NUM_FAIL = "numerically-failed"
VERDICT_MISSING = "assertions-missing"


@dataclass(frozen=True)
class Assertions:
    """Caller-confirmed hypotheses that are not decidable from ring data.

    True means the caller asserts the hypothesis holds for their geometry;
    False means unknown.  There is no "asserted false" state: a hypothesis
    known to fail makes the criterion inapplicable, which is the same
    outcome as not asserting it.  These fields are the one list of
    hypotheses: missing(), the config parser and the report echo all read
    them in field order.
    """

    c1_positive: bool = False
    ample_on_curves: bool = False
    semistable: bool = False

    def all_asserted(self) -> bool:
        return not self.missing()

    def missing(self) -> tuple[str, ...]:
        """Names of the hypotheses not asserted, in field order."""
        return tuple(f.name for f in fields(self) if not getattr(self, f.name))


@dataclass(frozen=True)
class CriterionReport:
    rank: int
    c1_sq: Fraction
    c2: Fraction
    c1sq_minus_c2: Fraction
    lubke_coefficient: Fraction
    lubke_gap: Fraction
    st_gap: Fraction | None
    assertions: Assertions
    verdict: str


def lubke_coefficient(r: int) -> Fraction:
    """The coefficient 2r(r-1)/(r^2-2r+2); equals 2 exactly when r = 2."""
    if r < 2:
        raise InvalidInputError(f"rank must be at least 2, got {r}")
    return Fraction(2 * r * (r - 1), r * r - 2 * r + 2)


def _verdict(numerical_ok: bool, assertions: Assertions) -> str:
    if not numerical_ok:
        return VERDICT_NUM_FAIL
    if not assertions.all_asserted():
        return VERDICT_MISSING
    return VERDICT_OK


def _report(
    cd: ChernData, assertions: Assertions, coeff: Fraction, also_positive: Fraction
) -> CriterionReport:
    """The report whose numerical part passes iff c1^2 - coeff * c2 > 0 and also_positive > 0."""
    gap = cd.c1_sq_value - coeff * cd.c2_value
    return CriterionReport(
        rank=cd.rank,
        c1_sq=cd.c1_sq_value,
        c2=cd.c2_value,
        c1sq_minus_c2=cd.c1_sq_value - cd.c2_value,
        lubke_coefficient=coeff,
        lubke_gap=gap,
        st_gap=cd.c1_sq_value - 2 * cd.c2_value if cd.rank == 2 else None,
        assertions=assertions,
        verdict=_verdict(gap > 0 and also_positive > 0, assertions),
    )


def check_criterion(cd: ChernData, assertions: Assertions) -> CriterionReport:
    """Evaluate the higher-rank ampleness test on exact Chern data.

    The numerical part passes iff c1^2 - c2 > 0 and the Lubke gap
    c1^2 - 2r(r-1)/(r^2-2r+2) * c2 is strictly positive.  The verdict is
    hypotheses-satisfied only when the numerical part passes and every
    assertion is marked; a numerical failure takes precedence over missing
    assertions.
    """
    if cd.rank < 2:
        raise InvalidInputError(
            "criterion needs rank >= 2; for a line bundle use nakai_check"
        )
    return _report(cd, assertions, lubke_coefficient(cd.rank), cd.c1_sq_value - cd.c2_value)


def check_rank2_criterion(cd: ChernData, assertions: Assertions) -> CriterionReport:
    """Evaluate the Schneider-Tancredi rank-2 test: c1^2 - 2c2 > 0 and c2 > 0."""
    if cd.rank != 2:
        raise InvalidInputError(f"rank-2 criterion applied to rank {cd.rank}")
    return _report(cd, assertions, Fraction(2), cd.c2_value)


def epsilon_choice(cd: ChernData, omega_sq: RatLike) -> Fraction:
    """Error-budget parameter min(1, 2((r^2-2r+2)c1^2 - 2r(r-1)c2) / (r(r^2+1) w^2)).

    omega_sq is the integral of omega^2 over the surface and must be positive.
    The formula is implemented exactly as displayed, including its denominator;
    the value is only meaningful when the numerator combination is positive.
    """
    w2 = as_rational(omega_sq)
    if w2 <= 0:
        raise InvalidInputError(f"omega_sq must be positive, got {w2}")
    r = cd.rank
    numerator = (r * r - 2 * r + 2) * cd.c1_sq_value - 2 * r * (r - 1) * cd.c2_value
    return min(Fraction(1), Fraction(2) * numerator / (r * (r * r + 1) * w2))


@dataclass(frozen=True)
class NakaiReport:
    """Outcome of the finite-list positivity test d^2 > 0, d.C > 0.

    These are necessary conditions for ampleness of the class d checked over
    the supplied curve classes only; a pass is not an ampleness decision.
    """

    self_intersection: Fraction
    curve_degrees: tuple[Fraction, ...]
    passed: bool
    warnings: tuple[str, ...]
    note: str = "necessary conditions over the supplied curve list; not a full ampleness decision"


def nakai_check(
    d: CohClass, curves: list[CohClass], ring: SurfaceRing
) -> NakaiReport:
    """Check d^2 > 0 and d.C > 0 for each supplied curve class C.

    An empty curve list passes (vacuously) with a warning recorded, since
    the test then says nothing about curves at all.  A class whose number
    of coordinates differs from the ring's rank raises InvalidInputError.
    """
    d_sq = intersect(d, d, ring)
    degrees = tuple(intersect(d, c, ring) for c in curves)
    warnings: tuple[str, ...] = ()
    if not curves:
        warnings = ("empty curve list: only the self-intersection condition was tested",)
    passed = d_sq > 0 and all(x > 0 for x in degrees)
    return NakaiReport(d_sq, degrees, passed, warnings)


@dataclass(frozen=True)
class IdentityCheck:
    """One exact identity of the boundary family, expected vs. computed."""

    name: str
    expected: Fraction
    actual: Fraction

    @property
    def holds(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class Counterexample:
    ring: SurfaceRing
    bundle: BundleExpr
    chern: ChernData
    slopes: tuple[Fraction, ...]
    identities: tuple[IdentityCheck, ...]

    def all_hold(self) -> bool:
        return all(check.holds for check in self.identities)


def build_counterexample(r: int, a: RatLike) -> Counterexample:
    """Construct the split boundary bundle L + H + ... + H of rank r >= 3.

    The two-generator ring has pairing L^2 = 0, L.H = a, H^2 = b with
    b = (r-2)a/(r-1), which makes all summand slopes with respect to det(E)
    equal and puts the Lubke gap at exactly zero.  The returned identities
    record, in exact rationals, that c1^2 = r(r-1)a, that c2 matches the
    Whitney value (r-1)a + (r-1)(r-2)b/2, that the gap vanishes, and that
    the slope spread is zero.
    """
    if r < 3:
        raise InvalidInputError(f"boundary family needs rank >= 3, got {r}")
    a = as_rational(a)
    if a <= 0:
        raise InvalidInputError(f"parameter a must be positive, got {a}")
    b = (r - 2) * a / (r - 1)
    ring = SurfaceRing.from_rows(("L", "H"), [[0, a], [a, b]])
    ell = ring.basis_divisor("L")
    aitch = ring.basis_divisor("H")
    bundle = Sum(Line(ell), *(Line(aitch) for _ in range(r - 1)))
    cd = chern_of(bundle, ring)
    slopes = tuple(split_slopes([ell] + [aitch] * (r - 1), cd.c1, ring))
    gap = cd.c1_sq_value - lubke_coefficient(r) * cd.c2_value
    identities = (
        IdentityCheck("c1_sq", r * (r - 1) * a, cd.c1_sq_value),
        IdentityCheck(
            "c2", (r - 1) * a + Fraction((r - 1) * (r - 2), 2) * b, cd.c2_value
        ),
        IdentityCheck("lubke_gap", Fraction(0), gap),
        IdentityCheck("slope_spread", Fraction(0), max(slopes) - min(slopes)),
    )
    return Counterexample(ring, bundle, cd, slopes, identities)
