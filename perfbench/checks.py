"""Output checks: every report the benchmark receives is checked here.

A check returns a list of error strings; an empty list means the report is
correct.  Checks work on the rendered report text, the bytes a user of the
CLI would see, so a rendering fault counts the same as a numeric one.
"""

from __future__ import annotations

import json
from fractions import Fraction

RESIDUAL_TOL = 1e-9  # the program's VALIDATION_TOL
PASS_VERDICTS = ("pass", "hypotheses-satisfied")


class ReportChecker:
    """Validates reports against the schema and the workload's expectations."""

    def __init__(self, schema: dict):
        import jsonschema

        self._validator = jsonschema.Draft7Validator(schema)

    def check(self, kind: str, doc: dict, expect: dict, code: int, text: str) -> list[str]:
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"report is not JSON: {exc}"]
        errors = [f"schema: {e.message}" for e in self._validator.iter_errors(report)]
        if errors:
            return errors
        if report["command"] != doc["command"]:
            errors.append(f"command {report['command']!r} != {doc['command']!r}")
        want_code = 0 if report["verdict"] in PASS_VERDICTS else 1
        if code != want_code:
            errors.append(f"exit code {code} for verdict {report['verdict']!r}")
        try:
            if kind == "sweep":
                errors += check_sweep(doc, expect, report)
            else:
                errors += check_exact(doc, expect, report)
        except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            errors.append(f"malformed results: {type(exc).__name__}: {exc}")
        return errors


def converged_samples(report: dict) -> int:
    """Samples whose every restart converged, summed over the configs."""
    return sum(
        round(c["converged_fraction"] * c["samples"]) for c in report["results"]["configs"]
    )


def check_sweep(doc: dict, expect: dict, report: dict) -> list[str]:
    errors = []
    sweep = doc["sweep"]
    results = report["results"]
    if report["verdict"] != expect["verdict"]:
        errors.append(f"verdict {report['verdict']!r}, expected {expect['verdict']!r}")
    if report["inputs"]["sweep"]["seed"] != sweep["seed"]:
        errors.append("report echoes a different seed")
    if not results["residual_max"] <= RESIDUAL_TOL:
        errors.append(f"residual_max {results['residual_max']!r} > {RESIDUAL_TOL}")
    configs = results["configs"]
    if len(configs) != expect["configs"]:
        errors.append(f"{len(configs)} configs, expected {expect['configs']}")
    for c in configs:
        where = f"rank {c['rank']} eps {c['epsilon']}"
        if c["samples"] != sweep["samples"]:
            errors.append(f"{where}: {c['samples']} samples, expected {sweep['samples']}")
        # b_bound is informational in the program (not a constraint residual)
        bad = {k: v for k, v in c["residual_max"].items() if k != "b_bound" and not v <= RESIDUAL_TOL}
        if bad:
            errors.append(f"{where}: residuals above {RESIDUAL_TOL}: {bad}")
        if not 0 <= c["converged_fraction"] <= 1:
            errors.append(f"{where}: converged_fraction {c['converged_fraction']!r}")
    return errors


# ---------------------------------------------------------------- exact layer


def _pair(pairing, u, w) -> Fraction:
    return sum(
        (u[i] * pairing[i][j] * w[j] for i in range(len(u)) for j in range(len(w))),
        Fraction(0),
    )


def _split_chern(pairing, lines) -> tuple[int, tuple, Fraction, Fraction]:
    """(rank, c1, c1^2, c2) of a direct sum of line bundles, from Whitney."""
    r = len(lines)
    c1 = tuple(sum(coord, Fraction(0)) for coord in zip(*lines))
    c2 = sum(
        (_pair(pairing, lines[i], lines[j]) for i in range(r) for j in range(i + 1, r)),
        Fraction(0),
    )
    return r, c1, _pair(pairing, c1, c1), c2


def _verdict(numerical_ok: bool, assertions: dict) -> str:
    if not numerical_ok:
        return "numerically-failed"
    if not all(assertions.values()):
        return "assertions-missing"
    return "hypotheses-satisfied"


def _compare(errors: list[str], results: dict, expected: dict) -> None:
    for key, want in expected.items():
        got = results.get(key)
        if isinstance(want, Fraction):
            got = Fraction(got) if isinstance(got, str) else got
        if got != want:
            errors.append(f"{key}: report has {results.get(key)!r}, closed form gives {want}")


def check_exact(doc: dict, expect: dict, report: dict) -> list[str]:
    errors: list[str] = []
    command = doc["command"]
    results = report["results"]
    if report["verdict"] == "error":
        return [f"command failed: {results['error']}"]

    if command == "counterexample":
        r, a = expect["r"], expect["a"]
        if report["verdict"] != "pass":
            errors.append(f"verdict {report['verdict']!r}")
        for identity in results["identities"]:
            if not identity["holds"] or Fraction(identity["expected"]) != Fraction(identity["actual"]):
                errors.append(f"identity {identity['name']} does not hold")
        _compare(errors, results, {"rank": r, "c1_sq": r * (r - 1) * a})
        return errors

    pairing = expect["pairing"]
    if command == "nakai":
        d = expect["divisor"]
        d_sq = _pair(pairing, d, d)
        degrees = [_pair(pairing, d, c) for c in expect["curves"]]
        if [Fraction(x) for x in results["curve_degrees"]] != degrees:
            errors.append("curve_degrees differ from the closed form")
        _compare(errors, results, {"self_intersection": d_sq})
        passed = d_sq > 0 and all(x > 0 for x in degrees)
        if report["verdict"] != ("pass" if passed else "fail"):
            errors.append(f"verdict {report['verdict']!r}")
        return errors

    r, c1, c1_sq, c2 = _split_chern(pairing, expect["lines"])
    if command == "epsilon":
        w2 = expect["omega_sq"]
        numerator = (r * r - 2 * r + 2) * c1_sq - 2 * r * (r - 1) * c2
        value = min(Fraction(1), 2 * numerator / (r * (r * r + 1) * w2))
        _compare(errors, results, {"rank": r, "c1_sq": c1_sq, "c2": c2, "epsilon": value})
        if (value <= 0) != bool(report["warnings"]):
            errors.append("nonpositive-epsilon warning does not match the value")
        return errors

    if command == "st-check":
        coeff = Fraction(2)
        gap = c1_sq - 2 * c2
        numerical_ok = gap > 0 and c2 > 0
    else:
        coeff = Fraction(2 * r * (r - 1), r * r - 2 * r + 2)
        gap = c1_sq - coeff * c2
        numerical_ok = c1_sq - c2 > 0 and gap > 0
    expected = {
        "rank": r,
        "c1_sq": c1_sq,
        "c2": c2,
        "c1sq_minus_c2": c1_sq - c2,
        "lubke_coefficient": coeff,
        "lubke_gap": gap,
        "st_gap": c1_sq - 2 * c2 if r == 2 else None,
    }
    _compare(errors, results, expected)
    names = doc["ring"]["basis"]
    if {n: Fraction(v) for n, v in results["c1"].items()} != dict(zip(names, c1)):
        errors.append("c1 differs from the closed form")
    verdict = _verdict(numerical_ok, expect["assertions"])
    if report["verdict"] != verdict:
        errors.append(f"verdict {report['verdict']!r}, closed form gives {verdict!r}")
    return errors
