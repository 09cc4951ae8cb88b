"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with the measured quantities and
its wall time, then asserts.  Tolerances and problem sizes are pinned
literals; loosening either is a behavior change, not a cleanup.
"""

import json
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ample.bundles import Line, Sum, chern_of, split_slopes
from ample.cli import run
from ample.config import config_from_mapping
from ample.criteria import build_counterexample, lubke_coefficient
from ample.curvature import (
    build_batch,
    c2_density_pairwise,
    chern_densities,
    pointwise_gap,
    projectively_flat,
    sample_curvature,
)
from ample.intersection import SurfaceRing, intersect
from ample.report import render
from ample.sweep import SweepConfig, run_gap_sweep, run_lagrange_check


def report_line(name, ok, detail):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_ac1_boundary_identity_exact():
    t0 = time.perf_counter()
    cases = 0
    ok = True
    for r in range(3, 11):
        for a in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(7, 3)):
            ce = build_counterexample(r, a)
            ok &= ce.chern.c1_sq_value == r * (r - 1) * a
            gap = ce.chern.c1_sq_value - lubke_coefficient(r) * ce.chern.c2_value
            ok &= gap == 0
            ok &= ce.all_hold()
            cases += 1
    dt = time.perf_counter() - t0
    report_line(
        "AC-1", ok and dt < 1.0,
        f"c1^2 = r(r-1)a and zero gap exact in {cases} cases, {dt:.3f}s",
    )


def test_ac2_semistability_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    deltas = (Fraction(1), Fraction(-1), Fraction(1, 7), Fraction(-3, 5), Fraction(10**6))
    for r in range(3, 9):
        for a in (Fraction(1), Fraction(2), Fraction(7, 3)):
            ce = build_counterexample(r, a)
            ok &= max(ce.slopes) == min(ce.slopes)
            b = Fraction((r - 2) * a, r - 1)
            for delta in deltas:
                ring = SurfaceRing.from_rows(("L", "H"), [[0, a], [a, b + delta]])
                ell = ring.basis_divisor("L")
                aitch = ring.basis_divisor("H")
                summands = [ell] + [aitch] * (r - 1)
                cd = chern_of(Sum(Line(ell), *(Line(aitch) for _ in range(r - 1))))
                slopes = split_slopes(summands, cd.c1)
                ok &= max(slopes) != min(slopes)
                checked += 1
    dt = time.perf_counter() - t0
    report_line(
        "AC-2", ok and dt < 1.0,
        f"equal slopes at b=(r-2)a/(r-1), broken by {len(deltas)} perturbations "
        f"x {checked // len(deltas)} families, {dt:.3f}s",
    )


def test_ac3_rank2_coefficient_collapse():
    t0 = time.perf_counter()
    ok = lubke_coefficient(2) == Fraction(2)
    # at rank 2 the general gap c1^2 - coeff * c2 is literally c1^2 - 2 c2
    rng = random.Random(3)
    for _ in range(100):
        c1_sq = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        c2 = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
        ok &= c1_sq - lubke_coefficient(2) * c2 == c1_sq - 2 * c2
    dt = time.perf_counter() - t0
    report_line("AC-3", ok and dt < 1.0, f"coefficient(2) = 2 exactly, {dt:.3f}s")


@pytest.mark.slow
def test_ac4_pointwise_inequality_monte_carlo():
    t0 = time.perf_counter()
    cfg = SweepConfig(
        ranks=(2, 3, 4, 5, 6),
        epsilons=(0.0, 0.01, 0.1),
        samples=10**5,
        seed=0,
        restarts=5,
        random_vectors=10,
        iterations=60,
        tol=1e-6,
        batch_size=4096,
        threads=1,
    )
    res = run_gap_sweep(cfg)
    dt = time.perf_counter() - t0
    ok = res.min_value >= -1e-9 and len(res.results) == 15 and res.passed and dt < 600.0
    report_line(
        "AC-4", ok,
        f"min gap {res.min_value:.6g} >= -1e-9 over 15 configs x 100000 samples, "
        f"each bounded and screened at its extremal and best basis vector, "
        f"the searched ones also at 10 random vectors + 5 restarts, {dt:.0f}s",
    )


def test_ac5_equality_case():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for r in range(2, 9):
        pc = projectively_flat(r)
        z = rng.standard_normal((1000, 2 * r))
        for row in z:
            v = row[:r] + 1j * row[r:]
            worst = max(worst, abs(pointwise_gap(pc, v).gap))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 10.0
    report_line(
        "AC-5", ok,
        f"projectively flat |gap| <= {worst:.3g} over 1000 vectors x r in 2..8, {dt:.1f}s",
    )


def test_ac6_lagrange_cross_check():
    t0 = time.perf_counter()
    res = run_lagrange_check(1000, 6)
    dt = time.perf_counter() - t0
    ok = res.max_abs_diff <= 1e-6 and res.passed and dt < 60.0
    report_line(
        "AC-6", ok,
        f"closed form vs projected ascent within {res.max_abs_diff:.3g} "
        f"on 1000 instances, {dt:.1f}s",
    )


def test_ac7_c2_formula_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    epsilons = (0.0, 0.01, 0.1)
    count = 0
    for r in range(2, 7):
        for i in range(2000):
            pc = sample_curvature(r, epsilons[i % 3], (7, r, i))
            _, c2 = chern_densities(pc)
            worst = max(worst, abs(c2_density_pairwise(pc) - c2))
            count += 1
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 30.0
    report_line(
        "AC-7", ok,
        f"trace form vs pair form within {worst:.3g} on {count} curvatures, {dt:.1f}s",
    )


def test_ac8_whitney_splitting_oracle():
    t0 = time.perf_counter()
    rng = random.Random(8)
    ok = True
    for _ in range(1000):
        dim = rng.randint(1, 2)
        names = tuple("DE"[:dim])
        rows = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        ring = SurfaceRing.from_rows(names, rows)
        k = rng.randint(1, 6)
        divisors = [
            ring.divisor([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in names])
            for _ in range(k)
        ]
        cd = chern_of(Sum(*(Line(d) for d in divisors)))
        e1 = divisors[0]
        for d in divisors[1:]:
            e1 = e1 + d
        e2 = sum(
            (intersect(divisors[i], divisors[j]) for i in range(k) for j in range(i + 1, k)),
            Fraction(0),
        )
        ok &= cd.c1.deg2 == e1.deg2
        ok &= cd.c1_sq_value == intersect(e1, e1)
        ok &= cd.c2_value == e2
    dt = time.perf_counter() - t0
    report_line(
        "AC-8", ok and dt < 10.0,
        f"chern_of equals elementary symmetric brute force exactly on 1000 sums, {dt:.1f}s",
    )


def test_ac9_sampler_constraint_residuals():
    t0 = time.perf_counter()
    worst = 0.0
    total = 0
    per_config = 6667
    for r in range(2, 7):
        m = 4 * r * r - 3
        for epsilon in (0.0, 0.01, 0.1):
            uniforms = np.empty((per_config, m))
            for i in range(per_config):
                g = np.random.Generator(np.random.PCG64(np.random.SeedSequence((9, r, i))))
                uniforms[i] = g.random(m)
            coeff, B = build_batch(r, epsilon, uniforms)
            # residuals recomputed from the definitions, not via the library
            herm = np.abs(coeff - np.conj(np.transpose(coeff, (0, 2, 1, 4, 3)))).max()
            trace = np.abs(np.einsum("niiab->nab", coeff) - np.eye(2)).max()
            he = np.abs(
                coeff[..., 0, 0] + coeff[..., 1, 1] - (2.0 / r) * np.eye(r) - B
            ).max()
            b_trace = np.abs(np.einsum("nii->n", B)).max()
            b_bound = max(0.0, float(np.abs(B).max()) - epsilon)
            worst = max(worst, float(herm), float(trace), float(he), float(b_trace), b_bound)
            total += per_config
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and total >= 10**5 and dt < 60.0
    report_line(
        "AC-9", ok,
        f"max constraint residual {worst:.3g} over {total} samples, {dt:.1f}s",
    )


def test_ac10_byte_identical_reports():
    t0 = time.perf_counter()
    sweep_doc = {
        "command": "verify-lemma",
        "sweep": {
            "ranks": [2, 3],
            "epsilons": [0, 0.1],
            "samples": 1500,
            "seed": 17,
            "restarts": 3,
            "random_vectors": 5,
            "iterations": 40,
        },
    }

    def render_with(threads, batch_size=4096):
        sweep = {**sweep_doc["sweep"], "threads": threads, "batch_size": batch_size}
        code, report = run(config_from_mapping({**sweep_doc, "sweep": sweep}))
        return code, render(report)

    def bounds(text):
        # the certificate fields, as the bytes of their rendered values
        configs = json.loads(text)["results"]["configs"]
        return [(c["certified"], repr(c["min_bound"])) for c in configs]

    code1, text1 = render_with(1)
    code2, text2 = render_with(1)
    code4, text4 = render_with(4)
    code7, text7 = render_with(2, batch_size=7)
    ce_doc = {"command": "counterexample", "r": 5, "a": "7/3"}
    _, ce1 = run(config_from_mapping(ce_doc))
    _, ce2 = run(config_from_mapping(ce_doc))
    dt = time.perf_counter() - t0
    ok = (
        code1 == code2 == code4 == code7 == 0
        and text1 == text2
        and text1 == text4
        and text1 == text7
        and bounds(text1) == bounds(text2) == bounds(text4) == bounds(text7)
        and render(ce1) == render(ce2)
        and dt < 60.0
    )
    report_line(
        "AC-10", ok,
        f"byte-identical across reruns, 1 vs 4 threads and batches of 7 "
        f"({len(text1)} byte sweep report, certified {[c for c, _ in bounds(text1)]}), {dt:.1f}s",
    )
