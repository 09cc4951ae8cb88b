"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    out = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


def result_of(out) -> tuple[dict, dict]:
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


@pytest.fixture(scope="module")
def runs():
    """Tiny untraced and traced runs of every workload, shared by the tests below."""
    return {(w, t): result_of(run_bench(w, t)) for w in NAMES for t in (0, 1)}


@pytest.mark.parametrize("workload", NAMES)
def test_workload_runs_and_passes_its_checks(runs, workload):
    for trace in (0, 1):
        result, info = runs[workload, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, info["failures"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert info["failed_share"] == 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_reports_match_untraced(runs, workload):
    (_, plain), (_, traced) = runs[workload, 0], runs[workload, 1]
    # within the traced run, every traced report equals its untraced twin or
    # the run is not correct; across the two runs, the digests agree
    assert runs[workload, 1][0]["correct"]
    assert traced["report_sha256"] == plain["report_sha256"]
    assert traced["missing_targets"] == []


@pytest.mark.parametrize("workload", NAMES)
def test_printed_metrics_are_declared(runs, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        metrics = runs[workload, trace][0]["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in metrics.values())
    assert all(v["value"] > 0 for v in runs[workload, 0][0]["metrics"].values())


def test_sweep_layers_are_traced(runs):
    metrics = {k: v["value"] for k, v in runs["lemma-ac4", 1][0]["metrics"].items()}
    for name in ("spheremin.descent_s", "spheremin.objective_s", "spheremin.polish_s",
                 "spheremin.starts_s", "curvature.build_batch_s", "sweep.self_s"):
        assert metrics[name] > 0, name
    assert 0 < metrics["spheremin.descent_self_s"] < metrics["spheremin.descent_s"]
    assert metrics["spheremin.objective_rows"] >= metrics["spheremin.objective_calls"] > 0


def test_exact_layers_are_traced(runs):
    metrics = {k: v["value"] for k, v in runs["exact-cli", 1][0]["metrics"].items()}
    for name in ("config.parse_us", "cli.run_self_us", "bundles.chern_of_us",
                 "criteria.check_us", "criteria.nakai_us", "criteria.counterexample_us",
                 "criteria.epsilon_us", "report.render_us"):
        assert metrics[name] > 0, name
    assert metrics["spheremin.descent_s"] == 0


def test_workloads_are_pure_functions_of_the_seed():
    for name in NAMES:
        a, b = workloads.build(name, 5, "tiny"), workloads.build(name, 5, "tiny")
        assert [c.doc for c in a.cycle] == [c.doc for c in b.cycle]
        assert [c.doc for c in a.cycle] != [c.doc for c in workloads.build(name, 6, "tiny").cycle]


# ------------------------------------------------------------ checks can fail


def _first_report(workload: str, index: int = 0):
    from ample import cli, config, report

    wl = workloads.build(workload, 3, "tiny")
    cmd = wl.cycle[index]
    code, rep = cli.run(config.config_from_mapping(cmd.doc))
    return wl, cmd, code, rep, report.render


@pytest.fixture(scope="module")
def checker():
    return checks.ReportChecker(json.loads((ROOT / "src/ample/report.schema.json").read_text()))


def test_residual_above_tolerance_is_a_failure(checker):
    wl, cmd, code, rep, render = _first_report("lemma-ac4")
    assert checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep)) == []
    rep["results"]["configs"][1]["residual_max"]["trace"] = 1e-6
    errors = checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep))
    assert any("residuals above" in e for e in errors)
    rep["results"]["residual_max"] = 1e-6
    assert any("residual_max" in e for e in checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep)))


def test_wrong_verdict_and_schema_violation_are_failures(checker):
    wl, cmd, code, rep, render = _first_report("griffiths-lowrank-2t")
    assert checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep)) == []
    rep["verdict"] = "pass"
    assert checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep))
    rep["verdict"] = "maybe"
    assert any(e.startswith("schema") for e in checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep)))


def test_wrong_exact_value_is_a_failure(checker):
    wl = workloads.build("exact-cli", 3, "tiny")
    index = next(i for i, c in enumerate(wl.cycle) if c.doc["command"] == "check")
    _, cmd, code, rep, render = _first_report("exact-cli", index)
    assert checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep)) == []
    from fractions import Fraction

    rep["results"]["c2"] += Fraction(1, 7)
    errors = checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep))
    assert any(e.startswith("c2") for e in errors)


def test_failed_counterexample_identity_is_a_failure(checker):
    wl = workloads.build("exact-cli", 3, "tiny")
    index = next(i for i, c in enumerate(wl.cycle) if c.doc["command"] == "counterexample")
    _, cmd, code, rep, render = _first_report("exact-cli", index)
    assert checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep)) == []
    rep["results"]["identities"][2]["holds"] = False
    assert checker.check(wl.kind, cmd.doc, cmd.expect, code, render(rep))


def test_corrupted_report_is_counted_in_failed(checker):
    import run

    wl = workloads.build("lemma-ac4", 3, "tiny")
    bench = run.Bench(wl, checker)
    p = bench.loop(0, len(wl.cycle))
    assert bench.check_reports([p]) > 0 and not bench.failures
    code, text = bench.texts[0]
    rep = json.loads(text)
    rep["results"]["residual_max"] = 1e-6
    bench.texts[0] = (code, json.dumps(rep))
    bench.check_reports([p])
    assert sum(bench.failures.values()) >= 1


def test_command_that_raises_is_a_failed_op(checker):
    import run

    class Broken:
        @staticmethod
        def run(cfg):
            raise RuntimeError("boom")

    wl = workloads.build("exact-cli", 3, "tiny")
    bench = run.Bench(wl, checker)
    bench.cli = Broken
    p = bench.loop(0, len(wl.cycle))
    assert p.ops == len(wl.cycle) == sum(bench.failures.values())
    assert p.samples_per_s() == 0.0


# ---------------------------------------------------------------- tracing


def test_tracer_restores_the_program():
    import ample.sweep

    before = ample.sweep.minimize_on_sphere
    with tracing.Tracer() as tracer:
        assert ample.sweep.minimize_on_sphere is not before
    assert ample.sweep.minimize_on_sphere is before
    assert tracer.missing == []


def test_self_time_subtracts_the_union_of_children():
    outer = tracing.Span("outer", 0.0, 10.0, None)
    spans = [
        outer,
        tracing.Span("a", 1.0, 4.0, outer),
        tracing.Span("b", 3.0, 6.0, outer),  # overlaps a, as worker threads do
        tracing.Span("c", 9.0, 12.0, outer),  # clipped to the parent
    ]
    stats = tracing.layer_stats(spans)
    assert stats["outer"].self_time == pytest.approx(10.0 - 5.0 - 1.0)
    assert stats["a"].self_time == pytest.approx(3.0)


# ------------------------------------------------------------ missing program


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("exact-cli", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
