"""Benchmark of the ample CLI path: config parse -> cli.run -> report.render.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lemma-ac4 --seed 1 --seconds 20 --trace 0

Runs one workload (see workloads.py) in this process as a closed loop with
one client, checks every report (checks.py), and prints an info line and
then, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics declared in BENCHMARK.json.
--trace 1 runs whole command cycles untraced for a third of --seconds, then
the same cycles again with the tracer installed (tracing.py), and reports
the per-layer metrics; the traced reports must be byte-identical to the
untraced ones.

The program is imported from src/ of the checkout this file sits in; the
run fails without printing a result when it is not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 12  # half before the timed loop, half after
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh-process set-up: import the package, then parse the workload's configs.
SETUP_CHILD = """
import json, sys, time
docs = json.loads(sys.stdin.read())
t0 = time.perf_counter()
import ample
for doc in docs:
    ample.config_from_mapping(doc)
sys.stdout.write(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=workloads.SIZES, default="full",
                   help="tiny shrinks every command, for the benchmark's own tests")
    return p.parse_args(argv)


def hygiene(threads: int) -> None:
    """Pin the environment before numpy loads: no seed override, BLAS threads = workload threads."""
    os.environ.pop("AMPLE_SEED", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)


def import_program():
    if not (SRC / "ample" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'ample'}")
    sys.path.insert(0, str(SRC))
    import ample

    if Path(ample.__file__).resolve().parent != (SRC / "ample").resolve():
        raise BenchError(f"imported ample from {ample.__file__}, not from {SRC}")
    return ample


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "loadavg": list(os.getloadavg()),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Pass:
    """Timings and counts of one closed-loop pass over the command cycle."""

    def __init__(self):
        self.ops = 0
        self.samples = 0
        self.cycles = 0
        self.wall = 0.0
        self.run_time = 0.0  # cli.run + render, the sweep wall time
        self.latencies: list[float] = []
        self.counts: dict[int, int] = {}  # cycle index -> times run

    def ops_per_s(self) -> float:
        return self.ops / self.wall

    def samples_per_s(self) -> float:  # 0 when every command failed
        return self.samples / self.run_time if self.run_time else 0.0


class Bench:
    """Runs one workload and keeps every failure it sees."""

    def __init__(self, workload, checker):
        from ample import cli, config, report

        self.cli, self.config, self.report = cli, config, report
        self.workload = workload
        self.checker = checker
        self.texts: dict[int, tuple[int, str]] = {}  # cycle index -> (exit code, first report)
        self.failures: dict[str, int] = {}  # message -> ops it cost
        self.attempted = 0

    def fail(self, message: str, ops: int = 1) -> None:
        self.failures[message] = self.failures.get(message, 0) + ops

    def command(self, doc: dict):
        """parse -> run -> render through the module attributes the CLI uses."""
        t0 = time.perf_counter()
        cfg = self.config.config_from_mapping(doc)
        t1 = time.perf_counter()
        code, rep = self.cli.run(cfg)
        text = self.report.render(rep)
        t2 = time.perf_counter()
        return code, text, t1 - t0, t2 - t1

    def loop(self, seconds: float, min_ops: int, whole_cycles: bool = False) -> Pass:
        """Closed loop, one client: the next command starts when the last returns."""
        cycle = self.workload.cycle
        p = Pass()
        start = time.perf_counter()
        while True:
            i = p.ops % len(cycle)
            cmd = cycle[i]
            self.attempted += 1
            p.ops += 1
            p.counts[i] = p.counts.get(i, 0) + 1
            try:
                code, text, parse_t, run_t = self.command(cmd.doc)
            except Exception as exc:  # a crash in the program is a failed op, not a crash here
                self.fail(f"command {i} raised {type(exc).__name__}: {exc}")
            else:
                p.samples += cmd.samples
                p.run_time += run_t
                p.latencies.append(parse_t + run_t)
                if self.texts.setdefault(i, (code, text)) != (code, text):
                    self.fail(f"command {i}: report differs between runs of one invocation")
            if p.ops >= min_ops and time.perf_counter() - start >= seconds:
                if not whole_cycles or p.ops % len(cycle) == 0:
                    break
        p.wall = time.perf_counter() - start
        p.cycles = p.ops / len(cycle)
        return p

    def check_reports(self, passes: list[Pass]) -> int:
        """Check each distinct report once; returns the converged samples over the passes."""
        runs = {}
        for p in passes:
            for i, n in p.counts.items():
                runs[i] = runs.get(i, 0) + n
        converged = 0
        for i, (code, text) in sorted(self.texts.items()):
            cmd = self.workload.cycle[i]
            errors = self.checker.check(self.workload.kind, cmd.doc, cmd.expect, code, text)
            for error in errors:
                self.fail(f"command {i} ({cmd.doc['command']}): {error}", runs.get(i, 1))
            if self.workload.kind == "sweep" and not errors:
                converged += runs.get(i, 0) * checks.converged_samples(json.loads(text))
            elif not errors:
                converged += runs.get(i, 0) * cmd.samples  # no search: every op is converged
        return converged

    def check_thread_invariance(self) -> None:
        """A threaded sweep must render the same bytes single-threaded.

        Runs the first command shrunk to 512 samples per config, still in
        two batches, once with the workload's threads and once with one.
        """
        if self.workload.threads == 1:
            return
        texts = []
        for threads in (self.workload.threads, 1):
            first = self.workload.cycle[0].doc
            doc = shrunk(first, min(512, first["sweep"]["samples"]))
            doc["sweep"]["threads"] = threads
            self.attempted += 1
            try:
                texts.append(self.command(doc)[1])
            except Exception as exc:
                self.fail(f"threads={threads} replay raised {type(exc).__name__}: {exc}")
                return
        if texts[0] != texts[1]:
            self.fail(f"threads={self.workload.threads} and threads=1 reports differ")

    def warm_up(self) -> None:
        """Run lazy set-up outside the timed loop: one small sweep, or one pass of exact commands."""
        if self.workload.kind == "sweep":
            docs = [shrunk(self.workload.cycle[0].doc, 8)]
        else:
            docs = [cmd.doc for cmd in self.workload.cycle]
        for doc in docs:
            try:
                self.command(doc)
            except Exception:  # the timed loop runs the same commands and counts failures
                pass

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in sorted(self.texts):
            h.update(self.texts[i][1].encode())
        return h.hexdigest()


def shrunk(doc: dict, samples: int) -> dict:
    """A copy of a sweep document with fewer samples per config, in two batches."""
    doc = json.loads(json.dumps(doc))
    doc["sweep"].update(samples=samples, batch_size=max(1, samples // 2))
    return doc


def setup_seconds(workload, reps: int) -> list[float]:
    """Times of fresh processes that import the program and parse the workload's configs."""
    docs = json.dumps([cmd.doc for cmd in workload.cycle])
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD],
            input=docs, capture_output=True, text=True, cwd=ROOT, timeout=120,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up process failed: {out.stderr.strip()[-500:]}")
        times.append(float(out.stdout))
    return times


def end_to_end(bench: Bench, seconds: float, setup_reps: int) -> tuple[dict, dict]:
    # one discarded warm-up process; the rest are spread around the loop so
    # that their median sees the machine over the whole run, not one moment
    setup = setup_seconds(bench.workload, 1 + setup_reps // 2)[1:]
    docs_before = json.dumps([c.doc for c in bench.workload.cycle], sort_keys=True)
    bench.warm_up()
    measured = bench.loop(seconds, len(bench.workload.cycle) + 1)
    converged = bench.check_reports([measured])
    bench.check_thread_invariance()
    setup += setup_seconds(bench.workload, setup_reps - setup_reps // 2)
    bench.attempted += 1
    if json.dumps([c.doc for c in bench.workload.cycle], sort_keys=True) != docs_before:
        bench.fail("config documents were modified by the program")
    lat_us = [t * 1e6 for t in measured.latencies] or [0.0]
    return {
        "setup_s": statistics.median(setup),
        "samples_per_s": measured.samples_per_s(),
        "converged_share": converged / measured.samples if measured.samples else 0.0,
        "ops_per_s": measured.ops_per_s(),
        "op_p50_us": statistics.median(lat_us),
        "op_p99_us": percentile(lat_us, 99),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"ops": measured.ops, "samples": measured.samples, "cycles": measured.cycles}


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    plain = bench.loop(seconds / 3, len(bench.workload.cycle), whole_cycles=True)
    with tracing.Tracer() as tracer:
        traced = bench.loop(0, plain.ops, whole_cycles=True)
    bench.check_reports([plain, traced])
    stats = tracing.layer_stats(tracer.spans)
    empty = tracing.LayerStats()

    def total(layer):  # seconds per pass over the command cycle
        return stats.get(layer, empty).total / traced.cycles

    def self_s(layer):
        return stats.get(layer, empty).self_time / traced.cycles

    def mean_us(layer, self_only=False):
        s = stats.get(layer, empty)
        if not s.calls:
            return 0.0
        return (s.self_time if self_only else s.total) / s.calls * 1e6

    sweep = stats.get("sweep", empty)
    objective = stats.get("spheremin.objective", empty)
    metrics = {
        "spheremin.descent_s": total("spheremin.descent"),
        "spheremin.descent_self_s": self_s("spheremin.descent"),
        "spheremin.objective_s": total("spheremin.objective"),
        "spheremin.objective_calls": round(objective.calls / traced.cycles),
        "spheremin.objective_rows": round(objective.rows / traced.cycles),
        "spheremin.starts_s": total("spheremin.starts"),
        "spheremin.screen_s": total("spheremin.screen"),
        "spheremin.polish_s": total("spheremin.polish"),
        "curvature.build_batch_s": total("curvature.build_batch"),
        "curvature.lhs_density_s": total("curvature.lhs_density"),
        "sweep.self_s": self_s("sweep"),
        "sweep.cpu_per_wall": sweep.cpu / sweep.total if sweep.total else 0.0,
        "config.parse_us": mean_us("config.parse"),
        "cli.run_self_us": mean_us("cli.run", self_only=True),
        "bundles.chern_of_us": mean_us("bundles.chern_of"),
        "criteria.check_us": mean_us("criteria.check"),
        "criteria.nakai_us": mean_us("criteria.nakai"),
        "criteria.counterexample_us": mean_us("criteria.counterexample"),
        "criteria.epsilon_us": mean_us("criteria.epsilon"),
        "report.render_us": mean_us("report.render"),
        "trace.overhead_ops_per_s": traced.ops_per_s() - plain.ops_per_s(),
        "trace.overhead_samples_per_s": traced.samples_per_s() - plain.samples_per_s(),
    }
    info = {
        "cycles": traced.cycles,
        "spans": len(tracer.spans),
        "untraced_ops_per_s": plain.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
        "untraced_samples_per_s": plain.samples_per_s(),
        "traced_samples_per_s": traced.samples_per_s(),
        "missing_targets": tracer.missing,
    }
    return metrics, info


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workload = workloads.build(args.workload, args.seed, args.size)
        units = declared_metrics(args.trace)
        hygiene(workload.threads)
        ample = import_program()
        schema = json.loads((SRC / "ample" / "report.schema.json").read_text())
        bench = Bench(workload, checks.ReportChecker(schema))
        if args.trace:
            values, info = per_layer(bench, args.seconds)
        else:
            setup_reps = 3 if args.size == "tiny" else SETUP_REPS
            values, info = end_to_end(bench, args.seconds, setup_reps)
        if set(values) != set(units):
            raise BenchError(f"computed metrics {sorted(values)} != declared {sorted(units)}")
    except (BenchError, ValueError, OSError, ImportError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    failed = min(sum(bench.failures.values()), bench.attempted)
    info.update(
        workload=workload.name,
        seed=args.seed,
        size=args.size,
        trace=args.trace,
        version=ample.__version__,
        report_sha256=bench.digest(),
        failed_share=failed / bench.attempted,
        failures=sorted(bench.failures)[:10],
        env=environment(),
    )
    for message in sorted(bench.failures):
        print(f"FAILED ({bench.failures[message]} ops): {message}", file=sys.stderr)
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
