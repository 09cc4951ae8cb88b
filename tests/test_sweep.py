import contextlib
import csv
import functools
import json
import math
import os
import platform
import select
import signal
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ample import cli, spheremin
from ample import sweep as sweep_module
from ample.config import INT_MINIMUMS, config_from_mapping
from ample.curvature import pointwise_gap
from ample.report import render
from ample.errors import ConfigError, InconsistentStateError, InvalidInputError
from ample.sweep import (
    ADVERSARIAL_SOURCE,
    AUDIT_STRIDE,
    BASIS_SOURCE,
    EXTREMAL_SOURCE,
    RANDOM_SOURCE,
    SCREEN_SOURCES,
    SweepConfig,
    export_histograms,
    replay_worst,
    run_gap_sweep,
    run_griffiths_sweep,
    run_lagrange_check,
)

SMALL = SweepConfig(
    ranks=(2, 3),
    epsilons=(0.0, 0.1),
    samples=40,
    seed=5,
    restarts=3,
    random_vectors=4,
    iterations=40,
)


def test_gap_sweep_passes_and_reports_each_configuration():
    res = run_gap_sweep(SMALL)
    assert res.passed
    assert len(res.results) == 4
    assert [(c.rank, c.epsilon) for c in res.results] == [
        (2, 0.0), (2, 0.1), (3, 0.0), (3, 0.1),
    ]
    for c in res.results:
        assert c.samples == 40
        assert c.min_value >= -1e-9
        # every value is at least its own sample's bound
        assert c.min_value >= c.min_bound - 1e-9
        assert c.mean_value >= c.min_value
        assert c.worst.value == c.min_value
        assert c.worst.source in (*SCREEN_SOURCES, ADVERSARIAL_SOURCE)
        assert sum(count for _, _, count in c.histogram) == 40
        assert 0.0 <= c.converged_fraction <= 1.0
    assert res.min_value == min(c.min_value for c in res.results)
    assert res.residual_max < 1e-9


def test_sweep_is_reproducible():
    assert run_gap_sweep(SMALL) == run_gap_sweep(SMALL)


def test_sweep_independent_of_thread_count_and_batch_size():
    # 13 splits the 40 samples into 4 uneven batches at offsets that are not
    # multiples of the 4 words of a Philox block
    def bounds(res):
        return [(c.certified, repr(c.min_bound)) for c in res.results]

    # both kinds bound every sample, so the certified counts and the lowest
    # bounds of both must match too
    for sweep in (run_gap_sweep, run_griffiths_sweep):
        base = sweep(SMALL)
        assert all(isinstance(c.certified, int) and np.isfinite(c.min_bound) for c in base.results)
        for changes in ({"threads": 4}, {"batch_size": 1}, {"batch_size": 7}, {"batch_size": 13, "threads": 3}):
            other = sweep(replace(SMALL, **changes))
            assert other == base, changes
            assert bounds(other) == bounds(base), changes


def test_pool_never_has_more_workers_than_jobs_or_cpus(monkeypatch):
    # a stand-in pool factory that records its size and maps serially, so
    # that a million requested workers start none; on eight usable CPUs, a
    # sweep of one job runs with no pool and one of three jobs asks for three
    sizes = []

    class SerialPool:
        def map(self, fn, *iterables):
            return map(fn, *iterables)

    def pool_of(workers):
        sizes.append(workers)
        return SerialPool()

    monkeypatch.setattr(sweep_module, "_process_pool", pool_of)
    monkeypatch.setattr(sys, "platform", "linux")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    cfg = replace(SMALL, ranks=(2,), epsilons=(0.0,), batch_size=1, threads=10**6)
    assert run_gap_sweep(replace(cfg, samples=1)).passed
    assert sizes == []
    assert run_gap_sweep(replace(cfg, samples=3)).passed
    assert sizes == [3]


def test_workers_are_capped_by_the_cpus_the_process_may_run_on(monkeypatch):
    # pinned to one CPU, as by taskset, a two-worker sweep runs inline and
    # forks nothing, however many CPUs the machine has
    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} workers was asked for")

    monkeypatch.setattr(sweep_module, "_process_pool", no_pool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert sweep_module._usable_cpus() == 1
    assert run_griffiths_sweep(replace(SMALL, threads=2)) == run_griffiths_sweep(SMALL)


forks_a_pool = pytest.mark.skipif(
    not sys.platform.startswith("linux") or sweep_module._usable_cpus() < 2,
    reason="multi-worker sweeps fork a process pool on Linux, given two CPUs",
)


def _worker_pids() -> set[int]:
    return set(sweep_module._pool[1]._processes)


@contextlib.contextmanager
def _own_session(args, **kwargs):
    """A child in a session of its own, whose process group is killed at the end."""
    proc = subprocess.Popen(args, text=True, start_new_session=True, **kwargs)
    try:
        yield proc
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)


def _live_members(group: int) -> list[int]:
    """Processes of a process group that have not exited, zombies left out."""
    live = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    state, _, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:4]
            except OSError:
                continue
            if int(pgrp) == group and state != "Z":
                live.append(int(entry))
    return live


@forks_a_pool
def test_no_worker_outlives_the_command(tmp_path):
    # three configurations of one sample each: three jobs on two workers
    path = tmp_path / "flat.json"
    path.write_text(json.dumps({"sweep": {"ranks": [2, 3, 4], "mode": "projectively-flat"}}))
    argv = [sys.executable, "-m", "ample", "griffiths", "--config", str(path), "--threads", "2"]
    with _own_session(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err[-500:]
        assert json.loads(out)["verdict"] == "pass"
        assert err == "griffiths: pass (min eigenvalue = 0.25)\n"  # and nothing at exit
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)


# a process that forks a pool of two workers and then waits with it idle
IDLE_POOL = """
import sys
from ample.sweep import SweepConfig, run_griffiths_sweep
run_griffiths_sweep(SweepConfig(ranks=(2,), samples=64, batch_size=32, threads=2))
print("forked", flush=True)
sys.stdin.read()
"""


def _wait_for_pool(proc) -> None:
    assert select.select([proc.stdout], [], [], 120)[0], "no sweep within 120 s"
    assert proc.stdout.readline() == "forked\n"
    assert len(_live_members(proc.pid)) == 3


@forks_a_pool
def test_ctrl_c_leaves_the_workers_quiet():
    argv = [sys.executable, "-c", IDLE_POOL]
    with _own_session(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        _wait_for_pool(proc)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        # the parent's KeyboardInterrupt alone, none from an idle worker
        assert err.count("Traceback") == 1, err
        assert err.rstrip().endswith("KeyboardInterrupt")


@forks_a_pool
def test_workers_exit_when_their_parent_is_killed():
    argv = [sys.executable, "-c", IDLE_POOL]
    with _own_session(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        _wait_for_pool(proc)
        proc.kill()
        proc.wait(timeout=30)
        deadline = time.monotonic() + 30
        while _live_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert _live_members(proc.pid) == []


@forks_a_pool
def test_a_dead_worker_is_an_error_and_the_next_sweep_forks_afresh():
    # a worker of the seed-1 sweep kills itself in its first batch
    code = """
import json, os, signal
from ample import cli, sweep
from ample.config import config_from_mapping

run_batch = sweep._run_batch

def dies_at_seed_1(cfg, *job):
    if cfg.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_batch(cfg, *job)

sweep._run_batch = dies_at_seed_1
out = []
for seed in (1, 2):
    sweep_keys = {"ranks": [2, 3], "samples": 8, "batch_size": 4, "threads": 2, "seed": seed}
    code, report = cli.run(config_from_mapping({"command": "verify-lemma", "sweep": sweep_keys}))
    out.append([code, report["verdict"], report["results"].get("error")])
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""
    (code, verdict, error), second = json.loads(proc.stdout)
    assert (code, verdict, error["type"]) == (3, "error", "AmpleError")
    assert error["message"].startswith("a sweep worker process died")
    assert second == [0, "pass", None]


def test_a_sweep_out_of_memory_is_an_error_report(monkeypatch):
    # a stand-in for an allocation that fails, as one of 10**12 restarts
    # does, so that nothing is allocated for real
    def out_of_memory(cfg, *job):
        raise MemoryError("Unable to allocate 58.2 TiB")

    monkeypatch.setattr(sweep_module, "_run_batch", out_of_memory)
    code, report = cli.run(config_from_mapping({"command": "griffiths", "sweep": {"ranks": [2]}}))
    assert (code, report["verdict"]) == (3, "error")
    message = "a sweep ran out of memory: Unable to allocate 58.2 TiB"
    assert report["results"]["error"] == {"type": "AmpleError", "message": message}


@pytest.mark.parametrize("key, value", [("restarts", 10**18), ("random_vectors", 10**18), ("histogram_bins", 2**62)])
def test_a_sweep_past_numpy_size_limit_is_an_error_report_before_any_batch(monkeypatch, key, value):
    # numpy refuses such arrays with ValueError; the sweep refuses them first
    def no_batch(cfg, *job):
        raise AssertionError("a batch ran")

    monkeypatch.setattr(sweep_module, "_run_batch", no_batch)
    for command in ("verify-lemma", "griffiths"):
        doc = {"command": command, "sweep": {"ranks": [2], "samples": 3, key: value}}
        code, report = cli.run(config_from_mapping(doc))
        assert (code, report["verdict"]) == (3, "error")
        error = report["results"]["error"]
        assert error["type"] == "AmpleError"
        assert error["message"].startswith("a sweep ran out of memory: its arrays would pass numpy's limit")


def family_batch(r, epsilon, uniforms):
    """build_batch's stand-in: every sample is coeff00 = I/r, coeff11 = I/r + B
    with B = -eps (J - I), which passes every residual check and whose
    minimum gap is -0.096 at r = 3, eps = 0.1."""
    B = -epsilon * (np.ones((r, r)) - np.eye(r))
    coeff = np.zeros((r, r, 2, 2), dtype=np.complex128)
    coeff[..., 0, 0] = np.eye(r) / r
    coeff[..., 1, 1] = np.eye(r) / r + B
    n = uniforms.shape[0]
    return np.repeat(coeff[None], n, axis=0), np.repeat(B[None].astype(np.complex128), n, axis=0)


def first_basis_vectors(coeff, griffiths, terms):
    """extremal_vectors' stand-in: e_1 for every sample."""
    return np.eye(coeff.shape[1], dtype=np.complex128)[np.zeros(len(coeff), dtype=int)]


def test_the_search_runs_where_the_bound_cannot_decide(monkeypatch):
    # the family's bound, -0.096, cannot certify it; the extremal vector
    # would refute it at -0.096 by itself, so it is replaced by e_1, where
    # every sample's screened gap passes, and every sample is searched
    monkeypatch.setattr(sweep_module, "build_batch", family_batch)
    monkeypatch.setattr(sweep_module, "extremal_vectors", first_basis_vectors)
    descend, rows = sweep_module.minimize_on_sphere, []

    def recording(M, *args):
        rows.append(len(M))
        return descend(M, *args)

    monkeypatch.setattr(sweep_module, "minimize_on_sphere", recording)
    sweep_keys = {"ranks": [3], "epsilons": [0.1], "samples": 20, "batch_size": 8}
    code, report = cli.run(config_from_mapping({"command": "verify-lemma", "sweep": sweep_keys}))
    (c,) = report["results"]["configs"]
    assert (code, report["verdict"]) == (1, "fail")
    assert sum(rows) == 20
    assert c["certified"] == 0
    assert c["min_bound"] == pytest.approx(-0.096, abs=1e-12)
    assert c["min"] == c["worst"]["value"] == pytest.approx(-0.096, abs=1e-9)
    assert c["worst"]["source"] == ADVERSARIAL_SOURCE


def test_the_extremal_vector_alone_refutes_the_entrywise_family(monkeypatch):
    # unchanged, the screen reaches the family's minimum -0.096 at every
    # sample's extremal vector, so only the audited sample 0 is searched
    monkeypatch.setattr(sweep_module, "build_batch", family_batch)
    descend, rows = sweep_module.minimize_on_sphere, []

    def recording(M, *args):
        rows.append(len(M))
        return descend(M, *args)

    monkeypatch.setattr(sweep_module, "minimize_on_sphere", recording)
    sweep_keys = {"ranks": [3], "epsilons": [0.1], "samples": 20, "batch_size": 8}
    code, report = cli.run(config_from_mapping({"command": "verify-lemma", "sweep": sweep_keys}))
    (c,) = report["results"]["configs"]
    assert (code, report["verdict"]) == (1, "fail")
    assert sum(rows) == 1
    assert c["certified"] == 0 and c["converged_fraction"] == 1.0
    assert c["mean"] == pytest.approx(-0.096, abs=1e-9)
    assert c["min"] == c["worst"]["value"] == pytest.approx(-0.096, abs=1e-9)


def test_a_searched_sample_starts_where_a_search_of_its_own_would(monkeypatch):
    # a bound pushed down on rows 3, 5 and 12 of every batch of 16 makes the
    # sweep search those samples and the audited sample 0 alone; one worker
    # descends them rank by rank in sample order, so the rows of the calls
    # in order are the searched samples of the configurations in order
    rows = np.array([3, 5, 12])
    det_lower_bound, descend = sweep_module.det_lower_bound, sweep_module.minimize_on_sphere
    starts = []

    def lowered(coeff, terms):
        bound = det_lower_bound(coeff, terms)
        bound[rows[rows < len(bound)]] = -1e6
        return bound

    def recording(M, V0, *args):
        starts.append(V0)
        return descend(M, V0, *args)

    monkeypatch.setattr(sweep_module, "det_lower_bound", lowered)
    monkeypatch.setattr(sweep_module, "minimize_on_sphere", recording)
    cfg = replace(SMALL, batch_size=16)
    res = run_gap_sweep(cfg)
    assert [c.certified for c in res.results] == [cfg.samples - 8] * len(res.results)
    searched = [
        (ci, i) for ci in range(len(res.results)) for i in range(cfg.samples)
        if i % 16 in rows or i % AUDIT_STRIDE == 0
    ]
    V0 = [row for call in starts for row in call]
    assert len(V0) == len(searched)
    for row, (ci, i) in zip(V0, searched):
        c = res.results[ci]
        pc = sweep_module.sample_curvature(c.rank, c.epsilon, (cfg.seed, ci, i))
        M = spheremin.form_matrices(pc.coeff[None])
        random = spheremin.random_unit_vectors((cfg.seed, ci), i, 1, cfg.restarts - 1, c.rank)
        alone = spheremin.basis_and_random_starts(M, spheremin.det_objective, cfg.restarts, random)
        assert np.array_equal(row, alone[0]), (ci, i)


def test_searched_rows_leave_reports_independent_of_batches_and_workers(monkeypatch):
    # a bound pushed down wherever coeff[0, 0, 0, 0] > 0.8, a property of
    # the sample and not of its batch, leaves about one sample in ten
    # undecided.  Only the searched samples draw random vectors, each
    # sample's own, so the reports stay byte for byte the same over batch
    # sizes and worker counts.  The pool is forked afresh, so that its
    # workers run the lowered bounds too, and shut down after
    det_lower_bound, griffiths_lower_bound = sweep_module.det_lower_bound, sweep_module.griffiths_lower_bound
    draw, draws = sweep_module.random_unit_vectors, []

    def lowering(bound_of):
        def lowered(coeff, terms):
            bound = bound_of(coeff, terms)
            bound[coeff[:, 0, 0, 0, 0].real > 0.8] = -1e6
            return bound
        return lowered

    def recording(key, lo, n, count, r, rows):
        vectors = draw(key, lo, n, count, r, rows)
        draws.append((key, lo, count, r, rows, vectors))
        return vectors

    monkeypatch.setattr(sweep_module, "det_lower_bound", lowering(det_lower_bound))
    monkeypatch.setattr(sweep_module, "griffiths_lower_bound", lowering(griffiths_lower_bound))
    monkeypatch.setattr(sweep_module, "random_unit_vectors", recording)
    sweep_keys = {
        "ranks": [2, 3], "epsilons": [0.1], "samples": 800, "seed": 9, "restarts": 3,
        "random_vectors": 4, "iterations": 30, "batch_size": 4096, "threads": 1,
    }

    def text(command, **changes):
        doc = {"command": command, "sweep": dict(sweep_keys, **changes)}
        return render(cli.run(config_from_mapping(doc))[1])

    sweep_module._close_pool()
    try:
        for command in ("verify-lemma", "griffiths"):
            draws.clear()
            first = text(command)
            assert text(command, batch_size=7) == first
            # two runs of two configurations, each with 13 audited samples,
            # and undecided ones besides
            searched = sum(len(rows) for *_, rows, _ in draws)
            assert searched > 2 * 2 * (800 // AUDIT_STRIDE + 1)
            for key, lo, count, r, rows, vectors in draws:
                assert count == 4
                for k, i in enumerate(rows):
                    assert np.array_equal(vectors[k], draw(key, lo + i, 1, count, r)[0]), (key, lo, i)
            for changes in ({"batch_size": 1}, {"batch_size": 777}, {"threads": 2}, {"batch_size": 7, "threads": 2}):
                assert text(command, **changes) == first, changes
    finally:
        sweep_module._close_pool()


def test_a_run_of_batches_is_searched_in_one_descent_per_rank(monkeypatch):
    # one worker runs each rank's 3 epsilons x 3 batches as one run, and
    # descends its undecided and audited samples in one call, each sample
    # once, in sample order; a bound pushed down wherever coeff[0, 0, 0, 0]
    # > 0.9 leaves about one in twenty samples undecided.  A batch_size of
    # 7 makes the runs flush their pending rows many times over, and the
    # report stays byte for byte the same
    det_lower_bound, descend = sweep_module.det_lower_bound, sweep_module.minimize_on_sphere
    calls = []

    def lowered(coeff, terms):
        bound = det_lower_bound(coeff, terms)
        bound[coeff[:, 0, 0, 0, 0].real > 0.9] = -1e6
        return bound

    def recording(M, V0, *args):
        calls.append(M)
        return descend(M, V0, *args)

    monkeypatch.setattr(sweep_module, "det_lower_bound", lowered)
    monkeypatch.setattr(sweep_module, "minimize_on_sphere", recording)
    sweep_keys = {
        "ranks": [2, 3], "epsilons": [0.0, 0.01, 0.1], "samples": 150, "batch_size": 50,
        "threads": 1, "seed": 3, "restarts": 3, "random_vectors": 4, "iterations": 40,
    }

    def text(**changes):
        doc = {"command": "verify-lemma", "sweep": dict(sweep_keys, **changes)}
        code, report = cli.run(config_from_mapping(doc))
        assert code == 0
        return render(report)

    first = text()
    assert len(calls) == 2
    searched = []
    for ci, (r, eps) in enumerate((r, eps) for r in (2, 3) for eps in (0.0, 0.01, 0.1)):
        for i in range(150):
            pc = sweep_module.sample_curvature(r, eps, (3, ci, i))
            if pc.coeff[0, 0, 0, 0].real > 0.9 or i % AUDIT_STRIDE == 0:
                searched.append(spheremin.form_matrices(pc.coeff[None])[0])
    rows = [M for call in calls for M in call]
    assert len(rows) == len(searched) > 6 * 3
    assert all(np.array_equal(a, b) for a, b in zip(rows, searched))
    calls.clear()
    assert text(batch_size=7) == first
    assert len(calls) > 2 and sum(len(M) for M in calls) == len(searched)


@pytest.mark.parametrize("command", ["griffiths", "verify-lemma"])
def test_wrapped_module_functions_leave_a_two_worker_sweep_unchanged(monkeypatch, command):
    # a tracer replaces the functions a sweep looks up on ample.sweep with
    # wrappers of the same name and module; a job that carried one of them
    # to a worker process would fail to pickle
    doc = {"command": command, "sweep": {"ranks": [2, 3], "samples": 40, "batch_size": 10, "threads": 2}}
    plain = render(cli.run(config_from_mapping(doc))[1])
    names = (
        "det_objective", "lmin_objective", "minimize_on_sphere",
        "basis_and_random_starts", "objective_values", "build_batch",
    )
    for name in names:
        fn = getattr(sweep_module, name)
        monkeypatch.setattr(sweep_module, name, functools.wraps(fn)(lambda *a, _fn=fn, **k: _fn(*a, **k)))
    assert render(cli.run(config_from_mapping(doc))[1]) == plain


@pytest.mark.parametrize("batch_size", [1, 16, 4096])
def test_the_first_sample_below_its_bound_is_named_though_a_later_screen_fails_first(monkeypatch, batch_size):
    # rank 2 at epsilon 0, where the bound is the minimum gap: audited sample
    # 64 has its bound raised by 1e-6 in det, which only its search reaches
    # below, and sample 70 by 1, which its screen already lies below, so the
    # batch holding 70 knows of its failure before 64 is searched
    j, k = 64, 70
    first = {
        sweep_module.sample_curvature(2, 0.0, (7, 0, i)).coeff[0, 0, 0, 0]: lift
        for i, lift in ((j, 1e-6), (k, 1.0))
    }
    det_lower_bound = sweep_module.det_lower_bound

    def raised(coeff, terms, lifts):
        bound = det_lower_bound(coeff, terms)
        for n, x in enumerate(coeff[:, 0, 0, 0, 0]):
            bound[n] += lifts.get(x, 0.0)
        return bound

    def error(lifts):
        monkeypatch.setattr(sweep_module, "det_lower_bound", lambda coeff, terms: raised(coeff, terms, lifts))
        sweep_keys = {"ranks": [2], "epsilons": [0.0], "samples": 80, "seed": 7, "batch_size": batch_size}
        code, report = cli.run(config_from_mapping({"command": "verify-lemma", "sweep": sweep_keys}))
        assert (code, report["verdict"]) == (3, "error")
        return report["results"]["error"]["message"]

    assert error({x: v for x, v in first.items() if v == 1.0}).startswith(f"rank 2, epsilon 0.0, sample {k}: gap ")
    message = error(first)
    assert message.startswith(f"rank 2, epsilon 0.0, sample {j}: gap ")
    gap, bound = (float(word) for word in message.split(": gap ")[1].split(" lies below its proven lower bound "))
    assert bound - gap == pytest.approx(4e-6, abs=1e-9)


def test_a_gap_below_its_bound_is_an_inconsistent_state(monkeypatch):
    # a bound raised by 1 in det, so 2r^2/k >= 2 in the gap: the rank-2
    # bound is the minimum gap, so every rank-2 value lies below it
    det_lower_bound = sweep_module.det_lower_bound
    monkeypatch.setattr(sweep_module, "det_lower_bound", lambda coeff, terms: det_lower_bound(coeff, terms) + 1.0)
    sweep_keys = {"ranks": [2], "samples": 8}
    code, report = cli.run(config_from_mapping({"command": "verify-lemma", "sweep": sweep_keys}))
    assert (code, report["verdict"]) == (3, "error")
    error = report["results"]["error"]
    assert error["type"] == "InconsistentStateError"
    assert error["message"].startswith("rank 2, epsilon 0.0, sample 0: gap ")
    assert " lies below its proven lower bound " in error["message"]


def test_the_audit_searches_below_what_the_screen_finds(monkeypatch):
    # the rank-2 bound at epsilon 0 is the minimum gap; raised by 1e-6 in
    # det, 4e-6 in the gap, it lies above the minimum but below every random
    # and basis vector's value, so only the search of sample 0, audited
    # though certified, reaches below it
    det_lower_bound = sweep_module.det_lower_bound
    monkeypatch.setattr(sweep_module, "det_lower_bound", lambda coeff, terms: det_lower_bound(coeff, terms) + 1e-6)
    sweep_keys = {"ranks": [2], "epsilons": [0.0], "samples": 8}
    code, report = cli.run(config_from_mapping({"command": "verify-lemma", "sweep": sweep_keys}))
    assert (code, report["verdict"]) == (3, "error")
    message = report["results"]["error"]["message"]
    assert message.startswith("rank 2, epsilon 0.0, sample 0: gap ")
    gap, bound = (float(word) for word in message.split(": gap ")[1].split(" lies below its proven lower bound "))
    assert bound - gap == pytest.approx(4e-6, abs=1e-9)


def test_a_polished_gap_below_its_bound_is_an_inconsistent_state(monkeypatch):
    # the batches run on the true bound; only the polish finds values 1 lower
    min_gap_over_v = sweep_module.min_gap_over_v

    def lowered(*args, **kwargs):
        return tuple(replace(found, gap=found.gap - 1.0) for found in min_gap_over_v(*args, **kwargs))

    doc = {"command": "verify-lemma", "sweep": {"ranks": [2], "epsilons": [0.1], "samples": 8}}
    code, report = cli.run(config_from_mapping(doc))
    assert code == 0
    (_, _, i) = report["results"]["configs"][0]["worst"]["seed"]
    monkeypatch.setattr(sweep_module, "min_gap_over_v", lowered)
    code, report = cli.run(config_from_mapping(doc))
    assert (code, report["verdict"]) == (3, "error")
    error = report["results"]["error"]
    assert error["type"] == "InconsistentStateError"
    assert error["message"].startswith(f"rank 2, epsilon 0.1, sample {i}: gap ")
    assert " lies below its proven lower bound " in error["message"]


def uniform_vectors(coeff, griffiths, terms):
    """extremal_vectors' stand-in: (1, ..., 1)/sqrt(r) for every sample."""
    return np.full(coeff.shape[:2], coeff.shape[1] ** -0.5, dtype=np.complex128)


def test_a_worst_value_at_a_basis_vector_is_labelled_as_one(monkeypatch):
    # samples 1-39 are neither audited nor, for the gap, undecided, so each
    # batch's minimum is a screened value: at the extremal vector, or at
    # the best basis vector where that is lower.  The extremal vector is
    # nearly always lower; with the uniform vector in its place both win
    cfg = replace(SMALL, random_vectors=1)
    batches = [(0, 0.0, lo, lo + 1) for lo in range(1, 40)]
    for kind in ("gap", "griffiths"):
        for i, (_, (j, v, source), *_) in zip(range(1, 40), sweep_module._run_batches(cfg, kind, 3, batches), strict=True):
            pc = sweep_module.sample_curvature(3, 0.0, (cfg.seed, 0, i))
            extremal = sweep_module.extremal_vectors(pc.coeff[None], kind == "griffiths")[0]
            assert j == i and source in (EXTREMAL_SOURCE, ADVERSARIAL_SOURCE), (kind, i)
            assert source == ADVERSARIAL_SOURCE or np.array_equal(v, extremal), (kind, i)
    monkeypatch.setattr(sweep_module, "extremal_vectors", uniform_vectors)
    for kind in ("gap", "griffiths"):
        sources = []
        for i, (_, (j, v, source), *_) in zip(range(1, 40), sweep_module._run_batches(cfg, kind, 3, batches), strict=True):
            is_basis = sorted(abs(x) for x in v) == [0.0, 0.0, 1.0]
            if source != ADVERSARIAL_SOURCE:
                assert source == (BASIS_SOURCE if is_basis else EXTREMAL_SOURCE), (kind, i)
                assert is_basis or np.allclose(v, 3**-0.5, rtol=0, atol=1e-15), (kind, i)
            sources.append(source)
        assert BASIS_SOURCE in sources and EXTREMAL_SOURCE in sources, kind


def test_a_certified_sample_counts_as_converged_audited_or_not(monkeypatch):
    # a descent that never converges leaves the converged share of an
    # all-certified sweep at 1, although it searched the audited samples
    descend, rows = sweep_module.minimize_on_sphere, []

    def never_converging(M, *args):
        V, f, converged = descend(M, *args)
        rows.append(len(M))
        return V, f, np.zeros_like(converged)

    monkeypatch.setattr(sweep_module, "minimize_on_sphere", never_converging)
    res = run_gap_sweep(replace(SMALL, samples=130, batch_size=50))
    assert all(c.certified == 130 for c in res.results)
    assert all(c.converged_fraction == 1.0 for c in res.results)
    # samples 0, 64 and 128 of each configuration, in batches 0, 1 and 2,
    # descended in one search per rank
    assert rows == [3 * len(SMALL.epsilons)] * len(SMALL.ranks)


def test_a_refuted_griffiths_sample_is_not_searched_and_counts_as_converged(monkeypatch):
    # at rank 3 a random curvature has a screened value <= 0; a descent that
    # never converges then runs on the audited samples alone and leaves the
    # converged share at 1, although no sample is certified
    descend, rows = sweep_module.minimize_on_sphere, []

    def never_converging(M, *args):
        V, f, converged = descend(M, *args)
        rows.append(len(M))
        return V, f, np.zeros_like(converged)

    monkeypatch.setattr(sweep_module, "minimize_on_sphere", never_converging)
    res = run_griffiths_sweep(replace(SMALL, ranks=(3,), samples=130, batch_size=50))
    assert not res.passed
    assert all(c.certified == 0 and c.converged_fraction == 1.0 for c in res.results)
    # samples 0, 64 and 128 of each configuration, in batches 0, 1 and 2,
    # descended in one search of the one rank
    assert rows == [3 * len(res.results)]


def flat_batch(r, epsilon, uniforms):
    """build_batch's stand-in: every sample is the projectively flat point,
    whose smallest eigenvalue is 1/r at every vector."""
    pf = sweep_module.projectively_flat(r)
    n = uniforms.shape[0]
    return np.repeat(pf.coeff[None], n, axis=0), np.repeat(pf.B[None], n, axis=0)


def test_a_positive_screen_with_a_bound_that_cannot_certify_is_searched(monkeypatch):
    # a bound pushed down to -1 on rows 3, 5 and 12 of every batch of 16
    # leaves those samples undecided, as their screened value 1/r is
    # positive; the sweep searches them, and the audited sample 0, each
    # from the starts of a search of its own, one worker rank by rank in
    # sample order
    rows = np.array([3, 5, 12])
    griffiths_lower_bound, descend = sweep_module.griffiths_lower_bound, sweep_module.minimize_on_sphere
    starts = []

    def lowered(coeff, terms):
        bound = griffiths_lower_bound(coeff, terms)
        bound[rows[rows < len(bound)]] = -1.0
        return bound

    def recording(M, V0, *args):
        starts.append(V0)
        return descend(M, V0, *args)

    monkeypatch.setattr(sweep_module, "build_batch", flat_batch)
    monkeypatch.setattr(sweep_module, "griffiths_lower_bound", lowered)
    monkeypatch.setattr(sweep_module, "minimize_on_sphere", recording)
    cfg = replace(SMALL, batch_size=16)
    res = run_griffiths_sweep(cfg)
    assert res.passed
    assert [c.certified for c in res.results] == [cfg.samples - 8] * len(res.results)
    searched = [
        (ci, i) for ci in range(len(res.results)) for i in range(cfg.samples)
        if i % 16 in rows or i % AUDIT_STRIDE == 0
    ]
    V0 = [row for call in starts for row in call]
    assert len(V0) == len(searched)
    for row, (ci, i) in zip(V0, searched):
        c = res.results[ci]
        M = spheremin.form_matrices(flat_batch(c.rank, c.epsilon, np.zeros((1, 1)))[0])
        random = spheremin.random_unit_vectors((cfg.seed, ci), i, 1, cfg.restarts - 1, c.rank)
        alone = spheremin.basis_and_random_starts(M, spheremin.lmin_objective, cfg.restarts, random)
        assert np.array_equal(row, alone[0]), (ci, i)


def test_a_search_that_finds_nothing_lower_keeps_the_screened_vector(monkeypatch):
    # every flat sample is searched under a bound pushed down to -1; a
    # stand-in descent that finds nothing below +inf leaves each sample its
    # screened value, the lowest of its extremal, basis and random test
    # vectors, and the worst record its screened vector and source
    def nothing_lower(M, V0, *args):
        shape = V0.shape[:2]
        return V0, np.full(shape, np.inf), np.ones(shape, dtype=bool)

    monkeypatch.setattr(sweep_module, "build_batch", flat_batch)
    monkeypatch.setattr(sweep_module, "griffiths_lower_bound", lambda coeff, terms: np.full(len(coeff), -1.0))
    monkeypatch.setattr(sweep_module, "minimize_on_sphere", nothing_lower)
    res = run_griffiths_sweep(replace(SMALL, batch_size=16))
    for c in res.results:
        assert (c.certified, c.converged_fraction) == (0, 1.0)
        assert c.worst.source in SCREEN_SOURCES
        v = np.array(c.worst.v)
        flat = sweep_module.projectively_flat(c.rank).coeff
        q = np.einsum("i,ijab,j->ab", np.conj(v), flat, v) / np.vdot(v, v).real
        assert np.linalg.eigvalsh(q)[0] == pytest.approx(c.worst.value, abs=1e-12)


@pytest.mark.parametrize("kind", ["gap", "griffiths"])
def test_a_random_test_vector_counts_only_where_it_is_lower_than_the_screen(monkeypatch, kind):
    # on the entrywise family at epsilon 0.1 every basis vector has the same
    # value, and the uniform vector a lower one; with e_1 as the extremal
    # vector and a bound pushed far down, every sample is searched, and a
    # descent that ends at +inf leaves it its lowest screened value.  Every
    # random test vector is e_1, which ties the screen and keeps its label,
    # but for slot restarts - 1, the first that is not a start, which holds
    # e_1 too or the uniform vector; that one is lower than both screened
    # values and is labelled a random test vector
    cfg = replace(SMALL, epsilons=(0.1,), random_vectors=4)
    slot = cfg.restarts - 1

    def nothing_lower(M, V0, *args):
        shape = V0.shape[:2]
        return V0, np.full(shape, np.inf), np.ones(shape, dtype=bool)

    def value_at(r, v):
        coeff, B = (a[0] for a in family_batch(r, 0.1, np.zeros((1, 1))))
        if kind == "gap":
            return pointwise_gap(sweep_module.PointCurvature(r, coeff, 0.1, B), v).gap
        return np.linalg.eigvalsh(np.einsum("i,ijab,j->ab", np.conj(v), coeff, v))[0]

    def with_slot(vector_of):
        def drawn(key, lo, n, count, r, rows):
            vectors = np.zeros((len(rows), count, r), dtype=np.complex128)
            vectors[..., 0] = 1.0
            vectors[:, slot] = vector_of(r)
            return vectors
        return drawn

    lowered = {"gap": "det_lower_bound", "griffiths": "griffiths_lower_bound"}[kind]
    monkeypatch.setattr(sweep_module, "build_batch", family_batch)
    monkeypatch.setattr(sweep_module, "extremal_vectors", first_basis_vectors)
    monkeypatch.setattr(sweep_module, lowered, lambda coeff, terms: np.full(len(coeff), -1e6))
    monkeypatch.setattr(sweep_module, "minimize_on_sphere", nothing_lower)
    sweep = run_gap_sweep if kind == "gap" else run_griffiths_sweep

    monkeypatch.setattr(sweep_module, "random_unit_vectors", with_slot(lambda r: np.eye(r)[0]))
    for c in sweep(cfg).results:
        assert c.certified == 0 and c.worst.source in (EXTREMAL_SOURCE, BASIS_SOURCE)
        assert c.worst.value == pytest.approx(value_at(c.rank, np.eye(c.rank)[0]), abs=1e-12)

    uniform = lambda r: np.full(r, r**-0.5, dtype=np.complex128)
    monkeypatch.setattr(sweep_module, "random_unit_vectors", with_slot(uniform))
    for c in sweep(cfg).results:
        assert c.worst.source == RANDOM_SOURCE
        assert np.array_equal(np.array(c.worst.v), uniform(c.rank))
        assert c.worst.value == pytest.approx(value_at(c.rank, uniform(c.rank)), abs=1e-12)
        assert c.worst.value < value_at(c.rank, np.eye(c.rank)[0]) - 1e-3


@pytest.mark.parametrize("command", ["verify-lemma", "griffiths"])
def test_a_search_that_ends_at_nan_is_an_inconsistent_state(monkeypatch, command):
    # a descent whose every end is NaN, on the audited samples at least,
    # makes the sweep's values non-finite, as a NaN screened value does
    def nan_ends(M, V0, *args):
        shape = V0.shape[:2]
        return V0, np.full(shape, np.nan), np.ones(shape, dtype=bool)

    monkeypatch.setattr(sweep_module, "minimize_on_sphere", nan_ends)
    doc = {"command": command, "sweep": {"ranks": [2, 3], "samples": 40}}
    code, report = cli.run(config_from_mapping(doc))
    assert (code, report["verdict"]) == (3, "error")
    error = report["results"]["error"]
    assert error["type"] == "InconsistentStateError"
    assert error["message"] == "rank 2, epsilon 0.0: non-finite sweep values"


def test_a_polish_that_ends_at_nan_is_an_inconsistent_state(monkeypatch):
    # a NaN polished gap is neither below the batch's value nor below its
    # bound, so only a finiteness check keeps it from leaving a pass
    min_gap_over_v = sweep_module.min_gap_over_v

    def nan_gaps(*args, **kwargs):
        return tuple(replace(found, gap=math.nan) for found in min_gap_over_v(*args, **kwargs))

    monkeypatch.setattr(sweep_module, "min_gap_over_v", nan_gaps)
    doc = {"command": "verify-lemma", "sweep": {"ranks": [2, 3], "samples": 40}}
    code, report = cli.run(config_from_mapping(doc))
    assert (code, report["verdict"]) == (3, "error")
    error = report["results"]["error"]
    assert error["type"] == "InconsistentStateError"
    assert error["message"] == "rank 2, epsilon 0.0: non-finite polished gap"


def test_an_eigenvalue_below_its_bound_is_an_inconsistent_state(monkeypatch):
    # the rank-2 Griffiths bound at epsilon 0 is the minimum; raised by 1e-6
    # it lies above the minimum but below every random and basis vector's
    # value, so only the search of sample 0, audited though refuted,
    # reaches below it
    griffiths_lower_bound = sweep_module.griffiths_lower_bound
    monkeypatch.setattr(sweep_module, "griffiths_lower_bound", lambda coeff, terms: griffiths_lower_bound(coeff, terms) + 1e-6)
    sweep_keys = {"ranks": [2], "epsilons": [0.0], "samples": 8}
    code, report = cli.run(config_from_mapping({"command": "griffiths", "sweep": sweep_keys}))
    assert (code, report["verdict"]) == (3, "error")
    error = report["results"]["error"]
    assert error["type"] == "InconsistentStateError"
    message = error["message"]
    assert message.startswith("rank 2, epsilon 0.0, sample 0: smallest eigenvalue ")
    value, bound = (float(word) for word in message.split(": smallest eigenvalue ")[1].split(" lies below its proven lower bound "))
    assert bound - value == pytest.approx(1e-6, abs=1e-9)


@forks_a_pool
def test_a_worker_out_of_memory_is_an_error_and_the_pool_goes_on():
    # the seed-1 sweep runs out of memory in a worker only; the seed-2 sweep
    # then runs on the same workers
    code = """
import json, multiprocessing
from ample import cli, sweep
from ample.config import config_from_mapping

run_batch = sweep._run_batch

def out_of_memory_in_a_worker_at_seed_1(cfg, *job):
    if cfg.seed == 1 and multiprocessing.parent_process() is not None:
        raise MemoryError("Unable to allocate 58.2 TiB")
    return run_batch(cfg, *job)

sweep._run_batch = out_of_memory_in_a_worker_at_seed_1
out = []
for seed in (1, 2):
    sweep_keys = {"ranks": [2, 3], "samples": 8, "batch_size": 4, "threads": 2, "seed": seed}
    code, report = cli.run(config_from_mapping({"command": "verify-lemma", "sweep": sweep_keys}))
    pids = sorted(sweep._pool[1]._processes)
    out.append([code, report["verdict"], report["results"].get("error"), pids])
print(json.dumps(out))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""
    (code, verdict, error, pids), (*second, second_pids) = json.loads(proc.stdout)
    assert (code, verdict, error["type"]) == (3, "error", "AmpleError")
    assert error["message"] == "a sweep ran out of memory: Unable to allocate 58.2 TiB"
    assert second == [0, "pass", None]
    assert second_pids == pids


def test_elsewhere_than_linux_the_workers_are_threads(monkeypatch):
    # _keep_batch_memory is cached: called first under the patched platform,
    # it would leave this process without its malloc thresholds
    sweep_module._keep_batch_memory()

    def no_pool(workers):
        raise AssertionError(f"a pool of {workers} worker processes was asked for")

    names = set()
    run_batch = sweep_module._run_batch

    def recording(*job):
        names.add(threading.current_thread().name)
        return run_batch(*job)

    monkeypatch.setattr(sweep_module, "_process_pool", no_pool)
    monkeypatch.setattr(sweep_module, "_run_batch", recording)
    monkeypatch.setattr(sys, "platform", "darwin")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    def text(threads):
        sweep_keys = {"ranks": [2], "samples": 3, "batch_size": 1, "threads": threads}
        _, report = cli.run(config_from_mapping({"command": "griffiths", "sweep": sweep_keys}))
        return render(report)

    threaded = text(2)
    assert names and threading.main_thread().name not in names
    assert threaded == text(1)


@forks_a_pool
def test_consecutive_sweeps_run_on_the_same_workers(monkeypatch):
    cfg = replace(SMALL, threads=2)
    first = run_griffiths_sweep(cfg)
    pids = _worker_pids()
    assert len(pids) == 2
    assert run_griffiths_sweep(cfg) == first
    assert _worker_pids() == pids
    # another number of workers replaces the pool once the old one has exited
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(3)))
    assert run_griffiths_sweep(replace(cfg, threads=3)) == first
    assert len(_worker_pids()) == 3
    assert not _worker_pids() & pids
    assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)
    monkeypatch.undo()
    assert run_griffiths_sweep(cfg) == first


def test_sweep_without_random_vectors_reports_the_search_alone():
    # random_vectors may be 0: the screen then evaluates an empty block
    res = run_gap_sweep(replace(SMALL, random_vectors=0))
    assert res.passed
    assert all(c.worst.source == ADVERSARIAL_SOURCE for c in res.results)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_a_repeated_sweep_reuses_the_memory_of_its_batches():
    # a fresh process, so that no earlier test has moved malloc's thresholds
    # and its pool forks after they are set; without them each 2048-sample
    # batch faults its working set in afresh, about 1000 to 3000 pages.
    # With them a repeated sweep faults almost none, in the parent or in its
    # workers, unless a worker meets a larger batch than it has run before;
    # hence the fewest faults of three repetitions
    code = """
import resource
from ample import sweep
from ample.sweep import SweepConfig, run_griffiths_sweep

def faults():
    # minor faults of this process and of its pool's workers, field 10 of
    # /proc/<pid>/stat; on one usable CPU the sweep runs inline
    total = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for pid in sweep._pool[1]._processes if sweep._pool else ():
        with open(f"/proc/{pid}/stat") as fh:
            total += int(fh.read().rsplit(")", 1)[1].split()[7])
    return total

cfg = SweepConfig(ranks=(2, 3), epsilons=(0.1,), samples=4096, batch_size=2048,
                  threads=2, restarts=5, random_vectors=10, iterations=60)
run_griffiths_sweep(cfg)
counts = []
for _ in range(3):
    before = faults()
    run_griffiths_sweep(cfg)
    counts.append(faults() - before)
print(min(counts))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert int(proc.stdout) < 500


def test_polish_starts_from_the_batch_starts_of_the_worst_sample(monkeypatch):
    # a gap batch picks every sample's best basis vector, the first start
    # of any search, through sweep's basis_and_random_starts in one call
    # with one start per sample, and the starts of the samples it searches
    # in a second call; the polish descends through spheremin's
    # minimize_on_sphere
    first_starts, polish_starts = [], []

    def recording_starts(M, objective, restarts, *args):
        starts = make_starts(M, objective, restarts, *args)
        if restarts == 1:
            first_starts.append(starts)
        return starts

    def recording_descent(M, V0, *args, **kwargs):
        polish_starts.append(np.array(V0))
        return descend(M, V0, *args, **kwargs)

    make_starts, descend = sweep_module.basis_and_random_starts, spheremin.minimize_on_sphere
    monkeypatch.setattr(sweep_module, "basis_and_random_starts", recording_starts)
    monkeypatch.setattr(spheremin, "minimize_on_sphere", recording_descent)
    # random mode: batches of 16, 16 and 8 samples; projectively-flat mode:
    # one sample per configuration, whose random starts must still be its
    # own and not the default ones
    for mode, per_config in (("random", 3), ("projectively-flat", 1)):
        first_starts.clear()
        polish_starts.clear()
        cfg = replace(SMALL, batch_size=16, mode=mode)
        res = run_gap_sweep(cfg)  # jobs run in job order on one thread
        assert len(first_starts) == per_config * len(res.results)
        # one polish per rank; configurations are rank-major, so the polish
        # rows in call order are the configurations' worst samples in order
        assert len(polish_starts) == len(cfg.ranks)
        polish_rows = [row for call in polish_starts for row in call]
        assert len(polish_rows) == len(res.results)
        for ci, c in enumerate(res.results):
            seed, config_index, i = c.worst.seed
            assert (seed, config_index) == (cfg.seed, ci)
            M = spheremin.form_matrices(replay_worst(c.worst).coeff[None])
            random = spheremin.random_unit_vectors((seed, ci), i, 1, cfg.restarts - 1, c.rank)
            alone = spheremin.basis_and_random_starts(M, spheremin.det_objective, cfg.restarts, random)
            assert np.array_equal(polish_rows[ci], alone[0]), mode
            first = first_starts[ci * per_config + i // cfg.batch_size]
            assert np.array_equal(polish_rows[ci][:1], first[i % cfg.batch_size]), mode


def test_worst_record_replays_to_the_recorded_value():
    for mode in ("random", "projectively-flat"):
        res = run_gap_sweep(replace(SMALL, mode=mode))
        for c in res.results:
            pc = replay_worst(c.worst)
            assert pc.rank == c.rank
            assert pc.epsilon == c.epsilon
            again = pointwise_gap(pc, np.array(c.worst.v)).gap
            assert again == pytest.approx(c.worst.value, rel=1e-9, abs=1e-12)


def test_griffiths_worst_record_matches_eigenvalue_at_vector():
    res = run_griffiths_sweep(SMALL)
    for c in res.results:
        pc = replay_worst(c.worst)
        v = np.array(c.worst.v)
        q = np.einsum("i,ijab,j->ab", np.conj(v), pc.coeff, v) / np.vdot(v, v).real
        assert np.linalg.eigvalsh(q)[0] == pytest.approx(c.worst.value, abs=1e-10)


def test_projectively_flat_mode_pins_the_boundary():
    cfg = SweepConfig(ranks=(2, 4, 7), samples=100, seed=0, mode="projectively-flat")
    gap = run_gap_sweep(cfg)
    assert gap.passed
    for c in gap.results:
        assert c.samples == 1
        assert c.epsilon == 0.0
        assert abs(c.min_value) <= 1e-12
    eig = run_griffiths_sweep(cfg)
    assert eig.passed
    for c in eig.results:
        assert c.min_value == pytest.approx(1.0 / c.rank, abs=1e-9)


def test_values_a_few_ulps_apart_make_one_histogram_bin():
    # np.histogram refuses 40 bins on a range that holds fewer floats, as the
    # values of samples at one curvature can span
    values = np.array([0.5, np.nextafter(0.5, 0.0), 0.5])
    assert sweep_module._histogram(values, 40) == ((float(values[1]), 0.5, 3),)
    assert sweep_module._histogram(np.full(4, 0.25), 40) == ((0.25, 0.25, 4),)


def test_histogram_export_round_trips(tmp_path):
    res = run_gap_sweep(SMALL)
    path = tmp_path / "hist.csv"
    export_histograms(res, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "epsilon", "bin_lo", "bin_hi", "count"]
    body = rows[1:]
    assert len(body) == sum(len(c.histogram) for c in res.results)
    by_config = {}
    for rank, eps, lo, hi, count in body:
        by_config.setdefault((int(rank), float(eps)), 0)
        by_config[(int(rank), float(eps))] += int(count)
        assert float(lo) <= float(hi)
    for c in res.results:
        assert by_config[(c.rank, c.epsilon)] == c.samples


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SweepConfig(ranks=())
    with pytest.raises(InvalidInputError):
        SweepConfig(ranks=(1,))
    with pytest.raises(InvalidInputError):
        SweepConfig(ranks=(2,), epsilons=(-0.1,))
    with pytest.raises(InvalidInputError):
        SweepConfig(ranks=(2,), samples=0)
    with pytest.raises(InvalidInputError):
        SweepConfig(ranks=(2,), mode="adaptive")
    with pytest.raises(InvalidInputError):
        SweepConfig(ranks=(2,), threads=0)


def test_lagrange_check_passes_and_is_reproducible():
    a = run_lagrange_check(150, 9)
    b = run_lagrange_check(150, 9)
    assert a == b
    assert a.passed
    assert a.max_abs_diff <= 1e-6
    w = a.worst
    assert len(w.b_diag) == w.rank
    assert abs(sum(w.b_diag)) <= 1e-12
    assert abs(w.closed_form - w.numeric) == a.max_abs_diff


def test_lagrange_check_validation():
    with pytest.raises(InvalidInputError):
        run_lagrange_check(0, 1)
    with pytest.raises(InvalidInputError):
        run_lagrange_check(10, -1)


def test_constraint_residuals_gate_the_sweep():
    # at epsilon 1e12 the sampled trace is off by 6e-5; the gaps themselves
    # stay finite and positive, so only the residual gate can catch it
    cfg = SweepConfig(ranks=(2,), epsilons=(1e12,), samples=64, restarts=1, iterations=5)
    message = r"rank 2, epsilon 1000000000000\.0: curvature constraints violated"
    with pytest.raises(InconsistentStateError, match=message):
        run_gap_sweep(cfg)


def test_broken_constraints_stop_before_the_search():
    # at epsilon 1e160 the search would overflow in the eigenvalue objective;
    # the batch stops at its residuals, so no numpy warning is raised first
    cfg = SweepConfig(ranks=(2,), epsilons=(1e160,), samples=4)
    message = r"rank 2, epsilon 1e\+160: curvature constraints violated"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InconsistentStateError, match=message):
            run_griffiths_sweep(cfg)


@pytest.mark.parametrize("name, minimum", INT_MINIMUMS.items())
def test_integer_minimums_hold_in_the_library_and_the_config(name, minimum):
    assert getattr(SweepConfig(ranks=(2,), **{name: minimum}), name) == minimum
    with pytest.raises(InvalidInputError, match=f"^{name} must be >= {minimum}$"):
        SweepConfig(ranks=(2,), **{name: minimum - 1})
    doc = {"command": "verify-lemma", "sweep": {"ranks": [2], name: minimum - 1}}
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(doc)
    assert str(exc.value) == f"sweep.{name}: must be >= {minimum}, got {minimum - 1}"


@pytest.mark.parametrize(
    "name, value",
    [("tol", 0.0), ("tol", -1e-6), ("tol", float("nan")), ("tol", float("inf")),
     ("threshold", -1e-9), ("threshold", float("nan")), ("threshold", float("inf"))],
)
def test_tol_and_threshold_must_be_finite_with_tol_positive(name, value):
    # a NaN threshold fails every value yet certifies every bound, and a NaN
    # tol stops every descent before its first step yet counts it converged
    rule = "> 0" if name == "tol" else ">= 0"
    with pytest.raises(InvalidInputError, match=f"^{name} must be finite and {rule}, got "):
        SweepConfig(ranks=(2,), **{name: value})
    assert SweepConfig(ranks=(2,), tol=1e-300, threshold=0.0).threshold == 0.0
    if math.isfinite(value):
        doc = {"command": "verify-lemma", "sweep": {"ranks": [2], name: value}}
        with pytest.raises(ConfigError) as exc:
            config_from_mapping(doc)
        assert str(exc.value).startswith(f"sweep: {name} must be finite and {rule}, got ")
