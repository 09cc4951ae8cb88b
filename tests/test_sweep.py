import csv
import os
import platform
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ample import spheremin
from ample import sweep as sweep_module
from ample.config import config_from_mapping
from ample.curvature import pointwise_gap
from ample.errors import ConfigError, InconsistentStateError, InvalidInputError
from ample.sweep import (
    ADVERSARIAL_SOURCE,
    INT_MINIMUMS,
    RANDOM_SOURCE,
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
        assert c.mean_value >= c.min_value
        assert c.worst.value == c.min_value
        assert c.worst.source in (RANDOM_SOURCE, ADVERSARIAL_SOURCE)
        assert sum(count for _, _, count in c.histogram) == 40
        assert 0.0 <= c.converged_fraction <= 1.0
    assert res.min_value == min(c.min_value for c in res.results)
    assert res.residual_max < 1e-9


def test_sweep_is_reproducible():
    assert run_gap_sweep(SMALL) == run_gap_sweep(SMALL)


def test_sweep_independent_of_thread_count_and_batch_size():
    # 13 splits the 40 samples into 4 uneven batches at offsets that are not
    # multiples of the 4 words of a Philox block
    for sweep in (run_gap_sweep, run_griffiths_sweep):
        base = sweep(SMALL)
        for changes in ({"threads": 4}, {"batch_size": 1}, {"batch_size": 7}, {"batch_size": 13, "threads": 3}):
            assert sweep(replace(SMALL, **changes)) == base, changes


def test_pool_never_has_more_workers_than_jobs_or_cpus(monkeypatch):
    # a stand-in pool that records its size and maps serially, so that a
    # million requested threads start none
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(sweep_module, "ThreadPoolExecutor", SerialPool)
    cfg = replace(SMALL, ranks=(2,), epsilons=(0.0,), batch_size=1, threads=10**6)
    assert run_gap_sweep(replace(cfg, samples=1)).passed
    assert run_gap_sweep(replace(cfg, samples=3)).passed
    assert sizes == [1, min(3, os.cpu_count() or 1)]


def test_sweep_without_random_vectors_reports_the_search_alone():
    # random_vectors may be 0: the screen then evaluates an empty block
    res = run_gap_sweep(replace(SMALL, random_vectors=0))
    assert res.passed
    assert all(c.worst.source == ADVERSARIAL_SOURCE for c in res.results)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_a_repeated_sweep_reuses_the_memory_of_its_batches():
    # a fresh process, so that no earlier test has moved malloc's thresholds;
    # without them each 2048-sample batch faults its working set in afresh,
    # about 1000 to 3000 pages.  With them a repeated sweep faults almost
    # none, unless a new worker thread gets a fresh heap, which happens when
    # the pool's threads start before the last pool's have fully exited;
    # hence the fewest faults of three repetitions
    code = """
import resource
from ample.sweep import SweepConfig, run_griffiths_sweep
cfg = SweepConfig(ranks=(2, 3), epsilons=(0.1,), samples=4096, batch_size=2048,
                  threads=2, restarts=5, random_vectors=10, iterations=60)
run_griffiths_sweep(cfg)
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_griffiths_sweep(cfg)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(min(faults))
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert int(proc.stdout) < 500


def test_polish_starts_from_the_batch_starts_of_the_worst_sample(monkeypatch):
    # the batches descend through sweep's minimize_on_sphere and the polish
    # through spheremin's; record the starting block of each call
    batch_starts, polish_starts = [], []

    def recording(starts, descend):
        def wrapped(M, V0, *args, **kwargs):
            starts.append(np.array(V0))
            return descend(M, V0, *args, **kwargs)

        return wrapped

    monkeypatch.setattr(sweep_module, "minimize_on_sphere", recording(batch_starts, sweep_module.minimize_on_sphere))
    monkeypatch.setattr(spheremin, "minimize_on_sphere", recording(polish_starts, spheremin.minimize_on_sphere))
    # random mode: batches of 16, 16 and 8 samples; projectively-flat mode:
    # one sample per configuration, whose random starts must still be the
    # batch's and not the default ones
    for mode, per_config in (("random", 3), ("projectively-flat", 1)):
        batch_starts.clear()
        polish_starts.clear()
        cfg = replace(SMALL, batch_size=16, mode=mode)
        res = run_gap_sweep(cfg)  # jobs run in job order on one thread
        assert len(batch_starts) == per_config * len(res.results)
        # one polish per rank; configurations are rank-major, so the polish
        # rows in call order are the configurations' worst samples in order
        assert len(polish_starts) == len(cfg.ranks)
        polish_rows = [row for call in polish_starts for row in call]
        assert len(polish_rows) == len(res.results)
        for ci, c in enumerate(res.results):
            seed, config_index, i = c.worst.seed
            assert (seed, config_index) == (cfg.seed, ci)
            batch = batch_starts[ci * per_config + i // cfg.batch_size]
            assert np.array_equal(polish_rows[ci], batch[i % cfg.batch_size]), mode


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
