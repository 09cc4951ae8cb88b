"""Deterministic Monte Carlo sweeps over sampled curvatures.

Two drivers share one batching engine and one decision rule.  The
inequality sweep's value at a unit vector is the gap of the pointwise
inequality, the positivity sweep's the smallest eigenvalue of the
normalized curvature form; a gap passes at >= -threshold, an eigenvalue
when it is > 0 (_passes).  Every sample's value is bounded below over all
vectors in closed form (curvature.det_lower_bound mapped to the gap,
curvature.griffiths_lower_bound) and screened at two vectors: the bound's
extremal vector (curvature.extremal_vectors), computed from the same
terms as the bound, and the best basis vector.  A sample is decided when
its bound passes, and it is then certified, or when a screened value fails
it.  The samples that are not decided and, as an audit of the bound, every
AUDIT_STRIDE-th sample are also screened at random test vectors and
searched by the adversarial multi-start descent.  A sample's candidates
are taken in this order: the extremal vector, the best basis vector, the
random test vectors and the ends of the search; its value, vector and
source are those of the first lowest.  A sweep passes when its lowest
value found passes.  Every value found, the polished ones too, is checked
against its sample's bound.

Determinism contract: configuration config_index of a sweep with base
seed s owns Philox streams keyed by SeedSequence((s, config_index),
spawn_key=(k,)): stream 0 samples the curvatures and stream 2 gives the
random test vectors of the searched samples, whose first restarts - 1
slots are also the random starts of their search.  Sample i reads row i of
each stream, a fixed-stride window that no other sample touches (see
curvature.seeded_draws), so a batch draws its samples with one generator
per stream and vector slot, stream 2 only over the span of its searched
samples, whose draws alone it makes normals, and a sample never depends
on the batch it falls in.  Configurations are enumerated rank-major over
(ranks x epsilons).  Work is split into fixed-size batches by sample index, and
each rank's batches into min(workers, their count) contiguous runs; the
runs of all configurations are one job list on workers = min(threads,
batches, usable CPUs) workers.  A run screens, bounds and decides its
batches one by one and then descends their searched rows in one
minimize_on_sphere call, or in several once batch_size rows are pending.
One worker runs the jobs inline in the calling thread.  More run, on
Linux, in forked worker processes of one pool that lives as long as the
process, so that batches do not contend for the GIL and a worker keeps its
heap from one sweep to the next; elsewhere they run on a thread pool of the
sweep's own.  Each batch is a pure function of the seed, rows of a descent
never interact, and after all runs finish the reductions run in the calling
process per configuration, in configuration order and then batch order, so
results are bitwise identical for any worker count and batch size.

A batch whose sampled curvatures break the constraints skips the search,
and its configuration's reduction raises InconsistentStateError.  The
worst record of each configuration replays through replay_worst, in the
random and the projectively-flat mode alike, and the polish of a gap
sweep's worst samples searches those replays, one batched search per rank.
"""

from __future__ import annotations

import atexit
import csv
import ctypes
import functools
import itertools
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import SweepConfig
from .curvature import (
    OPTIMIZER_TOL,
    VALIDATION_TOL,
    PointCurvature,
    _batch_residuals,
    _bound_terms,
    _coefficient_count,
    batch_lhs_density,
    build_batch,
    check_residuals,
    det_lower_bound,
    error_term_density,
    extremal_vectors,
    gap_scale_offset,
    gating_residuals,
    griffiths_lower_bound,
    lagrange_max,
    lagrange_max_numeric,
    projectively_flat,
    sample_curvature,
    seeded_draws,
    violations,
)
from .errors import AmpleError, InconsistentStateError, InvalidInputError
from .spheremin import (
    basis_and_random_starts,
    det_objective,
    form_matrices,
    lmin_objective,
    min_gap_over_v,
    minimize_on_sphere,
    objective_values,
    random_unit_vectors,
)

EXTREMAL_SOURCE = "extremal-vector"
BASIS_SOURCE = "basis-vector"
RANDOM_SOURCE = "random-vector"
ADVERSARIAL_SOURCE = "adversarial"
# the source of a screened value by the index of its vector, in screening order
SCREEN_SOURCES = (EXTREMAL_SOURCE, BASIS_SOURCE, RANDOM_SOURCE)

# a sweep searches every sample whose index is a multiple of this, decided
# or not, so that every sweep tests the bound against a search
AUDIT_STRIDE = 64

@dataclass(frozen=True)
class WorstRecord:
    """The lowest value seen in one configuration, with enough data to replay it.

    seed is (base seed, config index, sample index), which sample_curvature
    reads as that sample's row of key (base seed, config index), so replaying
    it rebuilds the sample and the starts of its search; v is the offending
    vector; source tells whether the bound's extremal vector, the best basis
    vector, a random test vector or the adversarial search found it
    (EXTREMAL_SOURCE, BASIS_SOURCE, RANDOM_SOURCE, ADVERSARIAL_SOURCE); mode
    is the sampler mode, which replay_worst needs and reports leave out.
    """

    rank: int
    epsilon: float
    seed: tuple[int, ...]
    value: float
    v: tuple[complex, ...]
    source: str
    mode: str = "random"


@dataclass(frozen=True)
class ConfigResult:
    rank: int
    epsilon: float
    samples: int
    min_value: float
    mean_value: float
    worst: WorstRecord
    residual_max: dict[str, float]
    converged_fraction: float
    histogram: tuple[tuple[float, float, int], ...]
    certified: int
    min_bound: float


@dataclass(frozen=True)
class SweepResult:
    results: tuple[ConfigResult, ...]
    min_value: float
    residual_max: float
    passed: bool


def _histogram(values: np.ndarray, bins: int) -> tuple[tuple[float, float, int], ...]:
    lo = float(values.min())
    hi = float(values.max())
    # np.histogram refuses a range that holds too few floats for distinct edges
    if not (np.diff(np.linspace(lo, hi, bins + 1)) > 0).all():
        return ((lo, hi, int(values.size)),)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    )


def _run_batch(cfg: SweepConfig, kind: str, ci: int, r: int, epsilon: float, lo: int, hi: int):
    """Screen, bound and decide samples lo..hi-1 of one configuration; pure in (cfg, args).

    Returns (M, V0, finish): the form matrices and starts of the samples
    left to search, and finish(V, f, converged), which takes their search
    (minimize_on_sphere's output) and returns (values, minimum, residual
    maxima, converged count, bound), where minimum is (sample index, v,
    source) of the first lowest value and bound is (certified count, lowest
    bound).  finish holds only per-sample values and a few arrays of the
    searched rows, so that a run of batches can wait for one search.
    Every sample's value is bounded below in closed form (_bound) and
    screened at two vectors: its bound's extremal vector
    (curvature.extremal_vectors, from the bound's own terms) and its best
    basis vector, the first start of a search.  A sample is decided when
    its bound passes (_passes) or a screened value fails; the search runs
    on the samples that are not decided and, as an audit of the bound, on
    those whose index is a multiple of AUDIT_STRIDE.  Only the searched
    samples draw random vectors: the first random_vectors are test vectors
    and the first restarts - 1 the random starts of their search.
    A sample's candidates are taken in this order: the extremal vector,
    the best basis vector, and for a searched sample its random test
    vectors and the ends of its search.  Its value, vector and source are
    those of the first lowest candidate, so a later one counts only where
    it is lower; a NaN candidate is taken, and _reduce rejects it.  A
    certified sample is one whose bound passes.  A decided sample counts as
    converged, a searched one that is not decided when it converged in
    every start.  A value below its sample's bound by more than rounding is
    InconsistentStateError, since the bound is a theorem.  A batch whose
    constraint residuals fail check_residuals' rule stops right after them,
    with nothing to search, and finishes with NaN values and no minimum:
    the search would only run on numbers that break the constraints.
    """
    n = hi - lo
    key = (cfg.seed, ci)
    if cfg.mode == "projectively-flat":
        pf = projectively_flat(r)
        coeff = np.broadcast_to(pf.coeff, (n, r, r, 2, 2))
        B = np.broadcast_to(pf.B, (n, r, r))
    else:
        coeff, B = build_batch(r, epsilon, seeded_draws(key, lo, n, _coefficient_count(r)))
    residual_max = _batch_residuals(coeff, B, epsilon)
    if violations(residual_max):
        M, V0 = np.empty((0, 2, 2, r, r), complex), np.empty((0, cfg.restarts, r), complex)
        return M, V0, lambda *search: (np.full(n, np.nan), None, residual_max, 0, None)
    M = form_matrices(coeff)

    R = cfg.random_vectors
    objective = _objective(kind)
    terms = _bound_terms(coeff)
    scale, offsets, bound, floor = _bound(kind, coeff, epsilon, terms)
    extremal = extremal_vectors(coeff, kind == "griffiths", terms)[:, None]
    V = np.concatenate([extremal, basis_and_random_starts(M, objective, 1, np.empty((n, 0, r)))], axis=1)
    screen = scale * objective_values(M, V, objective) + offsets[:, None]
    idx = np.argmin(screen, axis=1)
    values = screen[np.arange(n), idx]
    certified = _passes(cfg, kind, bound)
    decided = certified | ~_passes(cfg, kind, values)
    search = ~decided | (np.arange(lo, hi) % AUDIT_STRIDE == 0)
    searched, free = np.flatnonzero(search), np.flatnonzero(~search)
    # the screened vector of the first lowest unsearched sample, the only
    # one of them that can hold the batch's minimum
    i = int(free[np.argmin(values[free])]) if free.size else 0
    unsearched = (tuple(V[i, idx[i]]), SCREEN_SOURCES[idx[i]])
    # only the searched samples draw random vectors: the random test vectors
    # are the first slots of their stream and the random starts of a search
    # its first restarts - 1
    random = random_unit_vectors(key, lo, n, max(R, cfg.restarts - 1), r, searched)
    Ms = form_matrices(coeff[searched])
    V0 = basis_and_random_starts(Ms, objective, cfg.restarts, random)
    # a searched sample's candidates before its search, in screening order;
    # objective_values reads each row alone, so the screened two keep their bits
    tested = np.concatenate([V[searched], random[:, :R]], axis=1)
    offsets = offsets[searched, None]
    at_tested = scale * objective_values(Ms, tested, objective) + offsets
    sources = SCREEN_SOURCES[:2] + (RANDOM_SOURCE,) * R + (ADVERSARIAL_SOURCE,) * cfg.restarts
    bound_min, undecided = float(bound.min()), ~decided[searched]
    certified, decided = int(certified.sum()), int(decided.sum())

    def finish(Vs, fs, converged):
        found = np.concatenate([at_tested, scale * fs + offsets], axis=1)
        j = np.argmin(found, axis=1)
        values[searched] = found[np.arange(len(searched)), j]
        _check_bound(kind, r, epsilon, range(lo, hi), values, bound, floor)
        i = int(np.argmin(values))
        k = int(np.searchsorted(searched, i))
        v, source = unsearched
        if k < len(searched) and searched[k] == i:
            v, source = tuple(np.concatenate([tested[k], Vs[k]])[j[k]]), sources[j[k]]
        converged = decided + int(converged.all(axis=1)[undecided].sum())
        return values, (lo + i, v, source), residual_max, converged, (certified, bound_min)

    return Ms, V0, finish


def _run_batches(cfg: SweepConfig, kind: str, r: int, batches) -> list:
    """The results of a run of batches (ci, epsilon, lo, hi) of rank r, in order.

    _run_batch screens, bounds and decides each batch, and the searched
    rows of consecutive batches descend in one minimize_on_sphere call, so
    that a run pays the descent's per-call cost once, not per batch.  The
    rows pending a search never pass batch_size: a batch that would take
    them past it first has the pending ones searched.  Rows never
    interact, so every value has the bits of a search per batch, and the
    batches are finished in order, so an InconsistentStateError names the
    first offending sample.
    """
    results, pending = [], []

    def search():
        M, V0 = (np.concatenate([batch[k] for batch in pending]) for k in (0, 1))
        V, f, converged = minimize_on_sphere(M, V0, _objective(kind), cfg.iterations, cfg.tol)
        ends = np.cumsum([len(M) for M, _, _ in pending])[:-1]
        for (_, _, finish), *part in zip(pending, *(np.split(a, ends) for a in (V, f, converged))):
            results.append(finish(*part))
        pending.clear()

    for ci, epsilon, lo, hi in batches:
        batch = _run_batch(cfg, kind, ci, r, epsilon, lo, hi)
        if sum(len(M) for M, _, _ in pending) + len(batch[0]) > cfg.batch_size:
            search()
        pending.append(batch)
    search()
    return results


def _passes(cfg: SweepConfig, kind: str, x):
    """The pass predicate of a sweep kind, on values or on bounds: a gap
    passes at >= -threshold, a smallest eigenvalue when it is > 0.

    A sweep passes when its lowest value does (_run_sweep), a sample is
    certified when its bound does and refuted when a value found fails.
    """
    return x >= -cfg.threshold if kind == "gap" else x > 0


def _objective(kind: str):
    """The objective a sweep kind descends, looked up on this module when called."""
    return det_objective if kind == "gap" else lmin_objective


def _bound(kind: str, coeff: np.ndarray, epsilon: float, terms=None):
    """(scale, offsets, bound, floor) of a batch of one sweep kind; terms
    are coeff's _bound_terms, or None for the bound to compute them.

    A value at v is scale * objective + offsets per sample (_objective);
    bound is each sample's proven lower bound on its values over all v, and
    floor is bound less the rounding a computed value may carry, the lowest
    value _check_bound accepts.  A gap is an affine map of det, its bound is
    det_lower_bound mapped the same way and its rounding relative to the terms
    whose difference the gap is; a smallest eigenvalue is the objective itself
    with rounding relative to its bound.  _polish reads its bounds here too.
    """
    if kind == "gap":
        r = coeff.shape[1]
        lhs = batch_lhs_density(coeff)
        scale, offsets = gap_scale_offset(r, epsilon, lhs)
        bound = scale * det_lower_bound(coeff, terms) + offsets
        floor = bound - VALIDATION_TOL * (1.0 + np.abs(lhs) + error_term_density(r, epsilon))
        return scale, offsets, bound, floor
    bound = griffiths_lower_bound(coeff, terms)
    floor = bound - VALIDATION_TOL * (1.0 + np.abs(bound))
    return 1.0, np.zeros(len(bound)), bound, floor


def _check_bound(kind: str, r: int, epsilon: float, samples, values, bound, floor) -> None:
    """Raise InconsistentStateError at the first value below its floor.

    samples are the sample indices of the values; the bound is a theorem,
    so a value found below it is a bug in the code, not in the mathematics.
    """
    below = np.flatnonzero(values < floor)
    if below.size:
        j = int(below[0])
        what = "gap" if kind == "gap" else "smallest eigenvalue"
        raise InconsistentStateError(
            f"rank {r}, epsilon {epsilon!r}, sample {samples[j]}: {what} {float(values[j])!r} "
            f"lies below its proven lower bound {float(bound[j])!r}"
        )


def _polish(cfg: SweepConfig, results: list[ConfigResult]) -> list[ConfigResult]:
    """Refine the worst records of a gap sweep on their replayed curvatures.

    Runs a longer adversarial search from the same deterministic starts, one
    batched search per rank over the records of that rank; each record gets
    the bits of a search of its own.  A record takes the polished value
    where it is lower; a polished value below its sample's bound is
    InconsistentStateError, as in the batches.
    Eigenvalue sweeps are not polished, so their record keeps the value-at-v
    pairing intact.
    """
    results = list(results)
    for r in dict.fromkeys(c.rank for c in results):
        idx = [k for k, c in enumerate(results) if c.rank == r]
        pcs = [replay_worst(results[k].worst) for k in idx]
        refined = min_gap_over_v(pcs, restarts=cfg.restarts, tol=1e-8, iterations=400)
        for k, pc, found in zip(idx, pcs, refined):
            c = results[k]
            _, _, bound, floor = _bound("gap", pc.coeff[None], c.epsilon)
            _check_bound("gap", r, c.epsilon, c.worst.seed[2:], np.array([found.gap]), bound, floor)
            if found.gap < c.worst.value:
                worst = replace(c.worst, value=found.gap, v=found.v, source=ADVERSARIAL_SOURCE)
                results[k] = replace(c, worst=worst, min_value=found.gap)
    return results


def _reduce(cfg: SweepConfig, ci: int, r: int, epsilon: float, batches) -> ConfigResult:
    """One configuration's result from its batches, taken in sample order."""
    values, minima, residuals, converged, bounds = zip(*batches)
    residual_max = {key: max(res[key] for res in residuals) for key in residuals[0]}
    where = f"rank {r}, epsilon {epsilon!r}: "
    check_residuals(residual_max, where=where)
    values = np.concatenate(values)
    mean = float(values.mean())
    if not (np.isfinite(values).all() and math.isfinite(mean)):
        raise InconsistentStateError(f"{where}non-finite sweep values")

    # the configuration's first minimum is the first minimum of its batch
    i, v, source = minima[int(np.argmin(values)) // cfg.batch_size]
    worst = WorstRecord(r, epsilon, (cfg.seed, ci, i), float(values[i]), v, source, cfg.mode)
    return ConfigResult(
        rank=r,
        epsilon=epsilon,
        samples=values.size,
        min_value=float(values.min()),
        mean_value=mean,
        worst=worst,
        residual_max=residual_max,
        converged_fraction=sum(converged) / values.size,
        histogram=_histogram(values, cfg.histogram_bins),
        certified=sum(c for c, _ in bounds),
        min_bound=min(b for _, b in bounds),
    )


@functools.cache
def _keep_batch_memory() -> None:
    """Let glibc's malloc keep freed batch memory instead of returning it.

    A batch allocates and frees its whole working set, about 9 MB for a
    rank-3 griffiths batch of 2048 samples.  Under glibc's dynamic
    thresholds a thread's heap gives freed memory back to the kernel once
    more than twice the largest freed mapping (there about 6 MB) is free at
    its top, so each batch faulted its working set in afresh: 20 000 to
    55 000 page faults per command of the griffiths-lowrank-2t benchmark,
    by the heap layout each process happened to reach, and a varying share
    of its CPU time in the kernel.  With the thresholds set here, the
    largest that glibc's own dynamic rule can reach (M_MMAP_THRESHOLD
    32 MiB, M_TRIM_THRESHOLD twice that), a command faults a few dozen
    pages.  The setting is process-wide and made once, on the first sweep,
    before any worker forks, so that the workers inherit it; elsewhere than
    glibc on Linux nothing is changed.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _usable_cpus() -> int:
    """The CPUs this process may run on, fewer than the machine's under taskset."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the pool of multi-worker sweeps on Linux, as (workers, executor)
_pool = None


def _process_pool(workers: int):
    """This process's pool of `workers` forked sweep workers, made on first use.

    It lives until the process exits; a sweep that asks for another number
    of workers shuts it down, waiting for its workers, before the new pool
    forks.  fork, not spawn or forkserver: those re-import __main__, which
    a script without an `if __name__ == "__main__"` guard does not survive.
    A forked worker inherits the malloc thresholds of _keep_batch_memory and
    keeps its heap from one sweep to the next.  Sweeps that run at once in
    several threads share the pool, so they must ask for the same number of
    workers.
    """
    global _pool
    if _pool is not None and _pool[0] != workers:
        _close_pool()
    if _pool is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = multiprocessing.get_context("fork")
        _pool = (workers, ProcessPoolExecutor(workers, mp_context=fork, initializer=_worker_init))
    return _pool[1]


@atexit.register
def _close_pool() -> None:
    """Shut the process pool down, if there is one, waiting for its workers.

    Also run at exit, before the interpreter tears its modules down, which
    the executor's own clean-up on collection does not survive.
    """
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=True)
        _pool = None


def _worker_init() -> None:
    """Leave Ctrl-C to the parent, and exit as soon as the parent has.

    A worker waits for jobs on a pipe that it holds both ends of, so a
    parent killed by a signal would otherwise leave it waiting for ever.
    """
    import multiprocessing.connection
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    sentinel = multiprocessing.parent_process().sentinel

    def exit_with_parent():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=exit_with_parent, daemon=True).start()


def _map_jobs(jobs: list[tuple], workers: int) -> list:
    """_run_batches(*job) for each job on `workers` workers, with the results
    in job order.

    One worker runs the jobs inline.  More run on the process pool on Linux
    and on a thread pool of the sweep's own elsewhere; _run_batches is a
    module function, so a process pool sends it by name.  A worker that
    dies is an AmpleError, and the next sweep forks a fresh pool.
    """
    if workers == 1:
        return [_run_batches(*job) for job in jobs]
    if not sys.platform.startswith("linux"):
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_batches, *zip(*jobs)))
    from concurrent.futures.process import BrokenProcessPool

    try:
        return list(_process_pool(workers).map(_run_batches, *zip(*jobs)))
    except BrokenProcessPool as exc:
        _close_pool()
        raise AmpleError(f"a sweep worker process died: {exc}") from None


def _check_array_sizes(cfg: SweepConfig, n: int) -> None:
    """Raise the out-of-memory AmpleError, before anything is allocated, for
    a sweep with n samples per batch whose arrays numpy could not make.

    numpy refuses an array of more than sys.maxsize bytes with ValueError,
    not MemoryError.  No array of a batch holds more than
    n (restarts + random_vectors) 4r^2 complex numbers, the descent's copies
    of the form matrices for every vector, since at most n samples draw
    random vectors and are searched; a run's descent takes at most n rows
    of its batches at once (_run_batches).  The histogram holds
    histogram_bins + 1 edges.
    """
    vectors = n * (cfg.restarts + cfg.random_vectors) * 4 * max(cfg.ranks) ** 2
    if 16 * vectors > sys.maxsize or 8 * (cfg.histogram_bins + 1) > sys.maxsize:
        raise AmpleError(
            f"a sweep ran out of memory: its arrays would pass numpy's limit of {sys.maxsize} bytes"
        )


def _run_sweep(cfg: SweepConfig, kind: str) -> SweepResult:
    _keep_batch_memory()
    configs = [(r, e) for r in cfg.ranks for e in cfg.epsilons]
    samples = cfg.samples
    if cfg.mode == "projectively-flat":
        configs = [(r, 0.0) for r in cfg.ranks]
        samples = 1
    spans = [(lo, min(lo + cfg.batch_size, samples)) for lo in range(0, samples, cfg.batch_size)]
    batches = [(ci, r, e, lo, hi) for ci, (r, e) in enumerate(configs) for lo, hi in spans]
    workers = min(cfg.threads, len(batches), _usable_cpus())
    # each rank's consecutive batches split into min(workers, their count)
    # contiguous runs, the jobs, which a worker screens batch by batch and
    # searches together
    jobs = []
    for r, group in itertools.groupby(batches, key=lambda batch: batch[1]):
        group = [(ci, e, lo, hi) for ci, _, e, lo, hi in group]
        runs = min(workers, len(group))
        jobs += [(cfg, kind, r, group[k * len(group) // runs : (k + 1) * len(group) // runs]) for k in range(runs)]
    per = len(spans)
    _check_array_sizes(cfg, spans[0][1])
    try:
        done = [batch for run in _map_jobs(jobs, workers) for batch in run]
        results = [
            _reduce(cfg, ci, r, e, done[ci * per : (ci + 1) * per])
            for ci, (r, e) in enumerate(configs)
        ]
        if kind == "gap":
            results = _polish(cfg, results)
    except MemoryError as exc:
        # here or in a worker's batch, as for restarts = 10**12
        raise AmpleError(f"a sweep ran out of memory: {exc}") from None
    results = tuple(results)
    min_value = min(c.min_value for c in results)
    residual_max = max(v for c in results for v in gating_residuals(c.residual_max).values())
    return SweepResult(results, min_value, residual_max, _passes(cfg, kind, min_value))


def run_gap_sweep(cfg: SweepConfig) -> SweepResult:
    """Monte Carlo verification of the pointwise inequality.

    Per sample, the gap is bounded below in closed form and evaluated at
    the bound's extremal vector and the best basis vector; a sample whose
    bound is below -threshold and whose values found are not, and every
    AUDIT_STRIDE-th sample, is also evaluated at `random_vectors` random
    unit vectors and minimized adversarially from `restarts` starts.
    Passing means the minimum over everything found is at least
    -threshold.  Each configuration reports how many samples the bound
    certified and the lowest bound.
    """
    return _run_sweep(cfg, "gap")


def run_griffiths_sweep(cfg: SweepConfig) -> SweepResult:
    """Minimum eigenvalue sweep of the normalized form <v, Theta v>.

    Per sample, the smallest eigenvalue over unit v is bounded below in
    closed form and evaluated at the bound's extremal vector and the best
    basis vector.  A sample whose bound is > 0 is certified Griffiths
    positive, and one with a value <= 0 found is refuted; only the others,
    and every AUDIT_STRIDE-th sample, are also evaluated at
    `random_vectors` random unit vectors and minimized adversarially from
    `restarts` starts.  Passing means every value found
    stayed strictly positive, i.e. Griffiths positivity held at each
    sampled point as far as the bound and the search can tell.  Each
    configuration reports how many samples the bound certified and the
    lowest bound.  Random curvatures need not be positive; in the
    projectively-flat mode the minimum and the bound are 1/r, and the
    reported min is 1/r up to rounding, which can put it a few ulps below
    min_bound (0.49999999999999983 against 0.5 at r = 2).
    """
    return _run_sweep(cfg, "griffiths")


def replay_worst(record: WorstRecord) -> PointCurvature:
    """Reconstruct the curvature behind a worst record.

    A projectively-flat record replays to projectively_flat(rank) carrying
    the record's seed, any other to the public sampler at its seed; either
    way a search of the replay starts where the batch's search did.
    """
    if record.mode == "projectively-flat":
        return replace(projectively_flat(record.rank), seed=record.seed)
    return sample_curvature(record.rank, record.epsilon, record.seed)


@dataclass(frozen=True)
class LagrangeInstance:
    rank: int
    mu: float
    b_diag: tuple[float, ...]
    closed_form: float
    numeric: float


@dataclass(frozen=True)
class LagrangeCheckResult:
    samples: int
    seed: int
    max_abs_diff: float
    worst: LagrangeInstance
    passed: bool


def run_lagrange_check(samples: int, seed: int) -> LagrangeCheckResult:
    """Compare the closed-form constrained maximum against iterative ascent.

    Draws random (rank 2-8, mu, trace-free diagonal B with entries in
    [-0.2, 0.2]) instances from one seeded stream and records the largest
    absolute disagreement; passing means it stays within 1e-6.
    """
    if samples < 1:
        raise InvalidInputError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    g = np.random.default_rng(seed)
    worst = None
    max_diff = -1.0
    for _ in range(samples):
        r = int(g.integers(2, 9))
        mu = float(g.uniform(-2.0, 2.0))
        b = g.uniform(-0.1, 0.1, size=r)
        b -= b.mean()
        closed = lagrange_max(r, mu, b)
        numeric = lagrange_max_numeric(r, mu, b)
        diff = abs(closed - numeric)
        if diff > max_diff:
            max_diff = diff
            worst = LagrangeInstance(r, mu, tuple(float(x) for x in b), closed, numeric)
    return LagrangeCheckResult(samples, seed, max_diff, worst, max_diff <= OPTIMIZER_TOL)


def export_histograms(result: SweepResult, path: str) -> None:
    """Write per-configuration value histograms as CSV rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "epsilon", "bin_lo", "bin_hi", "count"])
        for config in result.results:
            for lo, hi, count in config.histogram:
                writer.writerow([config.rank, repr(config.epsilon), repr(lo), repr(hi), count])
