"""Deterministic Monte Carlo sweeps over sampled curvatures.

Two drivers share one batching engine: the inequality sweep minimizes the
gap of the pointwise inequality per sample (random test vectors plus an
adversarial multi-start search), and the positivity sweep does the same for
the smallest eigenvalue of the normalized curvature form.

Determinism contract: configuration config_index of a sweep with base
seed s owns three Philox streams keyed by SeedSequence((s, config_index),
spawn_key=(k,)): stream 0 samples the curvatures, stream 1 gives the
adversarial starting vectors and stream 2 the random test vectors.  Sample i
reads row i of each stream, a fixed-stride window that no other sample
touches (see curvature.seeded_draws), so a batch draws all its samples with
one generator per stream and vector slot, and a sample never depends on the
batch it falls in.  Configurations are enumerated rank-major over (ranks x
epsilons).  Work is split into fixed-size batches by sample index, and the
batches of all configurations run as one job list on one thread pool of
min(threads, jobs, CPUs) workers.  Each batch is a pure function of the
seed, and after all batches finish the reductions run per configuration,
in configuration order and then batch order, so results are bitwise
identical for any thread count and batch size.

A batch whose sampled curvatures break the constraints skips the search,
and its configuration's reduction raises InconsistentStateError.  The
worst record of each configuration replays through replay_worst, in the
random and the projectively-flat mode alike, and the polish of a gap
sweep's worst samples searches those replays, one batched search per rank.
"""

from __future__ import annotations

import csv
import ctypes
import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .curvature import (
    OPTIMIZER_TOL,
    PointCurvature,
    _batch_residuals,
    _coefficient_count,
    batch_lhs_density,
    build_batch,
    check_residuals,
    gap_scale_offset,
    lagrange_max,
    lagrange_max_numeric,
    projectively_flat,
    sample_curvature,
    seeded_draws,
    violations,
)
from .errors import InconsistentStateError, InvalidInputError
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

RANDOM_SOURCE = "random-vector"
ADVERSARIAL_SOURCE = "adversarial"

# lower bound of each integer SweepConfig field, in the order a config
# document's sweep object is read
INT_MINIMUMS = {
    "samples": 1,
    "seed": 0,
    "restarts": 1,
    "random_vectors": 0,
    "iterations": 1,
    "batch_size": 1,
    "threads": 1,
    "histogram_bins": 1,
}


@dataclass(frozen=True)
class SweepConfig:
    """Parameters of one sweep invocation.

    mode "random" draws `samples` independent curvatures per configuration;
    mode "projectively-flat" evaluates the single equality-case curvature
    per rank (epsilon and samples are forced to 0 and 1).
    """

    ranks: tuple[int, ...]
    epsilons: tuple[float, ...] = (0.0,)
    samples: int = 1000
    seed: int = 0
    restarts: int = 5
    random_vectors: int = 10
    iterations: int = 60
    tol: float = 1e-6
    threshold: float = 1e-9
    batch_size: int = 4096
    threads: int = 1
    mode: str = "random"
    histogram_bins: int = 40

    def __post_init__(self):
        if not self.ranks or any(r < 2 for r in self.ranks):
            raise InvalidInputError("ranks must be a nonempty list of integers >= 2")
        if not self.epsilons or any(not (math.isfinite(e) and e >= 0) for e in self.epsilons):
            raise InvalidInputError("epsilons must be nonempty with entries >= 0")
        for name, minimum in INT_MINIMUMS.items():
            if getattr(self, name) < minimum:
                raise InvalidInputError(f"{name} must be >= {minimum}")
        if self.tol <= 0:
            raise InvalidInputError("tol must be positive")
        if self.mode not in ("random", "projectively-flat"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class WorstRecord:
    """The lowest value seen in one configuration, with enough data to replay it.

    seed is (base seed, config index, sample index), which sample_curvature
    reads as that sample's row of key (base seed, config index), so replaying
    it rebuilds the sample and the starts of its search; v is the offending
    vector; source tells whether a random test vector or the adversarial
    search found it; mode is the sampler mode, which replay_worst needs and
    reports leave out.
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


@dataclass(frozen=True)
class SweepResult:
    results: tuple[ConfigResult, ...]
    min_value: float
    residual_max: float
    passed: bool


def _histogram(values: np.ndarray, bins: int) -> tuple[tuple[float, float, int], ...]:
    lo = float(values.min())
    hi = float(values.max())
    if lo == hi:
        return ((lo, hi, int(values.size)),)
    counts, edges = np.histogram(values, bins=bins, range=(lo, hi))
    return tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(len(counts))
    )


def _run_batch(cfg: SweepConfig, kind: str, ci: int, r: int, epsilon: float, lo: int, hi: int):
    """Evaluate samples lo..hi-1 of one configuration; pure in (cfg, args).

    Returns (values, minimum, residual maxima, converged count), where
    minimum is (sample index, v, source) of the first lowest value.  A batch
    whose constraint residuals fail check_residuals' rule stops right after
    them and returns NaN values and no minimum: the search would only run on
    numbers that break the constraints.
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
        return np.full(n, np.nan), None, residual_max, 0
    M = form_matrices(coeff)

    if kind == "gap":
        objective = det_objective
        scale, offsets = gap_scale_offset(r, epsilon, batch_lhs_density(coeff))
    else:
        objective, scale, offsets = lmin_objective, 1.0, np.zeros(n)
    V0 = basis_and_random_starts(M, objective, cfg.restarts, key, lo)
    V, f, converged = minimize_on_sphere(M, V0, objective, cfg.iterations, cfg.tol)
    # the random test vectors go first, so that a value of the search counts
    # only where it is lower
    screen = random_unit_vectors(key, lo, n, cfg.random_vectors, r, (2,))
    V = np.concatenate([screen, V], axis=1)
    f = np.concatenate([objective_values(M, screen, objective), f], axis=1)
    values = scale * f + offsets[:, None]
    idx = np.argmin(values, axis=1)
    values = values[np.arange(n), idx]
    i = int(np.argmin(values))
    source = RANDOM_SOURCE if idx[i] < cfg.random_vectors else ADVERSARIAL_SOURCE
    minimum = (lo + i, tuple(V[i, idx[i]]), source)
    return values, minimum, residual_max, int(converged.all(axis=1).sum())


def _polish(cfg: SweepConfig, results: list[ConfigResult]) -> list[ConfigResult]:
    """Refine the worst records of a gap sweep on their replayed curvatures.

    Runs a longer adversarial search from the same deterministic starts, one
    batched search per rank over the records of that rank; each record gets
    the bits of a search of its own.  A polished value can only be equal or
    lower since the search extends the recorded one.  Eigenvalue sweeps are
    not polished, so their record keeps the value-at-v pairing intact.
    """
    results = list(results)
    for r in dict.fromkeys(c.rank for c in results):
        idx = [k for k, c in enumerate(results) if c.rank == r]
        pcs = [replay_worst(results[k].worst) for k in idx]
        refined = min_gap_over_v(pcs, restarts=cfg.restarts, tol=1e-8, iterations=400)
        for k, found in zip(idx, refined):
            c = results[k]
            if found.gap < c.worst.value:
                worst = replace(c.worst, value=found.gap, v=found.v, source=ADVERSARIAL_SOURCE)
                results[k] = replace(c, worst=worst, min_value=found.gap)
    return results


def _reduce(cfg: SweepConfig, ci: int, r: int, epsilon: float, batches) -> ConfigResult:
    """One configuration's result from its batches, taken in sample order."""
    values, minima, residuals, converged = zip(*batches)
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
    pages.  The setting is process-wide and made once, on the first sweep;
    elsewhere than glibc on Linux nothing is changed.
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


def _run_sweep(cfg: SweepConfig, kind: str) -> SweepResult:
    _keep_batch_memory()
    configs = [(r, e) for r in cfg.ranks for e in cfg.epsilons]
    samples = cfg.samples
    if cfg.mode == "projectively-flat":
        configs = [(r, 0.0) for r in cfg.ranks]
        samples = 1
    spans = [(lo, min(lo + cfg.batch_size, samples)) for lo in range(0, samples, cfg.batch_size)]
    jobs = [(ci, r, e, lo, hi) for ci, (r, e) in enumerate(configs) for lo, hi in spans]
    workers = min(cfg.threads, len(jobs), os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        batches = list(pool.map(lambda job: _run_batch(cfg, kind, *job), jobs))
    per = len(spans)
    results = [
        _reduce(cfg, ci, r, e, batches[ci * per : (ci + 1) * per])
        for ci, (r, e) in enumerate(configs)
    ]
    if kind == "gap":
        results = _polish(cfg, results)
    results = tuple(results)
    min_value = min(c.min_value for c in results)
    residual_max = max(
        v for c in results for k, v in c.residual_max.items() if k != "b_bound"
    )
    if kind == "gap":
        passed = min_value >= -cfg.threshold
    else:
        passed = min_value > 0
    return SweepResult(results, min_value, residual_max, passed)


def run_gap_sweep(cfg: SweepConfig) -> SweepResult:
    """Monte Carlo verification of the pointwise inequality.

    Per sample, the gap is evaluated at `random_vectors` random unit vectors
    and minimized adversarially from `restarts` starts; passing means the
    minimum over everything is at least -threshold.
    """
    return _run_sweep(cfg, "gap")


def run_griffiths_sweep(cfg: SweepConfig) -> SweepResult:
    """Minimum eigenvalue sweep of the normalized form <v, Theta v>.

    Passing means every sampled curvature stayed strictly positive, i.e.
    Griffiths positivity held at each sampled point.  Random curvatures
    need not be positive; the projectively-flat mode gives the clean
    reference value 1/r.
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


def run_lagrange_check(samples: int, seed: int, max_rank: int = 8) -> LagrangeCheckResult:
    """Compare the closed-form constrained maximum against iterative ascent.

    Draws random (rank, mu, trace-free diagonal B with entries in
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
        r = int(g.integers(2, max_rank + 1))
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
