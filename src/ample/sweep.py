"""Deterministic Monte Carlo sweeps over sampled curvatures.

Two drivers share one batching engine: the inequality sweep minimizes the
gap of the pointwise inequality per sample (random test vectors plus an
adversarial multi-start search), and the positivity sweep does the same for
the smallest eigenvalue of the normalized curvature form.

Determinism contract: sample (config_index, sample_index) of a sweep with
base seed s is built from SeedSequence((s, config_index, sample_index));
its adversarial starting vectors come from spawn key (1,) of that sequence
and its random test vectors from spawn key (2,).  Configurations are
enumerated rank-major over (ranks x epsilons).  Work is split into
fixed-size batches by sample index, each batch is a pure function of the
seed, and reductions run in batch order after all batches finish, so
results are bitwise identical for any thread count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curvature import (
    PointCurvature,
    _batch_residuals,
    _coefficient_count,
    _generator,
    _generators,
    batch_lhs_density,
    build_batch,
    check_residuals,
    gap_scale_offset,
    lagrange_max,
    lagrange_max_numeric,
    projectively_flat,
    sample_curvature,
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
)

RANDOM_SOURCE = "random-vector"
ADVERSARIAL_SOURCE = "adversarial"


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
        if self.samples < 1:
            raise InvalidInputError("samples must be >= 1")
        if self.seed < 0:
            raise InvalidInputError("seed must be >= 0")
        if self.restarts < 1:
            raise InvalidInputError("restarts must be >= 1")
        if self.random_vectors < 0:
            raise InvalidInputError("random_vectors must be >= 0")
        if self.iterations < 1 or self.batch_size < 1 or self.threads < 1:
            raise InvalidInputError("iterations, batch_size and threads must be >= 1")
        if self.tol <= 0:
            raise InvalidInputError("tol must be positive")
        if self.mode not in ("random", "projectively-flat"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.histogram_bins < 1:
            raise InvalidInputError("histogram_bins must be >= 1")


@dataclass(frozen=True)
class WorstRecord:
    """The lowest value seen in one configuration, with enough data to replay it.

    seed is the full per-sample seed tuple accepted by sample_curvature; v is
    the offending vector; source tells whether a random test vector or the
    adversarial search found it.
    """

    rank: int
    epsilon: float
    seed: tuple[int, ...]
    value: float
    v: tuple[complex, ...]
    source: str


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
    """Evaluate samples lo..hi-1 of one configuration; pure in (cfg, args)."""
    n = hi - lo
    m = _coefficient_count(r)
    seeds = [(cfg.seed, ci, lo + i) for i in range(n)]
    if cfg.mode == "projectively-flat":
        pf = projectively_flat(r)
        coeff = np.broadcast_to(pf.coeff, (n, r, r, 2, 2))
        B = np.broadcast_to(pf.B, (n, r, r))
    else:
        uniforms = np.empty((n, m))
        for g, row in zip(_generators(seeds), uniforms):
            g.random(out=row)
        coeff, B = build_batch(r, epsilon, uniforms)
    residual_max = _batch_residuals(coeff, B, epsilon)
    M = form_matrices(coeff)

    objective = det_objective if kind == "gap" else lmin_objective
    if kind == "gap":
        scale, offsets = gap_scale_offset(r, epsilon, batch_lhs_density(coeff))
    else:
        scale, offsets = 1.0, np.zeros(n)

    best_value = np.full(n, np.inf)
    best_v = np.zeros((n, r), dtype=np.complex128)
    best_source = np.zeros(n, dtype=np.int8)

    if cfg.random_vectors > 0:
        z = np.empty((n, cfg.random_vectors, 2 * r))
        for g, row in zip(_generators(seeds, (2,)), z):
            g.standard_normal(out=row)
        V = z[..., :r] + 1j * z[..., r:]
        V /= np.sqrt(np.einsum("nsi,nsi->ns", np.conj(V), V).real)[..., None]
        values = scale * objective_values(M, V, objective) + offsets[:, None]
        idx = np.argmin(values, axis=1)
        best_value = values[np.arange(n), idx]
        best_v = V[np.arange(n), idx]

    V0 = basis_and_random_starts(M, objective, cfg.restarts, seeds)
    Vmin, f, converged = minimize_on_sphere(M, V0, objective, cfg.iterations, cfg.tol)
    adv_values = scale * f + offsets[:, None]
    idx = np.argmin(adv_values, axis=1)
    adv_best = adv_values[np.arange(n), idx]
    better = adv_best < best_value
    best_value = np.where(better, adv_best, best_value)
    best_v[better] = Vmin[np.arange(n), idx][better]
    best_source[better] = 1

    return {
        "lo": lo,
        "values": best_value,
        "v": best_v,
        "source": best_source,
        "residual_max": residual_max,
        "converged": int(converged.all(axis=1).sum()),
    }


def _polish(cfg: SweepConfig, kind: str, r: int, epsilon: float, seed, value: float, v, source):
    """Replay the worst gap sample through the scalar API and refine its value.

    Runs a longer adversarial search from the same deterministic starts; the
    polished value can only be equal or lower since the search extends the
    recorded one.  Eigenvalue sweeps are not polished, so their record keeps
    the value-at-v pairing intact.
    """
    label = RANDOM_SOURCE if source == 0 else ADVERSARIAL_SOURCE
    if kind != "gap":
        return value, tuple(v), label
    if cfg.mode == "projectively-flat":
        pc = projectively_flat(r)
    else:
        pc = sample_curvature(r, epsilon, seed)
    refined = min_gap_over_v(pc, restarts=cfg.restarts, tol=1e-8, iterations=400)
    if refined.gap < value:
        return refined.gap, tuple(refined.v), ADVERSARIAL_SOURCE
    return value, tuple(v), label


def _run_config(cfg: SweepConfig, kind: str, ci: int, r: int, epsilon: float, pool) -> ConfigResult:
    samples = 1 if cfg.mode == "projectively-flat" else cfg.samples
    spans = [
        (lo, min(lo + cfg.batch_size, samples)) for lo in range(0, samples, cfg.batch_size)
    ]
    if pool is None:
        batches = [_run_batch(cfg, kind, ci, r, epsilon, lo, hi) for lo, hi in spans]
    else:
        futures = [pool.submit(_run_batch, cfg, kind, ci, r, epsilon, lo, hi) for lo, hi in spans]
        batches = [fut.result() for fut in futures]

    values = np.empty(samples)
    for b in batches:
        values[b["lo"] : b["lo"] + len(b["values"])] = b["values"]
    residual_max = {
        key: max(b["residual_max"][key] for b in batches) for key in batches[0]["residual_max"]
    }
    converged = sum(b["converged"] for b in batches)
    where = f"rank {r}, epsilon {epsilon!r}: "
    check_residuals(residual_max, where=where)
    mean = float(values.mean())
    if not (np.isfinite(values).all() and math.isfinite(mean)):
        raise InconsistentStateError(f"{where}non-finite sweep values")

    arg = int(np.argmin(values))
    batch = batches[arg // cfg.batch_size]
    i = arg - batch["lo"]
    value, v, source = _polish(
        cfg, kind, r, epsilon, (cfg.seed, ci, arg), float(values[arg]), batch["v"][i],
        int(batch["source"][i]),
    )
    worst = WorstRecord(r, epsilon, (cfg.seed, ci, arg), value, v, source)
    return ConfigResult(
        rank=r,
        epsilon=epsilon,
        samples=samples,
        min_value=min(float(values.min()), value),
        mean_value=mean,
        worst=worst,
        residual_max=residual_max,
        converged_fraction=converged / samples,
        histogram=_histogram(values, cfg.histogram_bins),
    )


def _run_sweep(cfg: SweepConfig, kind: str) -> SweepResult:
    configs = [(r, e) for r in cfg.ranks for e in cfg.epsilons]
    if cfg.mode == "projectively-flat":
        configs = [(r, 0.0) for r in cfg.ranks]
    pool = ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    try:
        results = tuple(
            _run_config(cfg, kind, ci, r, e, pool) for ci, (r, e) in enumerate(configs)
        )
    finally:
        if pool is not None:
            pool.shutdown()
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
    """Reconstruct the curvature behind a worst record via the public sampler."""
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
    g = _generator(seed)
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
    return LagrangeCheckResult(samples, seed, max_diff, worst, max_diff <= 1e-6)


def export_histograms(result: SweepResult, path: str) -> None:
    """Write per-configuration value histograms as CSV rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rank", "epsilon", "bin_lo", "bin_hi", "count"])
        for config in result.results:
            for lo, hi, count in config.histogram:
                writer.writerow([config.rank, repr(config.epsilon), repr(lo), repr(hi), count])
