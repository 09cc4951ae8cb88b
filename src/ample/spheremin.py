"""Multi-start projected-gradient minimization over unit vectors in C^r.

Used adversarially: the inequality checker minimizes the gap over the unit
sphere, and the positivity checker minimizes the smallest eigenvalue of the
normalized curvature form.  Both objectives are smooth ratios of quadratic
forms, invariant under scaling of v, so the sphere is the natural domain and
a retracted gradient step is enough: its length is the Barzilai-Borwein step
of the last accepted move (Barzilai & Borwein 1988; Wen & Yin 2013 for
spheres), halved on each step that fails a per-row Armijo test.  No
general-purpose optimizer dependency is warranted for an r <= 10 problem.

Everything here is batched over n instances with S starts each, one row per
(instance, start) pair, and rows never interact.  Blocks come in and go out
as (n, S, ...) arrays; the descent carries each pair as a row of its own.
That makes sweep results independent of how batches are scheduled and makes
more restarts a strict superset of fewer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .curvature import (
    PointCurvature,
    batch_lhs_density,
    gap_scale_offset,
    seed_position,
    seeded_draws,
    validate,
)
from .errors import InvalidInputError

ARMIJO_C = 1e-4
ETA0 = 0.25
ETA_MAX = 4.0
ETA_MIN = 1e-10
DESCENT_CHUNK = 512


def form_matrices(coeff: np.ndarray) -> np.ndarray:
    """Reindex coeff[..., i, j, a, b] to M[..., a, b, i, j] for quadratic forms.

    A batch of shape (n, r, r, 2, 2) comes back instance-last in memory, the
    layout the descent runs in.
    """
    M = np.moveaxis(coeff, (-4, -3), (-2, -1))
    return _instance_last(M) if M.ndim == 5 else np.ascontiguousarray(M)


def _mv(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    return np.einsum("nabij,nsj->nsabi", M, V)


def _q(V: np.ndarray, Mv: np.ndarray) -> np.ndarray:
    return np.einsum("nsi,nsabi->nsab", np.conj(V), Mv)


def det_objective(V: np.ndarray, Mv: np.ndarray, q: np.ndarray):
    """det of the 2x2 form matrix, with its conjugate-coordinate gradient."""
    f = (q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0]).real
    # accumulated in place, term by term in the order of the formula
    grad = q[..., 1, 1, None] * Mv[:, :, 0, 0]
    grad += q[..., 0, 0, None] * Mv[:, :, 1, 1]
    grad -= q[..., 1, 0, None] * Mv[:, :, 0, 1]
    grad -= q[..., 0, 1, None] * Mv[:, :, 1, 0]
    grad -= 2.0 * f[..., None] * V
    return f, grad


def lmin_objective(V: np.ndarray, Mv: np.ndarray, q: np.ndarray):
    """Smallest eigenvalue of the 2x2 form matrix, with subgradient at ties."""
    q00 = q[..., 0, 0].real
    q11 = q[..., 1, 1].real
    q01 = q[..., 0, 1]
    half_diff = 0.5 * (q00 - q11)
    s = np.sqrt(half_diff**2 + (q01 * np.conj(q01)).real)
    f = 0.5 * (q00 + q11) - s
    # at a double eigenvalue the objective is not differentiable; any
    # subgradient works for descent, take the symmetric one
    inv = np.where(s > 1e-18, 1.0 / np.maximum(s, 1e-300), 0.0)
    c00 = 0.5 - 0.5 * half_diff * inv
    c11 = 0.5 + 0.5 * half_diff * inv
    c01 = -0.5 * np.conj(q01) * inv
    grad = (
        c00[..., None] * Mv[:, :, 0, 0]
        + c11[..., None] * Mv[:, :, 1, 1]
        + c01[..., None] * Mv[:, :, 0, 1]
        + np.conj(c01)[..., None] * Mv[:, :, 1, 0]
        - f[..., None] * V
    )
    return f, grad


def objective_values(M: np.ndarray, V: np.ndarray, objective) -> np.ndarray:
    """Objective values only, for already-normalized vectors V of shape (n, S, r)."""
    V = _instance_last(np.asarray(V))
    Mv = _mv(M, V)
    f, _ = objective(V, Mv, _q(V, Mv))
    return f


def _instance_last(a: np.ndarray) -> np.ndarray:
    """Same array with the instance axis 0 innermost in memory.

    Every per-row operation of the descent then runs long inner loops over
    instances instead of loops of length r; results are bit for bit the same,
    since each element is computed by the same operations in the same order.
    """
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)


def _take(a: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Rows idx of a along axis 0, gathered in one copy with that axis innermost."""
    return np.moveaxis(np.take(np.moveaxis(a, 0, -1), idx, axis=-1), -1, 0)


def _dot(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re<a, b> per row of two (n, S, r) blocks."""
    return np.einsum("nsi,nsi->ns", np.conj(A), B).real


def _tangent(V: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The part of grad tangent to the sphere at the unit rows V."""
    radial = np.einsum("nsi,nsi->ns", np.conj(V), grad)
    return grad - radial[..., None] * V


def _normalize(V: np.ndarray) -> np.ndarray:
    return V / np.sqrt(_dot(V, V))[..., None]


def minimize_on_sphere(
    M: np.ndarray,
    V0: np.ndarray,
    objective,
    iterations: int = 100,
    tol: float = 1e-8,
):
    """Monotone retracted-gradient descent, one row per (instance, start) pair.

    M holds the form matrices of n instances, V0 their S starts each, shape
    (n, S, r).  Returns (V, f, converged) of shapes (n, S, r), (n, S), (n, S),
    with V normalized.  Each iteration tries one step of length eta along
    the tangent gradient, retracted to the sphere, and accepts it under the
    Armijo test.  A rejected step halves eta; after an accepted move s, with
    y the change of the tangent gradient, eta becomes the Barzilai-Borwein
    step <s, s>/Re<s, y>, clipped to [ETA_MIN, ETA_MAX], and ETA_MAX where
    Re<s, y> <= 0.  A row is converged when its tangent gradient norm falls
    below tol or its step size collapses; rows that hit the iteration cap
    keep converged = False.  Accepted steps only ever decrease f, so the
    final f never exceeds the value at the corresponding start.

    Rows never interact, so instances are descended DESCENT_CHUNK at a time,
    which keeps each step's arrays in cache, and stopped rows are dropped on
    the way; neither changes any value.
    """
    V0 = np.asarray(V0, dtype=np.complex128)
    n = V0.shape[0]
    V = np.empty(V0.shape, dtype=np.complex128)
    f = np.empty(V0.shape[:2])
    converged = np.empty(V0.shape[:2], dtype=bool)
    for lo in range(0, n, DESCENT_CHUNK):
        hi = lo + DESCENT_CHUNK
        V[lo:hi], f[lo:hi], converged[lo:hi] = _descend(
            M[lo:hi], V0[lo:hi], objective, iterations, tol
        )
    return V, f, converged


def _descend(M: np.ndarray, V0: np.ndarray, objective, iterations: int, tol: float):
    """minimize_on_sphere on one chunk of instances.

    Every (instance, start) pair is carried from the first step as a (1, r)
    row of its own, with its own copy of M, row axis innermost in memory.
    Its tangent gradient is row state: computed once at each trial point,
    it serves the stopping test, the next step and the Barzilai-Borwein
    step.  A stopped row never moves again, so once at most half of the
    carried rows are still active, the carried rows are written out and only
    the active ones go on, gathered by _take.  What is still carried at the
    end is written out then.
    """
    n, S, r = V0.shape
    rows = np.arange(n * S)  # flat (instance, start) index of each carried row
    M = _take(M, rows // S)
    V = _normalize(_instance_last(V0.reshape(-1, 1, r)))
    Mv = _mv(M, V)
    f, grad = objective(V, Mv, _q(V, Mv))
    tan = _tangent(V, grad)
    V_all = np.empty((n * S, r), dtype=np.complex128)
    f_all = np.empty(n * S)
    converged = np.ones(n * S, dtype=bool)
    eta = np.full((n * S, 1), ETA0)
    active = np.ones((n * S, 1), dtype=bool)
    for _ in range(iterations):
        gnorm2 = _dot(tan, tan)
        active &= np.sqrt(gnorm2) > tol
        active &= eta > ETA_MIN
        keep = np.flatnonzero(active)
        if keep.size == 0:
            break
        if keep.size <= active.size // 2:
            V_all[rows], f_all[rows] = V[:, 0], f[:, 0]
            rows = rows[keep]
            M, V, f, tan, gnorm2, eta, active = (
                _take(a, keep) for a in (M, V, f, tan, gnorm2, eta, active)
            )
        W = _normalize(V - eta[..., None] * tan)
        Mw = _mv(M, W)
        fw, gradw = objective(W, Mw, _q(W, Mw))
        tanw = _tangent(W, gradw)
        accept = active & (fw <= f - ARMIJO_C * eta * gnorm2)
        # Barzilai-Borwein step <s, s>/Re<s, y> for the move s and the change
        # y of the tangent gradient; ETA_MAX where Re<s, y> <= 0 or the step
        # would exceed it, so that no row divides by zero or overflows
        s = W - V
        ss, sy = _dot(s, s), _dot(s, tanw - tan)
        bounded = ss < ETA_MAX * sy
        bb = np.where(bounded, np.maximum(ss / np.where(bounded, sy, 1.0), ETA_MIN), ETA_MAX)
        np.copyto(V, W, where=accept[..., None])
        np.copyto(f, fw, where=accept)
        np.copyto(tan, tanw, where=accept[..., None])
        eta = np.where(accept, bb, np.where(active, eta * 0.5, eta))
    V_all[rows], f_all[rows] = V[:, 0], f[:, 0]
    converged[rows] = ~active[:, 0]
    return V_all.reshape(n, S, r), f_all.reshape(n, S), converged.reshape(n, S)


def basis_and_random_starts(
    M: np.ndarray,
    objective,
    restarts: int,
    key: tuple[int, ...],
    lo: int,
) -> np.ndarray:
    """Starting block of shape (n, restarts, r): the best standard basis
    vector per instance first, then restarts-1 random unit vectors.

    Instance t is row lo + t of key; its random starts come from stream (1,)
    of the key, so they never collide with the draws that built the
    instance itself.
    """
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    n, _, _, _, r = M.shape
    basis = np.broadcast_to(np.eye(r, dtype=np.complex128), (n, r, r))
    f_basis = objective_values(M, basis, objective)
    best = np.argmin(f_basis, axis=1)
    V0 = np.zeros((n, restarts, r), dtype=np.complex128)
    V0[np.arange(n), 0, best] = 1.0
    if restarts > 1:
        V0[:, 1:] = random_unit_vectors(key, lo, n, restarts - 1, r, (1,))
    return V0


def random_unit_vectors(
    key: tuple[int, ...], lo: int, n: int, count: int, r: int, spawn_key: tuple[int, ...]
) -> np.ndarray:
    """count unit vectors in C^r for each of rows lo..lo+n-1, shape (n, count, r).

    Vector j of a row is slot j of the row in the stream of key and
    spawn_key: 2r standard normals, real parts first, then normalized.  It
    depends on neither count nor n.
    """
    z = seeded_draws(key, lo, n, 2 * r, spawn_key, normal=True, slots=count)
    z = z.reshape(n, count, 2 * r)
    return _normalize(z[..., :r] + 1j * z[..., r:])


@dataclass(frozen=True)
class MinGapResult:
    """Best vector found, its gap, and whether the search converged there."""

    v: tuple[complex, ...]
    gap: float
    converged: bool


DEFAULT_START_SEED = 1815


def _search(pcs: list[PointCurvature], objective, restarts: int, tol: float, iterations: int):
    """Validated multi-start search on instances of one rank; (V, f, converged)
    with one row per instance.

    Each instance starts where a search of its own would: the starts are
    deterministic given its seed, and instances built without a seed share
    a fixed default.  Rows never interact, so each row also ends with the
    bits of a search of its own.
    """
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if len({pc.rank for pc in pcs}) != 1:
        raise InvalidInputError("a batched search needs instances of one rank")
    for pc in pcs:
        validate(pc)
    M = form_matrices(np.stack([pc.coeff for pc in pcs]))
    V0 = np.concatenate([
        basis_and_random_starts(
            M[j : j + 1],
            objective,
            restarts,
            *seed_position(pc.seed if pc.seed is not None else DEFAULT_START_SEED),
        )
        for j, pc in enumerate(pcs)
    ])
    return minimize_on_sphere(M, V0, objective, iterations, tol)


def min_gap_over_v(
    pc: PointCurvature | Sequence[PointCurvature],
    restarts: int = 5,
    tol: float = 1e-8,
    iterations: int = 100,
) -> MinGapResult | tuple[MinGapResult, ...]:
    """Adversarial minimum of the inequality gap over unit vectors.

    The gap is an affine function of det of the normalized form, so the
    search minimizes the det and the result is mapped back.  Deterministic
    given pc.seed and the restart count; more restarts can only lower the
    result.  A sequence of curvatures of one rank is searched in one
    batched descent and gives a tuple of results, each equal to the result
    for its curvature alone.
    """
    pcs = [pc] if isinstance(pc, PointCurvature) else list(pc)
    V, f, converged = _search(pcs, det_objective, restarts, tol, iterations)
    results = []
    for j, p in enumerate(pcs):
        best = int(np.argmin(f[j]))
        scale, offset = gap_scale_offset(p.rank, p.epsilon, batch_lhs_density(p.coeff[None])[0])
        gap = float(scale * float(f[j, best]) + offset)
        v = tuple(complex(x) for x in V[j, best])
        results.append(MinGapResult(v, gap, bool(converged[j, best])))
    return results[0] if isinstance(pc, PointCurvature) else tuple(results)


def griffiths_min(
    pc: PointCurvature,
    restarts: int = 5,
    tol: float = 1e-8,
    iterations: int = 100,
) -> float:
    """Minimum over unit v of the smallest eigenvalue of the form <v, Theta v>.

    A positive value certifies that the curvature is Griffiths positive at
    the point, up to the confidence of the multi-start search; the
    projectively flat point returns exactly 1/r.
    """
    _, f, _ = _search([pc], lmin_objective, restarts, tol, iterations)
    return float(f[0].min())
