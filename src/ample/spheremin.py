"""Multi-start projected-gradient minimization over unit vectors in C^r.

Used adversarially: the inequality checker minimizes the gap over the unit
sphere, and the positivity checker minimizes the smallest eigenvalue of the
normalized curvature form.  Both objectives are smooth ratios of quadratic
forms, invariant under scaling of v, so the sphere is the natural domain and
a retracted gradient step is enough: its length is the Barzilai-Borwein step
of the last accepted move (Barzilai & Borwein 1988), halved on each step
that fails a per-row nonmonotone Armijo test against a running weighted mean
of the row's accepted values (Zhang & Hager 2004), the pairing that Wen & Yin
(2013) use on spheres.  No general-purpose optimizer dependency is
warranted for an r <= 10 problem.

Everything here is batched over n instances with S starts each, one row per
(instance, start) pair, and rows never interact.  Blocks come in and go out
as (n, S, ...) arrays; the descent carries each pair as a row of its own,
and works through the instances in chunks sized by r and S (descent_chunk).
That makes sweep results independent of how batches are scheduled, lets a
sweep descend the searched rows of several batches in one call, and makes
more restarts a strict superset of fewer.  The starts of an instance are its
best standard basis vector, read off the diagonal of its form matrices, and
random unit vectors of the stream that also gives a sweep's random test
vectors (random_unit_vectors), joined by basis_and_random_starts in every
search alike.

An objective takes q, the (n, S, 2, 2) block of forms q_ab = <v, M_ab v> at
unit vectors v, and returns f, its coefficients (c00, c11, c01, c10) and its
radial term (f times its degree in q), each (n, S).  The gradient of f in
the conjugate coordinates of v is c00 M00 v + c11 M11 v - c01 M01 v -
c10 M10 v - radial v, which only _evaluate assembles.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .curvature import (
    PointCurvature,
    _box_muller,
    batch_lhs_density,
    gap_scale_offset,
    seed_position,
    seeded_draws,
    validate,
)
from .errors import InvalidInputError

ARMIJO_C = 1e-4
NONMONOTONE_GAMMA = 0.85  # weight decay of the Zhang-Hager reference value
ETA0 = 0.25
ETA_MAX = 4.0
ETA_MIN = 1e-10
DESCENT_CHUNK = 512
DESCENT_BUDGET = 46080  # instances x starts x r^2 per chunk, see descent_chunk
# the Philox stream of the random test vectors and random starts of a sample
VECTOR_STREAM = (2,)


def form_matrices(coeff: np.ndarray) -> np.ndarray:
    """Reindex a batch coeff[n, i, j, a, b] to M[n, a, b, i, j], instance-last
    in memory, the layout the descent runs in; one curvature is coeff[None]."""
    return _instance_last(np.moveaxis(coeff, (1, 2), (3, 4)))


def _mv(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    return np.einsum("nabij,nsj->nsabi", M, V)


def _q(V: np.ndarray, Mv: np.ndarray) -> np.ndarray:
    return np.einsum("nsi,nsabi->nsab", np.conj(V), Mv)


def det_objective(q: np.ndarray):
    """det of the 2x2 form matrix q, with its gradient coefficients."""
    f = (q[..., 0, 0] * q[..., 1, 1] - q[..., 0, 1] * q[..., 1, 0]).real
    return f, (q[..., 1, 1], q[..., 0, 0], q[..., 1, 0], q[..., 0, 1]), 2.0 * f


def lmin_objective(q: np.ndarray):
    """Smallest eigenvalue of the 2x2 form matrix q, with subgradient coefficients at ties."""
    q00 = q[..., 0, 0].real
    q11 = q[..., 1, 1].real
    q01 = q[..., 0, 1]
    half_diff = 0.5 * (q00 - q11)
    s = np.sqrt(half_diff**2 + (q01 * np.conj(q01)).real)
    f = 0.5 * (q00 + q11) - s
    # at a double eigenvalue the objective is not differentiable; any
    # subgradient works for descent, take the symmetric one
    inv = np.where(s > 1e-18, 1.0 / np.maximum(s, 1e-300), 0.0)
    c00, c11 = 0.5 - 0.5 * half_diff * inv, 0.5 + 0.5 * half_diff * inv
    c01 = 0.5 * np.conj(q01) * inv
    return f, (c00, c11, c01, np.conj(c01)), f


def objective_values(M: np.ndarray, V: np.ndarray, objective) -> np.ndarray:
    """Objective values only, for already-normalized vectors V of shape (n, S, r).

    Instances are evaluated descent_chunk(r, S) at a time, which bounds the
    memory of the products M v as it bounds the descent's.
    """
    V = np.asarray(V)
    n, S, r = V.shape
    f = np.empty((n, S))
    chunk = descent_chunk(r, S)
    for lo in range(0, n, chunk):
        Vc = _instance_last(V[lo : lo + chunk])
        f[lo : lo + chunk] = objective(_q(Vc, _mv(M[lo : lo + chunk], Vc)))[0]
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


def descent_chunk(r: int, starts: int) -> int:
    """Instances per chunk of a descent at rank r with `starts` starts each.

    As many as keep instances x starts x r^2 within DESCENT_BUDGET, and never
    fewer than DESCENT_CHUNK: with 5 starts, 2304 at r = 2, 1024 at r = 3,
    576 at r = 4 and 512 from r = 5 on.
    """
    return max(DESCENT_CHUNK, DESCENT_BUDGET // max(starts * r * r, 1))


def minimize_on_sphere(
    M: np.ndarray,
    V0: np.ndarray,
    objective,
    iterations: int = 100,
    tol: float = 1e-8,
):
    """Nonmonotone retracted-gradient descent, one row per (instance, start) pair.

    M holds the form matrices of n instances, V0 their S starts each, shape
    (n, S, r), and objective is one as the module docstring describes it.
    Returns (V, f, converged) of shapes (n, S, r), (n, S), (n, S),
    with V normalized.  Each iteration tries one step of length eta along
    the tangent gradient t, retracted to the sphere, and accepts it when
    f(W) <= C - ARMIJO_C eta |t|^2 for the row's reference value C (Zhang &
    Hager).  C starts at f(V0) with weight Q = 1; an accepted step sets
    Q <- NONMONOTONE_GAMMA Q + 1 and moves C to the weighted mean
    (NONMONOTONE_GAMMA Q_old C + f(W)) / Q.  A rejected step halves eta;
    after an accepted move s, with y the change of the tangent gradient, eta
    becomes the Barzilai-Borwein step <s, s>/Re<s, y>, clipped to
    [ETA_MIN, ETA_MAX], and ETA_MAX where Re<s, y> <= 0.  A row is converged
    when its tangent gradient norm falls below tol or its step size
    collapses; rows that hit the iteration cap keep converged = False.  An
    accepted f may exceed the f before it, but never C, and C never
    increases, so the final f never exceeds the value at the corresponding
    start and the final iterate is returned as it is.

    Rows never interact, so instances are descended descent_chunk(r, S) at a
    time, and stopped rows are dropped on the way; neither changes any value.
    A step makes 65 to 85 numpy calls whatever the chunk size, most of them
    on one number or one vector per row, and each call takes and releases
    the GIL.  On chunks of 512 instances at r <= 3 the calls were so short
    that two sweep threads ran no faster than one; larger chunks make each
    call longer.  On Linux a multi-worker sweep runs its workers as
    processes, each with a GIL of its own, so there the handoffs are gone;
    they remain on the thread pool that sweeps use elsewhere.  A chunk's
    memory grows with its rows times r^2, since each row carries its own
    copy of M, so that product is what the chunk rule bounds.
    """
    V0 = np.asarray(V0, dtype=np.complex128)
    n, S, r = V0.shape
    V = np.empty(V0.shape, dtype=np.complex128)
    f = np.empty(V0.shape[:2])
    converged = np.empty(V0.shape[:2], dtype=bool)
    chunk = descent_chunk(r, S)
    for lo in range(0, n, chunk):
        hi = lo + chunk
        out = (V[lo:hi], f[lo:hi], converged[lo:hi])
        _descend(M[lo:hi], V0[lo:hi], objective, iterations, tol, out)
    return V, f, converged


def _evaluate(M: np.ndarray, V: np.ndarray, objective):
    """Objective values and tangent gradients at the unit rows V.

    The gradient is accumulated in place, term by term in the order of the
    formula in the module docstring.
    """
    Mv = _mv(M, V)
    f, (c00, c11, c01, c10), radial = objective(_q(V, Mv))
    grad = c00[..., None] * Mv[:, :, 0, 0]
    grad += c11[..., None] * Mv[:, :, 1, 1]
    grad -= c01[..., None] * Mv[:, :, 0, 1]
    grad -= c10[..., None] * Mv[:, :, 1, 0]
    grad -= radial[..., None] * V
    return f, _tangent(V, grad)


def _descend(M: np.ndarray, V0: np.ndarray, objective, iterations: int, tol: float, out) -> None:
    """minimize_on_sphere on one chunk, written into out, its slices of (V, f, converged).

    Every (instance, start) pair is carried from the first step as a (1, r)
    row of its own, with its own copy of M, row axis innermost in memory.
    Its tangent gradient is row state: computed once at each trial point,
    it serves the stopping test, the next step and the Barzilai-Borwein
    step; so are its step length and its reference value and weight.  A
    step is normalized by its norm in closed form, since the tangent
    gradient is orthogonal to the row.  A stopped row never moves again, so
    once at most half of the carried rows are still active, the carried rows
    are written out and only the active ones go on, gathered by _take; their
    copies of M are gathered afresh from M after the old copies are
    released.  What is still carried at the end is written out then.
    Nothing of one step outlives it, so the peak is the carried rows plus
    one step's arrays.
    """
    n, S, r = V0.shape
    rows = np.arange(n * S)  # flat (instance, start) index of each carried row
    Mr = _take(M, rows // S)
    V = _normalize(_instance_last(V0.reshape(-1, 1, r)))
    f, tan = _evaluate(Mr, V, objective)
    V_all, f_all, converged = (a.reshape(n * S, *a.shape[2:]) for a in out)
    eta = np.full((n * S, 1), ETA0)
    ref = f.copy()  # Zhang-Hager reference value C, a weighted mean of accepted f
    weight = np.ones((n * S, 1))  # its weight Q
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
            del Mr
            Mr = _take(M, rows // S)
            V, f, tan, gnorm2, eta, ref, weight, active = (
                _take(a, keep) for a in (V, f, tan, gnorm2, eta, ref, weight, active)
            )
        # tan is orthogonal to the unit row V, so V - eta tan has norm rho and
        # the move s = W - V has <s, s> = 2(rho - 1)/rho, written without the
        # cancellation of rho - 1
        decrease = eta * gnorm2  # eta |tan|^2, the scale of the Armijo test
        h = eta * decrease
        rho = np.sqrt(1.0 + h)
        W = (V - eta[..., None] * tan) / rho[..., None]
        fw, tanw = _evaluate(Mr, W, objective)
        accept = active & (fw <= ref - ARMIJO_C * decrease)
        # Barzilai-Borwein step <s, s>/Re<s, y> for the change y of the
        # tangent gradient; ETA_MAX where Re<s, y> <= 0 or the step would
        # exceed it, so that no row divides by zero or overflows
        ss = 2.0 * h / (rho * (rho + 1.0))
        sy = _dot(W - V, tanw - tan)
        bounded = ss < ETA_MAX * sy
        bb = np.where(bounded, np.maximum(ss / np.where(bounded, sy, 1.0), ETA_MIN), ETA_MAX)
        np.copyto(V, W, where=accept[..., None])
        np.copyto(f, fw, where=accept)
        np.copyto(tan, tanw, where=accept[..., None])
        eta = np.where(accept, bb, np.where(active, eta * 0.5, eta))
        # Q <- gamma Q + 1 and C <- (gamma Q_old C + f) / Q, written as
        # C + (f - C) / Q: the same value, and one that never exceeds C
        weight = np.where(accept, NONMONOTONE_GAMMA * weight + 1.0, weight)
        ref = np.where(accept, ref + (fw - ref) / weight, ref)
        del W, fw, tanw, accept, decrease, h, rho, ss, sy, bounded, bb
    V_all[rows], f_all[rows] = V[:, 0], f[:, 0]
    converged[:] = True  # a dropped row stopped
    converged[rows] = ~active[:, 0]


def basis_and_random_starts(M: np.ndarray, objective, restarts: int, random: np.ndarray) -> np.ndarray:
    """Starting block of shape (n, restarts, r): the best standard basis
    vector per instance first, then restarts-1 random unit vectors.

    The objective at basis vector e_i is its value at the forms
    M[..., a, b, i, i].  The random starts are the first restarts-1 vectors
    of random, a block (n, count, r) with count >= restarts-1 that the
    caller draws with random_unit_vectors, so that every search, a sweep
    batch's, the polish's and a public one, takes them from one stream.
    """
    n, _, _, _, r = M.shape
    f_basis = objective(np.moveaxis(np.diagonal(M, axis1=-2, axis2=-1), -1, 1))[0]
    best = np.argmin(f_basis, axis=1)
    V0 = np.empty((n, restarts, r), dtype=np.complex128)
    V0[:, 0] = 0.0
    V0[np.arange(n), 0, best] = 1.0
    V0[:, 1:] = random[:, : restarts - 1]
    return V0


def random_unit_vectors(
    key: tuple[int, ...], lo: int, n: int, count: int, r: int, rows: np.ndarray | None = None
) -> np.ndarray:
    """count unit vectors in C^r for each of rows lo..lo+n-1, shape (n, count, r),
    or, given rows, an ascending array of offsets below n, for rows lo + rows
    alone, shape (len(rows), count, r).

    Vector j of a row is slot j of the row in stream VECTOR_STREAM of key,
    which a sweep's random test vectors and every search's random starts
    share: 2r uniforms made normals by Box-Muller on the slot's two halves,
    real parts first, then normalized.  It depends on neither count nor n
    nor the other rows.  With rows, only the span from the first to the last
    of them is drawn, and only they are made normals.
    """
    if rows is not None:
        if not len(rows):
            return np.empty((0, count, r), dtype=np.complex128)
        lo, n = lo + int(rows[0]), int(rows[-1] - rows[0]) + 1
        rows = rows - rows[0]
    u = seeded_draws(key, lo, n, 2 * r, VECTOR_STREAM, slots=count)
    u = u if rows is None else u[rows]
    z = _box_muller(u.reshape(len(u), count, 2 * r))
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

    Each instance starts where a search of its own would, from the random
    vectors a sweep batch draws for its seed's row (random_unit_vectors);
    instances built without a seed share a fixed default.  Rows never
    interact, so each row also ends with the bits of a search of its own.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise InvalidInputError(f"tol must be finite and > 0, got {tol!r}")
    if len({pc.rank for pc in pcs}) != 1:
        raise InvalidInputError("a batched search needs instances of one rank")
    for pc in pcs:
        validate(pc)
    if restarts < 1:
        raise InvalidInputError(f"restarts must be >= 1, got {restarts}")
    r = pcs[0].rank
    random = np.concatenate([
        random_unit_vectors(*seed_position(DEFAULT_START_SEED if pc.seed is None else pc.seed), 1, restarts - 1, r)
        for pc in pcs
    ])
    M = form_matrices(np.stack([pc.coeff for pc in pcs]))
    V0 = basis_and_random_starts(M, objective, restarts, random)
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
    the point, up to the confidence of the multi-start search; at the
    projectively flat point it returns 1/r up to rounding
    (0.33333333333333326 at r = 3).
    """
    _, f, _ = _search([pc], lmin_objective, restarts, tol, iterations)
    return float(f[0].min())
