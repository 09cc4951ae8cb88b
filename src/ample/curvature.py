"""Pointwise curvature model for rank-r bundles over a surface.

A (1,1)-form alpha = sum_{a,b} alpha_{a bbar} sqrt(-1) dz^a wedge dzbar^b at a
point is stored as its 2x2 coefficient matrix.  Densities of 4-forms are taken
against the volume form sqrt(-1)dz^1 wedge dzbar^1 wedge sqrt(-1)dz^2 wedge
dzbar^2, so the Kahler form omega (coefficient matrix = identity) has
omega^2 density 2 and the wedge of two (1,1)-forms has density

    a_{11}b_{22} + a_{22}b_{11} - a_{12}b_{21} - a_{21}b_{12}.

Curvature at the point is an r x r matrix of such forms, coeff[i, j, a, b],
Hermitian as a form-valued endomorphism, with trace equal to omega and with
contraction against omega equal to (2/r)*Id + B for a trace-free Hermitian
error matrix B bounded entrywise by epsilon.  The sampler enforces all of
these constraints by construction, solving for the dependent entries, rather
than by projecting after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InconsistentStateError, InvalidInputError

Seed = int | tuple[int, ...]

# residual tiers: inequality verification at 1e-9, optimizer-vs-closed-form
# comparisons at 1e-6
VALIDATION_TOL = 1e-9
OPTIMIZER_TOL = 1e-6


def wedge_density(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Density of alpha wedge beta for coefficient arrays of shape (..., 2, 2)."""
    return (
        a[..., 0, 0] * b[..., 1, 1]
        + a[..., 1, 1] * b[..., 0, 0]
        - a[..., 0, 1] * b[..., 1, 0]
        - a[..., 1, 0] * b[..., 0, 1]
    )


def _coefficient_count(r: int) -> int:
    # r diagonal B draws, r(r-1) for off-diagonal B discs, r-1 diagonal t_i,
    # 2(r-1) for diagonal dz^1 dzbar^2 entries, 3r(r-1) for off-diagonal blocks
    return 4 * r * r - 3


@dataclass(frozen=True, eq=False)
class PointCurvature:
    """Curvature of a metric at one point, in a frame where the metric is Id.

    coeff[i, j, a, b] is the dz^a wedge dzbar^b coefficient of the (i, j)
    entry.  seed records how the instance was sampled (None for constructed
    instances); epsilon and B echo the constraint data.
    """

    rank: int
    coeff: np.ndarray
    epsilon: float
    B: np.ndarray
    seed: Seed | None = None

    def __post_init__(self):
        if self.rank < 2:
            raise InvalidInputError(f"rank must be at least 2, got {self.rank}")
        coeff = np.ascontiguousarray(self.coeff, dtype=np.complex128)
        if coeff.shape != (self.rank, self.rank, 2, 2):
            raise InvalidInputError(
                f"coeff must have shape {(self.rank, self.rank, 2, 2)}, got {coeff.shape}"
            )
        b = np.ascontiguousarray(self.B, dtype=np.complex128)
        if b.shape != (self.rank, self.rank):
            raise InvalidInputError(
                f"B must have shape {(self.rank, self.rank)}, got {b.shape}"
            )
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidInputError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        coeff.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "B", b)


def _batch_residuals(coeff: np.ndarray, B: np.ndarray, epsilon: float) -> dict[str, float]:
    r = coeff.shape[1]
    eye2 = np.eye(2)
    eye_r = np.eye(r)
    hermitian = np.abs(coeff - np.conj(np.transpose(coeff, (0, 2, 1, 4, 3)))).max()
    trace = np.abs(np.einsum("niiab->nab", coeff) - eye2).max()
    contracted = coeff[..., 0, 0] + coeff[..., 1, 1]
    he = np.abs(contracted - ((2.0 / r) * eye_r + B)).max()
    b_trace = np.abs(np.einsum("nii->n", B)).max()
    b_bound = max(0.0, float(np.abs(B).max()) - epsilon)
    return {
        "hermitian": float(hermitian),
        "trace": float(trace),
        "he": float(he),
        "b_trace": float(b_trace),
        "b_bound": float(b_bound),
    }


def residuals(pc: PointCurvature) -> dict[str, float]:
    """Max-norm violations of the defining constraints, keyed by constraint name.

    b_bound is the excess of max |B_ij| over epsilon; it is informational
    because a unitary change of frame preserves every other constraint but
    not the entrywise bound.
    """
    return _batch_residuals(pc.coeff[None], pc.B[None], pc.epsilon)


def violations(res: dict[str, float]) -> dict[str, float]:
    """The structural residuals that are not <= VALIDATION_TOL; NaN counts, b_bound is skipped."""
    return {k: v for k, v in res.items() if k != "b_bound" and not (v <= VALIDATION_TOL)}


def check_residuals(res: dict[str, float], where: str = "") -> None:
    """Raise InconsistentStateError if any structural residual exceeds VALIDATION_TOL.

    The rule is violations(); where prefixes the message, e.g. with the
    sweep configuration.
    """
    bad = violations(res)
    if bad:
        worst = ", ".join(f"{k}={v:.3e}" for k, v in sorted(bad.items()))
        raise InconsistentStateError(f"{where}curvature constraints violated: {worst}")


def validate(pc: PointCurvature) -> None:
    """Raise InconsistentStateError if any structural residual exceeds VALIDATION_TOL."""
    check_residuals(residuals(pc))


def seed_position(seed: Seed) -> tuple[tuple[int, ...], int]:
    """(key, row) of a public seed: a tuple (k..., i) is row i of key (k...),
    and an integer s is row 0 of key (s,).

    The row is a sample index below 2**64, which keeps every Philox counter
    that seeded_draws derives from it in range and its slots apart.
    """
    entries = seed if isinstance(seed, tuple) else (seed,)
    if not entries:
        raise InvalidInputError("seed must not be an empty tuple")
    for s in entries:
        if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s < 0:
            raise InvalidInputError(f"seed entries must be nonnegative integers, got {seed!r}")
    if not isinstance(seed, tuple):
        return (int(seed),), 0
    if seed[-1] >= 2**64:
        raise InvalidInputError(f"the last seed entry is a sample index below 2**64, got {seed!r}")
    return tuple(int(k) for k in seed[:-1]), int(seed[-1])


def seeded_draws(
    key: tuple[int, ...],
    lo: int,
    n: int,
    width: int,
    spawn_key: tuple[int, ...] = (0,),
    normal: bool = False,
    slots: int = 1,
) -> np.ndarray:
    """(n, slots * width) draws; row i holds slots 0..slots-1 of row lo + i.

    The stream is Philox keyed by SeedSequence(key, spawn_key=spawn_key).
    Slot j of row i is the first width outputs from counter
    i * ceil(width / 4) + j * 2**128: each row owns a fixed-stride window of
    whole 4-word Philox blocks, so a row never depends on how rows are
    split into batches, nor a slot on how many slots are drawn.  Draws are
    uniform on [0, 1) or, with normal, standard normal by Box-Muller, which
    pairs the two halves of an even width.
    """
    state = np.random.SeedSequence(key, spawn_key=spawn_key).generate_state(2, np.uint64)
    stride = -(-width // 4)
    out = np.empty((n, slots, width))
    for j in range(slots):
        bitgen = np.random.Philox(key=state, counter=lo * stride + (j << 128))
        out[:, j] = np.random.Generator(bitgen).random((n, 4 * stride))[:, :width]
    if normal:
        out = _box_muller(out)
    return out.reshape(n, slots * width)


def _box_muller(u: np.ndarray) -> np.ndarray:
    """Standard normals sqrt(-2 log(1 - u1)) (cos, sin)(2 pi u2) from uniforms
    on [0, 1), with u1 the first and u2 the second half of the last axis."""
    half = u.shape[-1] // 2
    radius = np.sqrt(-2.0 * np.log1p(-u[..., :half]))
    angle = 2.0 * np.pi * u[..., half:]
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def _disc(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    # area-uniform draw on the closed unit disc
    return np.sqrt(u1) * np.exp(2j * np.pi * u2)


def build_batch(r: int, epsilon: float, uniforms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Turn uniform [0,1) draws of shape (n, 4r^2-3) into n constraint-exact samples.

    Layout per row: r diagonal B draws, r(r-1)/2 off-diagonal B disc pairs,
    r-1 diagonal t draws, r-1 diagonal dz^1 dzbar^2 disc pairs, then
    3 disc pairs per off-diagonal block in upper-triangle order.  Dependent
    entries (last t, last diagonal off-entry, all dzbar-side entries) are
    solved from the constraints.  Returns (coeff, B).
    """
    n, m = uniforms.shape
    if m != _coefficient_count(r):
        raise InvalidInputError(f"need {_coefficient_count(r)} uniforms per row, got {m}")
    pos = 0

    def take(count):
        nonlocal pos
        block = uniforms[:, pos : pos + count]
        pos += count
        return block

    # trace-free Hermitian B, entrywise bounded by epsilon: the diagonal is
    # drawn in [-eps/2, eps/2] and mean-centered, which keeps it in
    # [-eps, eps] exactly; off-diagonal entries are drawn on the radius-eps
    # disc directly
    b_diag = epsilon * (take(r) - 0.5)
    b_diag = b_diag - b_diag.mean(axis=1, keepdims=True)
    npairs = r * (r - 1) // 2
    pairs_u = take(2 * npairs)
    b_off = epsilon * _disc(pairs_u[:, :npairs], pairs_u[:, npairs:])
    iu, ju = np.triu_indices(r, k=1)
    B = np.zeros((n, r, r), dtype=np.complex128)
    B[:, np.arange(r), np.arange(r)] = b_diag
    B[:, iu, ju] = b_off
    B[:, ju, iu] = np.conj(b_off)

    coeff = np.zeros((n, r, r, 2, 2), dtype=np.complex128)
    diag = np.arange(r)

    t = np.empty((n, r))
    t[:, : r - 1] = 2.0 * take(r - 1) - 1.0
    t[:, r - 1] = 1.0 - t[:, : r - 1].sum(axis=1)
    coeff[:, diag, diag, 0, 0] = t
    coeff[:, diag, diag, 1, 1] = 2.0 / r + b_diag - t

    d12 = np.empty((n, r), dtype=np.complex128)
    d12_u = take(2 * (r - 1))
    d12[:, : r - 1] = _disc(d12_u[:, : r - 1], d12_u[:, r - 1 :])
    d12[:, r - 1] = -d12[:, : r - 1].sum(axis=1)
    coeff[:, diag, diag, 0, 1] = d12
    coeff[:, diag, diag, 1, 0] = np.conj(d12)

    off_u = take(6 * npairs).reshape(n, 3, 2, npairs)
    p = _disc(off_u[:, 0, 0], off_u[:, 0, 1])
    q = _disc(off_u[:, 1, 0], off_u[:, 1, 1])
    s = _disc(off_u[:, 2, 0], off_u[:, 2, 1])
    coeff[:, iu, ju, 0, 0] = p
    coeff[:, iu, ju, 1, 1] = b_off - p
    coeff[:, iu, ju, 0, 1] = q
    coeff[:, iu, ju, 1, 0] = s
    coeff[:, ju, iu] = np.conj(np.swapaxes(coeff[:, iu, ju], -1, -2))
    return coeff, B


def sample_curvature(r: int, epsilon: float, seed: Seed) -> PointCurvature:
    """Draw one constraint-exact curvature sample, deterministic in seed.

    The seed is an integer or a nonempty tuple of nonnegative integers; a
    tuple (k..., i) reads row i of the sampler stream (spawn key (0,)) of
    key (k...), and an integer s reads row 0 of key (s,).  Sweeps record
    (base_seed, config_index, sample_index), so that sample i of a sweep
    configuration is rebuilt here bit for bit.  The optimizer starts and test
    vectors of a sample are rows of streams (1,) and (2,) of the same key.
    """
    if not isinstance(r, (int, np.integer)) or r < 2:
        raise InvalidInputError(f"rank must be an integer >= 2, got {r!r}")
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise InvalidInputError(f"epsilon must be finite and >= 0, got {epsilon}")
    key, row = seed_position(seed)
    uniforms = seeded_draws(key, row, 1, _coefficient_count(r))
    coeff, B = build_batch(int(r), float(epsilon), uniforms)
    return PointCurvature(int(r), coeff[0], float(epsilon), B[0], seed)


def projectively_flat(r: int) -> PointCurvature:
    """The equality-case curvature (omega/r) * Id, with epsilon = 0."""
    if r < 2:
        raise InvalidInputError(f"rank must be at least 2, got {r}")
    coeff = np.zeros((r, r, 2, 2), dtype=np.complex128)
    diag = np.arange(r)
    coeff[diag, diag, 0, 0] = 1.0 / r
    coeff[diag, diag, 1, 1] = 1.0 / r
    return PointCurvature(r, coeff, 0.0, np.zeros((r, r), dtype=np.complex128))


def unitary_conjugate(pc: PointCurvature, U: np.ndarray) -> PointCurvature:
    """Change of frame by a unitary U: coeff -> U coeff U*, B -> U B U*.

    Preserves the Hermitian, trace, and contraction constraints exactly;
    the entrywise bound on B is not unitarily invariant and may be exceeded
    (reported by residuals(), not an error).
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.shape != (pc.rank, pc.rank):
        raise InvalidInputError(f"U must be {pc.rank} x {pc.rank}")
    if np.abs(U.conj().T @ U - np.eye(pc.rank)).max() > VALIDATION_TOL:
        raise InvalidInputError("U is not unitary")
    coeff = np.einsum("ik,klab,jl->ijab", U, pc.coeff, np.conj(U))
    B = U @ pc.B @ U.conj().T
    return PointCurvature(pc.rank, coeff, pc.epsilon, B)


def chern_densities(pc: PointCurvature) -> tuple[float, float]:
    """Densities of c1^2 and c2 of the curvature against the volume form.

    c1 is the trace form (equal to omega under the constraints, so the first
    value is 2 up to residuals); c2 is half of (tr)^2 minus the trace of the
    matrix wedge square.
    """
    validate(pc)
    c1sq, c2 = _batch_chern(pc.coeff[None])
    return float(c1sq[0]), float(c2[0])


def c2_density_pairwise(pc: PointCurvature) -> float:
    """c2 density via the sum over index pairs i != j.

    Independent of chern_densities: expands c2 = sum_{i<j} of the wedge of
    the i and j diagonal entries minus the wedge of the (i,j) and (j,i)
    entries, with no reference to the trace form.
    """
    validate(pc)
    c = pc.coeff
    diag_i = np.einsum("iiab->iab", c)
    total = 0.0
    for i in range(pc.rank):
        for j in range(pc.rank):
            if i == j:
                continue
            total += float(wedge_density(diag_i[i], diag_i[j]).real)
            total -= float(wedge_density(c[i, j], c[j, i]).real)
    return 0.5 * total


def _batch_chern(coeff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # per-sample c1^2 and c2 densities for coeff of shape (n, r, r, 2, 2)
    tr = np.einsum("niiab->nab", coeff)
    c1sq = wedge_density(tr, tr).real
    cross = (
        np.einsum("nij,nji->n", coeff[..., 0, 0], coeff[..., 1, 1])
        + np.einsum("nij,nji->n", coeff[..., 1, 1], coeff[..., 0, 0])
        - np.einsum("nij,nji->n", coeff[..., 0, 1], coeff[..., 1, 0])
        - np.einsum("nij,nji->n", coeff[..., 1, 0], coeff[..., 0, 1])
    ).real
    return c1sq, 0.5 * (c1sq - cross)


def batch_lhs_density(coeff: np.ndarray) -> np.ndarray:
    """Per-sample density of c1^2 - (2r(r-1)/(r^2-2r+2)) c2 for a batch.

    coeff has shape (n, r, r, 2, 2); no validation is performed here, batch
    drivers check residuals separately.
    """
    c1sq, c2 = _batch_chern(coeff)
    return c1sq - lubke_constant(coeff.shape[1]) * c2


def lubke_constant(r: int) -> float:
    """Float value of the criterion coefficient 2r(r-1)/(r^2-2r+2)."""
    return 2.0 * r * (r - 1) / (r * r - 2 * r + 2)


def error_term_density(r: int, epsilon: float) -> float:
    """Density of the additive error (4r + r(r^2-1)eps) * eps / (4(r^2-2r+2)) * omega^2."""
    k = r * r - 2 * r + 2
    return (4.0 * r + r * (r * r - 1) * epsilon) * epsilon / (4.0 * k) * 2.0


def gap_scale_offset(r: int, epsilon: float, lhs):
    """(scale, offset) with gap(v) = scale * det<v, Theta v>/<v, v> + offset.

    The squared normalized form has density 2 det, and lhs is the density
    returned by batch_lhs_density (an array, or one value).
    """
    k = r * r - 2 * r + 2
    return 2.0 * r * r / k, error_term_density(r, epsilon) - lhs


@dataclass(frozen=True)
class PointwiseGapResult:
    """One evaluation of the curvature inequality at a vector v.

    lhs_density is c1^2 - (2r(r-1)/(r^2-2r+2)) c2; rhs_density is
    r^2/(r^2-2r+2) times the density of the squared normalized form
    <v, Theta v>/<v, v> plus the epsilon error term; gap = rhs - lhs, so the
    inequality asserts gap >= 0.
    """

    lhs_density: float
    rhs_density: float
    gap: float
    v: tuple[complex, ...]


def normalized_form(pc: PointCurvature, v: np.ndarray) -> np.ndarray:
    """Coefficient matrix of <v, Theta v> / <v, v>, a Hermitian 2x2 array."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (pc.rank,):
        raise InvalidInputError(f"v must be a vector of length {pc.rank}")
    nv = float(np.vdot(v, v).real)
    if nv == 0.0:
        raise InvalidInputError("v must be nonzero")
    return np.einsum("i,ijab,j->ab", np.conj(v), pc.coeff, v) / nv


def lhs_density(pc: PointCurvature) -> float:
    """The left-hand side c1^2 - (2r(r-1)/(r^2-2r+2)) c2 at one point."""
    validate(pc)
    return float(batch_lhs_density(pc.coeff[None])[0])


def pointwise_gap(pc: PointCurvature, v: np.ndarray) -> PointwiseGapResult:
    """Evaluate the inequality at v; invariant under scaling of v."""
    q = normalized_form(pc, v)
    r = pc.rank
    k = r * r - 2 * r + 2
    rhs = (r * r / k) * float(wedge_density(q, q).real) + error_term_density(r, pc.epsilon)
    lhs = lhs_density(pc)
    v_arr = np.asarray(v, dtype=np.complex128)
    return PointwiseGapResult(lhs, rhs, rhs - lhs, tuple(complex(x) for x in v_arr))


def lagrange_max(r: int, mu: float, B_diag: Sequence[float]) -> float:
    """Closed-form maximum of f(x) = sum_{i>=2} x_i (2/r + B_i - x_i)
    over the hyperplane sum_{i>=2} x_i = 1 - mu.

    B_diag is the full real diagonal (B_1, ..., B_r) and must sum to zero;
    the maximizer is x_i = (1-mu)/(r-1) + B_1/(2(r-1)) + B_i/2.
    """
    if r < 2:
        raise InvalidInputError(f"need r >= 2, got {r}")
    b = np.asarray(B_diag, dtype=float)
    if b.shape != (r,):
        raise InvalidInputError(f"B_diag must have length {r}")
    if abs(float(b.sum())) > VALIDATION_TOL:
        raise InvalidInputError(f"B_diag must sum to zero, got {b.sum():.3e}")
    x = (1.0 - mu) / (r - 1) + b[0] / (2.0 * (r - 1)) + b[1:] / 2.0
    return float(np.sum(x * (2.0 / r + b[1:] - x)))


def lagrange_max_numeric(
    r: int,
    mu: float,
    B_diag: Sequence[float],
    iterations: int = 80,
    step: float = 0.4,
) -> float:
    """Iterative check of lagrange_max: projected gradient ascent on the
    constraint hyperplane from the equal-split point.

    The fixed step keeps the iteration a strict contraction (factor
    |1 - 2*step|) instead of a one-shot Newton solve, so agreement with the
    closed form is a genuine cross-check.
    """
    if r < 2:
        raise InvalidInputError(f"need r >= 2, got {r}")
    if not 0.0 < step < 1.0:
        raise InvalidInputError(f"step must lie in (0, 1), got {step}")
    b = np.asarray(B_diag, dtype=float)
    if b.shape != (r,):
        raise InvalidInputError(f"B_diag must have length {r}")
    x = np.full(r - 1, (1.0 - mu) / (r - 1))
    for _ in range(iterations):
        grad = 2.0 / r + b[1:] - 2.0 * x
        grad -= grad.mean()
        x = x + step * grad
    return float(np.sum(x * (2.0 / r + b[1:] - x)))
