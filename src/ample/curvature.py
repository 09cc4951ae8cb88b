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

Lower bounds on the gap of the pointwise inequality (gap_lower_bound) and
on the smallest eigenvalue of the normalized form (griffiths_lower_bound).
This is this repository's proof for the model above, not the paper's text.
Write C_ab = coeff[:, :, a, b] and T = C00 + C11 = (2/r) Id + B, and let

    S1 = (C01 + C10)/2,   S2 = i(C01 - C10)/2,   S3 = (C00 - C11)/2.

Hermitian coefficients make every S_k Hermitian, and tr coeff = omega makes
it trace-free.  For a unit vector v put t = <v, T v> and s_k = <v, S_k v>;
then the form q = <v, Theta v> has q00 = t/2 + s3, q11 = t/2 - s3 and
q01 = s1 - i s2, so its eigenvalues are t/2 +- |s| and det q = t^2/4 - |s|^2.
Two estimates bound them (_bound_terms):

- t >= lambda_min(T);
- |s| = max over unit u in R^3 of <v, S_u v> with S_u = sum u_k S_k, which
  is at most lambda_max(S_u).  A trace-free Hermitian r x r matrix A has
  lambda_max(A)^2 <= ((r-1)/r) |A|_F^2 (its other eigenvalues sum to
  -lambda_max, so their squares sum to at least lambda_max^2/(r-1)), and
  |S_u|_F^2 = u^T G u <= lambda_max(G) for the Gram matrix
  G_kl = Re tr(S_k S_l^*), which is Re tr(S_k S_l) as the S_k are Hermitian.

So for every unit v

    lambda_min q >= lambda_min(T)/2 - sqrt(((r-1)/r) lambda_max G)
    det q >= max(0, lambda_min T)^2/4 - ((r-1)/r) lambda_max(G)

(griffiths_lower_bound, det_lower_bound), and since the gap is
(2r^2/k) det q + err - lhs with k = r^2 - 2r + 2 (gap_scale_offset), the
same affine map of the det bound is a lower bound on the gap over all v.
Both estimates are equalities at rank 2 with B = 0, where t = 1 for every v
and a trace-free 2 x 2 matrix has lambda_max^2 = |A|_F^2/2 exactly: the top
eigenvector v of S_u, for u the top eigenvector of G, attains both bounds,
which are then the minima.  At the projectively flat point every S_k is 0
and T = (2/r) Id, so the Griffiths bound is 1/r, the minimum there.

The same construction gives each sample its bound's extremal vector
(extremal_vectors), at which sweeps screen it: u the top eigenvector of G,
then for the gap the eigenvector of S_u whose eigenvalue is largest in
absolute value, and for the smallest eigenvalue the bottom eigenvector of
T/2 - S_{+-u}.  _bound_terms computes T, S and G once per batch, and with
them the two estimates, t_min = lambda_min(T) and s_sq = ((r-1)/r)
lambda_max(G), which are all that the two bounds read.  One small
Hermitian eigen-kernel (_extreme_eigenpairs) gives lambda_min(T),
lambda_max(G) with u, and those vectors: in closed form at r <= 3, the
2 x 2 formula or Smith's trigonometric eigenvalues with a null vector of
A - lambda I, and otherwise by one LAPACK fallback, taken by every row
from r = 4 on and by the rows whose closed form it cannot trust.  Against
LAPACK the closed form agrees to about 10^-14 of the matrix's scale, far
inside the 1e-9 rounding allowance of the bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .criteria import lubke_coefficient
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


def gating_residuals(res: dict[str, float]) -> dict[str, float]:
    """The structural residuals, which gate a verdict: all but b_bound (see residuals)."""
    return {k: v for k, v in res.items() if k != "b_bound"}


def violations(res: dict[str, float]) -> dict[str, float]:
    """The gating residuals (gating_residuals) that are not <= VALIDATION_TOL; NaN counts."""
    return {k: v for k, v in gating_residuals(res).items() if not (v <= VALIDATION_TOL)}


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
    key: tuple[int, ...], lo: int, n: int, width: int, spawn_key: tuple[int, ...] = (0,), slots: int = 1
) -> np.ndarray:
    """(n, slots * width) uniform draws on [0, 1); row i holds slots
    0..slots-1 of row lo + i.

    The stream is Philox keyed by SeedSequence(key, spawn_key=spawn_key).
    Slot j of row i is the first width outputs from counter
    i * ceil(width / 4) + j * 2**128: each row owns a fixed-stride window of
    whole 4-word Philox blocks, so a row never depends on how rows are
    split into batches, nor a slot on how many slots are drawn.
    """
    state = np.random.SeedSequence(key, spawn_key=spawn_key).generate_state(2, np.uint64)
    stride = -(-width // 4)
    out = np.empty((n, slots, width))
    for j in range(slots):
        bitgen = np.random.Philox(key=state, counter=int(lo) * stride + (j << 128))
        out[:, j] = np.random.Generator(bitgen).random((n, 4 * stride))[:, :width]
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
    configuration is rebuilt here bit for bit.  The random test vectors of a
    sample, whose first slots are also the random starts of its search, are
    its row of stream (2,) of the same key.
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
    """Float value of the criterion coefficient 2r(r-1)/(r^2-2r+2), correctly rounded."""
    return float(lubke_coefficient(r))


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


class BoundTerms(NamedTuple):
    """What the bounds and the extremal vectors of a batch read, computed
    once per batch by _bound_terms: T = C00 + C11, the stack S of S_1, S_2,
    S_3, the proof's two estimates t_min = lambda_min(T) and
    s_sq = ((r-1)/r) lambda_max(G), and a unit top eigenvector u of G."""

    T: np.ndarray
    S: np.ndarray
    t_min: np.ndarray
    s_sq: np.ndarray
    u: np.ndarray


def _bound_terms(coeff: np.ndarray) -> BoundTerms:
    """The BoundTerms of coeff, shape (n, r, r, 2, 2): t >= t_min and
    |s|^2 <= s_sq at every unit v (see the module docstring).

    Each sample's values are computed by the same operations whatever the
    batch, so their bits do not depend on the other samples.
    """
    n, r = coeff.shape[:2]
    c00, c11, c01, c10 = (coeff[..., a, b] for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)))
    S = np.stack([0.5 * (c01 + c10), 0.5j * (c01 - c10), 0.5 * (c00 - c11)], axis=1)
    # G_kl = Re tr(S_k S_l^*), the dot product of the real and imaginary
    # parts of S_k and S_l, one entry of the upper triangle at a time
    F = S.reshape(n, 3, r * r).view(np.float64)
    G = np.empty((n, 3, 3))
    for k, l in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)):
        G[:, k, l] = G[:, l, k] = np.einsum("ni,ni->n", F[:, k], F[:, l])
    T = c00 + c11
    g_top, u = _extreme_eigenpairs(G, "top")
    t_min = _extreme_eigenpairs(T, "bottom", vectors=False)[0]
    return BoundTerms(T, S, t_min, (r - 1) / r * g_top, u)


def _abs2(z: np.ndarray) -> np.ndarray:
    return z.real * z.real + z.imag * z.imag


def _extreme_eigenpairs(A: np.ndarray, end: str, vectors: bool = True):
    """(values, vectors) of each Hermitian r x r matrix in A, shape (n, r, r):
    its smallest (end "bottom"), largest ("top") or largest in absolute
    value ("outer") eigenvalue and, with vectors, a unit eigenvector for it
    (else None).

    r = 2: with m = (a + d)/2, h = (a - d)/2 and s = sqrt(h^2 + |b|^2) the
    eigenvalues are m -+ s.  r = 3 (Smith, Commun. ACM 4 (1961) 168): with
    m = tr A / 3, p = |A - m I|_F / sqrt(6) and D = (A - m I)/p, they are
    m + 2p cos(phi + 2 pi j/3) for phi = arccos(det(D)/2)/3 in [0, pi/3];
    j = 0 is the largest and j = 1 the smallest.  The diagonal of A - m I is
    formed as (2a - b - c)/3 and so on, so that at A = a I it is exactly 0,
    p = 0, and the eigenvalue is a.  The eigenvector is a null vector of
    N = A - lambda I: at r = 2 the larger of (N01, -N00) and (N11, -N10),
    at r = 3 the largest cross product of two rows of N.  N x = 0 asks
    n . x = 0 of each row n of N under the plain, bilinear dot product, so
    the cross products are plain ones, not conjugated; they are the rows of
    N's cofactor matrix, which is Hermitian like N.

    One fallback block, LAPACK's eigh (eigvalsh without vectors), takes
    every row from r = 4 on and each row whose closed form it cannot trust.
    Where det(D)/2 < -0.999 the largest eigenvalue is nearly doubled, and
    where it is > 0.999 the smallest: arccos, whose slope there grows as
    1/sin(3 phi), would pass on the rounding of det(D)/2 magnified up to
    10^8 times.  With vectors, so do rows whose null vector vanishes
    (A = lambda I, or a doubled eigenvalue at r = 2).  The fallback picks
    the end, "outer" included, from LAPACK's own eigenvalues.  Only the
    diagonal and upper triangle of A are read in closed form, and each
    row's bits depend on that row alone.
    """
    n, r, _ = A.shape
    values, X, redo = np.empty(n), np.empty((n, r), dtype=A.dtype), np.ones(n, dtype=bool)
    if r <= 3:
        a, b = A[:, 0, 0].real, A[:, 1, 1].real
        if r == 2:
            d = A[:, 0, 1]
            m, h = 0.5 * (a + b), 0.5 * (a - b)
            dd = _abs2(d)
            s = np.sqrt(h * h + dd)
            low, high = m - s, m + s
            low_doubled = high_doubled = np.zeros(n, dtype=bool)
        else:
            c = A[:, 2, 2].real
            d, e, f = A[:, 0, 1], A[:, 0, 2], A[:, 1, 2]
            m = (a + b + c) / 3.0
            da, db, dc = (2.0 * a - b - c) / 3.0, (2.0 * b - a - c) / 3.0, (2.0 * c - a - b) / 3.0
            dd, ee, ff = _abs2(d), _abs2(e), _abs2(f)
            p = np.sqrt((da * da + db * db + dc * dc + 2.0 * (dd + ee + ff)) / 6.0)
            inv = 1.0 / np.where(p > 0.0, p, 1.0)
            det = da * db * dc - da * ff - db * ee - dc * dd + 2.0 * (d * f * np.conj(e)).real
            half_det = 0.5 * det * inv * inv * inv
            phi = np.arccos(np.clip(half_det, -1.0, 1.0)) / 3.0
            high = np.where(p > 0.0, m + 2.0 * p * np.cos(phi), a)
            low = np.where(p > 0.0, m + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), a)
            high_doubled, low_doubled = half_det < -0.999, half_det > 0.999
        top = np.abs(high) >= np.abs(low) if end == "outer" else np.full(n, end == "top")
        values = np.where(top, high, low)
        redo = np.where(top, high_doubled, low_doubled)
        if vectors:
            a, b = a - values, b - values
            if r == 2:
                X = np.stack([np.stack([d, -a], axis=1), np.stack([b, -np.conj(d)], axis=1)], axis=1)
                norms = np.stack([dd + a * a, b * b + dd], axis=1)
            else:
                c = c - values
                c00, c11, c22 = b * c - ff, a * c - ee, a * b - dd
                c01 = f * np.conj(e) - np.conj(d) * c
                c02 = np.conj(d * f) - b * np.conj(e)
                c12 = d * np.conj(e) - a * np.conj(f)
                n01, n02, n12 = _abs2(c01), _abs2(c02), _abs2(c12)
                cofactors = [c00, c01, c02, np.conj(c01), c11, c12, np.conj(c02), np.conj(c12), c22]
                X = np.stack(cofactors, axis=1).reshape(n, 3, 3)
                norms = np.stack([c00 * c00 + n01 + n02, n01 + c11 * c11 + n12, n02 + n12 + c22 * c22], axis=1)
            best = np.argmax(norms, axis=1)
            norm = norms[np.arange(n), best]
            X = X[np.arange(n), best] / np.sqrt(np.where(norm > 0.0, norm, 1.0))[:, None]
            redo |= ~(norm >= np.finfo(float).tiny)
    redo = np.flatnonzero(redo)
    if redo.size:
        rest = A if redo.size == n else A[redo]  # no copy of a batch that is all fallback
        w, Y = np.linalg.eigh(rest) if vectors else (np.linalg.eigvalsh(rest), None)
        top = np.abs(w[:, -1]) >= np.abs(w[:, 0]) if end == "outer" else np.full(redo.size, end == "top")
        j, rows = np.where(top, r - 1, 0), np.arange(redo.size)
        values[redo] = w[rows, j]
        if vectors:
            X[redo] = Y[rows, :, j]
    return values, (X if vectors else None)


def det_lower_bound(coeff: np.ndarray, terms: BoundTerms | None = None) -> np.ndarray:
    """Per-sample lower bound on det<v, Theta v> over unit v, for coeff of
    shape (n, r, r, 2, 2): max(0, lambda_min T)^2/4 - ((r-1)/r) lambda_max G
    (see the module docstring); its bits do not depend on the batch.  terms
    are coeff's _bound_terms, computed here when not given.
    """
    terms = _bound_terms(coeff) if terms is None else terms
    return np.maximum(terms.t_min, 0.0) ** 2 / 4.0 - terms.s_sq


def griffiths_lower_bound(coeff: np.ndarray, terms: BoundTerms | None = None) -> np.ndarray:
    """Per-sample lower bound on the smallest eigenvalue of <v, Theta v> over
    unit v, for coeff of shape (n, r, r, 2, 2):
    lambda_min(T)/2 - sqrt(((r-1)/r) lambda_max G) (see the module
    docstring); its bits do not depend on the batch.  terms are coeff's
    _bound_terms, computed here when not given.
    """
    terms = _bound_terms(coeff) if terms is None else terms
    return terms.t_min / 2.0 - np.sqrt(terms.s_sq)


def extremal_vectors(coeff: np.ndarray, griffiths: bool = False, terms: BoundTerms | None = None) -> np.ndarray:
    """Per sample, shape (n, r), the unit vector at which the estimates of
    its gap bound (griffiths False) or its Griffiths bound hold with
    equality wherever they can, for coeff of shape (n, r, r, 2, 2).

    With u the top eigenvector of G, so that |S_u|_F^2 = lambda_max G: for
    the gap the eigenvector of S_u whose eigenvalue is largest in absolute
    value, that is the top eigenvector of S_u or of S_{-u}, whichever top
    eigenvalue is larger, which |s| is at least; for the smallest
    eigenvalue the bottom eigenvector of T/2 - S_{+-u}, whichever sign has
    the lower bottom eigenvalue (both from one kernel call, and T/2 - S_u
    on a tie), since min over v of lambda_min q is the
    min over unit u of lambda_min(T/2 - S_u).  At rank 2 with B = 0 both
    are the minimizers (see the module docstring).  terms are coeff's
    _bound_terms, computed here when not given; each row's bits depend on
    that row alone.
    """
    terms = _bound_terms(coeff) if terms is None else terms
    u, S = terms.u[:, :, None, None], terms.S
    Su = u[:, 0] * S[:, 0] + u[:, 1] * S[:, 1] + u[:, 2] * S[:, 2]
    if not griffiths:
        return _extreme_eigenpairs(Su, "outer")[1]
    half, n = 0.5 * terms.T, len(Su)
    values, X = _extreme_eigenpairs(np.concatenate([half - Su, half + Su]), "bottom")
    return np.where((values[n:] < values[:n])[:, None], X[n:], X[:n])


def gap_lower_bound(coeff: np.ndarray, epsilon: float) -> np.ndarray:
    """Per-sample lower bound on the inequality gap over all unit v.

    det_lower_bound mapped through gap_scale_offset, so the bound rests on
    the same lhs (batch_lhs_density) and error term as every evaluated gap.
    """
    scale, offset = gap_scale_offset(coeff.shape[1], epsilon, batch_lhs_density(coeff))
    return scale * det_lower_bound(coeff) + offset


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


def lagrange_max_numeric(r: int, mu: float, B_diag: Sequence[float]) -> float:
    """Iterative check of lagrange_max: 80 steps of projected gradient ascent
    of fixed length 0.4 on the constraint hyperplane from the equal-split point.

    The fixed step keeps the iteration a strict contraction (factor
    |1 - 2 * 0.4| = 0.2) instead of a one-shot Newton solve, so agreement
    with the closed form is a genuine cross-check.
    """
    if r < 2:
        raise InvalidInputError(f"need r >= 2, got {r}")
    b = np.asarray(B_diag, dtype=float)
    if b.shape != (r,):
        raise InvalidInputError(f"B_diag must have length {r}")
    x = np.full(r - 1, (1.0 - mu) / (r - 1))
    for _ in range(80):
        grad = 2.0 / r + b[1:] - 2.0 * x
        grad -= grad.mean()
        x = x + 0.4 * grad
    return float(np.sum(x * (2.0 / r + b[1:] - x)))
