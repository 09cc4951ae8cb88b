import numpy as np
import pytest

from ample.curvature import (
    VALIDATION_TOL,
    PointCurvature,
    _bound_terms,
    _box_muller,
    _coefficient_count,
    _extreme_eigenpairs,
    batch_lhs_density,
    build_batch,
    c2_density_pairwise,
    chern_densities,
    error_term_density,
    extremal_vectors,
    gap_lower_bound,
    griffiths_lower_bound,
    lagrange_max,
    lagrange_max_numeric,
    lhs_density,
    lubke_constant,
    normalized_form,
    pointwise_gap,
    projectively_flat,
    residuals,
    sample_curvature,
    seeded_draws,
    unitary_conjugate,
    validate,
    wedge_density,
)
from ample.errors import InconsistentStateError, InvalidInputError
from ample.spheremin import griffiths_min, min_gap_over_v, random_unit_vectors


def as_form(rows):
    return np.array(rows, dtype=np.complex128)


def philox_uniforms(key, row, width, spawn_key=(0,), slot=0):
    # the stream contract, written out against numpy's Philox directly:
    # slot `slot` of row `row` starts at counter row * ceil(width / 4) + slot * 2**128
    state = np.random.SeedSequence(key, spawn_key=spawn_key).generate_state(2, np.uint64)
    counter = row * -(-width // 4) + slot * 2**128
    return np.random.Generator(np.random.Philox(key=state, counter=counter)).random(width)


def random_unitary(rng, r):
    z = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    q, rr = np.linalg.qr(z)
    return q * (np.diag(rr) / np.abs(np.diag(rr)))


def test_wedge_density_oracle():
    a = as_form([[2, 5], [7, 3]])
    b = as_form([[1, -1], [4, 6]])
    # a00*b11 + a11*b00 - a01*b10 - a10*b01
    assert wedge_density(a, b) == 2 * 6 + 3 * 1 - 5 * 4 - 7 * (-1)


def test_wedge_density_of_identity_is_two():
    omega = as_form([[1, 0], [0, 1]])
    assert wedge_density(omega, omega) == 2.0


def test_wedge_density_symmetric_and_bilinear():
    rng = np.random.default_rng(10)
    for _ in range(50):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert wedge_density(a, b) == pytest.approx(wedge_density(b, a))
        assert wedge_density(a, b + 3 * c) == pytest.approx(
            wedge_density(a, b) + 3 * wedge_density(a, c)
        )


def test_wedge_density_of_hermitian_form_against_determinant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = m + m.conj().T
        assert wedge_density(h, h) == pytest.approx(2 * np.linalg.det(h).real)


def test_sampled_instance_satisfies_all_constraints():
    for r in (2, 3, 5):
        for eps in (0.0, 0.1):
            pc = sample_curvature(r, eps, (4, r))
            res = residuals(pc)
            assert res["hermitian"] <= 1e-12
            assert res["trace"] <= 1e-12
            assert res["he"] <= 1e-12
            assert res["b_trace"] <= 1e-12
            assert res["b_bound"] == 0.0
            validate(pc)


def test_diagonal_b_entries_stay_within_epsilon():
    # mean-centering the diagonal draw must not push entries past the bound
    for r in (2, 3, 6):
        for s in range(20):
            pc = sample_curvature(r, 0.05, (77, r, s))
            assert np.abs(np.diag(pc.B)).max() <= 0.05 + 1e-15


def test_sampling_is_reproducible():
    a = sample_curvature(4, 0.1, (0, 1, 2))
    b = sample_curvature(4, 0.1, (0, 1, 2))
    c = sample_curvature(4, 0.1, (0, 1, 3))
    assert np.array_equal(a.coeff, b.coeff)
    assert np.array_equal(a.B, b.B)
    assert not np.array_equal(a.coeff, c.coeff)
    # an integer seed s is row 0 of key (s,)
    assert np.array_equal(sample_curvature(4, 0.1, 7).coeff, sample_curvature(4, 0.1, (7, 0)).coeff)


def test_batch_agrees_with_scalar_sampling():
    r, eps = 3, 0.1
    m = 4 * r * r - 3
    uniforms = np.array([philox_uniforms((9,), i, m) for i in range(6)])
    coeff, B = build_batch(r, eps, uniforms)
    for i in range(6):
        pc = sample_curvature(r, eps, (9, i))
        assert np.array_equal(coeff[i], pc.coeff)
        assert np.array_equal(B[i], pc.B)


def test_seeded_draws_match_a_philox_oracle():
    # rows, slots and streams as the contract defines them, for keys of one
    # and two entries, entries wider than 32 bits and rows far from 0
    for key in ((0, 3), (7,), (2**40 + 5, 1), (1, 2, 3, 4, 5)):
        for spawn_key in ((0,), (1,), (2,)):
            for lo, width, slots in ((0, 13, 1), (5, 33, 1), (2**40, 6, 3)):
                got = seeded_draws(key, lo, 4, width, spawn_key, slots=slots)
                want = [
                    np.concatenate([philox_uniforms(key, lo + i, width, spawn_key, j) for j in range(slots)])
                    for i in range(4)
                ]
                assert np.array_equal(got, np.array(want))
    def normals(u):
        half = len(u) // 2
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:half]))
        angle = 2 * np.pi * u[half:]
        return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])

    u = philox_uniforms((3, 1), 2, 8, (2,))
    got = _box_muller(seeded_draws((3, 1), 2, 1, 8, (2,)))[0]
    assert got == pytest.approx(normals(u), rel=1e-13, abs=1e-15)
    # the random test vectors and random starts: slot j of row lo + i in
    # stream (2,), two halves of 4 uniforms made normals, normalized
    for key, lo, r in (((3, 1), 2, 4), ((2**40 + 5, 1), 2**40, 3)):
        got = random_unit_vectors(key, lo, 3, 5, r)
        for i in range(3):
            for j in range(5):
                z = normals(philox_uniforms(key, lo + i, 2 * r, (2,), j))
                want = (z[:r] + 1j * z[r:]) / np.linalg.norm(z)
                assert got[i, j] == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("width", [13, 33])
def test_rows_do_not_depend_on_the_batch_split(width):
    # 13 and 33 are the sampler widths 4r^2 - 3 at ranks 2 and 3, neither a
    # multiple of the 4 words of a Philox block
    whole = seeded_draws((4, 1), 0, 20, width)
    parts = [seeded_draws((4, 1), lo, hi - lo, width) for lo, hi in ((0, 1), (1, 8), (8, 20))]
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(seeded_draws((4, 1), 13, 1, width)[0], whole[13])
    # a numpy row index, as np.flatnonzero gives, draws the same row
    assert np.array_equal(seeded_draws((4, 1), np.int64(13), 1, width, slots=2)[0, :width], whole[13])


def test_unit_vectors_do_not_depend_on_their_count():
    for r in (2, 3, 5):
        many = random_unit_vectors((6, 0), 10, 9, 7, r)
        few = random_unit_vectors((6, 0), 12, 3, 2, r)
        assert np.array_equal(many[2:5, :2], few)
        assert np.abs(np.linalg.norm(many, axis=-1) - 1.0).max() <= 1e-15


def test_streams_and_configurations_draw_differently():
    draws = [seeded_draws((0, ci), 0, 8, 13, (k,)) for ci in (0, 1) for k in (0, 1, 2)]
    for a in range(len(draws)):
        for b in range(a):
            assert not np.isin(draws[a], draws[b]).any()


def test_box_muller_maps_the_ends_of_the_unit_interval_to_finite_normals():
    top = 1.0 - 2.0**-53
    z = _box_muller(np.array([[0.0, 0.0], [0.0, 0.25], [top, 0.0], [top, 0.5]]))
    assert np.isfinite(z).all()
    assert np.array_equal(z[:2], np.zeros((2, 2)))
    assert z[2, 0] == pytest.approx(np.sqrt(2 * 53 * np.log(2)), rel=1e-12)
    assert z[3, 0] == pytest.approx(-z[2, 0], rel=1e-12)


def test_seed_validation():
    with pytest.raises(InvalidInputError):
        sample_curvature(3, 0.0, -1)
    with pytest.raises(InvalidInputError):
        sample_curvature(3, 0.0, ())
    with pytest.raises(InvalidInputError):
        sample_curvature(3, 0.0, (0, 2**64))
    with pytest.raises(InvalidInputError):
        sample_curvature(3, 0.0, (2, -5))
    with pytest.raises(InvalidInputError):
        sample_curvature(3, 0.0, True)
    with pytest.raises(InvalidInputError):
        sample_curvature(3, -0.5, 0)
    with pytest.raises(InvalidInputError):
        sample_curvature(1, 0.0, 0)


def test_constructor_rejects_bad_shapes():
    good = sample_curvature(2, 0.0, 0)
    with pytest.raises(InvalidInputError):
        PointCurvature(2, good.coeff[:1], 0.0, good.B)
    with pytest.raises(InvalidInputError):
        PointCurvature(2, good.coeff, 0.0, good.B[:1])
    with pytest.raises(InvalidInputError):
        PointCurvature(2, good.coeff, float("nan"), good.B)


def test_validate_rejects_tampered_instance():
    pc = sample_curvature(3, 0.0, 5)
    coeff = pc.coeff.copy()
    coeff[0, 1, 0, 0] += 1e-3
    broken = PointCurvature(3, coeff, 0.0, pc.B)
    with pytest.raises(InconsistentStateError):
        validate(broken)
    # restoring Hermitian symmetry still leaves the trace broken
    coeff2 = pc.coeff.copy()
    coeff2[0, 0, 0, 0] += 1e-3
    coeff2[1, 1, 0, 0] -= 1e-3
    with pytest.raises(InconsistentStateError):
        validate(PointCurvature(3, coeff2, 0.0, pc.B))


def test_validate_counts_nan_residuals_as_violations():
    pc = sample_curvature(3, 0.0, 5)
    coeff = pc.coeff.copy()
    coeff[0, 0, 0, 0] = np.nan
    with pytest.raises(InconsistentStateError, match="trace=nan"):
        validate(PointCurvature(3, coeff, 0.0, pc.B))


def test_coeff_array_is_read_only():
    pc = sample_curvature(2, 0.0, 0)
    with pytest.raises(ValueError):
        pc.coeff[0, 0, 0, 0] = 0.0


def test_projectively_flat_densities():
    for r in range(2, 9):
        pc = projectively_flat(r)
        validate(pc)
        c1sq, c2 = chern_densities(pc)
        assert c1sq == pytest.approx(2.0, abs=1e-14)
        assert c2 == pytest.approx((r - 1) / r, abs=1e-14)


def test_projectively_flat_gap_is_zero():
    for r in range(2, 9):
        pc = projectively_flat(r)
        k = r * r - 2 * r + 2
        rng = np.random.default_rng(20 + r)
        for _ in range(30):
            v = rng.standard_normal(r) + 1j * rng.standard_normal(r)
            res = pointwise_gap(pc, v)
            assert res.lhs_density == pytest.approx(2.0 / k, abs=1e-13)
            assert res.rhs_density == pytest.approx(2.0 / k, abs=1e-13)
            assert abs(res.gap) <= 1e-13


def test_gap_invariant_under_vector_scaling():
    pc = sample_curvature(4, 0.1, 12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        base = pointwise_gap(pc, v)
        scaled = pointwise_gap(pc, (2.5 - 1.5j) * v)
        assert scaled.gap == pytest.approx(base.gap, rel=1e-12, abs=1e-12)


def test_gap_rejects_zero_vector():
    pc = sample_curvature(3, 0.0, 0)
    with pytest.raises(InvalidInputError):
        pointwise_gap(pc, np.zeros(3))


def test_chern_densities_invariant_under_unitary_frame_change():
    rng = np.random.default_rng(7)
    for r in (2, 3, 5):
        pc = sample_curvature(r, 0.1, (1, r))
        base = chern_densities(pc)
        for _ in range(5):
            u = random_unitary(rng, r)
            rotated = unitary_conjugate(pc, u)
            validate(rotated)
            got = chern_densities(rotated)
            assert got[0] == pytest.approx(base[0], abs=1e-8)
            assert got[1] == pytest.approx(base[1], abs=1e-8)


def test_unitary_conjugate_rejects_non_unitary():
    pc = sample_curvature(2, 0.0, 0)
    with pytest.raises(InvalidInputError):
        unitary_conjugate(pc, np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_c2_trace_form_matches_pairwise_form():
    rng = np.random.default_rng(15)
    for _ in range(40):
        r = int(rng.integers(2, 7))
        pc = sample_curvature(r, float(rng.uniform(0, 0.2)), (3, int(rng.integers(1 << 20))))
        _, c2 = chern_densities(pc)
        assert c2_density_pairwise(pc) == pytest.approx(c2, abs=1e-10)


def test_batch_lhs_matches_scalar_lhs():
    r, eps = 4, 0.05
    m = 4 * r * r - 3
    coeff, _ = build_batch(r, eps, np.array([philox_uniforms((8,), i, m) for i in range(5)]))
    batch = batch_lhs_density(coeff)
    for i in range(5):
        assert batch[i] == pytest.approx(lhs_density(sample_curvature(r, eps, (8, i))), abs=1e-12)


def test_error_term_constants():
    assert error_term_density(3, 0.0) == 0.0
    # (4r + r(r^2-1) eps) eps / (4K) times the omega^2 density 2
    r, eps = 3, 0.1
    k = r * r - 2 * r + 2
    expected = (4 * r + r * (r * r - 1) * eps) * eps / (4 * k) * 2
    assert error_term_density(r, eps) == pytest.approx(expected, rel=1e-15)
    assert lubke_constant(2) == 2.0
    assert lubke_constant(3) == pytest.approx(12 / 5)


def test_lagrange_closed_form_matches_iteration():
    rng = np.random.default_rng(31)
    for _ in range(200):
        r = int(rng.integers(2, 9))
        mu = float(rng.uniform(-2, 2))
        b = rng.uniform(-0.1, 0.1, size=r)
        b -= b.mean()
        assert lagrange_max(r, mu, b) == pytest.approx(
            lagrange_max_numeric(r, mu, b), abs=1e-9
        )


def test_lagrange_closed_form_dominates_feasible_points():
    # the closed form is the constrained maximum, so random feasible q never beat it
    rng = np.random.default_rng(32)
    for _ in range(100):
        r = int(rng.integers(2, 7))
        mu = float(rng.uniform(-2, 2))
        b = rng.uniform(-0.1, 0.1, size=r)
        b -= b.mean()
        best = lagrange_max(r, mu, b)
        for _ in range(20):
            q = rng.uniform(-2, 2, size=r - 1)
            q += (1.0 - mu - q.sum()) / (r - 1)
            value = float(np.sum(q * (2.0 / r + b[1:] - q)))
            assert value <= best + 1e-12


def test_lagrange_input_validation():
    with pytest.raises(InvalidInputError):
        lagrange_max(1, 0.0, [0.0])
    with pytest.raises(InvalidInputError):
        lagrange_max(3, 0.0, [0.1, 0.1, 0.1])
    with pytest.raises(InvalidInputError):
        lagrange_max(3, 0.0, [0.1, -0.1])


def entrywise_family(r, eps):
    """coeff00 = I/r, coeff11 = I/r + B with B = -eps (J - I): every residual
    passes under the entrywise bound on B, and lambda_min(B) = -(r-1) eps."""
    B = -eps * (np.ones((r, r)) - np.eye(r))
    coeff = np.zeros((r, r, 2, 2), dtype=np.complex128)
    coeff[..., 0, 0] = np.eye(r) / r
    coeff[..., 1, 1] = np.eye(r) / r + B
    return PointCurvature(r, coeff, eps, B)


def searched_gaps(pcs):
    found = min_gap_over_v(pcs, restarts=10, tol=1e-10, iterations=2000)
    return np.array([res.gap for res in found])


def rounding_slack(pcs):
    # the scale of the terms whose difference the gap is
    lhs = batch_lhs_density(np.stack([pc.coeff for pc in pcs]))
    err = np.array([error_term_density(pc.rank, pc.epsilon) for pc in pcs])
    return 1e-9 * (1.0 + np.abs(lhs) + err)


@pytest.mark.parametrize("r", range(2, 8))
def test_the_search_never_goes_below_the_gap_bound(r):
    rng = np.random.default_rng(r)
    z = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r))
    U, _ = np.linalg.qr(z)
    pcs = [sample_curvature(r, eps, (11, i)) for eps in (0.0, 0.01, 0.1) for i in range(8)]
    pcs += [projectively_flat(r)]
    pcs += [entrywise_family(r, eps) for eps in (0.01, 0.1)]
    pcs += [unitary_conjugate(entrywise_family(r, 0.1), U)]
    bound = np.concatenate([gap_lower_bound(pc.coeff[None], pc.epsilon) for pc in pcs])
    assert np.all(searched_gaps(pcs) >= bound - rounding_slack(pcs))


@pytest.mark.parametrize(
    "r, eps, closed",
    [(3, 0.1, -0.096), (4, 0.01, -0.0157), (2, 0.1, None), (5, 0.05, None)],
)
def test_the_gap_bound_is_the_closed_form_on_the_entrywise_family(r, eps, closed):
    # where lambda_min(T) = 2/r - (r-1) eps >= 0 both estimates of the bound
    # are equalities, and the minimum gap is
    # (2r lambda_min(B) + 2r eps + r(r^2-1) eps^2/2)/k
    assert 2 / r - (r - 1) * eps >= 0
    k = r * r - 2 * r + 2
    formula = (-2 * r * (r - 1) * eps + 2 * r * eps + r * (r * r - 1) * eps**2 / 2) / k
    if closed is not None:
        assert formula == pytest.approx(closed, abs=1e-15)
    pc = entrywise_family(r, eps)
    bound = gap_lower_bound(pc.coeff[None], eps)[0]
    assert bound == pytest.approx(formula, abs=1e-13)
    assert searched_gaps([pc])[0] == pytest.approx(bound, abs=1e-9)


def test_the_gap_bound_is_the_minimum_gap_at_rank_two_without_error():
    pcs = [sample_curvature(2, 0.0, (12, i)) for i in range(20)]
    bound = gap_lower_bound(np.stack([pc.coeff for pc in pcs]), 0.0)
    assert np.abs(searched_gaps(pcs) - bound).max() <= 1e-9


def test_the_gap_bound_of_a_sample_does_not_depend_on_its_batch():
    coeff, _ = build_batch(5, 0.1, seeded_draws((4,), 0, 777, _coefficient_count(5)))
    whole = gap_lower_bound(coeff, 0.1)
    for size in (1, 100):
        parts = [gap_lower_bound(coeff[lo : lo + size], 0.1) for lo in range(0, 777, size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), size


def searched_eigenvalues(pcs):
    return np.array([griffiths_min(pc, restarts=10, tol=1e-10, iterations=2000) for pc in pcs])


def griffiths_bounds(pcs):
    return np.concatenate([griffiths_lower_bound(pc.coeff[None]) for pc in pcs])


@pytest.mark.parametrize("r", range(2, 8))
def test_the_search_never_goes_below_the_griffiths_bound(r):
    rng = np.random.default_rng(r)
    pcs = [sample_curvature(r, eps, (13, i)) for eps in (0.0, 0.01, 0.1) for i in range(4)]
    pcs += [entrywise_family(r, 0.1), unitary_conjugate(entrywise_family(r, 0.1), random_unitary(rng, r))]
    # the smallest eigenvalue of q is at most |q|, which no entry of these
    # curvatures takes far above 1
    assert np.all(searched_eigenvalues(pcs) >= griffiths_bounds(pcs) - 1e-9)


def test_the_griffiths_bound_is_the_minimum_at_rank_two_without_error():
    pcs = [sample_curvature(2, 0.0, (14, i)) for i in range(12)]
    bound = griffiths_lower_bound(np.stack([pc.coeff for pc in pcs]))
    assert np.abs(searched_eigenvalues(pcs) - bound).max() <= 1e-9


@pytest.mark.parametrize("r", [2, 3, 5, 8])
def test_the_griffiths_bound_is_one_over_r_at_the_flat_point(r):
    assert griffiths_lower_bound(projectively_flat(r).coeff[None])[0] == pytest.approx(1.0 / r, abs=1e-15)


def test_the_griffiths_bound_of_a_sample_does_not_depend_on_its_batch():
    coeff, _ = build_batch(4, 0.1, seeded_draws((5,), 0, 777, _coefficient_count(4)))
    whole = griffiths_lower_bound(coeff)
    for size in (1, 100):
        parts = [griffiths_lower_bound(coeff[lo : lo + size]) for lo in range(0, 777, size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), size


def gram(coeff):
    """G_kl = Re tr(S_k S_l) of a batch of coefficients, as the curvature
    module's proof defines it."""
    c00, c11, c01, c10 = (coeff[..., a, b] for a, b in ((0, 0), (1, 1), (0, 1), (1, 0)))
    S = np.stack([(c01 + c10) / 2, 1j * (c01 - c10) / 2, (c00 - c11) / 2], axis=1)
    return np.einsum("nkij,nlji->nkl", S, S).real


def _top_eigenvalue(G):
    # lambda_max G as the bounds take it
    return _extreme_eigenpairs(G, "top", vectors=False)[0]


def assert_top_eigenvalue(G, rel=1e-13):
    expected = np.linalg.eigvalsh(G)[:, -1]
    assert np.all(np.abs(_top_eigenvalue(G) - expected) <= rel * np.abs(expected))


def test_the_closed_form_top_eigenvalue_of_sampled_gram_matrices_is_eigvalshs():
    rng = np.random.default_rng(21)
    for r in range(2, 8):
        pcs = [entrywise_family(r, 0.1), unitary_conjugate(entrywise_family(r, 0.1), random_unitary(rng, r))]
        coeff = np.stack([pc.coeff for pc in pcs])
        for eps in (0.0, 0.01, 0.1, 0.5, 1.0):
            batch, _ = build_batch(r, eps, seeded_draws((21, r), 0, 500, _coefficient_count(r)))
            coeff = np.concatenate([coeff, batch])
        assert_top_eigenvalue(gram(coeff))


def test_the_closed_form_top_eigenvalue_is_exact_at_a_multiple_of_the_identity():
    assert _top_eigenvalue(gram(projectively_flat(4).coeff[None]))[0] == 0.0
    assert _top_eigenvalue(np.zeros((1, 3, 3)))[0] == 0.0
    c = np.array([0.1, 1 / 3, 7.25, 1e-200])
    assert _top_eigenvalue(c[:, None, None] * np.eye(3)).tolist() == c.tolist()


@pytest.mark.parametrize("r", range(2, 8))
def test_the_closed_form_top_eigenvalue_of_a_rank_one_gram_matrix(r):
    # S_k = u_k A with A = a diag(r-1, -1, ..., -1) trace-free and u a unit
    # vector: G = |A|_F^2 u u^T, of rank 1, with top eigenvalue a^2 r (r-1)
    rng = np.random.default_rng(r)
    a = 0.1
    A = a * np.diag([r - 1.0] + [-1.0] * (r - 1))
    coeff = np.zeros((8, r, r, 2, 2), dtype=np.complex128)
    for n, u in enumerate([(0.0, 0.0, 1.0), *rng.standard_normal((7, 3))]):
        u = np.asarray(u) / np.linalg.norm(u)
        coeff[n, ..., 0, 0] = np.eye(r) / r + u[2] * A
        coeff[n, ..., 1, 1] = np.eye(r) / r - u[2] * A
        coeff[n, ..., 0, 1] = (u[0] - 1j * u[1]) * A
        coeff[n, ..., 1, 0] = (u[0] + 1j * u[1]) * A
        validate(PointCurvature(r, coeff[n], 0.0, np.zeros((r, r))))
    G = gram(coeff)
    assert_top_eigenvalue(G)
    assert _top_eigenvalue(G) == pytest.approx(np.full(8, a * a * r * (r - 1)), rel=1e-13)


def test_the_closed_form_top_eigenvalue_when_it_is_doubled_or_nearly_so():
    # G = Q diag(l, l (1 - g), m) Q^T with m < l, for g from 0 to 1e-1
    rng = np.random.default_rng(22)
    n = 2000
    Q, _ = np.linalg.qr(rng.standard_normal((n, 3, 3)))
    scale = 10.0 ** rng.uniform(-3, 3, n)
    g = np.where(np.arange(n) % 4 == 0, 0.0, 10.0 ** rng.uniform(-16, -1, n))
    eigenvalues = np.stack([np.ones(n), 1 - g, rng.uniform(0.0, 0.9, n)], axis=1) * scale[:, None]
    G = np.einsum("nij,nj,nkj->nik", Q, eigenvalues, Q)
    assert_top_eigenvalue(G)
    assert _top_eigenvalue(G) == pytest.approx(scale, rel=1e-13)


def hermitian(rng, n, r, dtype=complex):
    z = rng.standard_normal((n, r, r))
    if dtype is complex:
        z = z + 1j * rng.standard_normal((n, r, r))
    return (z + np.conj(np.swapaxes(z, 1, 2))) / 2


def wanted(w, end):
    """The eigenvalue of each row of ascending eigenvalues w that end names."""
    outer = np.where(np.abs(w[:, -1]) >= np.abs(w[:, 0]), w[:, -1], w[:, 0])
    return {"bottom": w[:, 0], "top": w[:, -1], "outer": outer}[end]


def assert_eigenpairs(A, end, rel=1e-13):
    # the values are LAPACK's to rel times the matrix's scale; the vectors
    # are unit vectors whose Rayleigh quotient is the wanted eigenvalue
    want = wanted(np.linalg.eigvalsh(A), end)
    scale = 1.0 + np.abs(A).max(axis=(1, 2))
    values, X = _extreme_eigenpairs(A, end)
    only, none = _extreme_eigenpairs(A, end, vectors=False)
    assert none is None
    for got in (values, only):
        assert np.all(np.abs(got - want) <= rel * scale)
    assert np.all(np.abs(np.linalg.norm(X, axis=1) - 1.0) <= 1e-14)
    rayleigh = np.einsum("ni,nij,nj->n", np.conj(X), A, X).real
    assert np.all(np.abs(rayleigh - want) <= rel * scale)


@pytest.mark.parametrize("r", [2, 3, 4, 5])
@pytest.mark.parametrize("end", ["bottom", "top", "outer"])
def test_the_eigen_kernel_matches_lapack_on_random_hermitian_matrices(r, end):
    rng = np.random.default_rng(31 + r)
    n = 10000 if r <= 3 else 500
    assert_eigenpairs(hermitian(rng, n, r), end)
    assert_eigenpairs(hermitian(rng, n, r, dtype=float), end)


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("end", ["bottom", "top"])
def test_the_eigen_kernel_when_the_wanted_eigenvalue_is_doubled_or_nearly_so(r, end):
    # A = Q diag(l, l (1 - g), rest) Q* with the pair at the wanted end, for
    # g from 0 to 1e-1, and multiples of the identity
    rng = np.random.default_rng(32 + r)
    n = 4000
    Q, _ = np.linalg.qr(rng.standard_normal((n, r, r)) + 1j * rng.standard_normal((n, r, r)))
    scale = 10.0 ** rng.uniform(-3, 3, n)
    g = np.where(np.arange(n) % 4 == 0, 0.0, 10.0 ** rng.uniform(-16, -1, n))
    pair = np.stack([np.ones(n), 1 - g], axis=1)
    rest = rng.uniform(-0.9, 0.9, (n, r - 2))
    eigenvalues = np.concatenate([pair, rest] if end == "top" else [-pair, rest], axis=1) * scale[:, None]
    A = np.einsum("nij,nj,nkj->nik", Q, eigenvalues, np.conj(Q))
    assert_eigenpairs(A, end)
    c = np.array([0.1, 1 / 3, -7.25, 0.0, 1e-200])
    values, X = _extreme_eigenpairs(c[:, None, None] * np.eye(r), end)
    assert values.tolist() == c.tolist()
    assert np.abs(np.linalg.norm(X, axis=1) - 1.0).max() <= 1e-15


def test_the_smallest_eigenvalue_of_t_never_lies_above_lapacks():
    # in the bound, above by more than the rounding allowance would be a
    # bound that is not proven; at eps = 0, T is (2/r) I up to rounding
    for r in range(2, 8):
        for eps in (0.0, 0.01, 0.1, 0.5, 1.0):
            coeff, _ = build_batch(r, eps, seeded_draws((33, r), 0, 2000, _coefficient_count(r)))
            T = coeff[..., 0, 0] + coeff[..., 1, 1]
            lapack = np.linalg.eigvalsh(T)[:, 0]
            t_min = _bound_terms(coeff).t_min
            assert np.all(t_min - lapack <= VALIDATION_TOL * (1.0 + np.abs(lapack)))
            assert np.abs(t_min - lapack).max() <= 1e-14


def test_the_terms_at_the_flat_point_and_at_a_multiple_of_the_identity():
    # at the projectively flat point S = 0, so G = 0, and T = (2/r) I
    for r in (2, 3, 4):
        coeff = projectively_flat(r).coeff[None]
        terms = _bound_terms(coeff)
        assert terms.s_sq.tolist() == [0.0]
        assert terms.t_min[0] == pytest.approx(2.0 / r, abs=1e-15)
        assert np.linalg.norm(terms.u[0]) == pytest.approx(1.0, abs=1e-15)
        for griffiths in (False, True):
            v = extremal_vectors(coeff, griffiths)[0]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
            assert np.linalg.eigvalsh(normalized_form(projectively_flat(r), v))[0] == pytest.approx(1.0 / r, abs=1e-15)
    G = np.array([0.25, 4.0])[:, None, None] * np.eye(3)
    values, u = _extreme_eigenpairs(G, "top")
    assert values.tolist() == [0.25, 4.0]
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() <= 1e-15


@pytest.mark.parametrize("r", [2, 3, 5])
def test_the_kernel_and_extremal_vectors_of_a_sample_do_not_depend_on_its_batch(r):
    coeff, _ = build_batch(r, 0.1, seeded_draws((34, r), 0, 777, _coefficient_count(r)))

    def outputs(part):
        terms = _bound_terms(part)
        vectors = [extremal_vectors(part, griffiths, terms) for griffiths in (False, True)]
        return [terms.t_min, terms.s_sq, terms.u, *vectors]

    whole = outputs(coeff)
    for size in (1, 7, 64):
        parts = [outputs(coeff[lo : lo + size]) for lo in range(0, 777, size)]
        for k, array in enumerate(whole):
            assert np.concatenate([p[k] for p in parts]).tobytes() == array.tobytes(), (size, k)


def gap_at(pc, v):
    return pointwise_gap(pc, v).gap


def smallest_eigenvalue_at(pc, v):
    return np.linalg.eigvalsh(normalized_form(pc, v))[0]


def test_the_extremal_vectors_attain_both_bounds_at_rank_two_without_error():
    pcs = [sample_curvature(2, 0.0, (35, i)) for i in range(200)]
    coeff = np.stack([pc.coeff for pc in pcs])
    gap_bound, griffiths_bound = gap_lower_bound(coeff, 0.0), griffiths_lower_bound(coeff)
    gap_v, griffiths_v = extremal_vectors(coeff), extremal_vectors(coeff, griffiths=True)
    for pc, v, bound in zip(pcs, gap_v, gap_bound):
        assert gap_at(pc, v) == pytest.approx(bound, abs=1e-9)
    for pc, v, bound in zip(pcs, griffiths_v, griffiths_bound):
        assert smallest_eigenvalue_at(pc, v) == pytest.approx(bound, abs=1e-9)


@pytest.mark.parametrize("r", range(2, 7))
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_the_griffiths_extremal_vector_takes_the_lower_sign(r, eps):
    # lambda_min q(v) <= <v, (T/2 - S_u) v> at every unit v, so at the bottom
    # eigenvector of whichever of T/2 -+ S_u has the lower bottom eigenvalue
    # it is at most the lower of the two; at r = 2, eps = 0 they are equal
    coeff, _ = build_batch(r, eps, seeded_draws((37, r), 0, 500, _coefficient_count(r)))
    terms = _bound_terms(coeff)
    Su = np.einsum("nk,nkij->nij", terms.u, terms.S)
    half = terms.T / 2
    lower = np.minimum(np.linalg.eigvalsh(half - Su)[:, 0], np.linalg.eigvalsh(half + Su)[:, 0])
    v = extremal_vectors(coeff, True, terms)
    q = np.einsum("ni,nijab,nj->nab", np.conj(v), coeff, v)
    assert np.all(np.linalg.eigvalsh(q)[:, 0] <= lower + 1e-12)


def test_the_extremal_vector_reaches_the_minimum_of_the_entrywise_family():
    # the bound -0.096 is the minimum gap at r = 3, eps = 0.1, in any frame
    rng = np.random.default_rng(36)
    for pc in (entrywise_family(3, 0.1), unitary_conjugate(entrywise_family(3, 0.1), random_unitary(rng, 3))):
        v = extremal_vectors(pc.coeff[None])[0]
        assert gap_lower_bound(pc.coeff[None], 0.1)[0] == pytest.approx(-0.096, abs=1e-13)
        assert gap_at(pc, v) == pytest.approx(-0.096, abs=1e-9)
