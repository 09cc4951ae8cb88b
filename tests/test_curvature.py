import numpy as np
import pytest

from ample.curvature import (
    PointCurvature,
    _box_muller,
    batch_lhs_density,
    build_batch,
    c2_density_pairwise,
    chern_densities,
    error_term_density,
    lagrange_max,
    lagrange_max_numeric,
    lhs_density,
    lubke_constant,
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
from ample.spheremin import random_unit_vectors


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
    u = philox_uniforms((3, 1), 2, 8, (2,))
    normals = seeded_draws((3, 1), 2, 1, 8, (2,), normal=True)[0]
    radius = np.sqrt(-2.0 * np.log(1.0 - u[:4]))
    want = np.concatenate([radius * np.cos(2 * np.pi * u[4:]), radius * np.sin(2 * np.pi * u[4:])])
    assert normals == pytest.approx(want, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("width", [13, 33])
def test_rows_do_not_depend_on_the_batch_split(width):
    # 13 and 33 are the sampler widths 4r^2 - 3 at ranks 2 and 3, neither a
    # multiple of the 4 words of a Philox block
    whole = seeded_draws((4, 1), 0, 20, width)
    parts = [seeded_draws((4, 1), lo, hi - lo, width) for lo, hi in ((0, 1), (1, 8), (8, 20))]
    assert np.array_equal(np.concatenate(parts), whole)
    assert np.array_equal(seeded_draws((4, 1), 13, 1, width)[0], whole[13])


def test_unit_vectors_do_not_depend_on_their_count():
    for r in (2, 3, 5):
        many = random_unit_vectors((6, 0), 10, 9, 7, r, (1,))
        few = random_unit_vectors((6, 0), 12, 3, 2, r, (1,))
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
