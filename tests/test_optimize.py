import numpy as np
import pytest

from ample.curvature import (
    batch_lhs_density,
    build_batch,
    gap_scale_offset,
    pointwise_gap,
    projectively_flat,
    sample_curvature,
)
from ample.errors import InvalidInputError
from ample.spheremin import (
    DESCENT_CHUNK,
    basis_and_random_starts,
    det_objective,
    form_matrices,
    griffiths_min,
    lmin_objective,
    min_gap_over_v,
    minimize_on_sphere,
    objective_values,
)


def normalized_q(pc, v):
    v = np.asarray(v, dtype=np.complex128)
    q = np.einsum("i,ijab,j->ab", np.conj(v), pc.coeff, v) / np.vdot(v, v).real
    return q


def random_units(rng, n, r):
    z = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    return z / np.linalg.norm(z, axis=1)[:, None]


def test_det_objective_matches_form_determinant():
    pc = sample_curvature(4, 0.1, 3)
    M = form_matrices(pc.coeff)[None]
    rng = np.random.default_rng(0)
    V = random_units(rng, 8, 4)[None]
    f = objective_values(M, V, det_objective)
    for s in range(8):
        q = normalized_q(pc, V[0, s])
        assert f[0, s] == pytest.approx(np.linalg.det(q).real, rel=1e-12)


def test_lmin_objective_matches_eigvalsh():
    pc = sample_curvature(5, 0.05, 9)
    M = form_matrices(pc.coeff)[None]
    rng = np.random.default_rng(1)
    V = random_units(rng, 8, 5)[None]
    f = objective_values(M, V, lmin_objective)
    for s in range(8):
        q = normalized_q(pc, V[0, s])
        assert f[0, s] == pytest.approx(np.linalg.eigvalsh(q)[0], rel=1e-12, abs=1e-12)


def test_minimizer_never_increases_the_objective():
    pc = sample_curvature(3, 0.1, 21)
    M = form_matrices(pc.coeff)[None]
    rng = np.random.default_rng(2)
    V0 = random_units(rng, 16, 3)[None]
    f0 = objective_values(M, V0, det_objective)
    _, f, _ = minimize_on_sphere(M, V0, det_objective, iterations=50)
    assert (f <= f0 + 1e-15).all()


def test_minimizer_beats_dense_grid_at_rank_two():
    # at rank 2 a unit vector is (cos t, sin t e^{i p}) up to global phase,
    # so a fine 2d grid brackets the true minimum
    ts = np.linspace(0.0, np.pi / 2, 181)
    ps = np.linspace(0.0, 2 * np.pi, 361, endpoint=False)
    tt, pp = np.meshgrid(ts, ps, indexing="ij")
    V = np.stack([np.cos(tt), np.sin(tt) * np.exp(1j * pp)], axis=-1).reshape(1, -1, 2)
    for seed in range(5):
        pc = sample_curvature(2, 0.1, (6, seed))
        M = form_matrices(pc.coeff)[None]
        dets = objective_values(M, V, det_objective)[0]
        # the grid and the search minimize the same det; the gap is an
        # increasing affine function of it, so comparing dets is enough
        grid_min = float(dets.min())
        found = min_gap_over_v(pc, restarts=8, iterations=200)
        found_det = np.linalg.det(normalized_q(pc, np.array(found.v))).real
        assert found_det <= grid_min + 1e-7
        spot = pointwise_gap(pc, V[0, int(np.argmin(dets))]).gap
        assert found.gap <= spot + 1e-6


def test_batched_descent_matches_each_instance_alone():
    # rows never interact: a batch, which drops its stopped rows at other
    # iterations than a single instance does, returns the same bits; with at
    # least 3/4 of the rows stopped the batch has dropped rows at least once
    for r, objective in ((2, det_objective), (3, det_objective), (3, lmin_objective)):
        pcs = [sample_curvature(r, 0.1, (4, r, i)) for i in range(24)]
        M = form_matrices(np.stack([pc.coeff for pc in pcs]))
        V0 = basis_and_random_starts(M, objective, 4, (4, r), 0)
        V, f, converged = minimize_on_sphere(M, V0, objective, iterations=300, tol=1e-6)
        assert converged.mean() >= 0.75
        for i, pc in enumerate(pcs):
            Vi, fi, ci = minimize_on_sphere(
                form_matrices(pc.coeff)[None], V0[i : i + 1], objective, iterations=300, tol=1e-6
            )
            assert np.array_equal(V[i], Vi[0])
            assert np.array_equal(f[i], fi[0])
            assert np.array_equal(converged[i], ci[0])


def test_chunked_descent_matches_other_splits_of_the_instances():
    # a batch larger than DESCENT_CHUNK is descended chunk by chunk; splitting
    # the instance axis anywhere else gives the same bits
    r = 3
    n = DESCENT_CHUNK + 100
    uniforms = np.random.default_rng(8).random((n, 4 * r * r - 3))
    M = form_matrices(build_batch(r, 0.1, uniforms)[0])
    V0 = basis_and_random_starts(M, det_objective, 3, (8,), 0)
    V, f, converged = minimize_on_sphere(M, V0, det_objective, iterations=40, tol=1e-6)
    for lo, hi in ((0, 250), (250, n)):
        Vp, fp, cp = minimize_on_sphere(M[lo:hi], V0[lo:hi], det_objective, iterations=40, tol=1e-6)
        assert np.array_equal(V[lo:hi], Vp)
        assert np.array_equal(f[lo:hi], fp)
        assert np.array_equal(converged[lo:hi], cp)


def test_zero_iterations_return_the_normalized_starts():
    # the loop never runs, so the final write-back is the only write; the
    # starts are scaled off the sphere so that they differ from the result
    pcs = [sample_curvature(3, 0.1, (9, i)) for i in range(5)]
    M = form_matrices(np.stack([pc.coeff for pc in pcs]))
    V0 = 2.5 * basis_and_random_starts(M, det_objective, 4, (9,), 0)
    V, f, converged = minimize_on_sphere(M, V0, det_objective, iterations=0)
    starts = V0 / np.linalg.norm(V0, axis=-1, keepdims=True)
    assert np.allclose(V, starts, rtol=0.0, atol=1e-15)
    assert np.allclose(f, objective_values(M, starts, det_objective), rtol=1e-14, atol=0.0)
    assert not converged.any()


def test_projectively_flat_batch_stops_at_the_first_check():
    # the flat form's det is constant on the sphere, so every row stops
    # before its first step and the final write-back is the only write
    r = 4
    pf = projectively_flat(r)
    n = 6
    M = form_matrices(np.broadcast_to(pf.coeff, (n, r, r, 2, 2)))
    V0 = 3.0 * basis_and_random_starts(M, det_objective, 3, (12,), 0)
    V, f, converged = minimize_on_sphere(M, V0, det_objective, iterations=50, tol=1e-6)
    assert converged.all()
    starts = V0 / np.linalg.norm(V0, axis=-1, keepdims=True)
    assert np.allclose(V, starts, rtol=0.0, atol=1e-15)
    assert np.allclose(f, objective_values(M, starts, det_objective), rtol=1e-14, atol=0.0)
    for i in range(n):
        Vi, fi, ci = minimize_on_sphere(
            form_matrices(pf.coeff)[None], V0[i : i + 1], det_objective, iterations=50, tol=1e-6
        )
        assert np.array_equal(V[i], Vi[0])
        assert np.array_equal(f[i], fi[0])
        assert np.array_equal(converged[i], ci[0])


def test_ac4_search_converges_and_reaches_the_long_run_minimum_at_rank_six():
    # the AC-4 search (5 restarts, 60 iterations, tol 1e-6) on a fixed batch
    # of rank-6 samples: most samples converge in every restart, and the
    # 60-iteration minimum gap equals that of a 1000-iteration run from the
    # same starts on all but a few samples
    r, eps, n = 6, 0.1, 1000
    coeff, _ = build_batch(r, eps, np.random.default_rng(6).random((n, 4 * r * r - 3)))
    M = form_matrices(coeff)
    V0 = basis_and_random_starts(M, det_objective, 5, (6,), 0)
    _, f, converged = minimize_on_sphere(M, V0, det_objective, iterations=60, tol=1e-6)
    _, f_long, _ = minimize_on_sphere(M, V0, det_objective, iterations=1000, tol=1e-6)
    scale, offsets = gap_scale_offset(r, eps, batch_lhs_density(coeff))
    gap = scale * f.min(axis=1) + offsets
    gap_long = scale * f_long.min(axis=1) + offsets
    assert converged.all(axis=1).mean() >= 0.5
    assert (gap - gap_long > 1e-6).mean() <= 0.01


def test_batched_gap_search_matches_each_curvature_alone():
    # the polish searches the worst samples of one rank together; each
    # result is the one its curvature gets alone, seedless curvatures included
    pcs = [sample_curvature(4, e, (3, i)) for i, e in enumerate((0.0, 0.1, 0.01))]
    pcs.append(projectively_flat(4))
    together = min_gap_over_v(pcs, restarts=3, iterations=150)
    assert together == tuple(min_gap_over_v(pc, restarts=3, iterations=150) for pc in pcs)
    with pytest.raises(InvalidInputError):
        min_gap_over_v([sample_curvature(2, 0.1, 1), sample_curvature(3, 0.1, 1)])


def test_reported_gap_matches_direct_evaluation_at_reported_vector():
    for r in (2, 3, 5):
        pc = sample_curvature(r, 0.1, (13, r))
        res = min_gap_over_v(pc, restarts=3, iterations=120)
        direct = pointwise_gap(pc, np.array(res.v)).gap
        assert res.gap == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_more_restarts_never_raise_the_minimum():
    for seed in range(4):
        pc = sample_curvature(4, 0.1, (30, seed))
        gaps = [
            min_gap_over_v(pc, restarts=k, iterations=80).gap for k in (1, 3, 6)
        ]
        assert gaps[1] <= gaps[0] + 1e-15
        assert gaps[2] <= gaps[1] + 1e-15


def test_projectively_flat_minimum_is_exactly_zero():
    for r in range(2, 9):
        res = min_gap_over_v(projectively_flat(r), iterations=200)
        assert abs(res.gap) <= 1e-12


def test_projectively_flat_griffiths_floor():
    for r in range(2, 9):
        assert griffiths_min(projectively_flat(r), iterations=200) == pytest.approx(
            1.0 / r, abs=1e-9
        )


def test_griffiths_min_lower_bounds_random_evaluations():
    pc = sample_curvature(3, 0.1, 44)
    found = griffiths_min(pc, restarts=6, iterations=150)
    rng = np.random.default_rng(5)
    for v in random_units(rng, 200, 3):
        q = normalized_q(pc, v)
        assert found <= np.linalg.eigvalsh(q)[0] + 1e-9


def test_search_is_deterministic():
    pc = sample_curvature(5, 0.1, (2, 2))
    a = min_gap_over_v(pc, restarts=5)
    b = min_gap_over_v(pc, restarts=5)
    assert a.v == b.v
    assert a.gap == b.gap


def test_restart_validation():
    pc = sample_curvature(2, 0.0, 0)
    with pytest.raises(InvalidInputError):
        min_gap_over_v(pc, restarts=0)
    with pytest.raises(InvalidInputError):
        min_gap_over_v(pc, tol=0.0)


def test_basis_start_is_best_basis_vector():
    pc = sample_curvature(4, 0.1, 77)
    M = form_matrices(pc.coeff)[None]
    V0 = basis_and_random_starts(M, det_objective, 3, (77,), 0)
    basis_vals = [
        np.linalg.det(normalized_q(pc, np.eye(4)[i])).real for i in range(4)
    ]
    start_val = np.linalg.det(normalized_q(pc, V0[0, 0])).real
    assert start_val == pytest.approx(min(basis_vals), rel=1e-12)
    norms = np.linalg.norm(V0[0], axis=1)
    assert norms == pytest.approx(np.ones(3), abs=1e-12)
