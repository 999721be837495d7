import numpy as np
import pytest

from nyscat.solver import SolveReport, gmres


def _random_system(n, seed):
    # identity plus a small random part keeps the matrix well conditioned
    rng = np.random.default_rng(seed)
    a = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                           + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


def test_identity_converges_in_one_iteration():
    rhs = np.array([1.0 + 2.0j, 3.0, -1.0j])
    rep = gmres(lambda v: v, rhs, tol=1e-12)
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.solution, rhs, atol=1e-14)


def test_diagonal_system_exact_in_dimension_steps():
    d = np.array([1.0, 2.0, 4.0])
    rep = gmres(lambda v: d * v, np.ones(3), tol=1e-12)
    assert rep.converged
    assert rep.iterations <= 3
    np.testing.assert_allclose(rep.solution, [1.0, 0.5, 0.25], atol=1e-12)


def test_dense_system_matches_direct_solve():
    a, b = _random_system(50, seed=7)
    tol = 1e-10
    rep = gmres(lambda v: a @ v, b, tol=tol)
    assert rep.converged
    direct = np.linalg.solve(a, b)
    rel = np.linalg.norm(rep.solution - direct) / np.linalg.norm(direct)
    assert rel < 10 * tol


def test_reported_residual_matches_true_residual():
    a, b = _random_system(50, seed=3)
    rep = gmres(lambda v: a @ v, b, tol=1e-8)
    true_rel = np.linalg.norm(a @ rep.solution - b) / np.linalg.norm(b)
    assert abs(rep.history[-1] - true_rel) < 1e-12


def test_history_non_increasing_within_each_cycle():
    a, b = _random_system(50, seed=11)
    restart = 5
    rep = gmres(lambda v: a @ v, b, tol=1e-10, restart=restart, max_iter=400)
    assert rep.converged
    # history holds the initial residual then one entry per inner iteration;
    # a fresh cycle starts where the previous one was cut off by the restart
    assert len(rep.history) == rep.iterations + 1
    for start in range(0, rep.iterations, restart):
        seg = rep.history[start:start + restart + 1]
        assert all(y <= x * (1 + 1e-12) for x, y in zip(seg, seg[1:]))


def test_zero_rhs_short_circuits():
    rep = gmres(lambda v: v, np.zeros(4), tol=1e-12)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.history == [0.0]
    np.testing.assert_array_equal(rep.solution, np.zeros(4))


def test_budget_exhaustion_returns_best_iterate():
    a, b = _random_system(50, seed=5)
    rep = gmres(lambda v: a @ v, b, tol=1e-14, max_iter=10)
    assert not rep.converged
    assert rep.iterations == 10
    # the returned iterate still reflects the ten steps that did run
    rel = np.linalg.norm(a @ rep.solution - b) / np.linalg.norm(b)
    assert rel < rep.history[0]
    assert abs(rel - rep.history[-1]) < 1e-12


def test_restart_slices_budget():
    a, b = _random_system(30, seed=13)
    rep = gmres(lambda v: a @ v, b, tol=1e-13, restart=4, max_iter=9)
    assert not rep.converged
    assert rep.iterations == 9


def test_low_rank_map_breaks_down_cleanly():
    # rank-deficient map with rhs in the range: exact answer in few steps
    u = np.array([1.0, 0.0, 0.0, 0.0])
    rep = gmres(lambda v: v[0] * u, u.copy(), tol=1e-12)
    assert rep.converged
    assert rep.iterations == 1
    np.testing.assert_allclose(rep.solution, u, atol=1e-14)


def test_invalid_arguments_raise():
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.ones((2, 2)), tol=1e-8)
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.ones(2), tol=1e-8, restart=0)
    with pytest.raises(ValueError):
        gmres(lambda v: v, np.ones(2), tol=1e-8, max_iter=0)


def test_report_defaults():
    rep = SolveReport(np.zeros(2), 0)
    assert rep.history == []
    assert rep.converged is False


def test_cycle_never_outgrows_the_system():
    # restart far beyond the dimension must not allocate a (restart+1, restart)
    # Hessenberg: 3000 would be 144 MB for a 40-unknown system
    import tracemalloc

    a, b = _random_system(40, 9)
    want = gmres(lambda v: a @ v, b, 1e-10, restart=40, max_iter=200)
    tracemalloc.start()
    try:
        rep = gmres(lambda v: a @ v, b, 1e-10, restart=3000, max_iter=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert rep.converged and rep.iterations == want.iterations
    assert rep.history == want.history
