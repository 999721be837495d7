import numpy as np
import pytest

from nyscat.solver import SolveReport, _orthogonalise, gmres


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


# ---------------------------------------------------------------------------
# CGS2 Arnoldi against the modified Gram-Schmidt solver it replaced


def _mgs_gmres(apply, rhs, tol, restart=200, max_iter=1000):
    """The previous gmres, kept as the reference: modified Gram-Schmidt with
    one reorthogonalization pass over a list basis, Givens rotations held in
    numpy arrays.  Returns (solution, iterations, history, converged)."""
    rhs = np.asarray(rhs, dtype=complex)
    b_norm = float(np.linalg.norm(rhs))
    x = np.zeros_like(rhs)
    history, total, first = [], 0, True

    def update(x, hess, g, basis, j):
        y = np.linalg.solve(hess[:j, :j], g[:j])
        return x + np.asarray(basis[:j]).T @ y

    while total < max_iter:
        r = rhs.copy() if first else rhs - np.asarray(apply(x), dtype=complex)
        first = False
        beta = float(np.linalg.norm(r))
        rel = beta / b_norm
        if not history:
            history.append(rel)
        if rel <= tol:
            return x, total, history, True
        m = min(restart, max_iter - total, rhs.size)
        basis = [r / beta]
        hess = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=float)
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta
        j = 0
        while j < m:
            w = np.array(apply(basis[j]), dtype=complex)
            for i in range(j + 1):
                h = np.vdot(basis[i], w)
                w -= h * basis[i]
                hess[i, j] = h
            for i in range(j + 1):
                c = np.vdot(basis[i], w)
                w -= c * basis[i]
                hess[i, j] += c
            hnorm = float(np.linalg.norm(w))
            for i in range(j):
                hi, hj = hess[i, j], hess[i + 1, j]
                hess[i, j] = np.conj(cs[i]) * hi + sn[i] * hj
                hess[i + 1, j] = -sn[i] * hi + cs[i] * hj
            a = hess[j, j]
            denom = np.hypot(abs(a), hnorm)
            if denom < 1e-30:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = a / denom, hnorm / denom
            hess[j, j] = denom
            g[j + 1] = -sn[j] * g[j]
            g[j] = np.conj(cs[j]) * g[j]
            total += 1
            j += 1
            rel = abs(g[j]) / b_norm
            history.append(rel)
            if hnorm < 1e-30:
                return update(x, hess, g, basis, j), total, history, True
            basis.append(w / hnorm)
            if rel <= tol:
                return update(x, hess, g, basis, j), total, history, True
        x = update(x, hess, g, basis, j)
    return x, total, history, False


def _ill_conditioned_system(n=300, seed=2024, outliers=12):
    # normal matrix: a disc of eigenvalues about 1 (radius 0.9) plus a tail of
    # outliers down to 2e-5, so cond is about 1e5, as on the rounded cube
    # (1.6e5); GMRES then needs most of the 300 dimensions, as there
    rng = np.random.default_rng(seed)
    k = n - outliers
    lam = 1 + 0.9 * np.sqrt(rng.uniform(0, 1, k)) * np.exp(2j * np.pi * rng.uniform(0, 1, k))
    lam = np.concatenate([lam, np.geomspace(1e-1, 2e-5, outliers)])
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a = (q * lam) @ q.conj().T
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return a, b


@pytest.fixture(scope="module")
def ill_conditioned():
    a, b = _ill_conditioned_system()
    tol = 1e-8
    ref = _mgs_gmres(lambda v: a @ v, b, tol, restart=3000, max_iter=3000)
    rep = gmres(lambda v: a @ v, b, tol, restart=3000, max_iter=3000)
    return a, b, tol, ref, rep


def test_cgs2_follows_the_mgs_reference(ill_conditioned):
    a, b, tol, (_, ref_iters, ref_hist, ref_converged), rep = ill_conditioned
    assert 5e4 < np.linalg.cond(a) < 2e5
    assert ref_converged and 150 < ref_iters < 300
    assert rep.converged
    assert abs(rep.iterations - ref_iters) <= 1
    got, want = np.array(rep.history[:51]), np.array(ref_hist[:51])
    assert np.all(np.abs(got - want) <= 1e-6 * want)
    true_rel = np.linalg.norm(a @ rep.solution - b) / np.linalg.norm(b)
    assert true_rel <= 10 * tol


def test_cgs2_arnoldi_basis_stays_orthogonal(ill_conditioned):
    # the Arnoldi basis of the whole solve, built with gmres's own step
    a, b, _, _, rep = ill_conditioned
    m = rep.iterations
    basis = np.empty((m + 1, b.size), dtype=complex)
    basis[0] = b / np.linalg.norm(b)
    for j in range(m):
        w, _ = _orthogonalise(basis[:j + 1], a @ basis[j])
        basis[j + 1] = w / np.linalg.norm(w)
    loss = np.linalg.norm(np.eye(m + 1) - basis.conj() @ basis.T, 2)
    assert loss <= 1e-12


def test_orth_seconds_leave_out_the_matvecs():
    import time

    a, b = _random_system(30, seed=2)
    calls = []

    def slow(v):
        calls.append(1)
        time.sleep(0.002)
        return a @ v

    t0 = time.perf_counter()
    rep = gmres(slow, b, 1e-10)
    wall = time.perf_counter() - t0
    assert rep.converged and len(calls) == rep.iterations
    assert 0 < rep.orth_seconds <= wall - 0.002 * len(calls)
