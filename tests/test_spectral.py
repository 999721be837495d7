import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb

from nyscat import spectral


def test_closed_nodes_small():
    x = spectral.cc_nodes(5)
    expected = np.array([1.0, np.sqrt(2) / 2, 0.0, -np.sqrt(2) / 2, -1.0])
    np.testing.assert_allclose(x, expected, atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 8, 9, 24])
def test_closed_nodes_descending_with_endpoints(n):
    x = spectral.cc_nodes(n)
    assert x[0] == 1.0 and x[-1] == -1.0
    assert np.all(np.diff(x) < 0)


def test_closed_weights_three_point():
    w = spectral.cc_weights(3)
    np.testing.assert_allclose(w, [1.0 / 3.0, 4.0 / 3.0, 1.0 / 3.0], atol=1e-15)


@pytest.mark.parametrize("n", [2, 3, 7, 10, 16, 21])
def test_closed_weights_sum_to_two(n):
    assert abs(spectral.cc_weights(n).sum() - 2.0) < 1e-14


@pytest.mark.parametrize("n", [4, 9, 16])
def test_closed_rule_monomial_exactness(n):
    # the rule integrates every monomial of degree <= n-1 exactly
    x, w = spectral.cc_nodes(n), spectral.cc_weights(n)
    for p in range(n):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        assert abs(w @ x**p - exact) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5, 12, 16])
def test_open_rule_basics(n):
    x, w = spectral.fejer_nodes(n), spectral.fejer_weights(n)
    assert np.all(np.abs(x) < 1.0)
    assert np.all(np.diff(x) < 0) or n == 1
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) < 1e-14
    for p in range(n):
        exact = 0.0 if p % 2 else 2.0 / (p + 1)
        assert abs(w @ x**p - exact) < 1e-12


@pytest.mark.parametrize("kind", ["closed", "open"])
def test_transform_round_trip(kind):
    rng = np.random.default_rng(7)
    n = 14
    f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = spectral.cheb_transform(f, kind)
    back = spectral.cheb_inverse_transform(a, kind)
    np.testing.assert_allclose(back, f, atol=1e-13)


def test_transform_isolates_basis_functions():
    n = 9
    x = spectral.cc_nodes(n)
    for k in range(n):
        a = spectral.cheb_transform(np.cos(k * np.arccos(np.clip(x, -1, 1))))
        expected = np.zeros(n)
        expected[k] = 1.0
        np.testing.assert_allclose(a, expected, atol=1e-13)


def test_transform_2d_round_trip():
    rng = np.random.default_rng(3)
    f = rng.standard_normal((8, 11))
    a = spectral.cheb_transform(f)
    np.testing.assert_allclose(spectral.cheb_inverse_transform(a), f, atol=1e-13)


def test_clenshaw_matches_direct_summation():
    rng = np.random.default_rng(11)
    a = rng.standard_normal(10)
    x = np.linspace(-1, 1, 33)
    direct = npcheb.chebval(x, a)
    np.testing.assert_allclose(spectral.cheb_eval(a, x), direct, atol=1e-13)
    # endpoints are reproduced exactly from the aliasing-free series
    assert abs(spectral.cheb_eval(a, np.array(1.0)) - a.sum()) < 1e-13


def test_cheb_eval_2d_against_grid():
    rng = np.random.default_rng(5)
    nu, nv = 7, 9
    vals = rng.standard_normal((nu, nv))
    coeffs = spectral.cheb_transform(vals)
    uu = spectral.cc_nodes(nu)
    vv = spectral.cc_nodes(nv)
    got = spectral.cheb_eval_2d(coeffs, *np.meshgrid(uu, vv, indexing="ij"))
    np.testing.assert_allclose(got, vals, atol=1e-12)
    # off-grid agrees with tensor Clenshaw done by numpy
    u = np.array([0.3, -0.77, 0.99])
    v = np.array([-0.2, 0.55, 0.11])
    direct = np.array([npcheb.chebval(vi, npcheb.chebval(ui, coeffs)) for ui, vi in zip(u, v)])
    np.testing.assert_allclose(spectral.cheb_eval_2d(coeffs, u, v), direct, atol=1e-13)


@given(deg=st.integers(0, 11))
@settings(max_examples=20, deadline=None)
def test_diff_matrix_exact_on_polynomials(deg):
    n = 13
    x = spectral.cc_nodes(n)
    d = spectral.diff_matrix(x)
    p = x**deg
    dp = deg * x ** max(deg - 1, 0) if deg else np.zeros(n)
    np.testing.assert_allclose(d @ p, dp, atol=1e-10)


def test_diff_matrix_open_grid():
    x = spectral.fejer_nodes(10)
    d = spectral.diff_matrix(x)
    np.testing.assert_allclose(d @ x**4, 4 * x**3, atol=1e-11)


def test_derivative_integrates_to_boundary_difference():
    # integral of df/du over [-1,1] equals f(1) - f(-1)
    n = 16
    x, w = spectral.cc_nodes(n), spectral.cc_weights(n)
    d = spectral.diff_matrix(x)
    f = np.exp(x) * np.sin(2 * x)
    total = w @ (d @ f)
    exact = np.exp(1) * np.sin(2) - np.exp(-1) * np.sin(-2)
    assert abs(total - exact) < 1e-11


def test_interp_matrix_cardinal_property():
    x = spectral.cc_nodes(8)
    m = spectral.interp_matrix(x, x)
    np.testing.assert_allclose(m, np.eye(8), atol=1e-13)


@pytest.mark.parametrize("kind", ["closed", "open"])
def test_interp_matrix_exact_hit_rows(kind):
    nodes = spectral.cc_nodes(7) if kind == "closed" else spectral.fejer_nodes(7)
    # on a node, or within the 1e-14 hit distance of one: an exact unit row
    x = np.concatenate([nodes, nodes[:3] + 8e-15, nodes[3:] - 8e-15])
    m = spectral.interp_matrix(nodes, x)
    want = np.vstack([np.eye(7), np.eye(7)])
    assert np.array_equal(m, want)
    # just outside it the barycentric formula takes over, still near the node
    near = spectral.interp_matrix(nodes, nodes + 1e-12)
    assert not np.array_equal(near, np.eye(7))
    np.testing.assert_allclose(near, np.eye(7), atol=1e-9)
    mixed = spectral.interp_matrix(nodes, np.array([0.123, nodes[2], -0.77]))
    assert np.array_equal(mixed[1], np.eye(7)[2])
    np.testing.assert_allclose(mixed[[0, 2]].sum(axis=1), 1.0, atol=1e-14)


def test_barycentric_weights_cache_cannot_be_changed():
    nodes = spectral.cc_nodes(9)
    w = spectral.barycentric_weights(nodes)
    first = w.copy()
    w[:] = 7.0  # the caller's copy, not the cached weights
    assert np.array_equal(spectral.barycentric_weights(nodes), first)
    tgt = np.linspace(-1, 1, 17)
    np.testing.assert_allclose(spectral.interp_matrix(nodes, tgt) @ nodes**5, tgt**5,
                               atol=1e-12)
    # equal node sets passed as other arrays share the entry
    again = spectral.barycentric_weights(list(nodes))
    assert np.array_equal(again, first) and again is not w


def test_interp_matrix_reproduces_polynomials():
    src = spectral.cc_nodes(9)
    tgt = np.linspace(-1, 1, 17)
    m = spectral.interp_matrix(src, tgt)
    np.testing.assert_allclose(m @ src**6, tgt**6, atol=1e-12)


def test_resample_matrix_round_trip():
    f = lambda x: np.cos(3.0 * x) + x**2
    up = spectral.resample_matrix(16, 23)
    x16, x23 = spectral.cc_nodes(16), spectral.cc_nodes(23)
    np.testing.assert_allclose(up @ f(x16), f(x23), atol=1e-11)


@given(
    coeff=st.lists(st.floats(-3, 3, allow_nan=False), min_size=2, max_size=9),
)
@settings(max_examples=25, deadline=None)
def test_quadrature_integrates_interpolant_exactly(coeff):
    # closed-rule weights were built to integrate the interpolant, so any
    # polynomial below the node count integrates exactly
    a = np.array(coeff)
    n = a.size + 2
    x, w = spectral.cc_nodes(n), spectral.cc_weights(n)
    vals = npcheb.chebval(x, a)
    k = np.arange(a.size)
    moments = np.where(k % 2 == 0, 2.0 / (1.0 - k**2 + (k == 1)), 0.0)
    assert abs(w @ vals - moments @ a) < 1e-11 * max(1.0, np.abs(a).sum())
