"""One-dimensional Chebyshev machinery shared by every discretization.

Two node families are used throughout:

* the closed (Clenshaw-Curtis) grid ``x_i = cos(pi*i/(n-1))`` including both
  endpoints, which carries the continuity-enforced discretization, and
* the open (Fejer, first kind) grid ``x_i = cos((2i+1)*pi/(2n))`` of Chebyshev
  zeros, which carries the interior-only baseline discretization.

Nodes are ordered descending (``x_0 = 1`` first on the closed grid).  All
operators are small dense matrices (n <= a few dozen), built once per size and
cached; exactness on polynomials is what the tests pin down, so everything is
constructed from interpolation identities rather than from closed-form weight
tables.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "cc_nodes",
    "cc_weights",
    "fejer_nodes",
    "fejer_weights",
    "cheb_transform",
    "cheb_inverse_transform",
    "cheb_eval",
    "cheb_eval_2d",
    "diff_matrix",
    "barycentric_weights",
    "interp_matrix",
    "resample_matrix",
]


def cc_nodes(n: int) -> np.ndarray:
    """Closed Chebyshev nodes cos(pi*i/(n-1)), descending, endpoints included."""
    if n < 2:
        raise ValueError("closed grid needs at least 2 nodes, got %d" % n)
    i = np.arange(n)
    x = np.cos(np.pi * i / (n - 1))
    # exact endpoints and midpoint, so coincidence hashing sees clean values
    x[0], x[-1] = 1.0, -1.0
    if n % 2 == 1:
        x[(n - 1) // 2] = 0.0
    return x


def fejer_nodes(n: int) -> np.ndarray:
    """Open Chebyshev-zero nodes cos((2i+1)pi/(2n)), descending, no endpoints."""
    if n < 1:
        raise ValueError("open grid needs at least 1 node, got %d" % n)
    i = np.arange(n)
    return np.cos((2 * i + 1) * np.pi / (2 * n))


@lru_cache(maxsize=None)
def _transform_pair(n: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(values->coeffs, coeffs->values) matrices for the given node family."""
    if kind == "closed":
        m = n - 1
        i = np.arange(n)
        # C2V[i, k] = T_k(x_i) = cos(pi*k*i/m)
        c2v = np.cos(np.pi * np.outer(i, i) / m)
        sig = np.ones(n)
        sig[0] = sig[-1] = 0.5
        # discrete cosine orthogonality with trapezoid end-point halving
        v2c = (2.0 / m) * sig[:, None] * c2v * sig[None, :]
    elif kind == "open":
        i = np.arange(n)
        theta = (2 * i + 1) * np.pi / (2 * n)
        c2v = np.cos(np.outer(theta, np.arange(n)))
        sig = np.ones(n)
        sig[0] = 0.5
        v2c = (2.0 / n) * sig[:, None] * c2v.T
    else:
        raise ValueError("unknown grid kind %r" % kind)
    return v2c, c2v


def cheb_transform(values: np.ndarray, kind: str = "closed") -> np.ndarray:
    """Values on a Chebyshev grid -> Chebyshev series coefficients.

    Works along the last axis for 1-D data, or on the last two axes when given
    a 2-D tensor-product grid (u slow, v fast).
    """
    values = np.asarray(values)
    v2c, _ = _transform_pair(values.shape[-1], kind)
    coeffs = values @ v2c.T
    if values.ndim >= 2:
        v2c_u, _ = _transform_pair(values.shape[-2], kind)
        coeffs = np.einsum("ij,...jk->...ik", v2c_u, coeffs)
    return coeffs


def cheb_inverse_transform(coeffs: np.ndarray, kind: str = "closed") -> np.ndarray:
    """Chebyshev series coefficients -> values on the grid (inverse transform)."""
    coeffs = np.asarray(coeffs)
    _, c2v = _transform_pair(coeffs.shape[-1], kind)
    values = coeffs @ c2v.T
    if coeffs.ndim >= 2:
        _, c2v_u = _transform_pair(coeffs.shape[-2], kind)
        values = np.einsum("ij,...jk->...ik", c2v_u, values)
    return values


def cheb_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate a Chebyshev series at arbitrary points by Clenshaw recurrence.

    ``coeffs`` has the series along its FIRST axis; trailing axes broadcast
    against ``x`` (used to run many point-dependent series at once).
    """
    coeffs = np.asarray(coeffs)
    x = np.asarray(x)
    n = coeffs.shape[0]
    b1 = np.zeros(np.broadcast_shapes(coeffs.shape[1:], x.shape), dtype=np.result_type(coeffs, x))
    b2 = np.zeros_like(b1)
    for k in range(n - 1, 0, -1):
        b1, b2 = coeffs[k] + 2.0 * x * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def cheb_eval_2d(coeffs: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Evaluate a 2-D Chebyshev series (u slow axis, v fast axis) at point pairs."""
    u = np.asarray(u, dtype=float)
    shape = u.shape
    uf = u.ravel()
    vf = np.asarray(v, dtype=float).ravel()
    # collapse the v direction first: every u-row series evaluated at each point
    rows = cheb_eval(np.moveaxis(coeffs, -1, 0)[:, :, None], vf[None, :])  # (nu, q)
    return cheb_eval(rows, uf).reshape(shape)


@lru_cache(maxsize=64)
def _barycentric(key: bytes) -> np.ndarray:
    # cached per node set (keyed by its bytes) and read-only: callers share it
    nodes = np.frombuffer(key)
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 1.0 / diff.prod(axis=1)
    w /= np.abs(w).max()
    w.flags.writeable = False
    return w


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Barycentric interpolation weights for an arbitrary (small) node set."""
    return _barycentric(np.ascontiguousarray(nodes, dtype=float).tobytes()).copy()


def interp_matrix(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix mapping values on ``nodes`` to interpolated values at ``x``.

    Rows are the Lagrange cardinal functions evaluated at the targets; exact
    hits (within 1e-14) reproduce the nodal value without division blow-up.
    """
    nodes = np.ascontiguousarray(nodes, dtype=float)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    w = _barycentric(nodes.tobytes())
    d = x[:, None] - nodes[None, :]
    hit = np.abs(d) <= 1e-14
    d[hit] = 1.0
    terms = w / d
    mat = terms / terms.sum(axis=1, keepdims=True)
    exact_rows = hit.any(axis=1)
    if exact_rows.any():
        mat[exact_rows] = hit[exact_rows]
    return mat


def diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """Collocation differentiation matrix via barycentric weights.

    Diagonal from the negative-sum trick, so the matrix annihilates constants
    to machine precision and differentiates degree n-1 polynomials exactly.
    """
    nodes = np.asarray(nodes, dtype=float)
    n = nodes.size
    w = barycentric_weights(nodes)
    d = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(d, 1.0)
    mat = (w[None, :] / w[:, None]) / d
    np.fill_diagonal(mat, 0.0)
    np.fill_diagonal(mat, -mat.sum(axis=1))
    return mat


@lru_cache(maxsize=None)
def _quad_weights(n: int, kind: str) -> np.ndarray:
    # integrate the interpolant: w = V2C^T @ (Chebyshev moments)
    v2c, _ = _transform_pair(n, kind)
    k = np.arange(n)
    moments = np.where(k % 2 == 0, 2.0 / (1.0 - k.astype(float) ** 2 + (k == 1)), 0.0)
    moments[k % 2 == 1] = 0.0
    return v2c.T @ moments


def cc_weights(n: int) -> np.ndarray:
    """Closed-rule quadrature weights on cc_nodes(n); sum to 2."""
    return _quad_weights(n, "closed").copy()


def fejer_weights(n: int) -> np.ndarray:
    """Open-rule (Fejer first kind) quadrature weights on fejer_nodes(n)."""
    return _quad_weights(n, "open").copy()


def resample_matrix(n: int, m: int, kind: str = "closed") -> np.ndarray:
    """Interpolation matrix from an n-point grid onto an m-point grid (same family)."""
    src = cc_nodes(n) if kind == "closed" else fejer_nodes(n)
    dst = cc_nodes(m) if kind == "closed" else fejer_nodes(m)
    return interp_matrix(src, dst)
