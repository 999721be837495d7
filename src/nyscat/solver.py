"""Restarted GMRES over complex vectors for user-supplied linear maps.

Each cycle keeps its Arnoldi basis in one preallocated (m+1, N) array and
orthogonalises every new vector by classical Gram-Schmidt applied twice
(CGS2): two matrix-vector products against the basis per pass, which keeps
the basis orthogonal to working precision (Giraud, Langou & Rozloznik 2005).
The Givens rotations of the least-squares update run on Python scalars, so
the running residual is available at every step without forming the iterate.
Each inner step calls apply once; the first cycle's initial residual is the
right-hand side itself and costs no call.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolveReport", "gmres"]

_BREAKDOWN = 1e-30


@dataclass
class SolveReport:
    """Outcome of a gmres run.

    orth_seconds is the wall time gmres spent outside apply: the
    orthogonalisation, the rotations and the solution updates.
    """

    solution: np.ndarray
    iterations: int
    history: list[float] = field(default_factory=list)
    converged: bool = False
    orth_seconds: float = 0.0


def _orthogonalise(basis, w):
    """CGS2: w minus its projection on the orthonormal rows of basis.

    Returns (w, h) with h the projection coefficients, basis.conj() @ w of
    the input, summed over both passes.  basis.conj() is never formed.
    """
    h = (basis @ w.conj()).conj()
    w = w - h @ basis
    c = (basis @ w.conj()).conj()
    w -= c @ basis
    return w, h + c


def _solve_update(x, hess, g, basis, j):
    """Add the minimal-residual correction spanned by basis[:j] to x."""
    y = np.linalg.solve(hess[:j, :j], np.array(g[:j]))
    return x + y @ basis[:j]


def gmres(apply, rhs, tol: float, restart: int = 200,
          max_iter: int = 1000) -> SolveReport:
    """Solve apply(x) = rhs to relative residual tol.

    Args:
        apply: linear map on complex vectors of len(rhs).
        tol: target for ||apply(x) - rhs|| / ||rhs||.
        restart: Arnoldi cycle length.  The default can stall: on the
            rounded cube with edge 1, r=0.1, wavelength 1 and n=4 the closed
            EFIE with restart=200 stops at a relative residual of 6.7e-3.
            Pass restart=max_iter for an unrestarted solve.  A cycle is
            never longer than len(rhs), the largest Krylov space there is.
        max_iter: total inner-iteration budget across cycles; on exhaustion
            the best iterate is returned with converged=False.

    Returns:
        SolveReport; history holds the initial relative residual followed by
        one entry per inner iteration, non-increasing within each cycle.
    """
    start = time.perf_counter()
    rhs = np.asarray(rhs, dtype=complex)
    if rhs.ndim != 1:
        raise ValueError("rhs must be a vector")
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return SolveReport(np.zeros_like(rhs), 0, [0.0], True)
    if restart < 1 or max_iter < 1:
        raise ValueError("restart and max_iter must be positive")

    x = np.zeros_like(rhs)
    history: list[float] = []
    total = 0
    first = True
    in_apply = 0.0

    def matvec(v):
        nonlocal in_apply
        t0 = time.perf_counter()
        out = np.asarray(apply(v), dtype=complex)
        in_apply += time.perf_counter() - t0
        return out

    def report(x, converged):
        orth = time.perf_counter() - start - in_apply
        return SolveReport(x, total, history, converged, orth)

    while total < max_iter:
        r = rhs.copy() if first else rhs - matvec(x)
        first = False
        beta = float(np.linalg.norm(r))
        rel = beta / b_norm
        if not history:
            history.append(rel)
        if rel <= tol:
            return report(x, True)

        # a Krylov space never outgrows the system: size the cycle (and its
        # (m+1, m) Hessenberg) to what can be used, not to the budget
        m = min(restart, max_iter - total, rhs.size)
        basis = np.empty((m + 1, rhs.size), dtype=complex)
        basis[0] = r / beta
        hess = np.zeros((m + 1, m), dtype=complex)
        # rotation j is (c, conj(c), s), c complex and s real; it sends
        # (a, b) to (|(a, b)|, 0)
        rotations: list[tuple[complex, complex, float]] = []
        g: list[complex] = [complex(beta)]

        j = 0
        while j < m:
            w, h = _orthogonalise(basis[:j + 1], matvec(basis[j]))
            hnorm = float(np.linalg.norm(w))
            col = h.tolist()
            a = col[0]  # entry i of the column, rotated by rotations[:i]
            for i, (c, c_conj, s) in enumerate(rotations):
                b = col[i + 1]
                col[i] = c_conj * a + s * b
                a = c * b - s * a
            denom = math.hypot(abs(a), hnorm)
            if denom < _BREAKDOWN:
                c, s = 1.0 + 0.0j, 0.0
            else:
                c, s = a / denom, hnorm / denom
            rotations.append((c, c.conjugate(), s))
            col[j] = denom
            hess[:j + 1, j] = col
            g.append(-s * g[j])
            g[j] = c.conjugate() * g[j]
            total += 1
            j += 1
            rel = abs(g[j]) / b_norm
            history.append(rel)
            if hnorm < _BREAKDOWN:  # happy breakdown: exact solution in span
                return report(_solve_update(x, hess, g, basis, j), True)
            basis[j] = w / hnorm
            if rel <= tol:
                return report(_solve_update(x, hess, g, basis, j), True)
        x = _solve_update(x, hess, g, basis, j)
    return report(x, False)
