"""Restarted GMRES over complex vectors for user-supplied linear maps.

Modified Gram-Schmidt Arnoldi with one reorthogonalization pass and Givens
rotations for the least-squares update, so the running residual is available
at every step without forming the iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["SolveReport", "gmres"]

_BREAKDOWN = 1e-30


@dataclass
class SolveReport:
    """Outcome of a gmres run."""

    solution: np.ndarray
    iterations: int
    history: list[float] = field(default_factory=list)
    converged: bool = False


def _solve_update(x, hess, g, basis, j):
    """Add the minimal-residual correction spanned by basis[:j] to x."""
    y = np.linalg.solve(hess[:j, :j], g[:j])
    return x + np.asarray(basis[:j]).T @ y


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
    while total < max_iter:
        r = rhs.copy() if first else rhs - np.asarray(apply(x), dtype=complex)
        first = False
        beta = float(np.linalg.norm(r))
        rel = beta / b_norm
        if not history:
            history.append(rel)
        if rel <= tol:
            return SolveReport(x, total, history, True)

        # a Krylov space never outgrows the system: size the cycle (and its
        # (m+1, m) Hessenberg) to what can be used, not to the budget
        m = min(restart, max_iter - total, rhs.size)
        basis = [r / beta]
        hess = np.zeros((m + 1, m), dtype=complex)
        cs = np.zeros(m, dtype=complex)
        sn = np.zeros(m, dtype=float)
        g = np.zeros(m + 1, dtype=complex)
        g[0] = beta

        j = 0
        while j < m:
            w = np.array(apply(basis[j]), dtype=complex)  # copy: MGS mutates w
            for i in range(j + 1):
                h = np.vdot(basis[i], w)
                w -= h * basis[i]
                hess[i, j] = h
            for i in range(j + 1):  # one reorthogonalization pass
                c = np.vdot(basis[i], w)
                w -= c * basis[i]
                hess[i, j] += c
            hnorm = float(np.linalg.norm(w))

            # rotation pair (c complex, s real) sends (a, b) to (|(a,b)|, 0)
            for i in range(j):
                hi, hj = hess[i, j], hess[i + 1, j]
                hess[i, j] = np.conj(cs[i]) * hi + sn[i] * hj
                hess[i + 1, j] = -sn[i] * hi + cs[i] * hj
            a = hess[j, j]
            denom = np.hypot(abs(a), hnorm)
            if denom < _BREAKDOWN:
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
            if hnorm < _BREAKDOWN:  # happy breakdown: exact solution in span
                return SolveReport(_solve_update(x, hess, g, basis, j),
                                   total, history, True)
            basis.append(w / hnorm)
            if rel <= tol:
                return SolveReport(_solve_update(x, hess, g, basis, j),
                                   total, history, True)
        x = _solve_update(x, hess, g, basis, j)
    return SolveReport(x, total, history, False)
