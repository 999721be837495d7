"""Correctness checks made apart from the solver.

Each check takes plain arrays, so it can be tested on exact data without
building an operator:

- the true relative residual of a solution, recomputed with the operator;
- the optical theorem: for a lossless PEC scatterer the power taken from the
  incident wave (from the forward-scattering amplitude) equals the power
  radiated over the sphere of directions;
- the bistatic RCS cut of a sphere against the Mie series, rotated into the
  incidence's own frame.

Conventions follow nyscat.physics: exp(-i omega t), far-field amplitude F
with E_sca ~ F exp(ikr)/r and bistatic RCS 4 pi |F|^2 / |E_inc|^2.
"""

from __future__ import annotations

import numpy as np


def incidence_frame(direction, polarization) -> np.ndarray:
    """Rows x', y', z' of the frame where the incidence is +z, x-polarised."""
    d = np.asarray(direction, dtype=float)
    e = np.real(np.asarray(polarization, dtype=complex))
    return np.stack([e, np.cross(d, e), d])


def random_incidence(rng):
    """Direction uniform on the sphere and a linear polarisation across it."""
    d = rng.normal(size=3)
    d /= np.linalg.norm(d)
    helper = np.array([1.0, 0.0, 0.0]) if abs(d[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    a = np.cross(d, helper)
    a /= np.linalg.norm(a)
    b = np.cross(d, a)
    psi = rng.uniform(0.0, 2.0 * np.pi)
    return d, np.cos(psi) * a + np.sin(psi) * b


def angles_of(directions) -> np.ndarray:
    """(A, 3) unit vectors -> (A, 2) spherical angles (theta, phi)."""
    d = np.atleast_2d(directions)
    return np.stack([np.arccos(np.clip(d[:, 2], -1.0, 1.0)),
                     np.arctan2(d[:, 1], d[:, 0])], axis=1)


def cut_angles(points: int) -> np.ndarray:
    """Local (theta', phi') of the E-plane (phi'=0) and H-plane (phi'=90) cuts."""
    theta = np.linspace(0.0, np.pi, points)
    return np.concatenate([np.stack([theta, np.zeros_like(theta)], axis=1),
                           np.stack([theta, np.full_like(theta, 0.5 * np.pi)], axis=1)])


def local_to_global(frame, local_angles) -> np.ndarray:
    """Angles given in an incidence frame -> global (theta, phi)."""
    th, ph = local_angles[:, 0], local_angles[:, 1]
    loc = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)], axis=1)
    return angles_of(loc @ frame)


def sphere_quadrature(degree: int):
    """Directions (A, 2) and solid-angle weights (A,) exact for |F|^2 up to degree.

    Gauss-Legendre in cos(theta) times the trapezoid rule in phi.
    """
    nt = degree // 2 + 1
    nphi = degree + 1
    mu, wmu = np.polynomial.legendre.leggauss(nt)
    phi = 2.0 * np.pi * np.arange(nphi) / nphi
    th = np.repeat(np.arccos(mu), nphi)
    ph = np.tile(phi, nt)
    w = np.repeat(wmu, nphi) * (2.0 * np.pi / nphi)
    return np.stack([th, ph], axis=1), w


def extinction(forward_amplitude, polarization, k: float) -> float:
    """Optical theorem: sigma_ext = (4 pi / k) Im(conj(e) . F(d)) for |E_inc| = 1."""
    e = np.asarray(polarization, dtype=complex)
    return float(4.0 * np.pi / k * np.imag(np.vdot(e, forward_amplitude)))


def scattered(rcs, weights) -> float:
    """sigma_sca = integral of |F|^2 over directions = sum w rcs / (4 pi)."""
    return float(np.dot(weights, rcs) / (4.0 * np.pi))


def power_defect(sigma_ext: float, sigma_sca: float) -> float:
    """|sigma_ext - sigma_sca| / sigma_sca; zero for an exact lossless solution."""
    return abs(sigma_ext - sigma_sca) / sigma_sca


def relative_residual(apply, x, rhs) -> float:
    """||apply(x) - rhs|| / ||rhs||, recomputed outside the solver."""
    rhs = np.asarray(rhs, dtype=complex)
    return float(np.linalg.norm(apply(x) - rhs) / np.linalg.norm(rhs))


def rcs_error(rcs, reference) -> float:
    """Largest RCS difference on the cut, relative to the cut's peak."""
    reference = np.asarray(reference, dtype=float)
    return float(np.max(np.abs(np.asarray(rcs) - reference)) / np.max(reference))
