"""Excitations, right-hand sides, far fields and the sphere series oracle.

Conventions: exp(-i omega t) time dependence, free-space impedance eta, unit
amplitude fields unless stated.  The sphere reference solution uses the
vector spherical harmonic series for a perfectly conducting sphere with an
x-polarized, z-propagating plane wave; Riccati-Bessel functions psi = x j_n
and xi = x h1_n obey psi xi' - psi' xi = i, which collapses the surface
magnetic field to the inverse-xi sums used below.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from nyscat import topology
from nyscat.geometry import MediumParams, Surface
from nyscat.kernels import operators as ops

__all__ = [
    "PlaneWave",
    "FarFieldPattern",
    "plane_wave_eval",
    "plane_wave_hfield",
    "far_field",
    "to_dbsm",
    "mie_reference",
]


@dataclass(frozen=True)
class PlaneWave:
    """Linearly (possibly elliptically) polarized plane wave."""

    polarization: np.ndarray
    direction: np.ndarray
    medium: MediumParams
    amplitude: float = 1.0

    def __post_init__(self):
        pol = np.asarray(self.polarization, dtype=complex)
        direction = np.asarray(self.direction, dtype=float)
        object.__setattr__(self, "polarization", pol)
        object.__setattr__(self, "direction", direction)
        if abs(np.linalg.norm(direction) - 1.0) > 1e-12:
            raise ValueError("propagation direction must be a unit vector")
        if abs(np.linalg.norm(pol) - 1.0) > 1e-12:
            raise ValueError("polarization must be a unit vector")
        if abs(pol @ direction) > 1e-14:
            raise ValueError("polarization must be orthogonal to direction")


def plane_wave_eval(pw: PlaneWave, r) -> np.ndarray:
    """Incident electric field at points r (..., 3)."""
    r = np.asarray(r, dtype=float)
    k = pw.medium.wavenumber
    phase = np.exp(1j * k * (r @ pw.direction))
    return pw.amplitude * phase[..., None] * pw.polarization


def plane_wave_hfield(pw: PlaneWave, r) -> np.ndarray:
    """Incident magnetic field (1/eta) d x E at points r (..., 3)."""
    e = plane_wave_eval(pw, r)
    return np.cross(pw.direction, e) / pw.medium.impedance


@dataclass
class FarFieldPattern:
    """Far-zone scattering amplitudes on an angular grid plus RCS values."""

    theta: np.ndarray
    phi: np.ndarray
    amplitude: np.ndarray  # (A, 3) complex Cartesian far-field vectors
    rcs: np.ndarray  # 4 pi |F|^2 / |E_inc|^2, units of length^2
    wavelength: float

    @property
    def rcs_db(self) -> np.ndarray:
        """RCS in dB relative to one square length unit."""
        return to_dbsm(self.rcs)


def to_dbsm(sigma) -> np.ndarray:
    return 10.0 * np.log10(np.asarray(sigma, dtype=float))


def _unit_radial(theta, phi):
    st, ct = np.sin(theta), np.cos(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)


def far_field(density, surface: Surface, angles, medium: MediumParams,
              kind: str = "closed", incident_amplitude: float = 1.0) -> FarFieldPattern:
    """Radiated far-zone amplitude of a surface current density.

    density: concatenated contravariant samples in the unknown layout on the
    full grid of the given family; angles: (A, 2) array of (theta, phi) in
    radians.  F(rhat) = (ik eta / 4 pi)(I - rhat rhat) integral of
    J exp(-ik rhat.r') dsigma, evaluated with the plain tensor rule (the
    far-zone kernel is smooth).
    """
    angles = np.atleast_2d(np.asarray(angles, dtype=float))
    density = np.asarray(density, dtype=complex)
    m = surface.n_patches
    n = round(np.sqrt(density.size / (2 * m)))
    if 2 * m * n * n != density.size:
        raise ValueError("density length does not match any square grid")
    # the open/closed distinction only changes nodes and weights here
    nodes, w1 = ops._grid_nodes(n, kind)
    fr = ops._node_frames(surface, nodes)
    k = medium.wavenumber
    eta = medium.impedance
    grids = topology.full_to_grids(density, m, n).reshape(m, n * n, 2)
    j = fr.tangential_from_contravariant(grids[..., 0], grids[..., 1]).reshape(-1, 3)
    wjac = np.outer(w1, w1).ravel() * fr.jac
    pts = fr.point.reshape(-1, 3)
    rhat = _unit_radial(angles[:, 0], angles[:, 1])
    phases = np.exp(-1j * k * (rhat @ pts.T))  # (A, sources)
    raw = phases @ (wjac.reshape(-1, 1) * j)  # (A, 3)
    raw *= 1j * k * eta / (4 * np.pi)
    amp = raw - rhat * np.einsum("ac,ac->a", rhat, raw.astype(complex))[:, None]
    sigma = 4 * np.pi * np.einsum("ac,ac->a", amp, np.conj(amp)).real
    sigma /= incident_amplitude**2
    return FarFieldPattern(angles[:, 0].copy(), angles[:, 1].copy(), amp,
                           sigma, medium.wavelength)


def _angular_functions(mu, order: int):
    """pi_n and tau_n for n = 1..order at cos(theta) values mu, (order, A)."""
    mu = np.asarray(mu, dtype=float)
    pi = np.zeros((order + 1, mu.size))
    tau = np.zeros((order + 1, mu.size))
    if order >= 1:
        pi[1] = 1.0
        tau[1] = mu
    for n in range(2, order + 1):
        pi[n] = ((2 * n - 1) * mu * pi[n - 1] - n * pi[n - 2]) / (n - 1)
        tau[n] = n * mu * pi[n] - (n + 1) * pi[n - 1]
    return pi[1:], tau[1:]


def _riccati(order: int, x: float):
    """psi, psi', xi, xi' for n = 1..order at x (xi built on h1_n)."""
    n = np.arange(1, order + 1)
    jn = special.spherical_jn(n, x)
    jnp = special.spherical_jn(n, x, derivative=True)
    yn = special.spherical_yn(n, x)
    ynp = special.spherical_yn(n, x, derivative=True)
    hn = jn + 1j * yn
    hnp = jnp + 1j * ynp
    psi = x * jn
    dpsi = jn + x * jnp
    xi = x * hn
    dxi = hn + x * hnp
    return psi, dpsi, xi, dxi


def mie_reference(diameter: float, pw: PlaneWave, max_order: int = 120):
    """Series reference for a perfectly conducting sphere at the origin.

    Requires the canonical excitation (x-polarized, z-propagating); other
    incidences should be rotated into this frame first.  Returns a surface
    current sampler J(points) and a bistatic RCS function rcs(theta, phi).
    The sampler carries the chosen truncation order as attribute ``order``
    and the RCS function carries the scattering coefficients.
    """
    if np.linalg.norm(pw.direction - np.array([0.0, 0.0, 1.0])) > 1e-12:
        raise ValueError("series reference expects z-propagating incidence")
    if np.linalg.norm(pw.polarization - np.array([1.0, 0.0, 0.0])) > 1e-12:
        raise ValueError("series reference expects x-polarized incidence")
    a = diameter / 2.0
    k = pw.medium.wavenumber
    eta = pw.medium.impedance
    e0 = pw.amplitude
    x = k * a
    psi, dpsi, xi, dxi = _riccati(max_order, x)
    n = np.arange(1, max_order + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        a_n = dpsi / dxi
        b_n = psi / xi
        inv_xi = 1.0 / xi
        inv_dxi = 1.0 / dxi
    for arr in (a_n, b_n, inv_xi, inv_dxi):
        arr[~np.isfinite(arr)] = 0.0
    # truncate where the remaining terms stop mattering
    sig = (2 * n + 1) * np.max(
        np.abs(np.stack([a_n, b_n, inv_xi, inv_dxi])), axis=0)
    ref = np.maximum.accumulate(sig)
    small = np.nonzero(sig < 1e-13 * ref)[0]
    if small.size == 0:
        raise ValueError(
            f"series not converged within max_order={max_order} for ka={x:.3g}")
    order = int(small[0]) + 1
    a_n, b_n = a_n[:order], b_n[:order]
    inv_xi, inv_dxi = inv_xi[:order], inv_dxi[:order]
    n = n[:order].astype(float)
    e_n = 1j**n * (2 * n + 1) / (n * (n + 1))
    c_n = (2 * n + 1) / (n * (n + 1))

    def sampler(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        r = np.linalg.norm(pts, axis=1)
        if np.any(np.abs(r - a) > 1e-8 * a):
            raise ValueError("sample points must lie on the sphere surface")
        mu = np.clip(pts[:, 2] / r, -1.0, 1.0)
        phi = np.arctan2(pts[:, 1], pts[:, 0])
        st = np.sqrt(np.maximum(0.0, 1.0 - mu**2))
        pi_n, tau_n = _angular_functions(mu, order)
        s_a = (e_n * inv_xi) @ pi_n - 1j * (e_n * inv_dxi) @ tau_n
        s_b = 1j * (e_n * inv_dxi) @ pi_n - (e_n * inv_xi) @ tau_n
        pref = e0 / (eta * x)
        j_th = pref * np.cos(phi) * s_a
        j_ph = pref * np.sin(phi) * s_b
        cp, sp = np.cos(phi), np.sin(phi)
        out = np.empty(pts.shape, dtype=complex)
        out[:, 0] = j_th * mu * cp - j_ph * sp
        out[:, 1] = j_th * mu * sp + j_ph * cp
        out[:, 2] = -j_th * st
        return out

    def rcs(theta, phi):
        theta, phi_b = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                           np.asarray(phi, dtype=float))
        pi_n, tau_n = _angular_functions(np.cos(theta).ravel(), order)
        s1 = (c_n * a_n) @ pi_n + (c_n * b_n) @ tau_n
        s2 = (c_n * a_n) @ tau_n + (c_n * b_n) @ pi_n
        s1 = s1.reshape(theta.shape)
        s2 = s2.reshape(theta.shape)
        return (4 * np.pi / k**2) * (np.cos(phi_b)**2 * np.abs(s2)**2
                                     + np.sin(phi_b)**2 * np.abs(s1)**2)

    sampler.order = order
    rcs.coefficients = (a_n.copy(), b_n.copy())
    rcs.order = order
    return sampler, rcs
