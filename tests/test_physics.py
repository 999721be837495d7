"""Excitation, right-hand-side, far-field and series-reference tests.

Frozen reference values come from closed-form evaluations (flat-patch
radiation integrals, physical-optics current, optical theorem) or from
convergence measurements recorded at fixed grids; tolerances carry a
safety factor over the observed agreement.
"""

import numpy as np
import pytest

from nyscat import physics, spectral, topology
from nyscat.geometry import MediumParams, Surface
from nyscat.geometry.patches import PlanePatch
from nyscat.kernels import operators as ops
from nyscat.kernels.operators import OPEN, MfieOperator, OperatorConfig
from nyscat.solver import gmres

MEDIUM = MediumParams(wavelength=1.0)


# ---------------------------------------------------------------- plane wave

def test_plane_wave_at_origin(plane_wave):
    e = physics.plane_wave_eval(plane_wave, np.zeros(3))
    assert np.allclose(e, [1.0, 0.0, 0.0], rtol=0, atol=1e-15)


def test_plane_wave_modulus_is_amplitude(plane_wave):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(100, 3))
    e = physics.plane_wave_eval(plane_wave, pts)
    assert np.allclose(np.linalg.norm(e, axis=1), 1.0, rtol=0, atol=1e-14)


def test_plane_wave_half_wavelength_phase(plane_wave):
    e = physics.plane_wave_eval(plane_wave, [0.0, 0.0, 0.5])
    assert np.allclose(e, [-1.0, 0.0, 0.0], rtol=0, atol=1e-13)


def test_plane_wave_hfield_orthogonal_triad(plane_wave):
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(10, 3))
    e = physics.plane_wave_eval(plane_wave, pts)
    h = physics.plane_wave_hfield(plane_wave, pts)
    eta = MEDIUM.impedance
    ref = np.cross(np.broadcast_to(plane_wave.direction, e.shape), e) / eta
    assert np.allclose(h, ref, rtol=1e-14, atol=0)
    # E, H, d form a right-handed orthogonal triad
    assert np.allclose(np.einsum("ij,ij->i", e, h), 0.0, atol=1e-17)


def test_plane_wave_validation():
    with pytest.raises(ValueError):
        physics.PlaneWave((1.0, 0, 0), (0, 0, 2.0), MEDIUM)
    with pytest.raises(ValueError):
        physics.PlaneWave((2.0, 0, 0), (0, 0, 1.0), MEDIUM)
    with pytest.raises(ValueError):
        physics.PlaneWave((1.0, 0, 0), (1.0, 0, 0), MEDIUM)


# ------------------------------------------------------------ rhs assembly

def test_rhs_zero_amplitude(sphere, efie_op):
    op = efie_op(8)
    wave = physics.PlaneWave((1.0, 0, 0), (0, 0, 1.0), MEDIUM, amplitude=0.0)
    rhs = op.rhs(lambda r: physics.plane_wave_eval(wave, r))
    assert np.all(rhs == 0.0)


def test_rhs_pre_projection_tangency(sphere, plane_wave):
    nodes = spectral.cc_nodes(9)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    for patch in sphere.patches:
        fr = patch.frames(uu.ravel(), vv.ravel())
        e = physics.plane_wave_eval(plane_wave, fr.point)
        f = -np.cross(fr.normal, e)
        assert np.max(np.abs(np.einsum("ij,ij->i", f, fr.normal))) < 1e-14


def test_rhs_matches_direct_recomputation(sphere, efie_op, plane_wave):
    """Independent assembly through public frames and continuity maps."""
    n = 8
    op = efie_op(n)
    rhs = op.rhs(lambda r: physics.plane_wave_eval(plane_wave, r))
    nodes = spectral.cc_nodes(n)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    grids = np.empty((sphere.n_patches, n, n, 2), dtype=complex)
    for p, patch in enumerate(sphere.patches):
        fr = patch.frames(uu.ravel(), vv.ravel())
        e = physics.plane_wave_eval(plane_wave, fr.point)
        fu, fv = fr.contravariant_from_cartesian(-np.cross(fr.normal, e))
        grids[p] = np.stack([fu, fv], axis=-1).reshape(n, n, 2)
    groups = topology.build_coincidence(sphere, n)
    q = topology.build_compression(groups, sphere, n)
    ref = q @ topology.grids_to_full(grids)
    assert np.linalg.norm(ref - rhs) <= 1e-12 * np.linalg.norm(ref)


# ----------------------------------------------------------------- far field

def _flat_patch_setup():
    e1 = np.array([0.4, 0.0, 0.0])
    e2 = np.array([0.05, 0.3, 0.1])
    origin = np.array([0.2, -0.1, 0.3])
    patch = PlanePatch(origin, e1, e2)
    surf = Surface.assemble([patch], closed=False)
    n = 20
    nodes, _ = ops._grid_nodes(n, "open")
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    fr = patch.frames(uu.ravel(), vv.ravel())
    fu, fv = fr.contravariant_from_cartesian(
        np.broadcast_to(np.array([1.0, 0.0, 0.0]), (n * n, 3)))
    dens = topology.grids_to_full(
        np.stack([fu, fv], axis=-1).reshape(1, n, n, 2).astype(complex))
    return patch, surf, dens


ANGLES4 = np.array([[0.3, 0.0], [1.1, 0.7], [2.0, 4.0], [np.pi / 2, np.pi / 2]])


def test_far_field_zero_density(sphere):
    n = 6
    dens = np.zeros(2 * sphere.n_patches * n * n, dtype=complex)
    patt = physics.far_field(dens, sphere, ANGLES4, MEDIUM, kind="closed")
    assert np.all(patt.amplitude == 0.0)
    assert np.all(patt.rcs == 0.0)


def test_far_field_flat_patch_against_direct_quadrature():
    """Uniform current on one flat patch vs dense Gauss-Legendre integration."""
    patch, surf, dens = _flat_patch_setup()
    k, eta = MEDIUM.wavenumber, MEDIUM.impedance
    patt = physics.far_field(dens, surf, ANGLES4, MEDIUM, kind="open")
    xg, wg = np.polynomial.legendre.leggauss(60)
    uu, vv = np.meshgrid(xg, xg, indexing="ij")
    ww = np.outer(wg, wg).ravel()
    fr = patch.frames(uu.ravel(), vv.ravel())
    for i, (th, ph) in enumerate(ANGLES4):
        rhat = np.array([np.sin(th) * np.cos(ph),
                         np.sin(th) * np.sin(ph), np.cos(th)])
        integ = np.sum(ww * fr.jac * np.exp(-1j * k * (fr.point @ rhat)))
        raw = (1j * k * eta / (4 * np.pi)) * integ * np.array([1.0, 0, 0])
        ref = raw - rhat * (rhat @ raw)
        assert (np.linalg.norm(patt.amplitude[i] - ref)
                <= 1e-12 * np.linalg.norm(ref))


def test_far_field_long_wavelength_area_law():
    """k -> 0: F approaches (ik eta / 4 pi) (I - rr) J * patch area."""
    patch, surf, dens = _flat_patch_setup()
    med = MediumParams(wavelength=1.0e4)
    k, eta = med.wavenumber, med.impedance
    area = 4.0 * np.linalg.norm(np.cross(patch.e1, patch.e2))
    patt = physics.far_field(dens, surf, ANGLES4, med, kind="open")
    xhat = np.array([1.0, 0.0, 0.0])
    for i, (th, ph) in enumerate(ANGLES4):
        rhat = np.array([np.sin(th) * np.cos(ph),
                         np.sin(th) * np.sin(ph), np.cos(th)])
        ref = (1j * k * eta / (4 * np.pi)) * area * (xhat - rhat * (rhat @ xhat))
        assert (np.linalg.norm(patt.amplitude[i] - ref)
                <= 1e-3 * np.linalg.norm(ref))


def test_far_field_transversality_and_scaling(sphere, efie_op, mie):
    op = efie_op(8)
    x = op.grid.project(op.grid.sample(mie[0]))
    full = op.grid.expand(x)
    theta = np.linspace(0.0, np.pi, 19)
    phi = np.linspace(0.0, 2 * np.pi, 19, endpoint=False)
    angles = np.stack([theta, phi], axis=1)
    patt = physics.far_field(full, sphere, angles, MEDIUM, kind="closed")
    rhat = np.stack([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi), np.cos(theta)], axis=1)
    radial = np.abs(np.einsum("ac,ac->a", patt.amplitude, rhat))
    scale = np.linalg.norm(patt.amplitude, axis=1).max()
    assert np.max(radial) <= 1e-10 * scale
    # linearity in the density, inverse-square in the incident amplitude
    patt2 = physics.far_field(2.0 * full, sphere, angles, MEDIUM, kind="closed")
    assert np.allclose(patt2.amplitude, 2.0 * patt.amplitude, rtol=1e-13)
    assert np.allclose(patt2.rcs, 4.0 * patt.rcs, rtol=1e-13)
    patt3 = physics.far_field(full, sphere, angles, MEDIUM, kind="closed",
                              incident_amplitude=2.0)
    assert np.allclose(patt3.rcs, patt.rcs / 4.0, rtol=1e-13)
    assert patt.wavelength == MEDIUM.wavelength


def test_far_field_rejects_bad_length(sphere):
    with pytest.raises(ValueError):
        physics.far_field(np.zeros(100, dtype=complex), sphere,
                          ANGLES4, MEDIUM)


def test_dbsm_conversion():
    assert np.allclose(physics.to_dbsm([1.0, 10.0, 0.1]),
                       [0.0, 10.0, -10.0], atol=1e-13)


def test_sampled_series_current_radiates_series_rcs(sphere, efie_op, mie):
    """Far-field route versus series RCS on the E-plane cut (N=12 grid)."""
    sampler, rcs = mie
    op = efie_op(12)
    full = op.grid.expand(op.grid.project(op.grid.sample(sampler)))
    theta = np.linspace(0.0, np.pi, 181)
    angles = np.stack([theta, np.zeros_like(theta)], axis=1)
    patt = physics.far_field(full, sphere, angles, MEDIUM, kind="closed")
    exact = rcs(theta, 0.0)
    rel = np.linalg.norm(patt.rcs - exact) / np.linalg.norm(exact)
    assert rel < 5e-4  # measured 2.03e-5 on this grid


# ------------------------------------------------------------ series oracle

def test_mie_requires_canonical_frame():
    with pytest.raises(ValueError):
        physics.mie_reference(
            2.0, physics.PlaneWave((1.0, 0, 0), (0, 1.0, 0), MEDIUM))
    with pytest.raises(ValueError):
        physics.mie_reference(
            2.0, physics.PlaneWave((0, 1.0, 0), (0, 0, 1.0), MEDIUM))


def test_mie_truncation_control(plane_wave):
    with pytest.raises(ValueError):
        physics.mie_reference(2.0, plane_wave, max_order=5)
    sampler, rcs = physics.mie_reference(2.0, plane_wave)
    assert sampler.order == rcs.order
    assert 20 <= sampler.order <= 45
    assert len(rcs.coefficients[0]) == sampler.order


def test_mie_sampler_rejects_off_surface_points(mie):
    with pytest.raises(ValueError):
        mie[0]([[0.0, 0.0, 0.9]])


def test_mie_forward_peak(mie):
    theta = np.linspace(0.0, np.pi, 181)
    vals = mie[1](theta, 0.0)
    assert np.argmax(vals) == 0


def test_mie_mirror_symmetry(mie):
    theta = np.linspace(0.1, np.pi - 0.1, 40)
    a = mie[1](theta, 0.37)
    b = mie[1](theta, -0.37)
    assert np.allclose(a, b, rtol=1e-12)


def test_mie_optical_theorem(mie):
    """Integrated scattering cross-section equals the extinction expression."""
    _, rcs = mie
    a_n, b_n = rcs.coefficients
    k = MEDIUM.wavenumber
    order = np.arange(1, len(a_n) + 1)
    s0 = 0.5 * np.sum((2 * order + 1) * (a_n + b_n))
    sigma_ext = (4 * np.pi / k**2) * s0.real
    x, w = np.polynomial.legendre.leggauss(400)
    theta = np.arccos(x)
    sigma_sca = np.sum(w * 0.25 * (rcs(theta, 0.0) + rcs(theta, np.pi / 2)))
    assert abs(sigma_ext - 6.57861220458121) < 1e-9
    assert abs(sigma_sca - sigma_ext) < 1e-9 * sigma_ext


def test_mie_current_matches_physical_optics_at_lit_pole(mie, plane_wave):
    """Deep-lit-region current is close to 2 n x H_inc (a = one wavelength)."""
    anchor = np.array([[0.0, 0.0, -1.0]])
    j_mie = mie[0](anchor)[0]
    h = physics.plane_wave_hfield(plane_wave, anchor[0])
    j_po = 2.0 * np.cross(np.array([0.0, 0.0, -1.0]), h)
    rel = np.linalg.norm(j_mie - j_po) / np.linalg.norm(j_po)
    assert rel < 5e-2  # measured 1.28e-2 at ka = 2 pi


def test_project_current_round_trips_tangential_samples(efie_op, mie):
    """Series current is tangential, so sampling, projecting and expanding
    reproduces it."""
    op = efie_op(8)
    g = op.grid
    x = g.project(g.sample(mie[0]))
    cart = op.cartesian_current(x)
    for p, pts in enumerate(g.frames.point):
        ref = mie[0](pts)
        # interior nodes hold exactly the sampled values
        interior = np.ones(g.n * g.n, dtype=bool)
        idx = np.arange(g.n * g.n).reshape(g.n, g.n)
        interior[idx[0, :]] = interior[idx[-1, :]] = False
        interior[idx[:, 0]] = interior[idx[:, -1]] = False
        assert np.allclose(cart[p][interior], ref[interior],
                           rtol=0, atol=1e-13 * np.abs(ref).max())


# ------------------------------------------------- reference-operator checks

def test_mfie_residual_of_series_current_decays(sphere, plane_wave, mie):
    """Magnetic-field reference equation: series current residual drops fast."""
    res = {}
    for n in (8, 10):
        op = MfieOperator(sphere, n, MEDIUM, OperatorConfig(variant=OPEN))
        x = op.grid.project(op.grid.sample(mie[0]))
        rhs = op.rhs(lambda pts: physics.plane_wave_hfield(plane_wave, pts))
        res[n] = (np.linalg.norm(op.apply(x) - rhs) / np.linalg.norm(rhs))
    assert res[8] < 2.6e-2  # measured 1.27e-2
    assert res[10] < 2.0e-3  # measured 9.34e-4
    assert res[10] < 0.2 * res[8]  # measured ratio 0.073


def test_far_field_reciprocity(sphere, efie_op, plane_wave):
    """Swapping incidence and observation preserves the coupled amplitude."""
    op = efie_op(16)
    th2, ph2 = np.radians(50.0), np.radians(120.0)
    d2 = np.array([np.sin(th2) * np.cos(ph2),
                   np.sin(th2) * np.sin(ph2), np.cos(th2)])
    e2 = np.array([np.cos(th2) * np.cos(ph2),
                   np.cos(th2) * np.sin(ph2), -np.sin(th2)])

    def amp(pol, direction, obs):
        wave = physics.PlaneWave(pol, direction, MEDIUM)
        rhs = op.rhs(lambda r: physics.plane_wave_eval(wave, r))
        rep = gmres(op.apply, rhs, 1e-9, restart=2000, max_iter=2000)
        assert rep.converged
        patt = physics.far_field(op.grid.expand(rep.solution), sphere,
                                 np.atleast_2d(obs), MEDIUM)
        return patt.amplitude[0]

    lhs = e2 @ amp(plane_wave.polarization.real, plane_wave.direction,
                   [th2, ph2])
    rhs_v = np.array([1.0, 0.0, 0.0]) @ amp(e2, -d2, [np.pi, 0.0])
    assert abs(lhs - rhs_v) / max(abs(lhs), abs(rhs_v)) < 1e-6
