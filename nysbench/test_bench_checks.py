"""The benchmark's own checks, each shown to pass on exact data and to fail.

No operator is built here: the exact sphere current comes from the Mie
series, sampled onto the patch grids and radiated with physics.far_field.
"""

import numpy as np
import pytest

from nyscat import physics, spectral, topology
from nyscat.geometry import MediumParams, make_sphere

import oracles
from run import counter_mismatches
from tracer import Tracer
from workloads import WORKLOADS

DIAMETER = 2.0
N = 12  # grid of the exact-current samples; far-field quadrature error ~1e-8


@pytest.fixture(scope="module")
def mie_case():
    """Exact Mie current for an oblique incidence, on the closed sphere grid."""
    medium = MediumParams(1.0)
    d = np.array([1.0, -2.0, 2.0]) / 3.0
    e = np.cross(d, [0.0, 0.0, 1.0])
    e /= np.linalg.norm(e)
    wave = physics.PlaneWave(e, d, medium)
    frame = oracles.incidence_frame(d, e)
    canonical = physics.PlaneWave(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                                  medium)
    sampler, rcs_fn = physics.mie_reference(DIAMETER, canonical)
    surface = make_sphere(DIAMETER)
    nodes = spectral.cc_nodes(N)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    grids = []
    for patch in surface.patches:
        fr = patch.frames(uu.ravel(), vv.ravel())
        current = sampler(fr.point @ frame.T) @ frame  # series frame -> global
        fu, fv = fr.contravariant_from_cartesian(current)
        grids.append(np.stack([fu, fv], axis=-1).reshape(N, N, 2))
    density = topology.grids_to_full(np.array(grids))
    return surface, medium, wave, density, rcs_fn


def defect_of(case, scale):
    surface, medium, wave, density, _ = case
    k = medium.wavenumber
    x = scale * density
    fwd = physics.far_field(x, surface, oracles.angles_of(wave.direction), medium)
    dirs, wts = oracles.sphere_quadrature(2 * int(np.ceil(k * DIAMETER / 2)) + 30)
    sca = physics.far_field(x, surface, dirs, medium)
    return oracles.power_defect(oracles.extinction(fwd.amplitude[0], wave.polarization, k),
                                oracles.scattered(sca.rcs, wts))


def cut_error(case, frame):
    """Mie check of the cut laid out in `frame`; right only for the own frame."""
    surface, medium, _, density, rcs_fn = case
    local = oracles.cut_angles(19)
    pattern = physics.far_field(density, surface, oracles.local_to_global(frame, local),
                                medium)
    return oracles.rcs_error(pattern.rcs, rcs_fn(local[:, 0], local[:, 1]))


def loosest(bound):
    return max(getattr(w, bound) or 0.0 for w in WORKLOADS.values())


def test_optical_theorem_holds_for_the_exact_current(mie_case):
    assert defect_of(mie_case, 1.0) < 1e-6


def test_doubled_solution_fails_the_optical_theorem(mie_case):
    # sigma_ext doubles while sigma_sca quadruples: |2 - 4| / 4 = 0.5
    assert defect_of(mie_case, 2.0) == pytest.approx(0.5, rel=1e-5)
    assert defect_of(mie_case, 2.0) > loosest("defect_bound")


def test_mie_cut_matches_in_the_incidence_frame(mie_case):
    _, _, wave, _, _ = mie_case
    frame = oracles.incidence_frame(wave.direction, wave.polarization)
    assert cut_error(mie_case, frame) < 1e-4


def test_mie_cut_in_the_wrong_frame_fails(mie_case):
    _, _, wave, _, _ = mie_case
    # polarisation turned by 90 degrees: E- and H-planes trade places
    turned = oracles.incidence_frame(wave.direction, np.cross(wave.direction,
                                                              np.real(wave.polarization)))
    assert cut_error(mie_case, turned) > loosest("rcs_bound")
    # the canonical frame (no rotation at all) is just as wrong
    assert cut_error(mie_case, np.eye(3)) > loosest("rcs_bound")


def test_true_residual_sees_a_wrong_solution():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(30, 30)) + 30 * np.eye(30)
    x = rng.normal(size=30) + 1j * rng.normal(size=30)
    b = a @ x
    assert oracles.relative_residual(lambda v: a @ v, x, b) < 1e-14
    assert oracles.relative_residual(lambda v: a @ v, x * (1 + 1e-6), b) > 1e-7


def test_sphere_quadrature_integrates_band_limited_functions():
    dirs, w = oracles.sphere_quadrature(20)
    th, ph = dirs[:, 0], dirs[:, 1]
    assert w.sum() == pytest.approx(4 * np.pi, rel=1e-14)
    z, x = np.cos(th), np.sin(th) * np.cos(ph)
    assert np.dot(w, z**2 * x**4) == pytest.approx(4 * np.pi / 35, rel=1e-12)


def test_incidences_are_unit_and_transverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        d, e = oracles.random_incidence(rng)
        frame = oracles.incidence_frame(d, e)
        assert np.allclose(frame @ frame.T, np.eye(3), atol=1e-14)
        assert np.linalg.det(frame) == pytest.approx(1.0)


def test_tracer_counts_and_restores():
    from nyscat.geometry.patches import Patch

    original = (spectral.interp_matrix, Patch.frames)
    surface = make_sphere(DIAMETER)
    tracer = Tracer()
    tracer.install()
    try:
        u = np.linspace(-1, 1, 5)
        surface.patches[0].frames(u, u)
        spectral.interp_matrix(spectral.cc_nodes(4), u)
    finally:
        tracer.uninstall()
    assert (spectral.interp_matrix, Patch.frames) == original
    assert tracer.calls("geometry.frames") == 1
    assert tracer.counts["geometry.frames_points"] == 5
    assert tracer.calls("spectral.interp") == 1


def test_counter_identities_reject_a_wrong_count():
    wl = WORKLOADS["sphere-efie"]
    run = {"iterations": [10, 12]}
    good = {"singular.onpatch_rows": 6 * wl.n**2, "matvec_calls_in_gmres": 22,
            "solver.iterations": 22, "run.blas_threads": 1,
            "topology.groups": 6 * (wl.n - 1) ** 2 + 2}
    assert counter_mismatches(wl, good, run) == []
    for key in good:
        bad = dict(good, **{key: good[key] + 1})
        assert counter_mismatches(wl, bad, run) != []
