import numpy as np
import pytest

from nyscat import spectral
from nyscat.geometry import (
    ChebyshevPatch,
    CylinderPatch,
    GnomonicSpherePatch,
    MediumParams,
    PlanePatch,
    SphereQuadPatch,
    Surface,
    SurfaceError,
    TransformedPatch,
    edge_uv,
    make_dipole,
    make_rounded_cube,
    make_sphere,
)


def surface_area(surface, n):
    x, w = spectral.cc_nodes(n), spectral.cc_weights(n)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    w2 = np.outer(w, w).ravel()
    return sum(w2 @ p.frames(uu.ravel(), vv.ravel()).jac for p in surface.patches)


def check_derivs_fd(patch, seed=0, h=1e-6, tol=2e-6):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-0.95, 0.95, 12)
    v = rng.uniform(-0.95, 0.95, 12)
    x, xu, xv = patch.derivs(u, v)
    fd_u = (patch.point(u + h, v) - patch.point(u - h, v)) / (2 * h)
    fd_v = (patch.point(u, v + h) - patch.point(u, v - h)) / (2 * h)
    scale = max(1.0, np.abs(xu).max(), np.abs(xv).max())
    assert np.abs(xu - fd_u).max() < tol * scale
    assert np.abs(xv - fd_v).max() < tol * scale


def test_sphere_plus_z_patch_center():
    s = make_sphere(2.0)
    iz = s.labels.index("sphere+z")
    np.testing.assert_allclose(s.patches[iz].point(np.array(0.0), np.array(0.0)), [0, 0, 1], atol=1e-15)


def test_sphere_patch_count_and_adjacency():
    s = make_sphere(2.0)
    assert s.n_patches == 6
    assert len(s.adjacency) == 12  # cube edge count


def test_sphere_points_on_sphere_and_outward():
    s = make_sphere(diameter=3.0, center=(1.0, -2.0, 0.5))
    rng = np.random.default_rng(1)
    u, v = rng.uniform(-1, 1, (2, 40))
    for p in s.patches:
        fr = p.frames(u, v)
        r = fr.point - np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(np.linalg.norm(r, axis=1), 1.5, atol=1e-13)
        # exact radial normal on a sphere
        np.testing.assert_allclose(fr.normal, r / 1.5, atol=1e-12)


def test_sphere_area_quadrature():
    s = make_sphere(2.0)
    err16 = abs(surface_area(s, 16) - 4 * np.pi) / (4 * np.pi)
    err8 = abs(surface_area(s, 8) - 4 * np.pi) / (4 * np.pi)
    assert err16 < 1e-8
    assert err16 / err8 < 1e-3  # spectral decay between N=8 and N=16


@pytest.mark.parametrize(
    "patch",
    [
        GnomonicSpherePatch(1.3, (0, 0, 1), (1, 0, 0), (0, 1, 0), (0.2, 0, -1)),
        PlanePatch((1, 2, 3), (0.5, 0, 0.1), (0, 0.25, 0)),
        CylinderPatch((0, 0, 0), (0, 0, 1), 0.4, 0.05, (1, 0, 0), (0, 1, 0), 0.0, np.pi / 4),
        SphereQuadPatch(
            (0, 0, 0),
            0.7,
            [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)],
        ),
        TransformedPatch(
            PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0)),
            rotation=np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float),
            shift=(0, 0, 2.0),
        ),
    ],
)
def test_patch_derivatives_match_finite_differences(patch):
    check_derivs_fd(patch)


def test_frames_cross_product_identity():
    p = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    rng = np.random.default_rng(3)
    u, v = rng.uniform(-1, 1, (2, 30))
    fr = p.frames(u, v)
    lhs = np.cross(fr.a_u, fr.a_v)
    rhs = fr.jac[:, None] * fr.normal
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)
    # metric determinant equals jac^2
    det = np.linalg.det(fr.g)
    np.testing.assert_allclose(det, fr.jac**2, rtol=1e-12)


def test_lazy_metric_matches_eager_formula():
    p = SphereQuadPatch((0, 0, 0), 1.0, [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)])
    rng = np.random.default_rng(8)
    u, v = rng.uniform(-1, 1, (2, 3, 7))
    fr = p.frames(u, v)
    assert fr._g is None and fr._ginv is None  # quadrature batches never pay
    a_u, a_v = fr.a_u, fr.a_v
    guu = np.einsum("...i,...i->...", a_u, a_u)
    guv = np.einsum("...i,...i->...", a_u, a_v)
    gvv = np.einsum("...i,...i->...", a_v, a_v)
    g = np.stack([np.stack([guu, guv], axis=-1), np.stack([guv, gvv], axis=-1)], axis=-2)
    inv = np.stack([np.stack([gvv, -guv], axis=-1), np.stack([-guv, guu], axis=-1)], axis=-2)
    ginv = inv / (guu * gvv - guv * guv)[..., None, None]
    assert np.array_equal(fr.ginv, ginv) and np.array_equal(fr.g, g)
    assert fr.g is fr.g and fr.ginv is fr.ginv  # formed once
    np.testing.assert_allclose(fr.ginv @ fr.g, np.broadcast_to(np.eye(2), g.shape),
                               atol=1e-13)


def test_contravariant_round_trip():
    p = SphereQuadPatch((0, 0, 0), 1.0, [(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)])
    rng = np.random.default_rng(4)
    u, v = rng.uniform(-1, 1, (2, 20))
    fr = p.frames(u, v)
    fu = rng.standard_normal(20)
    fv = rng.standard_normal(20)
    field = fr.tangential_from_contravariant(fu, fv)
    gu, gv = fr.contravariant_from_cartesian(field)
    np.testing.assert_allclose(gu, fu, atol=1e-12)
    np.testing.assert_allclose(gv, fv, atol=1e-12)


def test_rounded_cube_counts_and_area():
    c = make_rounded_cube(1.0, 0.01)
    assert c.n_patches == 54  # 6 faces + 24 half-fillets + 24 corner quads
    assert len(c.adjacency) == 108
    e, r = 1.0, 0.01
    exact = 6 * (e - 2 * r) ** 2 + 12 * (np.pi * r / 2) * (e - 2 * r) + 4 * np.pi * r**2
    assert abs(surface_area(c, 10) - exact) / exact < 1e-12
    assert set(c.roles) == {"face", "edge", "corner"}
    assert c.roles.count("face") == 6
    assert c.roles.count("edge") == 24
    assert c.roles.count("corner") == 24


def test_rounded_cube_face_center():
    c = make_rounded_cube(1.0, 0.01)
    ix = c.labels.index("face+x")
    np.testing.assert_allclose(c.patches[ix].point(np.array(0.0), np.array(0.0)), [0.5, 0, 0], atol=1e-15)


@pytest.mark.parametrize("maker", [make_sphere, make_rounded_cube, make_dipole])
def test_closed_grids_conform_across_edges(maker):
    surf = maker()
    t = spectral.cc_nodes(8)
    for m in surf.adjacency:
        ua, va = edge_uv(m.edge_a, t)
        ub, vb = edge_uv(m.edge_b, t[::-1] if m.flipped else t)
        pa = surf.patches[m.patch_a].point(ua, va)
        pb = surf.patches[m.patch_b].point(ub, vb)
        assert np.abs(pa - pb).max() < 1e-12


@pytest.mark.parametrize("maker", [make_sphere, make_rounded_cube, make_dipole])
def test_tangent_plane_continuity_across_edges(maker):
    # the surfaces are globally C1: normals agree along shared edges
    surf = maker()
    t = np.linspace(-1, 1, 7)
    for m in surf.adjacency:
        ua, va = edge_uv(m.edge_a, t)
        ub, vb = edge_uv(m.edge_b, t[::-1] if m.flipped else t)
        na = surf.patches[m.patch_a].frames(ua, va).normal
        nb = surf.patches[m.patch_b].frames(ub, vb).normal
        assert np.abs(np.cross(na, nb)).max() < 1e-12
        assert np.all(np.einsum("ij,ij->i", na, nb) > 0)


def test_dipole_layout():
    d = make_dipole(cross_section=0.025, arm_length=0.25, gap=0.04, radius=0.0025)
    assert d.n_patches == 108
    pts = np.concatenate([_dense_points(p) for p in d.patches])
    # total length along the axis: two arms plus the gap
    assert abs(pts[:, 2].max() - 0.27) < 1e-12
    assert abs(pts[:, 2].min() + 0.27) < 1e-12
    assert abs(pts[:, 0].max() - 0.0125) < 1e-12
    # nothing inside the gap
    interior = np.abs(pts[:, 2]) < 0.02 - 1e-12
    assert not interior.any()


def _dense_points(patch, n=7):
    t = np.linspace(-1, 1, n)
    uu, vv = np.meshgrid(t, t, indexing="ij")
    return patch.point(uu.ravel(), vv.ravel())


def test_rounding_radius_validation():
    with pytest.raises(ValueError):
        make_rounded_cube(1.0, 0.5)
    with pytest.raises(ValueError):
        make_rounded_cube(1.0, -0.01)


def test_open_surface_detected():
    p = PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(SurfaceError, match="not closed"):
        Surface.assemble([p], closed=True)
    # explicit open assembly is allowed for fixtures
    surf = Surface.assemble([p], closed=False)
    assert surf.n_patches == 1


def test_nonconforming_edge_detected():
    base = PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0))

    class Warped(PlanePatch):
        def derivs(self, u, v):
            x, xu, xv = super().derivs(u, v)
            # same corner points, bowed along the shared edge
            bulge = 1e-3 * (1 - np.asarray(v) ** 2)
            x = x.copy()
            x[..., 2] += bulge
            return x, xu, xv

    # shares the u=+1 edge endpoints of `base`'s edge 1 but bows the interior
    warped = Warped((2, 0, 0), (1, 0, 0), (0, 1, 0))
    with pytest.raises(SurfaceError, match="non-conforming"):
        Surface.assemble([base, warped], closed=False)


def test_transformed_patch_rotates_frames():
    base = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    th = 0.7
    rot = np.array(
        [[np.cos(th), -np.sin(th), 0], [np.sin(th), np.cos(th), 0], [0, 0, 1]]
    )
    moved = TransformedPatch(base, rotation=rot, shift=(0.1, -0.2, 0.3))
    u = np.array([0.3, -0.5])
    v = np.array([-0.1, 0.8])
    f0 = base.frames(u, v)
    f1 = moved.frames(u, v)
    np.testing.assert_allclose(f1.jac, f0.jac, rtol=1e-13)
    np.testing.assert_allclose(f1.normal, f0.normal @ rot.T, atol=1e-13)
    np.testing.assert_allclose(f1.point, f0.point @ rot.T + [0.1, -0.2, 0.3], atol=1e-13)


def test_chebyshev_patch_reconstruction():
    base = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    n = 20
    x = spectral.cc_nodes(n)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    samples = base.point(uu, vv)
    patch = ChebyshevPatch(samples)
    rng = np.random.default_rng(9)
    u, v = rng.uniform(-1, 1, (2, 25))
    x0, xu0, xv0 = base.derivs(u, v)
    x1, xu1, xv1 = patch.derivs(u, v)
    # 20-node tensor interpolant of the sphere chart: truncation ~2e-12
    assert np.abs(x1 - x0).max() < 1e-10
    assert np.abs(xu1 - xu0).max() < 1e-9
    assert np.abs(xv1 - xv0).max() < 1e-9


def test_medium_params():
    m = MediumParams(wavelength=2.0)
    assert abs(m.wavenumber - np.pi) < 1e-15
    with pytest.raises(ValueError):
        MediumParams(wavelength=-1.0)
