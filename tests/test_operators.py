import numpy as np
import pytest
from scipy import sparse
from scipy.integrate import quad_vec
from scipy.spatial.transform import Rotation

from nyscat import physics, spectral, topology
from nyscat.geometry import (
    MediumParams,
    Surface,
    make_dipole,
    make_rounded_box,
    make_rounded_cube,
    make_sphere,
)
from nyscat.geometry.patches import GnomonicSpherePatch, PlanePatch, TransformedPatch
from nyscat.geometry.surfaces import edge_uv
from nyscat.kernels.green import green, green_gradient
from nyscat.kernels.singular import nearest_preimage, weights_on_patch
from nyscat.kernels.operators import (
    CLOSED,
    OPEN,
    EfieOperator,
    MfieOperator,
    OperatorConfig,
    _QUAD_TOL,
    _CongruentRows,
    _Grid,
    _divergence_grids,
    _fine_level,
    _onpatch_rows,
    _oversample_rows,
    _single_layer_matrix,
    _source_map,
    _target_map,
    _zone_pairs,
    surface_divergence,
)
from nyscat.solver import gmres

K0 = 2.0 * np.pi  # unit wavelength


# ---------------------------------------------------------------------------
# scalar kernel


def test_green_full_period_distance():
    val = green(np.zeros(3), np.array([1.0, 0.0, 0.0]), 2 * np.pi)
    assert abs(val - 1.0 / (4 * np.pi)) < 1e-15


def test_green_static_limit():
    val = green(np.zeros(3), np.array([0.0, 2.0, 0.0]), 0.0)
    assert abs(val - 1.0 / (8 * np.pi)) < 1e-15


def test_green_symmetry_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        r, rp = rng.standard_normal(3), rng.standard_normal(3)
        assert green(r, rp, 1.7) == green(rp, r, 1.7)


def test_green_coincident_points_rejected():
    p = np.array([0.3, -0.1, 0.8])
    with pytest.raises(ValueError):
        green(p, p, 1.0)
    with pytest.raises(ValueError):
        green_gradient(p, p.copy(), 1.0)


# ---------------------------------------------------------------------------
# surface divergence


def _flat_surface():
    patch = PlanePatch((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    return Surface.assemble([patch], closed=False)


def _density_from_components(surface, n, fu, fv, kind="closed"):
    nodes = spectral.cc_nodes(n) if kind == "closed" else spectral.fejer_nodes(n)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    grids = np.empty((surface.n_patches, n, n, 2), dtype=complex)
    for p, patch in enumerate(surface.patches):
        fr = patch.frames(uu.ravel(), vv.ravel())
        grids[p, ..., 0] = fu(uu, vv, fr)
        grids[p, ..., 1] = fv(uu, vv, fr)
    return topology.grids_to_full(grids)


def test_surface_divergence_constant_field_is_zero():
    surf = _flat_surface()
    dens = _density_from_components(surf, 9,
                                    lambda u, v, fr: np.ones_like(u),
                                    lambda u, v, fr: np.zeros_like(u))
    div = surface_divergence(dens, surf, 9)
    assert np.abs(div).max() < 1e-13


def test_surface_divergence_linear_field():
    surf = _flat_surface()
    dens = _density_from_components(surf, 9,
                                    lambda u, v, fr: u,
                                    lambda u, v, fr: np.zeros_like(u))
    div = surface_divergence(dens, surf, 9)
    np.testing.assert_allclose(div, np.ones_like(div), atol=1e-12)


def test_surface_divergence_sphere_harmonic_gradient():
    # J = grad_s z on the unit sphere has divergence -2z (degree-1 harmonic)
    surf = make_sphere(2.0)
    n = 18

    def comp(i):
        def f(u, v, fr):
            cu = fr.a_u[:, 2].reshape(u.shape)
            cv = fr.a_v[:, 2].reshape(u.shape)
            gi = fr.ginv.reshape(u.shape + (2, 2))
            return gi[..., i, 0] * cu + gi[..., i, 1] * cv
        return f

    dens = _density_from_components(surf, n, comp(0), comp(1))
    div = surface_divergence(dens, surf, n)
    nodes = spectral.cc_nodes(n)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    for p, patch in enumerate(surf.patches):
        z = patch.point(uu.ravel(), vv.ravel())[:, 2].reshape(n, n)
        np.testing.assert_allclose(div[p], -2.0 * z, atol=1e-8)


# ---------------------------------------------------------------------------
# singular correction rows vs adaptive oracle

_CORNERS = [np.array(c, dtype=float)
            for c in [(-1, -1), (1, -1), (1, 1), (-1, 1)]]


def _adaptive_patch_integral(patch, k, apex_uv, rho, rtol=1e-12):
    """Integral of G(x(apex), .) rho dsigma over one patch.

    Splits the parameter square into triangles fanned from the apex; in the
    scaled triangle coordinate the kernel times the area element stays
    bounded, so nested adaptive quadrature converges to full accuracy.
    """
    a = np.asarray(apex_uv, dtype=float)
    target = patch.point(np.array(apex_uv[0]), np.array(apex_uv[1]))
    total = 0.0 + 0.0j
    for i in range(4):
        ca, cb = _CORNERS[i], _CORNERS[(i + 1) % 4]
        ea, eb = ca - a, cb - a
        area2 = abs(ea[0] * eb[1] - ea[1] * eb[0])
        if area2 < 1e-14:
            continue

        def inner(s, ca=ca, cb=cb, area2=area2):
            def f(t):
                uv = a + s * (ca + t * (cb - ca) - a)
                fr = patch.frames(np.array(uv[0]), np.array(uv[1]))
                val = green(target, fr.point, k) * rho(uv[0], uv[1]) * fr.jac
                return np.asarray(val * s * area2)
            return quad_vec(f, 0.0, 1.0, epsabs=1e-14, epsrel=rtol)[0]

        val, _ = quad_vec(inner, 0.0, 1.0, epsabs=1e-14, epsrel=rtol)
        total += complex(val)
    return total


@pytest.fixture(scope="module")
def sphere_correction():
    """(patch, on-patch G rows of its nodes in node order) on the n = 10 grid."""
    g = _Grid(make_sphere(2.0), 10, "closed")
    pairs = sorted((pr for pr in g.on_patch_pairs() if pr[1] == 0), key=lambda pr: pr[2])
    rows, _ = _onpatch_rows(
        g, pairs, lambda t, x: lambda pts, nrm: green(x, pts, K0))
    return g.surface.patches[0], rows


def test_singular_row_constant_density(sphere_correction):
    patch, weights = sphere_correction
    n = 10
    nodes = spectral.cc_nodes(n)
    iu, iv = 3, 4
    oracle = _adaptive_patch_integral(patch, K0, (nodes[iu], nodes[iv]),
                                      lambda u, v: 1.0)
    got = weights[iu * n + iv].sum()
    assert abs(got - oracle) / abs(oracle) < 1e-10


def test_singular_row_polynomial_density(sphere_correction):
    patch, weights = sphere_correction
    n = 10
    nodes = spectral.cc_nodes(n)
    iu, iv = 3, 4

    def rho(u, v):
        return (2.0 * u * u - 1.0) * v

    oracle = _adaptive_patch_integral(patch, K0, (nodes[iu], nodes[iv]), rho)
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    got = weights[iu * n + iv] @ rho(uu, vv).ravel()
    assert abs(got - oracle) / abs(oracle) < 1e-9


def test_singular_weights_finite_and_bounded(sphere_correction):
    _, weights = sphere_correction
    assert np.all(np.isfinite(weights))
    area = 4 * np.pi / 6  # one sixth of the unit sphere
    assert np.abs(weights).max() < 1e3 * area / 10**2


# ---------------------------------------------------------------------------
# single-layer potential on the sphere


def _sphere_layer_values(k, n):
    """Corrected single-layer matrix of the closed unit-sphere grid times rho = 1."""
    mat, _ = _single_layer_matrix(_Grid(make_sphere(2.0), n, "closed"), k)
    return mat @ np.ones(mat.shape[1])


def test_single_layer_uniform_density_oscillatory():
    # unit sphere, rho = 1: potential a(e^{2ika}-1)/(2ika) at every node
    k = 1.0
    vals = _sphere_layer_values(k, 12)
    exact = (np.exp(2j * k) - 1.0) / (2j * k)
    assert np.abs(vals - exact).max() / abs(exact) < 1e-8


def test_single_layer_uniform_density_static():
    # k = 0: classical uniform layer, potential equal to the radius
    vals = _sphere_layer_values(0.0, 12)
    assert np.abs(vals - 1.0).max() < 1e-8


# ---------------------------------------------------------------------------
# operator configuration


def test_operator_config_validation():
    with pytest.raises(ValueError):
        OperatorConfig(variant="diagonal")


# ---------------------------------------------------------------------------
# electric-field forward map


def test_efie_linearity(efie_op):
    op = efie_op(8)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    y = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    lhs = op.apply(2.0 * x + 0.5j * y)
    rhs = 2.0 * op.apply(x) + 0.5j * op.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_efie_output_tangency(efie_op):
    op = efie_op(8)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    cart = op.cartesian_current(op.apply(x))
    for p, normal in enumerate(op.grid.frames.normal):
        dots = np.abs(np.einsum("sc,sc->s", cart[p], normal.astype(complex)))
        mags = np.linalg.norm(cart[p], axis=1)
        assert np.all(dots < 1e-10 * mags)


def test_efie_variant_guards(efie_op):
    closed_op = efie_op(8)
    with pytest.raises(ValueError):
        closed_op.apply(np.zeros(closed_op.n_unknowns + 1, complex))


def test_efie_open_linearity_and_tangency(efie_op):
    op = efie_op(8, OPEN)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    y = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    lhs = op.apply(x + 2j * y)
    rhs = op.apply(x) + 2j * op.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)
    cart = op.cartesian_current(op.apply(x))
    for p, normal in enumerate(op.grid.frames.normal):
        dots = np.abs(np.einsum("sc,sc->s", cart[p], normal.astype(complex)))
        mags = np.linalg.norm(cart[p], axis=1)
        assert np.all(dots < 1e-10 * mags)


def _plane_wave_unknowns(op, pol, direction, k):
    def field(pts):
        return pol[None, :] * np.exp(1j * k * (pts @ direction))[:, None]
    return op.rhs(field)


def test_efie_rotation_invariance(efie_op, medium):
    op = efie_op(8)
    rot = Rotation.from_euler("zyx", [0.3, 0.4, 0.5]).as_matrix()
    rotated = Surface.assemble(
        [TransformedPatch(p, rotation=rot) for p in op.grid.surface.patches])
    op_r = EfieOperator(rotated, 8, medium)
    x = _plane_wave_unknowns(op, np.array([1.0, 0, 0]), np.array([0.0, 0, 1.0]),
                             medium.wavenumber)
    x_r = _plane_wave_unknowns(op_r, rot @ np.array([1.0, 0, 0]),
                               rot @ np.array([0.0, 0, 1.0]), medium.wavenumber)
    n0 = np.linalg.norm(op.apply(x))
    n1 = np.linalg.norm(op_r.apply(x_r))
    assert abs(n0 - n1) <= 1e-10 * n0


def test_efie_grid_refinement_cauchy(efie_op, mie):
    # fixed smooth density, outputs compared at a fixed physical point (a
    # patch corner, present on every grid) must converge geometrically
    vals = []
    for n in (8, 10, 12, 14):
        op = efie_op(n)
        x = op.grid.project(op.grid.sample(mie[0]))
        vals.append(op.cartesian_current(op.apply(x))[0, 0])
    d1, d2, d3 = (np.linalg.norm(vals[i + 1] - vals[i]) for i in range(3))
    assert d2 < 0.6 * d1
    assert d3 < 0.6 * d2


# ---------------------------------------------------------------------------
# interior-edge contour term: continuity makes it vanish


def _edge_grid_line(grids, n, e):
    if e in (0, 2):
        iv = n - 1 if e == 0 else 0
        return grids[:, iv, :]
    iu = 0 if e == 1 else n - 1
    return grids[iu, :, :]


def _conormal(fr, e):
    """Unit in-surface outward normal along a patch edge."""
    gi = fr.ginv
    if e in (0, 2):
        vec = gi[:, 1, 0, None] * fr.a_u + gi[:, 1, 1, None] * fr.a_v
        sgn = -1.0 if e == 0 else 1.0
    else:
        vec = gi[:, 0, 0, None] * fr.a_u + gi[:, 0, 1, None] * fr.a_v
        sgn = 1.0 if e == 1 else -1.0
    vec = sgn * vec
    return vec / np.linalg.norm(vec, axis=1)[:, None]


def test_shared_edge_contour_term_cancels(sphere, medium):
    """A grid density with point continuity radiates as if the per-patch
    scalar-potential boundary terms were absent: the explicit line integral
    along one interior edge, evaluated from both sides, changes the
    off-surface scattered field by less than 1e-8 relative."""
    n = 22
    k, eta = medium.wavenumber, medium.impedance
    g = _Grid(sphere, n, "closed")

    vec = np.empty((6, n * n, 3), dtype=complex)
    for p, (pts, normal) in enumerate(zip(g.frames.point, g.frames.normal)):
        e_inc = np.zeros((n * n, 3), dtype=complex)
        e_inc[:, 0] = np.exp(1j * k * pts[:, 2])
        vec[p] = np.cross(normal, e_inc)
    full = g.expand(g.compress(g.full_from_cartesian(vec)))
    grids = topology.full_to_grids(full, 6, n)

    em = sphere.adjacency[0]

    def edge_side(p, e, t):
        u, v = edge_uv(e, np.asarray(t, dtype=float))
        fr = sphere.patches[p].frames(u, v)
        comp = spectral.interp_matrix(g.nodes, t) @ _edge_grid_line(grids[p], n, e)
        j = comp[:, 0, None] * fr.a_u + comp[:, 1, None] * fr.a_v
        return fr, j

    # both parametrizations trace the same physical curve
    ts = np.linspace(-1.0, 1.0, 7)
    tb = -ts if em.flipped else ts
    fr_a, _ = edge_side(em.patch_a, em.edge_a, ts)
    fr_b, _ = edge_side(em.patch_b, em.edge_b, tb)
    assert np.abs(fr_a.point - fr_b.point).max() < 1e-12

    mid = sphere.patches[em.patch_a].frames(
        *edge_uv(em.edge_a, np.array([0.0])))
    x0 = mid.point[0] + 0.5 * mid.normal[0]

    def integrand(t):
        t = np.atleast_1d(t)
        fr1, j1 = edge_side(em.patch_a, em.edge_a, t)
        fr2, j2 = edge_side(em.patch_b, em.edge_b, -t if em.flipped else t)
        jump = (np.einsum("tc,tc->t", j1, _conormal(fr1, em.edge_a))
                + np.einsum("tc,tc->t", j2, _conormal(fr2, em.edge_b)))
        dl = np.linalg.norm(fr1.a_u if em.edge_a in (0, 2) else fr1.a_v, axis=1)
        return (green_gradient(x0[None], fr1.point, k) * (jump * dl)[:, None])[0]

    val, _ = quad_vec(integrand, -1.0, 1.0, epsabs=1e-15, epsrel=1e-13)
    delta_e = (1j * eta / k) * val

    # off-surface scattered field of the same density by the plain rule
    j_cart = g.cartesian_from_grids(grids).reshape(-1, 3)
    div = surface_divergence(full, sphere, n, "closed").reshape(-1)
    w = g.src_wjac
    pot_a = (w[:, None] * j_cart * green(x0[None], g.src_points, k)[:, None]).sum(0)
    grad_phi = (w[:, None] * green_gradient(x0[None], g.src_points, k)
                * div[:, None]).sum(0)
    e_s = 1j * k * eta * (pot_a + grad_phi / k**2)
    assert np.linalg.norm(delta_e) < 1e-8 * np.linalg.norm(e_s)


# ---------------------------------------------------------------------------
# magnetic-field forward map


@pytest.fixture(scope="module")
def mfie_open_8(sphere, medium):
    return MfieOperator(sphere, 8, medium, OperatorConfig(variant=OPEN))


def test_mfie_linearity(mfie_open_8):
    op = mfie_open_8
    rng = np.random.default_rng(5)
    x = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    y = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    lhs = op.apply(1.5 * x - 2j * y)
    rhs = 1.5 * op.apply(x) - 2j * op.apply(y)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_mfie_zero_density(mfie_open_8):
    out = mfie_open_8.apply(np.zeros(mfie_open_8.n_unknowns, complex))
    assert np.linalg.norm(out) == 0.0


def test_mfie_output_tangency(mfie_open_8):
    op = mfie_open_8
    rng = np.random.default_rng(6)
    x = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
    cart = op.cartesian_current(op.apply(x))
    for p, normal in enumerate(op.grid.frames.normal):
        dots = np.abs(np.einsum("sc,sc->s", cart[p], normal.astype(complex)))
        mags = np.linalg.norm(cart[p], axis=1)
        assert np.all(dots < 1e-10 * mags)


def test_mfie_materialized_matches_chunked(sphere, medium):
    cfg = OperatorConfig(variant=OPEN)
    dense = MfieOperator(sphere, 6, medium, cfg, mem_budget=1e12)
    chunked = MfieOperator(sphere, 6, medium, cfg, mem_budget=0)
    assert dense.materialized and not chunked.materialized
    rng = np.random.default_rng(7)
    x = rng.standard_normal(dense.n_unknowns) + 1j * rng.standard_normal(dense.n_unknowns)
    a, b = dense.apply(x), chunked.apply(x)
    assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(a)


def test_closed_mfie_rcs_is_unit_free():
    """Sphere and wavelength scaled by 1e4 give the same RCS / lambda^2.

    At that scale most coincident node pairs of the closed grid sit about
    2e-12 apart, so their plain-rule gradient values are huge: the corrected
    blocks must replace them, since subtracting them from a corrected row
    loses the digits of the row.
    """
    theta = np.radians([0.0, 90.0, 180.0])
    rcs = []
    for scale in (1.0, 1e4):
        medium = MediumParams(2.0 * scale)  # wavelength equal to the diameter
        op = MfieOperator(make_sphere(2.0 * scale), 5, medium, OperatorConfig(variant=CLOSED))
        wave = physics.PlaneWave((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), medium)
        rep = gmres(op.apply, op.rhs(lambda r: physics.plane_wave_hfield(wave, r)), 1e-10,
                    restart=200, max_iter=200)
        assert rep.converged
        patt = physics.far_field(op.grid.expand(rep.solution), op.grid.surface,
                                 np.stack([theta, np.zeros(3)], axis=1), medium)
        rcs.append(patt.rcs / medium.wavelength**2)
    # measured 1.0e-8, 1.4e-8 and 4.4e-8
    np.testing.assert_allclose(rcs[1], rcs[0], rtol=1e-6)


# ---------------------------------------------------------------------------
# congruence reuse of fan and oversampled rows


def _classes(surface, n=4):
    return _CongruentRows(_Grid(surface, n, "open"), K0).cls


def test_congruence_class_counts():
    assert len(set(_classes(make_sphere(2.0)))) == 1
    assert len(set(_classes(make_rounded_cube(1.0, 0.1)))) == 3
    assert len(set(_classes(make_dipole()))) == 6
    patches, roles, labels = make_rounded_box((1.0, 1.0, 1.2), 0.1)
    cls = _classes(Surface.assemble(patches, roles, labels))
    assert len(set(cls)) > 3
    square = {cls[i] for i, lab in enumerate(labels) if lab in ("face+z", "face-z")}
    stretched = {cls[i] for i, lab in enumerate(labels)
                 if lab.startswith("face") and lab[-1] != "z"}
    assert len(square) == 1 and not square & stretched


def test_congruence_needs_a_proper_rotation():
    base = GnomonicSpherePatch(1.0, (0.0, 0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    rot = Rotation.from_euler("zyx", [0.3, -1.1, 0.7]).as_matrix()
    mirror = np.diag([1.0, 1.0, -1.0])
    turned = TransformedPatch(base, rot, (5.0, 0.0, 0.0))
    mirrored = TransformedPatch(base, rot @ mirror, (-5.0, 0.0, 0.0))
    cls = _classes(Surface.assemble([base, turned, mirrored], closed=False))
    assert cls[0] == cls[1] != cls[2]


@pytest.fixture(scope="module")
def cube_efie_3(medium):
    return EfieOperator(make_rounded_cube(1.0, 0.1), 3, medium)


@pytest.fixture(scope="module")
def sphere_mfie_4(sphere, medium):
    return MfieOperator(sphere, 4, medium, OperatorConfig(variant=OPEN),
                        mem_budget=1e12)


def _sampled_zone_pairs(op, count=24):
    g = op.grid
    zones = _zone_pairs(g)
    rng = np.random.default_rng(11)
    return [[pairs[i] for i in rng.choice(len(pairs), count, replace=False)]
            for pairs in zones]


def _direct_row(op, zone, t, p, kernel):
    g = op.grid
    x_t = g.target_points[t]
    patch = g.surface.patches[p]
    if zone == 0:
        u0, v0, dist = nearest_preimage(patch, x_t)
        return weights_on_patch(patch, g.nodes, lambda pts, nrm: kernel(x_t, pts, op.k),
                                (u0, v0), tol=_QUAD_TOL,
                                peak=dist / (0.5 * g.diameters[p]))[0]
    return _oversample_rows(lambda m: _fine_level(patch, m),
                            lambda pts, nrm: kernel(x_t, pts, op.k), g.nodes)[0]


def _assert_rows_close(got, want):
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_efie_reused_rows_match_direct(cube_efie_3):
    op = cube_efie_3
    s = op.grid.n**2
    for zone, pairs in enumerate(_sampled_zone_pairs(op)):
        for t, p in pairs:
            _assert_rows_close(op.S[t, p * s:(p + 1) * s],
                               _direct_row(op, zone, t, p, green))


def test_mfie_reused_rows_match_direct(sphere_mfie_4):
    op = sphere_mfie_4
    s = op.grid.n**2
    for zone, pairs in enumerate(_sampled_zone_pairs(op)):
        for t, p in pairs:
            want = _direct_row(op, zone, t, p, green_gradient)
            _assert_rows_close(op._w3[t, p * s:(p + 1) * s], want)
            _assert_rows_close(op._k4[t, p * s:(p + 1) * s],
                               want @ op._tnormals[t])


def test_build_stats_count_reuse(cube_efie_3, sphere_mfie_4):
    assert cube_efie_3.build_stats == {
        "classes": 3, "onpatch_rows": 486, "fan_rows": 1608,
        "fan_rows_computed": 183, "mid_rows": 984, "mid_rows_computed": 101,
        "unconverged_rows": 72}
    stats = sphere_mfie_4.build_stats
    assert stats["classes"] == 1 and stats["onpatch_rows"] == 6 * 16
    # one face of the sphere stands for all six
    assert stats["fan_rows"] == 6 * stats["fan_rows_computed"] > 0
    assert stats["mid_rows"] == 6 * stats["mid_rows_computed"] > 0
    assert stats["unconverged_rows"] == 0


def _onpatch_direct(op, p, node, kernel, **kw):
    g = op.grid
    patch = g.surface.patches[p]
    apex = (float(g.nodes[node // g.n]), float(g.nodes[node % g.n]))
    x_t = patch.point(np.array(apex[0]), np.array(apex[1]))
    return weights_on_patch(patch, g.nodes, lambda pts, nrm: kernel(x_t, pts, op.k),
                            apex, tol=_QUAD_TOL, **kw)[0]


def test_efie_node_major_onpatch_rows_match_direct(cube_efie_3):
    op = cube_efie_3
    g = op.grid
    s = g.n**2
    for t, p, node in g.on_patch_pairs():  # direct rows share no fan levels
        _assert_rows_close(op.S[t, p * s:(p + 1) * s], _onpatch_direct(op, p, node, green))
    # one patch alone gets the same rows as all patches sharing fan levels
    pairs = [pr for pr in g.on_patch_pairs() if pr[1] == 5]
    single, _ = _onpatch_rows(
        g, pairs, lambda t, x: lambda pts, nrm: green(x, pts, op.k))
    for (t, p, _), row in zip(pairs, single):
        _assert_rows_close(row, op.S[t, p * s:(p + 1) * s])


def test_mfie_node_major_onpatch_rows_match_direct(sphere_mfie_4):
    op = sphere_mfie_4
    g = op.grid
    s = g.n**2
    for t, p, node in g.on_patch_pairs():
        n_t = op._tnormals[t]
        want = _onpatch_direct(
            op, p, node,
            lambda x, pts, k: np.concatenate([green_gradient(x, pts, k),
                                              green_gradient(x, pts, k) @ n_t[:, None]],
                                             axis=1),
            zero_entries=((node, 0), (node, 1), (node, 2)))
        _assert_rows_close(op._w3[t, p * s:(p + 1) * s], want[:, :3])
        _assert_rows_close(op._k4[t, p * s:(p + 1) * s], want[:, 3])


def test_grid_maps_match_per_patch_loops(cube_efie_3):
    g = cube_efie_3.grid
    m, n, s = g.surface.n_patches, g.n, g.n**2
    rng = np.random.default_rng(12)
    grids = rng.standard_normal((m, n, n, 2)) + 1j * rng.standard_normal((m, n, n, 2))
    vec = rng.standard_normal((m, s, 3)) + 1j * rng.standard_normal((m, s, 3))
    phi = rng.standard_normal(m * s) + 1j * rng.standard_normal(m * s)
    # the per-patch loops these maps replaced, kept as the reference
    cart = np.empty((m, s, 3), dtype=complex)
    contra = np.empty((m, n, n, 2), dtype=complex)
    grad = np.empty((m, s, 3), dtype=complex)
    du = np.einsum("ab,mbv->mav", g.diff, phi.reshape(m, n, n)).reshape(m, s)
    dv = np.einsum("ab,mub->mua", g.diff, phi.reshape(m, n, n)).reshape(m, s)
    uu, vv = (a.ravel() for a in np.meshgrid(g.nodes, g.nodes, indexing="ij"))
    node_frames = [patch.frames(uu, vv) for patch in g.surface.patches]
    for p, fr in enumerate(node_frames):
        gi = fr.ginv
        flat = grids[p].reshape(s, 2)
        cart[p] = flat[:, 0, None] * fr.a_u + flat[:, 1, None] * fr.a_v
        cu = np.einsum("sc,sc->s", vec[p], fr.a_u)
        cv = np.einsum("sc,sc->s", vec[p], fr.a_v)
        contra[p] = np.stack([gi[:, 0, 0] * cu + gi[:, 0, 1] * cv,
                              gi[:, 1, 0] * cu + gi[:, 1, 1] * cv], axis=-1).reshape(n, n, 2)
        gu = gi[:, 0, 0] * du[p] + gi[:, 0, 1] * dv[p]
        gv = gi[:, 1, 0] * du[p] + gi[:, 1, 1] * dv[p]
        grad[p] = gu[:, None] * fr.a_u + gv[:, None] * fr.a_v
    for got, want in ((g.cartesian_from_grids(grids), cart),
                      (g.full_from_cartesian(vec), topology.grids_to_full(contra)),
                      (g.surface_gradient(phi), grad)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    field = lambda pts: np.exp(1j * pts @ np.array([0.3, -1.2, 2.0]))[:, None] * pts
    sampled = g.sample(field)
    for p, fr in enumerate(node_frames):
        assert np.array_equal(sampled[p], field(fr.point))
    assert np.array_equal(g.project(vec), g.compress(g.full_from_cartesian(vec)))


# ---------------------------------------------------------------------------
# factored matvecs: sparse source map B, one product with S, target map C


def _pipeline_efie_apply(op, x):
    """The staged EFIE apply the factored one replaced, kept as the reference:
    expand, Cartesian current and divergence per patch grid, two products
    with S, gather, surface gradient, n x, project."""
    g = op.grid
    m, n = g.surface.n_patches, g.n
    grids = topology.full_to_grids(g.expand(x), m, n)
    j_cart = g.cartesian_from_grids(grids)
    div = _divergence_grids(grids, g.jac_grids, g.diff)
    pot_a = op.S @ j_cart.reshape(m * n * n, 3)
    pot_phi = op.S @ div.reshape(m * n * n)
    total = pot_a[g.member_of] + g.surface_gradient(pot_phi[g.member_of]) / op.k**2
    return g.project(1j * op.k * op.eta * np.cross(g.frames.normal, total))


def _pipeline_cartesian_current(op, x):
    g = op.grid
    return g.cartesian_from_grids(topology.full_to_grids(g.expand(x), g.surface.n_patches, g.n))


def _pipeline_mfie_apply(op, x):
    g = op.grid
    integ = op._integral(_pipeline_cartesian_current(op, x).reshape(-1, 3))
    return x / 2.0 + g.compress(g.full_from_cartesian(-integ[g.member_of]))


@pytest.fixture(scope="module")
def cube_efie_3_lambda4():
    return EfieOperator(make_rounded_cube(1.0, 0.1), 3, MediumParams(4.0))


@pytest.mark.parametrize("case", ["cube-closed-efie", "sphere-open-efie", "sphere-mfie"])
def test_factored_apply_matches_the_pipeline(case, request, efie_op):
    if case == "cube-closed-efie":
        op, ref = request.getfixturevalue("cube_efie_3_lambda4"), _pipeline_efie_apply
    elif case == "sphere-open-efie":
        op, ref = efie_op(4, OPEN), _pipeline_efie_apply
    else:
        op, ref = request.getfixturevalue("sphere_mfie_4"), _pipeline_mfie_apply
    rng = np.random.default_rng(21)
    for _ in range(3):
        x = rng.standard_normal(op.n_unknowns) + 1j * rng.standard_normal(op.n_unknowns)
        want = ref(op, x)
        assert np.linalg.norm(op.apply(x) - want) <= 1e-14 * np.linalg.norm(want)
        cart = _pipeline_cartesian_current(op, x)
        assert np.abs(op.cartesian_current(x) - cart).max() <= 1e-14 * np.abs(cart).max()


def _assert_row_nnz(mat, bound):
    assert sparse.issparse(mat)
    assert np.diff(mat.tocsr().indptr).max() <= bound


@pytest.mark.parametrize("case", ["cube-closed-efie", "sphere-open-efie"])
def test_source_and_target_maps_stay_sparse(case, request, efie_op):
    op = (request.getfixturevalue("cube_efie_3_lambda4") if case == "cube-closed-efie"
          else efie_op(4, OPEN))
    n = op.grid.n
    # B: a divergence row reaches the n nodes of each grid line through the
    # node, 2n full-vector entries, and P maps each to at most the 2 unknowns
    # of its point: at most 4n per row (a Cartesian row: 2 entries, so 4).
    _assert_row_nnz(op.grid.source, 4 * n)
    # C: a full-vector row holds 3 entries of the node's A and the phi of the
    # 2n - 1 nodes on its two grid lines; Q averages up to 4 coinciding
    # members (corners), which share the target and so its 3 A columns:
    # 3 + 4 (2n - 1) < 8n per row.
    _assert_row_nnz(op.target_map, 8 * n)


def test_maps_build_without_dense_temporaries():
    # 108 patches at n = 3: 872 unknowns, so one dense complex (N, N/4)
    # block is 3 MB, while the maps hold about 10,000 entries each
    import tracemalloc

    g = _Grid(make_dipole(), 3, "closed")
    budget = g.n_unknowns**2 * 16 // 4
    for build in (lambda: _source_map(g), lambda: _target_map(g, K0, 376.73)):
        tracemalloc.start()
        try:
            built = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sparse.issparse(built)
        assert peak < budget
