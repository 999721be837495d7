import numpy as np
import pytest
from scipy import integrate

from nyscat import spectral
from nyscat.geometry import GnomonicSpherePatch, PlanePatch, make_sphere
from nyscat.kernels.green import green, green_gradient
from nyscat.kernels.singular import (
    FanLevels,
    _cardinal_rows,
    _cardinal_weights,
    fan_rule,
    gauss01,
    nearest_preimage,
    weights_on_patch,
)


def polar_weight_oracle(patch, target, apex, node_idx, nodes, component=None, k=2 * np.pi):
    """Integral of kernel * cardinal_j * dsigma via adaptive polar quadrature.

    Independent of the fan construction: polar coordinates about the apex with
    the exact square boundary as the radial limit, nested scipy.quad.
    """
    n = len(nodes)
    ju, jv = divmod(node_idx, n)

    def integrand(rho, theta, part):
        u = apex[0] + rho * np.cos(theta)
        v = apex[1] + rho * np.sin(theta)
        fr = patch.frames(np.array([u]), np.array([v]))
        if component is None:
            kv = green(target, fr.point[0], k)
        else:
            kv = green_gradient(target, fr.point[0], k)[component]
        lu = spectral.interp_matrix(nodes, np.array([u]))[0, ju]
        lv = spectral.interp_matrix(nodes, np.array([v]))[0, jv]
        val = kv * lu * lv * fr.jac[0] * rho
        return val.real if part == 0 else val.imag

    def rho_max(theta):
        c, s = np.cos(theta), np.sin(theta)
        lim = np.inf
        if c > 1e-15:
            lim = min(lim, (1 - apex[0]) / c)
        if c < -1e-15:
            lim = min(lim, (-1 - apex[0]) / c)
        if s > 1e-15:
            lim = min(lim, (1 - apex[1]) / s)
        if s < -1e-15:
            lim = min(lim, (-1 - apex[1]) / s)
        return lim

    out = []
    for part in (0, 1):
        f = lambda theta: integrate.quad(
            integrand, 0.0, rho_max(theta), args=(theta, part), epsabs=1e-12, limit=200
        )[0]
        out.append(integrate.quad(f, 0.0, 2 * np.pi, epsabs=1e-11, limit=200)[0])
    return out[0] + 1j * out[1]


def test_gauss01_polynomial():
    x, w = gauss01(4)
    assert abs(w @ x**5 - 1.0 / 6.0) < 1e-14
    assert abs(w.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("apex", [(0.0, 0.0), (0.3, -0.6), (1.0, 0.2), (-1.0, 1.0)])
def test_fan_rule_covers_square(apex):
    pts, w = fan_rule(apex[0], apex[1], 12)
    assert abs(w.sum() - 4.0) < 1e-12  # area of the parameter square
    assert pts.min() >= -1 - 1e-12 and pts.max() <= 1 + 1e-12
    # quadratic moments of the square
    assert abs(w @ (pts[:, 0] ** 2) - 4.0 / 3.0) < 1e-12
    assert abs(w @ (pts[:, 0] * pts[:, 1]) - 0.0) < 1e-12


def test_fan_weights_smooth_kernel_match_dense_quadrature():
    patch = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    d = np.array([0.4, -1.1, 0.7])
    kernel = lambda pts, nrm: np.exp(1j * pts @ d)
    n = 12
    nodes = spectral.cc_nodes(n)
    w, _ = weights_on_patch(patch, nodes, kernel, (0.21, -0.4))
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    dens = (uu + 0.3) * (vv - 0.2) ** 2
    got = w @ dens.ravel()

    m = 64
    g, gw = spectral.cc_nodes(m), spectral.cc_weights(m)
    gu, gv = np.meshgrid(g, g, indexing="ij")
    fr = patch.frames(gu.ravel(), gv.ravel())
    f = kernel(fr.point, fr.normal) * (gu.ravel() + 0.3) * (gv.ravel() - 0.2) ** 2
    want = np.outer(gw, gw).ravel() @ (f * fr.jac)
    assert abs(got - want) < 1e-11


def test_on_surface_sphere_single_layer_closed_form():
    # target on the unit sphere: integral of G over the whole sphere equals
    # (exp(2ika) - 1)/(2ik)
    k = 2 * np.pi
    surf = make_sphere(2.0)
    iz = surf.labels.index("sphere+z")
    patch = surf.patches[iz]
    target = patch.point(np.array(0.0), np.array(0.0))
    kernel = lambda pts, nrm: green(target, pts, k)

    n = 16
    nodes = spectral.cc_nodes(n)
    w_self, _ = weights_on_patch(patch, nodes, kernel, (0.0, 0.0))
    total = w_self.sum()  # cardinals sum to one: weight sum = integral

    m = 48
    g, gw = spectral.cc_nodes(m), spectral.cc_weights(m)
    gu, gv = np.meshgrid(g, g, indexing="ij")
    w2 = np.outer(gw, gw).ravel()
    for j, other in enumerate(surf.patches):
        if j == iz:
            continue
        fr = other.frames(gu.ravel(), gv.ravel())
        total += w2 @ (green(target, fr.point, k) * fr.jac)

    want = (np.exp(2j * k) - 1.0) / (2j * k)
    assert abs(total - want) < 1e-10


def test_singular_weight_against_polar_oracle():
    patch = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    n = 8
    nodes = spectral.cc_nodes(n)
    apex = (float(nodes[3]), float(nodes[5]))  # on-grid interior node
    target = patch.point(np.array(apex[0]), np.array(apex[1]))
    k = 2 * np.pi
    kernel = lambda pts, nrm: green(target, pts, k)
    w, _ = weights_on_patch(patch, nodes, kernel, apex)
    for j in (3 * n + 5, 0, 4 * n + 2):  # the apex node and two others
        want = polar_weight_oracle(patch, target, apex, j, nodes, k=k)
        assert abs(w[j] - want) < 1e-8


def test_gradient_weights_with_zeroed_target_cardinal():
    patch = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    n = 8
    nodes = spectral.cc_nodes(n)
    apex = (float(nodes[4]), float(nodes[4]))
    target = patch.point(np.array(apex[0]), np.array(apex[1]))
    k = 2 * np.pi
    kernel = lambda pts, nrm: green_gradient(target, pts, k)
    j_apex = 4 * n + 4
    w, _ = weights_on_patch(patch, nodes, kernel, apex, zero_nodes=(j_apex,))
    assert w.shape == (n * n, 3)
    assert np.all(w[j_apex] == 0.0)
    for j, comp in (((2 * n + 6), 0), ((5 * n + 3), 2)):
        want = polar_weight_oracle(patch, target, apex, j, nodes, component=comp, k=k)
        assert abs(w[j, comp] - want) < 1e-8


def test_near_singular_weights_match_dense_quadrature():
    # target hovering one-tenth of the patch size above the surface
    patch = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    uv0 = (0.15, -0.35)
    base = patch.point(np.array(uv0[0]), np.array(uv0[1]))
    nrm = patch.frames(np.array([uv0[0]]), np.array([uv0[1]])).normal[0]
    target = base + 0.12 * nrm
    k = 2 * np.pi
    kernel = lambda pts, n_: green(target, pts, k)
    n = 10
    nodes = spectral.cc_nodes(n)
    u0, v0, dist = nearest_preimage(patch, target)
    assert abs(u0 - uv0[0]) < 1e-9 and abs(v0 - uv0[1]) < 1e-9
    assert abs(dist - 0.12) < 1e-12
    w, _ = weights_on_patch(patch, nodes, kernel, (u0, v0))

    m = 96  # smooth but peaked: dense plain rule still converges
    g, gw = spectral.cc_nodes(m), spectral.cc_weights(m)
    gu, gv = np.meshgrid(g, g, indexing="ij")
    fr = patch.frames(gu.ravel(), gv.ravel())
    dens_c = lambda uu, vv: np.cos(1.3 * uu) * (vv + 0.4)
    want = np.outer(gw, gw).ravel() @ (kernel(fr.point, None) * fr.jac * dens_c(gu.ravel(), gv.ravel()))
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    got = w @ dens_c(uu, vv).ravel()
    assert abs(got - want) < 1e-9


def test_preimage_clamps_outside_targets():
    patch = PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0))
    u0, v0, dist = nearest_preimage(patch, np.array([2.0, 0.3, 0.5]))
    assert abs(u0 - 1.0) < 1e-12
    assert abs(v0 - 0.3) < 1e-10
    assert abs(dist - np.sqrt(1.25)) < 1e-10


@pytest.mark.parametrize("m", [None, 4])
@pytest.mark.parametrize("rule", [(0.0, 0.0, 48, 0.0), (0.97, -0.2, 9, 0.01)])
def test_cardinal_weights_match_reference_einsum(m, rule):
    # the second rule is a graded sliver fan with an odd point count
    uv, w = fan_rule(*rule)
    rng = np.random.default_rng(5)
    w = w * rng.uniform(0.5, 2.0, w.size)  # stands in for the surface measure
    shape = (w.size,) if m is None else (w.size, m)
    vals = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    nodes = spectral.cc_nodes(6)
    but, bv = _cardinal_rows(nodes, uv)
    bu = spectral.interp_matrix(nodes, uv[:, 0])
    if m is None:
        want = np.einsum("q,qa,qb->ab", vals * w, bu, bv).reshape(-1)
    else:
        want = np.einsum("qm,qa,qb->abm", vals * w[:, None], bu, bv).reshape(-1, m)
    got = _cardinal_weights(vals, w, but, bv)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    real = _cardinal_weights(vals.real, w, but, bv)
    assert real.dtype == float
    assert np.abs(real - want.real).max() <= 1e-14 * np.abs(want.real).max()
    if rule[0] == 0.97:
        assert w.size % 2 == 1


def test_fan_levels_share_read_only_rules():
    levels = FanLevels()
    uv, w = fan_rule(0.5, -0.25, 14, levels=levels)
    again = fan_rule(0.5, -0.25, 14, levels=levels)
    assert again[0] is uv and again[1] is w
    for arr in (uv, w):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    plain = fan_rule(0.5, -0.25, 14)
    assert np.array_equal(plain[0], uv) and np.array_equal(plain[1], w)
    assert plain[0].flags.writeable
    # a rule with a peak is never cached; another apex drops the old entries
    assert fan_rule(0.5, -0.25, 14, 0.01, levels)[0].flags.writeable
    other = fan_rule(0.0, 0.0, 14, levels=levels)
    assert np.array_equal(other[0], fan_rule(0.0, 0.0, 14)[0])
    assert levels.apex == (0.0, 0.0) and list(levels.entries) == [14]


def test_shared_levels_give_the_same_weights():
    surf = make_sphere(2.0)
    nodes = spectral.cc_nodes(5)
    apex = (float(nodes[1]), float(nodes[3]))
    levels = FanLevels()
    for patch in surf.patches[:3]:
        target = patch.point(np.array(apex[0]), np.array(apex[1]))
        kernel = lambda pts, nrm: green(target, pts, 2 * np.pi)
        shared, ok_shared = weights_on_patch(patch, nodes, kernel, apex, levels=levels)
        alone, ok_alone = weights_on_patch(patch, nodes, kernel, apex)
        assert ok_shared == ok_alone
        assert np.array_equal(shared, alone)
    assert levels.apex == apex


def test_ladder_reports_whether_it_converged():
    patch = GnomonicSpherePatch(1.0, (0, 0, 1), (1, 0, 0), (0, 1, 0))
    nodes = spectral.cc_nodes(6)
    target = patch.point(np.array(0.0), np.array(0.0))
    kernel = lambda pts, nrm: green(target, pts, 2 * np.pi)
    w, ok = weights_on_patch(patch, nodes, kernel, (0.0, 0.0))
    assert ok
    # one level has nothing to compare against; a zero tolerance is never met
    short, ok = weights_on_patch(patch, nodes, kernel, (0.0, 0.0), ladder=(20,))
    assert not ok and short.shape == w.shape
    last, ok = weights_on_patch(patch, nodes, kernel, (0.0, 0.0), tol=0.0)
    assert not ok and np.abs(last - w).max() <= 1e-12 * np.abs(w).max()
