import numpy as np
import pytest

from nyscat import topology
from nyscat.geometry import (
    PlanePatch,
    Surface,
    SurfaceError,
    TransformedPatch,
    make_rounded_cube,
    make_sphere,
)
from nyscat.topology import (
    TYPE_A,
    TYPE_B,
    TYPE_C,
    build_coincidence,
    build_compression,
    build_projection,
    classify_points,
    edge_normal_jump,
    frame_block,
    full_to_grids,
    grids_to_full,
    point_class,
)


@pytest.fixture(scope="module")
def sphere8():
    surf = make_sphere(2.0)
    groups = build_coincidence(surf, 8)
    return surf, groups


def test_point_class_codes():
    n = 6
    assert point_class(2, 3, n) == TYPE_A
    assert point_class(0, 3, n) == TYPE_B
    assert point_class(2, n - 1, n) == TYPE_B
    assert point_class(0, n - 1, n) == TYPE_C


def test_classify_counts_per_patch():
    surf = make_sphere(2.0)
    cls = classify_points(surf, 6)
    assert cls.shape == (6, 6, 6)
    one = cls[0]
    assert (one == TYPE_A).sum() == 16
    assert (one == TYPE_B).sum() == 16
    assert (one == TYPE_C).sum() == 4


@pytest.mark.parametrize("n,count", [(6, 152), (10, 488)])
def test_sphere_group_counts(n, count):
    surf = make_sphere(2.0)
    groups = build_coincidence(surf, n)
    assert len(groups) == count
    assert count == 6 * n * n - 12 * n + 8


def test_sphere_multiplicities(sphere8):
    surf, groups = sphere8
    for g in groups:
        if g.cls == TYPE_A:
            assert g.multiplicity == 1
        elif g.cls == TYPE_B:
            assert g.multiplicity == 2
        else:
            assert g.multiplicity == 3  # cube-sphere corners have valence 3
    n_c = sum(g.cls == TYPE_C for g in groups)
    assert n_c == 8


def test_rounded_cube_multiplicities():
    surf = make_rounded_cube(1.0, 0.05)
    groups = build_coincidence(surf, 6)
    mults_c = {g.multiplicity for g in groups if g.cls == TYPE_C}
    assert mults_c == {3, 4}  # triple corners plus valence-4 seam junctions
    assert all(g.multiplicity == 2 for g in groups if g.cls == TYPE_B)
    # Euler check for the 54-patch decomposition: V - E + F = 2
    n_c = sum(g.cls == TYPE_C for g in groups)
    assert n_c == 56


def test_group_members_coincide_and_share_normals(sphere8):
    surf, groups = sphere8
    for g in groups:
        if g.cls == TYPE_A:
            continue
        assert np.linalg.norm(np.cross(g.t1, g.t2) - g.normal) < 1e-12
        assert abs(g.t1 @ g.normal) < 1e-12
        assert abs(np.linalg.norm(g.t1) - 1) < 1e-13


def test_projection_shapes(sphere8):
    surf, groups = sphere8
    n = 8
    p = build_projection(groups, surf, n)
    q = build_compression(groups, surf, n)
    assert p.shape == (2 * 6 * n * n, 2 * len(groups))
    assert q.shape == (2 * len(groups), 2 * 6 * n * n)


def test_compression_inverts_projection(sphere8):
    surf, groups = sphere8
    p = build_projection(groups, surf, 8)
    q = build_compression(groups, surf, 8)
    eye = (q @ p).toarray()
    assert np.abs(eye - np.eye(eye.shape[0])).max() < 1e-13


def test_projection_then_compression_idempotent(sphere8):
    surf, groups = sphere8
    p = build_projection(groups, surf, 8)
    q = build_compression(groups, surf, 8)
    rng = np.random.default_rng(5)
    x = rng.standard_normal(p.shape[1])
    full = p @ x
    assert np.abs(p @ (q @ full) - full).max() < 1e-12


def test_compression_averages_with_unit_weight(sphere8):
    # members carrying group-frame pairs {(1,0), (0,0)} compress to (0.5, 0)
    surf, groups = sphere8
    n = 8
    frames = topology._node_frames(surf, n)
    gid = next(i for i, g in enumerate(groups) if g.cls == TYPE_B)
    grp = groups[gid]
    full = np.zeros(2 * 6 * n * n)
    p0, iu, iv = grp.members[0]
    k = iu * n + iv
    expand, _ = frame_block(grp.t1, grp.t2, frames[p0].a_u[k], frames[p0].a_v[k])
    ru, rv = topology._member_rows(p0, iu, iv, n)
    full[ru], full[rv] = expand @ np.array([1.0, 0.0])
    q = build_compression(groups, surf, n)
    out = q @ full
    assert abs(out[2 * gid] - 0.5) < 1e-13
    assert abs(out[2 * gid + 1]) < 1e-13
    assert np.abs(np.delete(out, [2 * gid, 2 * gid + 1])).max() < 1e-13


def test_projection_reconstructs_shared_tangent(sphere8):
    # unique vector encoding t1 at a corner group: every member patch's
    # contravariant samples recombine to the same physical vector
    surf, groups = sphere8
    n = 8
    frames = topology._node_frames(surf, n)
    p = build_projection(groups, surf, n)
    gid = next(i for i, g in enumerate(groups) if g.cls == TYPE_C)
    grp = groups[gid]
    x = np.zeros(p.shape[1])
    x[2 * gid] = 1.0
    full = full_to_grids(p @ x, 6, n)
    for pid, iu, iv in grp.members:
        k = iu * n + iv
        vec = full[pid, iu, iv, 0] * frames[pid].a_u[k] + full[pid, iu, iv, 1] * frames[pid].a_v[k]
        assert np.abs(vec - grp.t1).max() < 1e-12


def test_aligned_frames_reduce_to_identity_blocks():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    expand, compress = frame_block(e1, e2, e1, e2)
    np.testing.assert_allclose(expand, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(compress, np.eye(2), atol=1e-15)


def test_tiny_sphere_maps_scale_with_length():
    # a 20 nm sphere given in metres: the same maps as at diameter 2, with
    # the shared-frame columns of P carrying one factor 1/length (interior
    # groups keep contravariant components on both sides)
    n, scale = 4, 1e-8
    big = make_sphere(2.0)
    tiny = make_sphere(2.0 * scale)
    g_big, g_tiny = build_coincidence(big, n), build_coincidence(tiny, n)
    assert [g.members for g in g_tiny] == [g.members for g in g_big]
    p_big = build_projection(g_big, big, n).toarray()
    p_tiny = build_projection(g_tiny, tiny, n).toarray()
    col_scale = np.repeat([1.0 if g.cls == TYPE_A else 1.0 / scale for g in g_big], 2)
    want = p_big * col_scale
    assert np.abs(p_tiny - want).max() <= 1e-12 * np.abs(want).max()


def test_parallel_tangents_are_degenerate():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    with pytest.raises(SurfaceError, match="degenerate"):
        frame_block(e1, e2, e1, 3.0 * e1)
    # 1e-7 rad apart at a length scale of 1e-9: sin^2 = 1e-14 of the angle
    with pytest.raises(SurfaceError, match="degenerate"):
        frame_block(e1, e2, 1e-9 * e1, 1e-9 * (e1 + 1e-7 * e2))


def test_aligned_patchwork_gives_zero_one_projection():
    # two coplanar unit patches with identical parametrizations: every
    # nonzero value of P is exactly one
    a = PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0))
    b = PlanePatch((2, 0, 0), (1, 0, 0), (0, 1, 0))
    surf = Surface.assemble([a, b], closed=False)
    groups = build_coincidence(surf, 5, require_closed=False)
    p = build_projection(groups, surf, 5)
    vals = p.tocoo().data
    assert np.all((np.abs(vals) < 1e-14) | (np.abs(vals - 1) < 1e-14))
    assert (np.abs(vals - 1) < 1e-14).sum() == p.shape[0]  # one unit entry per row


def test_pimage_has_no_edge_normal_jump(sphere8):
    surf, groups = sphere8
    p = build_projection(groups, surf, 8)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(p.shape[1]) + 1j * rng.standard_normal(p.shape[1])
    assert edge_normal_jump(p @ x, surf, 8) < 1e-12


def test_cube_pimage_jump(sphere8=None):
    surf = make_rounded_cube(1.0, 0.05)
    groups = build_coincidence(surf, 6)
    p = build_projection(groups, surf, 6)
    rng = np.random.default_rng(7)
    x = rng.standard_normal(p.shape[1])
    assert edge_normal_jump(p @ x, surf, 6) < 1e-12


def test_zeroed_edge_jump_matches_partner_magnitude():
    surf = make_sphere(2.0)
    n = 6
    groups = build_coincidence(surf, n)
    p = build_projection(groups, surf, n)
    rng = np.random.default_rng(8)
    full = full_to_grids(p @ rng.standard_normal(p.shape[1]), 6, n)
    m = surf.adjacency[0]
    iu, iv = topology._edge_indices(m.edge_a, n, flipped=False)
    zeroed = full.copy()
    zeroed[m.patch_a, iu, iv, :] = 0.0
    jump = edge_normal_jump(grids_to_full(zeroed), surf, n)
    # the violation equals the partner side's |J . e| along that edge
    t = np.array(topology.spectral.cc_nodes(n))
    from nyscat.geometry import edge_uv

    ub, vb = edge_uv(m.edge_b, t[::-1] if m.flipped else t)
    fb = surf.patches[m.patch_b].frames(ub, vb)
    jb = topology._edge_vectors(full[m.patch_b], m.edge_b, n, fb, flipped=m.flipped)
    ua, va = edge_uv(m.edge_a, t)
    fa = surf.patches[m.patch_a].frames(ua, va)
    e = topology._edge_normal(fa, m.edge_a)
    expect = np.abs(np.einsum("ic,ic->i", jb, e)).max()
    assert abs(jump - expect) < 1e-12


def test_nonconforming_perturbation_detected():
    surf = make_sphere(2.0)
    tol = 1e-9 * surf.bounding_diameter()
    shifted = TransformedPatch(surf.patches[0], shift=(10 * tol, 0, 0))
    broken = Surface(
        [shifted] + list(surf.patches[1:]),
        surf.roles,
        surf.labels,
        surf.adjacency,
    )
    with pytest.raises(SurfaceError, match="edge"):
        build_coincidence(broken, 6)


def test_creased_surface_detected():
    # two planes meeting at a 60-degree crease: points conform, normals do not
    a = PlanePatch((0, 0, 0), (1, 0, 0), (0, 1, 0))
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    b = PlanePatch((1 + c, 0, s), (c, 0, s), (0, 1, 0))
    surf = Surface.assemble([a, b], closed=False)
    with pytest.raises(SurfaceError, match="not smooth"):
        build_coincidence(surf, 5, require_closed=False)


def test_full_grid_layout_round_trip():
    rng = np.random.default_rng(9)
    grids = rng.standard_normal((3, 4, 4, 2))
    assert np.array_equal(full_to_grids(grids_to_full(grids), 3, 4), grids)
    flat = rng.standard_normal(2 * 3 * 16)
    assert np.array_equal(grids_to_full(full_to_grids(flat, 3, 4)), flat)


def test_deterministic_construction():
    surf = make_sphere(2.0)
    g1 = build_coincidence(surf, 7)
    g2 = build_coincidence(surf, 7)
    assert [g.members for g in g1] == [g.members for g in g2]
    p1 = build_projection(g1, surf, 7)
    p2 = build_projection(g2, surf, 7)
    assert (p1 != p2).nnz == 0
