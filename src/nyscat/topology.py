"""Cross-patch point coincidence and current-continuity maps.

Closed tensor grids place nodes exactly on patch boundaries, so a physical
point on a shared edge or corner is sampled by several patches.  This module
groups those coinciding samples, classifies nodes by parameter location
(interior / edge / corner), and builds the sparse expansion map P (one value
per physical point, written into every member patch slot) together with the
averaging compression map Q.  Densities in the image of P are tangentially
continuous across patch boundaries by construction, which is what lets the
field operators drop the inter-patch contour terms.

Layout: the full per-patch vector stacks, patch by patch, all J^u samples
then all J^v samples, with node index iu*n + iv.  The unique vector holds two
components per coincidence group, group-major: interior groups keep the
member patch's contravariant pair, shared groups carry components in the
group's orthonormal tangent frame (t1, t2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from nyscat import spectral
from nyscat.geometry import Surface, SurfaceError, edge_uv

__all__ = [
    "TYPE_A",
    "TYPE_B",
    "TYPE_C",
    "CoincidenceGroup",
    "classify_points",
    "point_class",
    "build_coincidence",
    "build_projection",
    "build_compression",
    "edge_normal_jump",
    "frame_block",
    "full_size",
    "full_to_grids",
    "grids_to_full",
]

TYPE_A = 0  # interior node
TYPE_B = 1  # edge node, one parameter at +-1
TYPE_C = 2  # corner node, both parameters at +-1


def point_class(iu: int, iv: int, n: int) -> int:
    on_u = iu == 0 or iu == n - 1
    on_v = iv == 0 or iv == n - 1
    return TYPE_A + on_u + on_v


def classify_points(surface: Surface, n: int) -> np.ndarray:
    """Class codes for every node, shape (n_patches, n, n)."""
    if n < 3:
        raise ValueError("need at least 3 nodes per direction")
    row = np.zeros(n, dtype=np.uint8)
    row[0] = row[-1] = 1
    one = row[:, None] + row[None, :]
    return np.broadcast_to(one, (surface.n_patches, n, n)).copy()


@dataclass(frozen=True)
class CoincidenceGroup:
    """Samples of one physical point: members are (patch, iu, iv) triples."""

    members: tuple
    point: np.ndarray
    cls: int
    normal: np.ndarray | None  # shared unit normal for B/C groups
    t1: np.ndarray | None  # shared orthonormal tangent pair
    t2: np.ndarray | None

    @property
    def multiplicity(self) -> int:
        return len(self.members)


def full_size(n_patches: int, n: int) -> int:
    return 2 * n_patches * n * n


def full_to_grids(x, n_patches: int, n: int) -> np.ndarray:
    """Flat full vector -> (n_patches, n, n, 2) contravariant sample grids."""
    x = np.asarray(x)
    grids = x.reshape(n_patches, 2, n, n)
    return np.moveaxis(grids, 1, -1)


def grids_to_full(grids) -> np.ndarray:
    grids = np.asarray(grids)
    return np.moveaxis(grids, -1, 1).reshape(-1)


def _node_frames(surface: Surface, n: int):
    x = spectral.cc_nodes(n)
    uu, vv = np.meshgrid(x, x, indexing="ij")
    return [p.frames(uu.ravel(), vv.ravel()) for p in surface.patches]


def _edge_name(iu: int, iv: int, n: int) -> str:
    # closed Chebyshev nodes run from +1 down to -1, so index 0 is +1
    names = []
    if iv == n - 1:
        names.append("edge 0 (v=-1)")
    if iu == 0:
        names.append("edge 1 (u=+1)")
    if iv == 0:
        names.append("edge 2 (v=+1)")
    if iu == n - 1:
        names.append("edge 3 (u=-1)")
    return " and ".join(names)


def build_coincidence(surface: Surface, n: int, tol: float | None = None, require_closed: bool = True):
    """Partition all grid nodes into coincidence groups.

    Boundary nodes are matched spatially (quantized-coordinate hash followed
    by exact distance confirmation).  Interior nodes become singletons.  On a
    conforming closed surface every edge node pairs with exactly one partner
    and every corner node with 1..3 partners; a boundary node left alone is a
    conformity failure and is reported with its patch and edge.

    Args:
        tol: coincidence tolerance, default 1e-9 times the surface diameter.
        require_closed: when False, unpartnered boundary nodes are allowed
            and become singleton groups (open test fixtures).
    """
    if tol is None:
        tol = 1e-9 * max(surface.bounding_diameter(), 1e-30)
    frames = _node_frames(surface, n)
    m_patches = surface.n_patches

    classes = classify_points(surface, n)
    # hash only boundary nodes; interior nodes cannot legally coincide
    buckets: dict[tuple, list] = {}
    boundary = []
    for p in range(m_patches):
        pts = frames[p].point
        for iu in (0, n - 1):
            for iv in range(n):
                boundary.append((p, iu, iv))
        for iv in (0, n - 1):
            for iu in range(1, n - 1):
                boundary.append((p, iu, iv))
    for key in boundary:
        p, iu, iv = key
        q = tuple(np.round(frames[p].point[iu * n + iv] / tol).astype(np.int64))
        buckets.setdefault(q, []).append(key)

    def neighbors(q):
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    yield (q[0] + dx, q[1] + dy, q[2] + dz)

    assigned = {}
    groups_members = []
    for key in boundary:
        if key in assigned:
            continue
        p, iu, iv = key
        x0 = frames[p].point[iu * n + iv]
        q = tuple(np.round(x0 / tol).astype(np.int64))
        mem = []
        for nb in neighbors(q):
            for cand in buckets.get(nb, ()):  # exact distance confirmation
                cp, cu, cv = cand
                if cand in assigned:
                    continue
                xc = frames[cp].point[cu * n + cv]
                if np.abs(xc - x0).max() <= 4 * tol:
                    mem.append(cand)
        gid = len(groups_members)
        for cand in mem:
            assigned[cand] = gid
        groups_members.append(sorted(mem))

    groups = []
    for mem in groups_members:
        p0, iu0, iv0 = mem[0]
        cls = max(point_class(iu, iv, n) for _, iu, iv in mem)
        if len(mem) == 1:
            if require_closed:
                raise SurfaceError(
                    f"no coinciding partner for patch '{surface.labels[p0]}' "
                    f"{_edge_name(iu0, iv0, n)} node (iu={iu0}, iv={iv0}): "
                    "surface is non-conforming or not closed"
                )
        if cls == TYPE_B and len(mem) > 2:
            raise SurfaceError(
                f"edge node of patch '{surface.labels[p0]}' coincides with "
                f"{len(mem) - 1} partners; expected exactly one"
            )
        if cls == TYPE_C and len(mem) > 4:
            raise SurfaceError(
                f"corner node of patch '{surface.labels[p0]}' has multiplicity "
                f"{len(mem)}; at most 4 supported"
            )
        pts = np.stack([frames[p].point[iu * n + iv] for p, iu, iv in mem])
        rep = pts.mean(axis=0)
        nors = np.stack([frames[p].normal[iu * n + iv] for p, iu, iv in mem])
        nsh = nors.sum(axis=0)
        nsh /= np.linalg.norm(nsh)
        # tangent-plane continuity: all member normals must agree
        mis = np.abs(np.cross(nors, nsh)).max() if len(mem) > 1 else 0.0
        if mis > 1e-6:
            raise SurfaceError(
                f"normals disagree by {mis:.3e} rad at shared point "
                f"{rep.round(6).tolist()} (patch '{surface.labels[p0]}'): "
                "surface is not smooth there"
            )
        a_u0 = frames[p0].a_u[iu0 * n + iv0]
        t1 = a_u0 - (a_u0 @ nsh) * nsh
        t1 = t1 / np.linalg.norm(t1)
        t2 = np.cross(nsh, t1)
        groups.append(CoincidenceGroup(tuple(mem), rep, cls, nsh, t1, t2))

    # interior singletons, then deterministic global ordering
    for p in range(m_patches):
        for iu in range(1, n - 1):
            for iv in range(1, n - 1):
                x0 = frames[p].point[iu * n + iv]
                groups.append(CoincidenceGroup(((p, iu, iv),), x0, TYPE_A, None, None, None))
    groups.sort(key=lambda g: g.members[0])
    return groups


def frame_block(t1, t2, a_u, a_v):
    """Change-of-basis pair for one member patch at a shared point.

    Returns (expand, compress): expand turns shared-frame components (w1, w2)
    into the patch's contravariant pair, compress inverts it.  Writing
    A = [a_u a_v] and T = [t1 t2], compress C = T'A and expand B = (A'A)^-1 C',
    so C B = T' A (A'A)^-1 A' T = T' T = I whenever span(A) = span(T).
    The frame counts as degenerate when sin^2 of the angle between a_u and
    a_v, det g / (g_uu g_vv), is at most 1e-12, whatever the unit of length.
    """
    c = np.array([[t1 @ a_u, t1 @ a_v], [t2 @ a_u, t2 @ a_v]])
    g = np.array([[a_u @ a_u, a_u @ a_v], [a_v @ a_u, a_v @ a_v]])
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    if not det > 1e-12 * g[0, 0] * g[1, 1]:
        raise SurfaceError("degenerate tangent frame at a shared point")
    ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    expand = ginv @ c.T
    return expand, c


def _member_rows(p: int, iu: int, iv: int, n: int):
    base = p * 2 * n * n + iu * n + iv
    return base, base + n * n  # J^u row, J^v row


def build_projection(groups, surface: Surface, n: int) -> sparse.csr_matrix:
    """Expansion map P: unique vector -> full per-patch vector.

    Interior groups copy their contravariant pair through identity blocks;
    shared groups convert the orthonormal-frame pair into each member patch's
    contravariant components, so all members sample the same physical tangent
    vector.
    """
    frames = _node_frames(surface, n)
    rows, cols, vals = [], [], []
    for gid, grp in enumerate(groups):
        c0, c1 = 2 * gid, 2 * gid + 1
        for p, iu, iv in grp.members:
            ru, rv = _member_rows(p, iu, iv, n)
            if grp.cls == TYPE_A:
                rows += [ru, rv]
                cols += [c0, c1]
                vals += [1.0, 1.0]
                continue
            k = iu * n + iv
            expand, _ = frame_block(grp.t1, grp.t2, frames[p].a_u[k], frames[p].a_v[k])
            rows += [ru, ru, rv, rv]
            cols += [c0, c1, c0, c1]
            vals += [expand[0, 0], expand[0, 1], expand[1, 0], expand[1, 1]]
    shape = (full_size(surface.n_patches, n), 2 * len(groups))
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape)


def build_compression(groups, surface: Surface, n: int) -> sparse.csr_matrix:
    """Averaging map Q: full vector -> unique vector, row blocks sum to one.

    Each member's contravariant pair is converted back to the group frame and
    the conversions are averaged with equal weights 1/multiplicity, so Q P = I.
    """
    frames = _node_frames(surface, n)
    rows, cols, vals = [], [], []
    for gid, grp in enumerate(groups):
        r0, r1 = 2 * gid, 2 * gid + 1
        w = 1.0 / grp.multiplicity
        for p, iu, iv in grp.members:
            cu, cv = _member_rows(p, iu, iv, n)
            if grp.cls == TYPE_A:
                rows += [r0, r1]
                cols += [cu, cv]
                vals += [w, w]
                continue
            k = iu * n + iv
            _, compress = frame_block(grp.t1, grp.t2, frames[p].a_u[k], frames[p].a_v[k])
            rows += [r0, r0, r1, r1]
            cols += [cu, cv, cu, cv]
            vals += [w * compress[0, 0], w * compress[0, 1], w * compress[1, 0], w * compress[1, 1]]
    shape = (2 * len(groups), full_size(surface.n_patches, n))
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape)


def edge_normal_jump(density, surface: Surface, n: int) -> float:
    """Worst tangential-continuity violation across shared edges.

    For every adjacency record and every grid node on the shared edge, the
    density's Cartesian vector on each side is dotted with the in-plane edge
    normal; the return value is the largest magnitude of the difference.
    Densities in the image of the expansion map give zero to rounding.
    """
    grids = full_to_grids(density, surface.n_patches, n)
    t = spectral.cc_nodes(n)
    worst = 0.0
    for m in surface.adjacency:
        ua, va = edge_uv(m.edge_a, t)
        ub, vb = edge_uv(m.edge_b, t[::-1] if m.flipped else t)
        fa = surface.patches[m.patch_a].frames(ua, va)
        fb = surface.patches[m.patch_b].frames(ub, vb)
        ja = _edge_vectors(grids[m.patch_a], m.edge_a, n, fa, flipped=False)
        jb = _edge_vectors(grids[m.patch_b], m.edge_b, n, fb, flipped=m.flipped)
        e = _edge_normal(fa, m.edge_a)
        jump = np.abs(np.einsum("ic,ic->i", ja - jb, e))
        worst = max(worst, float(jump.max()))
    return worst


def _edge_indices(edge: int, n: int, flipped: bool):
    # node index j carries parameter cc_nodes[j], descending from +1 to -1
    idx = np.arange(n)
    if flipped:
        idx = idx[::-1]
    last = np.full(n, n - 1)
    zero = np.zeros(n, dtype=int)
    if edge == 0:  # v = -1
        return idx, last
    if edge == 1:  # u = +1
        return zero, idx
    if edge == 2:  # v = +1
        return idx, zero
    return last, idx  # u = -1


def _edge_vectors(grid, edge: int, n: int, fr, flipped: bool):
    iu, iv = _edge_indices(edge, n, flipped)
    comp = grid[iu, iv]  # (n, 2) contravariant samples along the edge
    return comp[:, 0, None] * fr.a_u + comp[:, 1, None] * fr.a_v


def _edge_normal(fr, edge: int):
    # unit in-plane normal to the edge, Gram-Schmidt against the edge tangent
    along_v = edge in (1, 3)
    tang = fr.a_v if along_v else fr.a_u
    out = fr.a_u if along_v else fr.a_v
    that = tang / np.linalg.norm(tang, axis=1, keepdims=True)
    e = out - np.einsum("ic,ic->i", out, that)[:, None] * that
    return e / np.linalg.norm(e, axis=1, keepdims=True)
