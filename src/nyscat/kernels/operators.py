"""Discretized surface integral operators for PEC scattering.

Two grid flavors share one quadrature strategy.  The closed (endpoint) grids
carry the continuity-enforced electric-field operator: densities live in a
reduced space of unique point values, expanded by P before evaluation and
compressed by Q afterwards.  The open (interior-node) grids carry the
baseline electric-field variant without continuity and the magnetic-field
operator.

Both operators assemble their kernel matrices one way.  The plain tensor
rule gives every (target, source node) entry from the one formula per
kernel in green.py; then every (target, patch) block that needs a better
rule is overwritten by its corrected row.  On-patch targets use fan
quadrature around the target node, targets within a small fraction of the
patch diameter use fan rows around the nearest preimage, and targets in a
middle annulus integrate an oversampled interpolant.  One pass lists and
computes these blocks for either kernel.  A target that coincides, or
nearly coincides, with a source node lies on or next to that node's patch,
so its block is an on-patch or fan block and its plain value is always
replaced: the plain rule needs no distance threshold, only a guard that
keeps an exact r = 0 from dividing by zero.  The scalar potential's outer
gradient acts on surface samples only (spectral tangential gradient), so no
strongly singular kernel ever appears.

Fan and oversampled rows are shared across congruent patches.  A row depends
only on what a rigid motion preserves (distances to the patch, its surface
measure and its cardinal basis), so during one build patches are grouped into
classes of proper congruence and each row is computed once per distinct
(zone, class, target position in the patch's own frame).  Gradient rows are
stored in the patch frame and rotated back for each use.

On-patch rows are computed per (patch, node), in node-major order: for each
node, every patch.  Their fan apex is the node itself, the same parameter
point on every patch, so each ladder level's rule and cardinal rows are built
once per node and shared through a FanLevels cache; what remains per row is
one frame and kernel evaluation and one matrix product per level.  Every
ladder that runs out without meeting its tolerance is counted in
build_stats["unconverged_rows"].

The electric-field matvec is C S B.  The grid's sparse source map B takes
the unknowns to the Cartesian current and its surface divergence at every
source node, an (M S, 4) block; one dense product with S gives the vector
and scalar potentials at every target; the sparse target map C gathers
them back to the nodes, adds the spectral surface gradient over k^2, takes
ik eta n x, the contravariant components and Q.  B and C are assembled
once per operator from the node frames, the differentiation matrix and the
continuity maps, with O(n) entries per row.  The magnetic-field operator
reads its Cartesian current from the rows of the same B.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from nyscat import spectral, topology
from nyscat.geometry import MediumParams, Surface
from nyscat.geometry.patches import Frames
from nyscat.kernels.green import green, green_gradient
from nyscat.kernels.singular import FanLevels, nearest_preimage, weights_on_patch

__all__ = [
    "OperatorConfig",
    "surface_divergence",
    "EfieOperator",
    "MfieOperator",
]

CLOSED = "closed-continuity"
OPEN = "open-no-continuity"

# zoning, against fractions of the source patch's diameter: fan rows inside
# _FAN_THRESHOLD, oversampled rows out to _NEAR_THRESHOLD, plain rule beyond
_FAN_THRESHOLD = 0.1
_NEAR_THRESHOLD = 0.45
_REFINE_FACTOR = 2  # fine-grid growth per oversampling level
_MAX_LEVELS = 4  # oversampling levels
_QUAD_TOL = 1e-12  # ladder stopping step, relative to max(1, max |weight|)
_CHUNK = 256  # target rows per dense-assembly block
_CONGRUENT = 1e-12  # shape and position match, relative to the patch diameter
_BUCKET = 1e-8  # key resolution of patch-frame target positions, same unit
# parameter points no symmetry of the square maps onto themselves, so two
# patches agreeing on them (and on their nodes) share one parametrization
_PROBE_UV = np.array([[0.31, -0.74], [-0.58, 0.23], [0.87, 0.46],
                      [-0.12, -0.93], [0.64, 0.81]])


@dataclass(frozen=True)
class OperatorConfig:
    """Grid variant: CLOSED (continuity-enforced) or OPEN (no continuity)."""

    variant: str = CLOSED

    def __post_init__(self):
        if self.variant not in (CLOSED, OPEN):
            raise ValueError(f"unknown variant {self.variant!r}")


def _grid_nodes(n: int, kind: str):
    if kind == "closed":
        return spectral.cc_nodes(n), spectral.cc_weights(n)
    return spectral.fejer_nodes(n), spectral.fejer_weights(n)


def _node_frames(surface: Surface, nodes) -> Frames:
    """Every patch's frames at the tensor nodes, stacked as (M, S, ...) arrays."""
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    frs = [p.frames(uu.ravel(), vv.ravel()) for p in surface.patches]
    return Frames(*(np.stack([getattr(f, a) for f in frs])
                    for a in ("point", "a_u", "a_v")))


def _chunks(count: int):
    return [(lo, min(lo + _CHUNK, count)) for lo in range(0, count, _CHUNK)]


def _min_node_distances(targets, points) -> np.ndarray:
    """Minimum distance from each target to each patch's node cloud, (T, M).

    points: (M, S, 3) node points per patch.
    """
    out = np.empty((targets.shape[0], points.shape[0]))
    for p, pts in enumerate(points):
        for lo, hi in _chunks(targets.shape[0]):
            diff = targets[lo:hi, None, :] - pts[None, :, :]
            out[lo:hi, p] = np.sqrt(np.einsum("tsc,tsc->ts", diff, diff)).min(axis=1)
    return out


def _zone_pairs(grid):
    """Fan and oversample (target, patch) pairs, excluding on-patch pairs."""
    dmin = _min_node_distances(grid.target_points, grid.frames.point)
    # node clouds only over-estimate the true distance; widen the bands by
    # half the coarsest node gap so borderline pairs get the better rule
    slack = 0.5 * np.pi / (2 * (grid.n - 1))
    fan_cut = (_FAN_THRESHOLD + slack) * grid.diameters
    near_cut = (_NEAR_THRESHOLD + slack) * grid.diameters
    on_sets = grid.on_patch_sets()
    fan_pairs, mid_pairs = [], []
    for t, row in enumerate(dmin):
        for p in np.nonzero(row < near_cut)[0]:
            p = int(p)
            if p in on_sets[t]:
                continue
            (fan_pairs if row[p] < fan_cut[p] else mid_pairs).append((t, p))
    return fan_pairs, mid_pairs


def _node_apex(nodes, node: int):
    n = len(nodes)
    return float(nodes[node // n]), float(nodes[node % n])


def _onpatch_rows(grid, pairs, kernel, zero_components=()):
    """Fan rows of on-patch (target, patch, flat node) pairs, and ladder misses.

    kernel(t, x) is the integrand weights_on_patch takes, (points, normals)
    -> values, for target t placed at x, the node itself on patch p.
    zero_components lists the components of the target node's own entry
    that are zeroed (weights_on_patch's zero_entries).  Rows are stacked in
    the order of pairs but computed node-major, so consecutive rows share
    their apex and its fan levels.
    """
    rows = [None] * len(pairs)
    levels, misses = FanLevels(), 0
    for i in sorted(range(len(pairs)), key=lambda i: (pairs[i][2], pairs[i][1])):
        t, p, node = pairs[i]
        rows[i], ok = weights_on_patch(
            grid.surface.patches[p], grid.nodes, kernel(t, grid.frames.point[p, node]),
            _node_apex(grid.nodes, node), tol=_QUAD_TOL, levels=levels,
            zero_entries=tuple((node, c) for c in zero_components))
        misses += not ok
    return np.array(rows), misses


def _fine_level(patch, m: int):
    """Points, normals and weighted Jacobians on patch's m x m CC grid."""
    g = spectral.cc_nodes(m)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    fr = patch.frames(uu.ravel(), vv.ravel())
    w2 = np.outer(spectral.cc_weights(m), spectral.cc_weights(m)).ravel()
    return fr.point, fr.normal, w2 * fr.jac


def _oversample_rows(fine, kernel, nodes):
    """Weights against the coarse basis via kernel quadrature on fine grids.

    fine(m) gives _fine_level of the patch for an m x m grid.  Returns
    (weights, converged), as weights_on_patch does: converged is False when
    the last refinement still moved a weight by more than 10 _QUAD_TOL
    (relative to max(1, max |weight|)).
    """
    n = len(nodes)
    prev = None
    for lvl in range(1, _MAX_LEVELS + 1):
        m = n * _REFINE_FACTOR**lvl
        pts, nrm, wjac = fine(m)
        vals = np.asarray(kernel(pts, nrm))
        r1 = spectral.interp_matrix(np.asarray(nodes), spectral.cc_nodes(m))
        if vals.ndim == 1:
            f = (vals * wjac).reshape(m, m)
            cur = np.einsum("fa,gb,fg->ab", r1, r1, f).reshape(-1)
        else:
            f = (vals * wjac[:, None]).reshape(m, m, -1)
            cur = np.einsum("fa,gb,fgx->abx", r1, r1, f).reshape(n * n, -1)
        if prev is not None:
            scale = max(1.0, float(np.abs(cur).max()))
            if float(np.abs(cur - prev).max()) <= 10 * _QUAD_TOL * scale:
                return cur, True
        prev = cur
    return prev, False


class _CongruentRows:
    """Fan and oversampled rows shared across congruent patches.

    Each patch gets a rigid frame: origin x(0,0) and axes a_u, a_v
    orthogonalised against a_u, and their cross product.  Patches whose
    diameters, node clouds and probe points agree in their own frames to
    _CONGRUENT x diameter form one class; the frames are right-handed, so a
    mirror image forms its own class.  A row is keyed by zone, class and the
    target's patch-frame position bucketed at _BUCKET x diameter, and a hit
    also needs the stored position within _CONGRUENT x diameter.  Vector rows
    (kernel gradients) are stored in the patch frame and rotated back on use.
    A table lives for one build only, and so does its cache of oversampled
    patch grids.  Computed rows whose ladder ran out are counted in
    unconverged.
    """

    def __init__(self, grid, k):
        self.grid, self.k = grid, k
        m = grid.surface.n_patches
        self.origin = np.empty((m, 3))
        self.rot = np.empty((m, 3, 3))  # rows: the frame axes
        self.cls = np.empty(m, dtype=np.int64)
        self.scale = np.empty(m)  # diameter of the class representative
        reps = []  # (diameter, patch-frame cloud) per class
        uv = np.vstack([[0.0, 0.0], _PROBE_UV])
        for p, patch in enumerate(grid.surface.patches):
            fr = patch.frames(uv[:, 0], uv[:, 1])
            e1 = fr.a_u[0] / np.linalg.norm(fr.a_u[0])
            e2 = fr.a_v[0] - (fr.a_v[0] @ e1) * e1
            e2 /= np.linalg.norm(e2)
            rot = np.stack([e1, e2, np.cross(e1, e2)])
            cloud = np.concatenate([grid.frames.point[p], fr.point[1:]])
            local = (cloud - fr.point[0]) @ rot.T
            diam = grid.diameters[p]
            tol = _CONGRUENT * diam
            for c, (dc, lc) in enumerate(reps):
                if abs(dc - diam) <= tol and np.abs(local - lc).max() <= tol:
                    break
            else:
                c = len(reps)
                reps.append((diam, local))
            self.origin[p], self.rot[p] = fr.point[0], rot
            self.cls[p], self.scale[p] = c, reps[c][0]
        self.n_classes = len(reps)
        self.table = {}
        self.fine = {}  # (patch, m) -> _fine_level
        self.requested = {"fan": 0, "mid": 0}
        self.computed = {"fan": 0, "mid": 0}
        self.unconverged = 0

    def _fine(self, p: int, m: int):
        if (p, m) not in self.fine:
            self.fine[p, m] = _fine_level(self.grid.surface.patches[p], m)
        return self.fine[p, m]

    def row(self, zone: str, x_t, p: int, kernel):
        """Weights of kernel(x_t, y, k) times the cardinal basis over patch p.

        zone is "fan" (fan rule around the nearest preimage) or "mid"
        (oversampled interpolant); kernel is green or green_gradient.
        """
        rot, scale = self.rot[p], self.scale[p]
        local = rot @ (x_t - self.origin[p])
        cell = np.rint(local / (_BUCKET * scale)).astype(np.int64)
        key = (zone, int(self.cls[p]), *cell.tolist())
        self.requested[zone] += 1
        hit = self.table.get(key)
        if hit is not None and np.abs(hit[0] - local).max() <= _CONGRUENT * scale:
            return hit[1] @ rot if hit[1].ndim == 2 else hit[1]
        g, k = self.grid, self.k
        patch = g.surface.patches[p]
        if zone == "fan":
            u0, v0, dist = nearest_preimage(patch, x_t)
            row, ok = weights_on_patch(patch, g.nodes,
                                       lambda pts, nrm: kernel(x_t, pts, k), (u0, v0),
                                       tol=_QUAD_TOL, peak=dist / (0.5 * g.diameters[p]))
        else:
            row, ok = _oversample_rows(lambda m: self._fine(p, m),
                                       lambda pts, nrm: kernel(x_t, pts, k), g.nodes)
        self.computed[zone] += 1
        self.unconverged += not ok
        if hit is None:
            self.table[key] = (local, row @ rot.T if row.ndim == 2 else row)
        return row

    def stats(self, onpatch_rows: int, onpatch_misses: int) -> dict:
        """Build counters: congruence classes, rows requested and computed,
        and computed rows (on-patch ones included) whose ladder ran out."""
        out = {"classes": self.n_classes, "onpatch_rows": onpatch_rows}
        for zone in ("fan", "mid"):
            out[f"{zone}_rows"] = self.requested[zone]
            out[f"{zone}_rows_computed"] = self.computed[zone]
        out["unconverged_rows"] = onpatch_misses + self.unconverged
        return out


def _corrected_rows(grid, k, kernel, onpatch_kernel, zero_components=()):
    """The corrected (target, patch) blocks of one kernel, and build stats.

    On-patch pairs come from grid.on_patch_pairs(), their rows from
    _onpatch_rows with onpatch_kernel and zero_components.  Fan and mid
    pairs come from _zone_pairs, their rows of kernel (green or
    green_gradient) from _CongruentRows.  Returns the on-patch (target,
    patch) pairs, their stacked rows, the fan and mid pairs, a list of their
    rows and the build_stats dict.
    """
    on = grid.on_patch_pairs()
    on_rows, misses = _onpatch_rows(grid, on, onpatch_kernel, zero_components)
    table = _CongruentRows(grid, k)
    near, near_rows = [], []
    for zone, pairs in zip(("fan", "mid"), _zone_pairs(grid)):
        for t, p in pairs:
            near.append((t, p))
            near_rows.append(table.row(zone, grid.target_points[t], p, kernel))
    stats = table.stats(len(on), misses)
    return [(t, p) for t, p, _ in on], on_rows, near, near_rows, stats


class _Corrected:
    """Corrected rows of (target, patch) pairs, written over plain-rule blocks.

    rows[i], (S,) or (S, c), replaces the entries of target t[i] against the
    S source nodes of patch p[i].
    """

    def __init__(self, pairs, rows):
        self.t = np.array([t for t, _ in pairs], dtype=np.int64)
        self.p = np.array([p for _, p in pairs], dtype=np.int64)
        self.rows = rows

    def write(self, block, lo: int):
        """Overwrite the held pairs in block, whose rows are targets lo, lo + 1, ...

        block is (targets, M S) or (targets, M S, c), C-ordered.
        """
        sel = (self.t >= lo) & (self.t < lo + block.shape[0])
        view = block.reshape(block.shape[0], -1, self.rows.shape[1], *block.shape[2:])
        view[self.t[sel] - lo, self.p[sel]] = self.rows[sel]


def _plain_block(kernel, grid, k, lo: int, hi: int) -> np.ndarray:
    """Plain-rule kernel values times source weights, targets lo:hi by all nodes.

    kernel (green or green_gradient) is evaluated on the difference vectors,
    giving (c, M S) or (c, M S, 3).  A pair at r == 0 exactly is an on-patch
    pair, whose entry its corrected row always overwrites, so its difference
    is replaced by a unit-scale vector only to keep the kernel finite.
    """
    d = grid.target_points[lo:hi, None, :] - grid.src_points[None, :, :]
    d[~d.any(axis=-1)] = 1.0
    vals = kernel(d, 0.0, k)
    return vals * (grid.src_wjac[:, None] if vals.ndim == 3 else grid.src_wjac)


def _divergence_grids(grids, jac, diff):
    """(M, n, n, 2) contravariant samples -> (M, n, n) surface divergence."""
    fu = jac * grids[..., 0]
    fv = jac * grids[..., 1]
    du = np.einsum("ab,mbv->mav", diff, fu)
    dv = np.einsum("ab,mub->mua", diff, fv)
    return (du + dv) / jac


def surface_divergence(density, surface: Surface, n: int, kind: str = "closed"):
    """Surface divergence of a concatenated contravariant sample vector.

    density follows the unknown layout (per patch: all u components, then
    all v components); returns per-patch scalar grids (M, n, n) of
    (1/sqrt g) d_i (sqrt g J^i) via spectral differentiation.
    """
    nodes, _ = _grid_nodes(n, kind)
    grids = topology.full_to_grids(np.asarray(density, dtype=complex),
                                   surface.n_patches, n)
    jac = _node_frames(surface, nodes).jac.reshape(-1, n, n)
    return _divergence_grids(grids, jac, spectral.diff_matrix(nodes))


class _Grid:
    """Node data, quadrature weights and (closed) continuity maps.

    frames stacks every patch's node frames as (M, S, 3) arrays, so the
    per-node geometry of a field map is one batched expression.
    """

    def __init__(self, surface: Surface, n: int, kind: str):
        self.surface = surface
        self.n = n
        self.kind = kind
        self.nodes, w1 = _grid_nodes(n, kind)
        self.diff = spectral.diff_matrix(self.nodes)
        self.frames = _node_frames(surface, self.nodes)
        self.diameters = surface.patch_diameters()
        self.src_points = self.frames.point.reshape(-1, 3)
        self.src_wjac = (np.outer(w1, w1).ravel() * self.frames.jac).ravel()
        self.jac_grids = self.frames.jac.reshape(-1, n, n)
        m, s = surface.n_patches, n * n
        if kind == "closed":
            self.groups = topology.build_coincidence(surface, n)
            self.P = topology.build_projection(self.groups, surface, n)
            self.Q = topology.build_compression(self.groups, surface, n)
            self.member_of = np.empty((m, s), dtype=np.int64)
            for gid, grp in enumerate(self.groups):
                for p, iu, iv in grp.members:
                    self.member_of[p, iu * n + iv] = gid
            self.target_points = np.stack([g.point for g in self.groups])
        else:
            self.groups = None
            self.P = self.Q = None
            self.member_of = np.arange(m * s).reshape(m, s)
            self.target_points = self.src_points
        self.source = _source_map(self)

    @property
    def n_targets(self):
        return self.target_points.shape[0]

    @property
    def n_unknowns(self):
        if self.kind == "closed":
            return 2 * len(self.groups)
        return 2 * self.surface.n_patches * self.n**2

    def on_patch_pairs(self):
        """(target, patch, flat node) for targets lying on the node grids."""
        if self.kind == "closed":
            return [(t, p, iu * self.n + iv)
                    for t, grp in enumerate(self.groups)
                    for p, iu, iv in grp.members]
        s = self.n * self.n
        return [(t, t // s, t % s) for t in range(self.n_targets)]

    def on_patch_sets(self):
        on = [set() for _ in range(self.n_targets)]
        for t, p, _ in self.on_patch_pairs():
            on[t].add(p)
        return on

    def target_normals(self):
        if self.kind == "open":
            return self.frames.normal.reshape(-1, 3)
        out = np.empty((self.n_targets, 3))
        for t, grp in enumerate(self.groups):
            if grp.normal is not None:
                out[t] = grp.normal
            else:
                p, iu, iv = grp.members[0]
                out[t] = self.frames.normal[p, iu * self.n + iv]
        return out

    def expand(self, x):
        return self.P @ x if self.kind == "closed" else np.asarray(x, dtype=complex)

    def compress(self, full):
        return self.Q @ full if self.kind == "closed" else full

    def cartesian_from_grids(self, grids):
        """(M, n, n, 2) contravariant samples -> (M, S, 3) Cartesian.

        The per-vector form of the Cartesian rows of source, kept as the
        staged reference that the sparse map is tested against.
        """
        flat = grids.reshape(self.surface.n_patches, self.n**2, 2)
        return self.frames.tangential_from_contravariant(flat[..., 0], flat[..., 1])

    def full_from_cartesian(self, vec):
        """(M, S, 3) tangential Cartesian field -> flat contravariant vector."""
        ju, jv = self.frames.contravariant_from_cartesian(vec)
        grids = np.stack([ju, jv], axis=-1).reshape(-1, self.n, self.n, 2)
        return topology.grids_to_full(grids)

    def surface_gradient(self, phi_full):
        """Scalar node samples (M, S) -> tangential gradient (M, S, 3).

        The per-vector form of the gradient inside the EFIE target map,
        kept as the staged reference that the sparse map is tested against.
        """
        m, n = self.surface.n_patches, self.n
        phi = phi_full.reshape(m, n, n)
        du = np.einsum("ab,mbv->mav", self.diff, phi).reshape(m, n * n)
        dv = np.einsum("ab,mub->mua", self.diff, phi).reshape(m, n * n)
        gi = self.frames.ginv
        gu = gi[..., 0, 0] * du + gi[..., 0, 1] * dv
        gv = gi[..., 1, 0] * du + gi[..., 1, 1] * dv
        return self.frames.tangential_from_contravariant(gu, gv)

    def sample(self, fn):
        """fn at every node point, ((M*S, 3) points -> values) as (M, S, 3)."""
        pts = self.frames.point
        return np.asarray(fn(pts.reshape(-1, 3))).reshape(pts.shape)

    def project(self, vec):
        """(M, S, 3) tangential Cartesian node field -> unknown vector."""
        return self.compress(self.full_from_cartesian(vec))


def _source_map(grid: _Grid):
    """Sparse B: unknowns -> (M*S, 4) source samples, flattened row-major.

    Row 4 (p S + s) + c holds, at node s of patch p, the Cartesian
    current component c < 3 (J^u a_u + J^v a_v) and, at c = 3, the
    surface divergence (1/sqrt g)(d_u (sqrt g J^u) + d_v (sqrt g J^v))
    by spectral differentiation along the node's grid lines.  A row
    holds at most 2n full-vector entries, and P maps each to at most two
    unknowns.
    """
    m, n, s = grid.surface.n_patches, grid.n, grid.n**2
    full = np.arange(2 * m * s).reshape(m, 2, n, n)  # (patch, comp, iu, iv)
    first = 4 * np.arange(m * s).reshape(m, n, n)
    fr, jac, d = grid.frames, grid.jac_grids, grid.diff
    cart_rows = first.reshape(m, s, 1) + np.arange(3)
    shape4 = (m, n, n, n)  # (patch, iu, iv, b): b runs along a grid line
    du_cols = full[:, 0].transpose(0, 2, 1)[:, None]  # node (b, iv)
    dv_cols = full[:, 1][:, :, None]  # node (iu, b)
    du_vals = d[None, :, None, :] * jac.transpose(0, 2, 1)[:, None] / jac[..., None]
    dv_vals = d[None, None] * jac[:, :, None] / jac[..., None]
    div_rows = np.broadcast_to(first[..., None] + 3, shape4)
    rows = [cart_rows, cart_rows, div_rows, div_rows]
    cols = [np.broadcast_to(full[:, c].reshape(m, s, 1), (m, s, 3)) for c in (0, 1)]
    cols += [np.broadcast_to(du_cols, shape4), np.broadcast_to(dv_cols, shape4)]
    vals = [fr.a_u, fr.a_v, du_vals, dv_vals]
    b = sparse.csr_matrix(
        (np.concatenate([v.ravel() for v in vals]).astype(complex),
         (np.concatenate([r.ravel() for r in rows]),
          np.concatenate([c.ravel() for c in cols]))),
        shape=(4 * m * s, 2 * m * s))
    return b @ grid.P if grid.kind == "closed" else b


def _target_map(grid: _Grid, k: float, eta: float):
    """Sparse C: flat (T, 4) potentials (A, phi) -> unknowns.

    At node s of patch p it gathers the potentials of the node's target
    (member_of) and forms ik eta n x (A + grad phi / k^2), the gradient
    by spectral differentiation along the node's grid lines, in
    contravariant components; Q then averages over coinciding nodes.  A
    full-vector row holds 3 + (2n - 1) entries.
    """
    m, n, s = grid.surface.n_patches, grid.n, grid.n**2
    fr, d = grid.frames, grid.diff
    scale = 1j * k * eta
    # R = g^-1 [a_u x n; a_v x n]: contravariant components of n x v
    tang = np.stack([fr.a_u, fr.a_v], axis=-2)  # (M, S, 2, 3)
    r = fr.ginv @ np.cross(tang, fr.normal[:, :, None])
    # R A g^-1 sends the (d_u, d_v) derivatives of phi to n x grad phi
    r_grad = r @ np.swapaxes(tang, -1, -2) @ fr.ginv
    rows = np.arange(2 * m * s).reshape(m, 2, n, n)
    target = 4 * grid.member_of.reshape(m, n, n)
    shape5 = (m, 2, n, n, n)  # (patch, comp, iu, iv, b)
    a_rows = np.broadcast_to(rows.reshape(m, 2, s, 1), (m, 2, s, 3))
    a_cols = np.broadcast_to(target.reshape(m, 1, s, 1) + np.arange(3), (m, 2, s, 3))
    a_vals = scale * np.swapaxes(r, 1, 2)
    grad = (scale / k**2) * np.moveaxis(r_grad, 2, 1).reshape(m, 2, n, n, 2)
    phi_rows = np.broadcast_to(rows[..., None], shape5)
    du_cols = np.broadcast_to(target.transpose(0, 2, 1)[:, None, None] + 3, shape5)
    dv_cols = np.broadcast_to(target[:, None, :, None] + 3, shape5)
    du_vals = grad[..., 0, None] * d[:, None, :]
    dv_vals = grad[..., 1, None] * d[None]
    c = sparse.csr_matrix(
        (np.concatenate([a_vals.ravel(), du_vals.ravel(), dv_vals.ravel()]),
         (np.concatenate([a_rows.ravel(), phi_rows.ravel(), phi_rows.ravel()]),
          np.concatenate([a_cols.ravel(), du_cols.ravel(), dv_cols.ravel()]))),
        shape=(2 * m * s, 4 * grid.n_targets))
    return grid.Q @ c if grid.kind == "closed" else c


class _GridOperator:
    """What both field operators share: a _Grid and its unknown vector."""

    grid: _Grid

    @property
    def n_unknowns(self) -> int:
        return self.grid.n_unknowns

    def _unknowns(self, x):
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.n_unknowns,):
            raise ValueError(f"expected vector of length {self.n_unknowns}")
        return x

    def cartesian_current(self, x):
        """Unknown vector -> (M, S, 3) Cartesian current samples at nodes."""
        g = self.grid
        return (g.source @ x).reshape(g.surface.n_patches, g.n**2, 4)[..., :3]


def _single_layer_matrix(grid: _Grid, k: float):
    """Corrected single-layer matrix S, (T, M S), and its build_stats."""
    on, on_rows, near, near_rows, stats = _corrected_rows(
        grid, k, green, lambda t, x: lambda pts, nrm: green(x, pts, k))
    fix = _Corrected(on + near, np.concatenate(
        [on_rows, np.reshape(near_rows, (-1, grid.n**2))]))
    mat = np.empty((grid.n_targets, grid.src_points.shape[0]), dtype=complex)
    for lo, hi in _chunks(grid.n_targets):
        mat[lo:hi] = _plain_block(green, grid, k, lo, hi)
    fix.write(mat, 0)
    return mat, stats


class EfieOperator(_GridOperator):
    """Tangential electric-field map T J = ik eta n x (A + grad phi / k^2).

    variant closed-continuity: unknowns are unique point values and the map
    composes Q (field stages) P.  variant open-no-continuity: unknowns are
    raw per-patch samples on the interior-node grid.

    apply is C @ (S @ (B @ x).reshape(M*S, 4)).ravel(): the grid's sparse
    source map B gives the Cartesian current and its divergence at every
    source node, one dense product with S gives the vector and scalar
    potentials at every target, and the sparse target map C takes them back
    to the unknowns.  S is the plain-rule G block with its corrected blocks
    overwritten.
    """

    def __init__(self, surface: Surface, n: int, medium: MediumParams,
                 config: OperatorConfig | None = None):
        self.config = config or OperatorConfig()
        kind = "closed" if self.config.variant == CLOSED else "open"
        self.grid = _Grid(surface, n, kind)
        self.medium = medium
        self.k = medium.wavenumber
        self.eta = medium.impedance
        self.S, self.build_stats = _single_layer_matrix(self.grid, self.k)
        self.target_map = _target_map(self.grid, self.k, self.eta)

    def apply(self, x):
        y = self.grid.source @ self._unknowns(x)
        return self.target_map @ (self.S @ y.reshape(-1, 4)).ravel()

    def rhs(self, field_fn):
        """Project -n x E_inc onto the unknown space."""
        g = self.grid
        return g.project(-np.cross(g.frames.normal, g.sample(field_fn)))


class MfieOperator(_GridOperator):
    """Magnetic-field map M J = J/2 - n x pv-integral(grad G x J).

    The kernel splits as grad G (n_t . J) minus (n_t . grad G) J; both
    factors act weakly singularly on tangential densities once the target's
    own cardinal is removed from the first family (its density factor
    n(x) . J(x) vanishes identically).  Runs on either grid variant; the
    open grid is the reference configuration.

    w3 is the plain-rule grad-G block with its corrected blocks overwritten,
    and k4 = w3 . n_t with its on-patch blocks overwritten by the
    normal-projected on-patch rows, which keep the target's own entry.
    Both are stored when 4 T M S complex numbers fit mem_budget bytes;
    otherwise apply rebuilds them per _CHUNK target rows from the stored
    corrected rows.
    """

    def __init__(self, surface: Surface, n: int, medium: MediumParams,
                 config: OperatorConfig | None = None, mem_budget: float = 2.0e9):
        self.config = config or OperatorConfig(variant=OPEN)
        kind = "closed" if self.config.variant == CLOSED else "open"
        self.grid = _Grid(surface, n, kind)
        self.medium = medium
        self.k = medium.wavenumber
        self.eta = medium.impedance
        g, k = self.grid, self.k
        nt = self._tnormals = g.target_normals()

        def onpatch_kernel(t, x):  # the target's point, which its normal belongs to
            def kern(pts, nrm):
                gr = green_gradient(g.target_points[t], pts, k)
                return np.concatenate([gr, gr @ nt[t][:, None]], axis=1)
            return kern

        # the target cardinal is excluded from the gradient family: its
        # density factor n(x).J(x) is identically zero and the integral
        # diverges; the normal-projected component stays weakly singular
        on, on_rows, near, near_rows, self.build_stats = _corrected_rows(
            g, k, green_gradient, onpatch_kernel, zero_components=(0, 1, 2))
        self._grad = _Corrected(on + near, np.concatenate(
            [on_rows[..., :3], np.reshape(near_rows, (-1, n * n, 3))]))
        self._normal = _Corrected(on, on_rows[..., 3])
        shape = (g.n_targets, g.src_points.shape[0])
        self.materialized = 4 * shape[0] * shape[1] * 16 <= mem_budget
        if self.materialized:
            self._w3 = np.empty(shape + (3,), dtype=complex)
            self._k4 = np.empty(shape, dtype=complex)
            for lo, hi in _chunks(g.n_targets):
                self._w3[lo:hi], self._k4[lo:hi] = self._blocks(lo, hi)

    def _blocks(self, lo, hi):
        """Corrected w3 and k4 rows of targets lo:hi."""
        w3 = _plain_block(green_gradient, self.grid, self.k, lo, hi)
        self._grad.write(w3, lo)
        k4 = np.einsum("tsc,tc->ts", w3, self._tnormals[lo:hi])
        self._normal.write(k4, lo)
        return w3, k4

    def _integral(self, j_flat):
        """term1 - term2 at all targets for Cartesian samples (MS, 3)."""
        nt = self._tnormals
        out = np.empty((self.grid.n_targets, 3), dtype=complex)
        for lo, hi in _chunks(self.grid.n_targets):
            if self.materialized:
                w3, k4 = self._w3[lo:hi], self._k4[lo:hi]
            else:
                w3, k4 = self._blocks(lo, hi)
            q = nt[lo:hi] @ j_flat.T  # target normal dot each source sample
            out[lo:hi] = np.einsum("tsc,ts->tc", w3, q) - k4 @ j_flat
        return out

    def apply(self, x):
        x = self._unknowns(x)
        g = self.grid
        integ = self._integral(self.cartesian_current(x).reshape(-1, 3))
        field = -integ[g.member_of]  # (M, S, 3)
        return x / 2.0 + g.compress(g.full_from_cartesian(field))

    def rhs(self, hfield_fn):
        """Project n x H_inc onto the unknown space."""
        g = self.grid
        return g.project(np.cross(g.frames.normal, g.sample(hfield_fn)))
