"""Discretized surface integral operators for PEC scattering.

Two grid flavors share one quadrature strategy.  The closed (endpoint) grids
carry the continuity-enforced electric-field operator: densities live in a
reduced space of unique point values, expanded by P before evaluation and
compressed by Q afterwards.  The open (interior-node) grids carry the
baseline electric-field variant without continuity and the magnetic-field
operator.

Every potential evaluation splits source patches into zones per target:
on-patch targets use precomputed fan-quadrature rows, targets within a small
fraction of the patch diameter use fan rows around the nearest preimage,
targets in a middle annulus integrate an oversampled interpolant, and
everything else uses the plain tensor rule.  The scalar potential's outer
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
    "SingularCorrection",
    "precompute_singular",
    "single_layer",
    "surface_divergence",
    "EfieOperator",
    "MfieOperator",
    "efie_forward",
    "efie_forward_open",
    "mfie_forward",
]

CLOSED = "closed-continuity"
OPEN = "open-no-continuity"

_CHUNK = 256  # target rows per dense-assembly block
_COINCIDENT = 1e-14  # below this separation a pair counts as the same point
_CONGRUENT = 1e-12  # shape and position match, relative to the patch diameter
_BUCKET = 1e-8  # key resolution of patch-frame target positions, same unit
# parameter points no symmetry of the square maps onto themselves, so two
# patches agreeing on them (and on their nodes) share one parametrization
_PROBE_UV = np.array([[0.31, -0.74], [-0.58, 0.23], [0.87, 0.46],
                      [-0.12, -0.93], [0.64, 0.81]])


@dataclass(frozen=True)
class OperatorConfig:
    """Quadrature zoning and refinement controls.

    Distances are measured from the target to the source patch and compared
    against fractions of that patch's diameter: fan corrections inside
    fan_threshold, oversampled interpolation out to near_threshold, plain
    tensor quadrature beyond.
    """

    variant: str = CLOSED
    fan_threshold: float = 0.1
    near_threshold: float = 0.45
    refine_factor: int = 2
    max_levels: int = 4
    quad_tol: float = 1e-12

    def __post_init__(self):
        if self.variant not in (CLOSED, OPEN):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0 < self.fan_threshold <= self.near_threshold < 1:
            raise ValueError("thresholds must satisfy 0 < fan <= near < 1")
        if self.refine_factor < 2 or self.max_levels < 1:
            raise ValueError("refinement factor must be >= 2 with >= 1 level")


@dataclass
class SingularCorrection:
    """Replacement quadrature rows for on-patch targets of one patch.

    weights[j] integrates G(node_j, .) times the cardinal basis over the
    patch, including the surface measure; metadata pins the grid the rows
    were built for.
    """

    patch_id: int
    k: float
    n: int
    kind: str
    weights: np.ndarray  # (n*n, n*n) complex, row per target node


def _grid_nodes(n: int, kind: str):
    if kind == "closed":
        return spectral.cc_nodes(n), spectral.cc_weights(n)
    return spectral.fejer_nodes(n), spectral.fejer_weights(n)


class _PatchData:
    """Flattened node frames plus cached oversampled geometry."""

    __slots__ = ("patch", "point", "a_u", "a_v", "normal", "jac", "fine")

    def __init__(self, patch, nodes):
        uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
        fr = patch.frames(uu.ravel(), vv.ravel())
        self.patch = patch
        self.point = fr.point
        self.a_u = fr.a_u
        self.a_v = fr.a_v
        self.normal = fr.normal
        self.jac = fr.jac
        self.fine = {}

    def fine_level(self, m: int):
        if m not in self.fine:
            g = spectral.cc_nodes(m)
            uu, vv = np.meshgrid(g, g, indexing="ij")
            fr = self.patch.frames(uu.ravel(), vv.ravel())
            w2 = np.outer(spectral.cc_weights(m), spectral.cc_weights(m)).ravel()
            self.fine[m] = (fr.point, fr.normal, w2 * fr.jac)
        return self.fine[m]


def _patch_data(surface: Surface, nodes):
    return [_PatchData(p, nodes) for p in surface.patches]


def _min_node_distances(targets, pdata) -> np.ndarray:
    """Minimum distance from each target to each patch's node cloud, (T, M)."""
    out = np.empty((targets.shape[0], len(pdata)))
    for p, d in enumerate(pdata):
        for lo in range(0, targets.shape[0], _CHUNK):
            hi = min(lo + _CHUNK, targets.shape[0])
            diff = targets[lo:hi, None, :] - d.point[None, :, :]
            out[lo:hi, p] = np.sqrt(np.einsum("tsc,tsc->ts", diff, diff)).min(axis=1)
    return out


def _zone_pairs(targets, pdata, diameters, n, config, on_sets):
    """Fan and oversample (target, patch) pairs, excluding on-patch pairs."""
    dmin = _min_node_distances(targets, pdata)
    # node clouds only over-estimate the true distance; widen the bands by
    # half the coarsest node gap so borderline pairs get the better rule
    slack = 0.5 * np.pi / (2 * (n - 1))
    fan_cut = (config.fan_threshold + slack) * diameters
    near_cut = (config.near_threshold + slack) * diameters
    fan_pairs, mid_pairs = [], []
    for t in range(targets.shape[0]):
        row = dmin[t]
        for p in np.nonzero(row < near_cut)[0]:
            p = int(p)
            if p in on_sets[t]:
                continue
            (fan_pairs if row[p] < fan_cut[p] else mid_pairs).append((t, p))
    return fan_pairs, mid_pairs


def _node_apex(nodes, node: int):
    n = len(nodes)
    return float(nodes[node // n]), float(nodes[node % n])


def _onpatch_rows(patches, k: float, n: int, kind: str, tol: float):
    """Scalar fan rows of every on-patch target, (M, S, S), and ladder misses.

    Node-major, so consecutive rows share their apex and its fan levels.
    """
    nodes, _ = _grid_nodes(n, kind)
    rows = np.empty((len(patches), n * n, n * n), dtype=complex)
    levels, misses = FanLevels(), 0
    for node in range(n * n):
        apex = _node_apex(nodes, node)
        for p, patch in enumerate(patches):
            target = patch.point(np.array(apex[0]), np.array(apex[1]))
            rows[p, node], ok = weights_on_patch(
                patch, nodes, lambda pts, nrm: green(target, pts, k), apex,
                tol=tol, levels=levels)
            misses += not ok
    return rows, misses


def precompute_singular(patch, k: float, n: int, kind: str = "closed",
                        patch_id: int = 0, tol: float = 1e-12) -> SingularCorrection:
    """Fan-quadrature weight rows for every on-patch target node."""
    rows, _ = _onpatch_rows([patch], k, n, kind, tol)
    return SingularCorrection(patch_id, k, n, kind, rows[0])


def _oversample_rows(pdat: _PatchData, kernel, n: int, nodes, config: OperatorConfig):
    """Weights against the coarse basis via kernel quadrature on fine grids.

    Returns (weights, converged), as weights_on_patch does: converged is
    False when the last refinement still moved a weight by more than
    10 quad_tol (relative to max(1, max |weight|)).
    """
    prev = None
    for lvl in range(1, config.max_levels + 1):
        m = n * config.refine_factor**lvl
        pts, nrm, wjac = pdat.fine_level(m)
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
            if float(np.abs(cur - prev).max()) <= 10 * config.quad_tol * scale:
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
    A table lives for one build only.  Computed rows whose ladder ran out
    are counted in unconverged.
    """

    def __init__(self, pdata, nodes, diameters, k, config: OperatorConfig):
        self.pdata, self.nodes, self.diameters = pdata, nodes, diameters
        self.k, self.config = k, config
        m = len(pdata)
        self.origin = np.empty((m, 3))
        self.rot = np.empty((m, 3, 3))  # rows: the frame axes
        self.cls = np.empty(m, dtype=np.int64)
        self.scale = np.empty(m)  # diameter of the class representative
        reps = []  # (diameter, patch-frame cloud) per class
        uv = np.vstack([[0.0, 0.0], _PROBE_UV])
        for p, d in enumerate(pdata):
            fr = d.patch.frames(uv[:, 0], uv[:, 1])
            e1 = fr.a_u[0] / np.linalg.norm(fr.a_u[0])
            e2 = fr.a_v[0] - (fr.a_v[0] @ e1) * e1
            e2 /= np.linalg.norm(e2)
            rot = np.stack([e1, e2, np.cross(e1, e2)])
            local = (np.concatenate([d.point, fr.point[1:]]) - fr.point[0]) @ rot.T
            tol = _CONGRUENT * diameters[p]
            for c, (dc, lc) in enumerate(reps):
                if abs(dc - diameters[p]) <= tol and np.abs(local - lc).max() <= tol:
                    break
            else:
                c = len(reps)
                reps.append((diameters[p], local))
            self.origin[p], self.rot[p] = fr.point[0], rot
            self.cls[p], self.scale[p] = c, reps[c][0]
        self.n_classes = len(reps)
        self.table = {}
        self.requested = {"fan": 0, "mid": 0}
        self.computed = {"fan": 0, "mid": 0}
        self.unconverged = 0

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
        d, k, cfg = self.pdata[p], self.k, self.config
        if zone == "fan":
            u0, v0, dist = nearest_preimage(d.patch, x_t)
            row, ok = weights_on_patch(d.patch, self.nodes,
                                       lambda pts, nrm: kernel(x_t, pts, k), (u0, v0),
                                       tol=cfg.quad_tol,
                                       peak=dist / (0.5 * self.diameters[p]))
        else:
            row, ok = _oversample_rows(d, lambda pts, nrm: kernel(x_t, pts, k),
                                       len(self.nodes), self.nodes, cfg)
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


def _base_scalar_matrix(targets, src_points, src_wjac, k) -> np.ndarray:
    """Plain-rule single-layer matrix with coincident entries zeroed."""
    out = np.empty((targets.shape[0], src_points.shape[0]), dtype=complex)
    for lo in range(0, targets.shape[0], _CHUNK):
        hi = min(lo + _CHUNK, targets.shape[0])
        d = targets[lo:hi, None, :] - src_points[None, :, :]
        r = np.sqrt(np.einsum("tsc,tsc->ts", d, d))
        hit = r < _COINCIDENT
        r[hit] = 1.0
        g = np.exp(1j * k * r) / (4 * np.pi * r)
        g[hit] = 0.0
        out[lo:hi] = g * src_wjac[None, :]
    return out


def _layer_matrix(targets, table: _CongruentRows, on_pairs, corrections) -> np.ndarray:
    """Dense single-layer matrix: plain rule plus zone corrections."""
    pdata, nodes = table.pdata, table.nodes
    n = len(nodes)
    s = n * n
    w1 = _grid_nodes(n, corrections[0].kind)[1]
    w2 = np.outer(w1, w1).ravel()
    src_points = np.concatenate([d.point for d in pdata])
    src_wjac = np.concatenate([w2 * d.jac for d in pdata])
    mat = _base_scalar_matrix(targets, src_points, src_wjac, table.k)
    on_sets = [set() for _ in range(targets.shape[0])]
    for t, p, node in on_pairs:
        mat[t, p * s:(p + 1) * s] = corrections[p].weights[node]
        on_sets[t].add(p)
    zones = _zone_pairs(targets, pdata, table.diameters, n, table.config, on_sets)
    for zone, pairs in zip(("fan", "mid"), zones):
        for t, p in pairs:
            mat[t, p * s:(p + 1) * s] = table.row(zone, targets[t], p, green)
    return mat


def single_layer(sources, targets, surface: Surface, corrections,
                 config: OperatorConfig | None = None):
    """Single-layer potential of per-patch density grids at arbitrary points.

    sources: (M, n, n) scalar or (M, n, n, 3) Cartesian-vector samples on the
    grid family the corrections were built for.  Targets sitting on a grid
    node use that patch's correction row; other targets are classified by
    distance.  Returns (T,) or (T, 3) values.
    """
    corrections = list(corrections)
    if len(corrections) != surface.n_patches:
        raise ValueError("need one correction per patch")
    n, kind, k = corrections[0].n, corrections[0].kind, corrections[0].k
    dens = np.asarray(sources, dtype=complex)
    if dens.shape[:3] != (surface.n_patches, n, n):
        raise ValueError("density grids do not match the correction grid")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    nodes, _ = _grid_nodes(n, kind)
    pdata = _patch_data(surface, nodes)
    diameters = surface.patch_diameters()
    # a target within rounding distance of a node is that node
    on_pairs = []
    for p, d in enumerate(pdata):
        diff = targets[:, None, :] - d.point[None, :, :]
        dist = np.sqrt(np.einsum("tsc,tsc->ts", diff, diff))
        hits = np.nonzero(dist < 1e-9 * diameters[p])
        on_pairs.extend((int(t), p, int(node)) for t, node in zip(*hits))
    cfg = config or OperatorConfig(variant=CLOSED if kind == "closed" else OPEN)
    table = _CongruentRows(pdata, nodes, diameters, k, cfg)
    mat = _layer_matrix(targets, table, on_pairs, corrections)
    out = mat @ dens.reshape(surface.n_patches * n * n, -1)
    return out[:, 0] if dens.ndim == 3 else out


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
    pdata = _patch_data(surface, nodes)
    jac = np.stack([d.jac.reshape(n, n) for d in pdata])
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
        self.w2 = np.outer(w1, w1).ravel()
        self.data = _patch_data(surface, self.nodes)
        self.diameters = surface.patch_diameters()
        self.src_points = np.concatenate([d.point for d in self.data])
        self.src_wjac = np.concatenate([self.w2 * d.jac for d in self.data])
        self.jac_grids = np.stack([d.jac.reshape(n, n) for d in self.data])
        self.frames = Frames(*(np.stack([getattr(d, a) for d in self.data])
                               for a in ("point", "a_u", "a_v")))
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
            return np.concatenate([d.normal for d in self.data])
        out = np.empty((self.n_targets, 3))
        for t, grp in enumerate(self.groups):
            if grp.normal is not None:
                out[t] = grp.normal
            else:
                p, iu, iv = grp.members[0]
                out[t] = self.data[p].normal[iu * self.n + iv]
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
        flat = grids.reshape(len(self.data), self.n**2, 2)
        return self.frames.tangential_from_contravariant(flat[..., 0], flat[..., 1])

    def full_from_cartesian(self, vec):
        """(M, S, 3) tangential Cartesian field -> flat contravariant vector."""
        ju, jv = self.frames.contravariant_from_cartesian(vec)
        grids = np.stack([ju, jv], axis=-1).reshape(len(self.data), self.n, self.n, 2)
        return topology.grids_to_full(grids)

    def surface_gradient(self, phi_full):
        """Scalar node samples (M, S) -> tangential gradient (M, S, 3).

        The per-vector form of the gradient inside the EFIE target map,
        kept as the staged reference that the sparse map is tested against.
        """
        m, n = len(self.data), self.n
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
    m, n, s = len(grid.data), grid.n, grid.n**2
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
    m, n, s = len(grid.data), grid.n, grid.n**2
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
        return (g.source @ x).reshape(len(g.data), g.n**2, 4)[..., :3]


class EfieOperator(_GridOperator):
    """Tangential electric-field map T J = ik eta n x (A + grad phi / k^2).

    variant closed-continuity: unknowns are unique point values and the map
    composes Q (field stages) P.  variant open-no-continuity: unknowns are
    raw per-patch samples on the interior-node grid.

    apply is C @ (S @ (B @ x).reshape(M*S, 4)).ravel(): the grid's sparse
    source map B gives the Cartesian current and its divergence at every
    source node, one dense product with S gives the vector and scalar
    potentials at every target, and the sparse target map C takes them back
    to the unknowns.
    """

    def __init__(self, surface: Surface, n: int, medium: MediumParams,
                 config: OperatorConfig | None = None):
        self.config = config or OperatorConfig()
        kind = "closed" if self.config.variant == CLOSED else "open"
        self.grid = _Grid(surface, n, kind)
        self.medium = medium
        self.k = medium.wavenumber
        self.eta = medium.impedance
        rows, misses = _onpatch_rows(surface.patches, self.k, n, kind,
                                     self.config.quad_tol)
        self.corrections = [SingularCorrection(pid, self.k, n, kind, rows[pid])
                            for pid in range(surface.n_patches)]
        g = self.grid
        table = _CongruentRows(g.data, g.nodes, g.diameters, self.k, self.config)
        self.S = _layer_matrix(g.target_points, table, g.on_patch_pairs(),
                               self.corrections)
        self.build_stats = table.stats(surface.n_patches * n * n, misses)
        self.target_map = _target_map(g, self.k, self.eta)

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
    """

    def __init__(self, surface: Surface, n: int, medium: MediumParams,
                 config: OperatorConfig | None = None, mem_budget: float = 2.0e9):
        self.config = config or OperatorConfig(variant=OPEN)
        kind = "closed" if self.config.variant == CLOSED else "open"
        self.grid = _Grid(surface, n, kind)
        self.medium = medium
        self.k = medium.wavenumber
        self.eta = medium.impedance
        g = self.grid
        self._tnormals = g.target_normals()
        self.materialized = 4 * g.n_targets * g.src_points.shape[0] * 16 <= mem_budget
        self._build_corrections()
        if self.materialized:
            self._build_dense()

    def _build_corrections(self):
        """Sparse zone corrections for the four kernel families.

        Stored as corrected-minus-base so a plain-rule product plus the
        sparse term gives the corrected product without masking.
        """
        g, k, cfg = self.grid, self.k, self.config
        n = g.n
        s = n * n
        on_pairs = g.on_patch_pairs()
        zones = _zone_pairs(g.target_points, g.data, g.diameters, n, cfg,
                            g.on_patch_sets())
        table = _CongruentRows(g.data, g.nodes, g.diameters, k, cfg)
        rows, cols, vals_g, vals_k = [], [], [], []

        def push(t, p, wg, wk):
            rows.extend([t] * s)
            cols.extend(range(p * s, (p + 1) * s))
            vals_g.append(wg)
            vals_k.append(wk)

        levels, misses = FanLevels(), 0
        for t, p, node in sorted(on_pairs, key=lambda pair: (pair[2], pair[1])):
            x_t = g.target_points[t]
            n_t = self._tnormals[t]
            apex = _node_apex(g.nodes, node)

            def kern(pts, nrm, x_t=x_t, n_t=n_t):
                gr = green_gradient(x_t, pts, k)
                return np.concatenate([gr, gr @ n_t[:, None]], axis=1)

            # the target cardinal is excluded from the gradient family: its
            # density factor n(x).J(x) is identically zero and the integral
            # diverges; the normal-projected component stays weakly singular
            w4, ok = weights_on_patch(g.data[p].patch, g.nodes, kern, apex,
                                      tol=cfg.quad_tol, levels=levels,
                                      zero_entries=((node, 0), (node, 1), (node, 2)))
            misses += not ok
            push(t, p, np.ascontiguousarray(w4[:, :3]), w4[:, 3].copy())
        for zone, pairs in zip(("fan", "mid"), zones):
            for t, p in pairs:
                wg = table.row(zone, g.target_points[t], p, green_gradient)
                push(t, p, wg, wg @ self._tnormals[t])
        self.build_stats = table.stats(len(on_pairs), misses)
        rows = np.array(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)
        vals_g = np.concatenate(vals_g) if len(vals_g) else np.zeros((0, 3), dtype=complex)
        vals_k = np.concatenate(vals_k) if len(vals_k) else np.zeros(0, dtype=complex)
        # subtract the plain-rule values at the corrected pairs
        d = g.target_points[rows] - g.src_points[cols]
        r = np.sqrt(np.einsum("qc,qc->q", d, d))
        ok = r > _COINCIDENT
        base = np.zeros((rows.size, 3), dtype=complex)
        base[ok] = (np.exp(1j * k * r[ok]) * (1j * k * r[ok] - 1.0)
                    / (4 * np.pi * r[ok] ** 3))[:, None] * d[ok] \
            * g.src_wjac[cols[ok], None]
        vals_g = vals_g - base
        vals_k = vals_k - np.einsum("qc,qc->q", base, self._tnormals[rows])
        shape = (g.n_targets, g.src_points.shape[0])
        self._dg = [sparse.csr_matrix((vals_g[:, i], (rows, cols)), shape=shape)
                    for i in range(3)]
        self._dk = sparse.csr_matrix((vals_k, (rows, cols)), shape=shape)

    def _gradient_block(self, lo, hi):
        """Plain-rule grad-G kernel values times source weights, (c, S, 3)."""
        g, k = self.grid, self.k
        d = g.target_points[lo:hi, None, :] - g.src_points[None, :, :]
        r = np.sqrt(np.einsum("tsc,tsc->ts", d, d))
        hit = r < _COINCIDENT
        r[hit] = 1.0
        b = np.exp(1j * k * r) * (1j * k * r - 1.0) / (4 * np.pi * r**3)
        b[hit] = 0.0
        return (b * g.src_wjac[None, :])[..., None] * d

    def _build_dense(self):
        g = self.grid
        nt = self._tnormals
        w3 = np.empty((g.n_targets, g.src_points.shape[0], 3), dtype=complex)
        for lo in range(0, g.n_targets, _CHUNK):
            hi = min(lo + _CHUNK, g.n_targets)
            w3[lo:hi] = self._gradient_block(lo, hi)
        k4 = np.einsum("tsc,tc->ts", w3, nt) + self._dk.toarray()
        for i in range(3):
            w3[..., i] += self._dg[i].toarray()
        self._w3 = w3
        self._k4 = k4

    def _integral(self, j_flat):
        """term1 - term2 at all targets for Cartesian samples (MS, 3)."""
        g = self.grid
        nt = self._tnormals
        if self.materialized:
            q = nt @ j_flat.T  # (T, S): target-normal dot each source sample
            term1 = np.einsum("tsc,ts->tc", self._w3, q)
            return term1 - self._k4 @ j_flat
        out = np.empty((g.n_targets, 3), dtype=complex)
        for lo in range(0, g.n_targets, _CHUNK):
            hi = min(lo + _CHUNK, g.n_targets)
            g3 = self._gradient_block(lo, hi)
            q = nt[lo:hi] @ j_flat.T
            term1 = np.einsum("tsc,ts->tc", g3, q)
            k4 = np.einsum("tsc,tc->ts", g3, nt[lo:hi])
            out[lo:hi] = term1 - k4 @ j_flat
        # sparse corrected-minus-base contributions
        add = np.zeros((g.n_targets, 3), dtype=complex)
        for i in range(3):
            coo = self._dg[i].tocoo()
            qv = np.einsum("qc,qc->q", nt[coo.row], j_flat[coo.col])
            np.add.at(add[:, i], coo.row, coo.data * qv)
        out += add
        out -= self._dk @ j_flat
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


def efie_forward(x, operator: EfieOperator):
    """Continuity-enforced electric-field forward map on the unique space."""
    if operator.config.variant != CLOSED:
        raise ValueError("operator was built for the open variant")
    return operator.apply(x)


def efie_forward_open(x, operator: EfieOperator):
    """Baseline electric-field forward map on the open grid, no continuity."""
    if operator.config.variant != OPEN:
        raise ValueError("operator was built for the closed variant")
    return operator.apply(x)


def mfie_forward(x, operator: MfieOperator):
    """Magnetic-field forward map (identity/2 plus principal-value term)."""
    return operator.apply(x)
