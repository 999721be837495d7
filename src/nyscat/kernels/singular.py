"""Singular and near-singular quadrature on a parameter square.

The weakly singular surface kernels (G and its first derivatives against a
vanishing density factor) are handled by splitting [-1,1]^2 into triangles
fanned from an apex at (or nearest to) the target's preimage.  Mapping each
triangle by rays from the apex carries a Jacobian proportional to the ray
parameter, which cancels the 1/R blowup, so tensor Gauss rules converge
rapidly.  Weights are accumulated against the tensor cardinal basis of the
patch's interpolation nodes; the order ladder stops once the weight vector
stagnates below the requested tolerance, and reports whether it did.

One ladder level costs one kernel evaluation on the rule's points and one
real matrix product (GEMM) per kernel component: the real and imaginary
parts of the weighted kernel values times the u cardinal rows, contracted
against the v cardinal rows over the rule's points.  On-patch
apices are grid nodes, the same on every patch, so a caller that visits the
on-patch rows node-major passes a FanLevels cache: each level's rule and
cardinal rows are then built once per node and shared by all patches.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.special import roots_legendre

from nyscat import spectral

__all__ = [
    "gauss01",
    "fan_rule",
    "FanLevels",
    "weights_on_patch",
    "nearest_preimage",
    "LADDER",
]

LADDER = (6, 10, 14, 20, 28, 38, 48)

_CORNERS = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])


@lru_cache(maxsize=None)
def gauss01(q: int):
    """Gauss-Legendre rule on [0, 1]."""
    x, w = roots_legendre(q)
    return (x + 1.0) / 2.0, w / 2.0


def _sinh01(q: int, delta: float):
    """Gauss rule on [0,1] graded toward 0 at relative scale delta."""
    x, w = gauss01(q)
    if delta >= 1.0:
        return x, w
    big = np.arcsinh(1.0 / delta)
    return delta * np.sinh(big * x), w * delta * big * np.cosh(big * x)


class FanLevels:
    """Fan rules and cardinal rows of one exact-node apex, one ladder deep.

    Entries are keyed by ladder level (and node set, for the cardinal rows),
    built on first use, returned read-only, and dropped as soon as a request
    names another apex.  Only rules without a peak (targets on the patch)
    go through it.
    """

    def __init__(self):
        self.apex = None
        self.entries = {}

    def get(self, apex, key, make):
        """Arrays make() built for (apex, key), reusing them while apex repeats."""
        if apex != self.apex:
            self.apex, self.entries = apex, {}
        out = self.entries.get(key)
        if out is None:
            out = make()
            for a in out:
                a.flags.writeable = False
            self.entries[key] = out
        return out


def fan_rule(u0: float, v0: float, q: int, peak: float = 0.0,
             levels: FanLevels | None = None):
    """Tensor Gauss rule over the square, fanned around apex (u0, v0).

    Returns (points (Q, 2), weights (Q,)); the weights include the triangle
    Jacobian with its apex-vanishing ray factor.  Triangles collapsed by an
    apex sitting on the square boundary are dropped.

    peak > 0 marks a target hovering that parameter distance off the apex
    (boundary-clamped preimage): the kernel then peaks over a width ~peak
    instead of being cancelled by the ray factor, so the ray variable is
    graded through a sinh map that spends half its points inside the peak
    at any scale.

    An apex very close to (but off) an edge makes that triangle a sliver:
    along it R = s * rho(t) with rho dipping to the apex-edge distance over
    a similarly narrow range of t, a peak the plain tensor rule cannot see.
    The t variable is then graded toward the dip from both sides.

    With a levels cache and no peak the rule is built once per apex and
    level, and the returned arrays are read-only.
    """
    if levels is not None and peak == 0.0:
        return levels.get((u0, v0), q, lambda: _fan_rule(u0, v0, q, 0.0))
    return _fan_rule(u0, v0, q, peak)


def _fan_rule(u0: float, v0: float, q: int, peak: float):
    apex = np.array([u0, v0])
    s, ws = gauss01(q)
    pts, wgt = [], []
    for i in range(4):
        ca, cb = _CORNERS[i], _CORNERS[(i + 1) % 4]
        ea, eb = ca - apex, cb - apex
        area2 = abs(ea[0] * eb[1] - ea[1] * eb[0])
        if area2 < 1e-14:
            continue
        ray_len = max(np.hypot(*ea), np.hypot(*eb))
        delta = peak / ray_len if peak > 0.0 else 1.0
        if delta < 1.0:
            big = np.arcsinh(1.0 / delta)
            sr = delta * np.sinh(big * s)
            dsr = delta * big * np.cosh(big * s)
        else:
            sr, dsr = s, np.ones_like(s)
        edge_len = np.hypot(*(cb - ca))
        tstar = float(np.clip((ea @ (ca - cb)) / edge_len**2, 0.0, 1.0))
        dip = np.hypot(*(ca + tstar * (cb - ca) - apex)) + peak
        if dip < 0.3 * edge_len:
            tq, twq = [], []
            if tstar > 0.0:
                g, gw = _sinh01(q, dip / (edge_len * tstar))
                tq.append(tstar * (1.0 - g))
                twq.append(tstar * gw)
            if tstar < 1.0:
                g, gw = _sinh01(q, dip / (edge_len * (1.0 - tstar)))
                tq.append(tstar + (1.0 - tstar) * g)
                twq.append((1.0 - tstar) * gw)
            t, wt = np.concatenate(tq), np.concatenate(twq)
        else:
            t, wt = gauss01(q)
        edge = ca[None, :] + t[:, None] * (cb - ca)[None, :]  # (qt, 2)
        rays = edge[None, :, :] - apex[None, None, :]
        p = apex[None, None, :] + sr[:, None, None] * rays  # (q, qt, 2)
        w = (ws * dsr * sr)[:, None] * wt[None, :] * area2
        pts.append(p.reshape(-1, 2))
        wgt.append(w.reshape(-1))
    return np.concatenate(pts), np.concatenate(wgt)


def _cardinal_weights(vals, w, but, bv):
    """sum_q vals[q] w[q] bu[q, a] bv[q, b] as (n*n,) or (n*n, m).

    but is bu transposed, (n, Q) C-ordered.  One real GEMM per kernel
    component: the real and imaginary planes of vals * w, each times every
    cardinal row of bu, stacked as (2n, Q) with Q running fastest and
    contracted against bv.  Looping over components keeps that operand the
    only large temporary.
    """
    cols = vals.reshape(vals.shape[0], -1).T  # (m, Q)
    n, m = but.shape[0], cols.shape[0]
    pairs = np.iscomplexobj(cols)
    planes = np.empty((m, 2 if pairs else 1, cols.shape[1]))
    if pairs:
        np.multiply(cols.real, w, out=planes[:, 0])
        np.multiply(cols.imag, w, out=planes[:, 1])
    else:
        np.multiply(cols, w, out=planes[:, 0])
    out = np.empty((n, n, m), dtype=complex if pairs else float)
    for c in range(m):
        prod = (planes[c, :, None, :] * but).reshape(-1, but.shape[1]) @ bv
        out[:, :, c] = prod[:n] + 1j * prod[n:] if pairs else prod
    return out.reshape(n * n) if vals.ndim == 1 else out.reshape(n * n, m)


def _cardinal_rows(nodes, uv):
    """(bu transposed to (n, Q), bv (Q, n)) at the rule's points."""
    but = np.ascontiguousarray(spectral.interp_matrix(nodes, uv[:, 0]).T)
    return but, spectral.interp_matrix(nodes, uv[:, 1])


def weights_on_patch(
    patch,
    nodes,
    kernel,
    apex,
    tol: float = 1e-12,
    zero_nodes=(),
    zero_entries=(),
    ladder=LADDER,
    peak: float = 0.0,
    levels: FanLevels | None = None,
):
    """Quadrature weights for kernel * (cardinal basis) * dsigma over a patch.

    Args:
        patch: geometry with a frames(u, v) evaluator.
        nodes: 1d interpolation nodes defining the tensor cardinal basis.
        kernel: callable (points (Q,3), normals (Q,3)) -> (Q,) or (Q,m)
            values with the target point baked in.
        apex: (u0, v0) fan center: the target's preimage (exact for a target
            on the patch, nearest for a close one).
        zero_nodes: flat node indices whose weights are forced to zero and
            excluded from the convergence test (target's own cardinal when
            the kernel alone is not integrable against it).
        zero_entries: (flat node, component) pairs zeroed the same way, for
            multi-component kernels where only some components diverge.
        peak: parameter-space distance of an off-patch target from the apex;
            grades the fan's ray variable so the near-peak stays resolved.
        levels: cache sharing each level's rule and cardinal rows between
            consecutive calls with the same on-patch apex.

    Returns:
        (weights, converged): the (n*n,) or (n*n, m) weight array including
        the surface measure, and whether the last ladder step changed it by
        at most tol (relative to max(1, max |weight|)).  When the ladder runs
        out the last iterate is returned with converged False.
    """
    nodes = np.asarray(nodes)
    zero_nodes = tuple(zero_nodes)
    zero_entries = tuple(zero_entries)
    # a sub-roundoff hover distance is a target sitting on the patch; grading
    # the rays that hard would fold fine points onto the apex itself
    if peak < 1e-12:
        peak = 0.0
    shared = levels is not None and peak == 0.0
    u0, v0 = float(apex[0]), float(apex[1])
    prev = None
    for q in ladder:
        uv, w = fan_rule(u0, v0, q, peak, levels)
        if shared:
            but, bv = levels.get((u0, v0), (q, nodes.tobytes()),
                                 lambda: _cardinal_rows(nodes, uv))
        else:
            but, bv = _cardinal_rows(nodes, uv)
        fr = patch.frames(uv[:, 0], uv[:, 1])
        vals = np.asarray(kernel(fr.point, fr.normal))
        cur = _cardinal_weights(vals, w * fr.jac, but, bv)
        if zero_nodes:
            cur[np.array(zero_nodes)] = 0.0
        for node, comp in zero_entries:
            cur[node, comp] = 0.0
        if prev is not None:
            scale = max(1.0, float(np.abs(cur).max()))
            if float(np.abs(cur - prev).max()) <= tol * scale:
                return cur, True
        prev = cur
    return prev, False


def nearest_preimage(patch, x, n_seed: int = 12, iters: int = 40, tol: float = 1e-13):
    """Parameter-square point minimizing the distance to x, plus the distance.

    Coarse-grid seeding followed by box-clamped Gauss-Newton; for targets past
    the patch boundary the minimizer lands on the boundary of [-1,1]^2.
    """
    x = np.asarray(x, dtype=float)
    g = spectral.cc_nodes(n_seed)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    pts = patch.point(uu.ravel(), vv.ravel())
    k = int(np.argmin(np.einsum("qc,qc->q", pts - x, pts - x)))
    u = np.array([uu.ravel()[k], vv.ravel()[k]])
    for _ in range(iters):
        p, xu, xv = patch.derivs(np.array(u[0]), np.array(u[1]))
        r = p - x
        a11, a12, a22 = xu @ xu, xu @ xv, xv @ xv
        b1, b2 = xu @ r, xv @ r
        det = a11 * a22 - a12 * a12
        du = np.array([(a12 * b2 - a22 * b1) / det, (a12 * b1 - a11 * b2) / det])
        nxt = np.clip(u + du, -1.0, 1.0)
        if np.abs(nxt - u).max() < tol:
            u = nxt
            break
        u = nxt
    p = patch.point(np.array(u[0]), np.array(u[1]))
    return float(u[0]), float(u[1]), float(np.linalg.norm(p - x))
