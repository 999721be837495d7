"""Smooth quad patch parametrizations and their first-order frames.

Every patch maps the closed square [-1,1]^2 into R^3 with analytic first
derivatives and a nowhere-vanishing Jacobian, oriented so a_u x a_v points
along the outward normal.  Frames bundle the tangent pair, metric and normal
at a batch of parameter points; they are all the downstream discretization
ever needs (no second derivatives anywhere).
"""

from __future__ import annotations

import numpy as np

from nyscat import spectral

__all__ = [
    "Patch",
    "Frames",
    "PlanePatch",
    "GnomonicSpherePatch",
    "CylinderPatch",
    "SphereQuadPatch",
    "TransformedPatch",
    "ChebyshevPatch",
]


class Frames:
    """First-order surface data at a batch of parameter points.

    The metric g and its inverse are formed on first access: quadrature
    batches read only point, normal and jac.
    """

    __slots__ = ("point", "a_u", "a_v", "normal", "jac", "_g", "_ginv")

    def __init__(self, point, a_u, a_v):
        self.point = point
        self.a_u = a_u
        self.a_v = a_v
        cross = np.cross(a_u, a_v)
        self.jac = np.linalg.norm(cross, axis=-1)
        if np.any(self.jac <= 0.0) or not np.all(np.isfinite(self.jac)):
            raise ValueError("degenerate patch frame: sqrt(g) must stay positive")
        self.normal = cross / self.jac[..., None]
        self._g = self._ginv = None

    @property
    def g(self):
        """Metric tensor (..., 2, 2)."""
        if self._g is None:
            guu, guv, gvv = self._metric()
            self._g = np.stack(
                [np.stack([guu, guv], axis=-1), np.stack([guv, gvv], axis=-1)], axis=-2
            )
        return self._g

    @property
    def ginv(self):
        """Inverse metric tensor (..., 2, 2)."""
        if self._ginv is None:
            guu, guv, gvv = self._metric()
            det = guu * gvv - guv * guv
            inv = np.stack(
                [np.stack([gvv, -guv], axis=-1), np.stack([-guv, guu], axis=-1)], axis=-2
            )
            self._ginv = inv / det[..., None, None]
        return self._ginv

    def _metric(self):
        a_u, a_v = self.a_u, self.a_v
        return (np.einsum("...i,...i->...", a_u, a_u),
                np.einsum("...i,...i->...", a_u, a_v),
                np.einsum("...i,...i->...", a_v, a_v))

    def tangential_from_contravariant(self, fu, fv):
        """Cartesian vector field from contravariant components."""
        return fu[..., None] * self.a_u + fv[..., None] * self.a_v

    def contravariant_from_cartesian(self, field):
        """Contravariant components of a (tangential) Cartesian field."""
        cu = np.einsum("...i,...i->...", field, self.a_u)
        cv = np.einsum("...i,...i->...", field, self.a_v)
        fu = self.ginv[..., 0, 0] * cu + self.ginv[..., 0, 1] * cv
        fv = self.ginv[..., 1, 0] * cu + self.ginv[..., 1, 1] * cv
        return fu, fv


class Patch:
    """Base class; subclasses implement ``derivs``."""

    def derivs(self, u, v):
        """Return (x, dx/du, dx/dv), each shaped like u + (3,)."""
        raise NotImplementedError

    def point(self, u, v):
        return self.derivs(u, v)[0]

    def frames(self, u, v) -> Frames:
        x, xu, xv = self.derivs(u, v)
        return Frames(x, xu, xv)


def _as_arrays(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return np.broadcast_arrays(u, v)


class PlanePatch(Patch):
    """Flat rectangle: origin + u*e1 + v*e2 (e1, e2 carry the half-extents)."""

    def __init__(self, origin, e1, e2):
        self.origin = np.asarray(origin, dtype=float)
        self.e1 = np.asarray(e1, dtype=float)
        self.e2 = np.asarray(e2, dtype=float)

    def derivs(self, u, v):
        u, v = _as_arrays(u, v)
        x = self.origin + u[..., None] * self.e1 + v[..., None] * self.e2
        shape = u.shape + (3,)
        return x, np.broadcast_to(self.e1, shape).copy(), np.broadcast_to(self.e2, shape).copy()


class GnomonicSpherePatch(Patch):
    """One face of the central-projection (equiangular) cube-sphere map.

    c(u,v) = n_f + tan(pi h(u)/4) e1 + tan(pi h(v)/4) e2 on the unit cube
    face, projected radially onto the sphere of the given radius.  The
    tangent remap spaces parameter lines equally in face angle; the odd
    cubic h(u) = u + beta u(1-u^2) then nudges resolution toward the face
    center, where Chebyshev grids are sparsest.  h(+-1) = +-1 keeps shared
    edges conforming across faces.  e1 x e2 = n_f keeps the normal outward.
    """

    beta = -0.07  # |beta| < 1/3 keeps h monotone

    def __init__(self, radius, n_f, e1, e2, center=(0.0, 0.0, 0.0)):
        self.radius = float(radius)
        self.n_f = np.asarray(n_f, dtype=float)
        self.e1 = np.asarray(e1, dtype=float)
        self.e2 = np.asarray(e2, dtype=float)
        self.center = np.asarray(center, dtype=float)

    def _angle(self, u):
        h = u + self.beta * u * (1.0 - u * u)
        dh = 1.0 + self.beta * (1.0 - 3.0 * u * u)
        s = np.tan(0.25 * np.pi * h)
        return s, 0.25 * np.pi * (1.0 + s * s) * dh

    def derivs(self, u, v):
        u, v = _as_arrays(u, v)
        s, ds = self._angle(u)
        t, dt = self._angle(v)
        c = self.n_f + s[..., None] * self.e1 + t[..., None] * self.e2
        rho2 = 1.0 + s * s + t * t
        rho = np.sqrt(rho2)
        x = self.center + self.radius * c / rho[..., None]
        # d/ds of c/|c| with c.e1 = s, c.e2 = t, chained through s(u), t(v)
        xu = self.radius * (self.e1 * rho2[..., None] - c * s[..., None]) * (ds / (rho2 * rho))[..., None]
        xv = self.radius * (self.e2 * rho2[..., None] - c * t[..., None]) * (dt / (rho2 * rho))[..., None]
        return x, xu, xv


class CylinderPatch(Patch):
    """Piece of a circular cylinder: axis line + radial arc sweep.

    x(u,v) = p0 + v*half_len*axis + r*(cos(alpha) d1 + sin(alpha) d2) with
    alpha affine in u over [alpha0, alpha1].  (d1, d2, axis) right-handed and
    alpha increasing orient the normal outward (radially).
    """

    def __init__(self, p0, axis, half_len, radius, d1, d2, alpha0, alpha1):
        self.p0 = np.asarray(p0, dtype=float)
        self.axis = np.asarray(axis, dtype=float)
        self.half_len = float(half_len)
        self.radius = float(radius)
        self.d1 = np.asarray(d1, dtype=float)
        self.d2 = np.asarray(d2, dtype=float)
        self.alpha0 = float(alpha0)
        self.alpha1 = float(alpha1)

    def derivs(self, u, v):
        u, v = _as_arrays(u, v)
        half_sweep = 0.5 * (self.alpha1 - self.alpha0)
        alpha = self.alpha0 + (u + 1.0) * half_sweep
        ca, sa = np.cos(alpha)[..., None], np.sin(alpha)[..., None]
        radial = ca * self.d1 + sa * self.d2
        x = self.p0 + (v * self.half_len)[..., None] * self.axis + self.radius * radial
        xu = self.radius * half_sweep * (-sa * self.d1 + ca * self.d2)
        xv = np.broadcast_to(self.half_len * self.axis, u.shape + (3,)).copy()
        return x, xu, xv


def _slerp(p, q, t):
    """Great-circle arc between unit vectors, angle-affine; with derivative."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    omega = np.arctan2(np.linalg.norm(np.cross(p, q)), np.dot(p, q))
    so = np.sin(omega)
    a = np.sin((1.0 - t) * omega)[..., None]
    b = np.sin(t * omega)[..., None]
    pos = (a * p + b * q) / so
    da = -omega * np.cos((1.0 - t) * omega)[..., None]
    db = omega * np.cos(t * omega)[..., None]
    return pos, (da * p + db * q) / so


class SphereQuadPatch(Patch):
    """Spherical quad: Coons blend of four great-circle arcs, renormalized.

    Corners are unit direction vectors ordered (u,v)=(-1,-1),(1,-1),(1,1),(-1,1).
    The boundary restriction reproduces the four arcs exactly (the blend
    reduces to the edge curve there), so grids conform with neighbors that
    trace the same arcs angle-affinely.
    """

    def __init__(self, center, radius, corners):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        corners = np.asarray(corners, dtype=float)
        self.c00, self.c10, self.c11, self.c01 = (corners[i] / np.linalg.norm(corners[i]) for i in range(4))

    def derivs(self, u, v):
        u, v = _as_arrays(u, v)
        t = 0.5 * (u + 1.0)
        s = 0.5 * (v + 1.0)
        bot, dbot = _slerp(self.c00, self.c10, t)
        top, dtop = _slerp(self.c01, self.c11, t)
        lef, dlef = _slerp(self.c00, self.c01, s)
        rig, drig = _slerp(self.c10, self.c11, s)
        t_, s_ = t[..., None], s[..., None]
        bilin = (
            (1 - t_) * (1 - s_) * self.c00
            + t_ * (1 - s_) * self.c10
            + (1 - t_) * s_ * self.c01
            + t_ * s_ * self.c11
        )
        c = (1 - s_) * bot + s_ * top + (1 - t_) * lef + t_ * rig - bilin
        cu = 0.5 * (
            (1 - s_) * dbot + s_ * dtop + (rig - lef) - ((1 - s_) * (self.c10 - self.c00) + s_ * (self.c11 - self.c01))
        )
        cv = 0.5 * (
            (top - bot) + (1 - t_) * dlef + t_ * drig - ((1 - t_) * (self.c01 - self.c00) + t_ * (self.c11 - self.c10))
        )
        norm = np.linalg.norm(c, axis=-1)[..., None]
        chat = c / norm
        x = self.center + self.radius * chat
        proj_u = cu - chat * np.einsum("...i,...i->...", chat, cu)[..., None]
        proj_v = cv - chat * np.einsum("...i,...i->...", chat, cv)[..., None]
        return x, self.radius * proj_u / norm, self.radius * proj_v / norm


class TransformedPatch(Patch):
    """Rigidly rotated and shifted copy of a base patch."""

    def __init__(self, base: Patch, rotation=None, shift=(0.0, 0.0, 0.0)):
        self.base = base
        self.rotation = np.eye(3) if rotation is None else np.asarray(rotation, dtype=float)
        self.shift = np.asarray(shift, dtype=float)

    def derivs(self, u, v):
        x, xu, xv = self.base.derivs(u, v)
        rot = self.rotation.T
        return x @ rot + self.shift, xu @ rot, xv @ rot


class ChebyshevPatch(Patch):
    """Patch reconstructed from samples on a closed tensor Chebyshev grid.

    Stores the value grid plus spectrally differentiated grids; evaluation at
    arbitrary points goes through barycentric cardinal rows, which is both
    stable and fast for the small grid sizes used here.
    """

    def __init__(self, values):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[2] != 3:
            raise ValueError("expected samples shaped (Nu, Nv, 3)")
        self.values = values
        nu, nv = values.shape[:2]
        self.nu, self.nv = nu, nv
        self.nodes_u = spectral.cc_nodes(nu)
        self.nodes_v = spectral.cc_nodes(nv)
        du = spectral.diff_matrix(self.nodes_u)
        dv = spectral.diff_matrix(self.nodes_v)
        self.values_du = np.einsum("ij,jkc->ikc", du, values)
        self.values_dv = np.einsum("ab,ibc->iac", dv, values)

    def _eval_grid(self, grid, u, v):
        bu = spectral.interp_matrix(self.nodes_u, u)
        bv = spectral.interp_matrix(self.nodes_v, v)
        return np.einsum("qa,qb,abc->qc", bu, bv, grid)

    def derivs(self, u, v):
        u, v = _as_arrays(u, v)
        shape = u.shape
        uf, vf = u.ravel(), v.ravel()
        x = self._eval_grid(self.values, uf, vf).reshape(shape + (3,))
        xu = self._eval_grid(self.values_du, uf, vf).reshape(shape + (3,))
        xv = self._eval_grid(self.values_dv, uf, vf).reshape(shape + (3,))
        return x, xu, xv
