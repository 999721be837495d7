"""Shared expensive fixtures: sphere operators and solves, built once.

The sphere scenario (diameter 2 wavelengths, x-polarized z-travelling plane
wave) recurs across the operator, physics and acceptance tests; operators and
GMRES runs are cached per (N, variant, tol) so each configuration is built
exactly once per session.
"""

import numpy as np
import pytest

from nyscat import physics
from nyscat.geometry import MediumParams, make_sphere
from nyscat.kernels.operators import CLOSED, EfieOperator, OperatorConfig
from nyscat.solver import gmres

MEDIUM = MediumParams(wavelength=1.0)
SPHERE_DIAMETER = 2.0  # two wavelengths


@pytest.fixture(scope="session")
def medium():
    return MEDIUM


@pytest.fixture(scope="session")
def sphere():
    return make_sphere(SPHERE_DIAMETER)


@pytest.fixture(scope="session")
def plane_wave():
    return physics.PlaneWave((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), MEDIUM)


@pytest.fixture(scope="session")
def mie(plane_wave):
    """(current sampler, bistatic RCS function) for the session sphere."""
    return physics.mie_reference(SPHERE_DIAMETER, plane_wave)


@pytest.fixture(scope="session")
def efie_op(sphere):
    """Factory returning a cached sphere EFIE operator for (n, variant)."""
    cache = {}

    def get(n: int, variant: str = CLOSED) -> EfieOperator:
        key = (n, variant)
        if key not in cache:
            cache[key] = EfieOperator(sphere, n, MEDIUM,
                                      OperatorConfig(variant=variant))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def efie_solve(efie_op, plane_wave):
    """Factory returning a cached (operator, SolveReport) for the sphere.

    Solves run unrestarted (restart = max_iter) so iteration counts between
    variants compare Arnoldi steps directly.
    """
    cache = {}

    def get(n: int, variant: str = CLOSED, tol: float = 1e-6):
        key = (n, variant, tol)
        if key not in cache:
            op = efie_op(n, variant)
            rhs = op.rhs(lambda r: physics.plane_wave_eval(plane_wave, r))
            cache[key] = (op, gmres(op.apply, rhs, tol,
                                    restart=2000, max_iter=2000))
        return cache[key]

    return get


@pytest.fixture(scope="session")
def mie_forward_error(efie_op, plane_wave, mie):
    """Relative EFIE residual of the exact series current, cached per grid."""
    cache = {}

    def get(n: int, variant: str = CLOSED) -> float:
        key = (n, variant)
        if key not in cache:
            op = efie_op(n, variant)
            x = op.grid.project(op.grid.sample(mie[0]))
            rhs = op.rhs(lambda r: physics.plane_wave_eval(plane_wave, r))
            cache[key] = float(np.linalg.norm(op.apply(x) - rhs)
                               / np.linalg.norm(rhs))
        return cache[key]

    return get
