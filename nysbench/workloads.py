"""One scattering workload, run cold in its own process.

Usage (normally started by run.py, which pins BLAS to one thread first):

    python nysbench/workloads.py <workload> <seed> <spawn_time> <trace 0|1> <out.json>

Stages, all through the public nyscat API:

1. set-up: imports, the surface, the seeded incidences and, on the sphere,
   the Mie coefficients;
2. build: one EfieOperator or MfieOperator, the first and only one of the
   process, which is the cost a user pays on every solve;
3. sweep: for each incidence the right-hand side, an unrestarted GMRES solve
   and the bistatic RCS cut;
4. checks, outside every timed interval: the true residual, the optical
   theorem and, on the sphere, the Mie series.

The result (timings, peak RSS, accuracy, iteration counts, the RCS values
and, when traced, the per-layer counters) is written as JSON to out.json.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from dataclasses import dataclass

TOL = 1e-8  # GMRES target, far below every power-defect bound
MAX_ITER = 3000  # restart = MAX_ITER: the solve is unrestarted
CUT_POINTS = 37  # 5-degree steps per cut plane
SPHERE_DIAMETER = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    surface: str  # "sphere" or "cube"
    operator: str  # "efie" (closed grid, continuity enforced) or "mfie" (open grid)
    n: int
    wavelength: float
    incidences: int  # seeded incidences, after the fixed reference incidence
    defect_bound: float  # optical-theorem bound per incidence
    rcs_bound: float | None  # Mie cut bound (sphere only)


# Bounds are about twice the largest value measured over 30 to 40 random
# incidences.  sphere-efie is runnable but left out of BENCHMARK.json: the run
# budget holds two workloads steadily (see README.md).
WORKLOADS = {
    w.name: w for w in (
        Workload("sphere-efie", "sphere", "efie", 8, 1.0, 3, 4e-2, 6e-2),
        Workload("cube-sweep", "cube", "efie", 3, 4.0, 2, 2.5e-2, None),
        Workload("sphere-mfie", "sphere", "mfie", 6, 1.5, 2, 3e-3, 2e-2),
    )
}

# Seed-independent incidence solved first in every run; its power defect is
# the reported accuracy figure, so the figure compares across seeds.
REFERENCE_DIRECTION = (1.0, 2.0, 3.0)
REFERENCE_TILT = 0.7  # polarisation angle in the plane across the direction


def run(name: str, seed: int, spawn_time: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    # imported here: they belong to the timed set-up, and run.py imports this
    # module for WORKLOADS alone
    import numpy as np

    from nyscat import physics, solver
    from nyscat.geometry import MediumParams, make_rounded_cube, make_sphere
    from nyscat.kernels.operators import EfieOperator, MfieOperator, OperatorConfig

    import oracles

    tracer = None
    if traced:  # from the start, so that set-up work is seen too
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    medium = MediumParams(wl.wavelength)
    k = medium.wavenumber
    if wl.surface == "sphere":
        surface = make_sphere(SPHERE_DIAMETER)
    else:
        surface = make_rounded_cube(1.0, 0.1)
    rng = np.random.default_rng(seed)
    d = np.array(REFERENCE_DIRECTION) / np.linalg.norm(REFERENCE_DIRECTION)
    a = np.cross(d, [0.0, 0.0, 1.0])
    a /= np.linalg.norm(a)
    incidences = [(d, np.cos(REFERENCE_TILT) * a + np.sin(REFERENCE_TILT) * np.cross(d, a))]
    incidences += [oracles.random_incidence(rng) for _ in range(wl.incidences)]
    waves = [physics.PlaneWave(e, d, medium) for d, e in incidences]
    mie_rcs = None
    if wl.surface == "sphere":
        canonical = physics.PlaneWave(np.array([1.0, 0.0, 0.0]),
                                      np.array([0.0, 0.0, 1.0]), medium)
        _, mie_rcs = physics.mie_reference(SPHERE_DIAMETER, canonical)
    local_cut = oracles.cut_angles(CUT_POINTS)
    cuts = [oracles.local_to_global(oracles.incidence_frame(w.direction, w.polarization),
                                    local_cut) for w in waves]
    setup_s = time.time() - spawn_time

    t0 = time.perf_counter()
    if wl.operator == "efie":
        op = EfieOperator(surface, wl.n, medium)
        kind = "closed"
    else:
        op = MfieOperator(surface, wl.n, medium, OperatorConfig(variant="open-no-continuity"))
        kind = "open"
    build_s = time.perf_counter() - t0
    solutions, reports, patterns = [], [], []
    for w, cut in zip(waves, cuts):
        if wl.operator == "efie":
            rhs = op.rhs(lambda r, w=w: physics.plane_wave_eval(w, r))
        else:
            rhs = op.rhs(lambda r, w=w: physics.plane_wave_hfield(w, r))
        rep = solver.gmres(op.apply, rhs, TOL, restart=MAX_ITER, max_iter=MAX_ITER)
        patterns.append(physics.far_field(op.grid.expand(rep.solution), surface, cut,
                                          medium, kind))
        solutions.append((rhs, rep.solution))
        reports.append(rep)
    total_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()

    # checks, untimed
    radius = 0.5 * surface.bounding_diameter()
    dirs, wts = oracles.sphere_quadrature(2 * int(np.ceil(k * radius)) + 30)
    defects, residuals, rcs_errors, failed = [], [], [], 0
    for w, rep, (rhs, x), pat in zip(waves, reports, solutions, patterns):
        full = op.grid.expand(x)
        fwd = physics.far_field(full, surface, oracles.angles_of(w.direction), medium, kind)
        sca = physics.far_field(full, surface, dirs, medium, kind)
        defect = oracles.power_defect(oracles.extinction(fwd.amplitude[0], w.polarization, k),
                                      oracles.scattered(sca.rcs, wts))
        res = oracles.relative_residual(op.apply, x, rhs)
        ok = rep.converged and res <= 10 * TOL and defect <= wl.defect_bound
        if mie_rcs is not None:
            # the series' own frame is the incidence frame the cut was laid in
            err = oracles.rcs_error(pat.rcs, mie_rcs(local_cut[:, 0], local_cut[:, 1]))
            rcs_errors.append(err)
            ok = ok and err <= wl.rcs_bound
        defects.append(defect)
        residuals.append(res)
        failed += not ok

    out = {
        "workload": name,
        "seed": seed,
        "unknowns": op.n_unknowns,
        "attempted": len(waves),
        "failed": failed,
        "setup_s": setup_s,
        "build_s": build_s,
        "total_s": total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "power_defect": defects[0],
        "power_defects": defects,
        "residuals": residuals,
        "rcs_errors": rcs_errors,
        "iterations": [r.iterations for r in reports],
        "rcs": [p.rcs.tolist() for p in patterns],
        "blas_threads": blas_threads(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(op)
        out["spans"] = tracer.dump()
    return out


def blas_threads() -> int:
    """Threads OpenBLAS will use, read from the loaded library (-1 if unknown)."""
    import ctypes
    import re

    with open("/proc/self/maps") as fh:
        libs = sorted(set(re.findall(r"(\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def main(argv) -> int:
    name, seed, spawn, traced, out_path = argv
    result = run(name, int(seed), float(spawn), traced == "1")
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
