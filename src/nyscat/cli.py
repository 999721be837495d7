"""Batch front end: parse a run config, build geometry, solve, write tables.

Verbs: ``solve <config>``, ``converge <config>``, ``export <config>``.  The
config is a single INI-style file (sections in brackets, key = value); see
README for the full key reference.  Exit codes: 0 success, 1 solver did not
converge, 2 config error, 3 I/O error.

All numeric table output is printed with 17 significant digits, and the run
manifest holds no volatile fields (timings go to a separate timing.json), so
identical configs rerun with threads = 1 reproduce every output byte.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nyscat import physics
from nyscat.geometry import (
    MediumParams,
    Surface,
    load_surface,
    make_dipole,
    make_rounded_cube,
    make_sphere,
    save_surface,
)
from nyscat.kernels.operators import (
    CLOSED,
    OPEN,
    EfieOperator,
    MfieOperator,
    OperatorConfig,
)
from nyscat.solver import gmres

__all__ = ["RunConfig", "ConfigError", "load_config", "main"]

_GEOMETRY_KINDS = ("sphere", "rounded-cube", "dipole", "file")
_FORMULATIONS = ("efie-closed", "efie-open", "mfie")


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""

    def __init__(self, fieldname: str, message: str):
        self.fieldname = fieldname
        super().__init__(f"config field '{fieldname}': {message}")


@dataclass
class RunConfig:
    """Validated run parameters for one CLI invocation."""

    geometry_kind: str = "sphere"
    geometry: dict = field(default_factory=dict)
    wavelength: float = 1.0
    n: int = 10
    formulation: str = "efie-closed"
    tol: float = 1e-6
    restart: int = 200
    max_iter: int = 2000
    polarization: np.ndarray = None
    direction: np.ndarray = None
    amplitude: float = 1.0
    out_dir: Path = Path(".")
    density: bool = True
    rcs_phi_deg: float | None = 0.0
    rcs_count: int = 181
    sweep_n: tuple = ()
    sweep_formulations: tuple = ("efie-closed",)
    reference: Path | None = None
    threads: int | None = None
    export_n: int = 20

    def validate(self):
        if self.geometry_kind not in _GEOMETRY_KINDS:
            raise ConfigError("geometry.kind",
                              f"unknown geometry kind {self.geometry_kind!r}; "
                              f"choose from {', '.join(_GEOMETRY_KINDS)}")
        if self.geometry_kind == "file" and "path" not in self.geometry:
            raise ConfigError("geometry.path", "required for kind = file")
        if self.wavelength <= 0:
            raise ConfigError("run.wavelength", "must be positive")
        if self.n < 4:
            raise ConfigError("run.n", "need at least 4 points per direction")
        if self.formulation not in _FORMULATIONS:
            raise ConfigError("run.formulation",
                              f"unknown formulation {self.formulation!r}; "
                              f"choose from {', '.join(_FORMULATIONS)}")
        if not 0.0 < self.tol < 1.0:
            raise ConfigError("solver.tol", "must lie in (0, 1)")
        if self.restart < 1 or self.max_iter < 1:
            raise ConfigError("solver.restart", "restart and max_iter must be >= 1")
        if self.rcs_count < 2:
            raise ConfigError("output.rcs_points", "need at least 2 angles")
        if any(n < 4 for n in self.sweep_n):
            raise ConfigError("sweep.n_values", "every N must be >= 4")
        for f in self.sweep_formulations:
            if f not in _FORMULATIONS:
                raise ConfigError("sweep.formulations", f"unknown formulation {f!r}")
        if self.threads is not None and self.threads < 1:
            raise ConfigError("run.threads", "must be >= 1")
        if self.export_n < 4:
            raise ConfigError("output.export_n", "need at least 4 samples")
        return self


def _get(parser, section, key, cast, default):
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{section}.{key}", f"cannot parse {raw!r}: {exc}") from None


def _vector(raw):
    vals = np.array([float(t) for t in raw.split()], dtype=float)
    if vals.shape != (3,):
        raise ValueError("expected exactly 3 components")
    return vals


def _bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean")


def load_config(path) -> RunConfig:
    """Parse and validate an INI run configuration."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as f:
            parser.read_file(f)
    except OSError as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError("config", f"malformed file: {exc}") from None

    cfg = RunConfig()
    cfg.geometry_kind = _get(parser, "geometry", "kind", str, cfg.geometry_kind)
    geo = {}
    if parser.has_section("geometry"):
        for key, raw in parser.items("geometry"):
            if key == "kind":
                continue
            if key == "path":
                geo[key] = raw
            else:
                try:
                    geo[key] = float(raw)
                except ValueError:
                    raise ConfigError(f"geometry.{key}",
                                      f"cannot parse {raw!r}") from None
    cfg.geometry = geo
    cfg.wavelength = _get(parser, "run", "wavelength", float, cfg.wavelength)
    cfg.n = _get(parser, "run", "n", int, cfg.n)
    cfg.formulation = _get(parser, "run", "formulation", str, cfg.formulation)
    cfg.threads = _get(parser, "run", "threads", int, cfg.threads)
    cfg.tol = _get(parser, "solver", "tol", float, cfg.tol)
    cfg.restart = _get(parser, "solver", "restart", int, cfg.restart)
    cfg.max_iter = _get(parser, "solver", "max_iter", int, cfg.max_iter)
    default_pol = np.array([1.0, 0.0, 0.0])
    default_dir = np.array([0.0, 0.0, 1.0])
    cfg.polarization = _get(parser, "excitation", "polarization", _vector, default_pol)
    cfg.direction = _get(parser, "excitation", "direction", _vector, default_dir)
    cfg.amplitude = _get(parser, "excitation", "amplitude", float, cfg.amplitude)
    cfg.out_dir = Path(_get(parser, "output", "directory", str, "."))
    cfg.density = _get(parser, "output", "density", _bool, cfg.density)
    if parser.has_option("output", "rcs_phi_deg"):
        cfg.rcs_phi_deg = _get(parser, "output", "rcs_phi_deg", float, 0.0)
    elif parser.has_option("output", "rcs"):
        cfg.rcs_phi_deg = 0.0 if _get(parser, "output", "rcs", _bool, True) else None
    cfg.rcs_count = _get(parser, "output", "rcs_points", int, cfg.rcs_count)
    cfg.export_n = _get(parser, "output", "export_n", int, cfg.export_n)
    if parser.has_option("sweep", "n_values"):
        raw = parser.get("sweep", "n_values")
        try:
            cfg.sweep_n = tuple(int(t) for t in raw.split())
        except ValueError:
            raise ConfigError("sweep.n_values", f"cannot parse {raw!r}") from None
    if parser.has_option("sweep", "formulations"):
        cfg.sweep_formulations = tuple(parser.get("sweep", "formulations").split())
    if parser.has_option("sweep", "reference"):
        cfg.reference = Path(parser.get("sweep", "reference"))
    return cfg.validate()


# ---------------------------------------------------------------------------
# run pieces


def build_surface(cfg: RunConfig) -> Surface:
    kind, geo = cfg.geometry_kind, cfg.geometry
    if kind == "sphere":
        return make_sphere(geo.get("diameter", 2.0))
    if kind == "rounded-cube":
        return make_rounded_cube(geo.get("edge", 1.0), geo.get("radius", 0.01))
    if kind == "dipole":
        return make_dipole(
            geo.get("cross_section", 0.025), geo.get("arm_length", 0.25),
            geo.get("gap", 0.04), geo.get("radius", 0.0025))
    try:
        return load_surface(geo["path"])
    except OSError as exc:
        raise ConfigError("geometry.path", f"cannot read surface: {exc}") from None


def build_operator(surface: Surface, cfg: RunConfig, n: int | None = None,
                   formulation: str | None = None):
    n = cfg.n if n is None else n
    formulation = cfg.formulation if formulation is None else formulation
    medium = MediumParams(cfg.wavelength)
    if formulation == "efie-closed":
        return EfieOperator(surface, n, medium, OperatorConfig(variant=CLOSED))
    if formulation == "efie-open":
        return EfieOperator(surface, n, medium, OperatorConfig(variant=OPEN))
    return MfieOperator(surface, n, medium, OperatorConfig(variant=OPEN))


def _excitation(cfg: RunConfig) -> physics.PlaneWave:
    try:
        return physics.PlaneWave(cfg.polarization, cfg.direction,
                                 MediumParams(cfg.wavelength), cfg.amplitude)
    except ValueError as exc:
        raise ConfigError("excitation", str(exc)) from None


def _operator_rhs(op, wave: physics.PlaneWave):
    if isinstance(op, MfieOperator):
        return op.rhs(lambda pts: physics.plane_wave_hfield(wave, pts))
    return op.rhs(lambda pts: physics.plane_wave_eval(wave, pts))


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_rows(path: Path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(cells) for cells in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_density_csv(path: Path, op, solution):
    """Nodal current samples: location, complex components, magnitude."""
    g = op.grid
    n = g.n
    cart = op.cartesian_current(solution)
    uu, vv = np.meshgrid(g.nodes, g.nodes, indexing="ij")
    uu, vv = uu.ravel(), vv.ravel()
    rows = []
    for p, pts in enumerate(g.frames.point):
        mag = np.linalg.norm(cart[p], axis=1)
        for s in range(n * n):
            rows.append([str(p), _fmt(uu[s]), _fmt(vv[s]),
                         _fmt(pts[s, 0]), _fmt(pts[s, 1]), _fmt(pts[s, 2]),
                         _fmt(cart[p, s, 0].real), _fmt(cart[p, s, 0].imag),
                         _fmt(cart[p, s, 1].real), _fmt(cart[p, s, 1].imag),
                         _fmt(cart[p, s, 2].real), _fmt(cart[p, s, 2].imag),
                         _fmt(mag[s])])
    _write_rows(path, ["patch", "u", "v", "x", "y", "z",
                       "re_jx", "im_jx", "re_jy", "im_jy", "re_jz", "im_jz",
                       "j_mag"], rows)


def write_rcs_csv(path: Path, op, solution, cfg: RunConfig):
    g = op.grid
    theta = np.linspace(0.0, np.pi, cfg.rcs_count)
    phi = np.full_like(theta, np.radians(cfg.rcs_phi_deg))
    medium = MediumParams(cfg.wavelength)
    pattern = physics.far_field(g.expand(solution), g.surface,
                                np.stack([theta, phi], axis=1), medium,
                                g.kind, cfg.amplitude)
    rows = [[_fmt(np.degrees(t)), _fmt(db)]
            for t, db in zip(theta, pattern.rcs_db)]
    _write_rows(path, ["theta_deg", "rcs_dbsm"], rows)


def _manifest(cfg: RunConfig, op, report) -> dict:
    g = op.grid
    man = {
        "config": {
            "geometry_kind": cfg.geometry_kind,
            "geometry": dict(sorted(cfg.geometry.items())),
            "wavelength": cfg.wavelength,
            "n": cfg.n,
            "formulation": cfg.formulation,
            "tol": cfg.tol,
            "restart": cfg.restart,
            "max_iter": cfg.max_iter,
            "polarization": list(map(float, cfg.polarization)),
            "direction": list(map(float, cfg.direction)),
            "amplitude": cfg.amplitude,
        },
        "n_patches": g.surface.n_patches,
        "n_unknowns": op.n_unknowns,
        "n_unique": 2 * len(g.groups) if g.groups is not None else None,
        "iterations": report.iterations,
        "final_residual": report.history[-1],
        "converged": report.converged,
        "timing_file": "timing.json",
    }
    return man


def _json_dump(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def run_solve(cfg: RunConfig) -> int:
    surface = build_surface(cfg)
    wave = _excitation(cfg)
    t0 = time.perf_counter()
    op = build_operator(surface, cfg)
    t_build = time.perf_counter() - t0
    rhs = _operator_rhs(op, wave)
    t0 = time.perf_counter()
    report = gmres(op.apply, rhs, cfg.tol, cfg.restart, cfg.max_iter)
    t_solve = time.perf_counter() - t0
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.density:
            write_density_csv(cfg.out_dir / "density.csv", op, report.solution)
        if cfg.rcs_phi_deg is not None:
            write_rcs_csv(cfg.out_dir / "rcs.csv", op, report.solution, cfg)
        _json_dump(cfg.out_dir / "manifest.json", _manifest(cfg, op, report))
        _json_dump(cfg.out_dir / "timing.json",
                   {"build_seconds": t_build, "solve_seconds": t_solve,
                    "orth_seconds": report.orth_seconds})
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    if not report.converged:
        print(f"error: solver stopped at relative residual "
              f"{report.history[-1]:.3e} after {report.iterations} iterations",
              file=sys.stderr)
        return 1
    return 0


def _check_reference(cfg: RunConfig):
    """Fail fast if the sweep has no usable error reference."""
    if cfg.reference is not None:
        return
    if cfg.geometry_kind != "sphere":
        raise ConfigError("sweep.reference",
                          "required for non-sphere geometries")
    canonical = (np.allclose(cfg.polarization, [1.0, 0.0, 0.0])
                 and np.allclose(cfg.direction, [0.0, 0.0, 1.0]))
    if not canonical:
        raise ConfigError("excitation",
                          "series reference requires x-polarized, "
                          "z-propagating incidence")


def _reference_density(cfg: RunConfig, surface: Surface, op, wave):
    """Full-grid reference current for error columns of the sweep table."""
    if cfg.reference is None:
        diameter = cfg.geometry.get("diameter", 2.0)
        sampler, _ = physics.mie_reference(diameter, wave)
        return op.grid.project(op.grid.sample(sampler))
    try:
        data = np.load(cfg.reference)
    except OSError as exc:
        raise ConfigError("sweep.reference", f"cannot read: {exc}") from None
    key = f"n{op.grid.n}"
    if key not in data:
        raise ConfigError("sweep.reference", f"missing array {key!r}")
    full = np.asarray(data[key], dtype=complex)
    expected = 2 * surface.n_patches * op.grid.n**2
    if full.shape != (expected,):
        raise ConfigError("sweep.reference",
                          f"array {key!r} must have length {expected}")
    return op.grid.compress(full) if op.grid.kind == "closed" else full


def run_converge(cfg: RunConfig) -> int:
    if not cfg.sweep_n:
        raise ConfigError("sweep.n_values", "convergence study needs a sweep")
    _check_reference(cfg)
    surface = build_surface(cfg)
    wave = _excitation(cfg)
    rows = []
    timings = {}
    all_converged = True
    for formulation in cfg.sweep_formulations:
        for n in cfg.sweep_n:
            t0 = time.perf_counter()
            op = build_operator(surface, cfg, n, formulation)
            rhs = _operator_rhs(op, wave)
            x_ref = _reference_density(cfg, surface, op, wave)
            fwd = float(np.linalg.norm(op.apply(x_ref) - rhs)
                        / np.linalg.norm(rhs))
            report = gmres(op.apply, rhs, cfg.tol, cfg.restart, cfg.max_iter)
            sol = float(np.linalg.norm(report.solution - x_ref)
                        / np.linalg.norm(x_ref))
            all_converged &= report.converged
            rows.append([formulation, str(n), _fmt(fwd),
                         str(report.iterations), _fmt(sol)])
            timings[f"{formulation}-n{n}"] = time.perf_counter() - t0
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        _write_rows(cfg.out_dir / "convergence.csv",
                    ["formulation", "n", "forward_error", "iterations",
                     "solution_error"], rows)
        _json_dump(cfg.out_dir / "timing.json", timings)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 3
    return 0 if all_converged else 1


def run_export(cfg: RunConfig) -> int:
    surface = build_surface(cfg)
    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        save_surface(surface, cfg.out_dir / "surface.txt", cfg.wavelength,
                     cfg.export_n)
    except OSError as exc:
        print(f"error: cannot write surface: {exc}", file=sys.stderr)
        return 3
    return 0


def _thread_limit(cfg: RunConfig):
    if cfg.threads is None:
        return contextlib.nullcontext()
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print(f"warning: run.threads = {cfg.threads} not applied: threadpoolctl "
              "is not installed, so BLAS keeps its default thread count",
              file=sys.stderr)
        return contextlib.nullcontext()
    return threadpool_limits(limits=cfg.threads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nyscat",
        description="Boundary-integral scattering runs driven by a config file.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, helptext in (("solve", "solve one configuration and write tables"),
                           ("converge", "run an N sweep and write the error table"),
                           ("export", "sample the geometry into a surface file")):
        s = sub.add_parser(verb, help=helptext)
        s.add_argument("config", help="path to the INI run configuration")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        with _thread_limit(cfg):
            if args.verb == "solve":
                return run_solve(cfg)
            if args.verb == "converge":
                return run_converge(cfg)
            return run_export(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
