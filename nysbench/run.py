"""Benchmark launcher: one nyscat scattering workload, measured end to end.

    python3 nysbench/run.py --workload cube-sweep --seed 1 --seconds 60 --trace 0

Each workload run is a fresh Python process (workloads.py) started with
BLAS and OpenMP pinned to one thread through the environment, before numpy
loads.  With --trace 0 the launcher starts such processes one after another
for as long as the next one is expected to end within --seconds (always at
least one), checks that they agree bit for bit, and reports the lowest
value of every end-to-end metric over them.  With --trace 1 it runs the workload
once untraced and once traced, checks that the traced RCS values equal the
untraced ones bit for bit and that the layer counters equal quantities known
apart from the tracer, and reports the per-layer metrics.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Per-process results and the aggregated trace spans are kept under
nysbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
DEADLINE_S = 170  # a run must end within 180 s

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402  (stdlib-only module scope)

END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "power_defect": "1",
}

# name -> unit of every per-layer metric, in report order
LAYER_METRICS = {
    "geometry.frames_calls": "count",
    "geometry.frames_points": "count",
    "geometry.frames_s": "s",
    "topology.coincidence_s": "s",
    "topology.maps_s": "s",
    "topology.groups": "count",
    "singular.onpatch_rows": "count",
    "singular.onpatch_s": "s",
    "singular.near_rows": "count",
    "singular.near_s": "s",
    "singular.ladder_steps": "count",
    "singular.rows_at_last_level": "count",
    "singular.preimage_calls": "count",
    "singular.preimage_s": "s",
    "spectral.interp_calls": "count",
    "spectral.interp_s": "s",
    "green.calls": "count",
    "green.evals": "count",
    "green.s": "s",
    "operators.build_self_s": "s",
    "operators.matvec_calls": "count",
    "operators.matvec_s": "s",
    "operators.dense_bytes": "B",
    "solver.iterations": "count",
    "solver.gmres_s": "s",
    "solver.orth_s": "s",
    "physics.rhs_s": "s",
    "physics.farfield_s": "s",
    "physics.mie_s": "s",
    "trace.overhead_s": "s",
    "run.blas_threads": "count",
}

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in PINNED:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, traced: bool, tag: str, deadline: float) -> dict:
    """Run one workload process to its end and return its result."""
    out = RESULTS / f"{workload}-{seed}-{tag}.json"
    if out.exists():
        out.unlink()
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("no time left for another workload process")
    cmd = [sys.executable, str(HERE / "workloads.py"), workload, str(seed),
           repr(time.time()), "1" if traced else "0", str(out)]
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{workload} process passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RunError(f"{workload} process exited with code {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def untraced(workload: str, seed: int, seconds: float, deadline: float):
    start = time.monotonic()
    runs = []
    while True:
        t = time.monotonic()
        runs.append(spawn(workload, seed, False, f"u{len(runs)}", deadline))
        last = time.monotonic() - t
        if time.monotonic() - start + last > seconds:
            break
    # one thread, same inputs: every process must give the same numbers
    correct = all(r["rcs"] == runs[0]["rcs"] and r["iterations"] == runs[0]["iterations"]
                  for r in runs)
    # host interference only adds time, so the best of several cold processes
    # is the steadiest estimate of the program's own cost
    metrics = {name: {"value": min(r[name] for r in runs), "unit": unit}
               for name, unit in END_TO_END.items()}
    return runs, correct, metrics


def counter_mismatches(wl, layers: dict, run: dict) -> list:
    """Layer counters that disagree with quantities known apart from the tracer."""
    n_patches = 6 if wl.surface == "sphere" else 54
    expect = {
        "singular.onpatch_rows": wl.n**2 * n_patches,
        "matvec_calls_in_gmres": sum(run["iterations"]),
        "solver.iterations": sum(run["iterations"]),
        "run.blas_threads": 1,
    }
    if wl.operator == "efie":  # closed genus-0 grid: Euler characteristic 2
        expect["topology.groups"] = n_patches * (wl.n - 1) ** 2 + 2
    return [f"{k}: {layers[k]} != {v}" for k, v in expect.items() if layers[k] != v]


def traced(workload: str, seed: int, deadline: float):
    wl = WORKLOADS[workload]
    plain = spawn(workload, seed, False, "u0", deadline)
    run = spawn(workload, seed, True, "t0", deadline)
    layers = dict(run["layers"])
    layers["trace.overhead_s"] = run["total_s"] - plain["total_s"]
    layers["run.blas_threads"] = run["blas_threads"]
    problems = counter_mismatches(wl, layers, run)
    if run["rcs"] != plain["rcs"]:
        problems.append("traced RCS differs from the untraced RCS")
    for p in problems:
        print(f"trace check failed: {p}", file=sys.stderr)
    metrics = {name: {"value": layers[name], "unit": unit}
               for name, unit in LAYER_METRICS.items()}
    return [plain, run], not problems, metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "nyscat" / "__init__.py").is_file():
        print(f"error: no nyscat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            runs, correct, metrics = traced(args.workload, args.seed, deadline)
        else:
            runs, correct, metrics = untraced(args.workload, args.seed, args.seconds, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for r in runs:
        print(f"{r['workload']} seed={r['seed']} unknowns={r['unknowns']} "
              f"iterations={r['iterations']} build_s={r['build_s']:.3f} "
              f"total_s={r['total_s']:.3f} power_defects={r['power_defects']} "
              f"rcs_errors={r['rcs_errors']} failed={r['failed']}")
    if args.trace:
        with open(RESULTS / f"{args.workload}-{args.seed}-spans.json", "w") as fh:
            json.dump(runs[-1]["spans"], fh, indent=1)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
