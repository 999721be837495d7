"""Repeat run.py over seeds and summarise the spread of every metric.

    python3 nysbench/sweep.py --seeds 1-10 [--workloads sphere-efie,...] [--trace 1]

For each workload and seed it runs the benchmark command once, then prints a
Markdown table per workload: median, first and third quartile
(statistics.quantiles, n=4) and the quartile spread as a share of the median
for each metric, plus the iteration counts, the worst power defect and Mie
RCS error over all incidences, and the host's steal time (read from the
first line of /proc/stat before and after) as a share of all CPU time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import RESULTS  # noqa: E402


def cpu_times():
    with open("/proc/stat") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return fields[7], sum(fields)  # steal, total


def seeds_of(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--trace", default="0")
    args = ap.parse_args(argv)
    seeds = seeds_of(args.seeds)
    steal0, total0 = cpu_times()
    for name in args.workloads.split(","):
        values, attempted, failed, notes = {}, 0, 0, set()
        iterations, defects, rcs_errors = set(), [], []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                notes.add(f"seed {seed}: correct=false")
            attempted += result["attempted"]
            failed += result["failed"]
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            for path in RESULTS.glob(f"{name}-{seed}-u*.json"):
                with open(path) as fh:
                    r = json.load(fh)
                iterations.update(r["iterations"])
                defects.extend(r["power_defects"])
                rcs_errors.extend(r["rcs_errors"])
        print(f"\n### {name} (seeds {args.seeds}, trace {args.trace})\n")
        print("| metric | median | q1 | q3 | (q3-q1)/median |")
        print("|---|---|---|---|---|")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {metric} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} |")
        print(f"\nattempted {attempted}, failed {failed}; iterations per incidence "
              f"{min(iterations)}-{max(iterations)}; worst power defect {max(defects):.3g}"
              + (f"; Mie RCS error {min(rcs_errors):.3g}-{max(rcs_errors):.3g}"
                 if rcs_errors else ""))
        for note in sorted(notes):
            print(f"- {note}")
    steal1, total1 = cpu_times()
    print(f"\nhost steal time during the sweep: "
          f"{100.0 * (steal1 - steal0) / max(1, total1 - total0):.2f}% of CPU time")
    return 0


if __name__ == "__main__":
    sys.exit(main())
