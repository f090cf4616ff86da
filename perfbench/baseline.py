#!/usr/bin/env python3
"""Run every workload over several seeds and write perfbench/baseline.json.

Usage (from the repository root)::

    python3 perfbench/baseline.py

For every workload in BENCHMARK.json, seeds 1 to 10 are one untraced run each
of ``run_seconds``, one after another; then one traced run with seed 1.  For
every end-to-end metric the file holds the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (interquartile distance over
the median), next to the metric's bound from BENCHMARK.json.  Metrics whose
spread is above a third of their bound are listed per workload under
``expected_unresolved``: on the same machine a comparison of such a metric
between two commits is likely to be unresolved.  The traced run adds the
per-layer metrics and the per-span table of total and self times.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seeds = list(range(1, 11))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    out = {"seeds": seeds, "run_seconds": seconds,
           "machine": platform.machine(), "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        results = [run(name, seed, seconds, 0) for seed in seeds]
        metrics = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r, _ in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med if med else 0.0,
                               "bound": bound, "values": values}
            print(f"{name:10s} {metric:16s} median {med:.5g}  spread "
                  f"{metrics[metric]['spread']:.3f}  bound {bound}", flush=True)
        traced, info = run(name, seeds[0], seconds, 1)
        out["workloads"][name] = {
            "attempted": [r["attempted"] for r, _ in results],
            "failed": [r["failed"] for r, _ in results],
            "correct": all(r["correct"] for r, _ in results),
            "end_to_end": metrics,
            "expected_unresolved": sorted(
                m for m, v in metrics.items() if v["spread"] > v["bound"] / 3),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "spans": info["layers"],
            "sizes": info["sizes"],
            "env": info["env"],
        }
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
