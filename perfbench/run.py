#!/usr/bin/env python3
"""semilab benchmark: closed-loop CLI workloads, checked and timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload probe2d --seed 1 --seconds 20 --trace 0

One process drives ``semilab.cli.main`` in-process on scenario files it
generates from the gallery and the seed, one invocation after another
(closed loop, one client), for ``--seconds`` seconds of whole rounds.  Every
invocation's exit code, section verdicts, report bytes and constants are
checked; a failed check is counted, never fatal.  The last line of stdout is
one JSON object: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1`` (a run that alternates traced and untraced
rounds).  See perfbench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def cap_threads() -> dict:
    """Cap every BLAS/OpenMP pool at the usable cores; must precede numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = nproc
        os.environ[var] = str(max(1, min(cur, nproc)))
    return {var: int(os.environ[var]) for var in THREAD_VARS}


CAPS = cap_threads()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

END_TO_END = {  # name -> unit
    "scenario_s.p50": "s",
    "scenario_s.tail": "s",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_share": "ratio",
}

PER_LAYER = {
    "coefficients.sample_s": "s",
    "coefficients.nodes": "count",
    "hypotheses.check_all_s": "s",
    "hypotheses.node_gammas": "count",
    "pinterval.self_s": "s",
    "pinterval.oracle_points": "count",
    "discrete.assemble_s": "s",
    "discrete.nnz": "count",
    "discrete.nittka_s": "s",
    "discrete.nittka_calls": "count",
    "evolution.factor_s": "s",
    "evolution.lu_fill": "count",
    "evolution.step_s": "s",
    "evolution.column_steps": "count",
    "evolution.flops": "flop",
    "evolution.bytes": "bytes",
    "evolution.gflops": "GFLOP/s",
    "evolution.probe_self_s": "s",
    "heatkernel.kernel_self_s": "s",
    "heatkernel.verify_s": "s",
    "metric.weight_field_s": "s",
    "metric.distance_s": "s",
    "metric.edges": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# per-layer time -> (span, "total" or "self"); pinterval.self_s sums spans
LAYER_TIMES = {
    "coefficients.sample_s": ("coefficients.sample", "total"),
    "hypotheses.check_all_s": ("hypotheses.check_all", "total"),
    "discrete.assemble_s": ("discrete.assemble", "self"),
    "discrete.nittka_s": ("discrete.nittka", "total"),
    "evolution.factor_s": ("evolution.factor", "total"),
    "evolution.step_s": ("evolution.step", "total"),
    "evolution.probe_self_s": ("evolution.probe", "self"),
    "heatkernel.kernel_self_s": ("heatkernel.kernel", "self"),
    "heatkernel.verify_s": ("heatkernel.verify", "total"),
    "metric.weight_field_s": ("metric.weight_field", "total"),
    "metric.distance_s": ("metric.distance", "total"),
    "cli.self_s": ("cli.main", "self"),
}

SETUP_SHARE = 0.2  # of the measured time, at most, goes to set-up repetitions
SETUP_SLOT_S = 0.05  # a set-up slot repeats a cheap set-up for this long


@dataclass
class Outcome:
    seconds: float
    exit_code: int | None
    error: str | None
    output: bytes  # report.json bytes, or stdout where no report is written
    spans: dict | None = None  # traced: {"total", "self", "counts"}


def invoke(cli, inv, out_dir, tracer=None) -> Outcome:
    report = os.path.join(out_dir, "report.json")
    if os.path.exists(report):
        os.unlink(report)
    stdout = io.StringIO()
    if tracer is not None:
        tracer.reset()
        tracer.begin("cli.main")
    t0 = time.perf_counter()
    rc, err = None, None
    try:
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(inv.argv + ["--out", out_dir])
    except Exception as exc:  # a raise is a failed invocation, not a crash
        err = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    spans = None
    if tracer is not None:
        tracer.end()
        # timings.json holds wall-clock digits, so its size is no count
        written = sum(e.stat().st_size for e in os.scandir(out_dir)
                      if e.is_file() and e.name != "timings.json"
                      ) if os.path.isdir(out_dir) else 0
        tracer.counts["cli.bytes_written"] += written
        spans = {"total": dict(tracer.total), "self": dict(tracer.self_time),
                 "counts": dict(tracer.counts)}
    if inv.sections is not None and os.path.exists(report):
        with open(report, "rb") as fh:
            output = fh.read()
    else:
        output = stdout.getvalue().encode()
    return Outcome(seconds, rc, err, output, spans=spans)


def _parse_interval(text):
    lo_s, hi_s = text[1:-1].split(", ")
    return float(lo_s), (math.inf if hi_s == "inf" else float(hi_s))


def check(inv, out: Outcome, reference: bytes | None) -> list:
    """Everything wrong with one invocation's result; empty if correct."""
    problems = []
    if out.error is not None:
        problems.append(f"raised {out.error}")
    elif out.exit_code != inv.expect_exit:
        problems.append(f"exit {out.exit_code}, expected {inv.expect_exit}")
    if out.error is None and inv.sections is not None:
        try:
            rep = json.loads(out.output)
        except ValueError:
            rep = None
        if rep is None:
            problems.append("no report.json")
        else:
            got = {k: v.get("pass", True) for k, v in rep["sections"].items()}
            if got != inv.sections:
                problems.append(f"verdicts {got}, expected {inv.sections}")
            hyp = rep["sections"].get("hypotheses", {}).get("report", {})
            for name, value in inv.closed_forms.items():
                est = hyp.get(name)
                if est is None or not est <= value + 1e-9:
                    problems.append(f"{name} = {est} above closed form {value}")
    if out.error is None and inv.interval is not None:
        text, lo, hi, points = inv.interval
        lines = out.output.decode().splitlines()
        try:
            got_lo, got_hi = _parse_interval(lines[0])
            words = lines[1].split()
            disagree, n = int(words[-3]), int(words[-1])
        except (IndexError, ValueError):
            problems.append(f"unreadable p-interval output {lines!r}")
        else:
            if text is not None and lines[0] != text:
                problems.append(f"interval {lines[0]}, expected {text}")
            for got, want in ((got_lo, lo), (got_hi, hi)):
                if want is not None and not (
                        got == want or abs(got - want) <= 1e-9 * abs(want)):
                    problems.append(f"interval {lines[0]}, expected end {want}")
            if disagree > 4 or n != points:
                problems.append(f"oracle {disagree} of {n}, expected <= 4 of "
                                f"{points}")
    if reference is not None and out.output != reference:
        problems.append("output differs from the same invocation's first run")
    return problems


def is_known_defect(inv, out: Outcome, problems: list) -> bool:
    """True if the only thing wrong is the invocation's documented defect.

    The defect is matched by its error, so any other failure of the same
    invocation (another error, or a wrong exit code) stays an unknown one.
    """
    return (inv.defect_raise is not None and out.error is not None
            and out.error.startswith(inv.defect_raise) and len(problems) == 1)


def tail(times):
    """Highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in range(99, 49, -1):
        value = _percentile(ordered, pct)
        beyond = sum(1 for t in ordered if t > value)
        if beyond >= 10:
            return value, pct, n, beyond
    value = _percentile(ordered, 50)
    return value, 50, n, sum(1 for t in ordered if t > value)


def _percentile(ordered, pct):
    pos = (len(ordered) - 1) * pct / 100
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(rounds, overhead):
    """Per-round layer times (medians) and counts from the traced rounds."""
    per_round = []
    for invs in rounds:
        total, self_t, counts = {}, {}, {}
        for sp in invs:
            for src, dst in ((sp["total"], total), (sp["self"], self_t),
                             (sp["counts"], counts)):
                for k, v in src.items():
                    dst[k] = dst.get(k, 0) + v
        row = {}
        for name, (span, kind) in LAYER_TIMES.items():
            row[name] = (total if kind == "total" else self_t).get(span, 0.0)
        row["pinterval.self_s"] = sum(v for k, v in total.items()
                                      if k.startswith("pinterval."))
        step_s = row["evolution.step_s"]
        flops = counts.get("evolution.flops", 0)
        row["evolution.gflops"] = flops / step_s / 1e9 if step_s > 0 else 0.0
        per_round.append((row, counts, total, self_t))
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.overhead_s":
            metrics[name] = overhead
        elif PER_LAYER[name] == "s" or name == "evolution.gflops":
            metrics[name] = statistics.median(r[0][name] for r in per_round)
        else:
            metrics[name] = per_round[0][1].get(name, 0)
    spans = sorted({k for r in per_round for k in r[2]})
    table = {k: {"total_s": statistics.median(r[2].get(k, 0.0) for r in per_round),
                 "self_s": statistics.median(r[3].get(k, 0.0) for r in per_round)}
             for k in spans}
    return metrics, table


def environment(np, scipy):
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "thread_caps": CAPS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy-size inputs, for the smoke test")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "semilab", "cli.py")):
        print(f"error: semilab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np
    import scipy

    import semilab.cli as cli
    from tracing import Tracer
    from workloads import WORKLOADS, make_workload, set_up

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choices: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(dir=scratch)
    try:
        wl = make_workload(args.workload, work, args.seed, args.toy)
        outs = {inv.key: os.path.join(work, "out-" + inv.key)
                for inv in wl.invocations}

        # warm-up round: fills caches and records each call's reference output
        reference = {}
        for inv in wl.invocations:
            out = invoke(cli, inv, outs[inv.key])
            reference[inv.key] = out.output if out.error is None else None

        tracer = Tracer() if args.trace else None
        rounds_plain, rounds_traced, traced_spans = [], [], []
        times, attempted, failed, known = [], 0, 0, 0
        per_call = {inv.key: [] for inv in wl.invocations}
        setup_times, setup_sizes, problems = [], None, []
        t_start = time.perf_counter()
        i = 0
        while True:
            # set-up repetitions are spread over the run, at most a fixed
            # share of it, so their median sees the same machine as the rounds
            if not setup_times or sum(setup_times) < SETUP_SHARE * (
                    time.perf_counter() - t_start):
                slot = time.perf_counter()
                while time.perf_counter() - slot < SETUP_SLOT_S:
                    gc.collect()
                    seconds, sizes = set_up(wl)
                    setup_times.append(seconds)
                    if setup_sizes is None:
                        setup_sizes = sizes
                    elif sizes != setup_sizes:
                        failed += 1
                        problems.append(f"set-up sizes {sizes} != {setup_sizes}")
            traced = tracer is not None and i % 2 == 1
            gc.collect()
            if traced:
                tracer.install()
            try:
                outcomes = [(inv, invoke(cli, inv, outs[inv.key],
                                         tracer if traced else None))
                            for inv in wl.invocations]
            finally:
                if traced:
                    tracer.uninstall()
            round_s = sum(o.seconds for _, o in outcomes)
            (rounds_traced if traced else rounds_plain).append(round_s)
            if traced:
                traced_spans.append([o.spans for _, o in outcomes])
            else:
                times += [o.seconds for _, o in outcomes]
                for inv, out in outcomes:
                    per_call[inv.key].append(out.seconds)
            for inv, out in outcomes:
                attempted += 1
                bad = check(inv, out, reference[inv.key])
                if bad:
                    failed += 1
                    if is_known_defect(inv, out, bad):
                        known += 1
                    if len(problems) < 20:
                        problems.append(f"{inv.key}: {'; '.join(bad)}")
            i += 1
            enough = len(rounds_plain) >= 1 and (
                tracer is None or len(rounds_traced) >= 1)
            if enough and time.perf_counter() - t_start >= args.seconds:
                break

        # layer counts must repeat exactly from one traced round to the next
        for k, invs in enumerate(traced_spans[1:], start=1):
            for inv, now, first in zip(wl.invocations, invs, traced_spans[0]):
                if now["counts"] != first["counts"]:
                    failed += 1
                    problems.append(f"{inv.key}: round {k} counts "
                                    f"{now['counts']} != {first['counts']}")

        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        t_val, t_pct, t_n, t_beyond = tail(times)
        run_s = statistics.median(rounds_plain)
        info = {
            "workload": wl.name, "seed": args.seed, "toy": args.toy,
            "env": environment(np, scipy),
            "rounds": {"untraced": len(rounds_plain),
                       "traced": len(rounds_traced),
                       "invocations_per_round": len(wl.invocations)},
            "sizes": {"setups": setup_sizes,
                      "invocations": {inv.key: inv.sizes
                                      for inv in wl.invocations}},
            "setup_reps": len(setup_times),
            "tail": {"percentile": t_pct, "n": t_n, "beyond": t_beyond},
            "failed_share": {"failed": failed, "attempted": attempted,
                             "value": failed / attempted},
            "known_defect_failures": known,
            "known_defects": {inv.key: inv.known_defect
                              for inv in wl.invocations if inv.known_defect},
            "problems": problems,
        }
        if tracer is None:
            # median of each call's median: pooled over calls of different
            # sizes, the plain median would sit in the gap between two sizes
            # and follow the extremes of both
            values = {"scenario_s.p50": statistics.median(
                          statistics.median(v) for v in per_call.values()),
                      "scenario_s.tail": t_val, "run_s": run_s,
                      "setup_s": statistics.median(setup_times),
                      "peak_rss_mb": peak_rss_mb,
                      "ok_share": (attempted - failed) / attempted}
            units = END_TO_END
        else:
            # each traced round follows an untraced round of the same calls
            overhead = statistics.median(
                t - u for u, t in zip(rounds_plain, rounds_traced))
            values, info["layers"] = layer_metrics(traced_spans, overhead)
            units = PER_LAYER
        for name, unit in units.items():
            print(f"# {name:26s} {values[name]:.6g} {unit}")
        print(json.dumps({"info": info}, sort_keys=True))
        print(json.dumps({
            "correct": failed == known,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(scratch)  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
