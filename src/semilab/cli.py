"""Command-line driver: scenario loading, subcommand dispatch, report files.

Reports are written as report.json plus CSV artifacts in the output
directory.  The numerical modules return arrays and this module writes
every file, each one atomically.  Everything in report.json is
deterministic for a fixed scenario (seeded probes included); wall-clock
timings go to a separate timings.json so that report bytes are stable
across runs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .coefficients import sample
from .discrete import assemble, lp_power, nittka_shifted, node_norms
from .evolution import (Stepper, band_limited_random,
                        contractivity_probe_multi, march_workers)
from .expressions import EvalDomainError
from .gallery import gallery_names, gallery_scenario
from .heatkernel import kernel_block, verify_gaussian
from .hypotheses import check_all
from .metric import (default_order, distance_map, euclid_equivalence_check,
                     weight_field)
from .pinterval import (gamma_p, gaussian_bound_rhs, growth_exponent_thm35,
                        interval_thm33, kernel_constants, psd_sweep_Mgamma)
from .scenario import (Scenario, ScenarioError, parse_p_list, parse_scenario,
                       scenario_to_text)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

# grid steps of PSD-oracle disagreement allowed (a couple at each endpoint)
ORACLE_SLACK = 4

SUBCOMMANDS = ("check-hypotheses", "p-interval", "evolve", "nittka",
               "kernel", "distance", "gallery", "all")


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, rows) -> None:
    buf = io.StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    wr.writerows(rows)
    _atomic_write(path, buf.getvalue())


def _axes(grid) -> list:
    """CSV header names of the node coordinates."""
    return [f"x{k + 1}" for k in range(grid.d)]


def _jsonable(obj):
    """Plain JSON data for ``obj``; a non-finite float becomes None (null),
    since strict JSON has no NaN or Infinity."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    elif isinstance(obj, (np.ndarray, np.floating, np.integer)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _scenario_hash(scn: Scenario) -> str:
    return hashlib.sha256(scenario_to_text(scn).encode()).hexdigest()[:16]


def _load_scenario(args) -> Scenario:
    if args.scenario is None:
        raise ScenarioError("no scenario given (use --scenario PATH or "
                            "--scenario gallery:NAME)")
    if args.scenario.startswith("gallery:"):
        scn = gallery_scenario(args.scenario.split(":", 1)[1])
    else:
        scn = parse_scenario(args.scenario)
    if args.grid is not None:
        ns = [int(x) for x in args.grid.split(",")]
        if len(ns) == 1:
            ns = ns * scn.grid.d
        scn = dataclasses.replace(
            scn, grid=dataclasses.replace(scn.grid, n=tuple(ns)))
    if args.dt is not None:
        scn = dataclasses.replace(scn, dt=args.dt)
    if args.p is not None:
        scn = dataclasses.replace(scn, p_list=parse_p_list(args.p))
    if args.seed is not None:
        scn = dataclasses.replace(scn, seed=args.seed)
    return scn


def _hypotheses_section(scn: Scenario, fields) -> dict:
    rep = check_all(fields, mode=scn.mode)
    return {
        "report": dataclasses.asdict(rep),
        "pass": rep.all_pass,
    }


def _oracle_disagreements(constants: tuple, iv, grid: np.ndarray) -> int:
    """Points of ``grid`` where the PSD-sweep oracle and the interval differ."""
    admissible = psd_sweep_Mgamma(*constants, grid)
    mask = np.isin(grid, admissible)
    return int(np.sum(mask != np.array([iv.contains(p) for p in grid])))


def _pinterval_section(scn: Scenario, hyp: dict) -> dict:
    r = hyp["report"]
    constants = (r["kappaA"], r["kappaB"], r["kappaC"], r["kappaW"], r["gamma"])
    out: dict = {"constants": dict(zip(
        ("kappaA", "kappaB", "kappaC", "kappaW", "gamma"), constants))}
    K = out["K"] = r["K"]
    if not np.isfinite(K) or K <= 0 or not np.isfinite(r["kappaA"]):
        out["interval"] = None
        out["pass"] = False
        return out
    iv = interval_thm33(*constants)
    out["interval"] = str(iv)
    out["interval_lo"] = iv.lo
    out["interval_hi"] = None if np.isinf(iv.hi) else iv.hi
    hi = iv.hi if np.isfinite(iv.hi) else max(4.0, 2 * iv.lo + 2)
    grid = np.arange(max(1.0 + 1e-3, iv.lo - 0.2), hi + 0.2, 1e-3)
    disagreements = _oracle_disagreements(constants, iv, grid)
    out["oracle_grid_points"] = int(grid.size)
    out["oracle_disagreements"] = disagreements
    out["p_list_inside"] = [bool(iv.contains(p)) for p in scn.p_list
                            if np.isfinite(p)]
    out["pass"] = disagreements <= ORACLE_SLACK
    return out


def _growth_bound(scn: Scenario, hyp: dict, p: float) -> float | None:
    """Exponential growth-rate bound for the p-norm, or None if p is not
    covered by the declared mode at the estimated constants."""
    if np.isinf(p):
        return None
    r = hyp["report"]
    kA, kB, kC, kW = r["kappaA"], r["kappaB"], r["kappaC"], r["kappaW"]
    if not all(np.isfinite(x) for x in (kA, kB, kC, kW)):
        return None
    if scn.mode.kind == "fixed_gamma":
        try:
            iv = interval_thm33(kA, kB, kC, kW, scn.mode.gamma)
        except ValueError:
            return None
        if not iv.contains(p):
            return None
        return scn.mode.Cgamma / scn.mode.gamma
    try:
        g = gamma_p(kA, kB, kC, kW, p)
    except ValueError:
        return None
    if np.isinf(g):
        return 0.0
    return growth_exponent_thm35(scn.mode.weight, p, g)


def _evolve_section(scn: Scenario, F, stepper, hyp: dict,
                    out_dir: str) -> dict:
    bounds = {p: _growth_bound(scn, hyp, p) for p in scn.p_list}
    results = contractivity_probe_multi(F, scn.p_list, scn.t_final,
                                        scn.n_samples, stepper, seed=scn.seed)
    traces = {}
    ok = True
    for p, tr in results.items():
        bound = bounds[p]
        within = None if bound is None else bool(tr.max_slope <= bound)
        key = "inf" if np.isinf(p) else repr(float(p))
        traces[key] = {
            "max_slope": tr.max_slope,
            "bound": bound,
            "within_bound": within,
            "worst_sample": tr.worst_sample,
        }
        tag = "inf" if np.isinf(p) else f"{p:g}"
        _write_csv(os.path.join(out_dir, f"growth_p{tag}.csv"),
                   ["t", "worst_norm", "worst_slope", "bound"],
                   ([t, float(norms.max()), float(slopes.max()),
                     "" if bound is None else bound]
                    for t, norms, slopes in zip(tr.times, tr.norms, tr.slopes)))
        ok = ok and within is not False
    return {"traces": traces, "pass": ok}


def _nittka_section(scn: Scenario, F, strict: bool) -> dict:
    rng = np.random.default_rng(scn.seed + 1)
    u = band_limited_random(F.grid, F.m, rng, scn.n_samples)
    gamma = scn.mode.gamma if scn.mode.kind == "fixed_gamma" else 1.0
    Cgamma = scn.mode.weight(gamma)
    values = {}
    findings = []
    ok = True
    for p in scn.p_list:
        if not np.isfinite(p):
            continue
        vals = nittka_shifted(F, u, p, Cgamma, gamma)
        worst = int(np.argmin(vals))
        vmin = float(vals[worst])
        values[repr(float(p))] = vmin
        if p == 2.0:
            ok = ok and vmin >= -1e-10 * max(1.0, abs(vmin))
        elif vmin < 0:
            # ||u||_p^p of the sample attaining the minimum: the size of the
            # shifted quantity the defect is measured against
            scale = max(float(lp_power(node_norms(u[:, worst], F.m), p,
                                       F.mass)), 1e-30)
            findings.append(
                {"p": p, "min_shifted_value": vmin, "scale": scale})
    if strict and findings:
        ok = False
    return {"gamma": gamma, "Cgamma": Cgamma, "min_shifted": values,
            "findings": findings, "pass": ok}


def _central_distances(scn: Scenario, fields):
    """The central interior node, the weight field (beta of the kernel
    mode, else 0) and the distances from that node."""
    beta = scn.mode.beta if scn.mode.kind == "kernel" else 0.0
    field = weight_field(fields["V"], fields["Q"], beta)
    dims = scn.grid.interior_shape
    center = int(np.ravel_multi_index(tuple(nk // 2 for nk in dims), dims))
    return center, field, distance_map(field, scn.grid, center)


def _kernel_section(scn: Scenario, F, stepper, geometry, hyp: dict,
                    out_dir: str) -> dict:
    if scn.mode.kind != "kernel":
        return {"skipped": "scenario mode is not kernel", "pass": True}
    center, field, dist = geometry
    t = scn.t_final
    values = kernel_block(F, center, t, stepper)
    r = hyp["report"]
    if r["kappa"] is None:
        rhs = None
        out = {"reason": "kappa is undefined: the drift bounds are not finite",
               "pass": False}
    else:
        # any positive constant is a valid drift bound when the drift vanishes
        kappa = max(r["kappa"], 1e-6)
        bundle = kernel_constants(d=scn.grid.d, beta=scn.mode.beta,
                                  kappa=kappa, c=scn.mode.c, nu0=r["nu0"])
        rhs = gaussian_bound_rhs(bundle, t, dist)
        result = verify_gaussian(values, rhs, scn.grid)
        out = {"bundle": dataclasses.asdict(bundle),
               "verification": {"t": t, "source": center, **result},
               "pass": result["pass"]}
    coords = scn.grid.node_coords()
    _write_csv(os.path.join(out_dir, "kernel.csv"),
               _axes(scn.grid) + ["source", "i", "j", "value", "distance",
                                  "bound", "margin"],
               (list(coords[n]) + [center, i, j, v, dist[n]]
                + (["", ""] if rhs is None else [rhs[n], rhs[n] - abs(v)])
                for (n, i, j), v in np.ndenumerate(values)))
    return out


def _distance_section(scn: Scenario, geometry, out_dir: str) -> dict:
    center, field, dist = geometry
    _write_csv(os.path.join(out_dir, "distance.csv"),
               _axes(scn.grid) + ["distance"],
               (list(xy) + [dv] for xy, dv in zip(scn.grid.node_coords(), dist)))
    q0, q1, equivalent = euclid_equivalence_check(field)
    return {
        "source": center,
        "stencil_order": default_order(scn.grid.d),
        "max_distance": float(dist.max()),
        "euclidean_ratio_lo": q0,
        "euclidean_ratio_hi": q1,
        "euclidean_equivalent": equivalent,
        "pass": bool(np.all(np.isfinite(dist))),
    }


def _gallery_listing() -> str:
    lines = []
    for key in gallery_names():
        scn = gallery_scenario(key)
        consts = ", ".join(f"{k}={v:g}" for k, v in sorted(scn.closed_forms.items()))
        lines.append(f"{key:14s} {scn.name:28s} mode={scn.mode.kind:11s} {consts}")
    return "\n".join(lines)


def _run_scenario(scn: Scenario, sub: str, out_dir: str, strict: bool) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    sections: dict = {}
    timings: dict = {}

    def timed(name, fn, *a, **kw):
        """fn(*a, **kw), its wall time added to timings[name]."""
        t0 = time.perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            timings[name] = timings.get(name, 0.0) + time.perf_counter() - t0

    fields = timed("sample", sample, scn.system, scn.grid)

    need = {"check-hypotheses": ["hypotheses"],
            "p-interval": ["hypotheses", "pinterval"],
            "evolve": ["hypotheses", "evolve"],
            "nittka": ["hypotheses", "nittka"],
            "kernel": ["hypotheses", "kernel"],
            "distance": ["distance"],
            "all": ["hypotheses", "pinterval", "evolve", "nittka",
                    "kernel", "distance"]}[sub]

    F = geometry = None
    if any(s in need for s in ("evolve", "nittka", "kernel")):
        F = timed("assemble", assemble, scn.system, scn.grid)
    # one Stepper (one factorization) per scheme, built on first use
    stepper_for = functools.cache(
        lambda scheme: timed("factor", Stepper, F, scn.dt, scheme))
    kernel_mode = scn.mode.kind == "kernel"

    if "hypotheses" in need:
        sections["hypotheses"] = timed("hypotheses", _hypotheses_section,
                                       scn, fields)
    if "pinterval" in need:
        sections["pinterval"] = timed("pinterval", _pinterval_section, scn,
                                      sections["hypotheses"])
    if "evolve" in need:
        stepper = stepper_for(scn.scheme)
        sections["evolve"] = timed("evolve", _evolve_section, scn, F, stepper,
                                   sections["hypotheses"], out_dir)
        timings["probe_workers"] = march_workers(
            stepper, scn.n_samples, round(scn.t_final / scn.dt))
    if "nittka" in need:
        sections["nittka"] = timed("nittka", _nittka_section, scn, F, strict)
    if "distance" in need or ("kernel" in need and kernel_mode):
        geometry = timed("central_distances", _central_distances, scn, fields)
    if "kernel" in need:
        sections["kernel"] = timed(
            "kernel", _kernel_section, scn, F,
            stepper_for("implicit_euler") if kernel_mode else None, geometry,
            sections["hypotheses"], out_dir)
    if "distance" in need:
        sections["distance"] = timed("distance", _distance_section, scn,
                                     geometry, out_dir)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario": scn.name,
        "scenario_hash": _scenario_hash(scn),
        "seed": scn.seed,
        "sections": sections,
        "pass": all(sec.get("pass", True) for sec in sections.values()),
    }
    _atomic_write(os.path.join(out_dir, "report.json"),
                  json.dumps(_jsonable(report), indent=2, sort_keys=True,
                             allow_nan=False) + "\n")
    _atomic_write(os.path.join(out_dir, "timings.json"),
                  json.dumps(timings, indent=2, sort_keys=True) + "\n")
    return report


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semilab",
        description="structural checks, p-norm probes, kernel and distance "
                    "diagnostics for divergence-form systems")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--scenario", help="scenario file path or gallery:NAME")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--grid", help="grid override, N or N1,N2,...")
    ap.add_argument("--dt", type=float, help="time step override")
    ap.add_argument("--p", help="comma list of p values (inf allowed)")
    ap.add_argument("--seed", type=int, help="seed override")
    ap.add_argument("--strict", action="store_true",
                    help="treat findings as failures")
    ap.add_argument("--list", action="store_true",
                    help="with gallery: list built-in scenarios")
    ap.add_argument("--constants", metavar="kA,kB,kC,kW,gamma",
                    help="with p-interval: run on bare constants, no scenario")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "gallery":
            if args.list:
                print(_gallery_listing())
                return EXIT_OK
            os.makedirs(args.out, exist_ok=True)
            overall = True
            for key in gallery_names():
                rep = _run_scenario(gallery_scenario(key), "check-hypotheses",
                                    os.path.join(args.out, key), args.strict)
                print(f"{key}: {'pass' if rep['pass'] else 'FAIL'}")
                overall = overall and rep["pass"]
            return EXIT_OK if overall else EXIT_CHECK_FAILED

        if args.subcommand == "p-interval" and args.constants is not None:
            vals = [float(x) for x in args.constants.split(",")]
            if len(vals) != 5:
                raise ScenarioError("--constants needs kA,kB,kC,kW,gamma")
            iv = interval_thm33(*vals)
            grid = np.arange(1.0 + 1e-3,
                             (iv.hi if np.isfinite(iv.hi) else 2 * iv.lo + 4) + 0.2,
                             1e-3)
            disagree = _oracle_disagreements(tuple(vals), iv, grid)
            print(str(iv))
            print(f"psd-oracle disagreements: {disagree} of {grid.size}")
            return EXIT_OK if disagree <= ORACLE_SLACK else EXIT_CHECK_FAILED

        scn = _load_scenario(args)
        report = _run_scenario(scn, args.subcommand, args.out, args.strict)
        for name, sec in report["sections"].items():
            print(f"{name}: {'pass' if sec.get('pass', True) else 'FAIL'}")
        return EXIT_OK if report["pass"] else EXIT_CHECK_FAILED
    except (ScenarioError, ValueError, KeyError, OSError,
            EvalDomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FloatingPointError as err:
        # the evolution blew up: the run itself is the failed check
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
