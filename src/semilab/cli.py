"""Command-line driver: scenario loading, subcommand dispatch, report files.

Reports are written as report.json plus CSV artifacts in the output
directory.  Everything in report.json is deterministic for a fixed scenario
(seeded probes included); wall-clock timings go to a separate timings.json
so that report bytes are stable across runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
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
                        contractivity_probe_multi, trace_to_csv)
from .expressions import EvalDomainError
from .gallery import gallery_names, gallery_scenario
from .heatkernel import (block_to_csv, interior_mask, kernel_block,
                         verify_gaussian)
from .hypotheses import check_all
from .metric import (default_order, distance_map, euclid_equivalence_check,
                     weight_field, distance_to_csv)
from .pinterval import (gamma_p, gaussian_bound_rhs, growth_exponent_thm35,
                        interval_thm33, kernel_constants, psd_sweep_Mgamma)
from .scenario import Scenario, ScenarioError, parse_scenario, scenario_to_text

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
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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


def _write_report(out_dir: str, report: dict) -> None:
    _atomic_write(os.path.join(out_dir, "report.json"),
                  json.dumps(_jsonable(report), indent=2, sort_keys=True,
                             allow_nan=False) + "\n")


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
        ps = [float("inf") if x.strip() == "inf" else float(x)
              for x in args.p.split(",")]
        scn = dataclasses.replace(scn, p_list=ps)
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


def _evolve_section(scn: Scenario, F, hyp: dict, out_dir: str) -> dict:
    stepper = Stepper(F, scn.dt, scn.scheme)
    bounds = [_growth_bound(scn, hyp, p) for p in scn.p_list]
    results = contractivity_probe_multi(F, scn.p_list, scn.t_final,
                                        scn.n_samples, stepper,
                                        bounds=bounds, seed=scn.seed)
    traces = {}
    ok = True
    for p, tr in results.items():
        key = "inf" if np.isinf(p) else repr(float(p))
        traces[key] = {
            "max_slope": tr.max_slope,
            "bound": tr.bound,
            "within_bound": tr.within_bound,
            "worst_sample": tr.worst_sample,
        }
        tag = "inf" if np.isinf(p) else f"{p:g}"
        trace_to_csv(tr, os.path.join(out_dir, f"growth_p{tag}.csv"))
        ok = ok and tr.within_bound is not False
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


def _kernel_section(scn: Scenario, F, fields, hyp: dict, out_dir: str) -> dict:
    if scn.mode.kind != "kernel":
        return {"skipped": "scenario mode is not kernel", "pass": True}
    field = weight_field(fields["V"], fields["Q"], scn.mode.beta)
    # source at the central interior node
    dims = scn.grid.interior_shape
    center = np.ravel_multi_index(tuple(nk // 2 for nk in dims), dims)
    dmap = distance_map(field, scn.grid, int(center))
    stepper = Stepper(F, scn.dt, "implicit_euler")
    t = scn.t_final
    block = kernel_block(F, int(center), t, stepper, dist=dmap)
    csv_path = os.path.join(out_dir, "kernel.csv")
    r = hyp["report"]
    if r["kappa"] is None:
        block_to_csv(block, scn.grid, csv_path)
        return {"reason": "kappa is undefined: the drift bounds are not finite",
                "pass": False}
    # any positive constant is a valid drift bound when the drift vanishes
    kappa = max(r["kappa"], 1e-6)
    bundle = kernel_constants(d=scn.grid.d, beta=scn.mode.beta,
                              kappa=kappa, c=scn.mode.c, nu0=r["nu0"])
    result = verify_gaussian(block, bundle, field, scn.grid,
                             interior_mask(scn.grid))
    block_to_csv(block, scn.grid, csv_path,
                 rhs=gaussian_bound_rhs(bundle, t, dmap.dist))
    return {"bundle": dataclasses.asdict(bundle), "verification": result,
            "pass": bool(result["pass"])}


def _distance_section(scn: Scenario, fields, out_dir: str) -> dict:
    beta = scn.mode.beta if scn.mode.kind == "kernel" else 0.0
    field = weight_field(fields["V"], fields["Q"], beta)
    dims = scn.grid.interior_shape
    center = int(np.ravel_multi_index(tuple(nk // 2 for nk in dims), dims))
    dmap = distance_map(field, scn.grid, center)
    distance_to_csv(dmap, scn.grid, os.path.join(out_dir, "distance.csv"))
    q0, q1, equivalent = euclid_equivalence_check(field, scn.grid)
    finite = bool(np.all(np.isfinite(dmap.dist)))
    return {
        "source": center,
        "stencil_order": default_order(scn.grid.d),
        "max_distance": float(dmap.dist.max()),
        "euclidean_ratio_lo": q0,
        "euclidean_ratio_hi": q1,
        "euclidean_equivalent": equivalent,
        "pass": finite,
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
    fields = sample(scn.system, scn.grid)
    sections: dict = {}
    timings: dict = {}

    def timed(name, fn, *a, **kw):
        t0 = time.perf_counter()
        sections[name] = fn(*a, **kw)
        timings[name] = time.perf_counter() - t0

    need = {"check-hypotheses": ["hypotheses"],
            "p-interval": ["hypotheses", "pinterval"],
            "evolve": ["hypotheses", "evolve"],
            "nittka": ["hypotheses", "nittka"],
            "kernel": ["hypotheses", "kernel"],
            "distance": ["distance"],
            "all": ["hypotheses", "pinterval", "evolve", "nittka",
                    "kernel", "distance"]}[sub]

    F = None
    if any(s in need for s in ("evolve", "nittka", "kernel")):
        F = assemble(scn.system, scn.grid)

    if "hypotheses" in need:
        timed("hypotheses", _hypotheses_section, scn, fields)
    if "pinterval" in need:
        timed("pinterval", _pinterval_section, scn, sections["hypotheses"])
    if "evolve" in need:
        timed("evolve", _evolve_section, scn, F, sections["hypotheses"], out_dir)
    if "nittka" in need:
        timed("nittka", _nittka_section, scn, F, strict)
    if "kernel" in need:
        timed("kernel", _kernel_section, scn, F, fields,
              sections["hypotheses"], out_dir)
    if "distance" in need:
        timed("distance", _distance_section, scn, fields, out_dir)

    report = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "scenario": scn.name,
        "scenario_hash": _scenario_hash(scn),
        "seed": scn.seed,
        "sections": sections,
        "pass": all(sec.get("pass", True) for sec in sections.values()),
    }
    _write_report(out_dir, report)
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
