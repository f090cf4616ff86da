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
import itertools
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
                        contractivity_probe_multi, march_steps, march_workers)
from .expressions import EvalDomainError
from .gallery import gallery_names, gallery_scenario
from .heatkernel import deltas, kernel_block, verify_gaussian
from .hypotheses import check_all
from .metric import (MetricError, default_order, distance_map,
                     euclid_equivalence_check, weight_field)
from .pinterval import (gamma_p, gaussian_bound_rhs, interval_thm33,
                        kernel_constants, psd_sweep_Mgamma)
from .scenario import (Scenario, ScenarioError, parse_p_list, parse_scenario,
                       scenario_to_text)

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2

# grid steps of PSD-oracle disagreement allowed (a couple at each endpoint)
ORACLE_SLACK = 4
# the oracle's 1e-3 steps end here, since past it they would grow with the
# interval's end (4e8 points at an end of 4e5); a farther end gets a window
# of 2 ORACLE_WINDOW + 1 points
ORACLE_UNIFORM_TO = 100.0
ORACLE_WINDOW = 20

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


# rows of a node CSV formatted at once, so that no list of the whole file is
# held
CSV_CHUNK = 256


def _write_node_csv(path: str, grid, header: list, nodes: np.ndarray,
                    columns: list) -> None:
    """A CSV with one row per entry of ``nodes``: that interior node's
    coordinates, then one field of each of ``columns``, a string repeated on
    every row or an array with one value per row.  Each value is written as
    ``_write_csv`` writes it, repr of a float or int, with the same bytes; an
    axis value is formatted once, not once per node."""
    axes = [[repr(x) for x in grid.axis_nodes(k).tolist()]
            for k in range(grid.d)]
    buf = io.StringIO()
    buf.write(",".join(header) + "\r\n")
    for k in range(0, len(nodes), CSV_CHUNK):
        at = np.unravel_index(nodes[k:k + CSV_CHUNK], grid.interior_shape)
        fields = [map(text.__getitem__, i.tolist()) for text, i in zip(axes, at)]
        fields += [itertools.repeat(c) if isinstance(c, str)
                   else map(repr, c[k:k + CSV_CHUNK].tolist()) for c in columns]
        buf.write("".join([",".join(row) + "\r\n" for row in zip(*fields)]))
    _atomic_write(path, buf.getvalue())


def _axes(grid) -> list:
    """CSV header names of the node coordinates."""
    return [f"x{k + 1}" for k in range(grid.d)]


def _jsonable(obj):
    """``obj``, built of dicts, lists and scalars, with each non-finite float
    made None (null), since strict JSON has no NaN or Infinity."""
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
        if args.seed < 0:
            raise ScenarioError(f"--seed must be non-negative, got {args.seed}")
        scn = dataclasses.replace(scn, seed=args.seed)
    return scn


def _hypotheses_section(run: Run) -> dict:
    return {"report": dataclasses.asdict(run.hypotheses),
            "pass": run.hypotheses.all_pass}


def _oracle_check(constants: tuple, iv) -> tuple:
    """(points where the PSD-sweep oracle and ``iv`` differ, grid size) on p
    in steps of 1e-3 from 1.001 to 0.2 past the upper end of ``iv`` (past
    2 lo + 4 if there is none).  The steps stop at ORACLE_UNIFORM_TO + 0.2:
    an end beyond it gets a window of its own, 2 ORACLE_WINDOW + 1 points in
    relative steps of 1e-5, so the grid stays small whatever the end."""
    hi = iv.hi if np.isfinite(iv.hi) else 2 * iv.lo + 4
    grid = np.arange(1.0 + 1e-3, min(hi, ORACLE_UNIFORM_TO) + 0.2, 1e-3)
    if hi > ORACLE_UNIFORM_TO:
        with np.errstate(over="ignore"):  # an end near the float maximum
            window = hi * (1 + 1e-5 * np.arange(-ORACLE_WINDOW,
                                                ORACLE_WINDOW + 1))
        grid = np.unique(np.concatenate([grid, window[np.isfinite(window)]]))
    return (int(np.sum(psd_sweep_Mgamma(*constants, grid) != iv.contains(grid))),
            grid.size)


def _pinterval_section(run: Run) -> dict:
    h, iv = run.hypotheses, run.interval
    constants = (h.kappaA, h.kappaB, h.kappaC, h.kappaW, h.gamma)
    out = {"constants": dict(zip(
        ("kappaA", "kappaB", "kappaC", "kappaW", "gamma"), constants)),
        "K": h.K, "interval": None, "pass": False}
    if iv is None:
        return out
    out["interval"] = str(iv)
    out["interval_lo"] = iv.lo
    out["interval_hi"] = None if np.isinf(iv.hi) else iv.hi
    disagreements, out["oracle_grid_points"] = _oracle_check(constants, iv)
    out["oracle_disagreements"] = disagreements
    out["p_list_inside"] = [bool(iv.contains(p)) for p in run.scn.p_list
                            if np.isfinite(p)]
    out["pass"] = disagreements <= ORACLE_SLACK
    return out


def _growth_rate(run: Run, p: float) -> float | None:
    """Exponential growth rate R(gamma)/gamma of the p-norm, or None if p is
    not covered by the declared mode at the estimated constants: gamma is
    the fixed gamma where p lies in the Theorem 3.3 interval, else gamma_p
    of Theorem 3.5 (gamma_p = inf gives 0, and a rate beyond the float
    range is inf)."""
    mode, h = run.scn.mode, run.hypotheses
    if mode.kind == "fixed_gamma":
        if run.interval is None or not run.interval.contains(p):
            return None
        gamma = mode.gamma
    else:
        try:
            gamma = gamma_p(h.kappaA, h.kappaB, h.kappaC, h.kappaW, p)
        except ValueError:
            return None
    return mode.weight(gamma) / gamma


def _growth_bound(run: Run, p: float) -> float | None:
    """Bound on the p-norm's slopes under implicit-Euler steps of dt, or None
    where ``_growth_rate`` is.  A form l^p-quasi-dissipative with shift
    w = _growth_rate makes one step a map of norm at most 1/(1 - dt w)
    (Lumer and Phillips 1961), so a slope is at most -log1p(-dt w)/dt, never
    below w, and unbounded (inf) where dt w >= 1."""
    w, dt = _growth_rate(run, p), run.scn.dt
    if w is None:
        return None
    return max(w, -math.log1p(-dt * w) / dt) if dt * w < 1 else math.inf


def _evolve_section(run: Run) -> dict:
    scn = run.scn
    stepper = run.stepper(scn.scheme)
    # the explicit half of a Crank-Nicolson step need not be contractive in
    # l^p, so its slopes are reported with no bound
    unbounded = scn.scheme != "implicit_euler"
    bounds = {p: None if unbounded else _growth_bound(run, p)
              for p in scn.p_list}
    # a kernel-mode run that also reports the kernel marches its deltas here
    riders = (None if run.kernel_source is None
              else deltas(run.F, run.kernel_source))
    results = contractivity_probe_multi(stepper, scn.p_list, scn.t_final,
                                        scn.n_samples, seed=scn.seed,
                                        riders=riders)
    if riders is not None:
        results, run.marched_deltas = results
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
        _write_csv(os.path.join(run.out_dir, f"growth_p{tag}.csv"),
                   ["t", "worst_norm", "worst_slope", "bound"],
                   ([t, float(norms.max()), float(slopes.max()),
                     "" if bound is None else bound]
                    for t, norms, slopes in zip(tr.times, tr.norms, tr.slopes)))
        ok = ok and within is not False
    columns = scn.n_samples + (0 if riders is None else riders.shape[1])
    run.timings["probe_workers"] = march_workers(
        stepper, columns, march_steps(scn.t_final, scn.dt))
    out = {"traces": traces, "pass": ok}
    if unbounded:
        out["unbounded"] = ("the growth bound covers the implicit-Euler "
                            "step only")
    return out


def _nittka_section(run: Run) -> dict:
    scn, F = run.scn, run.F
    rng = np.random.default_rng(scn.seed + 1)
    u = band_limited_random(F.grid, F.m, rng, scn.n_samples)
    # the sign test is homogeneous of degree p, so max |u| = 1 keeps its sign,
    # and a huge p does not underflow |u|^p to 0 at every node
    u = u / node_norms(u, F.m).max(axis=0)
    gamma = run.hypotheses.gamma
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
    if run.strict and findings:
        ok = False
    return {"gamma": gamma, "Cgamma": Cgamma, "min_shifted": values,
            "findings": findings, "pass": ok}


def _central_node(grid) -> int:
    """The central interior node, the source of the kernel and distances."""
    dims = grid.interior_shape
    return int(np.ravel_multi_index(tuple(nk // 2 for nk in dims), dims))


def _central_distances(scn: Scenario, fields):
    """The central interior node, the weight field (beta of the kernel
    mode, else 0) and the distances from that node."""
    beta = scn.mode.beta if scn.mode.kind == "kernel" else 0.0
    field = weight_field(fields["V"], fields["Q"], beta)
    center = _central_node(scn.grid)
    return center, field, distance_map(field, scn.grid, center)


def _kernel_section(run: Run) -> dict:
    scn = run.scn
    if scn.mode.kind != "kernel":
        return {"skipped": "scenario mode is not kernel", "pass": True}
    center, field, dist = run.geometry
    t = scn.t_final
    values = kernel_block(run.stepper("implicit_euler"), center, t,
                          marched=run.marched_deltas)
    h = run.hypotheses
    try:
        if h.kappa is None:
            raise ValueError(
                "kappa is undefined: the drift bounds are not finite")
        # any positive constant is a valid drift bound when the drift vanishes
        bundle = kernel_constants(d=scn.grid.d, beta=scn.mode.beta,
                                  kappa=max(h.kappa, 1e-6), c=scn.mode.c,
                                  nu0=h.nu0)
    except ValueError as err:  # the bound is undefined: no bound column
        rhs, out = None, {"reason": str(err), "pass": False}
    else:
        rhs = gaussian_bound_rhs(bundle, t, dist)
        result = verify_gaussian(values, rhs, scn.grid)
        out = {"bundle": dataclasses.asdict(bundle),
               "verification": {"t": t, "source": center, **result},
               "pass": result["pass"]}
    # one row per kernel entry (n, i, j)
    n, i, j = np.indices(values.shape).reshape(3, -1)
    v = values.reshape(-1)
    # the bound and margin columns are blank where the bound is undefined
    bound = ["", ""] if rhs is None else [rhs[n], rhs[n] - np.abs(v)]
    _write_node_csv(os.path.join(run.out_dir, "kernel.csv"), scn.grid,
                    _axes(scn.grid) + ["source", "i", "j", "value",
                                       "distance", "bound", "margin"],
                    n, [str(center), i, j, v, dist[n]] + bound)
    return out


def _distance_section(run: Run) -> dict:
    center, field, dist = run.geometry
    grid = run.scn.grid
    _write_node_csv(os.path.join(run.out_dir, "distance.csv"), grid,
                    _axes(grid) + ["distance"], np.arange(grid.node_count),
                    [dist])
    q0, q1, equivalent = euclid_equivalence_check(field)
    return {
        "source": center,
        "stencil_order": default_order(grid.d),
        "max_distance": float(dist.max()),
        "euclidean_ratio_lo": q0,
        "euclidean_ratio_hi": q1,
        "euclidean_equivalent": equivalent,
        "pass": bool(np.all(np.isfinite(dist))),
    }


# section name -> (section function, whether the section uses the form on
# every scenario), in report order; each section takes the Run and reads what
# it needs from it, and a MetricError it raises fails it with that reason
SECTIONS = {"hypotheses": (_hypotheses_section, False),
            "pinterval": (_pinterval_section, False),
            "evolve": (_evolve_section, True),
            "nittka": (_nittka_section, True),
            "kernel": (_kernel_section, False),
            "distance": (_distance_section, False)}

# subcommand -> the sections it reports (gallery: for each built-in scenario)
RUNS = {"check-hypotheses": ("hypotheses",),
        "p-interval": ("hypotheses", "pinterval"),
        "evolve": ("hypotheses", "evolve"),
        "nittka": ("hypotheses", "nittka"),
        "kernel": ("hypotheses", "kernel"),
        "distance": ("distance",),
        "gallery": ("hypotheses",),
        "all": tuple(SECTIONS)}


class Run:
    """One scenario run: its phase timings and what its sections share, each
    built once on first use.  Sampling, assembly, factorization and the
    central distances are timed as their own phases; the hypotheses report
    and the p-interval are charged to the section that first reads them.
    Layer functions are looked up in this module at call time.

    ``kernel_source`` is the kernel's source node where the growth probe
    marches the kernel's deltas (else None); the probe leaves them at
    t_final in ``marched_deltas``."""

    def __init__(self, scn: Scenario, out_dir: str, strict: bool,
                 kernel_source: int | None = None):
        self.scn, self.out_dir, self.strict = scn, out_dir, strict
        self.kernel_source = kernel_source
        self.marched_deltas = None
        self.timings: dict = {}
        self._inner: list = []  # per open phase, the time of phases inside it
        self._steppers: dict = {}

    def timed(self, name: str, fn, *a, **kw):
        """fn(*a, **kw); its wall time, less that of the phases timed inside
        it, is added to timings[name]."""
        self._inner.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*a, **kw)
        finally:
            wall = time.perf_counter() - t0
            self.timings[name] = (self.timings.get(name, 0.0) + wall
                                  - self._inner.pop())
            if self._inner:
                self._inner[-1] += wall

    @functools.cached_property
    def fields(self):
        return self.timed("sample", sample, self.scn.system, self.scn.grid)

    @functools.cached_property
    def F(self):
        return self.timed("assemble", assemble, self.scn.system, self.scn.grid,
                          self.fields)

    def stepper(self, scheme: str) -> Stepper:
        """The run's one Stepper (one factorization) for ``scheme``."""
        if scheme not in self._steppers:
            self._steppers[scheme] = self.timed("factor", Stepper, self.F,
                                                self.scn.dt, scheme)
        return self._steppers[scheme]

    @functools.cached_property
    def hypotheses(self):
        """The HypothesisReport of the sampled fields."""
        return check_all(self.fields, mode=self.scn.mode)

    @functools.cached_property
    def interval(self):
        """The Theorem 3.3 p-interval at the report's constants; None unless
        K and kappa_A are finite and K > 0."""
        h = self.hypotheses
        if not (0 < h.K < math.inf and math.isfinite(h.kappaA)):
            return None
        return interval_thm33(h.kappaA, h.kappaB, h.kappaC, h.kappaW, h.gamma)

    @functools.cached_property
    def geometry(self):
        """_central_distances; raises MetricError where they are undefined."""
        return self.timed("central_distances", _central_distances,
                          self.scn, self.fields)


def _gallery_listing() -> str:
    lines = []
    for key in gallery_names():
        scn = gallery_scenario(key)
        consts = ", ".join(f"{k}={v:g}" for k, v in sorted(scn.closed_forms.items()))
        lines.append(f"{key:14s} {scn.name:28s} mode={scn.mode.kind:11s} {consts}")
    return "\n".join(lines)


def _run_scenario(scn: Scenario, sub: str, out_dir: str, strict: bool) -> dict:
    names = RUNS[sub]
    kernel = "kernel" in names and scn.mode.kind == "kernel"
    # the time step and t_final of a run that steps are checked before any
    # work, as its stepping sections check them
    if "evolve" in names or kernel:
        march_steps(scn.t_final, scn.dt)
    # one march serves the probe and the kernel where the probe steps with
    # the kernel's scheme
    merged = (kernel and "evolve" in names
              and scn.scheme == "implicit_euler")
    os.makedirs(out_dir, exist_ok=True)
    run = Run(scn, out_dir, strict,
              _central_node(scn.grid) if merged else None)
    # sample, then assemble (if a section always uses the form) before any
    # section: the long-lived form built first keeps the peak memory lower
    run.fields
    if any(SECTIONS[name][1] for name in names):
        run.F
    sections = {}
    for name in names:
        try:
            sections[name] = run.timed(name, SECTIONS[name][0], run)
        except MetricError as err:
            sections[name] = {"reason": str(err), "pass": False}

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
                  json.dumps(run.timings, indent=2, sort_keys=True) + "\n")
    return report


PARSER = argparse.ArgumentParser(
    prog="semilab",
    description="structural checks, p-norm probes, kernel and distance "
                "diagnostics for divergence-form systems")
PARSER.add_argument("subcommand", choices=list(RUNS))
PARSER.add_argument("--scenario", help="scenario file path or gallery:NAME")
PARSER.add_argument("--out", default="out", help="output directory")
PARSER.add_argument("--grid", help="grid override, N or N1,N2,...")
PARSER.add_argument("--dt", type=float, help="time step override")
PARSER.add_argument("--p", help="comma list of p values (inf allowed)")
PARSER.add_argument("--seed", type=int, help="seed override")
PARSER.add_argument("--strict", action="store_true",
                    help="treat findings as failures")
PARSER.add_argument("--list", action="store_true",
                    help="with gallery: list built-in scenarios")
PARSER.add_argument("--constants", metavar="kA,kB,kC,kW,gamma",
                    help="with p-interval: run on bare constants, no scenario")
VALUE_OPTIONS = frozenset(name for action in PARSER._actions if action.nargs is None
                          for name in action.option_strings)


def _attach_values(argv: list) -> list:
    """``argv`` with each ``--name -x`` written ``--name=-x``, for the options
    that take a value.  argparse takes a token such as -inf or -1e-3 for an
    option flag, not for a negative value; every option here is long, so a
    token with one leading dash after such an option can only be its value."""
    out = []
    for tok in argv:
        if (out and out[-1] in VALUE_OPTIONS and tok.startswith("-")
                and not tok.startswith("--")):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    args = PARSER.parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.subcommand == "gallery":
            if args.list:
                print(_gallery_listing())
                return EXIT_OK
            os.makedirs(args.out, exist_ok=True)
            overall = True
            for key in gallery_names():
                rep = _run_scenario(gallery_scenario(key), "gallery",
                                    os.path.join(args.out, key), args.strict)
                print(f"{key}: {'pass' if rep['pass'] else 'FAIL'}")
                overall = overall and rep["pass"]
            return EXIT_OK if overall else EXIT_CHECK_FAILED

        if args.subcommand == "p-interval" and args.constants is not None:
            vals = [float(x) for x in args.constants.split(",")]
            if len(vals) != 5:
                raise ScenarioError("--constants needs kA,kB,kC,kW,gamma")
            iv = interval_thm33(*vals)
            disagree, points = _oracle_check(tuple(vals), iv)
            print(str(iv))
            print(f"psd-oracle disagreements: {disagree} of {points}")
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
