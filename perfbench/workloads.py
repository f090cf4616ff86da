"""The four benchmark workloads, generated from the gallery and a seed.

Each workload is a fixed list of CLI invocations (one "round") that the
benchmark repeats in a closed loop with one client, plus the scenario
set-ups it times before the loop.  The workload seed only chooses values
(scenario seeds, potential offsets, constant tuples); grid sizes, step
counts and sample counts are fixed per workload, so every seed does the
same amount of work and every work count repeats exactly.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from semilab.coefficients import sample
from semilab.discrete import assemble
from semilab.evolution import Stepper
from semilab.gallery import gallery_scenario
from semilab.scenario import parse_scenario, scenario_to_text
from tracing import lu_fill

WORKLOADS = ("probe2d", "kernel1d", "constants", "fine2d")

# every section `semilab all` reports, all expected to pass on the gallery
ALL_SECTIONS = ("hypotheses", "pinterval", "evolve", "nittka", "kernel",
                "distance")


@dataclass
class Invocation:
    """One CLI call and everything its output is checked against."""

    key: str  # unique within the workload; names the output directory
    argv: list  # CLI arguments without --out
    expect_exit: int
    sections: dict | None = None  # section -> expected verdict; None: no report
    closed_forms: dict = field(default_factory=dict)  # field -> value
    interval: tuple | None = None  # p-interval --constants: (text, lo, hi, points)
    sizes: dict = field(default_factory=dict)  # input sizes, for the record
    known_defect: str | None = None  # why this call fails at the seed commit
    defect_raise: str | None = None  # the known defect's error, as "Type: text"


@dataclass
class Setup:
    """A scenario whose set-up (parse, sample, assemble, factor) is timed."""

    path: str
    grid: tuple | None  # the --grid override the invocations use
    assemble: bool


@dataclass
class Workload:
    name: str
    invocations: list
    setups: list


def _write(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _gallery_file(work: str, key: str, fname: str, **changes):
    scn = dataclasses.replace(gallery_scenario(key), **changes)
    return _write(os.path.join(work, fname), scenario_to_text(scn)), scn


def _seeds(rng, n):
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def _all_call(key, path, scn, seed, grid=None):
    argv = ["all", "--scenario", path, "--seed", str(seed)]
    if grid is not None:
        argv += ["--grid", ",".join(map(str, grid))]
        scn = dataclasses.replace(scn, grid=dataclasses.replace(scn.grid, n=grid))
    ndof = scn.grid.node_count * scn.system.m
    steps = int(round(scn.t_final / scn.dt))
    return Invocation(
        key=key, argv=argv, expect_exit=0,
        sections={s: True for s in ALL_SECTIONS},
        sizes={"ndof": ndof, "steps": steps, "columns": scn.n_samples,
               "nodes_x_gammas": scn.grid.node_count
               * len(scn.mode.gamma_candidates())})


def probe2d(work, rng, toy):
    """g3 at its own grid, dt, p-list and 50 samples; only the steps are cut.

    At 120 steps stepping is about 90% of an invocation, as it is (about
    99%) at the gallery's 2000; the probe's ten p-norm checkpoints and the
    fixed per-invocation work take the rest.
    """
    steps = 2 if toy else 120
    path, scn = _gallery_file(work, "g3", "g3.ini", t_final=steps * 1e-4)
    grid = (16, 16) if toy else None
    (seed,) = _seeds(rng, 1)
    return Workload("probe2d", [_all_call("g3", path, scn, seed, grid)],
                    [Setup(path, grid, True)])


def kernel1d(work, rng, toy):
    """g6-flat and g6-quadratic `all`, alternating, each with its own seed."""
    calls, setups = [], []
    for key in ("g6-flat", "g6-quadratic"):
        changes = {"t_final": 1e-2} if toy else {}
        path, scn = _gallery_file(work, key, f"{key}.ini", **changes)
        grid = (128,) if toy else None
        for i, seed in enumerate(_seeds(rng, 2)):
            calls.append((i, _all_call(f"{key}-{i}", path, scn, seed, grid)))
        setups.append(Setup(path, grid, True))
    # flat, quadratic, flat, quadratic
    calls.sort(key=lambda pair: pair[0])
    return Workload("kernel1d", [c for _, c in calls], setups)


def _hyp_call(key, sub, path, scn, grid=None):
    argv = [sub, "--scenario", path]
    if grid is not None:
        argv += ["--grid", ",".join(map(str, grid))]
        scn = dataclasses.replace(scn, grid=dataclasses.replace(scn.grid, n=grid))
    sections = {"hypotheses": True}
    if sub == "p-interval":
        sections["pinterval"] = True
    return Invocation(
        key=key, argv=argv, expect_exit=0, sections=sections,
        closed_forms=dict(scn.closed_forms),
        sizes={"nodes_x_gammas": scn.grid.node_count
               * len(scn.mode.gamma_candidates())})


def _oracle_points(hi: float) -> int:
    """Size of the PSD-sweep grid `p-interval --constants` builds up to hi."""
    return int(np.arange(1.0 + 1e-3, hi + 0.2, 1e-3).size)


def _constant_tuples(rng):
    """One admissible (kA, kB, kC, kW, gamma) per interval case.

    The free constants are drawn from the seed and the last one is solved
    so that the finite endpoint sits at a fixed value a quarter of a grid
    step off the sweep grid.  The oracle grid, and so the work, is then the
    same for every seed.
    """
    out = []

    def base():
        gamma = float(rng.uniform(0.6, 1.4))
        kW = float(rng.uniform(0.05, 0.4))
        return gamma, kW

    # all p: ]1, inf[
    gamma, kW = base()
    out.append(((0.0, 0.0, 0.0, kW, gamma), "]1, inf[", 1.0, math.inf))
    # left closed: [lo, inf[ with lo pinned, solved for kB
    gamma, kW = base()
    lo = 1.30025
    kB = math.sqrt(4 * (lo - 1) * (1 - gamma * kW) / gamma)
    out.append(((0.0, kB, 0.0, kW, gamma), None, lo, math.inf))
    # right closed: ]1, hi] with hi pinned, solved for kC
    gamma, kW = base()
    hi = 3.00025
    kC = math.sqrt(4 * (1 - gamma * kW) / (gamma * (hi - 1)))
    out.append(((0.0, 0.0, kC, kW, gamma), None, 1.0, hi))
    # closed: [2 - d1, 2 + d2] with d2 pinned, solved for kC
    gamma, kW = base()
    kA = float(rng.uniform(0.05, 0.2))
    kB = float(rng.uniform(0.05, 0.3))
    d2 = 0.40025

    def delta2(kC):
        K = 4 * (1 / gamma - kW) - (kB + kC) ** 2
        return K / (kA**2 * K + (kA * (kB + kC) + kC) ** 2) - d2

    kC_max = 2 * math.sqrt(1 / gamma - kW) - kB  # K = 0 there
    kC = brentq(delta2, 0.0, kC_max * (1 - 1e-9), xtol=1e-15)
    out.append(((kA, kB, kC, kW, gamma), None, None, 2 + d2))
    return out


def constants(work, rng, toy):
    """check-hypotheses and p-interval only: no assembly, no stepping."""
    calls, setups = [], []
    fine = {"g5": (255,) if toy else (1023,),
            "g6-quadratic": (255,) if toy else (2047,)}
    for key, grid in fine.items():
        path, scn = _gallery_file(work, key, f"{key}.ini",
                                  seed=_seeds(rng, 1)[0])
        calls.append(_hyp_call(f"{key}-hyp", "check-hypotheses", path, scn,
                               grid))
        setups.append(Setup(path, grid, False))
    for key in ("g3", "g4"):
        path, scn = _gallery_file(work, key, f"{key}.ini",
                                  seed=_seeds(rng, 1)[0])
        calls.append(_hyp_call(f"{key}-hyp", "check-hypotheses", path, scn))
        calls.append(_hyp_call(f"{key}-pint", "p-interval", path, scn))
        setups.append(Setup(path, None, False))

    for i, (tup, text, lo, hi) in enumerate(_constant_tuples(rng)):
        points = _oracle_points(hi if math.isfinite(hi) else 2 * lo + 4)
        calls.append(Invocation(
            key=f"tuple-{i}",
            argv=["p-interval", "--constants", ",".join(repr(x) for x in tup)],
            expect_exit=0, interval=(text, lo, hi, points),
            sizes={"oracle_points": points}))

    # bad input: an indefinite potential is a failed check (exit 1) ...
    offset = float(rng.uniform(0.2, 0.8))
    n = 64 if toy else 1024
    bad = ("[domain]\nlower = -1.0\nupper = 1.0\nn = {n}\n\n"
           "[operator]\nd = 1\nm = 1\nq.11 = \"1\"\nv.11 = \"{v}\"\n\n"
           "[hypotheses]\nmode = fixed_gamma\ngamma = 1.0\nCgamma = 1.0\n\n"
           "[run]\np = 2.0\nseed = {seed}\n")
    path = _write(os.path.join(work, "indefinite.ini"),
                  bad.format(n=n, v=f"x1 - {offset!r}", seed=_seeds(rng, 1)[0]))
    calls.append(Invocation(key="indefinite", argv=["check-hypotheses",
                                                    "--scenario", path],
                            expect_exit=1, sections={"hypotheses": False}))
    setups.append(Setup(path, None, False))
    # ... and log of a negative coordinate is a configuration error (exit 2)
    path = _write(os.path.join(work, "log-domain.ini"),
                  bad.format(n=n, v="log(x1)", seed=_seeds(rng, 1)[0]))
    calls.append(Invocation(
        key="log-domain", argv=["check-hypotheses", "--scenario", path],
        expect_exit=2,
        known_defect="log(x1) on [-1, 1] raises EvalDomainError instead of "
                     "exiting 2",
        defect_raise="EvalDomainError: log of a non-positive argument"))
    return Workload("constants", calls, setups)


def fine2d(work, rng, toy):
    """g3 and g4 `all` on a fine grid with few samples and steps."""
    calls, setups = [], []
    for key, n in (("g3", 24 if toy else 128), ("g4", 24 if toy else 96)):
        path, scn = _gallery_file(work, key, f"{key}.ini", n_samples=4,
                                  t_final=5e-4)
        grid = (n, n)
        calls.append(_all_call(key, path, scn, _seeds(rng, 1)[0], grid))
        setups.append(Setup(path, grid, True))
    return Workload("fine2d", calls, setups)


def make_workload(name: str, work: str, seed: int, toy: bool) -> Workload:
    """Write the workload's scenario files into ``work`` and list its calls."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    build = {"probe2d": probe2d, "kernel1d": kernel1d,
             "constants": constants, "fine2d": fine2d}[name]
    return build(work, rng, toy)


def set_up(wl: Workload):
    """Parse, sample, assemble and factor every scenario of the workload once.

    This is what the CLI does before its first section (a Stepper is built
    for the first evolution); scenarios that are never assembled stop after
    sampling.  Returns (seconds, sizes per scenario file).
    """
    sizes = {}
    t0 = time.perf_counter()
    for st in wl.setups:
        scn = parse_scenario(st.path)
        if st.grid is not None:
            scn = dataclasses.replace(
                scn, grid=dataclasses.replace(scn.grid, n=st.grid))
        fields = sample(scn.system, scn.grid)
        size = {"nodes": scn.grid.node_count}
        if st.assemble:
            F = assemble(scn.system, scn.grid)
            stepper = Stepper(F, scn.dt, scn.scheme)
            size.update(ndof=F.ndof, nnz=int(F.S.nnz), lu_fill=lu_fill(stepper))
            del F, stepper
        del fields
        sizes[os.path.basename(st.path)] = size
    return time.perf_counter() - t0, sizes
