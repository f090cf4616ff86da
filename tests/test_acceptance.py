"""Acceptance gate: one test per release criterion.

Each test prints a single pass/fail line (visible with -s or on failure)
and enforces its runtime budget where one applies.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from semilab.cli import EXIT_OK, main
from semilab.coefficients import BoxDomain, CoefficientSystem, expr_matrix, sample
from semilab.discrete import (
    assemble,
    assemble_adjoint,
    nittka_shifted,
    omega0,
    truncate_unit,
)
from semilab.evolution import (
    Stepper,
    adjoint_duality_check,
    band_limited_random,
    contractivity_probe_multi,
    evolve,
)
from semilab.gallery import gallery_scenario
from semilab.heatkernel import kernel_block
from semilab.hypotheses import check_all
from semilab.metric import distance_map, distance_matrix, weight_field
from semilab.pinterval import (
    gamma_p,
    interval_thm33,
    moser_sums,
    psd_check_Egamma,
    psd_sweep_Mgamma,
)


def record(num, desc, ok, elapsed, budget=None):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} [{status}] {desc} ({elapsed:.1f}s"
    if budget is not None:
        line += f" of {budget:.0f}s budget"
        ok = ok and elapsed <= budget
    print(line + ")")
    assert ok, line


def random_tuples(n, seed=0, with_kA=True):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        kA = rng.uniform(0.0, 0.5) if with_kA else 0.0
        kB, kC = rng.uniform(0.0, 1.0, 2)
        kW = rng.uniform(0.0, 0.5)
        gamma = rng.uniform(0.1, 2.0)
        if gamma * kW >= 1:
            continue
        K = 4 * (1 / gamma - kW) - (kB + kC) ** 2
        if K <= 1e-3:
            continue
        out.append((kA, kB, kC, kW, gamma))
    return out


def test_criterion_01_interval_matches_psd_sweep():
    t0 = time.perf_counter()
    ok = True
    for consts in random_tuples(200, seed=1):
        iv = interval_thm33(*consts)
        ends = [e for e in (iv.lo, iv.hi) if np.isfinite(e) and e > 1.0]
        for end in ends:
            grid = np.arange(end - 0.05, end + 0.05, 1e-3)
            grid = grid[grid > 1.0]
            adm = psd_sweep_Mgamma(*consts, grid)
            inside = np.isin(grid, adm)
            claim = np.array([iv.contains(p) for p in grid])
            ok = ok and np.sum(inside != claim) <= 1
        if not np.isfinite(iv.hi):
            ok = ok and psd_sweep_Mgamma(*consts, np.array([50.0])).size == 1
    record(1, "interval endpoints agree with the psd sweep to one grid step",
           ok, time.perf_counter() - t0, budget=10)


def test_criterion_02_closed_case_intervals():
    t0 = time.perf_counter()
    iv0 = interval_thm33(0, 0, 0, 0, 1.0)
    iv1 = interval_thm33(0, 1, 1, 0, 0.5)
    iv2 = interval_thm33(0, 1, 0, 0, 0.5)  # drift on B only: closed below
    iv3 = interval_thm33(0, 0, 1, 0, 0.5)  # drift on C only: closed above
    ok = (str(iv0) == "]1, inf["
          and (iv1.lo, iv1.hi) == (1.2, 6.0)
          and iv1.lo_closed and iv1.hi_closed
          and iv2.lo == 1 + 0.5 / 4 and not np.isfinite(iv2.hi)
          and iv3.hi == 1 + 4 / 0.5 and iv3.lo == 1.0 and not iv3.lo_closed)
    record(2, "the four closed interval cases reproduce exactly",
           ok, time.perf_counter() - t0)


def test_criterion_03_gamma_p_is_the_psd_boundary():
    t0 = time.perf_counter()
    ok = True
    for _, kB, kC, kW, _ in random_tuples(100, seed=3, with_kA=False):
        for p in (1.5, 2.0, 3.0, 6.0):
            g = gamma_p(0, kB, kC, kW, p)
            if not np.isfinite(g):
                continue
            ok = ok and psd_check_Egamma(0, kB, kC, kW, g, p)
            ok = ok and not psd_check_Egamma(0, kB, kC, kW, g * (1 + 1e-6), p)
    record(3, "gamma_p sits exactly on the psd feasibility boundary",
           ok, time.perf_counter() - t0, budget=5)


def test_criterion_04_omega0_eigen_oracle():
    t0 = time.perf_counter()
    system = CoefficientSystem(d=1, m=1, Q=expr_matrix([["1"]]),
                               V=expr_matrix([["2"]]))
    grid = BoxDomain((0.0,), (1.0,), (512,))
    F = assemble(system, grid)
    w0 = omega0(F)
    h = grid.h[0]
    discrete = -((2 / h**2) * (1 - np.cos(np.pi * h)) + 2)
    ok = abs(w0 - discrete) <= 1e-8 and abs(w0 + (np.pi**2 + 2)) <= 2e-2
    record(4, "omega0 matches the discrete and continuum eigenvalues",
           ok, time.perf_counter() - t0, budget=5)


def test_criterion_05_quasicontractivity_probe():
    t0 = time.perf_counter()
    scn = gallery_scenario("g3")
    F = assemble(scn.system, scn.grid)
    rep = check_all(sample(scn.system, scn.grid), mode=scn.mode)
    iv = interval_thm33(rep.kappaA, rep.kappaB, rep.kappaC, rep.kappaW,
                        scn.mode.gamma)
    exponent = scn.mode.Cgamma / scn.mode.gamma
    st = Stepper(F, scn.dt, scn.scheme)
    traces = contractivity_probe_multi(F, scn.p_list, scn.t_final,
                                       scn.n_samples, st, seed=scn.seed)
    ok = True
    tol = 0.05 * max(1.0, abs(exponent))
    for p, tr in traces.items():
        if iv.contains(p):
            ok = ok and tr.max_slope <= exponent + tol
    ok = ok and traces[2.0].max_slope <= omega0(F) + 1e-8
    record(5, "measured p-norm growth stays under the theoretical exponent",
           ok, time.perf_counter() - t0, budget=120)


def test_criterion_06_nittka_defect_decay():
    t0 = time.perf_counter()
    scn = gallery_scenario("g3")
    rep = check_all(sample(scn.system, scn.grid), mode=scn.mode)
    iv = interval_thm33(rep.kappaA, rep.kappaB, rep.kappaC, rep.kappaW,
                        scn.mode.gamma)
    p_mid = 0.5 * (iv.lo + iv.hi)
    gamma, Cgamma = scn.mode.gamma, scn.mode.Cgamma

    smooth = [
        lambda x, y: np.stack([np.sin(np.pi * x) * np.sin(np.pi * y),
                               np.sin(2 * np.pi * x) * np.sin(np.pi * y)], -1),
        lambda x, y: np.stack([x * (1 - x) * y * (1 - y),
                               np.sin(np.pi * x) * np.sin(3 * np.pi * y)], -1),
    ]

    def values(n):
        grid = BoxDomain(scn.grid.lower, scn.grid.upper, (n, n))
        F = assemble(scn.system, grid)
        xy = grid.node_coords()
        fixed = [nittka_shifted(F, f(xy[:, 0], xy[:, 1]).ravel(), p_mid,
                                Cgamma, gamma) for f in smooth]
        rng = np.random.default_rng(scn.seed)
        u = band_limited_random(grid, 2, rng, 20)
        vmin = min(nittka_shifted(F, u[:, j], p_mid, Cgamma, gamma)
                   for j in range(20))
        return np.array(fixed), vmin

    ref, _ = values(256)
    eps, vmins = {}, {}
    for n in (32, 64, 128):
        vals, vmins[n] = values(n)
        eps[n] = np.abs(vals - ref).max()
    ok = (eps[32] / eps[64] >= 1.5 and eps[64] / eps[128] >= 1.5
          and all(vmins[n] >= -eps[n] for n in (32, 64, 128)))
    record(6, "shifted sign-test defect shrinks under grid refinement",
           ok, time.perf_counter() - t0, budget=60)


def test_criterion_07_kernel_vs_closed_form():
    t0 = time.perf_counter()
    system = CoefficientSystem(d=1, m=1, Q=expr_matrix([["1"]]),
                               V=expr_matrix([["4"]]))
    grid = BoxDomain((-8.0,), (8.0,), (1024,))
    F = assemble(system, grid)
    x = grid.axis_nodes(0)
    y = grid.node_count // 2
    ok = True
    for t in (0.05, 0.1, 0.2):
        col = kernel_block(F, y, t, Stepper(F, t / 4000)).values[:, 0, 0]
        r = np.abs(x - x[y])
        exact = np.exp(-(r**2) / (4 * t) - 4 * t) / np.sqrt(4 * np.pi * t)
        near = r <= 3 * np.sqrt(t)
        ok = ok and np.abs(col[near] / exact[near] - 1).max() <= 0.05
    record(7, "extracted kernel within 5% of the free Gaussian near the source",
           ok, time.perf_counter() - t0, budget=60)


def test_criterion_08_gaussian_bound_holds(tmp_path):
    t0 = time.perf_counter()
    ok = True
    for key in ("g6-flat", "g6-quadratic"):
        code = main(["kernel", "--scenario", f"gallery:{key}",
                     "--out", str(tmp_path / key)])
        ok = ok and code == EXIT_OK
    record(8, "closed-form Gaussian bound dominates both kernel scenarios",
           ok, time.perf_counter() - t0, budget=120)


def test_criterion_09_distance_oracles():
    t0 = time.perf_counter()
    # constant metric, 2D, 256 cells per side, 16-neighbor stencil
    grid = BoxDomain((0.0, 0.0), (1.0, 1.0), (256, 256))
    fields = sample(CoefficientSystem(
        d=2, m=1, Q=expr_matrix([["1", "0"], ["0", "1"]]),
        V=expr_matrix([["4"]])), grid)
    mf = weight_field(fields["V"], fields["Q"], 1.0)
    source = grid.node_count // 2
    dmap = distance_map(mf, grid, source)
    coords = grid.node_coords()
    euclid = np.linalg.norm(coords - coords[source], axis=1)
    scale = 4.0 ** (1.0 / 4.0)
    far = euclid > 0.05
    rel = dmap.dist[far] / (scale * euclid[far]) - 1
    ok = rel.min() >= -1e-12 and rel.max() <= 0.03

    # 1D quadrature oracle for the unbounded potential weight
    g1d = BoxDomain((-2.0,), (2.0,), (1024,))
    f1 = sample(CoefficientSystem(d=1, m=1, Q=expr_matrix([["1"]]),
                                  V=expr_matrix([["1 + x1^2"]])), g1d)
    mf1 = weight_field(f1["V"], f1["Q"], 1.0)
    x = g1d.axis_nodes(0)
    src = int(np.argmin(np.abs(x)))
    d1 = distance_map(mf1, g1d, src)
    for j in range(0, g1d.node_count, 31):
        if abs(x[j] - x[src]) < 0.1:
            continue
        exact = abs(quad(lambda s: (1 + s**2) ** 0.25, x[src], x[j])[0])
        ok = ok and abs(d1.dist[j] / exact - 1) <= 0.01

    # symmetry and triangle inequality on a variable 2D field
    g2d = BoxDomain((0.0, 0.0), (1.0, 1.0), (24, 24))
    f2 = sample(CoefficientSystem(
        d=2, m=1, Q=expr_matrix([["1 + x1", "0"], ["0", "1 + x2"]]),
        V=expr_matrix([["2 + x1 + x2"]])), g2d)
    mf2 = weight_field(f2["V"], f2["Q"], 1.0)
    rng = np.random.default_rng(9)
    sources = rng.choice(g2d.node_count, size=10, replace=False)
    D = distance_matrix(mf2, g2d, sources)
    for i in range(len(sources)):
        for j in range(len(sources)):
            ok = ok and abs(D[i, sources[j]] - D[j, sources[i]]) <= 1e-12
    for _ in range(1000):
        i, j = rng.integers(0, len(sources), 2)
        xnode = rng.integers(0, g2d.node_count)
        ok = ok and D[i, xnode] <= D[i, sources[j]] + D[j, xnode] + 1e-12
    record(9, "graph distances match the scaling and quadrature oracles",
           ok, time.perf_counter() - t0, budget=30)


def test_criterion_10_exact_algebraic_identities():
    t0 = time.perf_counter()
    ok = True
    # adjoint assembly is the exact transpose
    for key in ("g3", "g5"):
        scn = gallery_scenario(key)
        F = assemble(scn.system, scn.grid)
        ok = ok and (assemble_adjoint(scn.system, scn.grid).S != F.S.T).nnz == 0

    # adjoint duality through the stepper
    scn = gallery_scenario("g5")
    F = assemble(scn.system, scn.grid)
    rng = np.random.default_rng(10)
    f = rng.standard_normal(F.ndof)
    f /= np.linalg.norm(f)
    g = rng.standard_normal(F.ndof)
    g /= np.linalg.norm(g)
    st = Stepper(F, 1e-3)
    ok = ok and adjoint_duality_check(F, 0.05, f, g, st) <= 1e-10

    # fixed-step semigroup property
    for scheme in ("implicit_euler", "crank_nicolson"):
        stp = Stepper(F, 1e-3, scheme)
        direct = evolve(F, f, 0.05, stp)
        split = evolve(F, evolve(F, f, 0.03, stp), 0.02, stp)
        ok = ok and np.linalg.norm(direct - split) <= 1e-10

    # truncation gradient formula under refinement
    def trunc_err(n):
        grid = BoxDomain((0.0,), (1.0,), (n,))
        x = grid.axis_nodes(0)
        u = np.stack([1.5 * np.sin(2 * np.pi * x),
                      0.8 * np.cos(3 * np.pi * x)], axis=1).ravel()
        h = grid.h[0]
        tu = truncate_unit(u, 2).reshape(-1, 2)
        um = u.reshape(-1, 2)
        norms = np.linalg.norm(um, axis=1)

        def cdiff(a):
            return (a[2:] - a[:-2]) / (2 * h)

        mid = slice(1, -1)
        sgn = um[mid] / norms[mid, None]
        over = (norms[mid] > 1.0)[:, None]
        rhs = (-sgn * (cdiff(norms) / norms[mid])[:, None] * over
               + (np.minimum(norms[mid], 1.0) / norms[mid])[:, None] * cdiff(um))
        keep = np.abs(norms[mid] - 1.0) > 0.2
        return np.abs(cdiff(tu) - rhs)[keep].max()

    ok = ok and trunc_err(128) / trunc_err(256) >= 1.5
    record(10, "transpose, duality, semigroup, and truncation identities hold",
           ok, time.perf_counter() - t0)


def test_criterion_11_gallery_constants_meet_closed_forms():
    t0 = time.perf_counter()
    ok = True
    attr = {"c0": "c0", "kappaA": "kappaA", "kappaB": "kappaB",
            "kappaC": "kappaC", "kappaW": "kappaW"}
    for key in ("g2", "g3", "g4", "g5"):
        scn = gallery_scenario(key)
        rep = check_all(sample(scn.system, scn.grid), mode=scn.mode)
        for name, target in scn.closed_forms.items():
            est = getattr(rep, attr[name])
            ok = ok and est <= target + 1e-9
    record(11, "estimated gallery constants stay under their closed forms",
           ok, time.perf_counter() - t0, budget=30)


def test_criterion_12_moser_sum_identities():
    t0 = time.perf_counter()
    ok = True
    for r in (3.0, 4.0, 5.0):
        for beta in (0.0, 0.5, 1.0, 2.0):
            R, A, B, L, _ = moser_sums(r, beta)
            S = (R ** (2 * beta + 1) + 1) * R
            j = np.arange(0, 201)
            tj = ((S - 1) / S) * S ** (-j.astype(float))
            pj = 2 * R ** j.astype(float)
            ok = ok and abs(tj.sum() - 1) <= 1e-12
            ok = ok and abs((1 / pj).sum() - r / 2) <= 1e-12
            ok = ok and A < 1
            ok = ok and abs((tj / pj).sum() - A) <= 1e-10
            # truncation leaves a relative remainder below 1e-10 in L
            Ldirect = (pj ** (2 * beta + 2) * tj).sum()
            ok = ok and abs(Ldirect - L) <= 1e-10 * max(1.0, L)
            Bdirect = np.prod(tj ** (-1 / (2 * pj)))
            ok = ok and abs(Bdirect - B) <= 1e-10 * max(1.0, B)
    record(12, "slice weights and norm ladder sums match their closed forms",
           ok, time.perf_counter() - t0)
