#!/usr/bin/env python3
"""Refinement study: the ellipticity shift against the exact Dirichlet
eigenvalue, and the decay of the p-norm sign-test defect under grid halving."""

import argparse
import math

import numpy as np

from semilab.coefficients import BoxDomain, sample
from semilab.discrete import assemble, nittka_shifted, omega0
from semilab.evolution import band_limited_random
from semilab.gallery import gallery_scenario
from semilab.hypotheses import check_all
from semilab.pinterval import interval_thm33


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    print("omega0 study (scalar 1D, V = 2):")
    scn = gallery_scenario("g1")
    exact = -(math.pi**2 + 2)
    for n in (64, 128, 256, 512):
        grid = BoxDomain((0.0,), (1.0,), (n,))
        F = assemble(scn.system, grid)
        w = omega0(F)
        print(f"  n={n:4d}  omega0={w:.8f}  error={w - exact:+.2e}")

    print("\nsign-test defect study (coupled 2D system):")
    scn = gallery_scenario("g3")
    rep = check_all(sample(scn.system, scn.grid), mode=scn.mode)
    iv = interval_thm33(rep.kappaA, rep.kappaB, rep.kappaC, rep.kappaW, rep.gamma)
    p = 0.5 * (iv.lo + min(iv.hi, 2 * iv.lo + 8))
    print(f"  interval {iv}, probing p = {p:.3f}")
    prev = None
    for level in range(args.levels):
        n = 32 * 2**level
        grid = BoxDomain((0.0, 0.0), (1.0, 1.0), (n, n))
        F = assemble(scn.system, grid)
        rng = np.random.default_rng(args.seed)
        u = band_limited_random(grid, scn.system.m, rng, 20)
        defect = max(0.0, -float(nittka_shifted(F, u, p, 1.0, 1.0).min()))
        ratio = "" if prev is None or defect == 0 else f"  ratio={prev / defect:.2f}"
        print(f"  n={n:4d}  defect={defect:.3e}{ratio}")
        prev = defect


if __name__ == "__main__":
    main()
