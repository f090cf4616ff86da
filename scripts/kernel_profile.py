#!/usr/bin/env python3
"""Extract a 1D heat-kernel column and compare it against the explicit
off-diagonal upper bound (and, for the constant-potential case, against the
exact Gaussian).  Writes a CSV profile for plotting."""

import argparse
import csv
import math

from semilab.coefficients import sample
from semilab.discrete import assemble
from semilab.evolution import Stepper
from semilab.gallery import gallery_scenario
from semilab.heatkernel import kernel_block, verify_gaussian
from semilab.hypotheses import check_all
from semilab.metric import distance_map, weight_field
from semilab.pinterval import gaussian_bound_rhs, kernel_constants


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scenario", default="g6-flat",
                    choices=["g6-flat", "g6-quadratic"])
    ap.add_argument("--t", type=float, default=0.1)
    ap.add_argument("--out", default="kernel_profile.csv")
    args = ap.parse_args()

    scn = gallery_scenario(args.scenario)
    fields = sample(scn.system, scn.grid)
    rep = check_all(fields, mode=scn.mode)
    bundle = kernel_constants(d=1, beta=scn.mode.beta,
                              kappa=max(rep.kappa or 0.0, 1e-6),
                              c=scn.mode.c, nu0=rep.nu0)

    F = assemble(scn.system, scn.grid)
    dt = args.t / 4000
    stepper = Stepper(F, dt, "implicit_euler")
    center = scn.grid.node_count // 2
    field = weight_field(fields["V"], fields["Q"], scn.mode.beta)
    dist = distance_map(field, scn.grid, center)
    values = kernel_block(F, center, args.t, stepper)
    rhs = gaussian_bound_rhs(bundle, args.t, dist)

    result = verify_gaussian(values, rhs, scn.grid)
    print(f"checked {result['checked_nodes']} nodes, "
          f"min margin {result['min_margin']:.3e}, "
          f"violations {result['violations']}")

    xs = scn.grid.node_coords()[:, 0]
    y = xs[center]
    with open(args.out, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["x", "kernel", "bound", "exact_gaussian"])
        for i in range(len(xs)):
            exact = ""
            if args.scenario == "g6-flat":
                exact = (math.exp(-(xs[i] - y) ** 2 / (4 * args.t) - 4 * args.t)
                         / math.sqrt(4 * math.pi * args.t))
            wr.writerow([xs[i], values[i, 0, 0], rhs[i], exact])
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
