"""Spans around the calls into each semilab layer, recorded from outside.

The CLI imports its layer entry points by name, so the tracer swaps those
names in ``semilab.cli`` (and ``semilab.discrete.sample``, which assembly
calls) for timing wrappers, and wraps ``Stepper.__init__`` and
``Stepper.step`` on the class, which every caller shares.  Nothing under
``src/`` changes; ``uninstall`` puts every original back.

Spans nest: each keeps its duration and the part of it covered by child
spans, so a layer's self time is its duration minus its children.  Spans are
aggregated per name as they close rather than stored one by one, which
keeps the step spans (tens of thousands per round) cheap.
"""

from __future__ import annotations

import time
from collections import defaultdict

import semilab.cli as cli
import semilab.discrete as discrete
from semilab.evolution import Stepper
from semilab.metric import default_order, stencil_offsets

# cli-level name -> span name
CLI_SPANS = {
    "sample": "coefficients.sample",
    "check_all": "hypotheses.check_all",
    "interval_thm33": "pinterval.interval_thm33",
    "psd_sweep_Mgamma": "pinterval.psd_sweep_Mgamma",
    "gamma_p": "pinterval.gamma_p",
    "kernel_constants": "pinterval.kernel_constants",
    "assemble": "discrete.assemble",
    "nittka_shifted": "discrete.nittka",
    "contractivity_probe_multi": "evolution.probe",
    "kernel_block": "heatkernel.kernel",
    "verify_gaussian": "heatkernel.verify",
    "weight_field": "metric.weight_field",
    "distance_map": "metric.distance",
}


def lu_fill(stepper) -> int:
    """Nonzeros of L plus U of the stepper's factorization (0 if hidden)."""
    lu = getattr(stepper, "_lu", None)
    if lu is None or not hasattr(lu, "L"):
        return 0
    return int(lu.L.nnz + lu.U.nnz)


def edge_count(grid, order=None) -> int:
    """Edges of the distance graph: one per stencil offset and node pair."""
    if order is None:
        order = default_order(grid.d)
    total = 0
    for off in stencil_offsets(grid.d, order):
        n = 1
        for ok, nk in zip(off, grid.interior_shape):
            n *= max(nk - abs(ok), 0)
        total += n
    return total


class Tracer:
    """Aggregated spans and counts for one CLI invocation at a time."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # [name, start, child_time]
        self._fill = {}  # id(stepper) -> (L+U nnz, ndof)
        self._saved = []

    def reset(self):
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()
        self._fill.clear()

    def begin(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def end(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        self.total[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, span, fn, count=None):
        def wrapper(*args, **kwargs):
            self.begin(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(out, *args, **kwargs)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    # counters, called with (result, *args) of the wrapped call
    def _count_sample(self, out, system, grid):
        self.counts["coefficients.nodes"] += grid.node_count

    def _count_check_all(self, out, fields, grid=None, mode=None):
        nodes = fields["V"].values.shape[0]
        self.counts["hypotheses.node_gammas"] += nodes * len(mode.gamma_candidates())

    def _count_sweep(self, out, kA, kB, kC, kW, gamma, p_grid, *rest):
        self.counts["pinterval.oracle_points"] += len(p_grid)

    def _count_assemble(self, out, *args):
        self.counts["discrete.nnz"] += int(out.S.nnz)

    def _count_nittka(self, out, *args):
        self.counts["discrete.nittka_calls"] += 1

    def _count_distance(self, out, field, grid, source, order=None):
        self.counts["metric.edges"] += edge_count(grid, order)

    def install(self):
        counters = {"sample": self._count_sample,
                    "check_all": self._count_check_all,
                    "psd_sweep_Mgamma": self._count_sweep,
                    "assemble": self._count_assemble,
                    "nittka_shifted": self._count_nittka,
                    "distance_map": self._count_distance}
        for attr, span in CLI_SPANS.items():
            orig = getattr(cli, attr)
            self._saved.append((cli, attr, orig))
            setattr(cli, attr, self._wrap(span, orig, counters.get(attr)))
        orig = discrete.sample
        self._saved.append((discrete, "sample", orig))
        discrete.sample = self._wrap("coefficients.sample", orig,
                                     self._count_sample)

        tracer = self
        init, step = Stepper.__init__, Stepper.step
        self._saved += [(Stepper, "__init__", init), (Stepper, "step", step)]

        def traced_init(stp, F, *args, **kwargs):
            tracer.begin("evolution.factor")
            try:
                init(stp, F, *args, **kwargs)
            finally:
                tracer.end()
            fill = lu_fill(stp)
            tracer._fill[id(stp)] = (fill, F.ndof)
            tracer.counts["evolution.lu_fill"] += fill

        def traced_step(stp, u):
            tracer.begin("evolution.step")
            try:
                out = step(stp, u)
            finally:
                tracer.end()
            cols = u.shape[1] if u.ndim == 2 else 1
            fill, ndof = tracer._fill.get(id(stp), (0, 0))
            c = tracer.counts
            c["evolution.column_steps"] += cols
            # computed, not measured: one multiply-add per factor nonzero and
            # one mass scaling per dof and column; the factor (8-byte values,
            # 4-byte indices) is read once per call and each column's
            # right-hand side, solution and scaled copy moves 4 x 8 bytes
            c["evolution.flops"] += cols * (2 * fill + ndof)
            c["evolution.bytes"] += 12 * fill + 32 * ndof * cols
            return out

        Stepper.__init__ = traced_init
        Stepper.step = traced_step

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
