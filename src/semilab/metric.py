"""Intrinsic distance as shortest paths in the metric lambda_V^{b/(b+1)} Q^{-1}.

The continuum distance is a supremum over metric-Lipschitz potentials; its
dual description is geodesic distance, which we approximate on a stencil
graph over the grid nodes.  Graph distances overestimate the continuum value
by a bounded metrication factor (under 3 percent for the default 2D stencil
on constant metrics), which the calling checks absorb in their tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .coefficients import BoxDomain, SampledField


class MetricError(ValueError):
    """The coefficients define no intrinsic metric at some node."""


@dataclass(frozen=True)
class MetricField:
    """Nodewise conformal weight, diffusion eigenvalues and inverse diffusion matrix."""

    w: np.ndarray  # (N,) positive
    Qeig: np.ndarray  # (N, d) ascending eigenvalues of Q, all positive
    Qinv: np.ndarray  # (N, d, d)


def weight_field(Vfield: SampledField, Qfield: SampledField, beta: float) -> MetricField:
    """w = (smallest eigenvalue of V_S)^{beta/(beta+1)} per node, with the
    eigenvalues and the inverse of Q, all from the fields' spectra.  A Q
    whose inverse lies beyond the float range at a node has no metric
    there."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    lamV = Vfield.spectrum.eigenvalues[:, 0]
    if np.any(lamV <= 0) and beta > 0:
        raise MetricError("lambda_V must be positive for beta > 0")
    w = lamV ** (beta / (beta + 1))  # exactly 1.0 at beta = 0
    lamQ, U = Qfield.spectrum
    if np.any(lamQ[:, 0] <= 0):
        raise MetricError("Q must be positive definite at every node")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        Qinv = (U / lamQ[:, None, :]) @ np.swapaxes(U, -1, -2)
    finite = np.isfinite(Qinv).all(axis=(1, 2))
    if not finite.all():
        node = Qfield.domain.node(int(np.argmin(finite)))
        raise MetricError(f"Q^-1 lies beyond the float range at node {node}")
    return MetricField(w, lamQ, Qinv)


def stencil_offsets(d: int, order: int) -> list:
    """Half set of neighbor offsets (the graph is undirected).

    order 1: axis neighbors; order 2: plus diagonals (plus distance-2 steps
    in 1D); order 3 (2D only): plus knight moves, giving 16 neighbors.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if d == 1:
        offs = [(1,)]
        if order >= 2:
            offs.append((2,))
        return offs
    if d == 2:
        offs = [(1, 0), (0, 1)]
        if order >= 2:
            offs += [(1, 1), (1, -1)]
        if order >= 3:
            offs += [(2, 1), (2, -1), (1, 2), (1, -2)]
        return offs
    offs = []
    for raw in np.ndindex(*(3,) * d):
        o = tuple(int(x) - 1 for x in raw)
        if all(v == 0 for v in o):
            continue
        nz = [v for v in o if v != 0]
        if nz[0] < 0:
            continue  # keep one of each +-pair
        if order == 1 and len(nz) > 1:
            continue
        offs.append(o)
    return offs


def default_order(d: int) -> int:
    return 3 if d == 2 else 2


def _edge_lists(field: MetricField, grid: BoxDomain, order: int):
    dims = grid.interior_shape
    lin = np.arange(grid.node_count).reshape(dims)
    h = np.array(grid.h)
    rows, cols, costs = [], [], []
    for off in stencil_offsets(grid.d, order):
        src_sel, dst_sel = [], []
        for ok, nk in zip(off, dims):
            if ok >= 0:
                src_sel.append(slice(0, nk - ok))
                dst_sel.append(slice(ok, nk))
            else:
                src_sel.append(slice(-ok, nk))
                dst_sel.append(slice(0, nk + ok))
        src = lin[tuple(src_sel)].ravel()
        dst = lin[tuple(dst_sel)].ravel()
        dx = np.array(off, dtype=float) * h
        w_mid = 0.5 * (field.w[src] + field.w[dst])
        Qinv_mid = 0.5 * (field.Qinv[src] + field.Qinv[dst])
        quad = np.einsum("i,nij,j->n", dx, Qinv_mid, dx)
        rows.append(src)
        cols.append(dst)
        costs.append(np.sqrt(w_mid * quad))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(costs)


def distance_map(field: MetricField, grid: BoxDomain, source,
                 order: int | None = None) -> np.ndarray:
    """Metric distances from one source node to every interior node, shape
    (N,), or, for an array of sources, one row per source, shape
    (len(source), N)."""
    src = np.asarray(source)
    if np.any((src < 0) | (src >= grid.node_count)):
        raise ValueError("source node out of range")
    if order is None:
        order = default_order(grid.d)
    # the stencil graph over the interior nodes, weighted by the edge costs
    rows, cols, costs = _edge_lists(field, grid, order)
    graph = sp.coo_matrix((costs, (rows, cols)),
                          shape=(grid.node_count, grid.node_count)).tocsr()
    return dijkstra(graph, directed=False, indices=source)


def euclid_equivalence_check(field: MetricField) -> tuple:
    """(q0, q1, equivalent): two-sided comparison of Q against w * identity."""
    q0 = float((field.Qeig[:, 0] / field.w).min())
    q1 = float((field.Qeig[:, -1] / field.w).max())
    equivalent = bool(np.isfinite(q0) and np.isfinite(q1) and q0 > 0)
    return q0, q1, equivalent
