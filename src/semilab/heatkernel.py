"""Heat-kernel extraction from the discrete semigroup and bound verification.

A kernel column is the evolution of a discrete delta (mass 1/cell-volume at
one node and component), so the column converges to the kernel itself under
refinement; the m columns of one source node evolve together as one block.
Verification compares node magnitudes against the closed-form upper bound,
restricted to nodes away from the boundary where the Dirichlet truncation
only depresses the kernel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .coefficients import BoxDomain
from .discrete import DiscreteForm
from .evolution import Stepper, evolve
from .metric import DistanceMap, MetricField, distance_map
from .pinterval import ConstantsBundle, gaussian_bound_rhs


@dataclass(frozen=True)
class KernelBlock:
    """Sampled kernel matrices k(t, x, y) for one source node y."""

    t: float
    y: int
    values: np.ndarray  # (N, m, m): values[x, i, j] ~ k_ij(t, x, y)
    dist: DistanceMap | None = None


def _deltas(F: DiscreteForm, y: int) -> np.ndarray:
    """The m discrete deltas at node y as an (ndof, m) block: column j has
    mass 1 in component j."""
    return np.eye(F.ndof, F.m, k=-y * F.m) / F.mass  # ones at (y*m + j, j)


def kernel_block(F: DiscreteForm, y: int, t: float, stepper: Stepper,
                 dist: DistanceMap | None = None) -> KernelBlock:
    """k(t, x, y) at every node x, from the m deltas at y evolved as one block."""
    if t <= 0:
        raise ValueError("t must be positive")
    values = evolve(F, _deltas(F, y), t, stepper).reshape(-1, F.m, F.m)  # (N, m_i, m_j)
    return KernelBlock(t=t, y=y, values=values, dist=dist)


def interior_mask(grid: BoxDomain, layers: int = 5) -> np.ndarray:
    """Mask of nodes at least ``layers`` grid cells away from the boundary."""
    dims = grid.interior_shape
    mask = np.ones(dims, dtype=bool)
    for ax, nk in enumerate(dims):
        sel = [slice(None)] * grid.d
        edge = min(layers, nk // 2)
        sel[ax] = slice(0, edge)
        mask[tuple(sel)] = False
        sel[ax] = slice(nk - edge, nk)
        mask[tuple(sel)] = False
    return mask.ravel()


def verify_gaussian(block: KernelBlock, bundle: ConstantsBundle,
                    field: MetricField, grid: BoxDomain,
                    mask: np.ndarray | None = None) -> dict:
    """Margins bound_rhs - |k_ij| at the checked nodes; negatives are findings."""
    dmap = block.dist
    if dmap is None:
        dmap = distance_map(field, grid, block.y)
    if mask is None:
        mask = interior_mask(grid)
    rhs = gaussian_bound_rhs(bundle, block.t, dmap.dist)
    mags = np.abs(block.values).max(axis=(1, 2))
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        raise ValueError("no grid node lies 5 cells from the boundary, so the "
                         "kernel bound has no node to check; refine the grid")
    margins = rhs[mask] - mags[mask]
    worst = int(idx[np.argmin(margins)])
    return {
        "t": block.t,
        "source": block.y,
        "checked_nodes": int(mask.sum()),
        "min_margin": float(margins.min()),
        "violations": int(np.sum(margins < 0)),
        "worst_node": list(map(float, grid.node_coords()[worst])),
        "pass": bool(np.all(margins >= 0)),
    }


def block_to_csv(block: KernelBlock, grid: BoxDomain, path,
                 rhs: np.ndarray | None = None) -> None:
    coords = grid.node_coords()
    dist = block.dist.dist if block.dist is not None else np.full(len(coords), np.nan)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow([f"x{k + 1}" for k in range(grid.d)]
                    + ["source", "i", "j", "value", "distance", "bound", "margin"])
        for n, i, j in np.ndindex(block.values.shape):
            v = block.values[n, i, j]
            bound = ["", ""] if rhs is None else [rhs[n], rhs[n] - abs(v)]
            wr.writerow(list(coords[n]) + [block.y, i, j, v, dist[n]] + bound)
