"""Heat-kernel extraction from the discrete semigroup and bound verification.

A kernel column is the evolution of a discrete delta (mass 1/cell-volume at
one node and component), so the column converges to the kernel itself under
refinement; the m columns of one source node evolve together as one block
through the Stepper, which carries the form.
Verification compares node magnitudes against the closed-form upper bound,
restricted to nodes away from the boundary where the Dirichlet truncation
only depresses the kernel.
"""

from __future__ import annotations

import numpy as np

from .coefficients import BoxDomain
from .discrete import DiscreteForm
from .evolution import Stepper, evolve


def _deltas(F: DiscreteForm, y: int) -> np.ndarray:
    """The m discrete deltas at node y as an (ndof, m) block: column j has
    mass 1 in component j."""
    return np.eye(F.ndof, F.m, k=-y * F.m) / F.mass  # ones at (y*m + j, j)


def kernel_block(stepper: Stepper, y: int, t: float) -> np.ndarray:
    """k(t, x, y) at every node x as an (N, m, m) array, values[x, i, j] ~
    k_ij(t, x, y), from the m deltas at y evolved as one block."""
    if t <= 0:
        raise ValueError("t must be positive")
    F = stepper.F
    return evolve(stepper, _deltas(F, y), t).reshape(-1, F.m, F.m)


def interior_mask(grid: BoxDomain, layers: int = 5) -> np.ndarray:
    """Mask of nodes at least ``layers`` grid cells away from the boundary.
    An axis too short for that keeps its centre node (two for an even
    count): no mask is empty, and a finer grid never excludes fewer
    layers."""
    dims = grid.interior_shape
    edges = [min(layers, (nk - 1) // 2) for nk in dims]
    mask = np.zeros(dims, dtype=bool)
    mask[tuple(slice(e, nk - e) for e, nk in zip(edges, dims))] = True
    return mask.ravel()


def verify_gaussian(values: np.ndarray, rhs: np.ndarray, grid: BoxDomain) -> dict:
    """Margins rhs - |k_ij| at the nodes 5 cells from the boundary (on a
    coarser grid, the central nodes ``interior_mask`` keeps), for the
    (N, m, m) kernel values and the (N,) bound; negatives are findings."""
    idx = np.flatnonzero(interior_mask(grid, layers=5))
    margins = rhs[idx] - np.abs(values[idx]).max(axis=(1, 2))
    # a vacuous (all inf) bound has no worst node
    worst = (list(grid.node(int(idx[np.argmin(margins)])))
             if np.isfinite(margins).any() else None)
    return {
        "checked_nodes": int(idx.size),
        "min_margin": float(margins.min()),
        "violations": int(np.sum(margins < 0)),
        "worst_node": worst,
        "pass": bool(np.all(margins >= 0)),
    }
