"""Box domains and matrix-valued coefficient fields sampled on grids.

A coefficient system carries the blocks of the operator

    A u = sum_h D_h( (q_hk I + A^hk) D_k u ) - sum_h B^h D_h u
          + sum_h D_h( C^h u ) - (V + W) u

as closed-form expressions over x1..xd, sampled pointwise on the interior
nodes of a box grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import Expr, EvalDomainError, const, evaluate, parse_expr


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with a uniform tensor grid.

    Interior nodes along axis k sit at lower_k + i*h_k, i = 1 .. n_k - 1.
    """

    lower: tuple
    upper: tuple
    n: tuple

    def __post_init__(self):
        object.__setattr__(self, "lower", tuple(float(x) for x in self.lower))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        object.__setattr__(self, "n", tuple(int(x) for x in self.n))
        if not (len(self.lower) == len(self.upper) == len(self.n)):
            raise ValueError("lower, upper, n must have equal length")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        for lo, up, nk in zip(self.lower, self.upper, self.n):
            if not lo < up:
                raise ValueError(f"degenerate axis: [{lo}, {up}]")
            if nk < 2:
                raise ValueError(f"grid resolution {nk} < 2")

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def h(self) -> tuple:
        return tuple((u - l) / nk for l, u, nk in zip(self.lower, self.upper, self.n))

    @property
    def interior_shape(self) -> tuple:
        return tuple(nk - 1 for nk in self.n)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.interior_shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.h))

    def axis_nodes(self, k: int) -> np.ndarray:
        """Interior node coordinates along axis k (0-based)."""
        return self.lower[k] + self.h[k] * np.arange(1, self.n[k])

    def node_coords(self) -> np.ndarray:
        """All interior node coordinates, shape (N, d), row-major axis order."""
        axes = [self.axis_nodes(k) for k in range(self.d)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def refine(self, factor: int = 2) -> "BoxDomain":
        return BoxDomain(self.lower, self.upper, tuple(nk * factor for nk in self.n))


@dataclass(frozen=True)
class SampledField:
    """Per-node matrix values over a box grid; leading axis enumerates nodes."""

    domain: BoxDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.shape[0] != self.domain.node_count:
            raise ValueError(
                f"value count {vals.shape[0]} != node count {self.domain.node_count}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite entries in sampled field")

    @cached_property
    def spectrum(self):
        """Per-node ``np.linalg.eigh`` of the symmetric part (M + M^T)/2 of
        the trailing square matrices: ascending eigenvalues and orthonormal
        eigenvectors as columns.  Computed once and shared, read-only, by
        every reader."""
        vals = self.values
        spec = np.linalg.eigh(0.5 * (vals + np.swapaxes(vals, -1, -2)))
        for arr in spec:
            arr.flags.writeable = False
        return spec


def expr_matrix(entries) -> tuple:
    """Normalize a nested list of Expr / numbers / strings into a tuple matrix."""
    out = []
    for row in entries:
        new_row = []
        for e in row:
            if isinstance(e, str):
                e = parse_expr(e)
            elif isinstance(e, (int, float)):
                e = const(e)
            new_row.append(e)
        out.append(tuple(new_row))
    return tuple(out)


@dataclass(frozen=True)
class CoefficientSystem:
    """Coefficient blocks of the operator, as matrices of expressions.

    Q: d x d matrix of scalar expressions (the scalar diffusion q_hk).
    A: optional d x d array of m x m expression matrices (None means zero).
    B, C: optional length-d arrays of m x m expression matrices.
    V: m x m expression matrix (potential).
    W: optional m x m expression matrix (perturbing potential).
    """

    d: int
    m: int
    Q: tuple
    V: tuple
    A: tuple | None = None
    B: tuple | None = None
    C: tuple | None = None
    W: tuple | None = None

    def __post_init__(self):
        if len(self.Q) != self.d or any(len(row) != self.d for row in self.Q):
            raise ValueError("Q must be d x d")
        if len(self.V) != self.m or any(len(row) != self.m for row in self.V):
            raise ValueError("V must be m x m")


def _eval_on_nodes(e: Expr, coords: np.ndarray) -> np.ndarray:
    env = {k + 1: coords[:, k] for k in range(coords.shape[1])}
    try:
        vals = evaluate(e, env)
    except EvalDomainError as err:
        if err.bad_mask is not None and np.shape(err.bad_mask) == (coords.shape[0],):
            idx = int(np.argmax(err.bad_mask))
            raise EvalDomainError(
                f"{err} at node {tuple(map(float, coords[idx]))}", err.bad_mask
            ) from None
        raise
    return np.broadcast_to(np.asarray(vals, dtype=float), (coords.shape[0],))


def _sample_matrix(entries, coords: np.ndarray) -> np.ndarray:
    rows = len(entries)
    cols = len(entries[0])
    out = np.empty((coords.shape[0], rows, cols))
    for i in range(rows):
        for j in range(cols):
            out[:, i, j] = _eval_on_nodes(entries[i][j], coords)
    return out


def sample(system: CoefficientSystem, grid: BoxDomain) -> dict:
    """Sample every coefficient block on the interior nodes of ``grid``.

    Returns a dict of SampledField keyed by block name.  Q is symmetrized as
    (Q + Q^T)/2 across the h,k indices.  Absent blocks sample to zeros.
    """
    if grid.d != system.d:
        raise ValueError(f"grid dimension {grid.d} != system dimension {system.d}")
    coords = grid.node_coords()
    N, d, m = coords.shape[0], system.d, system.m

    q = _sample_matrix(system.Q, coords)
    q = 0.5 * (q + np.swapaxes(q, 1, 2))

    a = np.zeros((N, d, d, m, m))
    if system.A is not None:
        for h in range(d):
            for k in range(d):
                a[:, h, k] = _sample_matrix(system.A[h][k], coords)

    b = np.zeros((N, d, m, m))
    c = np.zeros((N, d, m, m))
    if system.B is not None:
        for h in range(d):
            b[:, h] = _sample_matrix(system.B[h], coords)
    if system.C is not None:
        for h in range(d):
            c[:, h] = _sample_matrix(system.C[h], coords)

    v = _sample_matrix(system.V, coords)
    w = (
        _sample_matrix(system.W, coords)
        if system.W is not None
        else np.zeros((N, m, m))
    )

    return {
        "Q": SampledField(grid, q),
        "A": SampledField(grid, a),
        "B": SampledField(grid, b),
        "C": SampledField(grid, c),
        "V": SampledField(grid, v),
        "W": SampledField(grid, w),
    }
