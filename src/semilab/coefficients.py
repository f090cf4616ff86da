"""Box domains and matrix-valued coefficient fields sampled on grids.

A coefficient system carries the blocks of the operator

    A u = sum_h D_h( (q_hk I + A^hk) D_k u ) - sum_h B^h D_h u
          + sum_h D_h( C^h u ) - (V + W) u

as closed-form expressions over x1..xd, sampled pointwise on the interior
nodes of a box grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .expressions import Expr, EvalDomainError, const, evaluate, parse_expr


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned box with a uniform tensor grid.

    Interior nodes along axis k sit at lower_k + i*h_k, i = 1 .. n_k - 1.
    A grid whose h_k^2 or cell volume is 0 or beyond the float range, or
    whose cell volume has no finite reciprocal, is a ValueError.
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
        for k, hk in enumerate(self.h):
            if not 0 < hk * hk < math.inf:
                raise ValueError(f"grid spacing {hk!r} along x{k + 1} squares "
                                 f"outside the float range")
        vol = self.cell_volume
        # a discrete delta has height 1 / vol
        if not (0 < vol < math.inf and 1 / vol < math.inf):
            raise ValueError(f"grid cell volume of spacings {self.h} or its "
                             f"reciprocal lies outside the float range")

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
        return math.prod(self.h)

    def axis_nodes(self, k: int) -> np.ndarray:
        """Interior node coordinates along axis k (0-based)."""
        return self.lower[k] + self.h[k] * np.arange(1, self.n[k])

    def node(self, idx: int) -> tuple:
        """Coordinates of interior node ``idx`` (row-major), as floats."""
        ii = np.unravel_index(idx, self.interior_shape)
        return tuple(float(lo + h * (i + 1))
                     for lo, h, i in zip(self.lower, self.h, ii))

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
        """Per-node ``symmetric_eigh`` of the symmetric part (M + M^T)/2 of
        the trailing square matrices, formed by halves so that it cannot
        overflow: ascending eigenvalues and orthonormal eigenvectors as
        columns.  Computed once and shared, read-only, by every reader."""
        vals = self.values
        spec = symmetric_eigh(0.5 * vals + 0.5 * np.swapaxes(vals, -1, -2))
        for arr in spec:
            arr.flags.writeable = False
        return spec


# numpy's result type of eigh, which it does not export by name
EighResult = type(np.linalg.eigh(np.ones((1, 1))))


def _eigh_2x2(mats: np.ndarray) -> tuple:
    """(eigenvalues, eigenvectors) of symmetric (n, 2, 2) blocks
    [[a, b], [b, c]] by one Jacobi rotation (Golub & Van Loan, Algorithm
    8.5.1): t = tan(theta) solves t^2 + 2 tau t - 1 = 0, tau = (c - a) / 2b,
    and the eigenvalues a - t b and c + t b are sorted with their columns.
    A diagonal block (t = 0) is its sorted diagonal, signed zeros kept, with
    the identity's columns, in order or swapped."""
    a, b, c = mats[:, 0, 0], mats[:, 1, 0], mats[:, 1, 1]
    # tau is +-inf or NaN where b = 0 and may overflow where b is tiny (t = 0
    # there); an eigenvalue beyond the float range is inf, as eigh gives it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        tau = (0.5 * c - 0.5 * a) / b
        t = np.copysign(1.0 / (np.abs(tau) + np.hypot(1.0, tau)), tau)
        t[b == 0] = 0.0
        cs = 1.0 / np.hypot(1.0, t)
        sn = t * cs
        tb = t * b
        # x - (+0.0) is x for either zero x, so a zero t b moves neither
        # eigenvalue's sign, and 0.0 - sn is -sn with no -0.0 in the identity
        w1, w2 = a - (tb + 0.0), c - (0.0 - tb)
    swap = w2 < w1
    w, Z = np.empty(mats.shape[:-1]), np.empty(mats.shape)
    w[:, 0], w[:, 1] = np.where(swap, w2, w1), np.where(swap, w1, w2)
    col1, col2 = (cs, 0.0 - sn), (sn, cs)
    for i in range(2):
        Z[:, i, 0] = np.where(swap, col2[i], col1[i])
        Z[:, i, 1] = np.where(swap, col1[i], col2[i])
    return w, Z


def symmetric_eigh(mats: np.ndarray) -> EighResult:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns) of
    symmetric (n, k, k) matrices, as ``np.linalg.eigh`` returns them.  A
    1 x 1 block is its own eigenvalue with eigenvector 1.0, a 2 x 2 block is
    in closed form (``_eigh_2x2``), and larger blocks go to
    ``np.linalg.eigh``."""
    k = mats.shape[-1]
    if k == 1:
        return EighResult(mats[:, 0].copy(), np.ones_like(mats))
    if k > 2:
        return np.linalg.eigh(mats)
    return EighResult(*_eigh_2x2(mats))


# The layout of every coefficient block, in sampling order: its index groups,
# outermost first.  "d" is a space index and "m" a component index; a doubled
# letter is a (row, column) pair.  Q and V are required, A, B, C and W may be
# absent (zero).
BLOCKS = {
    "Q": ("dd",),
    "A": ("dd", "mm"),
    "B": ("d", "mm"),
    "C": ("d", "mm"),
    "V": ("mm",),
    "W": ("mm",),
}


def block_shape(name: str, d: int, m: int) -> tuple:
    """Nested shape of block ``name``, e.g. (d, d, m, m) for A."""
    size = {"d": d, "m": m}
    return tuple(size[c] for group in BLOCKS[name] for c in group)


def expr_matrix(entries):
    """Normalize nested lists (any depth) of Expr / numbers / strings into
    nested tuples of Expr."""
    if isinstance(entries, (list, tuple)):
        return tuple(expr_matrix(e) for e in entries)
    if isinstance(entries, str):
        return parse_expr(entries)
    if isinstance(entries, (int, float)):
        return const(entries)
    return entries


def _has_shape(block, shape: tuple) -> bool:
    if not shape:
        return isinstance(block, Expr)
    return (isinstance(block, (list, tuple)) and len(block) == shape[0]
            and all(_has_shape(b, shape[1:]) for b in block))


@dataclass(frozen=True)
class CoefficientSystem:
    """Coefficient blocks of the operator, as nested tuples of expressions
    laid out as ``BLOCKS`` says: the scalar diffusion Q, the coupling A, the
    drifts B and C, the potential V and the perturbing potential W.  None
    means an absent (zero) block."""

    d: int
    m: int
    Q: tuple
    V: tuple
    A: tuple | None = None
    B: tuple | None = None
    C: tuple | None = None
    W: tuple | None = None

    def __post_init__(self):
        for name, groups in BLOCKS.items():
            block = getattr(self, name)
            if block is not None and not _has_shape(
                    block, block_shape(name, self.d, self.m)):
                raise ValueError(f"{name} must be "
                                 + " x ".join("".join(groups)))

    def entries(self, name: str):
        """(index, expr) of every entry of block ``name``, row-major, with
        0-based indices; nothing for an absent block."""
        block = getattr(self, name)
        if block is None:
            return
        for index in np.ndindex(block_shape(name, self.d, self.m)):
            e = block
            for i in index:
                e = e[i]
            yield index, e


def _eval_on_nodes(e: Expr, coords: np.ndarray) -> np.ndarray:
    env = {k + 1: coords[:, k] for k in range(coords.shape[1])}
    try:
        vals = np.asarray(evaluate(e, env), dtype=float)
        if not np.isfinite(vals).all():
            raise EvalDomainError("value beyond the float range", np.broadcast_to(
                ~np.isfinite(vals), (coords.shape[0],)))
    except EvalDomainError as err:
        if err.bad_mask is not None and np.shape(err.bad_mask) == (coords.shape[0],):
            idx = int(np.argmax(err.bad_mask))
            raise EvalDomainError(
                f"{err} at node {tuple(map(float, coords[idx]))}", err.bad_mask
            ) from None
        raise
    return np.broadcast_to(vals, (coords.shape[0],))


def sample(system: CoefficientSystem, grid: BoxDomain) -> dict:
    """Sample every coefficient block on the interior nodes of ``grid``.

    Returns a dict of SampledField keyed by block name.  Q is symmetrized as
    Q/2 + Q^T/2 across the h,k indices, which cannot overflow.  Absent blocks
    are read-only zero views: 0.0 broadcast to the block's shape, which
    allocates no node array.
    """
    if grid.d != system.d:
        raise ValueError(f"grid dimension {grid.d} != system dimension {system.d}")
    coords = grid.node_coords()
    fields = {}
    # a value that overflows, or turns NaN, is rejected with its node by
    # _eval_on_nodes, or by SampledField, not announced by a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for name in BLOCKS:
            shape = (coords.shape[0],) + block_shape(name, system.d, system.m)
            if getattr(system, name) is None:
                fields[name] = SampledField(grid, np.broadcast_to(0.0, shape))
                continue
            vals = np.zeros(shape)
            for index, e in system.entries(name):
                vals[(slice(None),) + index] = _eval_on_nodes(e, coords)
            if name == "Q":
                vals = 0.5 * vals + 0.5 * np.swapaxes(vals, 1, 2)
            fields[name] = SampledField(grid, vals)
    return fields
