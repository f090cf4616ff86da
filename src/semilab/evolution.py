"""Time stepping of the discrete semigroup and p-norm growth measurement.

The evolution solves M du/dt = -S u with M = vol * I, by implicit Euler or
Crank-Nicolson with a cached sparse LU factorization.  The adjoint semigroup
is stepped through the transposed solves of the same factorization, which
makes the discrete duality pairing exact to solver tolerance.  Forward and
adjoint evolution and the growth probe take the Stepper alone (it carries
its form) and share one stepping loop, with one blow-up guard that holds
each column to its own scale; a state may be one vector or an (ndof, S) block
of them as columns.  The probe and the heat kernel take their step count from
one check, ``march_steps``.
A block with enough stepping work is marched in forked column groups, one
process of a fork-context process pool per usable CPU.

A march may carry riders: trailing columns that are stepped with the block
but not read at its checkpoints, whose state after the last step is returned
instead.  The growth probe of a kernel-mode run that also reports the heat
kernel carries the kernel's delta columns this way (when it steps with
implicit Euler, the kernel's scheme), so that one march serves both.
"""

from __future__ import annotations

import ctypes
import functools
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import BoxDomain
from .discrete import DiscreteForm, lp_power, node_norms, reject_nonfinite

SCHEMES = ("implicit_euler", "crank_nicolson")


class Stepper:
    """One-step propagator for a fixed time step and scheme.

    Accepts a single real state vector or a block of trajectories as columns.
    """

    def __init__(self, F: DiscreteForm, dt: float, scheme: str = "implicit_euler"):
        check_dt(dt)
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.F = F
        self.dt = dt
        theta = 1.0 if scheme == "implicit_euler" else 0.5
        eye = sp.identity(F.ndof, format="csr")

        def step_matrix(scale):  # M + scale S
            # an entry beyond the float range is a ValueError naming its
            # node, not a numpy warning
            with np.errstate(over="ignore", invalid="ignore"):
                matrix = F.mass * eye + scale * F.S
            reject_nonfinite(matrix, F.grid, F.m,
                             f"{scheme} step matrix at dt = {dt!r}")
            return matrix

        # the pattern is structurally symmetric; this ordering roughly halves
        # the fill of the default one on tensor grids
        try:
            self._lu = spla.splu(step_matrix(theta * dt).tocsc(),
                                 permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise ValueError(f"{scheme} step matrix is singular at "
                             f"dt = {dt!r} ({err})") from None
        self._rhs = (step_matrix(-0.5 * dt) if scheme == "crank_nicolson"
                     else None)

    def step(self, u: np.ndarray) -> np.ndarray:
        b = self.F.mass * u if self._rhs is None else self._rhs @ u
        return self._lu.solve(b)

    def step_adjoint(self, g: np.ndarray) -> np.ndarray:
        if self._rhs is None:
            return self._lu.solve(self.F.mass * g, trans="T")
        return self._rhs.T @ self._lu.solve(g, trans="T")


def check_dt(dt: float) -> None:
    """Raise ValueError unless the time step is finite and positive."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt!r}")


def step_count(t_final: float, dt: float) -> int:
    """Steps to t_final, which must be a nonnegative integer multiple of dt."""
    if not 0 <= t_final < np.inf:
        raise ValueError(f"t_final must be finite and nonnegative, got "
                         f"{t_final!r}")
    n_steps = t_final / dt
    # a count past int64 (inf included) is beyond any run and any step array
    if not n_steps <= np.iinfo(np.int64).max:
        raise ValueError(f"{n_steps:.3e} steps of dt = {dt!r} to t_final = "
                         f"{t_final!r} are too many")
    n_steps = int(round(n_steps))
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, dt):
        raise ValueError("t_final is not a multiple of dt")
    return n_steps


def march_steps(t_final: float, dt: float) -> int:
    """Steps of a probe or kernel march to t_final: at least one, of a valid
    dt."""
    check_dt(dt)
    n_steps = step_count(t_final, dt)
    if n_steps < 1:
        raise ValueError("t_final shorter than one step")
    return n_steps


# Stepping work, as steps x columns x nonzeros stored in the LU factor, from
# which a block is marched in forked column groups.  A fork costs tens of
# milliseconds.  Threads do overlap the SuperLU solves, but their step buffers
# count in the parent's peak RSS, while a forked process's do not; a g3 probe
# of 120 steps and 50 columns is 2.8e9, a fine-grid g3 `all` 5e7 and the
# 11-column march of a 1-D kernel scenario's `all` at most 1.9e8.
PARALLEL_WORK = 1e9


@functools.cache
def _blas_one_thread():
    """A function that limits SciPy's OpenBLAS (the BLAS behind the SuperLU
    solve) to one thread in the calling process, or None if none resolves."""
    try:
        from scipy.sparse.linalg._dsolve import _superlu
        lib = ctypes.CDLL(_superlu.__file__)
    except (ImportError, OSError):
        return None
    for name in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
        setter = getattr(lib, name, None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            return lambda: setter(1)
    return None


def march_workers(stepper: Stepper, columns: int, steps: int) -> int:
    """Processes that march ``columns`` states for ``steps`` steps.

    One per usable CPU, at most one per column, when the stepping work reaches
    PARALLEL_WORK and the children's BLAS can be held to one thread (at more,
    their threads contend for the same cores); otherwise 1, the calling
    process itself.  Where the usable CPUs cannot be read (no
    ``os.sched_getaffinity``, as on macOS), it is 1.
    """
    if (steps * columns * stepper._lu.nnz < PARALLEL_WORK
            or not hasattr(os, "sched_getaffinity")):
        return 1
    workers = min(len(os.sched_getaffinity(0)), columns)
    if workers < 2 or _blas_one_thread() is None:
        return 1
    return workers


def _stepped(step, x: np.ndarray, counts):
    """Advance x by ``step``, yielding the state after each step count of the
    increasing sequence ``counts``.  A yielded state with a column whose
    largest entry is not finite or exceeds 1e12 times that column's largest
    entry in x raises FloatingPointError; the guard runs only there, so
    overflow warnings between yields are silenced.
    """
    limit = 1e12 * np.maximum(np.abs(x).max(axis=0, initial=0.0), 1e-300)
    done = 0
    for count in counts:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(count - done):
                x = step(x)
        done = count
        if not np.all(np.abs(x).max(axis=0, initial=0.0) <= limit):
            raise FloatingPointError("blow-up detected during evolution")
        yield x


def _march(stepper: Stepper, x: np.ndarray, counts, read=None,
           adjoint: bool = False, keep: int = 0) -> tuple:
    """(``read`` of x after each step count of the increasing sequence
    ``counts``, the state of the last ``keep`` columns of x after the last
    count), x stepped forward or through the adjoint.  ``read`` (default: the
    state itself) sees the other columns only; with ``keep`` = 0 (as for a
    single vector x) it sees the whole state and the kept state is None.

    Each column is held to its own blow-up limit (see ``_stepped``), so the
    kept columns do not change the read columns'.  The columns of an
    (ndof, S) block evolve independently, and a solve of a column subset
    gives the same bits as those columns of the full solve, so a block whose
    work calls for ``march_workers`` > 1 is split into that many column
    groups, each marched in a process of a fork-context pool that inherits
    the factorization and sends back only ``read`` of its read columns and
    the final state of its kept ones; ``read`` must act column by column
    (on no columns too) and keep the columns as its last axis, along which
    the groups are joined in group order.  An error in a group is raised
    here with its type and message once its sibling groups have finished
    their own marches (the pool waits for them rather than stop them); a
    process that dies is a BrokenProcessPool, a RuntimeError.
    """
    step = stepper.step_adjoint if adjoint else stepper.step
    read = read or (lambda u: u)
    columns = x.shape[1] if x.ndim == 2 else 1
    workers = march_workers(stepper, columns, counts[-1])
    if workers == 1:
        return _march_columns(step, x, counts, read, keep)
    groups = [slice(cols[0], cols[-1] + 1)
              for cols in np.array_split(np.arange(columns), workers)]
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork,
                             initializer=_start_group,
                             initargs=(step, x, counts, read,
                                       columns - keep)) as pool:
        reads, kept = zip(*pool.map(_march_group, groups))
    return ([np.concatenate(parts, axis=-1) for parts in zip(*reads)],
            np.concatenate([k for k in kept if k is not None], axis=1)
            if keep else None)


def _march_columns(step, x, counts, read, keep: int) -> tuple:
    """_march of x in the calling process."""
    reads = []
    for u in _stepped(step, x, counts):
        reads.append(read(u[:, :u.shape[1] - keep] if keep else u))
    # a copy: a view would hold the whole final state
    return reads, (u[:, u.shape[1] - keep:].copy() if keep else None)


_GROUP = None  # in a forked stepping process: the march it inherited


def _start_group(*march):
    """Set up a forked stepping process: SciPy's BLAS at one thread, and the
    march (step, x, counts, read, the number of read columns),
    inherited without pickling."""
    global _GROUP
    _blas_one_thread()()
    _GROUP = march


def _march_group(columns: slice) -> tuple:
    """_march of a forked column group: ``read`` of its read columns at each
    step count, and the final state of its kept columns."""
    step, x, counts, read, split = _GROUP
    keep = max(columns.stop - max(columns.start, split), 0)
    return _march_columns(step, x[:, columns], counts, read, keep)


def evolve(stepper: Stepper, u0: np.ndarray, t: float) -> np.ndarray:
    """State (or block of states) at t, an integer multiple of the step."""
    [u], _ = _march(stepper, np.array(u0), [step_count(t, stepper.dt)])
    return u


def evolve_adjoint(stepper: Stepper, g0: np.ndarray, t: float) -> np.ndarray:
    """Adjoint state at t, through the transposed solves."""
    [g], _ = _march(stepper, np.array(g0), [step_count(t, stepper.dt)],
                    adjoint=True)
    return g


def _norm_from_nodes(norms: np.ndarray, p: float, vol: float):
    """L^p norm from the node magnitudes, one value per column.  A nonzero
    column whose sum of |u|^p leaves the float range (a huge p) is divided
    by its largest magnitude first."""
    if np.isinf(p):
        return norms.max(axis=0, initial=0.0)
    with np.errstate(over="ignore"):
        out = lp_power(norms, p, vol) ** (1 / p)
    top = norms.max(axis=0, initial=0.0)
    redo = (top > 0) & ~((out > 0) & (out < np.inf))
    if np.any(redo):
        unit = norms / np.where(redo, top, 1.0)
        out = np.where(redo, top * lp_power(unit, p, vol) ** (1 / p), out)
    return out


def pnorm(u: np.ndarray, p: float, grid: BoxDomain, m: int):
    """Cell-volume-weighted L^p norm of a grid vector field, one value per
    column of an (ndof, S) block.

    The nodewise magnitude is the Euclidean norm across the m components;
    p = inf returns the max magnitude.
    """
    return _norm_from_nodes(node_norms(u, m), p, grid.cell_volume)


def band_limited_random(grid: BoxDomain, m: int, rng: np.random.Generator,
                        n_fields: int = 1) -> np.ndarray:
    """Random smooth fields from tensor sine modes cut at 1/4 Nyquist.

    Returns an (ndof, n_fields) real array (each column one field).
    """
    dims = grid.interior_shape
    kmax = [max(1, nk // 4) for nk in grid.n]
    # 1D sine bases: Phi_j[i, k] = sin(pi (k+1) (i+1) / n_j)
    bases = []
    for ax in range(grid.d):
        i = np.arange(1, grid.n[ax])
        k = np.arange(1, kmax[ax] + 1)
        bases.append(np.sin(np.pi * np.outer(i, k) / grid.n[ax]))
    coeff_shape = tuple(kmax) + (m, n_fields)
    coeffs = rng.standard_normal(coeff_shape)
    out = coeffs
    for ax in range(grid.d):
        # contract the mode axis at position ax against the corresponding basis
        out = np.tensordot(bases[ax], out, axes=(1, ax))
        # the new node axis lands in front; rotate it back to position ax
        out = np.moveaxis(out, 0, ax)
    out = out.reshape(grid.node_count * m, n_fields)
    scale = np.linalg.norm(out, axis=0)
    scale[scale == 0] = 1.0
    return out / scale


@dataclass
class GrowthTrace:
    """Measured p-norm growth of sampled trajectories."""

    times: np.ndarray
    norms0: np.ndarray  # initial norms, per sample
    norms: np.ndarray  # (len(times), n_samples)
    slopes: np.ndarray  # log-slopes log(norms / norms0) / t, same shape

    @property
    def worst_sample(self) -> int:
        return int(np.argmax(self.slopes.max(axis=0)))

    @property
    def max_slope(self) -> float:
        return float(self.slopes.max())


def contractivity_probe_multi(stepper: Stepper, p_list, t_final: float,
                              n_samples: int, seed: int = 0, riders=None):
    """Probe the p-norm growth rates for several p from one trajectory block.

    The evolution does not depend on p, so all trajectories advance together
    as one block right-hand side; at each of 10 checkpoints the node
    magnitudes are taken once and every requested norm is read from them.
    Returns {p: GrowthTrace}.  An (ndof, R) block of ``riders`` is marched
    as R more columns of the block, its norms unread; then the return is
    ({p: GrowthTrace}, the riders' state at t_final).
    """
    F = stepper.F
    p_list = list(p_list)
    vol = F.grid.cell_volume

    def norms_of(u):  # (len(p_list), n_samples)
        mags = node_norms(u, F.m)
        return np.array([_norm_from_nodes(mags, p, vol) for p in p_list])

    total_steps = march_steps(t_final, stepper.dt)
    marks = np.unique(np.linspace(total_steps / 10, total_steps, 10).astype(int))
    marks = marks[marks >= 1]
    times = marks * stepper.dt

    # the initial norms are read here from the whole block: a reduction over
    # a column subset of this C-ordered block can differ in the last bit
    rng = np.random.default_rng(seed)
    block = band_limited_random(F.grid, F.m, rng, n_samples)
    norms0 = norms_of(block)
    keep = 0 if riders is None else riders.shape[1]
    if keep:
        block = np.hstack([block, riders])
    reads, kept = _march(stepper, block, marks, read=norms_of, keep=keep)
    norms = np.stack(reads, axis=1)
    with np.errstate(divide="ignore"):
        slopes = np.log(norms / norms0[:, None, :]) / times[:, None]
    traces = {p: GrowthTrace(times=times, norms0=norms0[k], norms=norms[k],
                             slopes=slopes[k])
              for k, p in enumerate(p_list)}
    return traces if riders is None else (traces, kept)


def adjoint_duality_check(stepper: Stepper, t: float, f: np.ndarray,
                          g: np.ndarray) -> float:
    """|<T(t)f, g>_M - <f, T*(t)g>_M| via transposed stepping."""
    mass = stepper.F.mass
    lhs = mass * np.vdot(g, evolve(stepper, f, t))
    rhs = mass * np.vdot(evolve_adjoint(stepper, g, t), f)
    return float(abs(lhs - rhs))
