"""Time stepping of the discrete semigroup and p-norm growth measurement.

The evolution solves M du/dt = -S u with M = vol * I, by implicit Euler or
Crank-Nicolson with a cached sparse LU factorization.  The adjoint semigroup
is stepped through the transposed solves of the same factorization, which
makes the discrete duality pairing exact to solver tolerance.  Forward and
adjoint evolution and the growth probe share one stepping loop, with one
time check and one blow-up guard; a state may be one vector or an (ndof, S)
block of them as columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import BoxDomain
from .discrete import DiscreteForm, lp_power, node_norms

SCHEMES = ("implicit_euler", "crank_nicolson")


class Stepper:
    """One-step propagator for a fixed time step and scheme.

    Accepts a single real state vector or a block of trajectories as columns.
    """

    def __init__(self, F: DiscreteForm, dt: float, scheme: str = "implicit_euler"):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.F = F
        self.dt = dt
        theta = 1.0 if scheme == "implicit_euler" else 0.5
        eye = sp.identity(F.ndof, format="csc")
        lhs = (F.mass * eye + theta * dt * F.S).tocsc()
        # the pattern is structurally symmetric; this ordering roughly halves
        # the fill of the default one on tensor grids
        try:
            self._lu = spla.splu(lhs, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
            raise ValueError(f"{scheme} step matrix is singular at "
                             f"dt = {dt!r} ({err})") from None
        if scheme == "crank_nicolson":
            self._rhs = (F.mass * eye - 0.5 * dt * F.S).tocsr()
        else:
            self._rhs = None

    def step(self, u: np.ndarray) -> np.ndarray:
        b = self.F.mass * u if self._rhs is None else self._rhs @ u
        return self._lu.solve(b)

    def step_adjoint(self, g: np.ndarray) -> np.ndarray:
        if self._rhs is None:
            return self._lu.solve(self.F.mass * g, trans="T")
        return self._rhs.T @ self._lu.solve(g, trans="T")


def _step_count(t_final: float, dt: float) -> int:
    """Steps to t_final, which must be a nonnegative integer multiple of dt."""
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, dt):
        raise ValueError("t_final is not a multiple of dt")
    return n_steps


def _march(step, x: np.ndarray, counts):
    """Advance x by ``step``, yielding the state after each step count of the
    increasing sequence ``counts``.  A yielded state whose largest entry is not
    finite or exceeds 1e12 times that of x raises FloatingPointError; the guard
    runs only there, so overflow warnings between yields are silenced.
    """
    limit = 1e12 * max(np.abs(x).max(initial=0.0), 1e-300)
    done = 0
    for count in counts:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(count - done):
                x = step(x)
        done = count
        if not np.abs(x).max(initial=0.0) <= limit:
            raise FloatingPointError("blow-up detected during evolution")
        yield x


def evolve(F: DiscreteForm, u0: np.ndarray, t_final: float, stepper: Stepper) -> np.ndarray:
    """State (or block of states) at t_final, an integer multiple of the step."""
    [u] = _march(stepper.step, np.array(u0), [_step_count(t_final, stepper.dt)])
    return u


def evolve_adjoint(F: DiscreteForm, g0: np.ndarray, t_final: float, stepper: Stepper) -> np.ndarray:
    """Adjoint state at t_final, through the transposed solves."""
    [g] = _march(stepper.step_adjoint, np.array(g0), [_step_count(t_final, stepper.dt)])
    return g


def _norm_from_nodes(norms: np.ndarray, p: float, vol: float):
    """L^p norm from the node magnitudes, one value per column."""
    if np.isinf(p):
        return norms.max(axis=0, initial=0.0)
    return lp_power(norms, p, vol) ** (1 / p)


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
    """Measured p-norm growth of sampled trajectories against a bound."""

    times: np.ndarray
    norms0: np.ndarray  # initial norms, per sample
    norms: np.ndarray  # (n_checkpoints, n_samples)
    slopes: np.ndarray  # log-slopes log(norms / norms0) / t, same shape
    bound: float | None = None

    @property
    def worst_sample(self) -> int:
        return int(np.argmax(self.slopes.max(axis=0)))

    @property
    def max_slope(self) -> float:
        return float(self.slopes.max())

    @property
    def within_bound(self) -> bool | None:
        if self.bound is None:
            return None
        return bool(self.max_slope <= self.bound)


def contractivity_probe_multi(F: DiscreteForm, p_list, t_final: float,
                              n_samples: int, stepper: Stepper,
                              bounds=None, seed: int = 0,
                              n_checkpoints: int = 10) -> dict:
    """Probe the p-norm growth rates for several p from one trajectory block.

    The evolution does not depend on p, so all trajectories advance together
    as one block right-hand side; at each checkpoint the node magnitudes are
    taken once and every requested norm is read from them.
    Returns {p: GrowthTrace}.
    """
    p_list = list(p_list)
    if bounds is None:
        bounds = [None] * len(p_list)
    vol = F.grid.cell_volume

    def norms_of(u):  # (len(p_list), n_samples)
        mags = node_norms(u, F.m)
        return np.array([_norm_from_nodes(mags, p, vol) for p in p_list])

    total_steps = _step_count(t_final, stepper.dt)
    if total_steps < 1:
        raise ValueError("t_final shorter than one step")
    marks = np.unique(
        np.linspace(total_steps / n_checkpoints, total_steps, n_checkpoints).astype(int)
    )
    marks = marks[marks >= 1]
    times = marks * stepper.dt

    # only the loop holds the sample block, and map drops each state once its
    # norms are taken, so one block is in memory while stepping
    rng = np.random.default_rng(seed)
    norms0, *rows = map(norms_of, _march(
        stepper.step, band_limited_random(F.grid, F.m, rng, n_samples), [0, *marks]))
    norms = np.stack(rows, axis=1)
    with np.errstate(divide="ignore"):
        slopes = np.log(norms / norms0[:, None, :]) / times[:, None]
    return {p: GrowthTrace(times=times, norms0=norms0[k], norms=norms[k],
                           slopes=slopes[k], bound=bound)
            for k, (p, bound) in enumerate(zip(p_list, bounds))}


def adjoint_duality_check(F: DiscreteForm, t: float, f: np.ndarray,
                          g: np.ndarray, stepper: Stepper) -> float:
    """|<T(t)f, g>_M - <f, T*(t)g>_M| via transposed stepping."""
    Tf = evolve(F, f, t, stepper)
    Tg = evolve_adjoint(F, g, t, stepper)
    lhs = F.mass * np.vdot(g, Tf)
    rhs = F.mass * np.vdot(Tg, f)
    return float(abs(lhs - rhs))
