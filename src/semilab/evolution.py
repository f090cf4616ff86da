"""Time stepping of the discrete semigroup and p-norm growth measurement.

The evolution solves M du/dt = -S u with M = vol * I, by implicit Euler or
Crank-Nicolson with a cached sparse LU factorization.  The adjoint semigroup
is stepped through the transposed solves of the same factorization, which
makes the discrete duality pairing exact to solver tolerance.  Forward and
adjoint evolution share one stepping loop with the same time checks and
blow-up guard.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import BoxDomain
from .discrete import DiscreteForm

SCHEMES = ("implicit_euler", "crank_nicolson")


class Stepper:
    """One-step propagator for a fixed time step and scheme.

    Accepts a single state vector or a block of trajectories as columns.
    """

    def __init__(self, F: DiscreteForm, dt: float, scheme: str = "implicit_euler"):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
        self.F = F
        self.dt = dt
        self.scheme = scheme
        theta = 1.0 if scheme == "implicit_euler" else 0.5
        ndof = F.ndof
        eye = sp.identity(ndof, format="csc")
        lhs = (F.mass * eye + theta * dt * F.S).tocsc()
        # the pattern is structurally symmetric; this ordering roughly halves
        # the fill of the default one on tensor grids
        self._lu = spla.splu(lhs, permc_spec="MMD_AT_PLUS_A")
        if scheme == "crank_nicolson":
            self._rhs = (F.mass * eye - 0.5 * dt * F.S).tocsr()
        else:
            self._rhs = None

    def step(self, u: np.ndarray) -> np.ndarray:
        b = self.F.mass * u if self._rhs is None else self._rhs @ u
        return self._solve(b, trans="N")

    def step_adjoint(self, g: np.ndarray) -> np.ndarray:
        if self._rhs is None:
            return self._solve(self.F.mass * g, trans="T")
        return self._rhs.T @ self._solve(g, trans="T")

    def _solve(self, b, trans):
        if np.iscomplexobj(b):
            return self._lu.solve(np.real(b), trans=trans) + 1j * self._lu.solve(
                np.imag(b), trans=trans
            )
        return self._lu.solve(np.asarray(b, dtype=float), trans=trans)


def default_dt(grid: BoxDomain, v_scale: float = 1.0) -> float:
    h = min(grid.h)
    return h**2 / 4 / max(1.0, v_scale * h**2 / 4)


def _march(step, x0: np.ndarray, t_final: float, dt: float) -> np.ndarray:
    """Apply ``step`` t_final/dt times; t_final must be a nonnegative
    integer multiple of dt."""
    if t_final < 0:
        raise ValueError("t_final must be nonnegative")
    n_steps = int(round(t_final / dt))
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, dt):
        raise ValueError("t_final is not a multiple of dt")
    x = np.array(x0)
    limit = 1e12 * max(np.linalg.norm(x0), 1e-300)
    for _ in range(n_steps):
        x = step(x)
        if np.linalg.norm(x) > limit:
            raise FloatingPointError("blow-up detected during evolution")
    return x


def evolve(F: DiscreteForm, u0: np.ndarray, t_final: float, stepper: Stepper) -> np.ndarray:
    """State at t_final; t_final must be an integer multiple of the step."""
    return _march(stepper.step, u0, t_final, stepper.dt)


def evolve_adjoint(F: DiscreteForm, g0: np.ndarray, t_final: float, stepper: Stepper) -> np.ndarray:
    """Adjoint state at t_final, through the transposed solves."""
    return _march(stepper.step_adjoint, g0, t_final, stepper.dt)


def pnorm(u: np.ndarray, p: float, grid: BoxDomain, m: int) -> float:
    """Cell-volume-weighted L^p norm of a grid vector field.

    The nodewise magnitude is the Euclidean norm across the m components;
    p = inf returns the max magnitude.
    """
    norms = np.linalg.norm(np.reshape(u, (grid.node_count, m)), axis=1)
    if np.isinf(p):
        return float(norms.max(initial=0.0))
    return float((grid.cell_volume * np.sum(norms**p)) ** (1 / p))


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

    p: float
    times: np.ndarray
    norms0: np.ndarray  # initial norms, per sample
    norms: np.ndarray  # (n_checkpoints, n_samples)
    slopes: np.ndarray  # per-sample worst log-slope
    max_slope: float
    worst_sample: int
    bound: float | None = None

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
    as one block right-hand side and every requested norm is measured at the
    checkpoints.  Returns {p: GrowthTrace}.
    """
    p_list = list(p_list)
    if bounds is None:
        bounds = [None] * len(p_list)
    rng = np.random.default_rng(seed)
    u = band_limited_random(F.grid, F.m, rng, n_samples)
    norms0 = {p: np.array([pnorm(u[:, j], p, F.grid, F.m)
                           for j in range(n_samples)]) for p in p_list}

    total_steps = int(round(t_final / stepper.dt))
    if total_steps < 1:
        raise ValueError("t_final shorter than one step")
    marks = np.unique(
        np.linspace(total_steps / n_checkpoints, total_steps, n_checkpoints).astype(int)
    )
    marks = marks[marks >= 1]

    times, norm_rows = [], {p: [] for p in p_list}
    done = 0
    for mark in marks:
        for _ in range(mark - done):
            u = stepper.step(u)
        done = mark
        times.append(mark * stepper.dt)
        for p in p_list:
            norm_rows[p].append(
                [pnorm(u[:, j], p, F.grid, F.m) for j in range(n_samples)])

    times = np.array(times)
    out = {}
    for p, bound in zip(p_list, bounds):
        norms = np.array(norm_rows[p])
        with np.errstate(divide="ignore"):
            slopes_ck = np.log(norms / norms0[p][None, :]) / times[:, None]
        slopes = slopes_ck.max(axis=0)
        worst = int(np.argmax(slopes))
        out[p] = GrowthTrace(
            p=p, times=times, norms0=norms0[p], norms=norms, slopes=slopes,
            max_slope=float(slopes[worst]), worst_sample=worst, bound=bound,
        )
    return out


def contractivity_probe(F: DiscreteForm, p: float, t_final: float,
                        n_samples: int, stepper: Stepper,
                        bound: float | None = None,
                        seed: int = 0, n_checkpoints: int = 10) -> GrowthTrace:
    """Single-p convenience wrapper around the block probe."""
    return contractivity_probe_multi(
        F, [p], t_final, n_samples, stepper, bounds=[bound], seed=seed,
        n_checkpoints=n_checkpoints,
    )[p]


def adjoint_duality_check(F: DiscreteForm, t: float, f: np.ndarray,
                          g: np.ndarray, stepper: Stepper) -> float:
    """|<T(t)f, g>_M - <f, T*(t)g>_M| via transposed stepping."""
    Tf = evolve(F, f, t, stepper)
    Tg = evolve_adjoint(F, g, t, stepper)
    lhs = F.mass * np.vdot(g, Tf)
    rhs = F.mass * np.vdot(Tg, f)
    return float(abs(lhs - rhs))


def trace_to_csv(trace: GrowthTrace, path) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["t", "worst_norm", "worst_slope", "bound"])
        for i, t in enumerate(trace.times):
            worst = float(trace.norms[i].max())
            slope = float(np.max(np.log(trace.norms[i] / trace.norms0) / t))
            wr.writerow([t, worst, slope, "" if trace.bound is None else trace.bound])
