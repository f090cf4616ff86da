"""Numerical extraction of the structural constants of a coefficient system.

Each constant (c0, kappa_A, kappa_B, kappa_C, kappa_W, ...) is the smallest
value making a defining sesquilinear inequality hold at every sampled node.
All of them reduce to largest singular values of suitably whitened node
matrices, so they are computed by exact finite-dimensional linear algebra;
randomized probing is used only as a cross-check in the tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .coefficients import BoxDomain, CoefficientSystem, SampledField, sample
from .pinterval import k_combination, phi_power

GAMMA_GRID = np.logspace(-4, 4, 200)


@dataclass(frozen=True)
class EstimateMode:
    """Which zero-order weight R(gamma) closes the drift/potential bounds.

    fixed_gamma: R = Cgamma at the user-supplied gamma.
    refined:     R = phi(gamma) = max of the two power terms (exponents a, b),
                 constants taken as the sup over a log grid of gamma.
    kernel:      R = c * gamma^(-beta), likewise sup over the gamma grid.
    """

    kind: str
    gamma: float = 1.0
    Cgamma: float = 1.0
    a: float = 0.25
    b: float | None = None
    beta: float = 0.0
    c: float = 1.0

    def __post_init__(self):
        if self.kind not in ("fixed_gamma", "refined", "kernel"):
            raise ValueError(f"unknown mode {self.kind!r}")
        if self.kind == "kernel" and self.c < 1:
            raise ValueError("kernel mode requires c >= 1")

    def gamma_candidates(self) -> np.ndarray:
        if self.kind == "fixed_gamma":
            return np.array([self.gamma])
        return GAMMA_GRID

    def weight(self, gamma: float) -> float:
        if self.kind == "fixed_gamma":
            return self.Cgamma
        if self.kind == "refined":
            return phi_power(self.a, self.b)(gamma)
        return self.c * gamma ** (-self.beta)


def fixed_gamma(gamma: float, Cgamma: float) -> EstimateMode:
    return EstimateMode("fixed_gamma", gamma=gamma, Cgamma=Cgamma)


def refined(a: float, b: float | None = None) -> EstimateMode:
    return EstimateMode("refined", a=a, b=b)


def kernel_mode(beta: float, c: float) -> EstimateMode:
    return EstimateMode("kernel", beta=beta, c=c)


class HypothesisViolation(ValueError):
    def __init__(self, message, node_coords=None, witness=None):
        super().__init__(message)
        self.node_coords = node_coords
        self.witness = witness


def _require_pd(w: np.ndarray, what: str, coords: np.ndarray | None):
    """Reject the first node whose ascending eigenvalues ``w`` are not all positive."""
    if np.any(w[..., 0] <= 0):
        idx = int(np.argmax(w[..., 0] <= 0))
        where = tuple(map(float, coords[idx])) if coords is not None else idx
        raise HypothesisViolation(
            f"{what} not positive definite at node {where} "
            f"(min eigenvalue {w[idx, 0]:.3e})",
            node_coords=where,
        )


def _inv_sqrt_eig(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U diag(w^{-1/2}) U^T per node."""
    return (U * w[..., None, :] ** -0.5) @ np.swapaxes(U, -1, -2)


def _inv_sqrt_spd(mats: np.ndarray, what: str, coords: np.ndarray | None = None):
    """Inverse square roots of a stack of symmetric matrices; rejects non-PD."""
    w, U = np.linalg.eigh(mats)
    _require_pd(w, what, coords)
    return _inv_sqrt_eig(w, U)


def _gamma_whiteners(Vvalues: np.ndarray, mode: EstimateMode, coords: np.ndarray):
    """Yield (gamma V_S + R(gamma) I)^{-1/2} for each gamma of the mode.

    V_S = U diag(lam) U^T is diagonalized once per node; every gamma then
    only shifts its eigenvalues to gamma*lam + R.
    """
    lam, U = np.linalg.eigh(0.5 * (Vvalues + np.swapaxes(Vvalues, -1, -2)))
    for gamma in mode.gamma_candidates():
        w = gamma * lam + mode.weight(gamma)
        _require_pd(w, f"gamma*V_S + R (gamma={gamma})", coords)
        yield _inv_sqrt_eig(w, U)


def _max_sv(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _resolve(system_or_samples, grid=None):
    if isinstance(system_or_samples, CoefficientSystem):
        return sample(system_or_samples, grid)
    return system_or_samples


def estimate_c0(Vfield: SampledField, return_per_node: bool = False):
    """Smallest c0 with |Im(V xi, xi)| <= c0 Re(V xi, xi) for all complex xi.

    Equals, nodewise, the largest singular value of the V_S-whitened
    antisymmetric part of V.
    """
    V = Vfield.values
    VS = 0.5 * (V + np.swapaxes(V, -1, -2))
    VA = 0.5 * (V - np.swapaxes(V, -1, -2))
    Wh = _inv_sqrt_spd(VS, "V_S", Vfield.domain.node_coords())
    per_node = _max_sv(Wh @ VA @ Wh)
    if return_per_node:
        return per_node
    return float(per_node.max())


def _kron_whitener(Qis: np.ndarray, m: int) -> np.ndarray:
    """Per-node Kronecker product Q^{-1/2} (x) I_m, shape (N, d*m, d*m)."""
    N, d = Qis.shape[0], Qis.shape[1]
    eye = np.eye(m)
    return np.einsum("nhk,ij->nhikj", Qis, eye).reshape(N, d * m, d * m)


def estimate_kappa_A(system_or_samples, grid: BoxDomain | None = None,
                     return_per_node: bool = False):
    """Smallest kappa bounding the second-order coupling against the
    diffusion quadratic form, plus the nonnegativity check of its real part."""
    fields = _resolve(system_or_samples, grid)
    A = fields["A"].values  # (N, d, d, m, m)
    N, d, _, m, _ = A.shape
    coords = fields["A"].domain.node_coords()

    # block matrix over (h, k), acting on stacked theta = (theta^1..theta^d)
    Abig = np.transpose(A, (0, 1, 3, 2, 4)).reshape(N, d * m, d * m)
    if not np.any(Abig):
        return np.zeros(N) if return_per_node else 0.0

    Qis = _inv_sqrt_spd(fields["Q"].values, "Q", coords)
    W = _kron_whitener(Qis, m)
    white = W @ Abig @ W

    sym = 0.5 * (white + np.swapaxes(white, -1, -2))
    evals, evecs = np.linalg.eigh(sym)
    scale = np.maximum(1.0, np.abs(evals).max())
    if np.any(evals[:, 0] < -1e-12 * scale):
        idx = int(np.argmin(evals[:, 0]))
        where = tuple(map(float, coords[idx]))
        raise HypothesisViolation(
            f"Re second-order coupling negative at node {where} "
            f"(eigenvalue {evals[idx, 0]:.3e})",
            node_coords=where,
            witness=evecs[idx, :, 0],
        )
    per_node = _max_sv(white)
    if return_per_node:
        return per_node
    return float(per_node.max())


def estimate_drift_constants(system_or_samples, grid: BoxDomain | None = None,
                             mode: EstimateMode | None = None):
    """(kappa_B, kappa_C): smallest constants in the mixed first-order bounds.

    Nodewise these are largest singular values of the doubly whitened block
    columns of the B^h / C^h, maximized over nodes and, for the gamma-family
    modes, over the gamma grid.
    """
    if mode is None:
        raise ValueError("mode is required")
    fields = _resolve(system_or_samples, grid)
    B = fields["B"].values  # (N, d, m, m)
    C = fields["C"].values
    N, d, m, _ = B.shape
    coords = fields["B"].domain.node_coords()

    if not np.any(B) and not np.any(C):
        return 0.0, 0.0

    Qis = _inv_sqrt_spd(fields["Q"].values, "Q", coords)
    W = _kron_whitener(Qis, m)
    Bcol = B.reshape(N, d * m, m)
    Ccol = C.reshape(N, d * m, m)

    kB = kC = 0.0
    for Gi in _gamma_whiteners(fields["V"].values, mode, coords):
        if np.any(Bcol):
            kB = max(kB, float(_max_sv(W @ Bcol @ Gi).max()))
        if np.any(Ccol):
            kC = max(kC, float(_max_sv(W @ Ccol @ Gi).max()))
    return kB, kC


def estimate_kappa_W(system_or_samples, grid: BoxDomain | None = None,
                     mode: EstimateMode | None = None) -> float:
    """Smallest kappa_W in the doubly weighted bound on the potential W."""
    if mode is None:
        raise ValueError("mode is required")
    fields = _resolve(system_or_samples, grid)
    Wmat = fields["W"].values
    if not np.any(Wmat):
        return 0.0
    coords = fields["W"].domain.node_coords()
    out = 0.0
    for Gi in _gamma_whiteners(fields["V"].values, mode, coords):
        out = max(out, float(_max_sv(Gi @ Wmat @ Gi).max()))
    return out


def estimate_nu0(system_or_samples, grid: BoxDomain | None = None) -> float:
    fields = _resolve(system_or_samples, grid)
    return float(np.linalg.eigvalsh(fields["Q"].values)[:, 0].min())


@dataclass
class HypothesisReport:
    """Constants and pass/fail flags for one system on one grid."""

    mode: str
    v0: float
    c0: float
    kappaA: float
    kappaB: float
    kappaC: float
    kappaW: float
    gamma: float
    Cgamma: float | None
    K: float
    nu0: float
    beta: float | None = None
    c: float | None = None
    kappa: float | None = None
    phi_params: dict | None = None
    best_gamma: float | None = None
    best_K: float | None = None
    passes: dict = field(default_factory=dict)
    worst_points: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(self.passes.values())

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=float)


def _worst_point(per_node: np.ndarray, coords: np.ndarray, maximize: bool = True):
    idx = int(np.argmax(per_node) if maximize else np.argmin(per_node))
    return {"node": list(map(float, coords[idx])), "value": float(per_node[idx])}


def check_all(system_or_samples, grid: BoxDomain | None = None,
              mode: EstimateMode | None = None) -> HypothesisReport:
    """Assemble every constant, evaluate K, and flag each sub-hypothesis.

    Failures never raise; they appear as False flags with the worst node
    recorded.  All infima/suprema are over the sampled grid nodes (the report
    notes that, so refinement studies can bracket the continuum value).
    """
    if mode is None:
        raise ValueError("mode is required")
    fields = _resolve(system_or_samples, grid)
    coords = fields["V"].domain.node_coords()
    passes: dict = {}
    worst: dict = {}
    notes = ["constants are grid-estimated (extrema over sampled nodes)"]

    VS_min = np.linalg.eigvalsh(
        0.5 * (fields["V"].values + np.swapaxes(fields["V"].values, -1, -2))
    )[:, 0]
    v0 = float(VS_min.min())
    passes["V_S_positive"] = v0 > 0
    worst["v0"] = _worst_point(VS_min, coords, maximize=False)

    lamQ = np.linalg.eigvalsh(fields["Q"].values)[:, 0]
    nu0 = float(lamQ.min())
    passes["Q_positive"] = nu0 > 0
    worst["nu0"] = _worst_point(lamQ, coords, maximize=False)

    c0 = float("nan")
    if passes["V_S_positive"]:
        per = estimate_c0(fields["V"], return_per_node=True)
        c0 = float(per.max())
        worst["c0"] = _worst_point(per, coords)
    passes["imaginary_domination"] = np.isfinite(c0)

    kappaA = float("nan")
    try:
        per = estimate_kappa_A(fields, return_per_node=True)
        kappaA = float(per.max())
        worst["kappaA"] = _worst_point(per, coords)
        passes["coupling_nonnegative"] = True
    except HypothesisViolation as err:
        passes["coupling_nonnegative"] = False
        notes.append(str(err))

    kappaB = kappaC = kappaW = float("nan")
    if passes["V_S_positive"] and passes["Q_positive"]:
        try:
            kappaB, kappaC = estimate_drift_constants(fields, mode=mode)
            kappaW = estimate_kappa_W(fields, mode=mode)
        except HypothesisViolation as err:
            notes.append(str(err))
    passes["drift_bounds_finite"] = all(
        np.isfinite(x) for x in (kappaB, kappaC, kappaW)
    )

    gamma = mode.gamma if mode.kind == "fixed_gamma" else 1.0
    K = float("nan")
    if passes["drift_bounds_finite"] and gamma * kappaW < 1:
        K = k_combination(kappaB, kappaC, kappaW, gamma)
    passes["K_positive"] = np.isfinite(K) and K > 0

    best_gamma = best_K = None
    if passes["drift_bounds_finite"]:
        best_K = -np.inf
        for g in GAMMA_GRID:
            if g * kappaW >= 1:
                continue
            Kg = k_combination(kappaB, kappaC, kappaW, g)
            if Kg > best_K:
                best_K, best_gamma = float(Kg), float(g)
        if best_K == -np.inf:
            best_K = best_gamma = None

    report = HypothesisReport(
        mode=mode.kind,
        v0=v0, c0=c0, kappaA=kappaA, kappaB=kappaB, kappaC=kappaC,
        kappaW=kappaW, gamma=gamma,
        Cgamma=mode.Cgamma if mode.kind == "fixed_gamma" else None,
        K=K, nu0=nu0,
        best_gamma=best_gamma, best_K=best_K,
        passes=passes, worst_points=worst, notes=notes,
    )

    if mode.kind == "refined":
        report.phi_params = {"a": mode.a, "b": mode.b if mode.b is not None else 2 * mode.a}
    if mode.kind == "kernel":
        report.beta = mode.beta
        report.c = mode.c
        report.kappa = max(kappaB, kappaC) if passes["drift_bounds_finite"] else None
        passes["kernel_nu0_positive"] = nu0 > 0
        passes["kernel_A_vanishes"] = not np.any(fields["A"].values)
        passes["kernel_W_vanishes"] = not np.any(fields["W"].values)
        passes["kernel_c_ge_1"] = mode.c >= 1

    return report
