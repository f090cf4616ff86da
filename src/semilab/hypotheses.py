"""Numerical extraction of the structural constants of a coefficient system.

Each constant (c0, kappa_A, kappa_B, kappa_C, kappa_W, ...) is the smallest
value making a defining sesquilinear inequality hold at every sampled node.
All of them reduce to largest singular values of suitably whitened node
matrices, so they are computed by exact finite-dimensional linear algebra;
randomized probing is used only as a cross-check in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coefficients import BoxDomain, SampledField
from .pinterval import k_combination, phi_power

GAMMA_GRID = np.logspace(-4, 4, 200)

# the parameters each mode reads
MODE_PARAMS = {"fixed_gamma": ("gamma", "Cgamma"), "refined": ("a", "b"),
               "kernel": ("beta", "c")}


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
        if self.kind not in MODE_PARAMS:
            raise ValueError(f"unknown mode {self.kind!r}")
        if self.kind == "fixed_gamma" and not self.gamma > 0:
            raise ValueError("fixed_gamma mode requires gamma > 0")
        if self.kind == "refined":
            phi_power(self.a, self.b)  # rejects a outside ]0, 1/2[, b outside [0, 1[
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
    pass


def _require_pd(w: np.ndarray, what: str, domain: BoxDomain):
    """Reject the first node of ``domain`` whose ascending eigenvalues ``w``
    are not all positive."""
    if np.any(w[..., 0] <= 0):
        idx = int(np.argmax(w[..., 0] <= 0))
        where = tuple(map(float, domain.node_coords()[idx]))
        raise HypothesisViolation(
            f"{what} not positive definite at node {where} "
            f"(min eigenvalue {w[idx, 0]:.3e})")


def _inv_sqrt_eig(w: np.ndarray, U: np.ndarray) -> np.ndarray:
    """U diag(w^{-1/2}) U^T per node."""
    return (U * w[..., None, :] ** -0.5) @ np.swapaxes(U, -1, -2)


def _inv_sqrt(field: SampledField, what: str) -> np.ndarray:
    """Per-node inverse square root of the field's symmetric part, from its
    spectrum; rejects the first node where that part is not positive definite."""
    w, U = field.spectrum
    _require_pd(w, what, field.domain)
    return _inv_sqrt_eig(w, U)


def _max_sv(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def estimate_c0(Vfield: SampledField) -> np.ndarray:
    """Per-node smallest c0 with |Im(V xi, xi)| <= c0 Re(V xi, xi) for all
    complex xi: the largest singular value of the V_S-whitened antisymmetric
    part of V.
    """
    V = Vfield.values
    VA = 0.5 * (V - np.swapaxes(V, -1, -2))
    Wh = _inv_sqrt(Vfield, "V_S")
    return _max_sv(Wh @ VA @ Wh)


def _kron_whitener(Qis: np.ndarray, m: int) -> np.ndarray:
    """Per-node Kronecker product Q^{-1/2} (x) I_m, shape (N, d*m, d*m)."""
    N, d = Qis.shape[0], Qis.shape[1]
    eye = np.eye(m)
    return np.einsum("nhk,ij->nhikj", Qis, eye).reshape(N, d * m, d * m)


def estimate_kappa_A(fields: dict) -> np.ndarray:
    """Per-node smallest kappa bounding the second-order coupling against the
    diffusion quadratic form, plus the nonnegativity check of its real part."""
    A = fields["A"].values  # (N, d, d, m, m)
    N, d, _, m, _ = A.shape

    # block matrix over (h, k), acting on stacked theta = (theta^1..theta^d)
    Abig = np.transpose(A, (0, 1, 3, 2, 4)).reshape(N, d * m, d * m)
    if not np.any(Abig):
        return np.zeros(N)

    W = _kron_whitener(_inv_sqrt(fields["Q"], "Q"), m)
    white = W @ Abig @ W

    sym = 0.5 * (white + np.swapaxes(white, -1, -2))
    evals = np.linalg.eigvalsh(sym)
    scale = np.maximum(1.0, np.abs(evals).max())
    if np.any(evals[:, 0] < -1e-12 * scale):
        idx = int(np.argmin(evals[:, 0]))
        where = tuple(map(float, fields["A"].domain.node_coords()[idx]))
        raise HypothesisViolation(
            f"Re second-order coupling negative at node {where} "
            f"(eigenvalue {evals[idx, 0]:.3e})")
    return _max_sv(white)


def estimate_gamma_constants(fields: dict, mode: EstimateMode) -> tuple:
    """(kappa_B, kappa_C, kappa_W) from one sweep over the mode's gammas.

    kappa_B and kappa_C are the largest singular values of the doubly whitened
    block columns of the B^h / C^h, kappa_W that of W whitened on both sides
    by G = (gamma V_S + R(gamma) I)^{-1/2}; each is maximized over nodes and
    gammas.  V_S = U diag(lam) U^T comes from the field's spectrum, so every
    gamma only shifts its eigenvalues to gamma*lam + R.
    """
    B = fields["B"].values  # (N, d, m, m)
    N, d, m, _ = B.shape
    Bcol = B.reshape(N, d * m, m)
    Ccol = fields["C"].values.reshape(N, d * m, m)
    Wmat = fields["W"].values
    has_b, has_c, has_w = np.any(Bcol), np.any(Ccol), np.any(Wmat)
    if not (has_b or has_c or has_w):
        return 0.0, 0.0, 0.0

    if has_b or has_c:
        Wq = _kron_whitener(_inv_sqrt(fields["Q"], "Q"), m)
    lam, U = fields["V"].spectrum
    kB = kC = kW = 0.0
    for gamma in mode.gamma_candidates():
        # a refined R(gamma) overflows to inf at the grid's smallest gammas
        # when an exponent is near its bound; inf is its limit and whitens to 0
        with np.errstate(over="ignore"):
            w = gamma * lam + mode.weight(gamma)
        _require_pd(w, f"gamma*V_S + R (gamma={gamma})", fields["V"].domain)
        Gi = _inv_sqrt_eig(w, U)
        if has_b:
            kB = max(kB, float(_max_sv(Wq @ Bcol @ Gi).max()))
        if has_c:
            kC = max(kC, float(_max_sv(Wq @ Ccol @ Gi).max()))
        if has_w:
            kW = max(kW, float(_max_sv(Gi @ Wmat @ Gi).max()))
    return kB, kC, kW


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


def _worst_point(per_node: np.ndarray, coords: np.ndarray, maximize: bool = True):
    idx = int(np.argmax(per_node) if maximize else np.argmin(per_node))
    return {"node": list(map(float, coords[idx])), "value": float(per_node[idx])}


def check_all(fields: dict, mode: EstimateMode) -> HypothesisReport:
    """Assemble every constant, evaluate K, and flag each sub-hypothesis.

    Failures never raise; they appear as False flags with the worst node
    recorded.  All infima/suprema are over the sampled grid nodes (the report
    notes that, so refinement studies can bracket the continuum value).
    """
    coords = fields["V"].domain.node_coords()
    passes: dict = {}
    worst: dict = {}
    notes = ["constants are grid-estimated (extrema over sampled nodes)"]

    VS_min = fields["V"].spectrum.eigenvalues[:, 0]
    v0 = float(VS_min.min())
    passes["V_S_positive"] = v0 > 0
    worst["v0"] = _worst_point(VS_min, coords, maximize=False)

    lamQ = fields["Q"].spectrum.eigenvalues[:, 0]
    nu0 = float(lamQ.min())
    passes["Q_positive"] = nu0 > 0
    worst["nu0"] = _worst_point(lamQ, coords, maximize=False)

    c0 = float("nan")
    if passes["V_S_positive"]:
        per = estimate_c0(fields["V"])
        c0 = float(per.max())
        worst["c0"] = _worst_point(per, coords)
    passes["imaginary_domination"] = bool(np.isfinite(c0))

    kappaA = float("nan")
    try:
        per = estimate_kappa_A(fields)
        kappaA = float(per.max())
        worst["kappaA"] = _worst_point(per, coords)
        passes["coupling_nonnegative"] = True
    except HypothesisViolation as err:
        passes["coupling_nonnegative"] = False
        notes.append(str(err))

    kappaB = kappaC = kappaW = float("nan")
    if passes["V_S_positive"] and passes["Q_positive"]:
        try:
            kappaB, kappaC, kappaW = estimate_gamma_constants(fields, mode)
        except HypothesisViolation as err:
            notes.append(str(err))
    passes["drift_bounds_finite"] = all(
        np.isfinite(x) for x in (kappaB, kappaC, kappaW)
    )

    gamma = mode.gamma if mode.kind == "fixed_gamma" else 1.0
    K = float("nan")
    if passes["drift_bounds_finite"] and gamma * kappaW < 1:
        K = k_combination(kappaB, kappaC, kappaW, gamma)
    passes["K_positive"] = bool(np.isfinite(K) and K > 0)

    best_gamma = best_K = None
    gammas = GAMMA_GRID[GAMMA_GRID * kappaW < 1]
    if passes["drift_bounds_finite"] and gammas.size:
        Ks = k_combination(kappaB, kappaC, kappaW, gammas)
        best = int(np.argmax(Ks))  # the first maximum
        best_gamma, best_K = float(gammas[best]), float(Ks[best])

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
