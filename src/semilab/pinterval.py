"""Closed-form p-interval and kernel-bound constant algebra.

Everything here is pure arithmetic on the hypothesis constants
(kappa_A, kappa_B, kappa_C, kappa_W, gamma, ...).  Each closed form has an
independent positive-semidefiniteness oracle next to it so the two can be
cross-checked in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntervalSpec:
    """Interval of admissible exponents p, with open/closed endpoints."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if not 1 <= self.lo < self.hi:
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def kind(self) -> str:
        if self.lo == 1 and math.isinf(self.hi):
            return "all_p"
        if math.isinf(self.hi):
            return "left_closed" if self.lo_closed else "open"
        if self.lo_closed and self.hi_closed:
            return "closed"
        if self.hi_closed and not self.lo_closed:
            return "right_closed"
        if self.lo_closed:
            return "left_closed"
        return "open"

    def contains(self, p: float) -> bool:
        if p < self.lo or p > self.hi:
            return False
        if p == self.lo and not self.lo_closed:
            return False
        if p == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "]"
        right = "]" if self.hi_closed else "["
        lo = "1" if (self.lo == 1 and not self.lo_closed) else repr(float(self.lo))
        hi = "inf" if math.isinf(self.hi) else repr(float(self.hi))
        return f"{left}{lo}, {hi}{right}"


def holder_conjugate(p: float) -> float:
    if p <= 1:
        raise ValueError("p must exceed 1")
    return p / (p - 1)


def k_combination(kappaB, kappaC, kappaW, gamma) -> float:
    """K = 4(1/gamma - kappa_W) - (kappa_B + kappa_C)^2; Theorem 3.3 needs K > 0."""
    return 4 * (1 / gamma - kappaW) - (kappaB + kappaC) ** 2


def interval_thm33(kappaA, kappaB, kappaC, kappaW, gamma) -> IntervalSpec:
    """Admissible p-interval from the explicit four-case formula.

    The combination K of ``k_combination`` must be positive.
    """
    for name, v in [("kappaA", kappaA), ("kappaB", kappaB), ("kappaC", kappaC), ("kappaW", kappaW)]:
        if v < 0:
            raise ValueError(f"{name} must be nonnegative")
    if gamma <= 0 or gamma * kappaW >= 1:
        raise ValueError("need gamma > 0 and gamma*kappaW < 1")
    K = k_combination(kappaB, kappaC, kappaW, gamma)
    if K <= 0:
        raise ValueError(f"hypothesis violated: K = {K} <= 0")

    if kappaA == 0 and kappaB == 0 and kappaC == 0:
        return IntervalSpec(1.0, math.inf, False, False)
    if kappaA == 0 and kappaC == 0:
        lo = 1 + gamma * kappaB**2 / (4 * (1 - gamma * kappaW))
        return IntervalSpec(lo, math.inf, True, False)
    if kappaA == 0 and kappaB == 0:
        hi = 1 + 4 * (1 - gamma * kappaW) / (gamma * kappaC**2)
        return IntervalSpec(1.0, hi, False, True)
    s = kappaA * (kappaB + kappaC)
    delta1 = K / ((kappaA**2 + 1) * K + (s + kappaB) ** 2)
    delta2 = K / (kappaA**2 * K + (s + kappaC) ** 2)
    return IntervalSpec(2 - delta1, 2 + delta2, True, True)


def _M_gamma(kappaA, kappaB, kappaC, kappaW, gamma, p):
    """The 3x3 feasibility matrix for exponents p >= 2 (vectorized over p)."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = p.shape[0]
    M = np.empty((n, 3, 3))
    M[:, 0, 0] = 1.0
    M[:, 0, 1] = M[:, 1, 0] = -(p - 2) * kappaA
    M[:, 0, 2] = M[:, 2, 0] = -(kappaB + kappaC) / 2
    M[:, 1, 1] = p - 2
    M[:, 1, 2] = M[:, 2, 1] = -(p - 2) * kappaC / 2
    M[:, 2, 2] = 1 / gamma - kappaW
    return M


def psd_sweep_Mgamma(kappaA, kappaB, kappaC, kappaW, gamma, p_grid, tol=-1e-12):
    """Admissible subset of ``p_grid`` by eigenvalue test of the 3x3 matrix.

    Exponents below 2 are handled by the duality swap: test the conjugate
    exponent with kappa_B and kappa_C exchanged.
    """
    p_grid = np.asarray(p_grid, dtype=float)
    ok = np.zeros(p_grid.shape, dtype=bool)

    hi_mask = p_grid >= 2
    if np.any(hi_mask):
        M = _M_gamma(kappaA, kappaB, kappaC, kappaW, gamma, p_grid[hi_mask])
        ok[hi_mask] = np.linalg.eigvalsh(M)[:, 0] >= tol

    lo_mask = (p_grid > 1) & (p_grid < 2)
    if np.any(lo_mask):
        p_dual = p_grid[lo_mask] / (p_grid[lo_mask] - 1)
        M = _M_gamma(kappaA, kappaC, kappaB, kappaW, gamma, p_dual)
        ok[lo_mask] = np.linalg.eigvalsh(M)[:, 0] >= tol

    return p_grid[ok]


def admissible_p_range_thm35(kappaA) -> tuple:
    """Open interval of exponents on which gamma_p is defined."""
    if kappaA < 0:
        raise ValueError("kappaA must be nonnegative")
    if kappaA == 0:
        return 1.0, math.inf
    return 1 + 2 * kappaA / (2 * kappaA + 1), 2 + 1 / (2 * kappaA)


def gamma_p(kappaA, kappaB, kappaC, kappaW, p) -> float:
    lo, hi = admissible_p_range_thm35(kappaA)
    if not lo < p < hi:
        raise ValueError(f"p = {p} outside admissible range ]{lo}, {hi}[")
    denom = 4 * (min((p - 1) ** 2, 1.0) - 2 * kappaA * min(p - 1, 1.0) * abs(p - 2))
    if denom <= 0:
        raise ValueError("denominator not positive; p too close to the range boundary")
    inv = kappaW + (kappaB + (p - 1) * kappaC) ** 2 / denom
    if inv == 0:
        return math.inf
    return 1.0 / inv


def growth_exponent_thm35(phi, p, gamma_p_value) -> float:
    """Exponential growth rate phi(gamma_p)/gamma_p of the p-norm bound."""
    return phi(gamma_p_value) / gamma_p_value


def phi_power(a: float, b: float | None = None):
    """The power-family rate function with exponents a in ]0,1/2[, b in [0,1[.

    Returns gamma -> max of the two power terms; b defaults to 2a.
    """
    if not 0 < a < 0.5:
        raise ValueError("a must lie in ]0, 1/2[")
    if b is None:
        b = 2 * a
    if not 0 <= b < 1:
        raise ValueError("b must lie in [0, 1[")

    c_a = (1 - 2 * a) * (2 * a) ** (2 * a / (1 - 2 * a))
    e_a = 2 * a / (2 * a - 1)

    def phi(gamma):
        term_a = c_a * gamma**e_a
        return max(term_a, phi_hat_power(b)(gamma))

    return phi


def phi_hat_power(b: float):
    """gamma -> (1-b) (gamma/b)^{b/(b-1)}; the b = 0 limit is the constant 1."""
    if not 0 <= b < 1:
        raise ValueError("b must lie in [0, 1[")
    if b == 0:
        return lambda gamma: 1.0
    c_b = (1 - b) * b ** (b / (1 - b))
    e_b = b / (b - 1)
    return lambda gamma: c_b * gamma**e_b


def closed_form_exponent_b2a(a, kappa, kappaW, d, p, kappaA=0.0) -> float:
    """Growth exponent for the power family with b = 2a and drift bound
    kappa_B = kappa_C = kappa*sqrt(d), written out in closed form."""
    denom = 4 * (min((p - 1) ** 2, 1.0) - 2 * kappaA * min(p - 1, 1.0) * abs(p - 2))
    base = kappaW + p**2 * kappa**2 * d / denom
    return (1 - 2 * a) * (2 * a) ** (2 * a / (1 - 2 * a)) * base ** (1 / (1 - 2 * a))


def psd_check_Egamma(kappaA, kappaB, kappaC, kappaW, gamma, p) -> bool:
    """Positive semidefiniteness of the 2x2 quadratic form behind gamma_p.

    Exponents below 2 go through the duality swap first.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if p < 2:
        p = p / (p - 1)
        kappaB, kappaC = kappaC, kappaB
    alpha = 1 + 2 * kappaA * (2 - p)
    if alpha <= 0:
        return False
    cc = 1 / gamma - kappaW
    if cc < 0:
        return False
    mid = kappaB + (p - 1) * kappaC
    disc = mid**2 - 4 * alpha * cc
    scale = max(1.0, mid**2, 4 * alpha * cc)
    return bool(disc <= 1e-9 * scale)


def tau_constants(kappa, c, beta, p, sigma) -> tuple:
    """The pair (tau, hat_tau) of twisted-form shift constants."""
    if p < 2:
        raise ValueError("p must be at least 2")
    if c < 1:
        raise ValueError("c must be at least 1")
    s = abs(sigma)
    tau = c * ((4 * (sigma**2 + 2 * kappa * s) + p**2 * (s + kappa) ** 2) / 4) ** (beta + 1)
    hat_tau = c * (sigma**2 + 2 * kappa * s + p**2 / 2 * (s + kappa) ** 2) ** (beta + 1)
    assert tau <= hat_tau * (1 + 1e-13)
    return tau, hat_tau


def hhat_constant(kappa, c, beta) -> float:
    return 2 ** (2 * beta + 1) * c * max(1.0, kappa ** (2 * beta + 2))


def moser_sums(r: float, beta: float) -> tuple:
    """Closed forms and truncated product of the iteration sums.

    Returns (R, A, B, L, truncation_index) for the time-slice sequence
    t_j = ((S-1)/S) S^{-j}, S = (R^{2beta+1}+1)R, and exponents p_j = 2R^j.
    """
    if r <= 2:
        raise ValueError("r must exceed 2")
    R = r / (r - 1)
    S = (R ** (2 * beta + 1) + 1) * R
    A = (R**2 * (R ** (2 * beta + 1) + 1) - R) / (2 * (R**2 * (R ** (2 * beta + 1) + 1) - 1))
    L = 2 ** (2 * beta + 2) / R * ((R ** (2 * beta + 1) + 1) * R - 1)

    # log B = sum_j -log(t_j)/(2 p_j), terms decay geometrically in 1/R
    log_head = math.log(S / (S - 1))
    log_S = math.log(S)
    log_B = 0.0
    j = 0
    while True:
        term = (log_head + j * log_S) / (4 * R**j)
        log_B += term
        j += 1
        # geometric tail bound: remaining sum < term * R/(R-1) * 2 once terms shrink
        if term * 2 * R / (R - 1) < 1e-14 and j > 4:
            break
        if j > 100000:
            raise RuntimeError("product truncation failed to converge")
    B = math.exp(log_B)
    assert A < 1
    return R, A, B, L, j


def sobolev_chat(r: float, d: int) -> float:
    """Documented explicit upper bound for the interpolation-Sobolev constant.

    The constant chat satisfies
        ||u||_{2r/(r-2)}^2 <= chat^2 ||u||_2^{2-2d/r} (||u||_2^2 + ||grad u||_2^2)^{d/r}.
    For d >= 3 (r = d) this follows from the sharp gradient embedding; for
    d = 1, 2 (r = 3) from elementary interpolation / isoperimetric bounds.
    """
    if d >= 3:
        if r != d:
            raise ValueError("only r = d is supported for d >= 3")
        return (math.pi * d * (d - 2)) ** -0.5 * (math.gamma(d) / math.gamma(d / 2)) ** (1 / d)
    if r != 3:
        raise ValueError("only r = 3 is supported for d <= 2")
    if d == 1:
        return 4 ** (1 / 6)
    return (3 / (2 * math.pi)) ** (1 / 3)


@dataclass(frozen=True)
class ConstantsBundle:
    """All explicit constants of the kernel upper bound, traced end to end."""

    d: int
    beta: float
    kappa: float
    c: float
    nu0: float
    r: float
    rstar: float
    R: float
    A_rb: float
    B_rb: float
    L_rb: float
    trunc_index: int
    Hhat: float
    H: float
    H1: float
    chat: float
    C_dbeta: float
    C0: float
    C1: float
    C2: float

    def __post_init__(self):
        for name in ("A_rb", "B_rb", "L_rb", "Hhat", "H", "H1", "C0", "C1", "C2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"constant {name} = {v} not positive finite")
        if self.A_rb >= 1:
            raise ValueError("A_rb must be below 1")


def kernel_constants(d: int, beta: float, kappa: float, c: float, nu0: float) -> ConstantsBundle:
    """Assemble the kernel-bound constants (C0, C1, C2) and intermediates."""
    # written so that NaN fails every comparison and is rejected
    if not (beta >= 0 and 0 < kappa < math.inf and 0 < nu0 < math.inf):
        raise ValueError("beta >= 0 and finite kappa > 0, nu0 > 0 required")
    if c < 1:
        raise ValueError("c must be at least 1")
    r = d if d >= 3 else 3
    rstar = 2 * r / (r - 2)
    R, A, B, L, jtrunc = moser_sums(r, beta)

    Hhat = hhat_constant(kappa, c, beta)
    H = max(rstar ** (2 * beta + 2) * Hhat, nu0 / 2) * (2 * A + L)
    C1 = 2 ** (2 * beta + 2) * Hhat
    pw = 1 / (2 * beta + 1)
    C2 = (2 * beta + 1) / (2 * beta + 2) * (2 ** (2 * beta + 2) * Hhat * (2 * beta + 2)) ** (-pw)
    H1 = H * (2 ** (2 * beta + 2) * Hhat * (2 * beta + 2)) ** (-(2 * beta + 2) * pw)

    chat = sobolev_chat(r, d)
    c_rd = chat ** (d / r) * d ** (d / (2 * r)) * r ** (-d / (2 * r))
    C_dbeta = c_rd ** (r / 2) * B ** (d / r) * math.e
    C0 = 2 ** (d / 2) * C_dbeta**2 * nu0 ** (-d / 2) * max(1.0, H, H1) ** (d / 2)

    return ConstantsBundle(
        d=d, beta=beta, kappa=kappa, c=c, nu0=nu0,
        r=r, rstar=rstar, R=R, A_rb=A, B_rb=B, L_rb=L, trunc_index=jtrunc,
        Hhat=Hhat, H=H, H1=H1, chat=chat, C_dbeta=C_dbeta, C0=C0, C1=C1, C2=C2,
    )


def gaussian_bound_rhs(bundle: ConstantsBundle, t, dist):
    """Right-hand side of the off-diagonal kernel bound (vectorized in dist)."""
    if t <= 0:
        raise ValueError("t must be positive")
    dist = np.asarray(dist, dtype=float)
    if np.any(dist < 0):
        raise ValueError("dist must be nonnegative")
    beta, d = bundle.beta, bundle.d
    q = (2 * beta + 2) / (2 * beta + 1)
    X = (dist / t) ** q
    pre = bundle.C0 * (1 + 1 / t + X) ** (d / 2)
    expo = bundle.C1 * t - bundle.C2 * t ** (-1 / (2 * beta + 1)) * dist**q
    return pre * np.exp(expo)
