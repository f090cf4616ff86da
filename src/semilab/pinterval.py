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
    """Interval of admissible exponents p.  Its ends decide its closedness:
    it is closed at each finite end above 1, and open at 1 and at inf."""

    lo: float
    hi: float

    def __post_init__(self):
        # written so that NaN fails every comparison and is rejected
        if not (1 <= self.lo < self.hi or 1 < self.lo == self.hi < math.inf):
            raise ValueError(f"bad interval [{self.lo}, {self.hi}]")

    @property
    def lo_closed(self) -> bool:
        return self.lo > 1

    @property
    def hi_closed(self) -> bool:
        return self.hi < math.inf

    def contains(self, p):
        """Whether p lies in the interval; elementwise for an array p."""
        p = np.asarray(p, dtype=float)
        inside = (p > 1) & (p >= self.lo) & (p <= self.hi) & (p < math.inf)
        return inside if inside.ndim else bool(inside)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "]"
        right = "]" if self.hi_closed else "["
        lo = repr(float(self.lo)) if self.lo_closed else "1"
        hi = repr(float(self.hi)) if self.hi_closed else "inf"
        return f"{left}{lo}, {hi}{right}"


def k_combination(kappaB, kappaC, kappaW, gamma) -> float:
    """K = 4(1/gamma - kappa_W) - (kappa_B + kappa_C)^2; Theorem 3.3 needs K > 0."""
    s = kappaB + kappaC
    # a product, not a power: a float power raises OverflowError, s * s is inf
    return 4 * (1 / gamma - kappaW) - s * s


def interval_thm33(kappaA, kappaB, kappaC, kappaW, gamma) -> IntervalSpec:
    """Admissible p-interval [2 - delta1, 2 + delta2] of Theorem 3.3; the
    kappa_A = 0 cases are limits of the same formula.

    The combination K of ``k_combination`` must be positive and finite.
    """
    # written so that NaN fails every comparison and is rejected
    for name, v in [("kappaA", kappaA), ("kappaB", kappaB), ("kappaC", kappaC), ("kappaW", kappaW)]:
        if not v >= 0:
            raise ValueError(f"{name} must be nonnegative")
    if not (gamma > 0 and gamma * kappaW < 1):
        raise ValueError("need gamma > 0 and gamma*kappaW < 1")
    K = k_combination(kappaB, kappaC, kappaW, gamma)
    if not K > 0:
        raise ValueError(f"hypothesis violated: K = {K} <= 0")
    if K == math.inf:  # 1/gamma, or 4/gamma, beyond the float range
        raise ValueError(f"gamma = {gamma} is too small: K overflows to inf")

    s = kappaA * (kappaB + kappaC)
    # products, not powers, as in k_combination: a huge kappa_A gives
    # delta = 0 and so the point interval [2, 2], not an OverflowError
    delta1 = K / ((kappaA * kappaA + 1) * K + (s + kappaB) * (s + kappaB))
    lo = 2 - delta1
    # kappa_A = kappa_C = 0, or a denominator that underflows to 0, leaves
    # no right end; a quotient beyond the float range is no end either
    den2 = kappaA * kappaA * K + (s + kappaC) * (s + kappaC)
    hi = 2 + K / den2 if den2 > 0 else math.inf
    return IntervalSpec(lo, hi)


def psd_sweep_Mgamma(kappaA, kappaB, kappaC, kappaW, gamma, p_grid):
    """Whether each point of ``p_grid`` is admissible: a boolean array, true
    at the exponents p > 1 at which the 3x3 feasibility matrix M_gamma(p) has
    no eigenvalue below -1e-12.

    For p >= 2, with t = p - 2, b = kappa_B + kappa_C and c = 1/gamma - kappa_W,
        M_gamma(p) = [[1, -t kappa_A, -b/2], [-t kappa_A, t, -t kappa_C/2],
                      [-b/2, -t kappa_C/2, c]].
    The (0,0) entry of M + 1e-12 I is e = 1 + 1e-12 > 0, so M + 1e-12 I is
    PSD exactly when the 2x2 Schur complement of that entry is: both its
    diagonal entries and its determinant nonnegative.  Exponents below 2 go
    through the duality swap: the conjugate exponent, with kappa_B and
    kappa_C exchanged (which changes only the coupling -t kappa_C/2).
    """
    p_grid = np.asarray(p_grid, dtype=float)
    dual = p_grid < 2
    b = kappaB + kappaC
    e = 1 + 1e-12
    tail = kappaA * b / (2 * e)
    # p <= 1 has no conjugate and is not admissible; an entry beyond the
    # float range makes a verdict of inf or NaN, and NaN is not admissible
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        t = np.where(dual, p_grid / (p_grid - 1), p_grid) - 2
        s11 = t + 1e-12 - (t * kappaA) * (t * kappaA) / e
        s12 = -t * np.where(dual, kappaB / 2 + tail, kappaC / 2 + tail)
        s22 = 1 / gamma - kappaW + 1e-12 - (b / 2) * (b / 2) / e
        return (p_grid > 1) & (s11 >= 0) & (s22 >= 0) & (s11 * s22 >= s12 * s12)


def admissible_p_range_thm35(kappaA) -> tuple:
    """Open interval of exponents on which gamma_p is defined."""
    if kappaA < 0:
        raise ValueError("kappaA must be nonnegative")
    if kappaA == 0:
        return 1.0, math.inf
    return 1 + 2 * kappaA / (2 * kappaA + 1), 2 + 1 / (2 * kappaA)


def gamma_p(kappaA, kappaB, kappaC, kappaW, p) -> float:
    # written so that NaN fails every comparison and is rejected
    for name, v in [("kappaA", kappaA), ("kappaB", kappaB), ("kappaC", kappaC), ("kappaW", kappaW)]:
        if not 0 <= v < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative")
    lo, hi = admissible_p_range_thm35(kappaA)
    if not lo < p < hi:
        raise ValueError(f"p = {p} outside admissible range ]{lo}, {hi}[")
    q = min(p - 1, 1.0)  # squared after the min, so a huge p cannot overflow
    denom = 4 * (q ** 2 - 2 * kappaA * q * abs(p - 2))
    if denom <= 0:
        raise ValueError("denominator not positive; p too close to the range boundary")
    t = kappaB + (p - 1) * kappaC
    # a product, not a power: a float power raises OverflowError, t * t is inf
    inv = kappaW + t * t / denom
    if inv == 0:
        return math.inf
    if inv == math.inf:
        raise ValueError(f"gamma_p at p = {p} lies below the float range")
    return 1.0 / inv


def phi_power(gamma, a: float, b: float | None = None):
    """The power-family rate function phi(gamma) with exponents a in ]0,1/2[
    and b in [0,1[ (b defaults to 2a), elementwise for an array gamma: the
    larger of (1-2a) (2a)^{2a/(1-2a)} gamma^{2a/(2a-1)} and
    (1-b) b^{b/(1-b)} gamma^{b/(b-1)}, which at b = 0 is exactly 1.  A power
    beyond the float range is inf, its limit."""
    if not 0 < a < 0.5:
        raise ValueError("a must lie in ]0, 1/2[")
    if b is None:
        b = 2 * a
    if not 0 <= b < 1:
        raise ValueError("b must lie in [0, 1[")
    c_a = (1 - 2 * a) * (2 * a) ** (2 * a / (1 - 2 * a))
    c_b = (1 - b) * b ** (b / (1 - b))
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore"):
        return np.maximum(c_a * gamma ** (2 * a / (2 * a - 1)),
                          c_b * gamma ** (b / (b - 1)))


def closed_form_exponent_b2a(a, kappa, kappaW, d, p, kappaA=0.0) -> float:
    """Growth exponent for the power family with b = 2a and drift bound
    kappa_B = kappa_C = kappa*sqrt(d), written out in closed form."""
    # squares after the min and as products, as in gamma_p: at a huge p a
    # float power raises OverflowError, while p * p is inf
    q = min(p - 1, 1.0)
    denom = 4 * (q * q - 2 * kappaA * q * abs(p - 2))
    base = kappaW + p * p * kappa * kappa * d / denom
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
    """Closed forms of the iteration sums.

    Returns (R, A, B, L) for the time-slice sequence t_j = ((S-1)/S) S^{-j},
    S = (R^{2beta+1}+1)R, and exponents p_j = 2R^j.  B is the product of
    t_j^{-1/(2 p_j)}, so log B = sum_j (log(S/(S-1)) + j log S) / (4 R^j), an
    arithmetico-geometric series: with x = 1/R, sum_j x^j = R/(R-1) and
    sum_j j x^j = R/(R-1)^2.
    """
    if r <= 2:
        raise ValueError("r must exceed 2")
    R = r / (r - 1)
    S = (R ** (2 * beta + 1) + 1) * R
    A = (R**2 * (R ** (2 * beta + 1) + 1) - R) / (2 * (R**2 * (R ** (2 * beta + 1) + 1) - 1))
    L = 2 ** (2 * beta + 2) / R * ((R ** (2 * beta + 1) + 1) * R - 1)
    log_B = (math.log(S / (S - 1)) * R / (R - 1) + math.log(S) * R / (R - 1) ** 2) / 4
    B = math.exp(log_B)
    assert A < 1
    return R, A, B, L


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
    try:
        R, A, B, L = moser_sums(r, beta)

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
    except OverflowError:  # a power beyond the float range
        raise ValueError(f"the kernel constants at beta = {beta} lie beyond "
                         "the float range") from None

    return ConstantsBundle(
        d=d, beta=beta, kappa=kappa, c=c, nu0=nu0,
        r=r, rstar=rstar, R=R, A_rb=A, B_rb=B, L_rb=L,
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
    with np.errstate(over="ignore"):  # an infinite bound holds, vacuously
        return pre * np.exp(expo)
