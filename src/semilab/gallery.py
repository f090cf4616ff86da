"""Built-in scenario families with hand-derivable structural constants.

Each scenario is constructed so that at least one of the estimated constants
has a closed-form value (recorded in ``closed_forms``, keyed by the report
field it bounds).  The estimates are suprema over grid nodes and a gamma
grid, so they can only fall below the closed form; the tests check exactly
that, up to 1e-9.
"""

from __future__ import annotations

import math

from .coefficients import BoxDomain, CoefficientSystem, expr_matrix
from .hypotheses import fixed_gamma, kernel_mode, refined
from .scenario import Scenario


def _system(d, m, **blocks):
    return CoefficientSystem(d=d, m=m, **{
        name: expr_matrix(block) for name, block in blocks.items()})


def g1() -> Scenario:
    """Scalar constant-coefficient baseline: -u'' + 2u on [0, 1]."""
    return Scenario(
        name="g1-scalar-baseline",
        system=_system(1, 1, Q=[["1"]], V=[["2"]]),
        grid=BoxDomain((0.0,), (1.0,), (512,)),
        mode=fixed_gamma(1.0, 1.0),
        p_list=[2.0, 4.0],
        t_final=0.1, dt=1e-4, n_samples=20, seed=101,
        closed_forms={"c0": 0.0, "kappaA": 0.0, "kappaB": 0.0,
                      "kappaC": 0.0, "kappaW": 0.0},
    )


def g2() -> Scenario:
    """Antisymmetric potential coupling: V = D + T with |T_12| = k2 * D_11.

    D = (2 + x1^2) I and T = k2 (2 + x1^2) J (J the rotation generator), so
    the whitened antisymmetric part has both singular values equal to k2 at
    every node and c0 = k2 exactly.
    """
    k2 = 0.3
    base = "(2 + x1^2)"
    return Scenario(
        name="g2-antisymmetric-potential",
        system=_system(
            1, 2,
            Q=[["1"]],
            V=[[base, f"{k2} * {base}"], [f"-{k2} * {base}", base]],
        ),
        grid=BoxDomain((0.0,), (1.0,), (256,)),
        mode=fixed_gamma(1.0, 1.0),
        p_list=[2.0, 4.0],
        t_final=0.1, dt=1e-4, n_samples=20, seed=102,
        closed_forms={"c0": k2, "kappaA": 0.0, "kappaB": 0.0, "kappaC": 0.0},
    )


def g3() -> Scenario:
    """First-order coupled family: ||B^h||, ||C^h|| = kappa (lam_Q lam_V)^{1/2}.

    With Q = I and V = 4I every drift block has spectral norm
    kappa * 2 = 0.6, which gives the budget kappa * sqrt(d) for the stacked
    block columns.  kappa = 0.3 < 1/sqrt(2) keeps the real part of the form
    strictly coercive.
    """
    kappa = 0.3
    s = kappa * 2.0  # kappa * sqrt(lam_Q * lam_V)
    return Scenario(
        name="g3-first-order-coupled",
        system=_system(
            2, 2,
            Q=[["1", "0"], ["0", "1"]],
            V=[["4", "0"], ["0", "4"]],
            B=[
                [["0", f"{s}"], [f"-{s}", "0"]],
                [["0", f"{s}"], [f"{s}", "0"]],
            ],
            C=[
                [[f"{s}", "0"], ["0", f"-{s}"]],
                [["0", f"-{s}"], [f"{s}", "0"]],
            ],
        ),
        grid=BoxDomain((0.0, 0.0), (1.0, 1.0), (64, 64)),
        mode=fixed_gamma(1.0, 1.0),
        p_list=[2.0, 4.0, 8.0],
        t_final=0.2, dt=1e-4, n_samples=50, seed=103,
        closed_forms={
            "kappaA": 0.0,
            "kappaB": kappa * math.sqrt(2.0),
            "kappaC": kappa * math.sqrt(2.0),
        },
    )


def g4() -> Scenario:
    """Second-order coupling proportional to the diffusion: A^{hk} = q_hk G.

    G symmetric positive semidefinite with largest eigenvalue 0.8, so the
    whitened coupling constant equals that eigenvalue exactly.
    """
    return Scenario(
        name="g4-proportional-coupling",
        system=_system(
            2, 2,
            Q=[["1", "0"], ["0", "1"]],
            V=[["2", "0"], ["0", "2"]],
            A=[
                [[["0.5", "0.3"], ["0.3", "0.5"]], [["0", "0"], ["0", "0"]]],
                [[["0", "0"], ["0", "0"]], [["0.5", "0.3"], ["0.3", "0.5"]]],
            ],
        ),
        grid=BoxDomain((0.0, 0.0), (1.0, 1.0), (32, 32)),
        mode=fixed_gamma(1.0, 1.0),
        p_list=[2.0],
        t_final=0.1, dt=1e-4, n_samples=20, seed=104,
        closed_forms={"c0": 0.0, "kappaA": 0.8, "kappaB": 0.0, "kappaC": 0.0},
    )


def g5() -> Scenario:
    """Power-weight family with growth exponents (a, b) = (1/4, 1/2).

    V = (1 + x1^2) I is unbounded; the drift blocks scale like V^{1/4}, so
    the drift budget is saturated at the per-node optimal gamma (by the
    arithmetic-geometric mean, gamma V + phi(gamma) >= sqrt(V) with
    phi(gamma) = 1/(4 gamma)) and the estimated constants approach
    kappa = 0.2 and kappa_0 = 0.3 from below.  The second-order block has
    entries bounded by k0 q_11 with k0 = 0.1, hence coupling constant
    m * d * k0 = 0.2.
    """
    kappa, kappa0, k0 = 0.2, 0.3, 0.1
    root = "(1 + x1^2)^0.25"  # V^{1/4} scaling of the drift
    return Scenario(
        name="g5-power-weight",
        system=_system(
            1, 2,
            Q=[["1"]],
            V=[["1 + x1^2", "0"], ["0", "1 + x1^2"]],
            A=[[[[f"{k0}", f"{k0}"], [f"{k0}", f"{k0}"]]]],
            B=[[["0", f"{kappa} * {root}"], [f"-{kappa} * {root}", "0"]]],
            C=[[["0", f"{kappa} * {root}"], [f"{kappa} * {root}", "0"]]],
            W=[[f"{kappa0} * (1 + x1^2)^0.5", "0"],
               ["0", f"{kappa0} * (1 + x1^2)^0.5"]],
        ),
        grid=BoxDomain((-1.0,), (1.0,), (256,)),
        mode=refined(a=0.25, b=0.5),
        p_list=[2.0, 3.0],
        t_final=0.1, dt=1e-4, n_samples=20, seed=105,
        closed_forms={"kappaA": 2 * k0, "kappaB": kappa, "kappaC": kappa,
                      "kappaW": kappa0},
    )


def g6_flat() -> Scenario:
    """Bounded-coefficient kernel case (beta = 0): -u'' + 4u on [-8, 8]."""
    return Scenario(
        name="g6-kernel-flat",
        system=_system(1, 1, Q=[["1"]], V=[["4"]]),
        grid=BoxDomain((-8.0,), (8.0,), (1024,)),
        mode=kernel_mode(beta=0.0, c=1.0),
        p_list=[2.0],
        t_final=0.2, dt=5e-5, n_samples=10, seed=106,
        closed_forms={"kappaB": 0.0, "kappaC": 0.0},
    )


def g6_quadratic() -> Scenario:
    """Unbounded-potential kernel case (beta = 1) with a saturating drift.

    V = 1 + x1^2 and |B| = kappa (2 sqrt(V))^{1/2}, the infimum over gamma
    of (gamma V + 1/gamma)^{1/2}, so the drift bound holds for every gamma
    with constant exactly kappa = 0.1.
    """
    kappa = 0.1
    return Scenario(
        name="g6-kernel-quadratic",
        system=_system(
            1, 1,
            Q=[["1"]],
            V=[["1 + x1^2"]],
            B=[[[f"{kappa} * (2 * (1 + x1^2)^0.5)^0.5"]]],
        ),
        grid=BoxDomain((-4.0,), (4.0,), (512,)),
        mode=kernel_mode(beta=1.0, c=1.0),
        p_list=[2.0],
        t_final=0.2, dt=5e-5, n_samples=10, seed=107,
        closed_forms={"kappaB": kappa, "kappaC": 0.0},
    )


_BUILDERS = {
    "g1": g1,
    "g2": g2,
    "g3": g3,
    "g4": g4,
    "g5": g5,
    "g6-flat": g6_flat,
    "g6-quadratic": g6_quadratic,
}


def gallery_names() -> list:
    return list(_BUILDERS)


def gallery_scenario(key: str) -> Scenario:
    try:
        return _BUILDERS[key]()
    except KeyError:
        raise KeyError(
            f"unknown gallery scenario {key!r}; choices: {', '.join(_BUILDERS)}"
        ) from None
