"""A block of samples gives, column by column, what each sample gives alone."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.coefficients import BoxDomain, CoefficientSystem, expr_matrix
from semilab.discrete import (assemble, nittka_shifted, nittka_value,
                              node_norms, p_sign_power)
from semilab.evolution import Stepper, band_limited_random, evolve, pnorm
from semilab.heatkernel import kernel_block

ENTRY = st.integers(-8, 8).map(lambda k: k / 4)


@st.composite
def small_forms(draw):
    """Small 1-D and 2-D forms with m in {1, 2}: variable diffusion, a
    potential with a positive diagonal shift, and optional drift blocks."""
    d = draw(st.sampled_from([1, 2]))
    m = draw(st.sampled_from([1, 2]))

    def block(shift=0.0):
        return expr_matrix([[draw(ENTRY) + shift * (i == j) for j in range(m)]
                            for i in range(m)])

    Q = expr_matrix([["1 + 0.5 * x1" if h == k else "0" for k in range(d)]
                     for h in range(d)])
    B = draw(st.none() | st.just(True))
    system = CoefficientSystem(
        d=d, m=m, Q=Q, V=block(shift=5.0),
        B=None if B is None else tuple(block() for _ in range(d)))
    n = draw(st.integers(4, 9))
    grid = BoxDomain((0.0,) * d, (1.0,) * d, (n,) * d)
    return assemble(system, grid)


def close(block, columns, scale):
    """Entrywise agreement at rel 1e-13 of ``scale``, the size of the terms
    summed into each value (cancellation can leave the value itself tiny)."""
    np.testing.assert_array_less(np.abs(block - columns), 1e-13 * scale + 1e-300)


@given(small_forms(), st.integers(0, 2**32 - 1), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_block_equals_columns(F, seed, n_samples):
    u = band_limited_random(F.grid, F.m, np.random.default_rng(seed), n_samples)
    cols = [u[:, j] for j in range(n_samples)]

    for p in (1.5, 2.0, 3.0, np.inf):
        got = pnorm(u, p, F.grid, F.m)
        want = np.array([pnorm(c, p, F.grid, F.m) for c in cols])
        close(got, want, np.abs(want))

    for p in (1.5, 2.0, 3.0):
        terms = np.abs(p_sign_power(u, F.m, p)) * (abs(F.S) @ np.abs(u))
        shift = 3.0 * F.mass * np.sum(node_norms(u, F.m) ** p, axis=0)
        scale = terms.sum(axis=0) + shift
        got = nittka_shifted(F, u, p, 1.5, 0.5)
        want = np.array([nittka_shifted(F, c, p, 1.5, 0.5) for c in cols])
        close(got, want, scale)

    # at p = 2 the unshifted sign test is the real part of the form
    S = F.S.toarray()
    quad = np.array([c @ S @ c for c in cols])
    close(nittka_value(F, u, 2.0), quad,
          np.array([np.abs(c) @ np.abs(S) @ np.abs(c) for c in cols]))


@given(small_forms(), st.data())
@settings(max_examples=30, deadline=None)
def test_kernel_block_equals_delta_columns(F, data):
    y = data.draw(st.integers(0, F.grid.node_count - 1))
    stepper = Stepper(F, 1e-3)
    block = kernel_block(stepper, y, 0.004)
    for j in range(F.m):
        delta = np.zeros(F.ndof)
        delta[y * F.m + j] = 1.0 / F.mass
        col = evolve(stepper, delta, 0.004).reshape(-1, F.m)
        close(block[:, :, j], col, np.abs(col).max())

