"""Kernel columns from delta evolution and the closed-form upper bound."""

import numpy as np
import pytest

from semilab.coefficients import BoxDomain, CoefficientSystem, expr_matrix, sample
from semilab.discrete import assemble
from semilab.evolution import Stepper, evolve, evolve_adjoint
from semilab.heatkernel import _deltas, interior_mask, kernel_block, verify_gaussian
from semilab.gallery import gallery_scenario
from semilab.metric import distance_map, weight_field
from semilab.pinterval import gaussian_bound_rhs, kernel_constants


def scalar_line(v="4", n=512, half=8.0):
    system = CoefficientSystem(d=1, m=1, Q=expr_matrix([["1"]]),
                               V=expr_matrix([[v]]))
    grid = BoxDomain((-half,), (half,), (n,))
    return system, grid, assemble(system, grid)


class TestKernelColumns:
    def test_delta_has_unit_discrete_mass(self):
        _, grid, F = scalar_line(n=64)
        u0 = _deltas(F, 10)
        assert F.mass * u0.sum(axis=0) == pytest.approx([1.0], rel=1e-14)

    def test_requires_positive_time(self):
        _, grid, F = scalar_line(n=32)
        with pytest.raises(ValueError):
            kernel_block(Stepper(F, 1e-3), 0, 0.0)

    def test_flat_potential_matches_free_gaussian(self):
        # constant V shifts the free heat kernel by e^{-v0 t}; far from the
        # boundary the Dirichlet truncation is negligible
        _, grid, F = scalar_line(v="4", n=1024)
        t = 0.1
        st = Stepper(F, t / 2000)
        y = grid.node_count // 2
        col = kernel_block(st, y, t)[:, 0, 0]
        x = grid.axis_nodes(0)
        r = np.abs(x - x[y])
        exact = np.exp(-(r**2) / (4 * t) - 4 * t) / np.sqrt(4 * np.pi * t)
        near = r <= 3 * np.sqrt(t)
        rel = np.abs(col[near] - exact[near]) / exact[near]
        assert rel.max() <= 0.01

    def test_mass_decays_at_least_v0_rate(self):
        # implicit Euler damps the constant potential by (1 + dt v0)^{-n},
        # which converges to e^{-v0 t} from above
        _, grid, F = scalar_line(v="4", n=256)
        t, dt = 0.1, 1e-3
        col = kernel_block(Stepper(F, dt), grid.node_count // 2, t)
        n_steps = round(t / dt)
        assert F.mass * col.sum() <= (1 + dt * 4) ** (-n_steps) + 1e-10
        assert (1 + dt * 4) ** (-n_steps) <= np.exp(-4 * t) * (1 + dt * 4)

    def test_scalar_kernel_nonnegative(self):
        _, grid, F = scalar_line(v="1 + 0.1 * x1^2", n=256)
        col = kernel_block(Stepper(F, 1e-3), grid.node_count // 3, 0.05)
        assert col.min() >= -1e-12

    def test_chapman_kolmogorov(self):
        _, grid, F = scalar_line(n=128)
        st = Stepper(F, 1e-3)
        y = 40
        direct = kernel_block(st, y, 0.05).ravel()
        via = evolve(st, kernel_block(st, y, 0.03).ravel(), 0.02)
        assert np.abs(direct - via).max() <= 1e-12 * np.abs(direct).max()

    def test_radial_decay_from_source(self):
        _, grid, F = scalar_line(v="4", n=512)
        y = grid.node_count // 2
        col = kernel_block(Stepper(F, 1e-3), y, 0.1)[:, 0, 0]
        right = col[y:]
        left = col[: y + 1][::-1]
        for side in (right, left):
            drops = np.diff(side)
            assert drops.max() <= 1e-12 * side[0]

    def test_decoupled_block_is_diagonal(self):
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1"]]),
            V=expr_matrix([["1", "0"], ["0", "2"]]))
        grid = BoxDomain((0.0,), (1.0,), (64,))
        F = assemble(system, grid)
        block = kernel_block(Stepper(F, 1e-3), 20, 0.02)
        assert np.abs(block[:, 0, 1]).max() <= 1e-14
        assert np.abs(block[:, 1, 0]).max() <= 1e-14


class TestInteriorMask:
    def test_layer_count_1d(self):
        grid = BoxDomain((0.0,), (1.0,), (32,))  # 31 interior nodes
        mask = interior_mask(grid, layers=5)
        assert mask.sum() == 31 - 10
        assert not mask[0] and not mask[-1] and mask[15]

    def test_2d_corners_removed(self):
        grid = BoxDomain((0.0, 0.0), (1.0, 1.0), (16, 16))
        mask = interior_mask(grid, layers=3).reshape(15, 15)
        assert not mask[0, 7] and not mask[7, 0]
        assert mask[7, 7]
        assert mask.sum() == 9 * 9


def symmetry_check(F, t, y1, y2, stepper):
    """Entrywise gap between k(t, y1, y2) and the transposed adjoint kernel.

    The adjoint kernel is sampled by evolving deltas through the transposed
    solves, so the gap reflects only solver roundoff.
    """
    K = kernel_block(stepper, y2, t)[y1]
    Kadj = evolve_adjoint(stepper, _deltas(F, y1), t).reshape(-1, F.m, F.m)[y2]
    # adjoint kernel k*(t, y2, y1) equals k(t, y1, y2)^T
    return float(np.max(np.abs(K - Kadj.T)))


class TestSymmetry:
    def test_symmetric_system_machine_precision(self):
        _, grid, F = scalar_line(v="2 + x1^2", n=128, half=2.0)
        gap = symmetry_check(F, 0.02, 30, 90, Stepper(F, 1e-3))
        assert gap <= 1e-10

    def test_drift_system_within_solver_roundoff(self):
        scn = gallery_scenario("g5")
        F = assemble(scn.system, scn.grid)
        st = Stepper(F, 1e-3)
        gap = symmetry_check(F, 0.01, 60, 180, st)
        assert gap <= 1e-8


def bound_rhs(system, grid, y, t):
    """The flat-potential kernel bound at every node for a source at y."""
    fields = sample(system, grid)
    mf = weight_field(fields["V"], fields["Q"], 0.0)
    bundle = kernel_constants(d=1, beta=0.0, kappa=1e-6, c=1.0, nu0=1.0)
    return gaussian_bound_rhs(bundle, t, distance_map(mf, grid, y))


class TestGaussianBoundCheck:
    def test_flat_case_passes(self):
        system, grid, F = scalar_line(v="4", n=512)
        t, y = 0.1, grid.node_count // 2
        values = kernel_block(Stepper(F, t / 1000), y, t)
        report = verify_gaussian(values, bound_rhs(system, grid, y, t), grid)
        assert report["pass"]
        assert report["violations"] == 0
        assert report["min_margin"] >= 0.0
        assert report["checked_nodes"] == grid.node_count - 10

    def test_margin_sign_detects_inflated_kernel(self):
        # scaling the kernel values up must eventually break the bound
        system, grid, F = scalar_line(v="4", n=256)
        t, y = 0.1, grid.node_count // 2
        values = kernel_block(Stepper(F, 1e-3), y, t)
        rhs = bound_rhs(system, grid, y, t)
        assert verify_gaussian(values, rhs, grid)["pass"]
        report = verify_gaussian(values * 1e12, rhs, grid)
        assert not report["pass"]
        assert report["violations"] > 0

    def test_vacuous_bound_names_no_worst_node(self):
        # every margin is inf: the bound holds and no node is the worst
        _, grid, F = scalar_line(v="4", n=64)
        values = kernel_block(Stepper(F, 1e-3), grid.node_count // 2, 0.01)
        report = verify_gaussian(values, np.full(grid.node_count, np.inf), grid)
        assert report["pass"] and report["violations"] == 0
        assert report["min_margin"] == np.inf
        assert report["worst_node"] is None
