"""Kernel columns from delta evolution and the closed-form upper bound."""

import numpy as np
import pytest

from semilab.coefficients import BoxDomain, CoefficientSystem, expr_matrix, sample
from semilab.discrete import assemble
from semilab.evolution import Stepper, evolve
from semilab.heatkernel import (
    KernelBlock,
    _deltas,
    block_to_csv,
    interior_mask,
    kernel_block,
    symmetry_check,
    verify_gaussian,
)
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
            kernel_block(F, 0, 0.0, Stepper(F, 1e-3))

    def test_flat_potential_matches_free_gaussian(self):
        # constant V shifts the free heat kernel by e^{-v0 t}; far from the
        # boundary the Dirichlet truncation is negligible
        _, grid, F = scalar_line(v="4", n=1024)
        t = 0.1
        st = Stepper(F, t / 2000)
        y = grid.node_count // 2
        col = kernel_block(F, y, t, st).values[:, 0, 0]
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
        col = kernel_block(F, grid.node_count // 2, t, Stepper(F, dt)).values
        n_steps = round(t / dt)
        assert F.mass * col.sum() <= (1 + dt * 4) ** (-n_steps) + 1e-10
        assert (1 + dt * 4) ** (-n_steps) <= np.exp(-4 * t) * (1 + dt * 4)

    def test_scalar_kernel_nonnegative(self):
        _, grid, F = scalar_line(v="1 + 0.1 * x1^2", n=256)
        col = kernel_block(F, grid.node_count // 3, 0.05, Stepper(F, 1e-3)).values
        assert col.min() >= -1e-12

    def test_chapman_kolmogorov(self):
        _, grid, F = scalar_line(n=128)
        st = Stepper(F, 1e-3)
        y = 40
        direct = kernel_block(F, y, 0.05, st).values.ravel()
        via = evolve(F, kernel_block(F, y, 0.03, st).values.ravel(), 0.02, st)
        assert np.abs(direct - via).max() <= 1e-12 * np.abs(direct).max()

    def test_radial_decay_from_source(self):
        _, grid, F = scalar_line(v="4", n=512)
        y = grid.node_count // 2
        col = kernel_block(F, y, 0.1, Stepper(F, 1e-3)).values[:, 0, 0]
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
        block = kernel_block(F, 20, 0.02, Stepper(F, 1e-3))
        assert np.abs(block.values[:, 0, 1]).max() <= 1e-14
        assert np.abs(block.values[:, 1, 0]).max() <= 1e-14


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


class TestGaussianBoundCheck:
    def test_flat_case_passes(self):
        system, grid, F = scalar_line(v="4", n=512)
        t = 0.1
        block = kernel_block(F, grid.node_count // 2, t, Stepper(F, t / 1000))
        fields = sample(system, grid)
        mf = weight_field(fields["V"], fields["Q"], 0.0)
        bundle = kernel_constants(d=1, beta=0.0, kappa=1e-6, c=1.0, nu0=1.0)
        report = verify_gaussian(block, bundle, mf, grid)
        assert report["pass"]
        assert report["violations"] == 0
        assert report["min_margin"] >= 0.0
        assert report["checked_nodes"] == grid.node_count - 10

    def test_margin_sign_detects_inflated_kernel(self):
        # scaling the kernel values up must eventually break the bound
        system, grid, F = scalar_line(v="4", n=256)
        t = 0.1
        block = kernel_block(F, grid.node_count // 2, t, Stepper(F, 1e-3))
        fields = sample(system, grid)
        mf = weight_field(fields["V"], fields["Q"], 0.0)
        bundle = kernel_constants(d=1, beta=0.0, kappa=1e-6, c=1.0, nu0=1.0)
        inflated = KernelBlock(t=block.t, y=block.y,
                               values=block.values * 1e12, dist=block.dist)
        report = verify_gaussian(inflated, bundle, mf, grid)
        assert not report["pass"]
        assert report["violations"] > 0

    def test_precomputed_distance_reused(self):
        system, grid, F = scalar_line(v="4", n=128)
        fields = sample(system, grid)
        mf = weight_field(fields["V"], fields["Q"], 0.0)
        y = grid.node_count // 2
        dmap = distance_map(mf, grid, y)
        block = kernel_block(F, y, 0.05, Stepper(F, 1e-3), dist=dmap)
        bundle = kernel_constants(d=1, beta=0.0, kappa=1e-6, c=1.0, nu0=1.0)
        r1 = verify_gaussian(block, bundle, mf, grid)
        r2 = verify_gaussian(
            KernelBlock(block.t, block.y, block.values, None), bundle, mf, grid)
        assert r1["min_margin"] == pytest.approx(r2["min_margin"], rel=1e-12)

    def test_csv_export(self, tmp_path):
        system, grid, F = scalar_line(v="4", n=64)
        fields = sample(system, grid)
        mf = weight_field(fields["V"], fields["Q"], 0.0)
        y = 32
        dmap = distance_map(mf, grid, y)
        block = kernel_block(F, y, 0.02, Stepper(F, 1e-3), dist=dmap)
        bundle = kernel_constants(d=1, beta=0.0, kappa=1e-6, c=1.0, nu0=1.0)
        rhs = gaussian_bound_rhs(bundle, block.t, dmap.dist)
        path = tmp_path / "kernel.csv"
        block_to_csv(block, grid, path, rhs=rhs)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("x1,source,i,j,value")
        assert len(lines) == grid.node_count + 1
