"""Conformal weight fields and stencil-graph geodesic distances."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from semilab.coefficients import BoxDomain, CoefficientSystem, expr_matrix, sample
from semilab.metric import (
    default_order,
    distance_map,
    euclid_equivalence_check,
    stencil_offsets,
    weight_field,
)


def fields_for(v_entries, q_entries, grid):
    d = len(q_entries)
    m = len(v_entries)
    system = CoefficientSystem(d=d, m=m, Q=expr_matrix(q_entries),
                               V=expr_matrix(v_entries))
    return sample(system, grid)


class TestWeightField:
    def test_beta_zero_gives_unit_weight(self):
        grid = BoxDomain((0.0,), (1.0,), (16,))
        f = fields_for([["3 + x1"]], [["1"]], grid)
        mf = weight_field(f["V"], f["Q"], 0.0)
        np.testing.assert_array_equal(mf.w, 1.0)

    def test_constant_potential_power(self):
        grid = BoxDomain((0.0,), (1.0,), (16,))
        f = fields_for([["4"]], [["1"]], grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        np.testing.assert_allclose(mf.w, 4.0**0.5, rtol=1e-14)

    def test_quadratic_potential_beta_one(self):
        grid = BoxDomain((-1.0,), (1.0,), (32,))
        f = fields_for([["1 + x1^2"]], [["1"]], grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        x = grid.axis_nodes(0)
        np.testing.assert_allclose(mf.w, np.sqrt(1 + x**2), rtol=1e-14)

    def test_matrix_potential_uses_min_eigenvalue(self):
        grid = BoxDomain((0.0,), (1.0,), (8,))
        f = fields_for([["2", "1"], ["1", "2"]], [["1"]], grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        np.testing.assert_allclose(mf.w, 1.0, rtol=1e-14)

    def test_rejects_nonpositive_lambda(self):
        grid = BoxDomain((-1.0,), (1.0,), (8,))
        f = fields_for([["x1"]], [["1"]], grid)
        with pytest.raises(ValueError):
            weight_field(f["V"], f["Q"], 1.0)

    def test_rejects_negative_beta(self):
        grid = BoxDomain((0.0,), (1.0,), (8,))
        f = fields_for([["1"]], [["1"]], grid)
        with pytest.raises(ValueError):
            weight_field(f["V"], f["Q"], -0.5)


class TestStencils:
    def test_2d_order3_has_eight_half_offsets(self):
        offs = stencil_offsets(2, 3)
        assert len(offs) == 8
        assert (1, 0) in offs and (2, 1) in offs and (1, -2) in offs

    def test_default_orders(self):
        assert default_order(2) == 3
        assert default_order(1) == 2
        assert default_order(3) == 2

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            stencil_offsets(2, 0)


class TestDistances:
    def constant_field(self, v0=4.0, beta=1.0, n=64):
        grid = BoxDomain((0.0, 0.0), (1.0, 1.0), (n, n))
        f = fields_for([[repr(v0)]], [["1", "0"], ["0", "1"]], grid)
        return weight_field(f["V"], f["Q"], beta), grid

    def test_constant_metric_matches_scaled_euclidean(self):
        mf, grid = self.constant_field()
        source = grid.node_count // 2
        dist = distance_map(mf, grid, source)
        coords = grid.node_coords()
        euclid = np.linalg.norm(coords - coords[source], axis=1)
        scale = 4.0 ** (1.0 / 4.0)  # v0^{beta/(2 beta + 2)}
        far = euclid > 0.1
        rel = dist[far] / (scale * euclid[far]) - 1
        assert rel.min() >= -1e-12
        assert rel.max() <= 0.03

    def test_1d_variable_weight_against_quadrature(self):
        grid = BoxDomain((-2.0,), (2.0,), (512,))
        f = fields_for([["1 + x1^2"]], [["1"]], grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        x = grid.axis_nodes(0)
        source = int(np.argmin(np.abs(x)))
        dist = distance_map(mf, grid, source)
        for j in range(0, grid.node_count, 17):
            if abs(x[j] - x[source]) < 0.1:
                continue
            exact = abs(quad(lambda s: (1 + s**2) ** 0.25,
                             x[source], x[j])[0])
            assert dist[j] == pytest.approx(exact, rel=1e-2)

    def test_symmetry(self):
        mf, grid = self.constant_field(n=24)
        a, b = 30, 401
        da = distance_map(mf, grid, a)
        db = distance_map(mf, grid, b)
        assert abs(da[b] - db[a]) <= 1e-12

    def test_triangle_inequality(self):
        grid = BoxDomain((0.0, 0.0), (1.0, 1.0), (24,) * 2)
        f = fields_for([["2 + x1 + x2"]], [["1 + x1", "0"], ["0", "1 + x2"]],
                       grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        rng = np.random.default_rng(1)
        sources = rng.choice(grid.node_count, size=12, replace=False)
        D = distance_map(mf, grid, sources)
        for _ in range(1000):
            i, j = rng.integers(0, len(sources), 2)
            x = rng.integers(0, grid.node_count)
            assert D[i, x] <= D[i, sources[j]] + D[j, x] + 1e-12

    def test_distance_monotone_in_weight(self):
        mf, grid = self.constant_field(n=24)
        x = grid.node_coords()
        bigger = replace(mf, w=mf.w * (1.0 + x[:, 0] ** 2))
        source = 5
        d0 = distance_map(mf, grid, source)
        d1 = distance_map(bigger, grid, source)
        assert (d1 >= d0 - 1e-12).all()

    def test_finer_stencil_never_longer(self):
        mf, grid = self.constant_field(n=32)
        source = grid.node_count // 2
        d1 = distance_map(mf, grid, source, order=1)
        d2 = distance_map(mf, grid, source, order=2)
        d3 = distance_map(mf, grid, source, order=3)
        assert (d3 <= d2 + 1e-12).all() and (d2 <= d1 + 1e-12).all()
        coords = grid.node_coords()
        euclid = np.linalg.norm(coords - coords[source], axis=1)
        assert (d3 >= 4.0 ** 0.25 * euclid - 1e-12).all()

    def test_source_out_of_range(self):
        mf, grid = self.constant_field(n=8)
        with pytest.raises(ValueError):
            distance_map(mf, grid, grid.node_count)
        with pytest.raises(ValueError, match="out of range"):
            distance_map(mf, grid, np.array([0, -1]))

    def test_several_sources_stack_single_source_rows(self):
        mf, grid = self.constant_field(n=12)
        sources = np.array([3, 60, 97])
        many = distance_map(mf, grid, sources)
        assert many.shape == (3, grid.node_count)
        for row, s in zip(many, sources):
            np.testing.assert_array_equal(row, distance_map(mf, grid, s))


class TestEuclidEquivalence:
    def test_identity_case(self):
        grid = BoxDomain((0.0,), (1.0,), (8,))
        f = fields_for([["1"]], [["1"]], grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        q0, q1, ok = euclid_equivalence_check(mf)
        assert (q0, q1, ok) == (1.0, 1.0, True)

    def test_exact_cancellation(self):
        # Q = lambda_V^{beta/(beta+1)} I makes the metric exactly Euclidean
        grid = BoxDomain((0.5,), (1.5,), (16,))
        f = fields_for([["x1^2"]], [["x1"]], grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        q0, q1, ok = euclid_equivalence_check(mf)
        assert q0 == pytest.approx(1.0, rel=1e-12)
        assert q1 == pytest.approx(1.0, rel=1e-12)
        assert ok

    def test_spread_reported(self):
        grid = BoxDomain((0.0,), (1.0,), (16,))
        f = fields_for([["4"]], [["1 + x1"]], grid)
        mf = weight_field(f["V"], f["Q"], 1.0)
        q0, q1, ok = euclid_equivalence_check(mf)
        assert ok and q0 < q1
        assert q0 == pytest.approx((1 + grid.axis_nodes(0)[0]) / 2.0, rel=1e-12)
