"""Box grids, coefficient sampling, and nodewise matrix utilities."""

import numpy as np
import pytest

from semilab.coefficients import (
    BoxDomain,
    CoefficientSystem,
    SampledField,
    expr_matrix,
    sample,
)


def make_grid(n=8, d=1):
    return BoxDomain((0.0,) * d, (1.0,) * d, (n,) * d)


class TestBoxDomain:
    def test_interior_node_layout(self):
        g = BoxDomain((0.0,), (1.0,), (4,))
        np.testing.assert_allclose(g.axis_nodes(0), [0.25, 0.5, 0.75])
        assert g.node_count == 3
        assert g.cell_volume == pytest.approx(0.25)

    def test_node_coords_row_major(self):
        g = BoxDomain((0.0, 0.0), (1.0, 2.0), (2, 2))
        np.testing.assert_allclose(g.node_coords(), [[0.5, 1.0]])

    def test_rejects_degenerate_axis(self):
        with pytest.raises(ValueError):
            BoxDomain((0.0,), (0.0,), (4,))
        with pytest.raises(ValueError):
            BoxDomain((0.0,), (1.0,), (1,))

    def test_refine_doubles_resolution(self):
        g = make_grid(8).refine()
        assert g.n == (16,)


class TestSampling:
    def test_q_is_symmetrized(self):
        system = CoefficientSystem(
            d=2, m=1,
            Q=expr_matrix([["1", "0.4"], ["0", "1"]]),
            V=expr_matrix([["1"]]),
        )
        g = BoxDomain((0.0, 0.0), (1.0, 1.0), (4, 4))
        q = sample(system, g)["Q"].values
        np.testing.assert_allclose(q[:, 0, 1], 0.2)
        np.testing.assert_allclose(q, np.swapaxes(q, 1, 2))

    def test_absent_blocks_sample_to_zero(self):
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1"]]),
            V=expr_matrix([["1", "0"], ["0", "1"]]),
        )
        fields = sample(system, make_grid())
        assert not np.any(fields["A"].values)
        assert not np.any(fields["B"].values)
        assert not np.any(fields["W"].values)

    def test_dimension_mismatch_rejected(self):
        system = CoefficientSystem(d=2, m=1,
                                   Q=expr_matrix([["1", "0"], ["0", "1"]]),
                                   V=expr_matrix([["1"]]))
        with pytest.raises(ValueError):
            sample(system, make_grid(d=1))

    def test_expression_sampled_at_nodes(self):
        system = CoefficientSystem(d=1, m=1, Q=expr_matrix([["1"]]),
                                   V=expr_matrix([["1 + x1^2"]]))
        g = make_grid(4)
        v = sample(system, g)["V"].values[:, 0, 0]
        np.testing.assert_allclose(v, 1 + g.axis_nodes(0) ** 2)

    def test_refinement_restriction_consistency(self):
        # values on the coarse nodes agree with the fine sampling there
        system = CoefficientSystem(d=1, m=1, Q=expr_matrix([["1"]]),
                                   V=expr_matrix([["sin(x1) + 2"]]))
        coarse = make_grid(8)
        fine = coarse.refine()
        vc = sample(system, coarse)["V"].values[:, 0, 0]
        vf = sample(system, fine)["V"].values[:, 0, 0]
        np.testing.assert_allclose(vc, vf[1::2], rtol=1e-15)


class TestMatrixUtilities:
    def test_symmetric_part_example(self):
        # the spectrum decomposes the symmetric part [[1, 1], [1, 1]]
        g = make_grid(2)
        f = SampledField(g, np.array([[[1.0, 2.0], [0.0, 1.0]]]))
        w, U = f.spectrum
        np.testing.assert_allclose(w, [[0.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose((U * w[:, None, :]) @ np.swapaxes(U, 1, 2),
                                   [[[1.0, 1.0], [1.0, 1.0]]], atol=1e-15)

    def test_min_eigen_identity(self):
        g = make_grid(2)
        f = SampledField(g, np.eye(2)[None])
        np.testing.assert_allclose(f.spectrum.eigenvalues[:, 0], [1.0])

    def test_min_eigen_diagonal(self):
        g = make_grid(2)
        f = SampledField(g, np.diag([2.0, 5.0])[None])
        np.testing.assert_allclose(f.spectrum.eigenvalues[:, 0], [2.0])

    def test_min_eigen_coupled(self):
        g = make_grid(2)
        f = SampledField(g, np.array([[[2.0, 1.0], [1.0, 2.0]]]))
        np.testing.assert_allclose(f.spectrum.eigenvalues[:, 0], [1.0])

    def test_min_eigen_3x3_path(self):
        g = make_grid(2)
        mat = np.diag([3.0, 1.0, 2.0])[None]
        f = SampledField(g, mat)
        np.testing.assert_allclose(f.spectrum.eigenvalues[:, 0], [1.0])

    def test_sampled_field_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SampledField(make_grid(2), np.array([[np.nan]]))
