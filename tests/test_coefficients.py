"""Box grids, coefficient sampling, and nodewise matrix utilities."""

import itertools

import numpy as np
import pytest

import semilab.coefficients as coefficients
from semilab.coefficients import (
    BoxDomain,
    CoefficientSystem,
    SampledField,
    expr_matrix,
    sample,
    symmetric_eigh,
)


EPS, TINY, MAX = (np.finfo(float).eps, 2.0 ** -1074,
                  np.finfo(float).max)


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

    @pytest.mark.parametrize("g", [
        BoxDomain((-1.3,), (2.7,), (17,)),
        BoxDomain((0.1, -2.0), (0.9, 3.0), (7, 12)),
        BoxDomain((-0.3, 0.0, 1.0), (0.7, 0.1, 4.0), (5, 3, 6)),
    ])
    def test_node_is_the_node_coords_row(self, g):
        coords = g.node_coords()
        for i in range(g.node_count):
            node = g.node(i)
            assert all(type(x) is float for x in node)
            np.testing.assert_array_equal(
                np.array(node).view(np.uint64), coords[i].view(np.uint64))

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

    def test_absent_blocks_are_read_only_zero_views(self):
        system = CoefficientSystem(
            d=2, m=2, Q=expr_matrix([["1", "0"], ["0", "1"]]),
            V=expr_matrix([["1", "0"], ["0", "1"]]),
            B=expr_matrix([[["1", "0"], ["0", "1"]]] * 2))
        fields = sample(system, BoxDomain((0.0, 0.0), (1.0, 1.0), (4, 4)))
        assert fields["B"].values.flags.writeable
        for name, shape in [("A", (9, 2, 2, 2, 2)), ("C", (9, 2, 2, 2)),
                            ("W", (9, 2, 2))]:
            vals = fields[name].values
            assert vals.shape == shape
            assert vals.strides == (0,) * vals.ndim
            assert not vals.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                vals[0] = 1.0

    def test_misshaped_block_rejected_at_construction(self):
        # a 1 x 1 B in an m = 2 system would otherwise broadcast to all ones
        with pytest.raises(ValueError, match="B must be d x m x m"):
            CoefficientSystem(d=1, m=2, Q=expr_matrix([["1"]]),
                              V=expr_matrix([["1", "0"], ["0", "1"]]),
                              B=expr_matrix([[["1"]]]))
        with pytest.raises(ValueError, match="Q must be d x d"):
            CoefficientSystem(d=2, m=1, Q=expr_matrix([["1", "0"]]),
                              V=expr_matrix([["1"]]))

    def test_entries_row_major_and_empty_when_absent(self):
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1"]]),
            V=expr_matrix([["1", "2"], ["3", "4"]]))
        assert [(i, e.value) for i, e in system.entries("V")] == [
            ((0, 0), 1.0), ((0, 1), 2.0), ((1, 0), 3.0), ((1, 1), 4.0)]
        assert list(system.entries("A")) == []

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


def symmetric(mats):
    return 0.5 * mats + 0.5 * np.swapaxes(mats, -1, -2)


def two_by_two(kind, n=20000):
    """Symmetric 2 x 2 blocks of one family."""
    rng = np.random.default_rng(list(kind.encode()))
    mats = rng.standard_normal((n, 2, 2))
    if kind == "diagonal":
        mats[:, 0, 1] = mats[:, 1, 0] = 0.0
    elif kind == "equal-diagonal":
        mats[:, 1, 1] = mats[:, 0, 0]
    elif kind == "tiny-off-diagonal":
        # off-diagonals LAPACK's eigh takes as negligible, and a little above
        mats[:, 0, 1] = mats[:, 1, 0] = mats[:, 0, 0] * 10.0 ** rng.uniform(
            -20, -10, n)
    elif kind == "zero-diagonal":
        # a zero diagonal entry, and off-diagonals 1e-170 to 1e-140 of the
        # other one
        mats[:, 0, 0] = 0.0
        mats[:, 0, 1] = mats[:, 1, 0] = mats[:, 1, 1] * 10.0 ** rng.uniform(
            -170, -140, n)
    elif kind == "quarter-step":
        mats = rng.integers(-8, 9, (n, 2, 2)) / 4
    elif kind == "zero":
        mats = np.zeros((4, 2, 2))
        mats[1] = -0.0
        mats[2, 0, 0] = mats[3, 1, 1] = -0.0
    elif kind == "scaled":
        mats *= 10.0 ** rng.choice([-300, -150, -120, 140, 150, 300], (n, 1, 1))
    elif kind == "mixed-scale":
        mats *= 2.0 ** rng.integers(-600, 600, (n, 2, 2))
    elif kind == "every-scale":
        # from the smallest subnormal to 2^1000, one scale per block
        mats *= 2.0 ** rng.integers(-1074, 1001, (n, 1, 1))
    return symmetric(mats)


class TestSymmetricEigh:
    """The spectrum's decomposition against ``np.linalg.eigh``."""

    @pytest.mark.parametrize("kind", [
        "random", "diagonal", "equal-diagonal", "tiny-off-diagonal",
        "zero-diagonal", "quarter-step", "zero", "scaled", "mixed-scale",
        "every-scale"])
    def test_two_by_two_matches_eigh(self, kind):
        mats = two_by_two(kind)
        w, U = symmetric_eigh(mats)
        want = np.linalg.eigh(mats).eigenvalues
        # a small multiple of eps |block|, plus a few subnormal spacings
        tol = 8 * (EPS * np.abs(mats).max(axis=(1, 2)) + TINY)
        assert (np.abs(w - want).max(axis=1) <= tol).all()
        assert (np.abs(mats @ U - U * w[:, None, :]).max(axis=(1, 2))
                <= tol).all()
        assert np.abs(np.swapaxes(U, 1, 2) @ U - np.eye(2)).max() <= 4 * EPS
        assert (w[:, 0] <= w[:, 1]).all()

    def test_diagonal_blocks_are_exact(self):
        # the sorted diagonal, signed zeros kept, with the identity's
        # columns, in order or swapped, and +0.0 off the diagonal
        blocks, want_w, want_U = [], [], []
        for a, c in [(1.0, 4.0), (4.0, 1.0), (-3.0, 0.5), (1.5, 1.5),
                     (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                     (-0.0, 1.0), (1.0, -0.0), (-0.0, -2.0), (1e-300, 1e30),
                     (1e30, 1e-300), (5e-324, -MAX), (MAX, -0.0)]:
            for b in (0.0, -0.0):
                blocks.append([[a, b], [b, c]])
                swap = c < a
                want_w.append([c, a] if swap else [a, c])
                want_U.append([[0.0, 1.0], [1.0, 0.0]] if swap else
                              [[1.0, 0.0], [0.0, 1.0]])
        w, U = symmetric_eigh(np.array(blocks))
        assert w.tobytes() == np.array(want_w).tobytes()
        assert U.tobytes() == np.array(want_U).tobytes()

    def test_extreme_entries_give_inf_where_eigh_does(self):
        # an eigenvalue beyond the float range is inf, with eigh's sign, and
        # nothing is NaN; RuntimeWarnings are errors in this suite
        vals = [0.0, -0.0, 1.0, -1.0, 3.0, 1e308, -1e308, MAX, -MAX, 5e-324,
                1e-320]
        mats = np.array([[[a, b], [b, c]]
                         for a, b, c in itertools.product(vals, repeat=3)])
        w, U = symmetric_eigh(mats)
        want = np.linalg.eigh(mats).eigenvalues
        assert not np.isnan(w).any() and not np.isnan(U).any()
        inf = np.isinf(want)
        assert np.array_equal(np.isinf(w), inf)
        assert np.array_equal(w[inf], want[inf])
        tol = 8 * (EPS * np.abs(mats).max(axis=(1, 2)) + TINY)
        err = np.abs(np.where(inf, 0.0, w) - np.where(inf, 0.0, want))
        assert (err <= tol[:, None]).all()

    def test_one_by_one_is_its_own_eigenvalue(self):
        mats = np.random.default_rng(3).standard_normal((1000, 1, 1))
        mats *= 10.0 ** np.arange(-300, 300, 0.6)[:, None, None]
        mats[:2] = [[[0.0]], [[-0.0]]]
        w, U = symmetric_eigh(mats)
        want_w, want_U = np.linalg.eigh(mats)
        assert w.tobytes() == want_w.tobytes()
        assert U.tobytes() == want_U.tobytes()

    def test_larger_blocks_go_to_eigh(self):
        mats = symmetric(np.random.default_rng(4).standard_normal((50, 3, 3)))
        for arr, ref in zip(symmetric_eigh(mats), np.linalg.eigh(mats)):
            assert arr.tobytes() == ref.tobytes()

    def test_spectrum_is_read_only_eigh_result(self):
        f = SampledField(make_grid(4), np.array([[[2.0, 1.0], [0.0, 3.0]]] * 3))
        spec = f.spectrum
        assert type(spec) is coefficients.EighResult
        assert not spec.eigenvalues.flags.writeable
        assert not spec.eigenvectors.flags.writeable
