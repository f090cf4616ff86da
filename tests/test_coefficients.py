"""Box grids, coefficient sampling, and nodewise matrix utilities."""

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
        # at and around dsteqr's first test for a negligible off-diagonal
        mats[:, 0, 1] = mats[:, 1, 0] = mats[:, 0, 0] * 10.0 ** rng.uniform(
            -20, -10, n)
    elif kind == "zero-diagonal":
        # only dsteqr's second test, with its safe minimum, splits these
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
    return symmetric(mats)


class TestSymmetricEigh:
    """The spectrum's decomposition against ``np.linalg.eigh``, bit for bit."""

    @pytest.mark.parametrize("kind", [
        "random", "diagonal", "equal-diagonal", "tiny-off-diagonal",
        "zero-diagonal", "quarter-step", "zero", "scaled", "mixed-scale"])
    def test_two_by_two_equals_eigh_bitwise(self, kind):
        mats = two_by_two(kind)
        w, U = symmetric_eigh(mats)
        want_w, want_U = np.linalg.eigh(mats)
        assert w.tobytes() == want_w.tobytes()
        assert U.tobytes() == want_U.tobytes()
        # eigvalsh goes through dsterf, whose test has no safe minimum: it
        # reads a small eigenvalue of about -b^2 / c where eigh reads 0
        if kind != "zero-diagonal":
            assert w.tobytes() == np.linalg.eigvalsh(mats).tobytes()

    @pytest.mark.parametrize("kind", ["split", "unsplit", "mixed"])
    def test_split_blocks_skip_the_rotation(self, kind, monkeypatch):
        # only the blocks dsteqr does not split go through dlaev2 and the
        # rotation: the whole stack when none split, nothing when all do
        rng = np.random.default_rng(7)
        mats = symmetric(rng.standard_normal((500, 2, 2)))
        split = {"split": np.ones(500, bool), "unsplit": np.zeros(500, bool),
                 "mixed": rng.random(500) < 0.5}[kind]
        mats[split, 0, 1] = mats[split, 1, 0] = 0.0
        mats[split & (rng.random(500) < 0.5), 0, 1] = -0.0
        seen = []

        def recording(a, b, c, _orig=coefficients._dlaev2_rotated):
            seen.append(len(a))
            return _orig(a, b, c)
        monkeypatch.setattr(coefficients, "_dlaev2_rotated", recording)
        w, U = symmetric_eigh(mats)
        assert seen == ([] if split.all() else [int((~split).sum())])
        want_w, want_U = np.linalg.eigh(mats)
        assert w.tobytes() == want_w.tobytes()
        assert U.tobytes() == want_U.tobytes()

    def test_split_thresholds_and_signed_zeros(self):
        # off-diagonals at, and one ulp past, each of dsteqr's two split
        # tests, with diagonals in and out of order and zeros of each sign
        eps, safmin = 2.0 ** -53, 2.0 ** -1022
        blocks = []
        for a, c in [(1.0, 4.0), (4.0, 1.0), (-3.0, 0.5), (2.0, -7.0),
                     (1.5, 1.5), (-2.0, -2.0), (0.75, 3.0)]:
            first = (np.sqrt(abs(a)) * np.sqrt(abs(c))) * eps
            second = np.sqrt(eps ** 2 * min(abs(a), abs(c)) * max(abs(a),
                                                                  abs(c)))
            for b in (first, second):
                for off in (np.nextafter(b, 0), b, np.nextafter(b, np.inf),
                            np.nextafter(np.nextafter(b, np.inf), np.inf)):
                    blocks += [[[a, off], [off, c]], [[a, -off], [-off, c]]]
        for c in (1.0, -1.0, 1e-100, 3e50):
            # a zero diagonal entry: only the second test, with its safe
            # minimum, can split
            b = np.sqrt(safmin)
            for off in (np.nextafter(b, 0), b, np.nextafter(b, np.inf)):
                blocks += [[[0.0, off], [off, c]], [[c, off], [off, -0.0]]]
        for a, c in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
                     (-0.0, 1.0), (1.0, -0.0), (2.0, 1.0), (1.0, 2.0)]:
            for b in (0.0, -0.0):
                blocks.append([[a, b], [b, c]])
        mats = np.array(blocks)
        w, U = symmetric_eigh(mats)
        want_w, want_U = np.linalg.eigh(mats)
        assert w.tobytes() == want_w.tobytes()
        assert U.tobytes() == want_U.tobytes()

    def test_one_by_one_is_its_own_eigenvalue(self):
        mats = np.random.default_rng(3).standard_normal((1000, 1, 1))
        mats *= 10.0 ** np.arange(-300, 300, 0.6)[:, None, None]
        mats[:2] = [[[0.0]], [[-0.0]]]
        w, U = symmetric_eigh(mats)
        want_w, want_U = np.linalg.eigh(mats)
        assert w.tobytes() == want_w.tobytes()
        assert U.tobytes() == want_U.tobytes()

    def test_block_outside_unscaled_range_goes_to_eigh(self, monkeypatch):
        # LAPACK rescales these, so they take its own route
        mats = two_by_two("random", n=6)
        mats[1] *= 1e-125
        mats[4] *= 1e150
        want = np.linalg.eigh(mats)
        seen = []

        def recording(a, _orig=np.linalg.eigh):
            seen.append(np.array(a))
            return _orig(a)
        monkeypatch.setattr(np.linalg, "eigh", recording)
        got = symmetric_eigh(mats)
        assert len(seen) == 1 and np.array_equal(seen[0], mats[[1, 4]])
        for arr, ref in zip(got, want):
            assert arr.tobytes() == ref.tobytes()

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
