"""Sparse form assembly, adjoint exactness, the ellipticity shift, and the
p-norm sign test."""

import numpy as np
import pytest
import scipy.sparse as sp

from semilab.coefficients import BoxDomain, CoefficientSystem, expr_matrix, sample
from semilab.discrete import (
    DiscreteForm,
    assemble,
    assemble_adjoint,
    form_value,
    nittka_shifted,
    nittka_value,
    omega0,
    p_sign_power,
    truncate_unit,
)
from semilab.evolution import band_limited_random
from semilab.gallery import gallery_scenario
from semilab.hypotheses import check_all, fixed_gamma


def scalar_1d(v="0", q="1", b=None, c=None, n=4, lo=0.0, hi=1.0):
    blocks = {}
    if b is not None:
        blocks["B"] = (expr_matrix([[b]]),)
    if c is not None:
        blocks["C"] = (expr_matrix([[c]]),)
    system = CoefficientSystem(d=1, m=1, Q=expr_matrix([[q]]),
                               V=expr_matrix([[v]]), **blocks)
    return system, BoxDomain((lo,), (hi,), (n,))


class TestAssembly:
    def test_1d_laplacian_tridiagonal(self):
        system, grid = scalar_1d(n=4)
        S = assemble(system, grid).S.toarray()
        h = 0.25
        expected = (1 / h) * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], float)
        np.testing.assert_array_equal(S, expected)

    def test_constant_potential_shifts_diagonal(self):
        sys0, grid = scalar_1d(v="0", n=8)
        sys2, _ = scalar_1d(v="2", n=8)
        S0 = assemble(sys0, grid).S.toarray()
        S2 = assemble(sys2, grid).S.toarray()
        h = grid.h[0]
        np.testing.assert_allclose(S2 - S0, 2 * h * np.eye(grid.node_count),
                                   atol=1e-15)

    def test_zero_diffusion_leaves_the_potential(self):
        # q = 0 at both ends of every face: the harmonic face mean takes its
        # limit 0 instead of 0/0, so S is the potential diagonal
        system, grid = scalar_1d(v="1", q="0", n=8)
        S = assemble(system, grid).S.toarray()
        np.testing.assert_array_equal(S, grid.h[0] * np.eye(grid.node_count))

    def test_antisymmetric_potential_block(self):
        # V = diag(v1, v2) + T with T antisymmetric: the Hermitian part of the
        # potential block is vol * diag(v1, v2) at every node
        grid = BoxDomain((0.0,), (1.0,), (4,))
        base = CoefficientSystem(d=1, m=2, Q=expr_matrix([["1"]]),
                                 V=expr_matrix([["0", "0"], ["0", "0"]]))
        full = CoefficientSystem(d=1, m=2, Q=expr_matrix([["1"]]),
                                 V=expr_matrix([["3", "0.7"], ["-0.7", "5"]]))
        P = (assemble(full, grid).S - assemble(base, grid).S).toarray()
        vol = grid.cell_volume
        herm = 0.5 * (P + P.T)
        anti = 0.5 * (P - P.T)
        for node in range(grid.node_count):
            blk = slice(2 * node, 2 * node + 2)
            np.testing.assert_allclose(herm[blk, blk], vol * np.diag([3.0, 5.0]),
                                       atol=1e-15)
            np.testing.assert_allclose(anti[blk, blk],
                                       vol * np.array([[0, 0.7], [-0.7, 0]]),
                                       atol=1e-15)

    def test_first_order_centered_stencil(self):
        # B and C enter as centered first differences with opposite leg roles
        system, grid = scalar_1d(b="1", n=4)
        S0 = assemble(scalar_1d(n=4)[0], grid).S.toarray()
        SB = assemble(system, grid).S.toarray() - S0
        h = grid.h[0]
        w = grid.cell_volume / (2 * h)  # = 1/2
        np.testing.assert_allclose(
            SB, w * np.array([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], float),
            atol=1e-15)
        system_c, _ = scalar_1d(c="1", n=4)
        SC = assemble(system_c, grid).S.toarray() - S0
        np.testing.assert_allclose(SC, SB.T, atol=1e-15)

    def test_constants_reproduce_zeroth_order_term(self):
        # constant u on an interior patch: first-order differences cancel and
        # (S u) / vol reduces to (V + W) u there
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1"]]),
            V=expr_matrix([["3", "1"], ["-1", "4"]]),
            B=(expr_matrix([["0.5", "0"], ["0", "0.5"]]),),
            C=(expr_matrix([["0.25", "0"], ["0", "0.25"]]),))
        grid = BoxDomain((0.0,), (1.0,), (16,))
        F = assemble(system, grid)
        u = np.tile([1.0, 2.0], grid.node_count)
        out = (F.S @ u) / F.mass
        Vmat = np.array([[3.0, 1.0], [-1.0, 4.0]])
        expected = Vmat @ np.array([1.0, 2.0])
        interior = out.reshape(-1, 2)[2:-2]
        np.testing.assert_allclose(interior,
                                   np.tile(expected, (len(interior), 1)),
                                   atol=1e-10)

    def test_variable_diffusion_second_order_accuracy(self):
        # harmonic face averaging: residual against the exact operator value
        # shrinks like h^2 (ratio >= 3.5 per halving)
        errs = []
        for n in (32, 64):
            system, grid = scalar_1d(q="1 + x1", v="2", n=n)
            F = assemble(system, grid)
            x = grid.axis_nodes(0)
            u = np.sin(np.pi * x)
            # -( (1+x) u' )' + 2u
            exact = (-np.pi * np.cos(np.pi * x)
                     + (1 + x) * np.pi**2 * np.sin(np.pi * x)
                     + 2 * np.sin(np.pi * x))
            resid = (F.S @ u) / F.mass - exact
            patch = (x >= 0.25) & (x <= 0.75)
            errs.append(np.abs(resid[patch]).max())
        assert errs[0] / errs[1] >= 3.5

    def test_mixed_derivative_exact_on_bilinear(self):
        # constant off-diagonal Q: the centered cross stencil is exact on the
        # biquadratic u = x(1-x) y(1-y), away from the boundary legs
        system = CoefficientSystem(
            d=2, m=1,
            Q=expr_matrix([["1", "0.3"], ["0.3", "1"]]),
            V=expr_matrix([["0"]]))
        grid = BoxDomain((0.0, 0.0), (1.0, 1.0), (16, 16))
        F = assemble(system, grid)
        xy = grid.node_coords()
        x, y = xy[:, 0], xy[:, 1]
        u = x * (1 - x) * y * (1 - y)
        exact = -(-2 * y * (1 - y)
                  + 2 * 0.3 * (1 - 2 * x) * (1 - 2 * y)
                  - 2 * x * (1 - x))
        resid = (F.S @ u) / F.mass - exact
        dims = grid.interior_shape
        deep = np.zeros(dims, dtype=bool)
        deep[2:-2, 2:-2] = True
        assert np.abs(resid[deep.ravel()]).max() < 1e-12


class TestAdjoint:
    @pytest.mark.parametrize("key", ["g3", "g5"])
    def test_adjoint_is_exact_transpose(self, key):
        scn = gallery_scenario(key)
        F = assemble(scn.system, scn.grid)
        F_adj = assemble_adjoint(scn.system, scn.grid)
        assert (F_adj.S != F.S.T).nnz == 0

    def test_form_conjugate_identity(self):
        scn = gallery_scenario("g5")
        F = assemble(scn.system, scn.grid)
        F_adj = assemble_adjoint(scn.system, scn.grid)
        rng = np.random.default_rng(2)
        u = rng.standard_normal(F.ndof) + 1j * rng.standard_normal(F.ndof)
        v = rng.standard_normal(F.ndof) + 1j * rng.standard_normal(F.ndof)
        a = form_value(F, u, v)
        a_star = form_value(F_adj, v, u)
        assert abs(a - np.conj(a_star)) <= 1e-12 * abs(a)

    def test_symmetric_system_is_self_adjoint(self):
        system, grid = scalar_1d(v="2", q="1 + x1", n=16)
        F = assemble(system, grid)
        assert (F.S != F.S.T).nnz == 0


class TestFormValue:
    def test_eigenvector_rayleigh(self):
        system, grid = scalar_1d(v="1", n=8)
        F = assemble(system, grid)
        w, U = np.linalg.eigh(F.S.toarray())
        u = U[:, 0]
        assert form_value(F, u, u) == pytest.approx(w[0], rel=1e-12)

    def test_hermitian_form_has_real_diagonal(self):
        system, grid = scalar_1d(v="1 + x1^2", n=16)
        F = assemble(system, grid)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(F.ndof) + 1j * rng.standard_normal(F.ndof)
        assert abs(form_value(F, u, u).imag) < 1e-12


class TestOmega0:
    def test_decoupled_upper_bound(self):
        # B = C = W = 0, V = v0: Re a(u,u) >= v0 ||u||^2, so omega0 <= -v0
        system, grid = scalar_1d(v="2", n=64)
        F = assemble(system, grid)
        assert omega0(F) <= -2.0 + 1e-10

    def test_matches_dense_eigensolve(self):
        scn = gallery_scenario("g2")
        F = assemble(scn.system, scn.grid)
        Ssym = 0.5 * (F.S + F.S.T).toarray() / F.mass
        lam = np.linalg.eigvalsh(Ssym)[0]
        assert omega0(F) == pytest.approx(-lam, abs=1e-10)

    def test_reorder_invariance(self):
        scn = gallery_scenario("g2")
        F = assemble(scn.system, scn.grid)
        rng = np.random.default_rng(7)
        perm = rng.permutation(F.ndof)
        P = sp.csr_matrix((np.ones(F.ndof), (np.arange(F.ndof), perm)),
                          shape=(F.ndof, F.ndof))
        Fp = DiscreteForm(F.grid, F.m, (P @ F.S @ P.T).tocsr(), F.mass)
        assert abs(omega0(F) - omega0(Fp)) <= 1e-10 * max(1.0, abs(omega0(F)))

    def test_drift_system_respects_gamma_bound(self):
        # the ellipticity shift obeys the explicit constant of the real-part
        # lower bound: omega0 <= Cgamma (kappaW + (kappaB + kappaC)^2 / 4)
        scn = gallery_scenario("g3")
        rep = check_all(sample(scn.system, scn.grid), mode=scn.mode)
        F = assemble(scn.system, scn.grid)
        bound = scn.mode.Cgamma * (rep.kappaW + (rep.kappaB + rep.kappaC) ** 2 / 4)
        assert omega0(F) <= bound + 1e-8


class TestSignTest:
    def test_p2_equals_real_form_value(self):
        scn = gallery_scenario("g2")
        F = assemble(scn.system, scn.grid)
        rng = np.random.default_rng(9)
        u = rng.standard_normal(F.ndof)
        assert nittka_value(F, u, 2.0) == np.real(form_value(F, u, u))

    def test_decoupled_nonnegative_for_all_p(self):
        system, grid = scalar_1d(v="1 + x1^2", n=64)
        F = assemble(system, grid)
        rng = np.random.default_rng(13)
        u = band_limited_random(grid, 1, rng, 20)
        for p in (1.5, 2.0, 3.0, 7.0):
            assert nittka_value(F, u, p).min() >= -1e-12

    def test_shifted_value_nonnegative_at_p2(self):
        scn = gallery_scenario("g3")
        grid = BoxDomain(scn.grid.lower, scn.grid.upper, (32, 32))
        F = assemble(scn.system, grid)
        rng = np.random.default_rng(17)
        u = band_limited_random(grid, 2, rng, 100)
        assert nittka_shifted(F, u, 2.0, 1.0, 1.0).min() >= -1e-10

    def test_p_at_most_one_rejected(self):
        system, grid = scalar_1d(v="1", n=8)
        F = assemble(system, grid)
        with pytest.raises(ValueError):
            nittka_value(F, np.ones(F.ndof), 1.0)

    def test_sign_power_examples(self):
        u = np.array([3.0, 4.0, 0.0, 0.0])  # two nodes, m = 2
        w = p_sign_power(u, 2, 3.0)
        np.testing.assert_allclose(w, [15.0, 20.0, 0.0, 0.0])


class TestTruncation:
    def test_large_vector_normalized(self):
        u = np.array([2.0, 0.0])  # one node, m = 2, |u| = 2
        np.testing.assert_allclose(truncate_unit(u, 2), [1.0, 0.0])

    def test_small_vector_unchanged(self):
        u = np.array([0.3, -0.4])
        np.testing.assert_array_equal(truncate_unit(u, 2), u)

    def test_zero_stays_zero(self):
        np.testing.assert_array_equal(truncate_unit(np.zeros(4), 2), np.zeros(4))

    def test_gradient_formula_refinement(self):
        # the discrete gradient of the truncation matches the chain-rule
        # formula away from the kink |u| = 1, with error shrinking under
        # refinement (ratio >= 1.5 per halving)
        def err_at(n):
            grid = BoxDomain((0.0,), (1.0,), (n,))
            x = grid.axis_nodes(0)
            u = np.stack([1.5 * np.sin(2 * np.pi * x),
                          0.8 * np.cos(3 * np.pi * x)], axis=1).ravel()
            h = grid.h[0]
            tu = truncate_unit(u, 2).reshape(-1, 2)
            um = u.reshape(-1, 2)
            norms = np.linalg.norm(um, axis=1)

            def cdiff(f):
                return (f[2:] - f[:-2]) / (2 * h)

            lhs = cdiff(tu)
            du = cdiff(um)
            dnorm = cdiff(norms)
            mid = slice(1, -1)
            sgn = um[mid] / norms[mid, None]
            over = (norms[mid] > 1.0)[:, None]
            rhs = (-sgn * (dnorm / norms[mid])[:, None] * over
                   + (np.minimum(norms[mid], 1.0) / norms[mid])[:, None] * du)
            keep = np.abs(norms[mid] - 1.0) > 0.2
            return np.abs(lhs - rhs)[keep].max()

        e1, e2 = err_at(128), err_at(256)
        assert e1 / e2 >= 1.5
