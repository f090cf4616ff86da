"""Time stepping, weighted p-norms, and the contractivity probe."""

import os

import numpy as np
import pytest

import semilab.evolution as evolution
from semilab.coefficients import BoxDomain, CoefficientSystem, expr_matrix
from semilab.discrete import assemble, assemble_adjoint, omega0
from semilab.evolution import (
    Stepper,
    adjoint_duality_check,
    band_limited_random,
    contractivity_probe_multi,
    evolve,
    evolve_adjoint,
    march_workers,
    pnorm,
)
from semilab.gallery import gallery_scenario


def scalar_form(v="0", q="1", n=32, lo=0.0, hi=1.0):
    system = CoefficientSystem(d=1, m=1, Q=expr_matrix([[q]]),
                               V=expr_matrix([[v]]))
    grid = BoxDomain((lo,), (hi,), (n,))
    return assemble(system, grid)


class TestStepper:
    def test_rejects_bad_scheme_and_dt(self):
        F = scalar_form()
        with pytest.raises(ValueError):
            Stepper(F, 1e-3, "leapfrog")
        with pytest.raises(ValueError):
            Stepper(F, 0.0)

    def test_zero_initial_state_stays_zero(self):
        F = scalar_form(v="2")
        st = Stepper(F, 1e-3)
        u = evolve(F, np.zeros(F.ndof), 0.1, st)
        assert not np.any(u)

    def test_eigenmode_decay_rate(self):
        # implicit Euler on an exact eigenvector: the relative error against
        # e^{-lambda t} is bounded by dt * lambda^2 * t / 2
        F = scalar_form(v="2", n=32)
        lam_s, U = np.linalg.eigh(F.S.toarray())
        lam = lam_s[0] / F.mass
        u0 = U[:, 0]
        dt, t = 1e-4, 0.1
        u = evolve(F, u0, t, Stepper(F, dt, "implicit_euler"))
        amp = float(u @ u0)
        rel = abs(amp - np.exp(-lam * t)) / np.exp(-lam * t)
        assert rel <= dt * lam**2 * t / 2 + 1e-9

    def test_lowest_mode_decay_constant(self):
        # u0 = sin(pi x), V = 2: the decay rate approaches pi^2 + 2
        F = scalar_form(v="2", n=128)
        x = F.grid.axis_nodes(0)
        u0 = np.sin(np.pi * x)
        t, dt = 0.05, 1e-5
        u = evolve(F, u0, t, Stepper(F, dt))
        rate = -np.log(pnorm(u, 2, F.grid, 1) / pnorm(u0, 2, F.grid, 1)) / t
        assert rate == pytest.approx(np.pi**2 + 2, rel=1e-2)

    def test_t_final_must_be_step_multiple(self):
        F = scalar_form()
        with pytest.raises(ValueError):
            evolve(F, np.ones(F.ndof), 0.0015, Stepper(F, 1e-3))

    def test_semigroup_property(self):
        F = scalar_form(v="1 + x1^2")
        rng = np.random.default_rng(0)
        u0 = rng.standard_normal(F.ndof)
        for scheme in ("implicit_euler", "crank_nicolson"):
            st = Stepper(F, 1e-3, scheme)
            direct = evolve(F, u0, 0.05, st)
            composed = evolve(F, evolve(F, u0, 0.03, st), 0.02, st)
            assert np.linalg.norm(direct - composed) <= 1e-10

    def test_schemes_converge_together(self):
        # IE and CN agree in the limit dt -> 0 with observed order >= 1
        F = scalar_form(v="2", n=32)
        rng = np.random.default_rng(1)
        u0 = band_limited_random(F.grid, 1, rng)[:, 0]
        t = 0.02

        def gap(dt):
            ie = evolve(F, u0, t, Stepper(F, dt, "implicit_euler"))
            cn = evolve(F, u0, t, Stepper(F, dt, "crank_nicolson"))
            return np.linalg.norm(ie - cn)

        assert gap(2e-4) / gap(1e-4) >= 1.8


class TestPNorm:
    def test_constant_field_gives_volume_power(self):
        grid = BoxDomain((0.0,), (2.0,), (64,))
        u = np.ones(grid.node_count)
        vol = grid.cell_volume * grid.node_count
        for p in (1.5, 2.0, 4.0):
            assert pnorm(u, p, grid, 1) == pytest.approx(vol ** (1 / p), rel=1e-12)
        assert pnorm(u, np.inf, grid, 1) == 1.0

    def test_p2_is_weighted_euclidean(self):
        grid = BoxDomain((0.0,), (1.0,), (16,))
        rng = np.random.default_rng(2)
        u = rng.standard_normal(grid.node_count * 2)
        assert pnorm(u, 2, grid, 2) == pytest.approx(
            np.sqrt(grid.cell_volume) * np.linalg.norm(u), rel=1e-13)

    def test_gaussian_p4_against_quadrature(self):
        # interior-node sums of a fast-decaying smooth integrand converge to
        # the integral far below 1e-6 at this resolution
        grid = BoxDomain((-8.0,), (8.0,), (2048,))
        x = grid.axis_nodes(0)
        u = np.exp(-(x**2))
        exact = (np.sqrt(np.pi) / 2) ** 0.25  # (int e^{-4x^2})^{1/4}
        assert pnorm(u, 4, grid, 1) == pytest.approx(exact, abs=1e-6)

    def test_componentwise_magnitude(self):
        grid = BoxDomain((0.0,), (1.0,), (4,))
        u = np.tile([3.0, 4.0], grid.node_count)
        assert pnorm(u, np.inf, grid, 2) == 5.0


class TestBandLimitedRandom:
    def test_shape_and_normalization(self):
        grid = BoxDomain((0.0, 0.0), (1.0, 1.0), (16, 16))
        rng = np.random.default_rng(3)
        u = band_limited_random(grid, 2, rng, 5)
        assert u.shape == (grid.node_count * 2, 5)
        np.testing.assert_allclose(np.linalg.norm(u, axis=0), 1.0, rtol=1e-12)

    def test_high_modes_absent(self):
        grid = BoxDomain((0.0,), (1.0,), (64,))
        rng = np.random.default_rng(4)
        u = band_limited_random(grid, 1, rng)[:, 0]
        i = np.arange(1, 64)
        modes = np.array([np.sin(np.pi * k * i / 64) for k in range(1, 64)])
        coeffs = modes @ u
        assert np.abs(coeffs[20:]).max() <= 1e-12 * np.abs(coeffs).max()

    def test_deterministic_given_seed(self):
        grid = BoxDomain((0.0,), (1.0,), (32,))
        a = band_limited_random(grid, 1, np.random.default_rng(7), 2)
        b = band_limited_random(grid, 1, np.random.default_rng(7), 2)
        np.testing.assert_array_equal(a, b)


class TestDuality:
    def test_zero_time_defect_vanishes(self):
        scn = gallery_scenario("g2")
        F = assemble(scn.system, scn.grid)
        rng = np.random.default_rng(5)
        f = rng.standard_normal(F.ndof)
        g = rng.standard_normal(F.ndof)
        assert adjoint_duality_check(F, 0.0, f, g, Stepper(F, 1e-3)) == 0.0

    def test_nonsymmetric_system_duality(self):
        scn = gallery_scenario("g5")
        F = assemble(scn.system, scn.grid)
        rng = np.random.default_rng(6)
        f = rng.standard_normal(F.ndof)
        f /= np.linalg.norm(f)
        g = rng.standard_normal(F.ndof)
        g /= np.linalg.norm(g)
        st = Stepper(F, 1e-3)
        assert adjoint_duality_check(F, 0.05, f, g, st) <= 1e-10

    def test_adjoint_evolution_matches_transpose(self):
        scn = gallery_scenario("g5")
        F = assemble(scn.system, scn.grid)
        st = Stepper(F, 1e-3)
        rng = np.random.default_rng(8)
        g0 = rng.standard_normal(F.ndof)
        ga = evolve_adjoint(F, g0, 0.01, st)
        F_adj = assemble_adjoint(scn.system, scn.grid)
        gb = evolve(F_adj, g0, 0.01, Stepper(F_adj, 1e-3))
        np.testing.assert_allclose(ga, gb, atol=1e-12)

    def test_adjoint_rejects_negative_time(self):
        F = scalar_form(v="1")
        with pytest.raises(ValueError, match="nonnegative"):
            evolve_adjoint(F, np.ones(F.ndof), -1e-3, Stepper(F, 1e-3))

    def test_adjoint_blow_up_detected(self):
        # with 1 + dt*(lambda_1 + v) near 0.1 the implicit step amplifies the
        # lowest mode about tenfold, past the 1e12 guard within 20 steps
        F = scalar_form(v="-99", n=8)
        with pytest.raises(FloatingPointError):
            evolve_adjoint(F, np.ones(F.ndof), 0.2, Stepper(F, 1e-2))


class TestContractivityProbe:
    def test_decoupled_decay_at_least_v0(self):
        # scalar V = 2: every p-norm decays at rate at least 2
        F = scalar_form(v="2", n=64)
        st = Stepper(F, 1e-3)
        traces = contractivity_probe_multi(F, [2.0, 3.0, np.inf], 0.1, 10, st,
                                           seed=11)
        for p, tr in traces.items():
            assert tr.max_slope <= -2.0 + 0.1

    def test_p2_slope_bounded_by_form_shift(self):
        scn = gallery_scenario("g4")
        F = assemble(scn.system, scn.grid)
        st = Stepper(F, 1e-3)
        tr = contractivity_probe_multi(F, [2.0], 0.05, 10, st, seed=12)[2.0]
        assert tr.max_slope <= omega0(F) + 1e-8

    def test_max_norm_contraction_pure_diffusion(self):
        # no drift, no potential: implicit Euler inherits the max principle
        F = scalar_form(v="0", n=64)
        st = Stepper(F, 1e-3)
        tr = contractivity_probe_multi(F, [np.inf], 0.05, 10, st,
                                       seed=13)[np.inf]
        assert (tr.norms <= tr.norms0[None, :] * (1 + 1e-8)).all()

    def test_shared_block_matches_single_probe(self):
        F = scalar_form(v="1 + x1", n=32)
        st = Stepper(F, 1e-3)
        multi = contractivity_probe_multi(F, [2.0, 4.0], 0.02, 5, st, seed=15)
        single = contractivity_probe_multi(F, [2.0], 0.02, 5, st, seed=15)[2.0]
        np.testing.assert_array_equal(multi[2.0].norms, single.norms)

    def test_blow_up_detected(self):
        # 1 + dt*(lambda_1 + v) is about 0.71: the lowest mode grows 1.4-fold
        # per step, past the 1e12 guard by the first checkpoint
        F = scalar_form(v="-300", n=32)
        with pytest.raises(FloatingPointError):
            contractivity_probe_multi(F, [2.0, 4.0], 1.0, 5, Stepper(F, 1e-3))


@pytest.mark.skipif(evolution._blas_one_thread() is None,
                    reason="SciPy's BLAS cannot be held to one thread here, "
                           "so every march stays in-process")
class TestForkedMarch:
    def test_forked_march_is_bit_identical(self, march_on, process_starts):
        # g3 is 2-D with m = 2
        scn = gallery_scenario("g3")
        F = assemble(scn.system,
                     BoxDomain(scn.grid.lower, scn.grid.upper, (16, 16)))
        st = Stepper(F, scn.dt)
        rng = np.random.default_rng(16)
        block = rng.standard_normal((F.ndof, 5))
        results = {}
        for cpus in (None, 2, 3):
            march_on(cpus)
            results[cpus] = (
                contractivity_probe_multi(F, [2.0, 4.0, np.inf], 30 * st.dt,
                                          7, st, seed=17),
                evolve(F, block, 20 * st.dt, st),
                evolve_adjoint(F, block, 20 * st.dt, st))
        # two groups for each of the three forked marches, then three each
        assert len(process_starts) == 3 * 2 + 3 * 3
        (probe, fwd, adj) = results[None]
        for cpus in (2, 3):
            probe_f, fwd_f, adj_f = results[cpus]
            for p, tr in probe.items():
                for name in ("times", "norms0", "norms", "slopes"):
                    np.testing.assert_array_equal(getattr(probe_f[p], name),
                                                  getattr(tr, name))
            np.testing.assert_array_equal(fwd_f, fwd)
            np.testing.assert_array_equal(adj_f, adj)

    def test_blow_up_in_a_child_raises_in_the_parent(self, march_on,
                                                     process_starts):
        march_on(2)
        F = scalar_form(v="-300", n=32)
        with pytest.raises(FloatingPointError, match="blow-up detected"):
            contractivity_probe_multi(F, [2.0, 4.0], 1.0, 5, Stepper(F, 1e-3))
        assert len(process_starts) == 2

    def test_child_error_keeps_type_and_message(self, march_on,
                                                process_starts):
        march_on(2)
        F = scalar_form(n=16)

        def read(u):
            raise ValueError(f"cannot read {u.shape[1]} columns")

        # the parent reads the groups in order: columns 0-2 come first
        with pytest.raises(ValueError, match=r"^cannot read 3 columns$"):
            evolution._march(Stepper(F, 1e-3), np.ones((F.ndof, 5)), [1, 2],
                             read=read)
        assert len(process_starts) == 2

    def test_child_that_dies_is_reported(self, march_on, process_starts):
        march_on(2)
        F = scalar_form(n=16)

        def read(u):
            os._exit(3)

        with pytest.raises(RuntimeError, match="exited with code 3"):
            evolution._march(Stepper(F, 1e-3), np.ones((F.ndof, 4)), [1],
                             read=read)
        assert len(process_starts) == 2

    def test_one_cpu_starts_no_process(self, march_on, process_starts):
        march_on(1)
        F = scalar_form(n=16)
        contractivity_probe_multi(F, [2.0], 0.01, 4, Stepper(F, 1e-3))
        assert march_workers(Stepper(F, 1e-3), 4, 10) == 1
        assert process_starts == []

    def test_work_chooses_the_path(self, monkeypatch):
        # probe2d-sized work (2.8e9) forks; kernel1d-sized (1.7e8) does not
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        F = scalar_form(n=64)
        st = Stepper(F, 1e-3)
        nnz = st._lu.nnz
        assert march_workers(st, 50, int(2.8e9 / 50 / nnz) + 1) == 3
        assert march_workers(st, 2, int(2.8e9 / 2 / nnz) + 1) == 2
        assert march_workers(st, 10, int(1.7e8 / 10 / nnz)) == 1
        assert march_workers(st, 1, int(1e12 / nnz)) == 1
