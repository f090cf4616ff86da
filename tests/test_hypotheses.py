"""Structural-constant extraction: closed scalar reductions and probe checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semilab.coefficients import (
    BoxDomain,
    CoefficientSystem,
    SampledField,
    expr_matrix,
    sample,
)
from semilab.gallery import gallery_names, gallery_scenario
from semilab.metric import weight_field
from semilab.hypotheses import (
    HypothesisViolation,
    _kron_whitener,
    check_all,
    estimate_c0,
    estimate_gamma_constants,
    estimate_kappa_A,
    fixed_gamma,
    kernel_mode,
    refined,
)


def scalar_system(q="1", v="1", b=None, c=None, w=None, m=1, V=None, **kw):
    blocks = {}
    if b is not None:
        blocks["B"] = (expr_matrix([[b]]),)
    if c is not None:
        blocks["C"] = (expr_matrix([[c]]),)
    if w is not None:
        blocks["W"] = expr_matrix([[w]])
    return CoefficientSystem(
        d=1, m=m, Q=expr_matrix([[q]]),
        V=expr_matrix(V if V is not None else [[v]]), **blocks, **kw)


GRID = BoxDomain((0.0,), (1.0,), (32,))


class TestC0:
    def test_symmetric_potential_gives_zero(self):
        system = scalar_system(m=2, V=[["2", "0.5"], ["0.5", "3"]])
        fields = sample(system, GRID)
        assert estimate_c0(fields["V"]).max() == 0.0

    def test_unit_antisymmetric_coupling(self):
        system = scalar_system(m=2, V=[["1", "1"], ["-1", "1"]])
        fields = sample(system, GRID)
        assert estimate_c0(fields["V"]).max() == pytest.approx(1.0, abs=1e-12)

    def test_scaled_rotation_block(self):
        # V = D + k D J with D = (2 + x^2) I: the whitened ratio is k everywhere
        k = 0.3
        system = scalar_system(
            m=2,
            V=[["2 + x1^2", f"{k} * (2 + x1^2)"],
               [f"-{k} * (2 + x1^2)", "2 + x1^2"]])
        fields = sample(system, GRID)
        assert estimate_c0(fields["V"]).max() == pytest.approx(k, abs=1e-12)

    def test_rejects_indefinite_symmetric_part(self):
        system = scalar_system(m=2, V=[["1", "0"], ["0", "-1"]])
        fields = sample(system, GRID)
        with pytest.raises(HypothesisViolation):
            estimate_c0(fields["V"])

    def test_probe_domination(self):
        rng = np.random.default_rng(5)
        system = scalar_system(m=2, V=[["2 + x1^2", "1"], ["-1", "3"]])
        fields = sample(system, GRID)
        c0 = estimate_c0(fields["V"]).max()
        V = fields["V"].values
        xi = rng.standard_normal((400, 2)) + 1j * rng.standard_normal((400, 2))
        for node in range(0, GRID.node_count, 4):
            Vx = np.einsum("ij,kj->ki", V[node], xi.conj()).conj()
            quad = np.einsum("ki,ki->k", Vx, xi.conj())
            slack = c0 * quad.real - np.abs(quad.imag)
            assert slack.min() >= -1e-10 * np.abs(quad).max()


class TestKappaA:
    def test_zero_block(self):
        fields = sample(scalar_system(), GRID)
        assert estimate_kappa_A(fields).max() == 0.0

    def test_scalar_ratio(self):
        # m = d = 1: kappa_A = max |a| / q (whitening by q^{-1/2} on both sides)
        system = scalar_system(q="4", A=((expr_matrix([["2"]]),),))
        fields = sample(system, GRID)
        assert estimate_kappa_A(fields).max() == pytest.approx(0.5, abs=1e-14)

    def test_entrywise_ones_block(self):
        # A^{11} = k0 * ones(2), Q = 1: largest singular value is m*k0
        k0 = 0.1
        blk = expr_matrix([[f"{k0}", f"{k0}"], [f"{k0}", f"{k0}"]])
        system = CoefficientSystem(d=1, m=2, Q=expr_matrix([["1"]]),
                                   V=expr_matrix([["1", "0"], ["0", "1"]]),
                                   A=((blk,),))
        fields = sample(system, GRID)
        assert estimate_kappa_A(fields).max() == pytest.approx(2 * k0, abs=1e-14)

    def test_negative_real_part_raises(self):
        system = scalar_system(A=((expr_matrix([["-0.5"]]),),))
        fields = sample(system, GRID)
        with pytest.raises(HypothesisViolation):
            estimate_kappa_A(fields)


class TestDriftConstants:
    def test_scalar_reduction(self):
        # m = d = 1, fixed gamma: kappa_B = max |b| / sqrt(q (gamma v + C))
        mode = fixed_gamma(0.5, 2.0)
        system = scalar_system(q="4", v="1 + x1^2", b="x1")
        fields = sample(system, GRID)
        kB, kC, _ = estimate_gamma_constants(fields, mode)
        x = GRID.axis_nodes(0)
        expected = np.max(np.abs(x) / np.sqrt(4 * (0.5 * (1 + x**2) + 2.0)))
        assert kB == pytest.approx(expected, rel=1e-13)
        assert kC == 0.0

    def test_b_and_c_independent(self):
        mode = fixed_gamma(1.0, 1.0)
        system = scalar_system(b="0.5", c="0.25", v="3")
        fields = sample(system, GRID)
        kB, kC, _ = estimate_gamma_constants(fields, mode)
        assert kB == pytest.approx(0.25, rel=1e-13)
        assert kC == pytest.approx(0.125, rel=1e-13)

    def test_grid_enlargement_monotone(self):
        # coarse interior nodes are a subset of the refined ones, so the
        # estimated supremum cannot decrease under refinement
        mode = fixed_gamma(1.0, 1.0)
        system = scalar_system(v="1 + x1^2", b="x1 * (2 - x1)")
        coarse, _, _ = estimate_gamma_constants(sample(system, GRID), mode)
        fine, _, _ = estimate_gamma_constants(sample(system, GRID.refine()), mode)
        assert fine >= coarse - 1e-15

    def test_probe_domination(self):
        rng = np.random.default_rng(11)
        mode = fixed_gamma(1.0, 1.0)
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1 + x1"]]),
            V=expr_matrix([["2", "0.3"], ["0.3", "2 + x1^2"]]),
            B=(expr_matrix([["x1", "1"], ["-1", "0.5"]]),))
        fields = sample(system, GRID)
        kB, _, _ = estimate_gamma_constants(fields, mode)
        Q = fields["Q"].values
        VS = fields["V"].values
        Bcol = fields["B"].values.reshape(GRID.node_count, 2, 2)
        theta = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        eta = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
        for node in range(0, GRID.node_count, 2):
            lhs = np.abs(np.einsum("ki,ij,kj->k", theta.conj(), Bcol[node], eta))
            tq = np.sqrt(Q[node, 0, 0] * np.einsum("ki,ki->k", theta.conj(), theta).real)
            G = VS[node] + np.eye(2)  # gamma * V_S + Cgamma at gamma = C = 1
            eq = np.sqrt(np.einsum("ki,ij,kj->k", eta.conj(), G, eta).real)
            assert np.all(lhs <= kB * tq * eq * (1 + 1e-10) + 1e-12)


class TestKappaW:
    def test_scalar_reduction(self):
        # m = 1, gamma = C = 1: kappa_W = max |w| / (v + 1)
        mode = fixed_gamma(1.0, 1.0)
        system = scalar_system(v="3", w="2")
        fields = sample(system, GRID)
        assert estimate_gamma_constants(fields, mode)[2] == pytest.approx(
            0.5, rel=1e-13)

    def test_zero_w(self):
        mode = fixed_gamma(1.0, 1.0)
        assert estimate_gamma_constants(sample(scalar_system(), GRID), mode)[2] == 0.0

    def test_refined_mode_takes_gamma_supremum(self):
        # W = kappa0 sqrt(V) with phi(gamma) = 1/(4 gamma): the per-node bound
        # gamma v + 1/(4 gamma) >= sqrt(v) is tight, so the estimate meets
        # kappa0 up to the gamma-grid resolution
        mode = refined(a=0.25, b=0.5)
        system = scalar_system(v="1 + x1^2", w="0.3 * (1 + x1^2)^0.5")
        grid = BoxDomain((-1.0,), (1.0,), (64,))
        est = estimate_gamma_constants(sample(system, grid), mode)[2]
        assert 0.29 < est <= 0.3 + 1e-12


def inv_sqrt(mats):
    w, U = np.linalg.eigh(mats)
    assert np.all(w > 0)
    return (U * w[..., None, :] ** -0.5) @ np.swapaxes(U, -1, -2)


def reference_sweep(fields, mode):
    """(kappa_B, kappa_C, kappa_W) with each gamma's whitener
    (gamma V_S + R I)^{-1/2} taken from its own eigendecomposition."""
    B, C, Wmat = fields["B"].values, fields["C"].values, fields["W"].values
    N, d, m, _ = B.shape
    V = fields["V"].values
    VS = 0.5 * (V + np.swapaxes(V, -1, -2))
    Wq = _kron_whitener(inv_sqrt(fields["Q"].values), m)
    Bcol, Ccol = B.reshape(N, d * m, m), C.reshape(N, d * m, m)

    def top_sv(mats):
        return float(np.linalg.svd(mats, compute_uv=False)[:, 0].max())

    kB = kC = kW = 0.0
    for gamma in mode.gamma_candidates():
        Gi = inv_sqrt(gamma * VS + mode.weight(gamma) * np.eye(m))
        kB = max(kB, top_sv(Wq @ Bcol @ Gi))
        kC = max(kC, top_sv(Wq @ Ccol @ Gi))
        kW = max(kW, top_sv(Gi @ Wmat @ Gi))
    return kB, kC, kW


# m = 3 with a non-diagonal, x-dependent V_S and every first-order and
# potential block present, so the shared eigenbasis is neither the identity
# nor symmetric
COUPLED = CoefficientSystem(
    d=1, m=3, Q=expr_matrix([["1 + x1"]]),
    V=expr_matrix([["2 + x1", "0.6 - 0.4 * x1", "0.1"],
                   ["0.2 + x1^2", "1.5", "0.3 * x1"],
                   ["0.4", "-0.2", "3 - x1"]]),
    B=(expr_matrix([["x1", "1", "0"], ["-1", "0.5", "0.2"],
                    ["0", "x1^2", "0.7"]]),),
    C=(expr_matrix([["0.3", "0", "0.1"], ["x1^2", "-0.2", "0"],
                    ["0.5", "0", "x1"]]),),
    W=expr_matrix([["0.1", "0.2 * x1", "0"], ["0", "0.3", "0.1"],
                   ["0.2", "0", "0.4"]]),
)


class TestSharedGammaSweep:
    """The one-eigendecomposition sweep against per-gamma whitening."""

    @pytest.mark.parametrize("key", gallery_names())
    def test_gallery(self, key):
        scn = gallery_scenario(key)
        fields = sample(scn.system, scn.grid)
        assert estimate_gamma_constants(fields, scn.mode) == pytest.approx(
            reference_sweep(fields, scn.mode), rel=1e-12)

    @pytest.mark.parametrize("mode", [fixed_gamma(0.7, 1.5), refined(a=0.25),
                                      kernel_mode(beta=1.0, c=2.0)],
                             ids=["fixed_gamma", "refined", "kernel"])
    def test_non_diagonal_potential(self, mode):
        fields = sample(COUPLED, GRID)
        got = estimate_gamma_constants(fields, mode)
        assert all(k > 0 for k in got)
        assert got == pytest.approx(reference_sweep(fields, mode), rel=1e-12)

    def test_not_positive_definite_names_node(self):
        # gamma v + R = 4 - 10 < 0 at every node; the first one is reported
        system = scalar_system(v="4", b="0.5")
        with pytest.raises(HypothesisViolation,
                           match=r"gamma\*V_S \+ R \(gamma=1\.0\) not positive "
                                 r"definite at node \(0\.03125,\)"):
            estimate_gamma_constants(sample(system, GRID),
                                     fixed_gamma(1.0, -10.0))


class TestCheckAll:
    def test_k_positive_example(self):
        # kappa_B = kappa_C = 1 at gamma = 1/2, kappa_W = 0: K = 8 - 4 = 4
        s = repr(float(np.sqrt(1.5)))
        mode = fixed_gamma(0.5, 1.0)
        system = scalar_system(v="1", b=s, c=s)
        rep = check_all(sample(system, GRID), mode=mode)
        assert rep.kappaB == pytest.approx(1.0, rel=1e-13)
        assert rep.kappaC == pytest.approx(1.0, rel=1e-13)
        assert rep.K == pytest.approx(4.0, rel=1e-12)
        assert rep.passes["K_positive"]
        assert rep.all_pass

    def test_k_fails_at_saturated_kappa_w(self):
        # gamma = 1 and kappa_W = 1 leaves no room: K is not defined
        mode = fixed_gamma(1.0, 1.0)
        system = scalar_system(v="1", w="2")  # w / (v + 1) = 1
        rep = check_all(sample(system, GRID), mode=mode)
        assert rep.kappaW == pytest.approx(1.0, rel=1e-13)
        assert not rep.passes["K_positive"]
        assert not rep.all_pass

    def test_indefinite_potential_flagged_not_raised(self):
        system = scalar_system(m=2, V=[["1", "0"], ["0", "-1"]])
        rep = check_all(sample(system, GRID), mode=fixed_gamma(1.0, 1.0))
        assert not rep.passes["V_S_positive"]
        assert not rep.all_pass

    def test_drift_whitener_failure_flagged_not_raised(self):
        # Cgamma = -10 leaves gamma V_S + Cgamma indefinite although V_S > 0
        system = scalar_system(v="4", b="0.5")
        rep = check_all(sample(system, GRID), mode=fixed_gamma(1.0, -10.0))
        assert rep.passes["V_S_positive"]
        assert not rep.passes["drift_bounds_finite"]
        assert not rep.passes["K_positive"]
        assert any("not positive definite at node (0.03125,)" in note
                   for note in rep.notes)
        assert not rep.all_pass

    def test_kernel_mode_flags(self):
        system = scalar_system(v="1 + x1^2", b="0.1 * (2 * (1 + x1^2)^0.5)^0.5")
        rep = check_all(sample(system, GRID), mode=kernel_mode(beta=1.0, c=1.0))
        assert rep.passes["kernel_A_vanishes"]
        assert rep.passes["kernel_W_vanishes"]
        # the gamma-grid supremum approaches the exact value 0.1 from below
        assert 0.0999 < rep.kappa <= 0.1 + 1e-12

    def test_nu0_is_min_diffusion_eigenvalue(self):
        system = scalar_system(q="2 + x1")
        rep = check_all(sample(system, GRID), mode=fixed_gamma(1.0, 1.0))
        assert rep.nu0 == pytest.approx(
            2 + GRID.axis_nodes(0)[0], rel=1e-14)


@pytest.mark.parametrize("make", [lambda: fixed_gamma(0.0, 1.0),
                                  lambda: refined(a=0.7),
                                  lambda: refined(a=0.25, b=1.0)],
                         ids=["gamma_zero", "a_too_large", "b_too_large"])
def test_invalid_mode_rejected_at_construction(make):
    with pytest.raises(ValueError):
        make()


def test_one_decomposition_per_field(monkeypatch):
    # the hypotheses and the metric share each field's cached spectrum
    scn = gallery_scenario("g5")
    fields = sample(scn.system, scn.grid)
    V = fields["V"].values
    VS = 0.5 * (V + np.swapaxes(V, -1, -2))
    Q = fields["Q"].values
    decomposed = []
    for name in ("eigh", "eigvalsh"):
        def counting(a, *args, _orig=getattr(np.linalg, name), **kwargs):
            decomposed.append(np.array(a))
            return _orig(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counting)

    check_all(fields, mode=scn.mode)
    weight_field(fields["V"], fields["Q"], 0.0)

    def calls_on(mats):
        return sum(a.shape == mats.shape and np.array_equal(a, mats)
                   for a in decomposed)
    assert calls_on(VS) == 1
    assert calls_on(Q) == 1


# quarter steps in [-2, 2]: zero, singular and indefinite blocks all occur,
# without eigenvalues so small that whitening overflows
ENTRY = st.integers(-8, 8).map(lambda k: k / 4)


def square(n):
    return st.lists(st.lists(ENTRY, min_size=n, max_size=n),
                    min_size=n, max_size=n)


MODES = st.one_of(
    st.builds(fixed_gamma, st.floats(-2, 2).map(lambda e: 10.0 ** e),
              st.floats(-4, 4)),
    st.builds(refined, st.floats(0.01, 0.49), st.none() | st.floats(0, 0.99)),
    st.builds(kernel_mode, st.floats(0, 3), st.floats(1, 4)),
)


@st.composite
def small_systems(draw):
    m = draw(st.sampled_from([1, 2]))

    def shifted(n):
        # a diagonal shift of 5 makes the symmetric part positive definite
        mat, s = draw(square(n)), draw(st.sampled_from([0, 5]))
        return [[x + s * (i == j) for j, x in enumerate(row)]
                for i, row in enumerate(mat)]

    A, B, C, W = (draw(st.none() | square(m)) for _ in range(4))
    return CoefficientSystem(
        d=1, m=m, Q=expr_matrix(shifted(1)), V=expr_matrix(shifted(m)),
        A=None if A is None else ((expr_matrix(A),),),
        B=None if B is None else (expr_matrix(B),),
        C=None if C is None else (expr_matrix(C),),
        W=None if W is None else expr_matrix(W))


@given(small_systems(), MODES)
@settings(max_examples=150, deadline=None)
def test_check_all_never_raises(system, mode):
    rep = check_all(sample(system, BoxDomain((0.0,), (1.0,), (4,))), mode=mode)
    assert all(type(v) is bool for v in rep.passes.values())
