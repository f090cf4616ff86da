"""Structural-constant extraction: closed scalar reductions and probe checks."""

import ast
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semilab.coefficients as coefficients
import semilab.hypotheses as hypotheses
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
    GAMMA_GRID,
    MODE_PARAMS,
    EstimateMode,
    HypothesisViolation,
    _eigen_whitener,
    _entries_first,
    _max_sv,
    _node_grams,
    _require_pd,
    _rotated_blocks,
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

    def test_antisymmetric_part_by_halves(self):
        # V - V^T would overflow; the halves V/2 - V^T/2 give c0 = 1e308
        system = scalar_system(m=2, V=[["1", "1e308"], ["-1e308", "1"]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert estimate_c0(sample(system, GRID)["V"]).max() == 1e308

    def test_symmetric_potential_is_not_whitened(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("whitened")
        monkeypatch.setattr(hypotheses, "_congruence", refuse)
        fields = sample(scalar_system(m=2, V=[["2", "0.5 * x1"],
                                             ["0.5 * x1", "3"]]), GRID)
        c0 = estimate_c0(fields["V"])
        assert c0.tobytes() == np.zeros(GRID.node_count).tobytes()
        fields = sample(scalar_system(m=2, V=[["2", "0.5"], ["0", "3"]]),
                        GRID)
        with pytest.raises(AssertionError, match="whitened"):
            estimate_c0(fields["V"])

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

    def test_overflowed_whitening_is_infinite(self):
        # Q = 1e-320 whitens by 1e160 on each side, beyond the float range:
        # those nodes get kappa_A = inf, the others |A| / q
        A = [[1.0, 0.5, 0.0], [0.25, 1.0, 0.0], [0.0, 0.0, 1.0]]
        system = CoefficientSystem(
            d=1, m=3, Q=expr_matrix([["max(1e-320, x1 - 0.5)"]]),
            V=expr_matrix(np.eye(3).tolist()), A=((expr_matrix(A),),))
        fields = sample(system, BoxDomain((0.0,), (1.0,), (8,)))
        kappa = estimate_kappa_A(fields)
        q = fields["Q"].values[:, 0, 0]
        tiny = q == 1e-320
        assert tiny.any() and not tiny.all()
        assert (kappa[tiny] == np.inf).all()
        np.testing.assert_allclose(kappa[~tiny],
                                   np.linalg.norm(A, 2) / q[~tiny], rtol=1e-14)

    @pytest.mark.parametrize("a", ["x1 - 0.4", "x1 - 0.9"],
                             ids=["overflowed_only", "both"])
    def test_overflowed_node_keeps_the_sign_check(self, a):
        # q = 1e-320 up to x = 0.5, where the whitened coupling overflows;
        # a congruence keeps its sign, so a negative A is caught there
        # (alone, or ahead of the finite nodes at 0.625..0.875), and the
        # most negative such node is named
        system = scalar_system(q="max(1e-320, x1 - 0.5)",
                               A=((expr_matrix([[a]]),),))
        fields = sample(system, BoxDomain((0.0,), (1.0,), (8,)))
        value = 0.125 - float(a.split(" - ")[1])
        with pytest.raises(HypothesisViolation,
                           match=rf"negative at node \(0\.125,\) "
                                 rf"\(eigenvalue {value:.3e} before "
                                 rf"whitening, which overflows\)"):
            estimate_kappa_A(fields)

    def test_overflowed_block_is_checked_as_a_matrix(self):
        # the symmetric part [[1, 1.5], [1.5, 1]] has eigenvalues -0.5 and
        # 2.5: indefinite although its diagonal is positive
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1e-320"]]),
            V=expr_matrix(np.eye(2).tolist()),
            A=((expr_matrix([["1", "3"], ["0", "1"]]),),))
        fields = sample(system, BoxDomain((0.0,), (1.0,), (8,)))
        with pytest.raises(HypothesisViolation,
                           match=r"eigenvalue -5\.000e-01 before whitening"):
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


def top_sv(mats):
    """Per-node largest singular value, by SVD."""
    return np.linalg.svd(mats, compute_uv=False)[:, 0]


def q_whitener(fields):
    """Per-node Q^{-1/2} (x) I_m, acting on stacked block columns."""
    Q, m = fields["Q"].values, fields["V"].values.shape[-1]
    N, d, _ = Q.shape
    return np.einsum("nhk,ij->nhikj", inv_sqrt(Q), np.eye(m)).reshape(
        N, d * m, d * m)


def reference_c0(fields):
    V = fields["V"].values
    Wh = inv_sqrt(0.5 * (V + np.swapaxes(V, -1, -2)))
    return top_sv(Wh @ (0.5 * (V - np.swapaxes(V, -1, -2))) @ Wh)


def reference_kappa_A(fields):
    A = fields["A"].values
    N, d, _, m, _ = A.shape
    Wq = q_whitener(fields)
    return top_sv(Wq @ np.transpose(A, (0, 1, 3, 2, 4)).reshape(
        N, d * m, d * m) @ Wq)


def reference_sweep(fields, mode):
    """(kappa_B, kappa_C, kappa_W) with each gamma's whitener
    (gamma V_S + R I)^{-1/2} taken from its own eigendecomposition."""
    B, C, Wmat = fields["B"].values, fields["C"].values, fields["W"].values
    N, d, m, _ = B.shape
    V = fields["V"].values
    VS = 0.5 * (V + np.swapaxes(V, -1, -2))
    Wq = q_whitener(fields)
    Bcol, Ccol = B.reshape(N, d * m, m), C.reshape(N, d * m, m)

    kB = kC = kW = 0.0
    for gamma in mode.gamma_candidates():
        Gi = inv_sqrt(gamma * VS + mode.weight(gamma) * np.eye(m))
        kB = max(kB, float(top_sv(Wq @ Bcol @ Gi).max()))
        kC = max(kC, float(top_sv(Wq @ Ccol @ Gi).max()))
        kW = max(kW, float(top_sv(Gi @ Wmat @ Gi).max()))
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

# d = m = 2 with an x-dependent, non-diagonal Q, a non-symmetric V and every
# block present, so both eigenbases (of Q and of V_S) vary from node to node
COUPLED_2D = CoefficientSystem(
    d=2, m=2, Q=expr_matrix([["2 + x1", "0.5 * x2"], ["0.5 * x2", "1.5 + x2^2"]]),
    V=expr_matrix([["3 + x1", "0.4 + x2"], ["-0.2 * x1", "2.5 - x2"]]),
    A=expr_matrix([
        [[["1 + 0.2 * x1", "0.1"], ["-0.1 * x2", "0.8"]],
         [["0.1 * x2", "0"], ["0.05", "0.1"]]],
        [[["0.1", "-0.05 * x1"], ["0", "0.2 * x2"]],
         [["0.9", "0.1 * x1"], ["0.1", "1 + x2"]]]]),
    B=expr_matrix([[["x1", "0.5"], ["-0.3", "x2^2"]],
                   [["0.2", "-x1 * x2"], ["0.4", "0.1"]]]),
    C=expr_matrix([[["0.3", "x2"], ["0", "-0.2"]],
                   [["x1^2", "0.1"], ["-0.5", "0.3 * x2"]]]),
    W=expr_matrix([["0.1 + x1", "0.2"], ["-0.3 * x2", "0.4"]]),
)
GRID_2D = BoxDomain((0.0, 0.0), (1.0, 1.0), (6, 6))
MODES_3 = pytest.mark.parametrize(
    "mode", [fixed_gamma(0.7, 1.5), refined(a=0.25), kernel_mode(beta=1.0, c=2.0)],
    ids=["fixed_gamma", "refined", "kernel"])


class TestRotatedWhitening:
    """Every estimator on systems whose eigenbases vary from node to node,
    against whiteners from dense per-node eigendecompositions and SVDs."""

    # at m = 2 every rotation maps the antisymmetric part to +-itself; m = 3
    # also checks that it is rotated into the eigenbasis of V_S
    @pytest.mark.parametrize("system,grid", [(COUPLED_2D, GRID_2D),
                                             (COUPLED, GRID)], ids=["m2", "m3"])
    def test_c0(self, system, grid):
        fields = sample(system, grid)
        got = estimate_c0(fields["V"])
        assert got.min() > 0
        np.testing.assert_allclose(got, reference_c0(fields), rtol=1e-12)

    def test_kappa_A(self):
        fields = sample(COUPLED_2D, GRID_2D)
        got = estimate_kappa_A(fields)
        assert got.min() > 0
        np.testing.assert_allclose(got, reference_kappa_A(fields), rtol=1e-12)

    @MODES_3
    def test_gamma_sweep(self, mode):
        fields = sample(COUPLED_2D, GRID_2D)
        got = estimate_gamma_constants(fields, mode)
        assert all(k > 0 for k in got)
        assert got == pytest.approx(reference_sweep(fields, mode), rel=1e-12)


class TestSharedGammaSweep:
    """The one-eigendecomposition sweep against per-gamma whitening."""

    @pytest.mark.parametrize("key", gallery_names())
    def test_gallery(self, key):
        scn = gallery_scenario(key)
        fields = sample(scn.system, scn.grid)
        assert estimate_gamma_constants(fields, scn.mode) == pytest.approx(
            reference_sweep(fields, scn.mode), rel=1e-12)

    @MODES_3
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


def product_blocks(fields):
    """The rotated B, C and W blocks of ``_rotated_blocks``, absent ones as
    zeros, by stacked matrix products on node-first arrays: the whitened
    block columns einsum("nha,nhij->naij", Wq, X) @ U, and U^T W U."""
    N, d, m, _ = fields["B"].values.shape
    U = fields["V"].spectrum.eigenvectors
    Wq = np.moveaxis(_eigen_whitener(fields["Q"], "Q"), -1, 0)
    blocks = {name: _entries_first(
        (np.einsum("nha,nhij->naij", Wq, fields[name].values)
         @ U[:, None]).reshape(N, d * m, m)) for name in "BC"}
    blocks["W"] = _entries_first(
        np.swapaxes(U, -1, -2) @ fields["W"].values @ U)
    return blocks


def max_sv_sweep(fields, mode):
    """(kappa_B, kappa_C, kappa_W) one gamma at a time: the top singular
    value of each block scaled by s = (gamma lam + R)^{-1/2}, by ``_max_sv``
    on the entries-first node matrices of ``product_blocks``."""
    YB, YC, Z = product_blocks(fields).values()
    lam = _entries_first(fields["V"].spectrum.eigenvalues)
    kB = kC = kW = 0.0
    for gamma in mode.gamma_candidates():
        w = gamma * lam + mode.weight(gamma)
        if not (w[0] > 0).all():
            _require_pd(w.T, f"gamma*V_S + R (gamma={gamma})",
                        fields["V"].domain)
        s = w ** -0.5
        kB = max(kB, float(_max_sv(YB * s).max()))
        kC = max(kC, float(_max_sv(YC * s).max()))
        kW = max(kW, float(_max_sv(s[:, None] * Z * s).max()))
    return kB, kC, kW


def whole_grid_sweep(fields, mode):
    """(kappa_B, kappa_C, kappa_W) by the Gram-form sweep over every
    node-gamma, chunk by chunk, with no bound pruning any of them, on the
    blocks ``estimate_gamma_constants`` builds (``_rotated_blocks``)."""
    blocks = _rotated_blocks(fields)
    if not blocks:
        return 0.0, 0.0, 0.0
    N = fields["V"].domain.node_count
    grams = {name: _node_grams(Y, name == "W") for name, Y in blocks.items()}
    kappa = {name: np.inf if bad.any() else 0.0
             for name, (_, _, bad) in grams.items()}
    lam = _entries_first(fields["V"].spectrum.eigenvalues)[:, None]
    gammas = mode.gamma_candidates()
    R = mode.weight(gammas)
    step = max(1, hypotheses.SWEEP_CHUNK // N)
    for start in range(0, len(gammas), step):
        chunk = gammas[start:start + step]
        w = chunk[:, None] * lam
        w += R[start:start + step, None]
        positive = (w[0] > 0).all(axis=1)
        if not positive.all():
            k = int(np.argmin(positive))
            _require_pd(w[:, k].T, f"gamma*V_S + R (gamma={chunk[k]})",
                        fields["V"].domain)
        s = w ** -0.5
        s0 = s[0]
        u = s[1:] / np.where(s0 > 0, s0, 1.0)
        u2 = u * u
        for name, (sigma, G, _) in grams.items():
            scale = sigma * s0
            if name == "W":
                scale = scale * s0
            top = hypotheses._top_eig(G, u, u2)
            with np.errstate(invalid="ignore"):
                sv = np.sqrt(top) * scale
            peak = sv.max()
            if not peak < np.inf or top.min() < hypotheses.SWEEP_FLOOR:
                redo = ~(sv < np.inf) | (
                    (top < hypotheses.SWEEP_FLOOR) & (sigma > 0))
                g, n = np.nonzero(redo)
                scaled = blocks[name][..., n] * s[:, g, n]
                if name == "W":
                    scaled = s[:, None, g, n] * scaled
                sv[g, n] = _max_sv(scaled)
                peak = sv.max()
            kappa[name] = max(kappa[name], float(peak))
    return tuple(kappa.get(name, 0.0) for name in "BCW")


def random_system(d, m, seed):
    """Every first-order and potential block present, each entry affine in
    the coordinates; diagonal shifts make Q and V_S positive definite."""
    rng = np.random.default_rng([d, m, seed])

    def mat(n, shift=0.0):
        return expr_matrix([[" + ".join(
            [repr(float(rng.uniform(-1, 1) + shift * (i == j)))]
            + [f"({float(rng.uniform(-1, 1))!r}) * x{k + 1}" for k in range(d)])
            for j in range(n)] for i in range(n)])

    return CoefficientSystem(d=d, m=m, Q=mat(d, 3.0), V=mat(m, 4.0),
                             B=tuple(mat(m) for _ in range(d)),
                             C=tuple(mat(m) for _ in range(d)), W=mat(m))


SWEEP_MODES = [fixed_gamma(0.7, 1.5), refined(a=0.25), refined(a=0.45, b=0.2),
               kernel_mode(beta=1.0, c=2.0)]


class TestRotatedBlocks:
    """``_rotated_blocks`` against the stacked matrix products it replaces.
    Those may fuse a multiply and an add where the broadcast sums do not."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_within_four_ulps_of_matrix_products(self, d, m):
        # ulps of each node's largest |entry|, the scale _max_sv reads
        grid = BoxDomain((0.0,) * d, (1.0,) * d, (5,) * d)
        for seed in range(3):
            fields = sample(random_system(d, m, seed), grid)
            got, want = _rotated_blocks(fields), product_blocks(fields)
            assert list(got) == ["B", "C", "W"]
            for name, Y in got.items():
                ulp = np.spacing(np.abs(want[name]).max(axis=(0, 1)))
                assert (np.abs(Y - want[name]) <= 4 * ulp).all(), name

    @pytest.mark.parametrize("key", gallery_names())
    def test_gallery_bit_for_bit(self, key):
        scn = gallery_scenario(key)
        fields = sample(scn.system, scn.grid)
        got, want = _rotated_blocks(fields), product_blocks(fields)
        assert list(got) == [name for name in "BCW" if np.any(want[name])]
        for name, Y in got.items():
            assert Y.tobytes() == want[name].tobytes(), name


def broadcast_blocks(fields):
    """The rotated B, C and W blocks of ``_rotated_blocks`` as one broadcast
    sum per product, over (h, a, i, k, N) and (a, i, k, j, N) arrays."""
    U = _entries_first(fields["V"].spectrum.eigenvectors)
    Wq = _eigen_whitener(fields["Q"], "Q")
    blocks = {}
    for name in "BC":
        X = _entries_first(fields[name].values)
        E = (Wq[:, :, None, None] * X[:, None]).sum(0)
        Y = (E[:, :, :, None] * U).sum(2)
        blocks[name] = Y.reshape(-1, *Y.shape[2:])
    W = _entries_first(fields["W"].values)
    T = (U[:, :, None] * W[:, None]).sum(0)
    blocks["W"] = (T[:, :, None] * U).sum(1)
    return blocks


def broadcast_kappa_A(fields):
    """``estimate_kappa_A`` with the whitened coupling as one broadcast sum
    over (h, k, a, i, b, j, N), with no nonnegativity check."""
    A = _entries_first(fields["A"].values)
    d, m, N = A.shape[0], A.shape[2], A.shape[-1]
    Wh = _eigen_whitener(fields["Q"], "Q")
    white = ((Wh[:, None, :, None, None, None] * A[:, :, None, :, None])
             * Wh[None, :, None, None, :, None]).sum((0, 1))
    return _max_sv(white.reshape(d * m, d * m, N))


def coupled_system(d, m, seed, margin):
    """``random_system`` with a constant coupling A whose (d m, d m) matrix
    S is a signed weighted graph Laplacian plus ``margin`` I: Gershgorin's
    lower bound and the smallest eigenvalue of S are both ``margin``, and
    with Q = I the whitened coupling is S itself."""
    rng = np.random.default_rng([d, m, seed, 1])
    k = d * m
    off = -np.abs(rng.uniform(-1, 1, (k, k)))
    off = off + off.T
    sign = rng.choice([-1.0, 1.0], k)
    off *= sign[:, None] * sign
    np.fill_diagonal(off, 0.0)
    S = np.diag(np.abs(off).sum(1) + margin) + off
    A = [[[[repr(float(S[h * m + i, kk * m + j])) for j in range(m)]
           for i in range(m)] for kk in range(d)] for h in range(d)]
    return dataclasses.replace(random_system(d, m, seed), A=expr_matrix(A))


class TestInPlaceSums:
    """The in-place sums of products of the constants layer against the
    broadcast sums over 5-D and larger arrays that they replace, bit for
    bit."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rotated_blocks(self, d, m):
        grid = BoxDomain((0.0,) * d, (1.0,) * d, (5,) * d)
        for seed in range(3):
            fields = sample(random_system(d, m, seed), grid)
            got, want = _rotated_blocks(fields), broadcast_blocks(fields)
            assert list(got) == ["B", "C", "W"]
            for name, Y in got.items():
                assert Y.tobytes() == want[name].tobytes(), name

    def test_negative_zeros_sum_to_positive_zero(self):
        # numpy's sum starts from +0.0, so -0.0 + -0.0 reads +0.0 there too
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1"]]),
            V=expr_matrix([["1", "0"], ["0", "2"]]),
            B=(expr_matrix([["-1", "-0.0"], ["-0.0", "-1"]]),),
            W=expr_matrix([["-1", "-0.0"], ["-0.0", "-1"]]))
        fields = sample(system, GRID)
        got, want = _rotated_blocks(fields), broadcast_blocks(fields)
        for name, Y in got.items():
            assert Y.tobytes() == want[name].tobytes(), name
        assert not np.signbit(got["B"][0, 1]).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_kappa_A(self, d, m):
        grid = BoxDomain((0.0,) * d, (1.0,) * d, (5,) * d)
        for seed in range(3):
            fields = sample(coupled_system(d, m, seed, margin=0.5), grid)
            got = estimate_kappa_A(fields)
            assert got.tobytes() == broadcast_kappa_A(fields).tobytes()


def eigvalsh_verdict(fields, monkeypatch):
    """``estimate_kappa_A``'s result, or its message, with the Gershgorin
    certificate refused, so that every node takes the eigenvalue test."""
    with monkeypatch.context() as patch:
        patch.setattr(hypotheses, "_certified", lambda M: False)
        return kappa_A_verdict(fields)


def kappa_A_verdict(fields):
    try:
        return estimate_kappa_A(fields).tobytes()
    except HypothesisViolation as err:
        return str(err)


class TestGershgorinSkip:
    """The nonnegativity test of kappa_A skips its eigenvalues only where
    Gershgorin's bound certifies them, with the same verdict either way."""

    @pytest.mark.parametrize("margin", [-1e-9, -1e-12, -1e-14, 0.0, 1e-14,
                                        1e-9, 1.0])
    @pytest.mark.parametrize("d,m", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
    def test_same_verdict_near_the_boundary(self, d, m, margin, monkeypatch):
        # Q = I and a coupling whose smallest eigenvalue is the margin, on
        # either side of the test's -1e-12 tolerance and of Gershgorin's 0
        grid = BoxDomain((0.0,) * d, (1.0,) * d, (4,) * d)
        for seed in range(4):
            system = dataclasses.replace(
                coupled_system(d, m, seed, margin=margin),
                Q=expr_matrix(np.eye(d).tolist()))
            fields = sample(system, grid)
            assert kappa_A_verdict(fields) == eigvalsh_verdict(fields,
                                                               monkeypatch)

    def test_negative_node_is_named(self, monkeypatch):
        # the first node whose coupling turns indefinite, as before
        system = scalar_system(A=((expr_matrix([["0.5 - x1"]]),),))
        fields = sample(system, GRID)
        verdict = kappa_A_verdict(fields)
        assert verdict == eigvalsh_verdict(fields, monkeypatch)
        assert verdict.startswith("Re second-order coupling negative at node")

    def test_certified_coupling_takes_no_eigenvalues(self, monkeypatch):
        system = dataclasses.replace(coupled_system(2, 2, 0, margin=0.5),
                                     Q=expr_matrix(np.eye(2).tolist()))
        fields = sample(system, BoxDomain((0.0, 0.0), (1.0, 1.0), (5, 5)))

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        # the kappa_A block has 4 columns: its top singular value is the
        # one eigvalsh left, in _top_eig, which this test takes away too
        monkeypatch.setattr(hypotheses, "_max_sv", lambda mats: mats[0, 0])
        estimate_kappa_A(fields)


class TestGramSweep:
    """The Gram-form sweep against the per-gamma ``_max_sv`` loop."""

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("mode", SWEEP_MODES,
                             ids=["fixed_gamma", "refined", "refined_b",
                                  "kernel"])
    def test_matches_max_sv_loop(self, d, m, mode):
        grid = BoxDomain((0.0,) * d, (1.0,) * d, (9,) * d)
        fields = sample(random_system(d, m, seed=0), grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = estimate_gamma_constants(fields, mode)
        with np.errstate(over="ignore"):
            want = max_sv_sweep(fields, mode)
            assert got == whole_grid_sweep(fields, mode)
        assert all(0 < k < np.inf for k in got)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("system,mode,inf_at", [
        # 1e200 whitened by Q = 1e-300 overflows in the block itself
        (scalar_system(q="1e-300", b="1e200", c="1"), fixed_gamma(1.0, 1.0), 0),
        (scalar_system(q="1e-300", b="1", c="1e200"), fixed_gamma(1.0, 1.0), 1),
        # 1e200 scaled by (1e-300 + 1e-300)^{-1/2} on both sides overflows
        (scalar_system(v="1e-300", b="1", w="1e200"),
         fixed_gamma(1.0, 1e-300), 2),
        (CoefficientSystem(d=1, m=2, Q=expr_matrix([["1"]]),
                           V=expr_matrix([["1e-300", "0"], ["0", "3 + x1"]]),
                           B=(expr_matrix([["1", "x1"], ["0", "1"]]),),
                           W=expr_matrix([["0.1", "1e200 * x1"],
                                          ["0", "0.2"]])),
         fixed_gamma(1.0, 1e-300), 2),
        # the rotation by V_S's eigenbasis meets the overflowed entry with 0
        (CoefficientSystem(d=1, m=2, Q=expr_matrix([["1e-300"]]),
                           V=expr_matrix([["2", "0"], ["0", "3 + x1"]]),
                           B=(expr_matrix([["1", "1e200 * x1"],
                                           ["0", "1"]]),)),
         refined(a=0.25), 0)],
        ids=["B", "C", "W", "W-m2", "B-m2-rotated"])
    def test_overflow_gives_inf(self, system, mode, inf_at):
        fields = sample(system, GRID)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = estimate_gamma_constants(fields, mode)
        with np.errstate(over="ignore", invalid="ignore"):
            want = max_sv_sweep(fields, mode)
            assert got == whole_grid_sweep(fields, mode)
        assert got[inf_at] == np.inf
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("v1,R,name,block,want", [
        # R = 1e-300 weighs the second column by u^2 = 2e-300 against a
        # first column of 1e-150: every entry of diag(u) G diag(u) is near
        # 1e-300, below the sweep's floor
        ("1", 1e-300, "B", [["1e-150", "0"], ["0", "1"]], (1.0, 0.0, 0.0)),
        # s = (1e150, 1e-15): u^2 = 1e-330 underflows to 0, and the whole
        # block sits in the second column, so the Gram form reads 0
        ("1e30", 0.0, "B", [["0", "1e15"], ["0", "0"]], (1.0, 0.0, 0.0)),
        # s = (1e150, 1e90): sigma s[0] = 1e350 overflows, while the block
        # scaled column by column stays finite
        ("1e-180", 0.0, "B", [["0", "1e200"], ["0", "0"]], (1e290, 0.0, 0.0)),
        ("1e-180", 0.0, "W", [["0", "1e10"], ["0", "0"]], (0.0, 0.0, 1e250))],
        ids=["far-apart", "underflow", "overflow-B", "overflow-W"])
    def test_extreme_scales_keep_their_digits(self, v1, R, name, block, want):
        # V_S = diag(1e-300, v1), Q = 1, gamma = 1
        block = expr_matrix(block)
        system = CoefficientSystem(
            d=1, m=2, Q=expr_matrix([["1"]]),
            V=expr_matrix([["1e-300", "0"], ["0", v1]]),
            **{name: (block,) if name == "B" else block})
        fields = sample(system, GRID)
        mode = fixed_gamma(1.0, R)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = estimate_gamma_constants(fields, mode)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
        with np.errstate(over="ignore"):
            np.testing.assert_allclose(got, max_sv_sweep(fields, mode),
                                       rtol=1e-13, atol=0)
            assert got == whole_grid_sweep(fields, mode)

    @pytest.mark.parametrize("mode", SWEEP_MODES[1:], ids=["refined",
                                                          "refined_b",
                                                          "kernel"])
    def test_chunks_move_no_bit(self, mode, monkeypatch):
        # 32 nodes: chunks of one and of three gammas, against one chunk
        fields = sample(random_system(1, 2, seed=1), GRID)
        whole = estimate_gamma_constants(fields, mode)
        for chunk in (1, 100):
            monkeypatch.setattr(hypotheses, "SWEEP_CHUNK", chunk)
            assert estimate_gamma_constants(fields, mode) == whole

    def test_first_failing_gamma_is_reported(self, monkeypatch):
        # V = -1 + x1/10: gamma v + 1/(4 gamma) turns negative from some
        # gamma on, at the node where v is smallest; the message names the
        # first such gamma in grid order, in whichever chunk it falls
        fields = sample(scalar_system(v="-1 + 0.1 * x1", b="1"), GRID)
        mode = refined(a=0.25)
        with pytest.raises(HypothesisViolation) as want:
            max_sv_sweep(fields, mode)
        for chunk in (hypotheses.SWEEP_CHUNK, 100):
            monkeypatch.setattr(hypotheses, "SWEEP_CHUNK", chunk)
            with pytest.raises(HypothesisViolation) as got:
                estimate_gamma_constants(fields, mode)
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("key", ["g3", "g6-quadratic", "g5"])
def test_no_eigvalsh_for_two_columns(key, monkeypatch):
    # every block is at most 2 x 2, g5's kappa_A block (d = 1, m = 2)
    # included: the spectra and every constant of check_all are in closed
    # form, with no LAPACK decomposition at all
    scn = gallery_scenario(key)
    fields = sample(scn.system, scn.grid)
    for name in ("eigh", "eigvalsh"):
        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called")
        monkeypatch.setattr(np.linalg, name, refuse)
    assert check_all(fields, mode=scn.mode).all_pass


def matrix_products(tree: ast.AST) -> list:
    """Lines of ``tree`` that use the @ operator or call einsum or matmul."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            hit = isinstance(node.op, ast.MatMult)
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
            hit = name in ("einsum", "matmul")
        else:
            continue
        if hit:
            found.append(node.lineno)
    return sorted(found)


def test_constants_use_no_matrix_products():
    # every per-node product is a broadcast sum over entries-first arrays,
    # which fuses no multiply and add and stays on the node axis
    with open(hypotheses.__file__) as fh:
        assert matrix_products(ast.parse(fh.read())) == []


def test_detector_sees_matrix_products():
    src = ("a @ b\na @= b\nnp.einsum('ij->i', a)\neinsum('i', a)\n"
           "np.matmul(a, b)\na * b\nnp.sum(a)\n")
    assert matrix_products(ast.parse(src)) == [1, 2, 3, 4, 5]


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

    def test_drift_beyond_root_of_float_range(self):
        # kappa_B = 1e100 / (2e-120)^{1/2} = 7.07e159 is finite, its Gram
        # entry and its square are not: kappa_B stays exact and K is -inf
        system = scalar_system(v="1e-120", b="1e100")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check_all(sample(system, GRID), mode=fixed_gamma(1.0, 1e-120))
        assert rep.kappaB == pytest.approx(1e100 / np.sqrt(2e-120), rel=1e-14)
        assert rep.K == -np.inf
        assert rep.passes["drift_bounds_finite"]
        assert not rep.passes["K_positive"]

    def test_overflowed_drift_is_infinite(self):
        # the whitened drift 1e200 * (1e-300 + 1e-300)^{-1/2} overflows: its
        # top singular value is inf, so the drift bounds and K are undefined
        system = scalar_system(v="1e-300", b="1e200")
        grid = BoxDomain((0.0,), (1.0,), (16,))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = check_all(sample(system, grid), mode=fixed_gamma(1.0, 1e-300))
        assert rep.kappaB == np.inf
        assert not rep.passes["drift_bounds_finite"]
        assert np.isnan(rep.K)
        assert not rep.passes["K_positive"]

    def test_nu0_is_min_diffusion_eigenvalue(self):
        system = scalar_system(q="2 + x1")
        rep = check_all(sample(system, GRID), mode=fixed_gamma(1.0, 1.0))
        assert rep.nu0 == pytest.approx(
            2 + GRID.axis_nodes(0)[0], rel=1e-14)


@pytest.mark.parametrize("make", [lambda: fixed_gamma(0.0, 1.0),
                                  lambda: refined(a=0.7),
                                  lambda: refined(a=0.25, b=1.0),
                                  lambda: kernel_mode(beta=-1.0, c=1.0)],
                         ids=["gamma_zero", "a_too_large", "b_too_large",
                              "beta_negative"])
def test_invalid_mode_rejected_at_construction(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("kind, key", [
    (kind, key) for kind, keys in MODE_PARAMS.items() for key in keys])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_mode_parameter_rejected(kind, key, value):
    with pytest.raises(ValueError, match=f"requires a finite {key}"):
        EstimateMode(kind, **{key: value})


def test_top_singular_value_of_nonfinite_matrix_is_inf():
    mats = np.array([[[3.0, 0.0], [0.0, 4.0]], [[1.0, np.inf], [0.0, 1.0]],
                     [[np.nan, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        top = _max_sv(np.moveaxis(mats, 0, -1))
    assert top.tolist() == [4.0, np.inf, np.inf, 0.0]


def top_sv_blocks(cols):
    """(kind, blocks) cases of 3 x cols matrices for the closed form."""
    rng = np.random.default_rng(cols)
    rand = rng.standard_normal((50, 3, cols))
    rank_one = rng.standard_normal((50, 3, 1)) * rng.standard_normal((50, 1, cols))
    return [("random", rand), ("rank-one", rank_one), ("huge", rand * 1e200),
            ("tiny", rand * 1e-200), ("zero", np.zeros((4, 3, cols)))]


@pytest.mark.parametrize("cols", [1, 2, 3, 4])
def test_top_singular_value_matches_svd(cols):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kind, mats in top_sv_blocks(cols):
            np.testing.assert_allclose(
                _max_sv(np.moveaxis(mats, 0, -1)),
                np.linalg.svd(mats, compute_uv=False)[..., 0],
                rtol=1e-13, atol=0, err_msg=kind)


@pytest.mark.parametrize("cols", [1, 2, 3, 4])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_top_singular_value_of_nonfinite_row_is_inf(cols, bad):
    mats = np.random.default_rng(cols).standard_normal((3, 3, cols))
    mats[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        top = _max_sv(np.moveaxis(mats, 0, -1))
    assert np.isfinite(top[[0, 2]]).all() and top[1] == np.inf


@pytest.mark.parametrize("key,n,expected", [
    ("g5", (1023,), {"kappaB": 0.1999999998973962, "kappaC": 0.1999999998973962,
                     "kappaW": 0.29999999969218855}),
    ("g6-quadratic", (2047,), {"kappaB": 0.09999999982281645}),
    ("g3", (128, 128), {"kappaB": 0.3794733192202055}),
    ("g4", (96, 96), {"kappaA": 0.7999999999999999})])
def test_constants_on_fine_grids_are_pinned(key, n, expected):
    # exact floats: the layout of the node matrices moves no bit
    scn = gallery_scenario(key)
    grid = dataclasses.replace(scn.grid, n=n)
    rep = check_all(sample(scn.system, grid), mode=scn.mode)
    assert {name: getattr(rep, name) for name in expected} == expected


@pytest.mark.parametrize("key,n", [("g5", (1023,)), ("g6-quadratic", (2047,)),
                                   ("g3", (128, 128)), ("g4", (96, 96))])
def test_pruned_sweep_on_fine_grids_equals_whole_grid(key, n):
    scn = gallery_scenario(key)
    fields = sample(scn.system, dataclasses.replace(scn.grid, n=n))
    assert estimate_gamma_constants(fields, scn.mode) == whole_grid_sweep(
        fields, scn.mode)


def evaluated_sizes(monkeypatch):
    """The node-gamma counts that ``_top_eig`` is called on, as a list the
    calls append to."""
    sizes = []

    def recording(grams, u, u2, _orig=hypotheses._top_eig):
        sizes.append(grams.shape[-1])
        return _orig(grams, u, u2)
    monkeypatch.setattr(hypotheses, "_top_eig", recording)
    return sizes


def test_pruned_sweep_evaluates_few_node_gammas(monkeypatch):
    # g5 at 1023 nodes: the exact values at each node's largest scale, and
    # the bounds, take a few times N node-gammas of the 200 N on the grid
    scn = gallery_scenario("g5")
    fields = sample(scn.system, dataclasses.replace(scn.grid, n=(1023,)))
    N = fields["V"].domain.node_count
    sizes = evaluated_sizes(monkeypatch)
    got = estimate_gamma_constants(fields, scn.mode)
    assert len(GAMMA_GRID) == 200
    assert 0 < sum(sizes) <= 8 * N
    assert got == whole_grid_sweep(fields, scn.mode)


def test_pruned_sweep_with_loose_bounds_stays_chunked(monkeypatch):
    # V_S = diag(1, 1e4) and B only in its second column: the bound sigma
    # s[0] is loose by up to a factor 100 at every node alike, so most
    # node-gammas are evaluated, in batches of at most SWEEP_CHUNK
    system = CoefficientSystem(
        d=1, m=2, Q=expr_matrix([["1"]]),
        V=expr_matrix([["1", "0"], ["0", "1e4"]]),
        B=(expr_matrix([["0", "1"], ["0", "0"]]),))
    fields = sample(system, GRID)
    mode = kernel_mode(beta=0.5, c=1.0)
    monkeypatch.setattr(hypotheses, "SWEEP_CHUNK", 64)
    want = whole_grid_sweep(fields, mode)
    sizes = evaluated_sizes(monkeypatch)
    assert estimate_gamma_constants(fields, mode) == want
    assert sum(sizes) > 100 * GRID.node_count
    assert max(sizes) <= 64


def test_gamma_sweep_decomposes_no_node_block(monkeypatch):
    # g5's drift and W blocks have m = 2 columns: the sweep takes their top
    # singular values in closed form, so the eigvalsh calls do not grow with
    # the gamma grid
    scn = gallery_scenario("g5")
    fields = sample(scn.system, scn.grid)
    calls = []

    def counting(a, _orig=np.linalg.eigvalsh):
        calls.append(a)
        return _orig(a)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    counts = []
    for grid in (GAMMA_GRID[::10], GAMMA_GRID):
        monkeypatch.setattr(hypotheses, "GAMMA_GRID", grid)
        calls.clear()
        check_all(fields, mode=scn.mode)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_gamma_sweep_weighs_the_whole_grid_once(monkeypatch):
    # R(gamma) is one array expression over the grid, taken before the sweep
    # goes through its chunks of gammas
    scn = gallery_scenario("g5")
    fields = sample(scn.system, scn.grid)
    calls = []

    def recording(mode, gamma, _orig=EstimateMode.weight):
        calls.append(np.array(gamma))
        return _orig(mode, gamma)
    monkeypatch.setattr(EstimateMode, "weight", recording)
    check_all(fields, mode=scn.mode)
    assert len(calls) == 1 and np.array_equal(calls[0], GAMMA_GRID)


def per_gamma_weight(mode, gamma: float) -> float:
    """R(gamma) at one float gamma, by float powers."""
    if mode.kind == "fixed_gamma":
        return mode.Cgamma
    if mode.kind == "kernel":
        return mode.c * gamma ** -mode.beta
    a, b = mode.a, 2 * mode.a if mode.b is None else mode.b
    return max((1 - 2 * a) * (2 * a) ** (2 * a / (1 - 2 * a))
               * gamma ** (2 * a / (2 * a - 1)),
               (1 - b) * b ** (b / (1 - b)) * gamma ** (b / (b - 1)))


@pytest.mark.parametrize("key", gallery_names())
def test_gallery_weights_equal_per_gamma_values(key):
    # an array power may differ from a float power in the last bit, but not
    # at the gallery's exponents, so its constants keep every bit
    mode = gallery_scenario(key).mode
    expected = [per_gamma_weight(mode, g) for g in GAMMA_GRID.tolist()]
    assert mode.weight(GAMMA_GRID).tolist() == expected
    assert [mode.weight(g) for g in GAMMA_GRID.tolist()] == expected
    assert type(mode.weight(1.0)) is float


@pytest.mark.parametrize("mode", [refined(a=0.25, b=0.988),
                                  kernel_mode(beta=100.0, c=1.0)])
def test_weight_beyond_float_range_is_inf(mode):
    # (1e-4)^(-82.3) and (1e-4)^(-100) lie beyond the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mode.weight(1e-4) == np.inf
        assert mode.weight(np.array([1e-4, 1.0])).tolist() == [
            np.inf, mode.weight(1.0)]


def test_one_decomposition_per_field(monkeypatch):
    # the hypotheses and the metric share each field's cached spectrum: one
    # symmetric_eigh per field (a 1 x 1 or 2 x 2 block in closed form), and
    # no np.linalg decomposition of V_S or Q besides
    scn = gallery_scenario("g5")
    fields = sample(scn.system, scn.grid)
    V = fields["V"].values
    VS = 0.5 * (V + np.swapaxes(V, -1, -2))
    Q = fields["Q"].values
    decomposed = []

    def counting(orig):
        def wrapper(a, *args, **kwargs):
            decomposed.append(np.array(a))
            return orig(a, *args, **kwargs)
        return wrapper
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(getattr(np.linalg, name)))
    for module in (coefficients, hypotheses):
        monkeypatch.setattr(module, "symmetric_eigh",
                            counting(coefficients.symmetric_eigh))

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
