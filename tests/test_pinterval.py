"""Closed-form interval algebra against the independent PSD oracles."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from semilab.cli import _growth_bound
from semilab.hypotheses import fixed_gamma, refined
from semilab.pinterval import (
    IntervalSpec,
    admissible_p_range_thm35,
    closed_form_exponent_b2a,
    gamma_p,
    gaussian_bound_rhs,
    hhat_constant,
    interval_thm33,
    k_combination,
    kernel_constants,
    moser_sums,
    phi_power,
    psd_check_Egamma,
    psd_sweep_Mgamma,
    tau_constants,
)


def random_tuples(n, seed=0, with_kA=True):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        kA = rng.uniform(0.0, 0.5) if with_kA else 0.0
        kB, kC = rng.uniform(0.0, 1.0, 2)
        kW = rng.uniform(0.0, 0.5)
        gamma = rng.uniform(0.1, 2.0)
        if gamma * kW >= 1:
            continue
        K = 4 * (1 / gamma - kW) - (kB + kC) ** 2
        if K <= 1e-3:
            continue
        out.append((kA, kB, kC, kW, gamma))
    return out


class TestIntervalCases:
    def test_all_constants_zero(self):
        iv = interval_thm33(0, 0, 0, 0, 1.0)
        assert str(iv) == "]1, inf["

    def test_symmetric_unit_drift(self):
        # kappa_B = kappa_C = 1, gamma = 1/2: K = 4, interval [1.2, 6.0]
        iv = interval_thm33(0, 1, 1, 0, 0.5)
        assert iv.lo == 1.2 and iv.hi == 6.0
        assert iv.lo_closed and iv.hi_closed

    def test_b_only_case(self):
        iv = interval_thm33(0, 1, 0, 0, 1.0)
        assert str(iv) == "[1.25, inf["
        assert iv.lo == 1.25 and math.isinf(iv.hi) and iv.lo_closed

    def test_c_only_case(self):
        iv = interval_thm33(0, 0, 1, 0, 1.0)
        assert iv.lo == 1.0 and iv.hi == 5.0
        assert not iv.lo_closed and iv.hi_closed

    @staticmethod
    def kappa_a_zero_reference(kB, kC, kW, gamma):
        """The kappa_A = 0 cases, each in its own closed form:
        (lo, hi, lo_closed, hi_closed)."""
        if kB == 0 and kC == 0:
            return 1.0, math.inf, False, False
        if kC == 0:
            return 1 + gamma * kB**2 / (4 * (1 - gamma * kW)), math.inf, True, False
        return 1.0, 1 + 4 * (1 - gamma * kW) / (gamma * kC**2), False, True

    @pytest.mark.parametrize("zero", ["B_and_C", "C", "B"])
    def test_kappa_a_zero_cases_are_limits_of_the_formula(self, zero):
        for _, kB, kC, kW, gamma in random_tuples(2000, seed=11, with_kA=False):
            kB = 0.0 if "B" in zero else kB
            kC = 0.0 if "C" in zero else kC
            iv = interval_thm33(0.0, kB, kC, kW, gamma)
            lo, hi, lo_closed, hi_closed = self.kappa_a_zero_reference(kB, kC, kW, gamma)
            assert iv.lo == pytest.approx(lo, rel=1e-15, abs=0)
            assert iv.hi == pytest.approx(hi, rel=1e-15, abs=0)
            assert (iv.lo_closed, iv.hi_closed) == (lo_closed, hi_closed)

    @pytest.mark.parametrize("kC,gamma", [(1e-200, 1e-300), (1e-160, 1.0)],
                             ids=["tail_underflows", "quotient_overflows"])
    def test_c_only_end_beyond_float_range_is_no_end(self, kC, gamma):
        # the right end 1 + 4 / (gamma kC^2) lies beyond the float range
        iv = interval_thm33(0, 0, kC, 0, gamma)
        assert str(iv) == "]1, inf["
        assert iv.contains(1e308) and not iv.contains(1.0)

    @pytest.mark.parametrize("kA", [1e9, 1e200], ids=["1e9", "1e200"])
    def test_huge_kappa_a_leaves_point_interval(self, kA):
        # both deltas vanish against 2 (at 1e200 kappa_A^2 overflows): the
        # point interval [2, 2] remains, as p = 2 is admissible for any kappa_A
        iv = interval_thm33(kA, 0.1, 0.1, 0, 1.0)
        assert str(iv) == "[2.0, 2.0]"
        assert iv.contains(2.0) and not iv.contains(np.nextafter(2.0, 3.0))

    def test_two_always_inside(self):
        for consts in random_tuples(50, seed=3):
            assert interval_thm33(*consts).contains(2.0)

    def test_k_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            interval_thm33(0, 2, 2, 0, 1.0)

    def test_gamma_kappa_w_saturation_rejected(self):
        with pytest.raises(ValueError):
            interval_thm33(0, 0, 0, 1.0, 1.0)

    def test_k_combination(self):
        # K = 4(1/gamma - kappa_W) - (kappa_B + kappa_C)^2, and its sign is
        # what interval_thm33 rejects on
        assert k_combination(0.5, 0.4, 0.1, 1.0) == pytest.approx(
            4 * 0.9 - 0.81, rel=1e-15)
        assert k_combination(1.0, 1.0, 0.0, 0.5) == 4.0
        assert k_combination(2.0, 2.0, 0.0, 1.0) == -12.0
        with pytest.raises(ValueError, match=r"K = -12\.0"):
            interval_thm33(0, 2, 2, 0, 1.0)


class TestDualitySymmetry:
    def test_lower_endpoint_is_conjugate_of_swapped_upper(self):
        # p < 2 admissibility is duality with (kappa_B, kappa_C) swapped, so
        # the general-case endpoints satisfy lo(B,C) = conj(hi(C,B)) exactly
        for kA, kB, kC, kW, gamma in random_tuples(100, seed=7):
            if kA == 0:
                continue
            iv = interval_thm33(kA, kB, kC, kW, gamma)
            swapped = interval_thm33(kA, kC, kB, kW, gamma)
            assert iv.lo == pytest.approx(swapped.hi / (swapped.hi - 1), rel=1e-13)
            assert iv.hi == pytest.approx(swapped.lo / (swapped.lo - 1), rel=1e-13)

    def test_symmetric_drift_symmetric_interval_membership(self):
        iv = interval_thm33(0.2, 0.6, 0.6, 0.1, 0.8)
        # strictly interior points: the endpoints only map onto each other up
        # to floating-point roundoff in the conjugation
        for p in np.linspace(iv.lo + 1e-6, iv.hi - 1e-6, 17):
            assert iv.contains(p) == iv.contains(p / (p - 1))
        assert iv.hi / (iv.hi - 1) == pytest.approx(iv.lo, rel=1e-13)


class TestPsdSweep:
    def test_p_equal_two_always_admissible(self):
        for consts in random_tuples(30, seed=9):
            assert psd_sweep_Mgamma(*consts, np.array([2.0]))[0]

    def test_endpoint_agreement_windowed(self):
        # fine windows around both endpoints of the general case
        for consts in random_tuples(25, seed=13):
            kA = consts[0]
            if kA == 0:
                continue
            iv = interval_thm33(*consts)
            for end in (iv.lo, iv.hi):
                grid = np.arange(end - 0.05, end + 0.05, 1e-3)
                grid = grid[grid > 1.0]
                inside = psd_sweep_Mgamma(*consts, grid)
                claim = np.array([iv.contains(p) for p in grid])
                # at most one grid step of disagreement at the endpoint
                assert np.sum(inside != claim) <= 1

    def test_interval_interior_admissible(self):
        iv = interval_thm33(0.3, 0.5, 0.4, 0.1, 1.0)
        interior = np.linspace(iv.lo + 1e-6, iv.hi - 1e-6, 50)
        assert psd_sweep_Mgamma(0.3, 0.5, 0.4, 0.1, 1.0, interior).sum() == 50


def m_gamma(kappaA, kappaB, kappaC, kappaW, gamma, p):
    """The 3x3 feasibility matrix of Theorem 3.3 at each p >= 2."""
    t = np.asarray(p, dtype=float) - 2
    M = np.empty(t.shape + (3, 3))
    M[:, 0, 0] = 1.0
    M[:, 0, 1] = M[:, 1, 0] = -t * kappaA
    M[:, 0, 2] = M[:, 2, 0] = -(kappaB + kappaC) / 2
    M[:, 1, 1] = t
    M[:, 1, 2] = M[:, 2, 1] = -t * kappaC / 2
    M[:, 2, 2] = 1 / gamma - kappaW
    return M


def eigvalsh_verdicts(kappaA, kappaB, kappaC, kappaW, gamma, p):
    """Whether M_gamma(p) (with the duality swap below 2) has no eigenvalue
    below -1e-12, by dense eigenvalues."""
    ok = np.zeros(p.shape, dtype=bool)
    hi, lo = p >= 2, (p > 1) & (p < 2)
    ok[hi] = np.linalg.eigvalsh(m_gamma(kappaA, kappaB, kappaC, kappaW, gamma,
                                        p[hi]))[:, 0] >= -1e-12
    ok[lo] = np.linalg.eigvalsh(m_gamma(kappaA, kappaC, kappaB, kappaW, gamma,
                                        p[lo] / (p[lo] - 1)))[:, 0] >= -1e-12
    return ok


class TestSchurOracle:
    def test_verdicts_equal_eigvalsh(self):
        # criterion 01's tuples on p in [1.001, 30], plus fine windows
        # where the verdict turns, at each end of the interval
        coarse = np.arange(1.001, 30, 1e-2)
        for consts in random_tuples(200, seed=1):
            iv = interval_thm33(*consts)
            ends = [e for e in (iv.lo, iv.hi) if 1 < e < 30]
            grid = np.concatenate([coarse] + [
                e + 1e-7 * np.arange(-200, 201) for e in ends])
            got = psd_sweep_Mgamma(*consts, grid)
            assert np.array_equal(got, eigvalsh_verdicts(*consts, grid))

    def test_no_eigenvalue_decomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        iv = interval_thm33(0.3, 0.5, 0.4, 0.1, 1.0)
        grid = np.arange(1.001, 10, 1e-3)
        assert np.array_equal(
            psd_sweep_Mgamma(0.3, 0.5, 0.4, 0.1, 1.0, grid), iv.contains(grid))

    def test_no_exponent_at_or_below_one(self):
        grid = np.array([-1.0, 0.0, 0.5, 1.0, np.nan, 1.5, 2.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            adm = psd_sweep_Mgamma(0.0, 0.0, 0.0, 0.0, 1.0, grid)
        assert grid[adm].tolist() == [1.5, 2.0]


class TestExtremeConstants:
    def test_underflowing_right_denominator_leaves_no_right_end(self):
        # kappa_A^2 K + (kappa_A kappa_B)^2 underflows to 0: the limit is the
        # kappa_A = 0 case, closed at 1 + gamma kappa_B^2 / 4 and unbounded
        iv = interval_thm33(1e-300, 0.1, 0, 0, 1.0)
        assert str(iv) == str(interval_thm33(0, 0.1, 0, 0, 1.0)) == "[1.0025, inf["

    def test_tiny_b_only_drift_leaves_open_left_end(self):
        # 1 + gamma kappa_B^2 / 4 rounds to 1, which is never admissible
        iv = interval_thm33(0, 1e-200, 0, 0, 1.0)
        assert str(iv) == "]1, inf[" and not iv.contains(1.0)

    def test_left_end_rounding_to_one_is_open(self):
        iv = interval_thm33(1e-300, 0, 0.1, 0, 1.0)
        assert iv.lo == 1.0 and not iv.lo_closed
        assert str(iv).startswith("]1, ")
        assert not iv.contains(1.0)

    @pytest.mark.parametrize("consts", [(0, 0, 0, 0, 1e-320),
                                        (0.1, 0.1, 0.1, 0, 1e-320),
                                        (0.1, 0.1, 0.1, 0, 1e-308)],
                             ids=["all_zero", "general", "four_over_gamma"])
    def test_gamma_beyond_float_range_rejected(self, consts):
        with pytest.raises(ValueError, match="too small: K overflows to inf"):
            interval_thm33(*consts)


class TestGammaP:
    def test_p2_closed_form(self):
        assert gamma_p(0, 0.5, 0.7, 0.2, 2.0) == pytest.approx(
            1 / (0.2 + 1.2**2 / 4), rel=1e-14)

    def test_example_four_ninths(self):
        assert gamma_p(0, 1, 1, 0, 3.0) == pytest.approx(4 / 9, rel=1e-14)

    def test_infinite_when_everything_vanishes(self):
        assert math.isinf(gamma_p(0, 0, 0, 0, 2.0))

    def test_admissible_range(self):
        assert admissible_p_range_thm35(0.0) == (1.0, math.inf)
        lo, hi = admissible_p_range_thm35(0.5)
        assert lo == pytest.approx(1.5) and hi == pytest.approx(3.0)

    def test_vanishing_near_range_boundary(self):
        # kappa_A = 1/2: the denominator closes as p -> 3^-
        vals = [gamma_p(0.5, 1, 1, 0, p) for p in (2.9, 2.99, 2.999)]
        assert vals[0] > vals[1] > vals[2] > 0
        assert vals[2] < 1e-2

    def test_huge_p_without_kappa_c(self):
        # min(p - 1, 1) = 1 at p = 1e300: gamma_p = 1 / (kappa_B^2 / 4)
        assert gamma_p(0, 1, 0, 0, 1e300) == 4.0

    @pytest.mark.parametrize("kC,p", [(1.0, 1e300), (1e200, 1e10)])
    def test_gamma_p_below_float_range_rejected(self, kC, p):
        # (kappa_B + (p - 1) kappa_C)^2 is beyond the float range
        with pytest.raises(ValueError, match="below the float range"):
            gamma_p(0, 1, kC, 0, p)

    def test_outside_range_rejected(self):
        with pytest.raises(ValueError):
            gamma_p(0.5, 1, 1, 0, 3.5)

    @pytest.mark.parametrize("pos", range(4))
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.1])
    def test_rejects_nonfinite_or_negative_constants(self, pos, value):
        constants = [0.0, 0.5, 0.5, 0.1]
        constants[pos] = value
        with pytest.raises(ValueError, match="finite and nonnegative"):
            gamma_p(*constants, 2.0)

    def test_duality_consistency_below_two(self):
        # the direct formula at p < 2 agrees with the swapped dual exponent
        for kB, kC, kW in [(0.5, 0.7, 0.1), (1.0, 0.0, 0.0), (0.2, 0.9, 0.3)]:
            direct = gamma_p(0, kB, kC, kW, 1.5)
            dual = gamma_p(0, kC, kB, kW, 3.0)
            assert direct == pytest.approx(dual, rel=1e-13)

    def test_oracle_boundary(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            kB, kC = rng.uniform(0.05, 1.0, 2)
            kW = rng.uniform(0.0, 0.5)
            p = rng.choice([1.5, 2.0, 3.0, 6.0])
            g = gamma_p(0, kB, kC, kW, p)
            assert psd_check_Egamma(0, kB, kC, kW, g, p)
            assert not psd_check_Egamma(0, kB, kC, kW, g * (1 + 1e-6), p)

    def test_argmax_against_dense_scan(self):
        # symmetric drift, kappa_A = 0: gamma_p is maximized where the ratio
        # (kB + (p-1) kC)^2 / ((p-1)^2 /\ 1) is smallest
        kB = kC = 0.4
        kW = 0.1
        ps = np.linspace(1.05, 8.0, 2000)
        vals = np.array([gamma_p(0, kB, kC, kW, p) for p in ps])
        p_star = ps[np.argmax(vals)]
        ratio = (kB + (ps - 1) * kC) ** 2 / np.minimum((ps - 1) ** 2, 1.0)
        assert p_star == pytest.approx(ps[np.argmin(ratio)], abs=1e-9)


def growth_bound(mode, p, kappaA=0.0, kappaB=0.0, kappaC=0.0, kappaW=0.0):
    """cli._growth_bound at p, for a run in ``mode`` at these constants."""
    h = SimpleNamespace(kappaA=kappaA, kappaB=kappaB, kappaC=kappaC,
                        kappaW=kappaW, gamma=1.0)
    run = SimpleNamespace(scn=SimpleNamespace(mode=mode), hypotheses=h,
                          interval=IntervalSpec(1.0, math.inf))
    return _growth_bound(run, p)


class TestGrowthExponent:
    def test_constant_phi_recovers_fixed_gamma_rate(self):
        assert growth_bound(fixed_gamma(0.5, 2.0), 2.0) == 4.0

    def test_power_family_b2a_closed_form(self):
        a, kappa, kW, d, p = 0.25, 0.3, 0.1, 2, 3.0
        direct = growth_bound(refined(a), p, kappaB=kappa * math.sqrt(d),
                              kappaC=kappa * math.sqrt(d), kappaW=kW)
        assert direct == pytest.approx(
            closed_form_exponent_b2a(a, kappa, kW, d, p), rel=1e-12)

    def test_b2a_closed_form_at_huge_p_is_inf(self):
        # p^2 and (p - 1)^2 are beyond the float range at p = 1e300
        assert closed_form_exponent_b2a(0.25, 1.0, 0.0, 1, 1e300) == math.inf

    def test_quarter_exponent_phi_is_quarter_over_gamma(self):
        g = np.array([0.1, 1.0, 7.0])
        assert phi_power(g, 0.25, 0.5) == pytest.approx(0.25 / g, rel=1e-14)

    def test_phi_hat_b_zero_is_one(self):
        # the b term at b = 0 is exactly 1, above the a term 0.25 / gamma
        assert phi_power(np.array([0.3, 10.0]), 0.25, 0.0).tolist() == [1.0, 1.0]

    def test_prefactor_limit_near_half(self):
        # the prefactor behaves like (1-2a) e as a -> 1/2^-; the normalized
        # ratio tends to 1 along a = 0.49, 0.499, 0.4999
        gaps = []
        for a in (0.49, 0.499, 0.4999):
            pref = (1 - 2 * a) * (2 * a) ** (2 * a / (1 - 2 * a))
            gaps.append(abs(pref / ((1 - 2 * a) / math.e) - 1))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-4

    def test_amgm_support_inequality(self):
        # x^{1/2} <= gamma x + phi(gamma) with phi(gamma) = 1/(4 gamma)
        x = np.linspace(0.0, 50.0, 500)
        for g in (0.05, 0.2, 1.0, 3.0):
            assert np.all(np.sqrt(x) <= g * x + phi_power(g, 0.25, 0.5) + 1e-12)


class TestTauChain:
    def test_sigma_zero(self):
        tau, hat = tau_constants(0.5, 1.0, 0.0, 2.0, 0.0)
        assert tau == pytest.approx(0.25, rel=1e-14)
        assert hat == pytest.approx(0.5, rel=1e-14)

    def test_sigma_zero_general_beta(self):
        kappa, c, beta, p = 0.3, 2.0, 1.5, 4.0
        tau, hat = tau_constants(kappa, c, beta, p, 0.0)
        assert tau == pytest.approx(c * (p**2 * kappa**2 / 4) ** (beta + 1), rel=1e-13)
        assert hat == pytest.approx(c * (p**2 * kappa**2 / 2) ** (beta + 1), rel=1e-13)

    def test_chain_of_bounds(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            kappa = rng.uniform(0.01, 3.0)
            c = rng.uniform(1.0, 5.0)
            beta = rng.uniform(0.0, 2.0)
            p = rng.uniform(2.0, 10.0)
            sigma = rng.uniform(-3.0, 3.0)
            tau, hat = tau_constants(kappa, c, beta, p, sigma)
            cap = (hhat_constant(kappa, c, beta) * p ** (2 * beta + 2)
                   * (abs(sigma) ** (2 * beta + 2) + 1))
            assert tau <= hat * (1 + 1e-12)
            assert hat <= cap * (1 + 1e-12)


class TestMoserSums:
    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    def test_direct_summation(self, r, beta):
        R, A, B, L = moser_sums(r, beta)
        S = (R ** (2 * beta + 1) + 1) * R
        j = np.arange(0, 201)
        t = (S - 1) / S * S ** (-j.astype(float))
        p = 2.0 * R**j
        assert abs(t.sum() - 1.0) < 1e-12
        assert abs((1 / p).sum() - r / 2) < 1e-12
        assert abs((t / p).sum() - A) < 1e-12
        assert A < 1
        # relative tolerance: the truncation remainder at j = 200 is itself
        # around 1e-8 absolute for (r, beta) = (3, 2) where L ~ 5e2
        assert abs((p ** (2 * beta + 2) * t).sum() - L) < 1e-10 * max(1.0, L)
        assert abs(np.exp(-(np.log(t) / (2 * p)).sum()) - B) < 1e-10 * B

    def test_b_matches_term_by_term_sum(self):
        # B of 95 terms of the product, summed until the tail fell below 1e-14
        assert moser_sums(3, 1.0)[2] == pytest.approx(19.030642195076492, rel=1e-14)

    def test_dominated_series_below_l(self):
        # the series actually summed in the iteration is dominated by L
        R, A, B, L = moser_sums(3, 1.0)
        S = (R**3 + 1) * R
        j = np.arange(0, 300)
        t = (S - 1) / S * S ** (-j.astype(float))
        p = 2.0 * R**j
        assert ((p - 1) ** 5 / p * t).sum() <= L + 1e-12


class TestKernelConstants:
    def test_bundle_positive_and_recorded(self):
        b = kernel_constants(d=1, beta=1.0, kappa=0.1, c=1.0, nu0=1.0)
        assert b.r == 3 and b.rstar == 6.0
        assert b.A_rb < 1
        assert min(b.C0, b.C1, b.C2, b.H, b.H1, b.Hhat) > 0

    def test_c2_matches_optimal_sigma_algebra(self):
        # C2 is the coefficient from maximizing sigma*D - t*Chat*sigma^{2b+2}
        # at sigma* = (D / (t Chat (2b+2)))^{1/(2b+1)}
        for beta, kappa, c in [(0.0, 0.5, 1.0), (1.0, 0.1, 1.0), (2.0, 1.5, 3.0)]:
            b = kernel_constants(d=2, beta=beta, kappa=kappa, c=c, nu0=0.7)
            Chat = 2 ** (2 * beta + 2) * b.Hhat
            t, D = 0.37, 2.2
            sigma = (D / (t * Chat * (2 * beta + 2))) ** (1 / (2 * beta + 1))
            fmax = sigma * D - t * Chat * sigma ** (2 * beta + 2)
            predicted = (b.C2 * t ** (-1 / (2 * beta + 1))
                         * D ** ((2 * beta + 2) / (2 * beta + 1)))
            assert fmax == pytest.approx(predicted, rel=1e-12)

    def test_kappa_below_one_does_not_change_bundle(self):
        b1 = kernel_constants(d=1, beta=0.5, kappa=1e-6, c=1.0, nu0=1.0)
        b2 = kernel_constants(d=1, beta=0.5, kappa=0.5, c=1.0, nu0=1.0)
        assert b1.Hhat == b2.Hhat
        assert b1.C0 == b2.C0 and b1.C1 == b2.C1 and b1.C2 == b2.C2

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kernel_constants(d=1, beta=0.0, kappa=0.0, c=1.0, nu0=1.0)
        with pytest.raises(ValueError):
            kernel_constants(d=1, beta=0.0, kappa=0.1, c=0.5, nu0=1.0)

    @pytest.mark.parametrize("kappa, nu0", [(math.nan, 1.0), (math.inf, 1.0),
                                            (0.1, math.nan), (0.1, math.inf)])
    def test_rejects_nonfinite_constants(self, kappa, nu0):
        # hhat_constant's max(1.0, nan) would drop a NaN kappa unnoticed
        with pytest.raises(ValueError, match="finite"):
            kernel_constants(d=1, beta=0.0, kappa=kappa, c=1.0, nu0=nu0)


    @pytest.mark.parametrize("beta, message", [
        (100.0, "constant H = inf not positive finite"),
        (300.0, "beyond the float range")])
    def test_constants_beyond_float_range_rejected(self, beta, message):
        # at beta = 100 a product overflows to inf, at 300 a power raises
        with pytest.raises(ValueError, match=message):
            kernel_constants(d=1, beta=beta, kappa=3.0, c=1.0, nu0=1.0)


class TestGaussianRhs:
    def test_zero_distance(self):
        b = kernel_constants(d=1, beta=0.0, kappa=0.1, c=1.0, nu0=1.0)
        t = 0.3
        val = gaussian_bound_rhs(b, t, 0.0)
        assert val == pytest.approx(
            b.C0 * (1 + 1 / t) ** 0.5 * math.exp(b.C1 * t), rel=1e-13)

    def test_beta_zero_square_exponent(self):
        b = kernel_constants(d=1, beta=0.0, kappa=0.1, c=1.0, nu0=1.0)
        t, dist = 0.2, 1.3
        val = gaussian_bound_rhs(b, t, dist)
        expected = (b.C0 * (1 + 1 / t + (dist / t) ** 2) ** 0.5
                    * math.exp(b.C1 * t - b.C2 * dist**2 / t))
        assert val == pytest.approx(expected, rel=1e-13)

    def test_eventually_monotone_and_vanishing_in_distance(self):
        # the polynomial prefactor can grow near zero, but past its peak the
        # bound decreases monotonically and the exponential wins in the tail
        for beta in (0.0, 1.0):
            b = kernel_constants(d=2, beta=beta, kappa=0.2, c=1.0, nu0=1.0)
            dist = np.linspace(0.0, 200.0, 4000)
            vals = gaussian_bound_rhs(b, 0.5, dist)
            peak = int(np.argmax(vals))
            # ignore the underflow tail where roundoff breaks strict ordering
            live = vals[peak:][vals[peak:] > 1e-30 * vals[peak]]
            assert np.all(np.diff(live) <= 0)
            assert vals[-1] < 1e-12 * vals[0]

    def test_exponential_factor_decreasing_in_distance(self):
        b = kernel_constants(d=2, beta=1.0, kappa=0.2, c=1.0, nu0=1.0)
        t = 0.5
        dist = np.linspace(0.0, 20.0, 400)
        q = (2 * b.beta + 2) / (2 * b.beta + 1)
        expo = b.C1 * t - b.C2 * t ** (-1 / (2 * b.beta + 1)) * dist**q
        assert np.all(np.diff(expo) < 0)

    def test_overflowing_bound_is_inf(self):
        # C1 t is far past the exponential's float range: the bound holds
        # vacuously, without a warning
        b = kernel_constants(d=1, beta=50.0, kappa=3.0, c=1.0, nu0=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            vals = gaussian_bound_rhs(b, 0.05, np.array([0.0, 1.0, 8.0]))
        assert np.all(np.isposinf(vals))

    def test_rejects_bad_arguments(self):
        b = kernel_constants(d=1, beta=0.0, kappa=0.1, c=1.0, nu0=1.0)
        with pytest.raises(ValueError):
            gaussian_bound_rhs(b, 0.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_bound_rhs(b, 1.0, -1.0)


class TestIntervalSpec:
    def test_contains_respects_openness(self):
        iv = IntervalSpec(1.0, 5.0)
        assert not iv.contains(1.0)
        assert iv.contains(5.0)
        assert not iv.contains(5.0001)

    @pytest.mark.parametrize("lo, hi", [(1.0, 5.0), (1.5, math.inf),
                                        (1.0, math.inf), (1.5, 5.0)])
    def test_array_form_matches_scalar_form(self, lo, hi):
        # closed at each finite end above 1, open at 1 and at inf
        iv = IntervalSpec(lo, hi)
        assert (iv.lo_closed, iv.hi_closed) == (lo > 1, hi < math.inf)
        ps = np.array([0.5, 1.0, np.nextafter(lo, 0), lo,
                       np.nextafter(lo, 9), 3.0, 5.0, np.nextafter(5.0, 9),
                       hi, math.inf])
        scalar = [iv.contains(float(p)) for p in ps]
        assert all(type(x) is bool for x in scalar)
        np.testing.assert_array_equal(iv.contains(ps), scalar)
        assert (scalar[2], scalar[3], scalar[4]) == (False, iv.lo_closed, True)
        assert scalar[-2] == iv.hi_closed
        assert scalar[-1] is False

    @pytest.mark.parametrize("lo, hi", [(0.5, 2.0), (3.0, 2.0), (1.0, 1.0),
                                        (math.inf, math.inf), (math.nan, 2.0),
                                        (1.5, math.nan)])
    def test_rejects_bad_ends(self, lo, hi):
        with pytest.raises(ValueError, match="bad interval"):
            IntervalSpec(lo, hi)
