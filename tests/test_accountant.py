import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certunlearn import (CapOverflow, INFINITE, NoiseSchedule, ProblemConstants,
                         Regime, RenyiBound, adjacency_bound_unbiased,
                         learn_epsilon0, lsi_cap, lsi_unlearn_trace, rdp_to_dp,
                         retrain_saving_lower_bound, unlearn_epsilon, unlearn_rate,
                         VacuousBound, weak_triangle)


class TestLsiCap:
    def test_m_zero_collapses_reach_to_radius(self):
        # 6*(0.25 + 0.25)*exp(1) = 3e
        assert lsi_cap(0.25, 0.0, 1.0, 0.25) == pytest.approx(3.0 * math.e, rel=1e-12)

    def test_unit_exponent(self):
        # R + eta*M = 2, 4*(2)^2 = 16 = xi -> 6*(16+16)*e
        assert lsi_cap(1.0, 1.0, 1.0, 16.0) == pytest.approx(192.0 * math.e, rel=1e-12)

    def test_overflow_carries_exponent(self):
        # realistic preset scale: exponent ~1.11e5 far above float range
        eta = 1.0 / 0.2619
        xi = 2.0 * eta * 0.03 ** 2
        with pytest.raises(CapOverflow) as err:
            lsi_cap(10.0, 1.0, eta, xi)
        assert err.value.exponent == pytest.approx(1.11129e5, rel=1e-4)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            lsi_cap(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            lsi_cap(1.0, 1.0, 1.0, 0.0)


class TestUnlearnTrace:
    def test_strongly_convex_trace_is_constant(self, sc_setup):
        pc, ns, regime = sc_setup
        c0 = 2.0 * ns.sigma ** 2 / pc.m
        trace = lsi_unlearn_trace(pc, ns, regime, c0, K=7)
        assert trace.values.shape == (8,)
        assert np.all(trace.values == c0)

    def test_convex_trace_is_affine_until_capped(self, small_ball_pc):
        ns = NoiseSchedule(eta=0.1, sigma=1.0, T=INFINITE, K=2)
        trace = lsi_unlearn_trace(small_ball_pc, ns, Regime.CONVEX, 1.0, K=2)
        assert trace.values == pytest.approx([1.0, 1.2, 1.4], rel=1e-12)
        assert np.all(trace.values <= trace.cap)

    def test_nonconvex_growth_factor(self, small_ball_pc):
        ns = NoiseSchedule(eta=0.1, sigma=1.0, T=INFINITE, K=1)
        trace = lsi_unlearn_trace(small_ball_pc, ns, Regime.NONCONVEX, 1.0, K=1)
        assert trace.values[1] == pytest.approx(1.21 + 0.2, rel=1e-12)

    def test_cap_saturation(self, small_ball_pc):
        ns = NoiseSchedule(eta=0.1, sigma=1.0, T=INFINITE, K=0)
        trace = lsi_unlearn_trace(small_ball_pc, ns, Regime.NONCONVEX, 1.0, K=1200)
        assert trace.values[-1] == trace.cap
        assert np.all(trace.values <= trace.cap)

    def test_overflowing_cap_raises_only_when_needed(self):
        pc = ProblemConstants(L=1.0, m=0.0, M=1.0, R=100.0, n=10, d=2)
        ns = NoiseSchedule(eta=0.1, sigma=0.01, T=INFINITE, K=0)
        # K = 0 never consults the cap
        trace = lsi_unlearn_trace(pc, ns, Regime.CONVEX, 1.0, K=0)
        assert trace.values.tolist() == [1.0]
        with pytest.raises(CapOverflow):
            lsi_unlearn_trace(pc, ns, Regime.CONVEX, 1.0, K=1)


class TestUnlearnRate:
    def test_strongly_convex_rate_is_eta_m(self, sc_setup):
        pc, ns, regime = sc_setup
        c = 2.0 * ns.sigma ** 2 / pc.m
        assert unlearn_rate(pc, ns, regime, c) == pytest.approx(ns.eta * pc.m, rel=1e-14)

    def test_convex_rate_log2(self, small_ball_pc):
        ns = NoiseSchedule(eta=0.1, sigma=1.0)
        # 2*eta*sigma^2 == C_k -> ln 2
        assert unlearn_rate(small_ball_pc, ns, Regime.CONVEX, 0.2) == pytest.approx(
            math.log(2.0), rel=1e-14)

    def test_nonconvex_rate(self, small_ball_pc):
        ns = NoiseSchedule(eta=0.1, sigma=1.0)
        expect = math.log(1.0 + 0.2 / 1.21)
        got = unlearn_rate(small_ball_pc, ns, Regime.NONCONVEX, 1.0)
        assert got == pytest.approx(expect, rel=1e-14)


class TestUnlearnEpsilon:
    def test_k0_is_identity(self, small_ball_pc):
        ns = NoiseSchedule(eta=0.1, sigma=1.0)
        eps0 = RenyiBound.linear(0.37)
        for regime in (Regime.CONVEX, Regime.NONCONVEX):
            bound = unlearn_epsilon(eps0, small_ball_pc, ns, regime, C0=1.0, K=0)
            for a in (1.5, 2.0, 50.0):
                assert bound(a) == eps0(a)

    def test_strongly_convex_decay_factor(self, sc_setup):
        pc, ns, regime = sc_setup
        eps0 = learn_epsilon0(pc, ns, regime)
        k = 9
        bound = unlearn_epsilon(eps0, pc, ns, regime, K=k)
        for a in (1.2, 3.0, 77.0):
            expect = math.exp(-ns.eta * pc.m * k / a) * eps0(a)
            assert bound(a) == pytest.approx(expect, rel=1e-13)

    def test_monotone_non_increasing_in_k(self, sc_setup):
        pc, ns, regime = sc_setup
        eps0 = learn_epsilon0(pc, ns, regime)
        alphas = np.array([1.5, 2.0, 10.0, 1e4])
        prev = np.asarray(unlearn_epsilon(eps0, pc, ns, regime, K=0)(alphas))
        for k in range(1, 6):
            cur = np.asarray(unlearn_epsilon(eps0, pc, ns, regime, K=k)(alphas))
            assert np.all(cur < prev)
            prev = cur

    def test_mnist_table_point(self, mnist):
        # the calibrated table column: sigma for target eps=1 at one step
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.0096, T=INFINITE, K=1)
        eps0 = learn_epsilon0(mnist.pc, ns, mnist.regime, S=1)
        bound = unlearn_epsilon(eps0, mnist.pc, ns, mnist.regime, K=1)
        eps, _ = rdp_to_dp(bound, mnist.delta)
        assert eps == pytest.approx(1.0, rel=0.01)


class TestLearnEpsilon0:
    def test_strongly_convex_converged_slope(self, sc_setup):
        pc, ns, regime = sc_setup
        bound = learn_epsilon0(pc, ns, regime, S=1, T=INFINITE)
        slope = 4.0 * pc.M ** 2 / (pc.m * ns.sigma ** 2 * pc.n ** 2)
        assert bound.meta["slope"] == pytest.approx(slope, rel=1e-14)
        assert bound(2.0) == pytest.approx(2.0 * slope, rel=1e-14)

    def test_t_zero_is_zero(self, sc_setup):
        pc, ns, regime = sc_setup
        assert learn_epsilon0(pc, ns, regime, T=0)(5.0) == 0.0
        pc0 = ProblemConstants(L=1.0, m=0.0, M=1.0, R=100.0, n=10, d=2)
        # T = 0 never consults the (overflowing) cap
        assert learn_epsilon0(pc0, NoiseSchedule(eta=0.1, sigma=0.01),
                              Regime.CONVEX, T=0)(5.0) == 0.0

    def test_half_life(self, sc_setup):
        pc, ns, regime = sc_setup
        t_half = math.log(2.0) / (pc.m * ns.eta)
        # non-integer T is accountant-legal through the closed form only if
        # integral; probe with the nearest integer and its exact value
        t = round(t_half)
        full = learn_epsilon0(pc, ns, regime, T=INFINITE).meta["slope"]
        part = learn_epsilon0(pc, ns, regime, T=t).meta["slope"]
        assert part == pytest.approx(full * -math.expm1(-pc.m * ns.eta * t), rel=1e-12)

    def test_group_size_scales_quadratically(self, sc_setup):
        pc, ns, regime = sc_setup
        s1 = learn_epsilon0(pc, ns, regime, S=1).meta["slope"]
        s3 = learn_epsilon0(pc, ns, regime, S=3).meta["slope"]
        assert s3 == pytest.approx(9.0 * s1, rel=1e-14)

    def test_monotone_in_n_sigma_t(self, sc_setup):
        pc, ns, regime = sc_setup
        base = learn_epsilon0(pc, ns, regime).meta["slope"]
        assert learn_epsilon0(pc.with_(n=2 * pc.n), ns, regime).meta["slope"] < base
        assert learn_epsilon0(pc, ns.with_(sigma=2 * ns.sigma), regime,
                              C0=8.0 * ns.sigma ** 2 / pc.m).meta["slope"] < base
        prev = 0.0
        for t in (1, 5, 50, 500):
            cur = learn_epsilon0(pc, ns, regime, T=t).meta["slope"]
            assert cur > prev
            prev = cur
        assert prev < base * (1 + 1e-12)

    def test_sum_product_matches_direct_enumeration(self, small_ball_pc):
        # independent oracle: triple loop straight off the recursion
        ns = NoiseSchedule(eta=0.1, sigma=1.0)
        for regime, growth in ((Regime.CONVEX, 1.0), (Regime.NONCONVEX, 1.21)):
            cap = lsi_cap(small_ball_pc.R, small_ball_pc.M, ns.eta,
                          ns.eta * ns.sigma ** 2)
            half = ns.eta * ns.sigma ** 2
            T = 40
            c, rs = 0.7, []
            for _ in range(T):
                c1 = min(growth * c + half, cap)
                rs.append(1.0 / (1.0 + half / c1))
                c = min(c1 + half, cap)
            q = sum(math.prod(rs[t:]) for t in range(T))
            expect = 2.0 * ns.eta * small_ball_pc.M ** 2 * q / (
                ns.sigma ** 2 * small_ball_pc.n ** 2)
            got = learn_epsilon0(small_ball_pc.with_(m=0.0), ns, regime, T=T,
                                 C0=0.7).meta["slope"]
            assert got == pytest.approx(expect, rel=1e-12)

    def test_infinite_t_is_limit_of_finite(self):
        # tiny ball -> tiny cap -> the recursion saturates immediately and
        # the converged bound is reachable by a finite run
        pc = ProblemConstants(L=1.0, m=0.0, M=0.1, R=0.05, n=100, d=5)
        ns = NoiseSchedule(eta=0.1, sigma=1.0)
        lim = learn_epsilon0(pc, ns, Regime.CONVEX, T=INFINITE, C0=0.7).meta["slope"]
        fin = learn_epsilon0(pc, ns, Regime.CONVEX, T=4000, C0=0.7).meta["slope"]
        assert lim == pytest.approx(fin, rel=1e-9)
        cap = lsi_cap(pc.R, pc.M, ns.eta, ns.eta * ns.sigma ** 2)
        assert lim == pytest.approx(
            2.0 * ns.eta * pc.M ** 2 / (ns.sigma ** 2 * pc.n ** 2) * cap
            / (ns.eta * ns.sigma ** 2), rel=1e-12)

    def test_nonconvex_realistic_radius_overflows(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03)
        with pytest.raises(CapOverflow):
            learn_epsilon0(mnist.pc.with_(m=0.0), ns, Regime.NONCONVEX, T=10)


class TestRdpToDp:
    def test_zero_curve_hits_grid_edge(self):
        eps, alpha = rdp_to_dp(RenyiBound.zero(), delta=1e-5)
        assert alpha > 9e5
        assert eps <= math.log(1e5) / (9e5 - 1.0)

    def test_result_never_exceeds_probed_objective(self, sc_setup):
        pc, ns, regime = sc_setup
        bound = learn_epsilon0(pc, ns, regime)
        eps, _ = rdp_to_dp(bound, 1e-4)
        b = math.log(1e4)
        for a in np.geomspace(1.0 + 1e-5, 1e5, 300):
            assert eps <= bound(a) + b / (a - 1.0) + 1e-12

    def test_mnist_small_target_column(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.1872, T=INFINITE, K=1)
        bound = unlearn_epsilon(learn_epsilon0(mnist.pc, ns, mnist.regime),
                                mnist.pc, ns, mnist.regime, K=1)
        eps, _ = rdp_to_dp(bound, mnist.delta)
        assert eps == pytest.approx(0.05, rel=0.01)

    def test_cifar_binary_unit_target(self, cifar_bin):
        ns = NoiseSchedule(eta=cifar_bin.eta, sigma=0.0125, T=INFINITE, K=1)
        bound = unlearn_epsilon(learn_epsilon0(cifar_bin.pc, ns, cifar_bin.regime),
                                cifar_bin.pc, ns, cifar_bin.regime, K=1)
        eps, _ = rdp_to_dp(bound, cifar_bin.delta)
        assert eps == pytest.approx(1.0, rel=0.01)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            rdp_to_dp(RenyiBound.zero(), 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log10_slope=st.floats(-8.0, 2.0), log10_delta=st.floats(-12.0, -1.0))
    def test_linear_curve_closed_form(self, log10_slope, log10_delta):
        # s*alpha + log(1/delta)/(alpha - 1) is least at alpha* = 1 + sqrt(log(1/delta)/s),
        # where it equals s + 2*sqrt(s*log(1/delta)); alpha* stays inside the grid here
        s, delta = 10.0 ** log10_slope, 10.0 ** log10_delta
        log_inv_delta = math.log(1.0 / delta)
        eps, alpha = rdp_to_dp(RenyiBound.linear(s), delta)
        assert eps == pytest.approx(s + 2.0 * math.sqrt(s * log_inv_delta), rel=1e-9)
        # the objective is flat to rounding within ~sqrt(float64 eps) of alpha*
        assert alpha == pytest.approx(1.0 + math.sqrt(log_inv_delta / s), rel=1e-6)

    def test_curve_infinite_everywhere_is_vacuous(self):
        with pytest.raises(VacuousBound):
            rdp_to_dp(RenyiBound(lambda a: np.full_like(a, np.inf)), 1e-5)

    def test_nan_curve_is_rejected_not_certified(self):
        with pytest.raises(ValueError):
            rdp_to_dp(RenyiBound(lambda a: np.where(a > 1e3, np.nan, 0.01 * a)), 1e-5)


class TestSmallOps:
    @pytest.mark.parametrize("alpha,d1,d2,expect", [
        (1.5, 1.0, 1.0, 4.0),
        (2.0, 0.3, 0.7, 1.5),
        (1e9, 1.0, 1.0, 2.0 + 1e-8),
    ])
    def test_weak_triangle(self, alpha, d1, d2, expect):
        assert weak_triangle(alpha, d1, d2) == pytest.approx(expect, rel=1e-8)

    def test_adjacency_bound(self):
        assert adjacency_bound_unbiased(0.0, 5) == 0.0
        assert adjacency_bound_unbiased(1.0, 2) == 1.0
        assert adjacency_bound_unbiased(0.5, 11982) == pytest.approx(8.3458e-5, rel=1e-4)

    def test_retrain_saving_boundary(self):
        # m*n = 4M with binary-exact floats, so the log argument is exactly 1
        pc = ProblemConstants(L=1.0, m=0.25, M=1.0, R=1.0, n=16, d=2)
        ns = NoiseSchedule(eta=1.0, sigma=1.0)
        value, vacuous = retrain_saving_lower_bound(pc, ns, alpha=2.0)
        assert value == 0.0 and vacuous

    def test_retrain_saving_mnist(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03)
        value, vacuous = retrain_saving_lower_bound(mnist.pc, ns, alpha=20.0)
        assert not vacuous
        assert value == pytest.approx(3146.012841884, rel=1e-9)

    def test_retrain_saving_doubling_n(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03)
        v1, _ = retrain_saving_lower_bound(mnist.pc, ns, alpha=20.0)
        v2, _ = retrain_saving_lower_bound(mnist.pc.with_(n=2 * mnist.pc.n), ns,
                                           alpha=20.0)
        gain = 20.0 / (mnist.pc.m * ns.eta) * math.log(4.0)
        assert v2 - v1 == pytest.approx(gain, rel=1e-10)


class TestRenyiBoundProperties:
    def test_rejects_alpha_at_most_one(self):
        bound = RenyiBound.linear(1.0)
        with pytest.raises(ValueError):
            bound(1.0)
        with pytest.raises(ValueError):
            bound(np.array([2.0, 0.5]))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(m=st.floats(1e-3, 0.9), sigma=st.floats(0.01, 5.0),
           n=st.integers(10, 10 ** 6), k=st.integers(0, 40))
    def test_curves_nonnegative_and_nondecreasing(self, m, sigma, n, k):
        pc = ProblemConstants(L=1.0, m=m, M=1.0, R=10.0, n=n, d=3, lam=m)
        ns = NoiseSchedule(eta=1.0 / pc.L, sigma=sigma, T=INFINITE, K=k)
        bound = unlearn_epsilon(learn_epsilon0(pc, ns, Regime.STRONGLY_CONVEX),
                                pc, ns, Regime.STRONGLY_CONVEX, K=k)
        alphas = np.geomspace(1.0 + 1e-6, 1e6, 200)
        vals = np.asarray(bound(alphas))
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-18)
