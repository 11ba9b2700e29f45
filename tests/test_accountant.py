import math
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from certunlearn import (CapOverflow, CertUnlearnError, INFINITE, NoiseSchedule, ProblemConstants,
                         Regime, RenyiBound, adjacency_bound_unbiased,
                         binary_search_sigma, calibrate, converted_epsilon, default_c0,
                         find_min_k, get_preset, learn_epsilon0, lsi_cap, lsi_unlearn_trace,
                         rdp_to_dp,
                         retrain_saving_lower_bound, unlearn_epsilon, unlearn_rate,
                         VacuousBound)
from certunlearn import accountant
from certunlearn.accountant import ALPHA_GRID, _scalar_curve


def _weak_triangle(alpha, d1_at_2alpha, d2_at_2alpha):
    """Two Renyi differences at order 2*alpha chained into one at alpha: the
    oracle of a stream level (accountant._Stream.curve, _scalar_curve), which
    groups the product differently."""
    return (alpha - 0.5) / (alpha - 1.0) * (d1_at_2alpha + d2_at_2alpha)


class _Closure:
    """A curve as RenyiBound held it before it became two scalars: a function
    of the orders, called behind the order check (a float for a scalar
    order). The reference the value type keeps its bits against."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, alpha):
        arr = np.asarray(alpha, dtype=float)
        if not (arr > 1.0).all():
            raise ValueError("alpha must be > 1")
        out = self.fn(arr)
        return float(out) if np.ndim(alpha) == 0 else out


def _closure_of(bound):
    """The function the closure layer built for a learned or once-unlearned
    curve: RenyiBound.linear's, then unlearn_epsilon's decay factor times it."""
    def linear(a):
        return bound.slope * a
    if bound.decay == 0.0:
        return linear
    return lambda a: np.exp(-bound.decay / a) * linear(a)


def _closure_rdp_to_dp(fn, delta):
    """rdp_to_dp as it ran on a closure's function: the grid, then the probes,
    unchecked."""
    return accountant._optimize_order(fn(ALPHA_GRID), fn, delta)


def _reference_call(fn, alpha):
    """A curve's function at valid orders as the grid evaluates it: on a 1-d
    float array of the orders, unchecked. A call of the curve hands it a 0-d
    array for a scalar order instead, and must return exactly this, as a float."""
    arr = np.asarray(alpha, dtype=float)
    out = fn(arr.reshape(-1)).reshape(arr.shape)
    if np.ndim(alpha) == 0:
        return float(out)
    return out


def _converged_sum_product_loop(pc, ns, regime, C0, max_iters=2_000_000):
    """The loop learn_epsilon0(T=INFINITE) ran before its closed form: the
    forward recursion Q <- r_t (Q + 1) with a 1e-15 relative stop, run until
    the LSI constants saturate at the cap. Returns (Q, how the loop ended)."""
    cap = lsi_cap(pc.R, pc.M, ns.eta, ns.eta * ns.sigma ** 2)
    half = ns.eta * ns.sigma ** 2
    growth = (1.0 + ns.eta * pc.L) ** 2 if regime is Regime.NONCONVEX else 1.0
    q = 0.0
    c = C0
    for _ in range(max_iters):
        c_half = min(growth * c + half, cap)
        if c_half >= cap:
            return cap / half, "saturated"
        r = 1.0 / (1.0 + half / c_half)
        q_next = r * (q + 1.0)
        if abs(q_next - q) < 1e-15 * q_next:
            return q_next, "stopped"
        q = q_next
        c = min(c_half + half, cap)
    return cap / half, "budget"


def _reference_unlearn_epsilon(eps0, pc, ns, regime, C0=None, K=None):
    """The function of unlearn_epsilon's curve as it composed before: the decay
    factor times a second, checked call of the (learned) input curve."""
    decay = unlearn_epsilon(eps0, pc, ns, regime, C0=C0, K=K).decay - eps0.decay
    return lambda a: np.exp(-decay / a) * eps0(a)


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

    def test_overflowing_reach_is_cap_overflow(self):
        # (R + eta*M)^2 overflows before the exponent is formed
        with pytest.raises(CapOverflow) as err:
            lsi_cap(1e200, 1.0, 1.0, 1.0)
        assert err.value.exponent == math.inf
        with pytest.raises(CapOverflow) as err:
            lsi_cap(1e200, 1.0, 1.0, 1e300)
        assert err.value.exponent == pytest.approx(4e100, rel=1e-12)

    @pytest.mark.parametrize("regime", [Regime.CONVEX, Regime.NONCONVEX])
    @pytest.mark.parametrize("entry", ["learn_epsilon0", "converted_epsilon",
                                       "binary_search_sigma"])
    def test_entries_at_an_overflowing_reach_raise_cap_overflow(self, regime, entry):
        pc = ProblemConstants(L=1.0, m=0.0, M=1.0, R=1e200, n=100, d=2)
        ns = NoiseSchedule(eta=1.0, sigma=0.5)
        call = {"learn_epsilon0": lambda: learn_epsilon0(pc, ns, regime),
                "converted_epsilon": lambda: converted_epsilon(pc, ns, regime, 1, 1, 1e-4),
                "binary_search_sigma": lambda: binary_search_sigma(1.0, 1e-4, 1, pc, regime)}
        with pytest.raises(CapOverflow):
            call[entry]()

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

    def test_strongly_convex_decay_sum_builds_no_trace(self, sc_setup, monkeypatch):
        pc, ns, regime = sc_setup
        c0 = 2.0 * ns.sigma ** 2 / pc.m
        valid = [(c0, 7), (c0, 0)]
        invalid = [(0.0, 7), (c0, -1), (0.5 * c0, 7)]  # the last fails the step condition

        def error(fn):
            with pytest.raises(ValueError) as info:
                fn()
            return str(info.value)
        want = [(K * unlearn_rate(pc, ns, regime, C0),
                 lsi_unlearn_trace(pc, ns, regime, C0, K).values[-1]) for C0, K in valid]
        want_errors = [error(lambda: lsi_unlearn_trace(pc, ns, regime, C0, K))
                       for C0, K in invalid]
        monkeypatch.setattr(accountant, "_trace", None)
        got = [accountant._decay_sum(pc, ns, regime, C0, K) for C0, K in valid]
        assert got == want and isinstance(got[0][0], float)
        # the checking entries reject the chains _decay_sum does not check
        eps0 = RenyiBound(1.0)
        for entry in (lambda C0, K: lsi_unlearn_trace(pc, ns, regime, C0, K),
                      lambda C0, K: unlearn_epsilon(eps0, pc, ns, regime, C0=C0, K=K)):
            assert [error(lambda: entry(C0, K)) for C0, K in invalid] == want_errors


class TestFloat64Edges:
    """Constants whose squares leave float64 give a certificate or a typed
    error, where they raised OverflowError."""

    def test_nonconvex_growth_past_float64_saturates_at_the_cap(self):
        # (1 + eta*L)^2 overflows at L = 1e155; the cap absorbs the inf growth
        pc = ProblemConstants(L=1e155, m=0.0, M=1.0, R=0.5, n=10 ** 4, d=1)
        ns = NoiseSchedule(eta=1.0, sigma=1.0, T=INFINITE, K=5)
        nc = Regime.NONCONVEX
        trace = lsi_unlearn_trace(pc, ns, nc, 1.0, 5)
        assert math.isfinite(trace.cap) and trace.values.tolist() == [1.0] + [trace.cap] * 5
        assert unlearn_rate(pc, ns, nc, 1.0) == 0.0
        assert math.isfinite(converted_epsilon(pc, ns, nc, 1, 5, 1e-4))
        # every learning step's half-step constant sits at the cap
        half = ns.eta * ns.sigma ** 2
        cap = lsi_cap(pc.R, pc.M, ns.eta, half)
        r = 1.0 / (1.0 + half / cap)
        q = sum(r ** t for t in range(1, 6))
        assert learn_epsilon0(pc, ns, nc, T=5).slope == pytest.approx(
            2.0 * ns.eta * pc.M ** 2 / (ns.sigma ** 2 * pc.n ** 2) * q, rel=1e-12)

    def test_numpy_scalar_lsi_constant_past_float64_gives_rate_0(self):
        # a trace entry is a numpy scalar, whose growth * C_k overflow warned
        pc = ProblemConstants(L=1e150, m=0.0, M=0.0078, R=0.09, n=1000, d=1)
        ns = NoiseSchedule(eta=3.0, sigma=1e150)
        nc = Regime.NONCONVEX
        c_k = lsi_unlearn_trace(pc, ns, nc, 1.0, 2).values[1]
        assert isinstance(c_k, np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert unlearn_rate(pc, ns, nc, c_k) == 0.0 == unlearn_rate(pc, ns, nc, float(c_k))

    @pytest.mark.parametrize("M,sigma", [(1e200, 0.03), (1e308, 0.03), (1e154, 1e-3)])
    def test_learning_slope_past_float64_is_vacuous(self, mnist, M, sigma):
        # M^2 overflows (1e200, 1e308), or the slope does (1e154 at sigma 1e-3)
        pc, regime, delta = mnist.pc.with_(M=M), mnist.regime, mnist.delta
        ns = NoiseSchedule(eta=mnist.eta, sigma=sigma, T=INFINITE, K=1)
        for entry in (lambda: learn_epsilon0(pc, ns, regime),
                      lambda: converted_epsilon(pc, ns, regime, 1, 1, delta),
                      lambda: find_min_k(1.0, delta, pc, ns, regime),
                      lambda: binary_search_sigma(1.0, delta, 1, pc, regime, eta=mnist.eta),
                      lambda: calibrate.sequential_epsilon(2.0, sigma, 1, 1, [1], pc, regime,
                                                           eta=mnist.eta)):
            with pytest.raises(VacuousBound):
                entry()

    def test_finite_slope_past_the_grid_certifies_without_a_warning(self, mnist):
        # slope 5.9e303: slope * alpha leaves float64 on the top of ALPHA_GRID,
        # which marks those orders +inf without numpy's overflow warning (an
        # error under this suite's filterwarnings)
        pc, regime, delta = mnist.pc.with_(M=1.5e153), mnist.regime, mnist.delta
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03, T=INFINITE, K=1)
        assert learn_epsilon0(pc, ns, regime).slope > sys.float_info.max / ALPHA_GRID[-1]
        assert converted_epsilon(pc, ns, regime, 1, 10 ** 6, delta) == 0.1497279139701865
        assert find_min_k(1.0, delta, pc, ns, regime) == 162202

    def test_finite_slope_past_the_grid_at_long_fine_tuning(self, mnist):
        # at K = 1e9 and 1e11, exp(-decay/alpha) underflows to 0 on the orders
        # where slope * alpha overflows, and 0 * inf would be nan there
        pc, regime, delta = mnist.pc.with_(M=1.5e153), mnist.regime, mnist.delta
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03, T=INFINITE, K=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = [converted_epsilon(pc, ns, regime, 1, K, delta)
                   for K in (10 ** 6, 10 ** 7, 10 ** 9, 10 ** 11)]
        assert all(math.isfinite(e) for e in eps)
        assert all(a >= b for a, b in zip(eps, eps[1:]))

    def test_bound_past_the_grid_evaluates_as_it_certifies(self):
        # at alpha = 3.5e4 exp(-decay/alpha) underflows to 0 and slope * alpha
        # overflows: the public curve takes that order in logs, as rdp_to_dp
        # does, where the plain product gave nan (0 * inf)
        bound = RenyiBound(5.9e303, 3e7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bound(3.5e4) == pytest.approx(1.1548005872554489e-64, rel=1e-13)  # mpmath
            on_orders = bound(np.array([1.5, 3.5e4, 1e6]))
            assert rdp_to_dp(bound, 1e-5)[0] == 2.8596254310776374e-4
        assert not np.isnan(on_orders).any() and on_orders[1] == bound(3.5e4)

    def test_largest_n_certifies(self, mnist):
        # n**2 = 1.69e308 is finite; ProblemConstants rejects n = 1.35e154
        pc, regime, delta = mnist.pc.with_(n=1.3e154), mnist.regime, mnist.delta
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03, T=INFINITE, K=1)
        assert 0.0 < converted_epsilon(pc, ns, regime, 1, 1, delta) < 1e-3


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
        eps0 = RenyiBound(0.37)
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

    def test_probe_scalars_are_the_public_chains(self, mnist):
        # the (slope, decay) of calibration's chain of one request against
        # unlearn_epsilon on learn_epsilon0: the same bits, and the same
        # error where either fails
        small = ProblemConstants(L=1.0, m=0.0, M=1.0, R=0.5, n=10 ** 4, d=1)
        sc = (mnist.pc, mnist.regime)
        cases = [
            (*sc, NoiseSchedule(eta=mnist.eta, sigma=0.03), 1, 1),
            (*sc, NoiseSchedule(eta=mnist.eta, sigma=0.03, T=50), 5, 0),
            (*sc, NoiseSchedule(eta=mnist.eta, sigma=0.03), 0, 1),         # S < 1
            (*sc, NoiseSchedule(eta=mnist.eta, sigma=0.03), 1, -1),        # K < 0
            (*sc, NoiseSchedule(eta=2 * mnist.eta, sigma=0.03), 1, -1),    # step, then K
            (*sc, NoiseSchedule(eta=mnist.eta, sigma=0.0), 1, 1),          # sigma range
            (small, Regime.CONVEX, NoiseSchedule(eta=1.0, sigma=1.0), 1, 5),
            (small, Regime.NONCONVEX, NoiseSchedule(eta=1.0, sigma=1.0, T=30), 2, 5),
            (small, Regime.CONVEX, NoiseSchedule(eta=1.0, sigma=0.1), 1, -1),  # cap, then K
            (small, Regime.CONVEX, NoiseSchedule(eta=1.0, sigma=0.05, T=0), 1, 3),
            (small, Regime.CONVEX, NoiseSchedule(eta=1e-300, sigma=1e-20, T=0), 1, 3),
            (small, Regime.STRONGLY_CONVEX, NoiseSchedule(eta=1.0, sigma=1.0), 1, 1),
        ]

        def outcome(fn):
            try:
                return tuple(v.hex() for v in fn())
            except (ValueError, CapOverflow) as exc:
                return type(exc), str(exc)

        def public(pc, regime, ns, S, K):
            bound = unlearn_epsilon(learn_epsilon0(pc, ns, regime, S=S), pc, ns, regime, K=K)
            return bound.slope, bound.decay
        got = [outcome(lambda: accountant._Stream(pc, ns, regime).admit(S, K))
               for pc, regime, ns, S, K in cases]
        assert got == [outcome(lambda: public(*case)) for case in cases]
        assert got == [outcome(lambda: accountant._Stream.single(pc, ns, regime, S, K))
                       for pc, regime, ns, S, K in cases]
        errors = [g[1] for g in got if isinstance(g[0], type)]
        assert [e.split(" ")[0] for e in errors] == [
            "group", "K", "eta=7.6365", "privacy", "LSI", "LSI", "C0", "strongly"]


class TestLearnEpsilon0:
    def test_strongly_convex_converged_slope(self, sc_setup):
        pc, ns, regime = sc_setup
        bound = learn_epsilon0(pc, ns, regime, S=1, T=INFINITE)
        slope = 4.0 * pc.M ** 2 / (pc.m * ns.sigma ** 2 * pc.n ** 2)
        assert bound.slope == pytest.approx(slope, rel=1e-14)
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
        full = learn_epsilon0(pc, ns, regime, T=INFINITE).slope
        part = learn_epsilon0(pc, ns, regime, T=t).slope
        assert part == pytest.approx(full * -math.expm1(-pc.m * ns.eta * t), rel=1e-12)

    def test_group_size_scales_quadratically(self, sc_setup):
        pc, ns, regime = sc_setup
        s1 = learn_epsilon0(pc, ns, regime, S=1).slope
        s3 = learn_epsilon0(pc, ns, regime, S=3).slope
        assert s3 == pytest.approx(9.0 * s1, rel=1e-14)

    @pytest.mark.parametrize("S", [1.5, 2.0, "2"])
    def test_group_size_must_be_an_integer(self, S, mnist):
        # S = 1.5 returned a curve, and converted_epsilon certified 0.4745 with it
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03, T=INFINITE, K=1)
        pc, regime, delta = mnist.pc, mnist.regime, mnist.delta
        for entry in (lambda: learn_epsilon0(pc, ns, regime, S=S),
                      lambda: converted_epsilon(pc, ns, regime, S, 1, delta),
                      lambda: find_min_k(1.0, delta, pc, ns, regime, S=S),
                      lambda: binary_search_sigma(1.0, delta, 1, pc, regime, S=S,
                                                  eta=mnist.eta)):
            with pytest.raises(ValueError, match="group size S must be an integer >= 1"):
                entry()

    def test_numpy_integer_group_size_passes(self, sc_setup):
        pc, ns, regime = sc_setup
        assert (learn_epsilon0(pc, ns, regime, S=np.int64(3)).slope
                == learn_epsilon0(pc, ns, regime, S=3).slope)

    def test_monotone_in_n_sigma_t(self, sc_setup):
        pc, ns, regime = sc_setup
        base = learn_epsilon0(pc, ns, regime).slope
        assert learn_epsilon0(pc.with_(n=2 * pc.n), ns, regime).slope < base
        assert learn_epsilon0(pc, ns.with_(sigma=2 * ns.sigma), regime,
                              C0=8.0 * ns.sigma ** 2 / pc.m).slope < base
        prev = 0.0
        for t in (1, 5, 50, 500):
            cur = learn_epsilon0(pc, ns, regime, T=t).slope
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
                                 C0=0.7).slope
            assert got == pytest.approx(expect, rel=1e-12)

    def test_infinite_t_is_limit_of_finite(self):
        # tiny ball -> tiny cap -> the recursion saturates immediately and
        # the converged bound is reachable by a finite run
        pc = ProblemConstants(L=1.0, m=0.0, M=0.1, R=0.05, n=100, d=5)
        ns = NoiseSchedule(eta=0.1, sigma=1.0)
        lim = learn_epsilon0(pc, ns, Regime.CONVEX, T=INFINITE, C0=0.7).slope
        fin = learn_epsilon0(pc, ns, Regime.CONVEX, T=4000, C0=0.7).slope
        assert lim == pytest.approx(fin, rel=1e-9)
        cap = lsi_cap(pc.R, pc.M, ns.eta, ns.eta * ns.sigma ** 2)
        assert lim == pytest.approx(
            2.0 * ns.eta * pc.M ** 2 / (ns.sigma ** 2 * pc.n ** 2) * cap
            / (ns.eta * ns.sigma ** 2), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(nonconvex=st.booleans(), log_L=st.floats(-1, 1), log_M=st.floats(-1, 1),
           log_R=st.floats(-2, math.log10(3)), log_n=st.floats(1, 5),
           log_sigma=st.floats(math.log10(0.3), math.log10(30)),
           eta_L=st.floats(0.01, 1.0))
    def test_converged_slope_is_the_loops_limit(self, nonconvex, log_L, log_M, log_R,
                                                log_n, log_sigma, eta_L):
        """The closed form cap/(eta sigma^2) equals the old loop bit for bit
        at the default C0. Draws the loop would run past 50k steps for are
        skipped (about a fifth, seconds each): there it saturates or spends
        its budget, and both return cap/(eta sigma^2) by construction."""
        regime = Regime.NONCONVEX if nonconvex else Regime.CONVEX
        L = 10.0 ** log_L
        pc = ProblemConstants(L=L, m=0.0, M=10.0 ** log_M, R=10.0 ** log_R,
                              n=int(10.0 ** log_n), d=5)
        ns = NoiseSchedule(eta=eta_L * (3.0 if nonconvex else 2.0) / L,
                           sigma=10.0 ** log_sigma)
        try:
            got = learn_epsilon0(pc, ns, regime, T=INFINITE).slope
        except CapOverflow:
            with pytest.raises(CapOverflow):
                lsi_cap(pc.R, pc.M, ns.eta, ns.eta * ns.sigma ** 2)
            return
        except VacuousBound:  # only where the closed form leaves float64
            cap = lsi_cap(pc.R, pc.M, ns.eta, ns.eta * ns.sigma ** 2)
            assert not math.isfinite(2.0 * ns.eta * pc.M ** 2 / (ns.sigma ** 2 * pc.n ** 2)
                                     * (cap / (ns.eta * ns.sigma ** 2)))
            return
        q, ended = _converged_sum_product_loop(pc, ns, regime, default_c0(pc, ns, regime),
                                               max_iters=50_000)
        assume(ended != "budget")
        assert got == 2.0 * ns.eta * pc.M ** 2 / (ns.sigma ** 2 * pc.n ** 2) * q

    def test_convex_sigma_search_is_fast(self):
        # the converged curve of every probe took up to 2M loop steps
        pc = ProblemConstants(L=1.0, m=0.0, M=1.0, R=0.5, n=10_000, d=5)
        t0 = time.perf_counter()
        sigma = binary_search_sigma(1.0, 1e-4, 5, pc, Regime.CONVEX, eta=1.0, sigma_hi=4.0)
        assert time.perf_counter() - t0 < 1.0
        assert converted_epsilon(pc, NoiseSchedule(eta=1.0, sigma=sigma, T=INFINITE, K=5),
                                 Regime.CONVEX, 1, 5, 1e-4) <= 1.0

    def test_nonconvex_realistic_radius_overflows(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03)
        with pytest.raises(CapOverflow):
            learn_epsilon0(mnist.pc.with_(m=0.0), ns, Regime.NONCONVEX, T=10)

    @pytest.mark.parametrize("regime", [Regime.CONVEX, Regime.NONCONVEX])
    @pytest.mark.parametrize("C0", [0.0, -5.0, math.nan])
    def test_rejects_a_start_unlearn_epsilon_rejects(self, regime, C0):
        # the learning entry checks C0 once for every chain that starts there
        pc = ProblemConstants(L=1.0, m=0.0, M=1.0, R=0.5, n=10 ** 4, d=1)
        for T in (30, 0, INFINITE):
            ns = NoiseSchedule(eta=1.0, sigma=1.0, T=T)
            with pytest.raises(ValueError, match="C0 must be positive"):
                learn_epsilon0(pc, ns, regime, C0=C0)
            with pytest.raises(ValueError, match="C0 must be positive"):
                unlearn_epsilon(RenyiBound(1.0), pc, ns, regime, C0=C0, K=5)

    def test_zero_noise_reports_the_sigma_range(self, small_ball_pc):
        # sigma = 0 also makes the default C0 zero; the schedule speaks first
        ns = NoiseSchedule(eta=0.1, sigma=0.0, T=30)
        with pytest.raises(ValueError, match="privacy accounting requires sigma"):
            learn_epsilon0(small_ball_pc, ns, Regime.CONVEX)


class TestRdpToDp:
    def test_zero_curve_hits_grid_edge(self):
        eps, alpha = rdp_to_dp(RenyiBound(0.0), delta=1e-5)
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
            rdp_to_dp(RenyiBound(0.0), 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log10_slope=st.floats(-8.0, 2.0), log10_delta=st.floats(-12.0, -1.0))
    def test_linear_curve_closed_form(self, log10_slope, log10_delta):
        # s*alpha + log(1/delta)/(alpha - 1) is least at alpha* = 1 + sqrt(log(1/delta)/s),
        # where it equals s + 2*sqrt(s*log(1/delta)); alpha* stays inside the grid here
        s, delta = 10.0 ** log10_slope, 10.0 ** log10_delta
        log_inv_delta = math.log(1.0 / delta)
        eps, alpha = rdp_to_dp(RenyiBound(s), delta)
        assert eps == pytest.approx(s + 2.0 * math.sqrt(s * log_inv_delta), rel=1e-9)
        # the objective is flat to rounding within ~sqrt(float64 eps) of alpha*
        assert alpha == pytest.approx(1.0 + math.sqrt(log_inv_delta / s), rel=1e-6)

    def test_curve_infinite_everywhere_is_vacuous(self):
        # an infinite slope, whatever its decay (exp(-decay/alpha) underflows
        # to 0 at the low orders from decay 1e6 on, where 0 * inf is nan)
        for decay in (0.0, 5.0, 1e6, math.inf):
            with pytest.raises(VacuousBound):
                rdp_to_dp(RenyiBound(math.inf, decay), 1e-5)

    def test_nan_curve_is_rejected_not_certified(self):
        # a curve is built from non-negative scalars; a nan at any one grid
        # order of the search itself is TestGridScan.test_nan_anywhere_is_rejected
        for slope, decay in ((math.nan, 0.0), (0.01, math.nan), (-0.01, 0.0), (0.01, -1.0)):
            with pytest.raises(ValueError, match="slope and decay must be non-negative"):
                RenyiBound(slope, decay)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(slope=st.one_of(st.just(0.0), st.floats(1e-12, 1e6)),
           decay=st.one_of(st.just(0.0), st.floats(1e-12, 1e7)),
           log10_delta=st.floats(-300.0, -1e-3))
    def test_the_one_conversion_is_the_closure_search(self, slope, decay, log10_delta):
        # rdp_to_dp on the two scalars gives, as floats, the bits the closure
        # layer's search gave on the function it built for them
        delta = 10.0 ** log10_delta
        bound = RenyiBound(slope, decay)
        got = rdp_to_dp(bound, delta)
        want = _closure_rdp_to_dp(_closure_of(bound), delta)
        assert all(_same(g, float(w)) for g, w in zip(got, want))


def _probed(curve):
    """curve, recording the orders it is called at."""
    orders = []

    def recording(a):
        orders.append(a)
        return curve(a)
    return recording, orders


class TestTargetedOrderSearch:
    """_optimize_order given a target stops refining once the verdict is
    known, and its answer is the least pair over a prefix of rdp_to_dp's."""

    delta = 1e-5

    @pytest.fixture
    def curve(self):
        return unlearn_epsilon(RenyiBound(0.02), ProblemConstants(
            L=1.0, m=0.25, M=1.0, R=10.0, n=500, d=4, lam=0.25),
            NoiseSchedule(eta=1.0, sigma=0.5, T=INFINITE, K=3), Regime.STRONGLY_CONVEX)

    def _full(self, curve):
        probed, orders = _probed(curve)
        return accountant._optimize_order(curve(ALPHA_GRID), probed, self.delta), orders

    def test_nan_floor_never_prunes(self, curve):
        exact, orders = self._full(curve)
        probed, seen = _probed(curve)
        floors = []

        def floor(a, b):
            floors.append((a, b))
            return math.nan
        out = accountant._optimize_order(curve(ALPHA_GRID), probed, self.delta,
                                         exact[0] * (1.0 - 1e-6), floor)
        assert out == exact == rdp_to_dp(curve, self.delta)
        assert seen == orders and len(floors) > 2

    def test_stops_at_first_probe_meeting_target(self, curve):
        exact, orders = self._full(curve)
        grid_min = float(np.min(curve(ALPHA_GRID) + math.log(1.0 / self.delta)
                                / (ALPHA_GRID - 1.0)))
        assert exact[0] < grid_min
        target = 0.5 * (exact[0] + grid_min)
        probed, seen = _probed(curve)
        eps, alpha = accountant._optimize_order(curve(ALPHA_GRID), probed, self.delta, target)
        assert eps <= target and seen == orders[:len(seen)] and len(seen) < len(orders)
        assert alpha == seen[-1]

    def test_floor_above_target_stops_with_least_pair_so_far(self, curve):
        exact, orders = self._full(curve)
        probed, seen = _probed(curve)
        out = accountant._optimize_order(curve(ALPHA_GRID), probed, self.delta,
                                         0.5 * exact[0], lambda a, b: curve(a))
        assert out[0] > 0.5 * exact[0] and out[0] >= exact[0]
        assert seen == orders[:len(seen)] and len(seen) < len(orders)
        if seen:
            log_inv_delta = math.log(1.0 / self.delta)
            assert out[0] <= min(curve(a) + log_inv_delta / (a - 1.0) for a in seen)


class TestGridScan:
    """The grid stage of _optimize_order: one argmin over the curve plus the
    per-delta order term, with the errors the separate nan and finiteness
    scans raised."""

    delta = 1e-5
    curve = RenyiBound(0.01)

    def _objective(self, on_grid):
        return on_grid + math.log(1.0 / self.delta) / (ALPHA_GRID - 1.0)

    @pytest.mark.parametrize("where", ["first", "minimum", "last"])
    def test_nan_anywhere_is_rejected(self, where):
        on_grid = self.curve(ALPHA_GRID).copy()
        at = {"first": 0, "last": -1,
              "minimum": int(np.argmin(self._objective(on_grid)))}[where]
        on_grid[at] = np.nan
        assert np.isfinite(on_grid).sum() == ALPHA_GRID.size - 1
        with pytest.raises(ValueError, match="nan"):
            accountant._optimize_order(on_grid, self.curve, self.delta)

    @pytest.mark.parametrize("fill", [[np.inf], [-np.inf], [np.inf, -np.inf]])
    def test_no_finite_order_is_vacuous(self, fill):
        on_grid = np.resize(np.array(fill), ALPHA_GRID.size)
        with pytest.raises(VacuousBound):
            accountant._optimize_order(on_grid, self.curve, self.delta)

    def test_infinite_orders_leave_the_finite_minimum(self):
        on_grid = self.curve(ALPHA_GRID).copy()
        on_grid[(ALPHA_GRID < 5.0) | (ALPHA_GRID > 1e3)] = np.inf
        obj = self._objective(on_grid)
        finite = np.isfinite(obj)
        i = int(np.flatnonzero(finite)[np.argmin(obj[finite])])
        # a target above the grid minimum returns the grid stage's pair
        assert accountant._optimize_order(on_grid, self.curve, self.delta, math.inf) == (
            float(obj[i]), float(ALPHA_GRID[i]))
        eps, alpha = accountant._optimize_order(on_grid, self.curve, self.delta)
        assert math.isfinite(eps) and eps <= obj[i] and 5.0 <= alpha <= 1e3

    def test_order_term_is_cached_read_only_and_bounded(self):
        for delta in (1e-5, 1.0 / 11982, 1e-4, 0.5, 1e-12):
            term = accountant._order_term(delta)
            want = math.log(1.0 / delta) / (ALPHA_GRID - 1.0)
            assert term.dtype == want.dtype and term.tobytes() == want.tobytes()
            assert accountant._order_term(delta) is term
            assert not term.flags.writeable
            with pytest.raises(ValueError):
                term[0] = 0.0
        for delta in np.geomspace(1e-9, 1e-1, 20).tolist():
            accountant._order_term(delta)
        info = accountant._order_term.cache_info()
        assert info.maxsize == 8 and info.currsize <= 8

    @pytest.mark.parametrize("setup", ["linear", "unlearned"])
    def test_curve_on_the_grid_is_the_checked_array_path(self, setup, mnist):
        curve = self.curve
        if setup == "unlearned":
            ns = NoiseSchedule(eta=mnist.eta, sigma=0.03, T=INFINITE, K=2)
            curve = unlearn_epsilon(learn_epsilon0(mnist.pc, ns, mnist.regime),
                                    mnist.pc, ns, mnist.regime)
        checked = curve(np.array(ALPHA_GRID))
        assert _closure_of(curve)(ALPHA_GRID).tobytes() == checked.tobytes()
        assert rdp_to_dp(curve, self.delta) == accountant._optimize_order(
            checked, curve, self.delta)


class TestSmallOps:
    @pytest.mark.parametrize("alpha,d1,d2,expect", [
        (1.5, 1.0, 1.0, 4.0),
        (2.0, 0.3, 0.7, 1.5),
        (1e9, 1.0, 1.0, 2.0 + 1e-8),
    ])
    def test_weak_triangle(self, alpha, d1, d2, expect):
        assert _weak_triangle(alpha, d1, d2) == pytest.approx(expect, rel=1e-8)
        # a stream level chains a request's learning loss at 2a (slope * 2a)
        # with the previous request's loss at 2a by the same inequality, then
        # decays: a first request of slope d2/(2a) and no decay is d2 at 2a
        slope, decay = d1 / (2.0 * alpha), alpha * math.log(4.0)
        factor = math.exp(-decay / alpha)  # 1/4
        assert _scalar_curve([d2 / (2.0 * alpha), slope], [0.0, decay])(alpha) == \
            pytest.approx(factor * _weak_triangle(alpha, d1, d2), rel=1e-14)
        assert _scalar_curve([slope], [decay])(alpha) == pytest.approx(
            factor * slope * alpha, rel=1e-15)

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

    def test_retrain_saving_at_extreme_constants(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03)
        # M^2 overflows float64: m n / (4 M) is far below 1
        assert retrain_saving_lower_bound(mnist.pc.with_(M=1e200), ns, 20.0) == (0.0, True)
        # m^2 and M^2 underflow to 0: m n / (4 M) is n / 4
        tiny = mnist.pc.with_(m=5e-324, M=5e-324)
        value, vacuous = retrain_saving_lower_bound(tiny, ns.with_(eta=1e308), 20.0)
        assert not vacuous and math.isfinite(value)
        assert value == pytest.approx(20.0 / (5e-324 * 1e308) * math.log(11982 ** 2 / 16),
                                      rel=1e-12)
        # m * eta underflows to 0: the saving exceeds float64
        with pytest.raises(ValueError, match="exceeds float64"):
            retrain_saving_lower_bound(tiny, ns.with_(eta=1e-10), 20.0)

    def test_retrain_saving_doubling_n(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.03)
        v1, _ = retrain_saving_lower_bound(mnist.pc, ns, alpha=20.0)
        v2, _ = retrain_saving_lower_bound(mnist.pc.with_(n=2 * mnist.pc.n), ns,
                                           alpha=20.0)
        gain = 20.0 / (mnist.pc.m * ns.eta) * math.log(4.0)
        assert v2 - v1 == pytest.approx(gain, rel=1e-10)


class TestRenyiBoundProperties:
    def test_rejects_alpha_at_most_one(self):
        bound = RenyiBound(1.0)
        with pytest.raises(ValueError):
            bound(1.0)
        with pytest.raises(ValueError):
            bound(np.array([2.0, 0.5]))
        # nan compares False both ways, so it must be rejected, not evaluated
        for order in (math.nan, np.float64(math.nan), np.array(math.nan),
                      np.array([2.0, math.nan])):
            with pytest.raises(ValueError):
                bound(order)

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


# a strongly convex, a convex and a non-convex bundle whose LSI caps stay finite
_CURVE_SETUPS = (
    (ProblemConstants(L=1.0, m=0.25, M=1.0, R=10.0, n=500, d=4, lam=0.25),
     NoiseSchedule(eta=1.0, sigma=1.0, T=INFINITE, K=5), Regime.STRONGLY_CONVEX),
    (ProblemConstants(L=1.0, m=0.0, M=1.0, R=2.9, n=100, d=5),
     NoiseSchedule(eta=0.1, sigma=1.0, T=40, K=7), Regime.CONVEX),
    (ProblemConstants(L=1.0, m=0.0, M=1.0, R=2.9, n=100, d=5),
     NoiseSchedule(eta=0.1, sigma=1.0, T=40, K=7), Regime.NONCONVEX),
)


def _same(x, y):
    """Bit equality of two float results, type included."""
    return type(x) is type(y) and float(x).hex() == float(y).hex()


class TestScalarFastPath:
    """A scalar order gives exactly what the array path gives at that order."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(alpha=st.floats(1.0, 1e7, exclude_min=True),
           log10_slope=st.floats(-9.0, 2.0))
    def test_scalar_curves_equal_reference(self, alpha, log10_slope):
        eps0 = RenyiBound(10.0 ** log10_slope)
        curves = [eps0]
        for pc, ns, regime in _CURVE_SETUPS:
            learned = learn_epsilon0(pc, ns, regime)
            curves.append(learned)
            for base in (eps0, learned):
                curves.append(unlearn_epsilon(base, pc, ns, regime))
                reference = _reference_unlearn_epsilon(base, pc, ns, regime)
                # the old composition, evaluated wholly on the reference path
                for order in (alpha, np.float64(alpha)):
                    got = unlearn_epsilon(base, pc, ns, regime)(order)
                    assert _same(got, _reference_call(reference, order))
        for curve in curves:
            for order in (alpha, np.float64(alpha)):
                assert _same(curve(order), _reference_call(_closure_of(curve), order))

    def test_array_orders_keep_the_array_path(self, mnist):
        ns = NoiseSchedule(eta=mnist.eta, sigma=0.01, T=INFINITE, K=3)
        eps0 = learn_epsilon0(mnist.pc, ns, mnist.regime)
        bound = unlearn_epsilon(eps0, mnist.pc, ns, mnist.regime)
        reference = _reference_unlearn_epsilon(eps0, mnist.pc, ns, mnist.regime)
        alphas = np.geomspace(1.0 + 1e-6, 1e6, 300)
        assert np.array_equal(bound(alphas), _reference_call(reference, alphas))
        for order in (2, np.array(2.5), np.float32(3.0)):  # not floats: array path
            assert _same(bound(order), _reference_call(reference, order))

    def test_calibration_bit_equal_to_reference(self):
        # the 18 published cells (K=1, S=1), plus K in {2, 5} at S=5 on mnist38
        cells = [(name, eps, 1, 1) for name in ("mnist38", "cifar10-binary", "cifar10-multi")
                 for eps in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0)]
        cells += [("mnist38", eps, k, 5) for eps in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0)
                  for k in (2, 5)]

        def certify():
            out = []
            for name, eps, k, S in cells:
                pr = get_preset(name)
                sigma = binary_search_sigma(eps, pr.delta, k, pr.pc, pr.regime, S=S,
                                            eta=pr.eta)
                ns = NoiseSchedule(eta=pr.eta, sigma=sigma, T=INFINITE, K=k)
                out.append((sigma, converted_epsilon(pr.pc, ns, pr.regime, S, k, pr.delta)))
            return out

        def reference_converted(slope, decay, delta, exps, target=None):
            # the searches' curve as the closure layer composed it before:
            # unlearn_epsilon's decay factor times a checked call of
            # RenyiBound.linear's curve, under rdp_to_dp with no target
            eps0 = _Closure(lambda a: slope * a)
            eps, alpha = _closure_rdp_to_dp(lambda a: np.exp(-decay / a) * eps0(a), delta)
            return float(eps), float(alpha)

        with pytest.MonkeyPatch.context() as mp:
            # every conversion of the searches on the reference path
            mp.setattr(calibrate, "_converted", reference_converted)
            want = certify()
        got = certify()
        for cell, (sigma, cert), (ref_sigma, ref_cert) in zip(cells, got, want):
            assert _same(sigma, ref_sigma), cell
            assert _same(cert, ref_cert), cell


# float64's edges and the accountant's own (SIGMA_RANGE's ends), mixed below
# with ordinary values
_EXTREMES = (0.0, 5e-324, 1e-300, 1e-150, 1e-8, 0.5, 1.0, 3.0, 1e8, 1e150, 1e155, 1e200,
             1e308, math.inf, math.nan, -1.0)
_value = st.one_of(st.sampled_from(_EXTREMES), st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e))
# counts, and values that are not counts (nan, inf, whole and fractional floats,
# an integer past float64's largest value)
_PAST_FLOAT64 = 10 ** 400
_count = st.one_of(st.sampled_from((-1, 0, 1, 2, 3, 300, 0.5, 2.5, 2.0, math.inf, -math.inf,
                                    math.nan, np.int64(3), _PAST_FLOAT64)), st.integers(0, 300))


class TestPublicEntriesFuzz:
    """Every input to a public accountant entry ends in a result or a typed
    error: a ValueError for a bad argument or a CertUnlearnError, never
    another exception or a numpy warning; and only integer counts S and K
    end in a result."""

    # T stays small: a finite T costs a T-step loop, like K past k_max
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(entry=st.sampled_from(("converted_epsilon", "find_min_k", "learn_epsilon0",
                                  "sequential_epsilon", "sequential_k_schedule",
                                  "retrain_saving_lower_bound", "binary_search_sigma")),
           L=_value, m=_value, M=_value, R=_value, n=st.one_of(st.integers(1, 10 ** 6), _value),
           eta=_value, sigma=_value, T=st.sampled_from((INFINITE, 0, 1, 3, 300, _PAST_FLOAT64)),
           regime=st.sampled_from(Regime), delta=_value, eps=_value, alpha=_value,
           S=_count, K=_count)
    # the non-convex rate's growth * C_k overflowed a numpy scalar
    @example(entry="sequential_epsilon", L=1e150, m=0.0, M=0.0078, R=0.09, n=1000, eta=3.0,
             sigma=1e150, T=INFINITE, regime=Regime.NONCONVEX, delta=1e-5, eps=1.0,
             alpha=2.0, S=2, K=2)
    # the strongly convex slope's denominator underflowed to 0
    @example(entry="learn_epsilon0", L=1e-8, m=5e-324, M=0.036, R=1e8, n=1, eta=0.03,
             sigma=1e-8, T=INFINITE, regime=Regime.STRONGLY_CONVEX, delta=1e-5, eps=1.0,
             alpha=2.0, S=1, K=1)
    # a fractional K certified 0.31491, between K = 2's and K = 3's certificates
    @example(entry="converted_epsilon", L=0.2619, m=0.0119, M=1.0, R=100.0, n=11982,
             eta=1 / 0.2619, sigma=0.03, T=INFINITE, regime=Regime.STRONGLY_CONVEX,
             delta=1 / 11982, eps=1.0, alpha=2.0, S=1, K=2.5)
    def test_ends_in_a_result_or_a_typed_error(self, entry, L, m, M, R, n, eta, sigma, T,
                                               regime, delta, eps, alpha, S, K):
        if m > L:  # ordered as ProblemConstants needs, so that more draws reach a call
            L, m = m, L
        try:
            pc = ProblemConstants(L=L, m=m, M=M, R=R, n=n, d=1)
            ns = NoiseSchedule(eta=eta, sigma=sigma, T=T)
        except ValueError:
            return  # the constructors reject the draw
        call = {
            "converted_epsilon": lambda: converted_epsilon(pc, ns, regime, S, K, delta),
            "find_min_k": lambda: find_min_k(eps, delta, pc, ns, regime, S=S, k_max=300),
            "learn_epsilon0": lambda: rdp_to_dp(learn_epsilon0(pc, ns, regime, S=S), delta),
            "sequential_epsilon": lambda: calibrate.sequential_epsilon(
                alpha, sigma, S, 3, [0, 1, K], pc, regime, eta=eta),
            "sequential_k_schedule": lambda: calibrate.sequential_k_schedule(
                eps, delta, sigma, 3, S, pc, regime, k_max=300, eta=eta),
            "retrain_saving_lower_bound": lambda: retrain_saving_lower_bound(pc, ns, alpha),
            # a convex search's NoFeasibleSigma runs the O(K) trace to K = 10**6
            "binary_search_sigma": lambda: binary_search_sigma(
                eps, delta, K, pc, Regime.STRONGLY_CONVEX, S=S, eta=eta),
        }[entry]
        counts = {"find_min_k": (S,), "learn_epsilon0": (S,), "sequential_k_schedule": (S,),
                  "retrain_saving_lower_bound": ()}.get(entry, (S, K))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call()
            except (ValueError, CertUnlearnError):
                return
        assert all(isinstance(c, (int, np.integer)) for c in counts), f"certified at {counts}"

    # each ended in a bare OverflowError (K, S, T, k_hat), or, for eta = inf,
    # in a CapOverflow about a nan exponent
    @pytest.mark.parametrize("name, call", [
        ("K", lambda pr, ns: converted_epsilon(pr.pc, ns, pr.regime, 1, _PAST_FLOAT64, pr.delta)),
        ("group size S", lambda pr, ns: converted_epsilon(pr.pc, ns, pr.regime, _PAST_FLOAT64, 1,
                                                          pr.delta)),
        ("T", lambda pr, ns: learn_epsilon0(pr.pc, ns, pr.regime, T=_PAST_FLOAT64)),
        ("k_hat", lambda pr, ns: binary_search_sigma(1.0, pr.delta, _PAST_FLOAT64, pr.pc,
                                                     pr.regime, eta=pr.eta)),
        ("K", lambda pr, ns: calibrate.sequential_epsilon(2.0, 0.03, 1, 1, [_PAST_FLOAT64], pr.pc,
                                                          pr.regime, eta=pr.eta)),
        ("s_total", lambda pr, ns: calibrate.sequential_k_schedule(
            1.0, pr.delta, 0.03, _PAST_FLOAT64, 1, pr.pc, pr.regime, eta=pr.eta)),
        ("k_max", lambda pr, ns: find_min_k(1.0, pr.delta, pr.pc, ns, pr.regime,
                                            k_max=_PAST_FLOAT64)),
        ("eta", lambda pr, ns: converted_epsilon(pr.pc, ns.with_(eta=math.inf), Regime.NONCONVEX,
                                                 1, 1, pr.delta)),
    ], ids=["converted_epsilon-K", "converted_epsilon-S", "learn_epsilon0-T",
            "binary_search_sigma-k_hat", "sequential_epsilon-K", "sequential_k_schedule-s_total",
            "find_min_k-k_max", "converted_epsilon-eta-inf"])
    def test_a_value_past_float64_names_its_argument(self, name, call):
        pr = get_preset("mnist38")
        ns = NoiseSchedule(eta=pr.eta, sigma=0.03, T=INFINITE, K=1)
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call(pr, ns)
