import math

import pytest

from certunlearn import (INFINITE, ConfigError, NoiseSchedule, ProblemConstants,
                         Regime, RenyiBound, binary_search_sigma, converted_epsilon,
                         default_c0, find_min_k, get_preset, learn_epsilon0,
                         lsi_unlearn_trace, regime_for,
                         sequential_epsilon, sequential_k_schedule, unlearn_epsilon,
                         validate_schedule)
from certunlearn.constants import SIGMA_RANGE
from certunlearn.harness import ExperimentConfig


class TestProblemConstants:
    def test_rejects_m_above_l(self):
        with pytest.raises(ValueError, match="exceeds"):
            ProblemConstants(L=0.5, m=0.6, M=1.0, R=1.0, n=10, d=2)

    @pytest.mark.parametrize("field,value", [
        ("L", 0.0), ("m", -0.1), ("M", 0.0), ("R", 0.0), ("n", 0), ("d", 0),
        ("lam", -1.0),
        # n**2 leaves float64, and the bounds divide by it
        ("n", 1.35e154), ("n", 1e200), pytest.param("n", 10 ** 200, id="n-10**200"),
        pytest.param("n", 10 ** 400, id="n-10**400"),
    ])
    def test_rejects_out_of_range(self, field, value):
        kw = dict(L=1.0, m=0.1, M=1.0, R=1.0, n=10, d=2, lam=0.1)
        kw[field] = value
        with pytest.raises(ValueError):
            ProblemConstants(**kw)

    @pytest.mark.parametrize("field,message", [
        ("m", "m must be non-negative and finite"),
        ("M", "M must be positive and finite"),
        ("R", "R must be positive and finite"),
        ("n", "n must be >= 1 and finite"),
    ])
    def test_rejects_non_finite(self, field, message):
        # m = nan and M, R, n = inf were accepted
        for value in (math.nan, math.inf):
            kw = dict(L=1.0, m=0.1, M=1.0, R=1.0, n=10, d=2, lam=0.1)
            kw[field] = value
            with pytest.raises(ValueError, match=f"^{message}, got {value}$"):
                ProblemConstants(**kw)

    def test_logistic_presets_certify_table_constants(self):
        mnist = get_preset("mnist38")
        assert mnist.pc.L == pytest.approx(0.25 + 0.0119)
        assert mnist.pc.m == 0.0119
        assert mnist.delta == pytest.approx(1.0 / 11982)
        multi = get_preset("cifar10-multi")
        assert multi.pc.L == pytest.approx(1.0499)
        assert multi.pc.M == 2.0
        assert (multi.d, multi.pc.d) == (512, 5120)  # features; softmax weights
        assert multi.delta == pytest.approx(2e-5)
        with pytest.raises(ConfigError, match="unknown preset 'imagenet'"):
            get_preset("imagenet")


class TestNoiseSchedule:
    def test_infinite_t_is_first_class(self):
        ns = NoiseSchedule(eta=0.1, sigma=1.0, T=INFINITE, K=3)
        assert math.isinf(ns.T)

    def test_rejects_fractional_t_and_negative_k(self):
        with pytest.raises(ValueError):
            NoiseSchedule(eta=0.1, sigma=1.0, T=2.5)
        with pytest.raises(ValueError):
            NoiseSchedule(eta=0.1, sigma=1.0, K=-1)


class TestRegimeValidation:
    def test_regime_for(self):
        pc = ProblemConstants(L=1.0, m=0.2, M=1.0, R=1.0, n=10, d=2)
        assert regime_for(pc) is Regime.STRONGLY_CONVEX
        assert regime_for(pc.with_(m=0.0)) is Regime.CONVEX

    def test_mixed_regime_rejected(self):
        pc = ProblemConstants(L=1.0, m=0.2, M=1.0, R=1.0, n=10, d=2)
        ns = NoiseSchedule(eta=0.5, sigma=1.0)
        with pytest.raises(ValueError, match="convex regime encodes m = 0"):
            validate_schedule(pc, ns, Regime.CONVEX)
        with pytest.raises(ValueError, match="requires m > 0"):
            validate_schedule(pc.with_(m=0.0), ns, Regime.STRONGLY_CONVEX)

    def test_strongly_convex_entries_reject_m_zero(self):
        # C0 defaults before the schedule is checked; it must not divide by m = 0
        pc = ProblemConstants(L=1.0, m=0.0, M=1.0, R=1.0, n=100, d=2)
        sc, ns = Regime.STRONGLY_CONVEX, NoiseSchedule(eta=1.0, sigma=0.5)
        entries = [
            lambda: default_c0(pc, ns, sc),
            lambda: learn_epsilon0(pc, ns, sc),
            lambda: unlearn_epsilon(RenyiBound(1.0), pc, ns, sc, K=1),
            lambda: converted_epsilon(pc, ns, sc, 1, 1, 1e-4),
            lambda: find_min_k(1.0, 1e-4, pc, ns, sc),
            lambda: binary_search_sigma(1.0, 1e-4, 1, pc, sc),
            lambda: sequential_k_schedule(1.0, 1e-4, 0.5, 4, 2, pc, sc),
            lambda: sequential_epsilon(2.0, 0.5, 2, 1, [1], pc, sc),
        ]
        for entry in entries:
            with pytest.raises(ValueError, match="^strongly convex regime requires m > 0$"):
                entry()

    @pytest.mark.parametrize("regime", [None, "convex", 0.5])
    def test_a_regime_that_is_not_a_regime_is_rejected(self, regime):
        # these skipped every regime branch: no step-size check and the convex
        # recursion, so eta = 10 > 2/L certified 0.0624882 at sigma = 3, K = 5
        pc = ProblemConstants(L=1.0, m=0.0, M=1.0, R=0.5, n=10 ** 4, d=1)
        ns = NoiseSchedule(eta=10.0, sigma=3.0, T=INFINITE, K=5)
        entries = [
            lambda: learn_epsilon0(pc, ns, regime),
            lambda: unlearn_epsilon(RenyiBound(1.0), pc, ns, regime, K=5),
            lambda: lsi_unlearn_trace(pc, ns, regime, 1.0, 5),
            lambda: converted_epsilon(pc, ns, regime, 1, 5, 1e-4),
            lambda: find_min_k(1.0, 1e-4, pc, ns, regime),
            lambda: binary_search_sigma(1.0, 1e-4, 5, pc, regime, sigma_hi=4.0, eta=10.0),
            lambda: sequential_epsilon(2.0, 3.0, 1, 1, [5], pc, regime, eta=10.0),
            lambda: sequential_k_schedule(1.0, 1e-4, 3.0, 3, 1, pc, regime, eta=10.0),
        ]
        for entry in entries:
            with pytest.raises(ValueError, match=f"^regime must be a Regime, got {regime!r}$"):
                entry()

    def test_step_size_limits(self):
        pc = ProblemConstants(L=1.0, m=0.5, M=1.0, R=1.0, n=10, d=2)
        ok = NoiseSchedule(eta=1.0, sigma=1.0)
        validate_schedule(pc, ok, Regime.STRONGLY_CONVEX)  # eta = 1/L allowed
        with pytest.raises(ValueError, match="strongly convex limit"):
            validate_schedule(pc, NoiseSchedule(eta=1.5, sigma=1.0),
                              Regime.STRONGLY_CONVEX)
        convex = pc.with_(m=0.0)
        validate_schedule(convex, NoiseSchedule(eta=2.0, sigma=1.0), Regime.CONVEX)
        with pytest.raises(ValueError, match="convex limit"):
            validate_schedule(convex, NoiseSchedule(eta=2.5, sigma=1.0),
                              Regime.CONVEX)
        # non-convex has no step condition
        validate_schedule(convex, NoiseSchedule(eta=50.0, sigma=1.0),
                          Regime.NONCONVEX)

    def test_accounting_needs_positive_noise(self):
        pc = ProblemConstants(L=1.0, m=0.5, M=1.0, R=1.0, n=10, d=2)
        with pytest.raises(ValueError, match="sigma > 0"):
            validate_schedule(pc, NoiseSchedule(eta=0.5, sigma=0.0),
                              Regime.STRONGLY_CONVEX)

    @pytest.mark.parametrize("sigma", [0.0, 1e-161, 1e-155, 1e153, 1e154, math.inf, 1e155,
                                       1e200, 1e308])
    def test_accounting_rejects_noise_outside_the_range(self, sigma):
        p = get_preset("synthetic")
        ns = NoiseSchedule(eta=p.eta, sigma=sigma, T=INFINITE, K=1)
        regimes = [(p.pc, p.regime), (p.pc.with_(m=0.0), Regime.CONVEX),
                   (p.pc.with_(m=0.0), Regime.NONCONVEX)]
        checks = [lambda: validate_schedule(p.pc, ns, p.regime),
                  lambda: converted_epsilon(p.pc, ns, p.regime, 1, 1, p.delta),
                  lambda: unlearn_epsilon(RenyiBound(1.0), p.pc, ns, p.regime, K=1),
                  lambda: find_min_k(1.0, p.delta, p.pc, ns, p.regime),
                  lambda: sequential_epsilon(2.0, sigma, 2, 1, [1], p.pc, p.regime, eta=p.eta),
                  lambda: sequential_k_schedule(1.0, p.delta, sigma, 4, 2, p.pc, p.regime,
                                                eta=p.eta)]
        checks += [lambda pc=pc, regime=regime, fn=fn: fn(pc, ns, regime)
                   for pc, regime in regimes for fn in (learn_epsilon0, default_c0)]
        for check in checks:
            with pytest.raises(ValueError, match=r"within \[1e-150, 1e150\]"):
                check()

    def test_sigma_search_bracket_must_lie_in_the_range(self):
        p = get_preset("mnist38")
        for lo, hi in ((1e-160, 1.0), (1e-6, 1e160)):
            with pytest.raises(ValueError, match="1e-150 <= sigma_lo"):
                binary_search_sigma(1.0, p.delta, 1, p.pc, p.regime, sigma_lo=lo,
                                    sigma_hi=hi, eta=p.eta)

    @pytest.mark.filterwarnings("error")
    def test_range_ends_certify_and_are_valid_configs(self):
        p = get_preset("synthetic")
        for sigma in SIGMA_RANGE:
            ns = NoiseSchedule(eta=p.eta, sigma=sigma, T=INFINITE, K=1)
            assert math.isfinite(converted_epsilon(p.pc, ns, p.regime, 1, 1, p.delta))
            assert ExperimentConfig(sigma=sigma).sigma == sigma
            with pytest.raises(ConfigError):
                ExperimentConfig(sigma=sigma * (0.5 if sigma < 1 else 2.0))

    def test_default_c0_per_regime(self):
        pc = ProblemConstants(L=1.0, m=0.5, M=1.0, R=1.0, n=10, d=2)
        ns = NoiseSchedule(eta=0.25, sigma=2.0)
        assert default_c0(pc, ns, Regime.STRONGLY_CONVEX) == pytest.approx(16.0)
        assert default_c0(pc.with_(m=0.0), ns, Regime.CONVEX) == pytest.approx(1.0)
