import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from certunlearn import (InfeasibleBudget, d2d_sigma_thm9, d2d_sigma_thm28, d2d_train,
                         d2d_unlearn, make_rng, make_synthetic, objective_for,
                         quadratic_objective, SyntheticSpec)
from certunlearn.d2d import _report_rows
from certunlearn.harness import ExperimentConfig, run_unlearn_one

mp.mp.dps = 50


def mp_thm9(eps, delta, I, M, m, n, L):
    g = (mp.mpf(L) - m) / (mp.mpf(L) + m)
    gI = g ** I
    li = mp.log(1 / mp.mpf(delta))
    return 4 * mp.sqrt(2) * M * gI / (m * n * (1 - gI) * (mp.sqrt(li + eps) - mp.sqrt(li)))


def mp_thm28(eps, delta, M, m, n, L, d):
    g = (mp.mpf(L) - m) / (mp.mpf(L) + m)
    b2 = 2 * mp.log(2 / mp.mpf(delta))
    raw = mp.log(mp.sqrt(2 * mp.mpf(d)) / (1 - g)
                 / (mp.sqrt(b2 + eps) - mp.sqrt(b2))) / mp.log(1 / g)
    I = int(mp.ceil(raw))
    gI = g ** I
    sig = 8 * M * gI / (m * n * (1 - gI)
                        * (mp.sqrt(b2 + 3 * eps) - mp.sqrt(b2 + 2 * eps)))
    return I, sig


def param_grid():
    """100 parameter points spanning the valid strongly convex range."""
    rng = make_rng(2024)
    grid = []
    for _ in range(100):
        m = float(rng.uniform(1e-3, 0.5))
        L = m + float(rng.uniform(1e-2, 2.0))
        grid.append(dict(
            eps=float(rng.uniform(0.05, 5.0)),
            delta=float(rng.uniform(1e-6, 1e-3)),
            I=int(rng.integers(1, 50)),
            M=float(rng.uniform(0.5, 4.0)),
            m=m, L=L,
            n=int(rng.integers(100, 10 ** 5)),
            d=int(rng.integers(2, 2048)),
        ))
    return grid


class TestFormulaOracle:
    def test_thm9_matches_mpmath_on_grid(self):
        for p in param_grid():
            got = d2d_sigma_thm9(p["eps"], p["delta"], p["I"], p["M"], p["m"],
                                 p["n"], p["L"])
            expect = float(mp_thm9(p["eps"], p["delta"], p["I"], p["M"], p["m"],
                                   p["n"], p["L"]))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_thm28_matches_mpmath_on_grid(self):
        for p in param_grid():
            cal = d2d_sigma_thm28(p["eps"], p["delta"], p["M"], p["m"], p["n"],
                                  p["L"], p["d"])
            I, sig = mp_thm28(p["eps"], p["delta"], p["M"], p["m"], p["n"],
                              p["L"], p["d"])
            assert cal.I_min == max(I, 1)
            if cal.I_min == I:
                assert cal.sigma == pytest.approx(float(sig), rel=1e-12)

    def test_thm28_frozen_mnist_point(self, mnist):
        cal = d2d_sigma_thm28(1.0, mnist.delta, mnist.pc.M, mnist.pc.m,
                              mnist.pc.n, mnist.pc.L, mnist.pc.d)
        assert cal.I_min == 92
        assert cal.sigma == pytest.approx(1.24289599468e-4, rel=1e-10)
        assert cal.iterations(1) == 124
        assert cal.iterations(100) == 126
        assert sum(cal.iterations(i) for i in range(1, 101)) == 12583

    def test_thm28_iterations_finite_at_the_log_log_corner(self):
        # d = i = 1 and delta just below 1 put the inner log nearest log 4 > 0
        cal = d2d_sigma_thm28(1.0, 1.0 - 1e-12, 1.0, 0.5, 10, 1.0, 1)
        assert cal.d == 1
        steps = cal.iterations(1)
        assert cal.I_min <= steps < math.inf

    def test_thm9_frozen_mnist_point(self, mnist):
        got = d2d_sigma_thm9(1.0, mnist.delta, 1, mnist.pc.M, mnist.pc.m,
                             mnist.pc.n, mnist.pc.L)
        assert got == pytest.approx(2.62045398312, rel=1e-10)


class TestMonotonicity:
    def test_sigma_decreases_in_eps_and_iterations(self, mnist):
        pc = mnist.pc
        eps_grid = [0.05, 0.1, 0.5, 1.0, 2.0, 5.0]
        for I in (1, 2, 5):
            sigmas = [d2d_sigma_thm9(e, mnist.delta, I, pc.M, pc.m, pc.n, pc.L)
                      for e in eps_grid]
            assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
        for e in eps_grid:
            by_i = [d2d_sigma_thm9(e, mnist.delta, I, pc.M, pc.m, pc.n, pc.L)
                    for I in (1, 2, 5, 20)]
            assert all(a > b for a, b in zip(by_i, by_i[1:]))

    def test_thm28_request_iterations_increase(self, mnist):
        cal = d2d_sigma_thm28(1.0, mnist.delta, mnist.pc.M, mnist.pc.m,
                              mnist.pc.n, mnist.pc.L, mnist.pc.d)
        iters = [cal.iterations(i) for i in range(1, 200)]
        assert all(b >= a for a, b in zip(iters, iters[1:]))
        assert iters[-1] > iters[0]

    def test_thm28_doubling_eps_lowers_iterations(self, mnist):
        # I_min falls with eps; sigma at the *derived* I is not monotone
        # because the integer ceiling jumps, so the formula property is
        # checked at a fixed iteration count instead
        pc = mnist.pc
        prev = None
        for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
            cal = d2d_sigma_thm28(eps, mnist.delta, pc.M, pc.m, pc.n, pc.L, pc.d)
            if prev is not None:
                assert cal.I_min <= prev.I_min
            prev = cal

    def test_thm28_sigma_decreasing_in_eps_at_fixed_iterations(self, mnist):
        import math as _math

        pc = mnist.pc
        gamma = (pc.L - pc.m) / (pc.L + pc.m)
        b2 = 2.0 * _math.log(2.0 / mnist.delta)
        I = 100

        def sigma_at(eps):
            gI = gamma ** I
            return 8.0 * pc.M * gI / (pc.m * pc.n * (1.0 - gI) * (
                _math.sqrt(b2 + 3 * eps) - _math.sqrt(b2 + 2 * eps)))

        vals = [sigma_at(e) for e in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestEngine:
    def test_train_deterministic_and_geometric(self):
        center = np.array([0.3, -0.7, 0.2])
        obj = quadratic_objective(center, 0.5, radius=50.0)
        # quadratic: L = m, so gamma = 0 and one step lands on the optimum
        w1 = d2d_train(obj, 3, np.array([5.0, 5.0, 5.0]))
        w2 = d2d_train(obj, 3, np.array([5.0, 5.0, 5.0]))
        assert np.array_equal(w1, w2)
        assert w1 == pytest.approx(center, abs=1e-14)

    def test_zero_gradient_fixed_point(self):
        obj = quadratic_objective(np.zeros(2), 1.0, radius=5.0)
        w = d2d_train(obj, 10, np.zeros(2))
        assert np.array_equal(w, np.zeros(2))

    def test_t_zero_keeps_init(self):
        obj = quadratic_objective(np.ones(2), 1.0, radius=5.0)
        init = np.array([0.5, 0.5])
        assert np.array_equal(d2d_train(obj, 0, init), init)

    def test_unlearn_noiseless_stationary(self):
        center = np.array([0.1, 0.2])
        obj = quadratic_objective(center, 1.0, radius=5.0)
        got = d2d_unlearn(center.copy(), obj, 0, 0.0, make_rng(0))
        assert np.array_equal(got, center)
        got = d2d_unlearn(center.copy(), obj, 3, 0.0, make_rng(0))
        assert got == pytest.approx(center, abs=1e-14)

    @pytest.mark.parametrize("sigma", [math.inf, math.nan, -1.0])
    def test_unlearn_rejects_a_non_finite_or_negative_noise_scale(self, sigma):
        obj = quadratic_objective(np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="sigma must be finite and >= 0"):
            d2d_unlearn(np.zeros(3), obj, 2, sigma, make_rng(0))

    def test_unlearn_names_its_own_step_count(self):
        # a fractional I was reported as d2d_train's T
        obj = quadratic_objective(np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="^I must be an integer >= 0"):
            d2d_unlearn(np.zeros(3), obj, 2.5, 0.1, make_rng(0))

    def test_unlearn_of_i_steps_makes_i_grad_calls(self):
        obj = objective_for(make_synthetic(SyntheticSpec(n=150, d=6), seed=21))
        calls = []
        counted = dataclasses.replace(obj, grad=lambda w: calls.append(1) or obj.grad(w))
        d2d_unlearn(np.zeros(6), counted, 5, 0.5, make_rng(0))
        assert len(calls) == 5

    def test_config_requires_contraction(self):
        for m in (0.0, 1.0):  # no strong convexity; m = L, no contraction
            with pytest.raises(ValueError):
                d2d_sigma_thm9(1.0, 1e-3, 1, M=1.0, m=m, n=100, L=1.0)
            with pytest.raises(ValueError):
                d2d_sigma_thm28(1.0, 1e-3, M=1.0, m=m, n=100, L=1.0, d=5)
        cal = d2d_sigma_thm28(1.0, 1e-3, M=1.0, m=0.5, n=100, L=1.0, d=5)
        assert cal.gamma == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_thm9_without_steps_is_infeasible(self):
        with pytest.raises(InfeasibleBudget, match="I must be >= 1"):
            d2d_sigma_thm9(1.0, 1e-3, 0, M=1.0, m=0.5, n=100, L=1.0)

    @pytest.mark.parametrize("eps,m", [(1e-17, 0.5), (1e-300, 0.5), (1.0, 1e-20)],
                             ids=["sqrt_gap_rounds_to_0", "tiny_eps", "gamma_rounds_to_1"])
    def test_zero_divisor_is_infeasible(self, eps, m):
        with pytest.raises(InfeasibleBudget, match="divides by zero"):
            d2d_sigma_thm9(eps, 1e-3, 1, M=1.0, m=m, n=100, L=1.0)
        with pytest.raises(InfeasibleBudget, match="divides by zero"):
            d2d_sigma_thm28(eps, 1e-3, M=1.0, m=m, n=100, L=1.0, d=5)

    @pytest.mark.parametrize("eps,delta", [(math.inf, 1e-3), (math.nan, 1e-3), (1.0, 1e-310),
                                           (1.0, 0.0)])
    def test_non_finite_eps_or_log_delta_is_rejected(self, eps, delta):
        # inf eps or 1/delta past float64 gave a math-domain error or sigma = nan
        with pytest.raises(ValueError, match="eps must be" if delta == 1e-3 else "delta must"):
            d2d_sigma_thm9(eps, delta, 1, M=1.0, m=0.5, n=100, L=1.0)
        with pytest.raises(ValueError, match="eps must be" if delta == 1e-3 else "delta must"):
            d2d_sigma_thm28(eps, delta, M=1.0, m=0.5, n=100, L=1.0, d=5)

    def test_thm28_iterations_past_float64_are_infeasible(self, cifar_multi):
        # 4*d*i/delta overflows past i = 8777 at delta = 1e-300 (d = 5120)
        pc = cifar_multi.pc
        cal = d2d_sigma_thm28(1.0, 1e-300, pc.M, pc.m, pc.n, pc.L, pc.d)
        assert cal.I_min < cal.iterations(8777) < math.inf
        with pytest.raises(InfeasibleBudget, match=r"request 8778: .* at delta=1e-300;"):
            cal.iterations(8778)


def test_stateless_calibration_counts_parameters(cifar_multi, mnist):
    """The stateless calibration takes the parameter count: d*c weights on a
    c-class preset (cifar10-multi: 512 features x 10 classes), d on a binary
    one, in the d2d report and in the unlearn-one protocol alike."""
    for preset, d in ((cifar_multi, 5120), (mnist, 724)):
        pc = preset.pc
        for eps in (0.05, 1.0):
            cal = d2d_sigma_thm28(eps, preset.delta, pc.M, pc.m, pc.n, pc.L, d)
            row = _report_rows(preset.name, preset.pc, preset.delta, (eps,))[-1]
            assert row[1:5] == ["stateless", str(cal.I_min), f"{eps:g}", f"{cal.sigma:.6g}"]
            got, = run_unlearn_one(ExperimentConfig(preset=preset.name, method="d2d_thm28",
                                                    eps_targets=(eps,), trials=0))
            assert (got.sigma, got.k_total) == (cal.sigma, cal.iterations(1))
    pc = cifar_multi.pc
    assert d2d_sigma_thm28(1.0, cifar_multi.delta, pc.M, pc.m, pc.n, pc.L, 5120).I_min == 98
