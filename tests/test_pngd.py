import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certunlearn import (InitSpec, NoiseSchedule, make_rng, pngd_step,
                         project_ball, quadratic_objective, train, unlearn)


class TestProjection:
    def test_inside_ball_unchanged(self):
        v = np.array([3.0, 4.0])
        assert project_ball(v, 10.0) is v or np.array_equal(project_ball(v, 10.0), v)

    def test_boundary_unchanged(self):
        v = np.array([3.0, 4.0])
        assert np.array_equal(project_ball(v, 5.0), v)

    def test_outside_scaled(self):
        got = project_ball(np.array([3.0, 4.0]), 1.0)
        assert got == pytest.approx([0.6, 0.8], rel=1e-15)

    def test_matrix_frobenius(self):
        W = np.full((2, 2), 2.0)  # frobenius norm 4
        got = project_ball(W, 2.0)
        assert np.linalg.norm(got) == pytest.approx(2.0, rel=1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
           st.floats(1e-3, 1e3))
    def test_idempotent_and_feasible(self, vals, radius):
        v = np.array(vals)
        once = project_ball(v, radius)
        assert np.linalg.norm(once) <= radius * (1 + 1e-12)
        # idempotent up to one rounding of the rescale
        twice = project_ball(once, radius)
        np.testing.assert_allclose(twice, once, rtol=1e-15, atol=0.0)

    def test_clip_cases(self):
        assert np.array_equal(project_ball(np.zeros(3), 1.0), np.zeros(3))
        v = np.array([0.6, 0.8])
        assert np.array_equal(project_ball(v, 1.0), v)
        doubled = project_ball(2.0 * v, 1.0)
        assert doubled == pytest.approx(v, rel=1e-15)

    @pytest.mark.parametrize("scale", [1e200, 1e300])
    def test_overflowing_norm_keeps_direction(self, scale):
        # the squared norm overflows (numpy warns); the projection must not
        # send v to zero but onto the sphere of radius R along v
        u = np.array([1.0, -2.0, 3.0])
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = project_ball(scale * u, 2.0)
        assert np.linalg.norm(got) == pytest.approx(2.0, rel=1e-15)
        assert got == pytest.approx(2.0 * u / np.linalg.norm(u), rel=1e-15)


class TestStep:
    def test_zero_noise_zero_step_is_identity(self):
        w = np.array([0.3, -0.2])
        got = pngd_step(w, lambda x: np.ones_like(x), eta=0.0, sigma=0.0, R=10.0,
                        rng=make_rng(0))
        assert np.array_equal(got, w)

    def test_zero_gradient_zero_noise(self):
        w = np.array([0.3, -0.2])
        got = pngd_step(w, lambda x: np.zeros_like(x), eta=0.5, sigma=0.0, R=10.0,
                        rng=make_rng(0))
        assert got == pytest.approx(w, rel=1e-15)

    def test_quadratic_contraction_closed_form(self):
        obj = quadratic_objective(np.zeros(2), 1.0, radius=10.0)
        rng = make_rng(1)
        w = np.array([1.0, 0.0])
        for t in range(1, 12):
            w = pngd_step(w, obj.grad, 0.5, 0.0, 10.0, rng)
            assert w == pytest.approx([0.5 ** t, 0.0], abs=1e-15)

    def test_consumes_exactly_d_draws(self):
        # identical keys; the step must advance the stream by exactly w.size
        rng_a, rng_b = make_rng(7), make_rng(7)
        w = np.zeros(5)
        pngd_step(w, lambda x: np.zeros_like(x), 0.1, 1.0, 100.0, rng_a)
        rng_b.standard_normal(5)
        assert rng_a.standard_normal() == rng_b.standard_normal()

    def test_ball_membership_random_steps(self):
        rng = make_rng(3)
        obj = quadratic_objective(np.array([5.0, -3.0, 1.0]), 2.0, radius=1.5)
        w = np.zeros(3)
        for _ in range(500):
            w = pngd_step(w, obj.grad, 0.4, 2.0, 1.5, rng)
            assert np.linalg.norm(w) <= 1.5 + 1e-12


class TestTrainUnlearn:
    def test_t_zero_returns_init(self):
        obj = quadratic_objective(np.zeros(3), 1.0)
        ns = NoiseSchedule(eta=0.1, sigma=1.0, T=0, K=0)
        init = np.array([1.0, 2.0, 3.0])
        got = train(obj, ns, init, make_rng(0))
        assert np.array_equal(got, init)

    def test_infinite_t_rejected(self):
        obj = quadratic_objective(np.zeros(3), 1.0)
        ns = NoiseSchedule(eta=0.1, sigma=1.0, T=np.inf, K=0)
        with pytest.raises(ValueError):
            train(obj, ns, np.zeros(3), make_rng(0))

    def test_deterministic_trajectories(self):
        obj = quadratic_objective(np.ones(4), 1.0)
        ns = NoiseSchedule(eta=0.2, sigma=0.7, T=50, K=0)
        w1 = train(obj, ns, InitSpec(mean=10.0, variance=2.0), make_rng(99))
        w2 = train(obj, ns, InitSpec(mean=10.0, variance=2.0), make_rng(99))
        assert np.array_equal(w1, w2)
        w3 = train(obj, ns, InitSpec(mean=10.0, variance=2.0), make_rng(100))
        assert not np.array_equal(w1, w3)

    def test_noiseless_training_contracts_to_optimum(self):
        center = np.array([0.5, -0.25, 0.1])
        obj = quadratic_objective(center, 0.8, radius=50.0)
        ns = NoiseSchedule(eta=1.0, sigma=0.0, T=60, K=0)
        x0 = np.array([5.0, 5.0, 5.0])
        w = train(obj, ns, x0, make_rng(0))
        bound = (1.0 - ns.eta * 0.8) ** ns.T * np.linalg.norm(x0 - center)
        assert np.linalg.norm(w - center) <= bound + 1e-12

    def test_unlearn_k0_is_identity(self):
        obj = quadratic_objective(np.zeros(2), 1.0)
        ns = NoiseSchedule(eta=0.1, sigma=1.0, T=0, K=0)
        w = np.array([0.4, 0.4])
        assert np.array_equal(unlearn(w, obj, 0, ns, make_rng(0)), w)

    def test_unlearn_stationary_point_noiseless(self):
        center = np.array([0.2, -0.1])
        obj = quadratic_objective(center, 1.0, radius=5.0)
        ns = NoiseSchedule(eta=0.3, sigma=0.0, T=0, K=4)
        got = unlearn(center.copy(), obj, 4, ns, make_rng(0))
        assert got == pytest.approx(center, abs=1e-15)

    def test_rejects_nan_init_mean_and_sigma(self):
        with pytest.raises(ValueError, match="init mean"):
            InitSpec(mean=np.nan)
        with pytest.raises(ValueError, match="sigma"):
            NoiseSchedule(eta=0.1, sigma=np.nan)

    def test_init_spec_projected_into_ball(self):
        obj = quadratic_objective(np.zeros(6), 1.0, radius=2.0)
        ns = NoiseSchedule(eta=0.1, sigma=0.5, T=0, K=0)
        w0 = train(obj, ns, InitSpec(mean=1000.0, variance=1.0), make_rng(5))
        assert np.linalg.norm(w0) <= 2.0 + 1e-12


class TestNoiseScale:
    # sigma ** 2 overflows; 2*eta*sigma^2 overflows; sigma is infinite
    @pytest.mark.parametrize("eta,sigma", [(0.1, 1e155), (1.0, 1e154), (0.1, math.inf)])
    def test_engines_reject_a_non_finite_noise_variance(self, eta, sigma):
        obj = quadratic_objective(np.zeros(3), 1.0)
        ns = NoiseSchedule(eta=eta, sigma=sigma, T=2, K=2)
        for run in (lambda: train(obj, ns, np.zeros(3), make_rng(0)),
                    lambda: train(obj, ns, InitSpec(), make_rng(0)),
                    lambda: unlearn(np.zeros(3), obj, 2, ns, make_rng(0)),
                    lambda: unlearn(np.zeros(3), obj, 0, ns, make_rng(0))):
            with pytest.raises(ValueError, match=r"noise variance 2\*eta\*sigma\^2 must be finite"):
                run()

    @pytest.mark.parametrize("sigma", [1e155, math.inf])
    def test_step_rejects_a_non_finite_noise_variance(self, sigma):
        # a bare OverflowError at 1e155 and nan weights at inf, before the check
        with pytest.raises(ValueError, match=r"noise variance 2\*eta\*sigma\^2 must be finite"):
            pngd_step(np.zeros(3), lambda x: np.zeros_like(x), 0.1, sigma, 10.0, make_rng(0))

    def test_increment_variance_matches_schedule(self):
        # grad = 0, huge ball: increments are pure noise of variance 2*eta*sigma^2
        eta, sigma = 0.3, 0.8
        rng = make_rng(11)
        d, steps = 500, 40  # 20k draws: a quick version of the acceptance check
        w = np.zeros(d)
        diffs = []
        for _ in range(steps):
            w2 = pngd_step(w, lambda x: np.zeros_like(x), eta, sigma, 1e9, rng)
            diffs.append(w2 - w)
            w = w2
        samples = np.concatenate(diffs)
        target = 2.0 * eta * sigma ** 2
        se = target * np.sqrt(2.0 / (samples.size - 1))
        assert abs(samples.var(ddof=1) - target) <= 3.0 * se
