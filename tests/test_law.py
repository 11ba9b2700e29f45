"""The engine samples the law its certificate is about.

On f(x) = (m/2)||x - c||^2 every coordinate of a PNGD chain is an independent
Gaussian AR(1) chain, x <- (1 - eta m) x + eta m c + sqrt(2 eta sigma^2) xi,
whose stationary law is N(c, v) with v = 2 sigma^2 / (m (2 - eta m)). Train
T steps on centre 0 from N(0, v), then unlearn K steps on centre 0.5, which
stands for the updated dataset D': each coordinate's law is then
N(0.5 (1 - (1 - eta m)^K), v). With d coordinates the sample mean and
variance pin that law to a standard error of sqrt(v/d) and v sqrt(2/(d-1)),
and a chain composed wrongly (noise scaled wrongly, a step short,
fine-tuning on D) moves one of them by many standard errors.
"""
import math

import numpy as np
import pytest

from certunlearn import InitSpec, NoiseSchedule, make_rng, pngd, quadratic_objective

D, M_CURV, ETA, SIGMA, R, T = 20_000, 1.0, 0.2, 0.3, 1e6, 400
CENTER = 0.5
KS = (0, 1, 5, 20)
V = 2.0 * SIGMA ** 2 / (M_CURV * (2.0 - ETA * M_CURV))
Z_GATE = 4.0


def z_scores(K):
    """(mean z, variance z) of K-step unlearned weights against the closed-form law."""
    ns = NoiseSchedule(eta=ETA, sigma=SIGMA, T=T, K=K)
    rng = make_rng(100 + K)
    learned = quadratic_objective(np.zeros(D), M_CURV, radius=R)
    updated = quadratic_objective(np.full(D, CENTER), M_CURV, radius=R)
    w = pngd.train(learned, ns, InitSpec(mean=0.0, variance=V), rng)
    w = pngd.unlearn(w, updated, K, ns, rng)
    mean = CENTER * (1.0 - (1.0 - ETA * M_CURV) ** K)
    mean_z = (w.mean() - mean) / math.sqrt(V / D)
    var_z = (w.var(ddof=1) - V) / (V * math.sqrt(2.0 / (D - 1)))
    return mean_z, var_z


def check_law():
    for K in KS:
        mean_z, var_z = z_scores(K)
        assert abs(mean_z) <= Z_GATE and abs(var_z) <= Z_GATE, (K, mean_z, var_z)


def test_unlearned_chain_samples_the_closed_form_law():
    check_law()


def _noise_times_sqrt2(monkeypatch):
    scale = pngd._noise_scale
    monkeypatch.setattr(pngd, "_noise_scale", lambda eta, sigma: math.sqrt(2.0) * scale(eta, sigma))


def _one_step_short(monkeypatch):
    unlearn = pngd.unlearn
    monkeypatch.setattr(pngd, "unlearn",
                        lambda w, objective, K, ns, rng: unlearn(w, objective, max(K - 1, 0), ns, rng))


def _fine_tunes_on_d(monkeypatch):
    train, unlearn, trained_on = pngd.train, pngd.unlearn, []
    monkeypatch.setattr(pngd, "train",
                        lambda objective, *args: trained_on.append(objective) or train(objective, *args))
    monkeypatch.setattr(pngd, "unlearn",
                        lambda w, objective, *args: unlearn(w, trained_on[-1], *args))


@pytest.mark.parametrize("mutate", [_noise_times_sqrt2, _one_step_short, _fine_tunes_on_d])
def test_a_wrongly_composed_chain_fails_the_law(monkeypatch, mutate):
    mutate(monkeypatch)
    with pytest.raises(AssertionError):
        check_law()
