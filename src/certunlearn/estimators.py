"""Estimator-style adapters over the PNGD and Delete-to-Descent engines.

The classes follow the fit/predict/get_params convention so they compose
with pipeline tooling: hyperparameters are the dataclass fields, stored
verbatim, learned state lives in trailing-underscore attributes, and
`unlearn` consumes the post-removal data like a partial refit. The model,
its loss and its prediction rule are the library's own.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import d2d as _d2d
from . import pngd as _pngd
from .constants import NoiseSchedule, default_c0, regime_for
from .data import one_hot
from .objectives import Dataset, _predict, evaluate, objective_for
from .validation import check_X_y, check_array, check_is_fitted


class _LinearClassifier:
    """get_params/set_params over the dataclass fields, plus label handling
    and prediction for a ball-constrained linear model."""

    coef_ = None

    def get_params(self, deep: bool = True) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def set_params(self, **params):
        valid = {f.name for f in fields(self)}
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def _build_dataset(self, X, y) -> Dataset:
        X, y = check_X_y(X, y)
        classes = np.unique(y)
        if set(classes.tolist()) <= {-1, 1} and len(classes) <= 2:
            self.classes_ = np.array([-1, 1])
            return Dataset(features=X, labels=y.astype(int), normalized=False)
        if np.any(classes < 0):
            raise ValueError("labels must be {-1,+1} (binary) or 0..c-1 (multiclass)")
        c = int(classes.max()) + 1
        if c < 2:
            raise ValueError("need at least 2 classes")
        self.classes_ = np.arange(c)
        return Dataset(features=X, labels=one_hot(y, c), normalized=False)

    def _objective(self, X, y):
        return objective_for(self._build_dataset(X, y), lam=self.lam, radius=self.radius,
                             allow_unnormalized=True)

    def decision_function(self, X):
        check_is_fitted(self)
        return check_array(X) @ self.coef_

    def predict(self, X):
        return _predict(self.decision_function(X))

    def score(self, X, y) -> float:
        """Mean classification accuracy."""
        X, y = check_X_y(X, y)
        return float(np.mean(self.predict(X) == y))


@dataclass(eq=False)
class NoisyGDClassifier(_LinearClassifier):
    """l2-regularized logistic regression trained by projected noisy GD.

    fit runs `n_iter` noisy steps from a far Gaussian initialization;
    `unlearn` fine-tunes the fitted weights on replacement data for
    `k_unlearn` (or an explicit k) steps, drawing fresh noise from the same
    generator stream. eta defaults to 1/L and lam to 1e-6 * n.

    Parameters mirror the accountant's: pick (sigma, k) with
    `certunlearn.calibrate` to make `unlearn` a certified removal.
    """

    sigma: float = 0.03
    eta: float | None = None
    n_iter: int = 10000
    k_unlearn: int = 1
    lam: float | None = None
    radius: float = 100.0
    init_mean: float = 1000.0
    random_state: int = 0

    def _schedule(self, objective, T) -> NoiseSchedule:
        eta = self.eta if self.eta is not None else 1.0 / objective.constants.L
        return NoiseSchedule(eta=eta, sigma=self.sigma, T=T, K=int(self.k_unlearn))

    def fit(self, X, y):
        objective = self._objective(X, y)
        ns = self._schedule(objective, T=int(self.n_iter))
        self._rng = _pngd.make_rng(self.random_state)
        pc = objective.constants
        init = _pngd.InitSpec(mean=self.init_mean, variance=default_c0(pc, ns, regime_for(pc)))
        self.coef_ = _pngd.train(objective, ns, init, self._rng)
        self.n_features_in_ = objective.data.d
        return self

    def unlearn(self, X, y, k=None):
        """Fine-tune on the post-removal dataset for k noisy steps."""
        check_is_fitted(self)
        objective = self._objective(X, y)
        k = int(self.k_unlearn if k is None else k)
        self.coef_ = _pngd.unlearn(self.coef_, objective, k, self._schedule(objective, T=0),
                                   self._rng)
        return self

    def loss(self, X, y) -> float:
        check_is_fitted(self)
        objective = self._objective(X, y)
        return evaluate(self.coef_, objective.data, lam=objective.lam)[0]


@dataclass(eq=False)
class D2DClassifier(_LinearClassifier):
    """Delete-to-Descent: deterministic projected GD learning and
    fine-tune-then-perturb unlearning.

    `internal_state` selects which iterate later requests resume from: the
    pre-noise one (weaker privacy notion, kept privately by the estimator)
    or the published noisy one.
    """

    n_iter: int = 10000
    i_unlearn: int = 1
    noise_std: float = 0.0
    lam: float | None = None
    radius: float = 100.0
    init_mean: float = 1000.0
    internal_state: bool = False
    random_state: int = 0

    def fit(self, X, y):
        objective = self._objective(X, y)
        self._rng = _pngd.make_rng(self.random_state)
        init = _pngd.draw_init(_pngd.InitSpec(mean=self.init_mean, variance=1.0),
                               objective.shape, self.radius, self._rng)
        self.coef_ = _d2d.d2d_train(objective, int(self.n_iter), init)
        self._clean_coef = self.coef_ if self.internal_state else None
        self.n_features_in_ = objective.data.d
        return self

    def unlearn(self, X, y, i=None, noise_std=None):
        """I deterministic steps on the post-removal data, then the noise.
        With internal_state the pre-noise iterate is kept for the next call."""
        check_is_fitted(self)
        objective = self._objective(X, y)
        i = int(self.i_unlearn if i is None else i)
        sigma = float(self.noise_std if noise_std is None else noise_std)
        start = self._clean_coef if self.internal_state else self.coef_
        clean = _d2d.d2d_train(objective, i, start)
        self.coef_ = _d2d._perturb(clean, sigma, self._rng)
        if self.internal_state:
            self._clean_coef = clean
        return self
