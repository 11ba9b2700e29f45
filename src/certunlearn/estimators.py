"""Estimator-style wrappers over the PNGD and Delete-to-Descent engines.

The classes follow the fit/predict/get_params convention so they compose
with pipeline tooling: hyperparameters are constructor arguments stored
verbatim, learned state lives in trailing-underscore attributes, and
`unlearn` consumes the post-removal data like a partial refit.
"""
from __future__ import annotations

import inspect

import numpy as np

from . import d2d as _d2d
from . import pngd as _pngd
from .constants import NoiseSchedule, default_c0, regime_for
from .objectives import Dataset, evaluate, objective_for
from .validation import check_X_y, check_array, check_is_fitted


class BaseEstimator:
    """get_params/set_params over the constructor signature."""

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p.name for p in sig.parameters.values() if p.name != "self"]

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for key, value in params.items():
            if key not in valid:
                raise ValueError(f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class _LinearClassifierMixin:
    """Shared label handling for ball-constrained linear classifiers."""

    def _build_dataset(self, X, y) -> Dataset:
        X, y = check_X_y(X, y)
        norms = np.linalg.norm(X, axis=1)
        normalized = bool(np.allclose(norms, 1.0, rtol=0.0, atol=1e-12))
        classes = np.unique(y)
        if set(classes.tolist()) <= {-1, 1} and len(classes) <= 2:
            labels = y.astype(int)
            self.classes_ = np.array([-1, 1])
            return Dataset(features=X, labels=labels, normalized=normalized)
        if np.any(classes < 0):
            raise ValueError("labels must be {-1,+1} (binary) or 0..c-1 (multiclass)")
        c = int(classes.max()) + 1
        if c < 2:
            raise ValueError("need at least 2 classes")
        onehot = np.zeros((len(y), c), dtype=int)
        onehot[np.arange(len(y)), y] = 1
        self.classes_ = np.arange(c)
        return Dataset(features=X, labels=onehot, normalized=normalized)

    def _objective(self, data: Dataset):
        return objective_for(data, lam=self.lam, radius=self.radius,
                             allow_unnormalized=not data.normalized)

    def decision_function(self, X):
        check_is_fitted(self)
        X = check_array(X)
        return X @ self.coef_

    def predict(self, X):
        scores = self.decision_function(X)
        if scores.ndim == 1:
            return np.where(scores >= 0.0, 1, -1)
        return np.argmax(scores, axis=1)

    def score(self, X, y) -> float:
        """Mean classification accuracy."""
        X, y = check_X_y(X, y)
        pred = self.predict(X)
        return float(np.mean(pred == y))


class NoisyGDClassifier(BaseEstimator, _LinearClassifierMixin):
    """l2-regularized logistic regression trained by projected noisy GD.

    fit runs `n_iter` noisy steps from a far Gaussian initialization;
    `unlearn` fine-tunes the fitted weights on replacement data for
    `k_unlearn` (or an explicit k) steps, drawing fresh noise from the same
    generator stream. eta defaults to 1/L and lam to 1e-6 * n.

    Parameters mirror the accountant's: pick (sigma, k) with
    `certunlearn.calibrate` to make `unlearn` a certified removal.
    """

    def __init__(self, sigma=0.03, eta=None, n_iter=10000, k_unlearn=1,
                 lam=None, radius=100.0, init_mean=1000.0, random_state=0):
        self.sigma = sigma
        self.eta = eta
        self.n_iter = n_iter
        self.k_unlearn = k_unlearn
        self.lam = lam
        self.radius = radius
        self.init_mean = init_mean
        self.random_state = random_state
        self.coef_ = None

    def _schedule(self, objective, T) -> NoiseSchedule:
        eta = self.eta if self.eta is not None else 1.0 / objective.constants.L
        return NoiseSchedule(eta=eta, sigma=self.sigma, T=T, K=int(self.k_unlearn))

    def fit(self, X, y):
        data = self._build_dataset(X, y)
        objective = self._objective(data)
        ns = self._schedule(objective, T=int(self.n_iter))
        self._rng = _pngd.make_rng(self.random_state)
        c_init = default_c0(objective.constants, ns, regime_for(objective.constants))
        init = _pngd.InitSpec(mean=self.init_mean, variance=c_init)
        self.coef_ = _pngd.train(objective, ns, init, self._rng)
        self.n_features_in_ = data.d
        return self

    def unlearn(self, X, y, k=None):
        """Fine-tune on the post-removal dataset for k noisy steps."""
        check_is_fitted(self)
        data = self._build_dataset(X, y)
        objective = self._objective(data)
        ns = self._schedule(objective, T=0)
        k = int(self.k_unlearn if k is None else k)
        self.coef_ = _pngd.unlearn(self.coef_, objective, k, ns, self._rng)
        return self

    def loss(self, X, y) -> float:
        check_is_fitted(self)
        data = self._build_dataset(X, y)
        lam = self.lam if self.lam is not None else 1e-6 * data.n
        return evaluate(self.coef_, data, lam=lam)[0]


class D2DClassifier(BaseEstimator, _LinearClassifierMixin):
    """Delete-to-Descent: deterministic projected GD learning and
    fine-tune-then-perturb unlearning.

    `internal_state` selects which iterate later requests resume from: the
    pre-noise one (weaker privacy notion, kept privately by the estimator)
    or the published noisy one.
    """

    def __init__(self, n_iter=10000, i_unlearn=1, noise_std=0.0, lam=None,
                 radius=100.0, init_mean=1000.0, internal_state=False,
                 random_state=0):
        self.n_iter = n_iter
        self.i_unlearn = i_unlearn
        self.noise_std = noise_std
        self.lam = lam
        self.radius = radius
        self.init_mean = init_mean
        self.internal_state = internal_state
        self.random_state = random_state
        self.coef_ = None

    def fit(self, X, y):
        data = self._build_dataset(X, y)
        objective = self._objective(data)
        self._rng = _pngd.make_rng(self.random_state)
        init = _pngd.draw_init(_pngd.InitSpec(mean=self.init_mean, variance=1.0),
                               objective.shape, self.radius, self._rng)
        w = _d2d.d2d_train(objective, int(self.n_iter), init)
        self._clean_coef = w if self.internal_state else None
        self.coef_ = w
        self.n_features_in_ = data.d
        return self

    def unlearn(self, X, y, i=None, noise_std=None):
        check_is_fitted(self)
        data = self._build_dataset(X, y)
        objective = self._objective(data)
        i = int(self.i_unlearn if i is None else i)
        sigma = float(self.noise_std if noise_std is None else noise_std)
        start = self._clean_coef if self.internal_state else self.coef_
        w = _d2d.d2d_unlearn(start, objective, i, sigma, self._rng)
        if self.internal_state:
            self._clean_coef = _d2d.d2d_train(objective, i, start)
        self.coef_ = w
        return self
