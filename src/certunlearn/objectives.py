"""Objective functions with certified constants, plus dataset plumbing.

An "objective bundle" couples a dataset with loss/gradient callables and the
(L, m, M, ...) constants the accountant consumes. Gradients follow the
DP-SGD convention: the per-sample data gradient is clipped to norm M, the
clipped gradients are averaged, and the l2 regularizer lam*w is added after
clipping, so M certifies the data term alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import ProblemConstants
from .pngd import make_rng

DEFAULT_RADIUS = 100.0
UNIT_NORM_ATOL = 1e-12


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus labels.

    Binary labels are a length-n vector in {-1, +1}; multiclass labels are
    an n-by-c one-hot matrix. `normalized` asserts unit-norm feature rows.
    """

    features: np.ndarray
    labels: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)
        if X.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {X.shape}")
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"{X.shape[0]} feature rows but {y.shape[0]} labels")
        if y.ndim == 1:
            if not np.all(np.isin(y, (-1, 1))):
                raise ValueError("binary labels must take values in {-1, +1}")
        elif y.ndim == 2:
            if y.shape[1] < 2:
                raise ValueError("one-hot labels need at least 2 columns")
            if not (np.all(np.isin(y, (0, 1))) and np.all(y.sum(axis=1) == 1)):
                raise ValueError("multiclass labels must be one-hot rows")
        else:
            raise ValueError(f"labels must be 1-D or 2-D, got shape {y.shape}")
        if self.normalized:
            norms = np.linalg.norm(X, axis=1)
            if not np.allclose(norms, 1.0, rtol=0.0, atol=UNIT_NORM_ATOL):
                worst = int(np.argmax(np.abs(norms - 1.0)))
                raise ValueError(
                    f"dataset marked normalized but row {worst} has norm {norms[worst]!r}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def n_classes(self) -> int:
        return 2 if self.labels.ndim == 1 else self.labels.shape[1]

    @property
    def is_multiclass(self) -> bool:
        return self.labels.ndim == 2


def normalize_rows(X: np.ndarray) -> np.ndarray:
    """Scale every row to unit Euclidean norm (zero rows left untouched)."""
    X = np.asarray(X, dtype=float)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return X / safe


@dataclass(frozen=True)
class UnlearningRequest:
    """Replacement-based removal request: the rows at `indices` are replaced
    by fresh random samples drawn deterministically from `replacement_seed`."""

    indices: tuple[int, ...]
    replacement_seed: int

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(set(idx)) != len(idx):
            raise ValueError("request indices must be distinct")


def apply_request(data: Dataset, req: UnlearningRequest,
                  renormalize: bool = True) -> Dataset:
    """Replace the requested rows with standard-Gaussian features and
    uniformly random labels; all other rows are bit-identical.

    Replacement features are renormalized to unit norm by default so the
    certified clip constant still holds; pass renormalize=False for raw
    draws (which then force normalized=False on the result).
    """
    for i in req.indices:
        if not 0 <= i < data.n:
            raise IndexError(f"request index {i} outside [0, {data.n})")
    if not req.indices:
        return data
    rng = make_rng(req.replacement_seed)
    rows = np.array(req.indices, dtype=int)
    fresh = rng.standard_normal((len(rows), data.d))
    if renormalize:
        fresh = normalize_rows(fresh)
    X = data.features.copy()
    X[rows] = fresh
    y = data.labels.copy()
    if data.is_multiclass:
        from .data import one_hot  # data.py imports this module
        y[rows] = one_hot(rng.integers(0, data.n_classes, size=len(rows)), data.n_classes)
    else:
        y[rows] = rng.integers(0, 2, size=len(rows)) * 2 - 1
    return Dataset(features=X, labels=y,
                   normalized=data.normalized and renormalize)


@dataclass(frozen=True)
class Objective:
    """Loss/gradient callables bound to a dataset, with certified constants.

    grad(w) returns the full-batch update direction: mean of per-sample
    clipped data gradients plus the regularizer. per_sample_grad(w) exposes
    the raw (pre-clip) per-sample data gradients for verification.
    """

    loss: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    per_sample_grad: Callable[[np.ndarray], np.ndarray]
    constants: ProblemConstants
    data: Dataset | None = None
    lam: float = 0.0
    name: str = "objective"

    @property
    def shape(self) -> tuple[int, ...]:
        """Parameter shape: (d, c) for one-hot data, else (constants.d,)."""
        onehot = self.data is not None and self.data.is_multiclass
        return (self.data.d, self.data.n_classes) if onehot else (self.constants.d,)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # exp(-|t|) is exp(-t) where t >= 0 and exp(t) elsewhere, so one exp gives
    # both branches 1/(1 + exp(-t)) and exp(t)/(1 + exp(t)) bit for bit.
    e = np.abs(t)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(t >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def logistic_objective(data: Dataset, lam: float | None = None,
                       radius: float = DEFAULT_RADIUS,
                       allow_unnormalized: bool = False) -> Objective:
    """l2-regularized binary logistic regression with per-sample clipping.

    Constants: L = 1/4 + lam, m = lam, M = 1. lam defaults to 1e-6 * n.
    Unit-norm features keep the raw per-sample gradient norm at most 1, so
    the clip is inactive on normalized data; unnormalized data is rejected
    unless explicitly allowed.

    The per-sample gradient norm is |coef| * ||x_i|| with |coef| <= 1 exactly
    in floating point, so only rows with ||x_i|| > M can ever clip. Their
    indices are found once here; grad checks only those rows and rescales
    them only when one exceeds M. Every other row keeps scale 1.0 exactly,
    so the result is bit-identical to clipping all n rows with the
    two-branch sigmoid.
    """
    if data.is_multiclass:
        raise ValueError("logistic_objective expects binary labels; use multiclass_objective")
    if not data.normalized and not allow_unnormalized:
        raise ValueError("dataset is not normalized; pass allow_unnormalized=True to override")
    if lam is None:
        lam = 1e-6 * data.n
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    X, y = data.features, data.labels.astype(float)
    n = data.n
    row_norms = np.linalg.norm(X, axis=1)
    M = 1.0
    long_rows = np.flatnonzero(row_norms > M)
    long_norms = row_norms[long_rows]
    pc = ProblemConstants(L=0.25 + lam, m=lam, M=M, R=radius, n=n, d=data.d, lam=lam)

    def loss(w: np.ndarray) -> float:
        return _logistic_loss(X @ w, y, w, lam)

    def per_sample_grad(w: np.ndarray) -> np.ndarray:
        coef = (_sigmoid(y * (X @ w)) - 1.0) * y
        return coef[:, None] * X

    def grad(w: np.ndarray) -> np.ndarray:
        margins = X @ w
        margins *= y
        coef = _sigmoid(margins)
        coef -= 1.0
        coef *= y
        norms = np.abs(coef[long_rows]) * long_norms
        over = norms > M
        if over.any():
            coef[long_rows] *= np.where(over, M / np.where(norms > 0, norms, 1.0), 1.0)
        g = X.T @ coef
        g /= n
        g += lam * w
        return g

    return Objective(loss=loss, grad=grad, per_sample_grad=per_sample_grad,
                     constants=pc, data=data, lam=lam, name="logistic")


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def multiclass_objective(data: Dataset, lam: float | None = None,
                         radius: float = DEFAULT_RADIUS,
                         allow_unnormalized: bool = False) -> Objective:
    """Softmax cross-entropy over c classes with per-sample clipping.

    Weights are a d-by-c matrix; the per-sample gradient is the outer
    product x (p - y)^T with Frobenius norm at most sqrt(2) for unit-norm x,
    certified by the clip constant M = 2. Constants: L = 1 + lam, m = lam.
    """
    if not data.is_multiclass:
        raise ValueError("multiclass_objective expects one-hot labels")
    if not data.normalized and not allow_unnormalized:
        raise ValueError("dataset is not normalized; pass allow_unnormalized=True to override")
    if lam is None:
        lam = 1e-6 * data.n
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    X, Y = data.features, data.labels.astype(float)
    n, d, c = data.n, data.d, data.n_classes
    row_norms = np.linalg.norm(X, axis=1)
    M = 2.0
    pc = ProblemConstants(L=1.0 + lam, m=lam, M=M, R=radius, n=n, d=d * c, lam=lam)

    def loss(W: np.ndarray) -> float:
        _check_weight_shape(W, d, c)
        return _softmax_loss(X @ W, Y, W, lam)

    def per_sample_grad(W: np.ndarray) -> np.ndarray:
        _check_weight_shape(W, d, c)
        resid = _softmax(X @ W) - Y
        return X[:, :, None] * resid[:, None, :]

    def grad(W: np.ndarray) -> np.ndarray:
        _check_weight_shape(W, d, c)
        resid = _softmax(X @ W) - Y
        norms = row_norms * np.linalg.norm(resid, axis=1)
        scale = np.where(norms > M, M / np.where(norms > 0, norms, 1.0), 1.0)
        return X.T @ (resid * scale[:, None]) / n + lam * W

    return Objective(loss=loss, grad=grad, per_sample_grad=per_sample_grad,
                     constants=pc, data=data, lam=lam, name="multiclass")


def objective_for(data: Dataset, **kw) -> Objective:
    """The softmax objective for one-hot data, else the logistic one."""
    build = multiclass_objective if data.is_multiclass else logistic_objective
    return build(data, **kw)


def _check_weight_shape(W: np.ndarray, d: int, c: int) -> None:
    if W.shape != (d, c):
        raise ValueError(f"weights must have shape ({d}, {c}), got {W.shape}")


def quadratic_objective(center: np.ndarray, m_curv: float,
                        radius: float = DEFAULT_RADIUS) -> Objective:
    """Exact-answer test objective f(x) = (m/2) ||x - center||^2.

    L = m = m_curv and the gradient is exact (never clipped), which makes
    contraction and stationarity checks closed-form.
    """
    if not m_curv > 0:
        raise ValueError(f"m_curv must be positive, got {m_curv}")
    center = np.asarray(center, dtype=float)
    d = center.size
    M = m_curv * (float(np.linalg.norm(center)) + radius)
    pc = ProblemConstants(L=m_curv, m=m_curv, M=max(M, 1e-12), R=radius, n=1, d=d)

    def loss(x: np.ndarray) -> float:
        diff = x - center
        return float(0.5 * m_curv * (diff @ diff))

    def grad(x: np.ndarray) -> np.ndarray:
        return m_curv * (x - center)

    def per_sample_grad(x: np.ndarray) -> np.ndarray:
        return (m_curv * (x - center))[None, :]

    return Objective(loss=loss, grad=grad, per_sample_grad=per_sample_grad,
                     constants=pc, data=None, lam=0.0, name="quadratic")


def _logistic_loss(scores: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    """Mean logistic loss of scores x.w against -1/+1 labels, plus (lam/2)||w||^2."""
    # log(1 + exp(-t)) evaluated stably
    return float(np.mean(np.logaddexp(0.0, -(y * scores))) + 0.5 * lam * (w @ w))


def _softmax_loss(Z: np.ndarray, Y: np.ndarray, W: np.ndarray, lam: float) -> float:
    """Mean cross-entropy of scores X @ W against one-hot Y, plus (lam/2)||W||^2."""
    Z = Z - Z.max(axis=1, keepdims=True)
    log_probs = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
    return float(np.mean(-np.sum(Y * log_probs, axis=1)) + 0.5 * lam * np.sum(W * W))


def _predict(scores: np.ndarray) -> np.ndarray:
    """Labels from scores: sign with the tie sign(0) -> +1 for a score
    vector, argmax with ties to the lowest class index for a matrix."""
    if scores.ndim == 1:
        return np.where(scores >= 0.0, 1, -1)
    return np.argmax(scores, axis=1)


def evaluate(params: np.ndarray, data: Dataset,
             lam: float = 0.0) -> tuple[float, float]:
    """Mean loss and classification accuracy of `params` on `data`."""
    params = np.asarray(params, dtype=float)
    if data.is_multiclass:
        _check_weight_shape(params, data.d, data.n_classes)
        loss, truth = _softmax_loss, np.argmax(data.labels, axis=1)
    elif params.shape != (data.d,):
        raise ValueError(f"params must have shape ({data.d},), got {params.shape}")
    else:
        loss, truth = _logistic_loss, data.labels
    scores = data.features @ params
    return loss(scores, data.labels, params, lam), float(np.mean(_predict(scores) == truth))
