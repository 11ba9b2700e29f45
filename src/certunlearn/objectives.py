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
_BLOCK_BYTES = 1 << 20  # temporary a row-wise pass over an n-by-d array may build


def _row_blocks(X: np.ndarray):
    """Slices of consecutive rows of X, each about _BLOCK_BYTES of it, so a
    row-wise pass builds block-sized temporaries instead of n-by-d ones. No
    slice holds a lone row of several: numpy may sum a lone row of a strided
    X in another order than it sums that row within X."""
    n = X.shape[0]
    count = max(1, min(n // 2, -(-X.nbytes // _BLOCK_BYTES)))
    return (slice(n * i // count, n * (i + 1) // count) for i in range(count))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=1) bit for bit, for a 2-D X of any layout,
    reduced a row block at a time, which sums each row in the same order and
    skips the n-by-d X*X temporary."""
    out = np.empty(X.shape[0])
    for rows in _row_blocks(X):
        out[rows] = np.linalg.norm(X[rows], axis=1)
    return out


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Divide each nonzero row of the float array X by its norm, in place."""
    norms = _row_norms(X)
    norms[norms == 0.0] = 1.0
    X /= norms[:, None]
    return X


def _off_unit_row(X: np.ndarray) -> tuple[int, np.float64] | None:
    """(index, norm) of the row of X farthest from unit norm, or None when
    every row is within UNIT_NORM_ATOL of it."""
    norms = _row_norms(X)
    if np.allclose(norms, 1.0, rtol=0.0, atol=UNIT_NORM_ATOL):
        return None
    worst = int(np.argmax(np.abs(norms - 1.0)))
    return worst, norms[worst]


def one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    """n-by-c integer matrix whose row i has its one 1 in column labels[i]."""
    out = np.zeros((len(labels), c), dtype=int)
    out[np.arange(len(labels)), labels] = 1
    return out


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
        if self.normalized and (off := _off_unit_row(X)):
            raise ValueError(f"dataset marked normalized but row {off[0]} has norm {off[1]!r}")

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
    """A new array with every row scaled to unit Euclidean norm (zero rows
    left untouched)."""
    return _unit_rows(np.array(X, dtype=float))


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


def apply_request(data: Dataset, req: UnlearningRequest) -> Dataset:
    """Replace the requested rows with unit-norm rows (standard-Gaussian
    draws, normalized, so the certified clip constant still holds) and
    uniformly random labels; all other rows are bit-identical."""
    if not req.indices:
        return data
    X, y = data.features.copy(), data.labels.copy()
    _replace_rows(X, y, req)
    return Dataset(features=X, labels=y, normalized=data.normalized)


def _replace_rows(X: np.ndarray, y: np.ndarray, req: UnlearningRequest) -> None:
    """Write apply_request's replacement rows into the features X and labels
    y in place, for a caller that owns these arrays."""
    for i in req.indices:
        if not 0 <= i < X.shape[0]:
            raise IndexError(f"request index {i} outside [0, {X.shape[0]})")
    rng = make_rng(req.replacement_seed)
    rows = np.array(req.indices, dtype=int)
    X[rows] = _unit_rows(rng.standard_normal((len(rows), X.shape[1])))
    if y.ndim == 2:
        y[rows] = one_hot(rng.integers(0, y.shape[1], size=len(rows)), y.shape[1])
    else:
        y[rows] = rng.integers(0, 2, size=len(rows)) * 2 - 1


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


def _checked_lam(data: Dataset, lam: float | None, allow_unnormalized: bool) -> float:
    """lam, by default 1e-6 * n, checked >= 0, once the data pass the norm check."""
    if not data.normalized and not allow_unnormalized:
        raise ValueError("dataset is not normalized; pass allow_unnormalized=True to override")
    if lam is None:
        lam = 1e-6 * data.n
    if lam < 0:
        raise ValueError(f"lam must be non-negative, got {lam}")
    return lam


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
    lam = _checked_lam(data, lam, allow_unnormalized)
    X, y = data.features, data.labels.astype(float)
    n = data.n
    row_norms = _row_norms(X)
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
                     constants=pc, data=data, lam=lam)


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
    lam = _checked_lam(data, lam, allow_unnormalized)
    X, Y = data.features, data.labels.astype(float)
    n, d, c = data.n, data.d, data.n_classes
    row_norms = _row_norms(X)
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
                     constants=pc, data=data, lam=lam)


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
                     constants=pc, data=None, lam=0.0)


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
