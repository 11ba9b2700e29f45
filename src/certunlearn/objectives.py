"""Objective functions with certified constants, plus dataset plumbing.

An `Objective` is what a chain reads: a gradient callable, the (L, m, M,
...) constants the accountant consumes, and the dataset; `evaluate` gives a
model's loss and accuracy. Gradients follow the DP-SGD convention: the
per-sample data gradient is clipped to norm M, the clipped gradients are
averaged, and the l2 regularizer lam*w is added after clipping, so M
certifies the data term alone. The logistic coefficient -y/(1 + exp(y x.w))
is accurate to a few ulps and at most 1, so only rows longer than M clip.
"""
from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Callable

import numpy as np

from .constants import DEFAULT_RADIUS, ProblemConstants, model_constants
from .pngd import make_rng

UNIT_NORM_ATOL = 1e-12
# temporary a row-wise pass over an n-by-d array may build; a run's peak is
# its training matrix plus a few of these
_BLOCK_BYTES = 1 << 18


def _row_blocks(n: int, nbytes: int):
    """Slices of consecutive rows of an array of n rows and nbytes bytes,
    each about _BLOCK_BYTES of it, so a row-wise pass builds block-sized
    temporaries instead of n-by-d ones. No slice holds a lone row of several:
    numpy may sum a lone row of a strided X in another order than it sums
    that row within X."""
    count = max(1, min(n // 2, -(-nbytes // _BLOCK_BYTES)))
    return (slice(n * i // count, n * (i + 1) // count) for i in range(count))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=1) bit for bit, for a 2-D float X of any
    layout, reduced a row block at a time, which sums each row in the same
    order and skips the n-by-d X*X temporary. Each block makes norm's own
    product and sum, without the copy its x.conj() makes of a real block."""
    out = np.empty(X.shape[0])
    for rows in _row_blocks(X.shape[0], X.nbytes):
        block = X[rows]
        np.sqrt(np.add.reduce(block * block, axis=1), out=out[rows])
    return out


def _unit_rows(X: np.ndarray) -> np.ndarray:
    """Divide each nonzero row of the float array X by its norm, in place."""
    norms = _row_norms(X)
    norms[norms == 0.0] = 1.0
    X /= norms[:, None]
    return X


class _OffUnitRow(ValueError):
    """A dataset marked normalized has a row more than UNIT_NORM_ATOL off
    unit norm: `row` is the farthest one and `norm` its norm."""

    def __init__(self, row: int, norm: np.float64):
        self.row, self.norm = row, norm
        super().__init__(f"dataset marked normalized but row {row} has norm {norm!r}")


def _checked_norms(X: np.ndarray, first_row: int = 0) -> np.ndarray:
    """The row norms of X, once each is within UNIT_NORM_ATOL of 1; else
    _OffUnitRow names the farthest row, counting X's rows from first_row."""
    norms = _row_norms(X)
    off = np.abs(norms - 1.0)
    if not off.max(initial=0.0) <= UNIT_NORM_ATOL:  # a nan norm fails too
        worst = int(np.argmax(off))
        raise _OffUnitRow(first_row + worst, norms[worst])
    return norms


def one_hot(labels: np.ndarray, c: int) -> np.ndarray:
    """n-by-c integer matrix whose row i has its one 1 in column labels[i]."""
    out = np.zeros((len(labels), c), dtype=int)
    out[np.arange(len(labels)), labels] = 1
    return out


@dataclass(frozen=True)
class Dataset:
    """Feature matrix plus labels.

    Binary labels are a length-n vector in {-1, +1}; multiclass labels are
    an n-by-c one-hot matrix. `normalized` asserts unit-norm feature rows;
    the row norms that check computes are kept for the objectives to read,
    so they describe the rows as they were when the Dataset was built. A
    builder that has already checked the rows (`_checked_norms`) passes
    their norms as `_unit_norms` instead.
    """

    features: np.ndarray
    labels: np.ndarray
    normalized: bool = True
    _norms: np.ndarray | None = field(init=False, default=None, repr=False, compare=False)
    _unit_norms: InitVar[np.ndarray | None] = None

    def __post_init__(self, _unit_norms):
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
            object.__setattr__(self, "_norms",
                               _checked_norms(X) if _unit_norms is None else _unit_norms)

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
    """A gradient bound to a dataset, with certified constants.

    grad(w) returns the full-batch update direction: mean of per-sample
    clipped data gradients plus the regularizer. The loss is `evaluate`'s.
    """

    grad: Callable[[np.ndarray], np.ndarray]
    constants: ProblemConstants
    data: Dataset | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        """Parameter shape: (d, c) for one-hot data, else (constants.d,)."""
        onehot = self.data is not None and self.data.is_multiclass
        return (self.data.d, self.data.n_classes) if onehot else (self.constants.d,)


def _checked_lam(data: Dataset, lam: float | None) -> float:
    """lam, by default 1e-6 * n, once the data pass the norm check
    (`model_constants` checks lam >= 0)."""
    if not data.normalized:
        raise ValueError("dataset is not normalized; the certified constants hold "
                         "only for unit-norm rows")
    return 1e-6 * data.n if lam is None else lam


def logistic_objective(data: Dataset, lam: float | None = None,
                       radius: float = DEFAULT_RADIUS) -> Objective:
    """l2-regularized binary logistic regression with per-sample clipping.

    Constants: `model_constants` for weights of shape (d,): L = 1/4 + lam,
    m = lam, M = 1. lam defaults to 1e-6 * n. Unit-norm features keep the
    raw per-sample gradient norm at most 1, so the clip is inactive on
    normalized data; unnormalized data is rejected.

    The data gradient of row i is coef_i x_i, coef_i = -y_i / (1 + exp(t_i))
    at margin t_i = y_i x_i.w: one exp and one divide, no cancellation; within
    a few ulps of exact while exp(t_i) is finite, a signed 0 past it (t_i >
    709.78, where the exact value is subnormal). |coef_i| <= 1 exactly, as
    1/(1 + e) <= 1 for e >= 0, so only rows with ||x_i|| > M can clip; grad
    rescales those only when one exceeds M, bit-identical to clipping all n.
    """
    if data.is_multiclass:
        raise ValueError("logistic_objective expects binary labels; use multiclass_objective")
    lam = _checked_lam(data, lam)
    X, y, n = data.features, data.labels.astype(float), data.n
    neg_y = -y
    pc = model_constants(n, (data.d,), lam, radius)
    M = pc.M
    row_norms = data._norms
    long_rows = np.flatnonzero(row_norms > M)
    long_norms = row_norms[long_rows]

    def grad(w: np.ndarray) -> np.ndarray:
        coef = X @ w
        coef *= y
        with np.errstate(over="ignore"):  # exp(t) = inf gives coef = -y/inf, a signed 0
            np.exp(coef, out=coef)
        coef += 1.0
        np.divide(neg_y, coef, out=coef)
        norms = np.abs(coef[long_rows]) * long_norms
        if np.fmax.reduce(norms, initial=0.0) > M:  # any(norms > M): fmax skips nan too
            coef[long_rows] *= np.where(norms > M, M / np.where(norms > 0, norms, 1.0), 1.0)
        g = X.T @ coef
        g /= n
        g += lam * w
        return g

    return Objective(grad=grad, constants=pc, data=data)


def _softmax(Z: np.ndarray) -> np.ndarray:
    Z = Z - Z.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


def multiclass_objective(data: Dataset, lam: float | None = None,
                         radius: float = DEFAULT_RADIUS) -> Objective:
    """Softmax cross-entropy over c classes with per-sample clipping.

    Weights are a d-by-c matrix; the per-sample gradient is the outer
    product x (p - y)^T with Frobenius norm at most sqrt(2) for unit-norm x,
    certified by the clip constant M = 2. Constants: `model_constants` for
    weights of shape (d, c): L = 1 + lam, m = lam, d*c weights.
    """
    if not data.is_multiclass:
        raise ValueError("multiclass_objective expects one-hot labels")
    lam = _checked_lam(data, lam)
    X, Y = data.features, data.labels.astype(float)
    n, d, c = data.n, data.d, data.n_classes
    pc = model_constants(n, (d, c), lam, radius)
    M = pc.M
    row_norms = data._norms

    def grad(W: np.ndarray) -> np.ndarray:
        _check_weight_shape(W, d, c)
        resid = _softmax(X @ W) - Y
        norms = row_norms * np.linalg.norm(resid, axis=1)
        scale = np.where(norms > M, M / np.where(norms > 0, norms, 1.0), 1.0)
        return X.T @ (resid * scale[:, None]) / n + lam * W

    return Objective(grad=grad, constants=pc, data=data)


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

    def grad(x: np.ndarray) -> np.ndarray:
        return m_curv * (x - center)

    return Objective(grad=grad, constants=pc)


def _logistic_loss(scores: np.ndarray, y: np.ndarray, w: np.ndarray, lam: float) -> float:
    """Mean logistic loss of scores x.w against -1/+1 labels, plus (lam/2)||w||^2."""
    # log(1 + exp(-t)) evaluated stably
    return float(np.mean(np.logaddexp(0.0, -(y * scores))) + 0.5 * lam * (w @ w))


def _softmax_loss(Z: np.ndarray, Y: np.ndarray, W: np.ndarray, lam: float) -> float:
    """Mean cross-entropy of scores X @ W against one-hot Y, plus (lam/2)||W||^2."""
    Z = Z - Z.max(axis=1, keepdims=True)
    log_probs = Z - np.log(np.exp(Z).sum(axis=1, keepdims=True))
    return float(np.mean(-np.sum(Y * log_probs, axis=1)) + 0.5 * lam * np.sum(W * W))


def evaluate(params: np.ndarray, data: Dataset,
             lam: float = 0.0) -> tuple[float, float]:
    """Mean loss and classification accuracy of `params` on `data`."""
    params = np.asarray(params, dtype=float)
    if data.is_multiclass:
        _check_weight_shape(params, data.d, data.n_classes)
        loss = _softmax_loss
    elif params.shape != (data.d,):
        raise ValueError(f"params must have shape ({data.d},), got {params.shape}")
    else:
        loss = _logistic_loss
    scores = data.features @ params
    return loss(scores, data.labels, params, lam), float(np.mean(_hits(scores, data.labels)))


def _hits(scores: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Whether each row's scores predict its label (Dataset form): the sign,
    with the tie sign(0) -> +1, or the argmax, with ties to the lowest class."""
    if scores.ndim == 1:
        return np.where(scores >= 0.0, 1, -1) == labels
    return np.argmax(scores, axis=1) == np.argmax(labels, axis=1)
