"""Projected noisy gradient descent: the learning and unlearning engine.

One step moves against the full-batch clipped gradient, adds isotropic
Gaussian noise of per-coordinate variance 2*eta*sigma^2, and projects back
onto the radius-R ball. Learning runs T steps from a fresh initialization;
unlearning runs K steps of the same update against the post-request
dataset, starting from the trained parameters.

Randomness: a Philox 4x64 counter-based generator with Gaussian variates
drawn by numpy's ziggurat implementation (`numpy.random.Generator` over
`numpy.random.Philox`). Identical seeds reproduce identical trajectories
bit for bit; independent trials use independent keys.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import NoiseSchedule, _count


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox 4x64) keyed by `seed`."""
    return np.random.Generator(np.random.Philox(key=int(seed) & (2 ** 64 - 1)))


def project_ball(v: np.ndarray, R: float) -> np.ndarray:
    """Orthogonal projection onto the Euclidean (Frobenius) ball of radius R."""
    if not R > 0:
        raise ValueError(f"R must be positive, got {R}")
    v = np.asarray(v, dtype=float)
    norm = math.sqrt(np.add.reduce(v * v, axis=None))
    if norm <= R:
        return v
    if norm == math.inf:  # the squared norm overflowed: project v scaled by its largest entry
        v = v / np.abs(v).max()
        norm = math.sqrt(np.add.reduce(v * v, axis=None))
    return v * (R / norm)


def pngd_step(params: np.ndarray, grad: Callable[[np.ndarray], np.ndarray],
              eta: float, sigma: float, R: float,
              rng: np.random.Generator) -> np.ndarray:
    """One noisy projected step; consumes exactly params.size Gaussian draws."""
    noise = rng.standard_normal(params.shape)
    moved = params - eta * grad(params) + _noise_scale(eta, sigma) * noise
    return project_ball(moved, R)


def _noise_scale(eta: float, sigma: float) -> float:
    """sqrt(2*eta*sigma^2), the per-step noise scale. A scale that is not
    finite would end every step in inf or nan weights: ValueError."""
    try:
        scale = math.sqrt(2.0 * eta * sigma ** 2)
    except OverflowError:  # float ** raises where * gives inf
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"the noise variance 2*eta*sigma^2 must be finite, got "
                         f"eta={eta!r}, sigma={sigma!r}")
    return scale


@dataclass(frozen=True)
class InitSpec:
    """Gaussian initialization N(mean * 1, variance * I), projected onto the ball.

    The large default mean places the start far from any optimum of a
    normalized problem, mimicking a cold start.
    """

    mean: float = 1000.0
    variance: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"init mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance >= 0):
            raise ValueError(f"init variance must be finite and >= 0, got {self.variance}")


def draw_init(spec: InitSpec, shape: tuple[int, ...], R: float,
              rng: np.random.Generator) -> np.ndarray:
    w0 = spec.mean + math.sqrt(spec.variance) * rng.standard_normal(shape)
    with np.errstate(over="ignore"):  # a huge mean overflows the squared norm
        return project_ball(w0, R)


def train(objective, ns: NoiseSchedule, init, rng: np.random.Generator) -> np.ndarray:
    """Run ns.T noisy projected steps from `init`.

    `init` is either a parameter array or an InitSpec (drawn through `rng`
    before the first step). The projection radius is the objective's
    certified R. T must be finite here; the accountant owns the
    converged-training limits.
    """
    if math.isinf(ns.T):
        raise ValueError("train needs a finite T; INFINITE is an accountant-only value")
    _noise_scale(ns.eta, ns.sigma)  # once per call, also for no steps
    R = objective.constants.R
    if isinstance(init, InitSpec):
        w = draw_init(init, objective.shape, R, rng)
    else:
        w = project_ball(np.array(init, dtype=float), R)
    for _ in range(int(ns.T)):
        w = pngd_step(w, objective.grad, ns.eta, ns.sigma, R, rng)
    return w


def unlearn(params: np.ndarray, objective, K: int, ns: NoiseSchedule,
            rng: np.random.Generator) -> np.ndarray:
    """Fine-tune trained parameters for K steps against the updated dataset.

    `objective` must be built on the post-request dataset; K = 0 returns the
    parameters unchanged.
    """
    K = _count(K, "K")
    _noise_scale(ns.eta, ns.sigma)  # once per call, also for no steps
    R = objective.constants.R
    w = np.array(params, dtype=float)
    for _ in range(K):
        w = pngd_step(w, objective.grad, ns.eta, ns.sigma, R, rng)
    return w
