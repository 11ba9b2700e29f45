"""Calibration searches on top of the accountant.

Answers the operational questions: how many fine-tuning steps does a given
noise level need to certify a target, what is the smallest noise level that
fits a step budget, and how do sequential removal requests compose.
"""
from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

import numpy as np

from .accountant import (ALPHA_GRID, RenyiBound, _check_start, _decay_sum, _learned,
                         _optimize_order, _order_term)
from .constants import (INFINITE, SIGMA_RANGE, SIGMA_RANGE_TEXT, NoiseSchedule,
                        ProblemConstants, Regime)
from .errors import BudgetUnreachable, CapOverflow, NoFeasibleSigma, VacuousBound

DEFAULT_K_MAX = 10 ** 6
DEFAULT_SIGMA_LO = 1e-6
DEFAULT_SIGMA_HI = 100.0
DEFAULT_SIGMA_REL_TOL = 1e-4


def converted_epsilon(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                      S: int, K: int, delta: float) -> float:
    """(eps, delta) certificate after training to convergence and K
    fine-tuning steps: the full accountant chain at one (sigma, K)."""
    return _converted(*_Stream(pc, ns, regime).admit(S, K), delta, {})


def _converted(slope: float, decay: float, delta: float, exps: dict,
               target: float | None = None) -> float:
    """rdp_to_dp's eps on the curve exp(-decay/alpha) * slope * alpha, or,
    given a target, an eps that meets it exactly when rdp_to_dp's does (the
    curve never decreases in alpha, so a bracket's floor is its value at the
    lower end). `exps` holds exp(-decay/ALPHA_GRID) per decay for one search."""
    if decay not in exps:
        exps[decay] = np.exp(-decay / ALPHA_GRID)

    def curve(a):  # a float order or an ndarray of them
        return np.exp(-decay / a) * (slope * a)
    return float(_optimize_order(exps[decay] * (slope * ALPHA_GRID), curve, delta, target,
                                 None if target is None else lambda a, b: curve(a))[0])


def find_min_k(eps_hat: float, delta: float, pc: ProblemConstants, ns: NoiseSchedule,
               regime: Regime, S: int = 1, k_max: int = DEFAULT_K_MAX) -> int:
    """Smallest K whose certificate meets eps_hat.

    Galloping doubling followed by bisection on the (non-increasing in K)
    converted epsilon; raises BudgetUnreachable past k_max. The learning
    curve does not depend on K, so every probe shares one and its checks.
    """
    if not eps_hat > 0:
        raise ValueError(f"eps_hat must be positive, got {eps_hat}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")

    stream, exps = _Stream(pc, ns, regime), {}
    slope = stream.slope(S)

    def eps_at(k: int, target: float | None = None) -> float:
        return _converted(slope, stream.decay(k)[0], delta, exps, target)

    k = _least_k(lambda k: eps_at(k, eps_hat) <= eps_hat, k_max)
    if k is None:
        raise BudgetUnreachable(eps_hat, k_max, best=eps_at(k_max))
    return k


def _least_k(ok: Callable[[int], bool], k_max: int, guess: int = 0) -> int | None:
    """Least k in [0, k_max] with ok(k), for an ok that fails below some k and
    holds from it on; None when even ok(k_max) fails.

    Probes the guess (clamped to [0, k_max]) first, gallops away from it by
    1, 2, 4, ... until ok flips, then bisects the last gap: an answer d
    steps from the guess takes at most 2*ceil(log2(d + 1)) + 2 probes. From
    guess 0 this is plain galloping doubling.
    """
    g = max(0, min(guess, k_max))
    step = 1
    if ok(g):
        hi = g
        while True:  # down until a k fails
            if hi == 0:
                return 0
            lo = max(g - step, 0)
            if not ok(lo):
                break
            hi, step = lo, 2 * step
    else:
        lo = g
        while True:  # up until a k passes
            if lo >= k_max:
                return None
            hi = min(g + step, k_max)
            if ok(hi):
                break
            lo, step = hi, 2 * step
    while hi - lo > 1:  # lo fails, hi passes
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def binary_search_sigma(eps_hat: float, delta: float, k_hat: int,
                        pc: ProblemConstants, regime: Regime, S: int = 1,
                        sigma_lo: float = DEFAULT_SIGMA_LO,
                        sigma_hi: float = DEFAULT_SIGMA_HI,
                        eta: float | None = None) -> float:
    """Smallest noise level whose least step count fits the budget k_hat.

    Bisects sigma until the bracket's relative width drops below
    DEFAULT_SIGMA_REL_TOL and returns the feasible endpoint. Feasibility of
    a sigma is probed as "certificate at exactly k_hat steps <= eps_hat",
    which equals find_min_k(sigma) <= k_hat because the certificate is
    non-increasing in K; this keeps each probe O(1). A probe whose bound is
    vacuous (an overflowing LSI cap or an infinite Renyi curve) does not
    certify. The step size defaults to 1/L.
    """
    if not SIGMA_RANGE[0] <= sigma_lo < sigma_hi <= SIGMA_RANGE[1]:
        lo, hi = SIGMA_RANGE_TEXT
        raise ValueError(f"need {lo} <= sigma_lo < sigma_hi <= {hi}, got {sigma_lo}, {sigma_hi}")
    if k_hat < 0:
        raise ValueError(f"k_hat must be >= 0, got {k_hat}")
    if eta is None:
        eta = 1.0 / pc.L
    exps = {}

    def feasible(sigma: float) -> bool:
        # _Stream.admit's chain of one, with no object; C0 and k_hat are checked
        ns = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=k_hat)
        try:
            slope, c0 = _learned(pc, ns, regime, S)
            decay = _decay_sum(pc, ns, regime, c0, k_hat)[0]
            return _converted(slope, decay, delta, exps, eps_hat) <= eps_hat
        except (CapOverflow, VacuousBound):
            return False

    # the reported upper endpoint must be checked with the budget semantics
    ns_hi = NoiseSchedule(eta=eta, sigma=sigma_hi, T=INFINITE, K=k_hat)
    k_at_hi = find_min_k(eps_hat, delta, pc, ns_hi, regime, S=S)
    if k_at_hi > k_hat:
        raise NoFeasibleSigma(sigma_hi, k_hat, k_at_hi)

    lo, hi = sigma_lo, sigma_hi
    if feasible(lo):
        return lo
    while (hi - lo) / lo >= DEFAULT_SIGMA_REL_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _level_on(alpha: np.ndarray, slope: float, decay: float, prev) -> np.ndarray:
    """One request's Renyi loss at every order in alpha (an ndarray): its decay
    exp(-decay/alpha) times slope*alpha for the first request (prev None),
    else times the weak triangle inequality's chain of its learning loss at
    2*alpha with `prev`, the previous request's loss there. An order whose
    unrolled orders overflow float64 (inf/inf weights, 0*inf) gives nan or
    +inf, with numpy's warnings; the caller silences them and maps nan to +inf."""
    factor = np.exp(-decay / alpha)
    return (factor * slope * alpha if prev is None
            else factor * ((alpha - 0.5) / (alpha - 1.0)) * (slope * 2.0 * alpha + prev))


# the weak triangle inequality's weight on ALPHA_GRID; shared, so read-only
_GRID_WEIGHT = (ALPHA_GRID - 0.5) / (ALPHA_GRID - 1.0)
_GRID_WEIGHT.flags.writeable = False


class _Stream:
    """The accountant chain of a removal stream, each constant computed once;
    a single request is a stream of one.

    Holds the learning slope of each distinct batch size (one _learned call
    each, which checks the schedule and gives the starting LSI constant C0)
    and the decay sum of every admitted request, and threads the LSI
    constant of convex and non-convex chains from one request to the next.
    The loss after request i needs the loss after request i-1 at twice the
    order, so request j of i is evaluated at alpha*2^(i-j).
    """

    def __init__(self, pc: ProblemConstants, ns: NoiseSchedule, regime: Regime):
        self.pc, self.ns, self.regime = pc, ns, regime
        self.c_start: float | None = None  # the first _learned call's C0
        self.slopes: list[float] = []
        self.decays: list[float] = []
        self._slope_of: dict[int, float] = {}

    def slope(self, size: int) -> float:
        if size not in self._slope_of:
            self._slope_of[size], c0 = _learned(self.pc, self.ns, self.regime, size)
            if self.c_start is None:
                self.c_start = c0
        return self._slope_of[size]

    def decay(self, k: int) -> tuple[float, float]:
        """Decay sum of a next request of k >= 0 steps, and its final LSI constant."""
        return _decay_sum(self.pc, self.ns, self.regime, self.c_start, k)

    def admit(self, size: int, k: int) -> tuple[float, float]:
        """Append a request; returns its (slope, decay sum)."""
        slope = self.slope(size)  # first: it checks the schedule the decay relies on
        _check_start(self.c_start, k)
        decay, self.c_start = self.decay(k)
        self.slopes.append(slope)
        self.decays.append(decay)
        return slope, decay

    def curve(self, alpha: np.ndarray) -> np.ndarray:
        """Loss after the last admitted request at every order in alpha, an
        ndarray of any shape (0-d included); +inf where an unrolled order
        overflows float64.

        The levels run under one errstate, and nan becomes +inf once, at the
        end: a nan level stays nan through every later level, and an inf
        level stays inf or turns nan, so the result is the one a per-level
        map would give."""
        flat, n, out = alpha.reshape(-1), len(self.decays), None
        with np.errstate(over="ignore", invalid="ignore"):
            for j, (slope, decay) in enumerate(zip(self.slopes, self.decays)):
                out = _level_on(np.ldexp(flat, n - 1 - j), slope, decay, out)
        out[np.isnan(out)] = np.inf
        return out.reshape(alpha.shape)


def _scalar_curve(slopes: list[float], decays: list[float]) -> Callable[..., float]:
    """Loss at one order after requests of these learning slopes and decay sums.

    O(i) per order: the i decay factors come from one vectorized exp
    (bit-identical to per-order numpy exp, unlike math.exp), then the
    levels run on Python floats. Request j's order alpha*2^(i-j) is alpha
    times an exact power of two, as exact as ldexp; past float64 it is +inf.

    Called as at(a, b) it is instead a floor of the loss over the orders in
    [a, b], in the same loop: every level is a product of non-negative
    factors, so it takes the increasing ones (exp(-decay/alpha) and
    slope*2*alpha) at a*2^k and the decreasing weight (alpha - 1/2)/(alpha - 1)
    at b*2^k. Its rounding stays far inside _optimize_order's relative
    margin; a floor that meets an overflowing order is nan, which tells
    _optimize_order nothing.
    """
    neg_decays = -np.array(decays)
    top = len(slopes) - 1
    if top < 1024:  # 2^top is finite
        scales = np.ldexp(1.0, np.arange(top, -1, -1))
    else:
        with np.errstate(over="ignore"):
            scales = np.ldexp(1.0, np.arange(top, -1, -1))
    # alpha * 2^top stays finite exactly below 2^(1024 - top)
    finite_below = math.ldexp(1.0, 1024 - top) if top else math.inf

    def scaled(x: float) -> np.ndarray:  # x * 2^(i-j) per request j, +inf past float64
        if x < finite_below:
            return x * scales
        with np.errstate(over="ignore"):
            return x * scales

    def at(alpha: float, hi: float | None = None) -> float:
        orders = scaled(alpha)
        levels = weights = orders.tolist()
        if hi is not None:
            weights = scaled(hi).tolist()
        out = None
        for factor, a, w, s in zip(np.exp(neg_decays / orders).tolist(), levels, weights,
                                   slopes):  # _level_on, with the weight at order w
            out = (factor * s * a if out is None
                   else factor * ((w - 0.5) / (w - 1.0)) * (s * 2.0 * a + out))
        return out if hi is not None or not math.isnan(out) else math.inf
    return at


def sequential_epsilon(alpha, sigma: float, b: int, i: int, K_list: Sequence[int],
                       pc: ProblemConstants, regime: Regime,
                       eta: float | None = None,
                       batch_sizes: Sequence[int] | None = None):
    """Renyi unlearning loss after the i-th batched removal request.

    The first request decays the learning loss at group size b; each later
    request chains the previous one through the weak triangle inequality at
    doubled order, so request j enters at order alpha*2^(i-j). Evaluated
    iteratively in O(i) per order; the function is pure. Accepts scalar or
    ndarray alpha. Where an unrolled order overflows float64 (i around
    1000 and beyond) the loss is +inf, a vacuous but valid bound.

    For convex/non-convex regimes the LSI trace continues across requests
    (request s starts from the final constant of request s-1); strongly
    convex traces are constant so this coincides with the single-request
    decay rate.
    """
    if i < 1:
        raise ValueError(f"request index i must be >= 1, got {i}")
    if len(K_list) < i:
        raise ValueError(f"K_list has {len(K_list)} entries, need at least {i}")
    sizes = list(batch_sizes) if batch_sizes is not None else [b] * i
    if len(sizes) < i:
        raise ValueError("batch_sizes must cover every request")

    stream = _Stream(pc, NoiseSchedule(eta=1.0 / pc.L if eta is None else eta, sigma=sigma),
                     regime)
    for j in range(i):
        stream.admit(sizes[j], int(K_list[j]))
    return RenyiBound(stream.curve)(alpha)


def sequential_k_schedule(eps_hat: float, delta: float, sigma: float, s_total: int,
                          b: int, pc: ProblemConstants, regime: Regime,
                          k_max: int = DEFAULT_K_MAX,
                          eta: float | None = None) -> list[int]:
    """Least fine-tuning steps per removal request in a batched stream.

    Requests remove b samples each (a smaller final batch is allowed and
    uses its actual size as the group size); each request's K is the least
    count certifying eps_hat, with earlier entries frozen. Each K probe
    certifies exactly what rdp_to_dp on sequential_epsilon would, with the
    request's constant factors on the alpha grid (the previous request's
    curve at twice the order among them) computed once per request.

    The search for each K is the same whatever it starts from; only its
    probe count depends on the start. A strongly convex request starts at
    the least K at which some grid order certifies (_grid_k), which off-grid
    refinement can only lower; from the third request on, at the smaller of
    that and the K the last two requests extrapolate to, which lands closer
    deep into a b=1 stream. Convex and non-convex requests, and a request
    with no finite grid K, start from the extrapolation.
    """
    if not eps_hat > 0:
        raise ValueError(f"eps_hat must be positive, got {eps_hat}")
    if s_total < 1 or b < 1:
        raise ValueError("s_total and b must be >= 1")
    if not sys.float_info.min <= delta < 1.0:  # every probe's check, before `room` needs 1/delta
        raise ValueError(f"delta must be in [{sys.float_info.min!r}, 1), got {delta!r}")
    full, rem = divmod(s_total, b)
    sizes = [b] * full + ([rem] if rem else [])

    stream = _Stream(pc, NoiseSchedule(eta=1.0 / pc.L if eta is None else eta, sigma=sigma),
                     regime)
    room = eps_hat - _order_term(delta)  # what the loss may take at each grid order
    schedule: list[int] = []
    for size in sizes:
        slope = stream.slope(size)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            lift = slope * 2.0 * ALPHA_GRID + stream.curve(2.0 * ALPHA_GRID) if schedule else None
            k_grid = (_grid_k(slope * ALPHA_GRID if lift is None else _GRID_WEIGHT * lift,
                              stream.decay(1)[0], room, k_max)
                      if regime is Regime.STRONGLY_CONVEX else None)

        def ok(k: int) -> bool:
            decay, _ = stream.decay(k)
            at = _scalar_curve(stream.slopes + [slope], stream.decays + [decay])
            with np.errstate(over="ignore", invalid="ignore"):  # _level_on, hoisted
                factor = np.exp(-decay / ALPHA_GRID)
                on_grid = (factor * slope * ALPHA_GRID if lift is None
                           else factor * _GRID_WEIGHT * lift)
            on_grid[np.isnan(on_grid)] = np.inf
            return _optimize_order(on_grid, at, delta, eps_hat, at)[0] <= eps_hat

        # K grows about linearly along a stream: extrapolate the last two
        guess = (2 * schedule[-1] - schedule[-2] if len(schedule) > 1
                 else schedule[-1] if schedule else 0)
        if k_grid is not None:
            guess = k_grid if len(schedule) < 2 else min(guess, k_grid)
        k = _least_k(ok, k_max, guess)
        if k is None:
            raise BudgetUnreachable(eps_hat, k_max)
        stream.admit(size, k)
        schedule.append(k)
    return schedule


def _grid_k(base: np.ndarray, rate: float, room: np.ndarray, k_max: int) -> int | None:
    """Least K in [0, k_max] at which a strongly convex request's grid loss
    exp(-K*rate/alpha) * base(alpha) meets `room` (the target less the delta
    term) at some grid order, up to rounding; None when no order gives a
    finite K. An order certifies from K >= alpha*log(base/room)/rate on, and
    only where room > 0. The caller silences numpy's warnings."""
    if not rate > 0:
        return None
    need = np.where(room > 0, ALPHA_GRID * np.log(base / room), np.inf).min() / rate
    if not math.isfinite(need):
        return None
    return min(max(math.ceil(need), 0), k_max)
