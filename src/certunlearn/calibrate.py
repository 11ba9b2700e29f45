"""Calibration searches on top of the accountant, and nothing else: the least
fine-tuning steps that certify a target at a noise level, the least noise
that fits a step budget, and the least steps of each request in a removal
stream. Every certificate, curve and probe verdict comes from the accountant.
"""
from __future__ import annotations

from typing import Callable, Sequence

from .accountant import _at_orders, _converted, _Stream
from .constants import (INFINITE, SIGMA_RANGE, SIGMA_RANGE_TEXT, NoiseSchedule,
                        ProblemConstants, Regime, _count)
from .errors import BudgetUnreachable, CapOverflow, NoFeasibleSigma, VacuousBound

DEFAULT_K_MAX = 10 ** 6
DEFAULT_SIGMA_LO = 1e-6
DEFAULT_SIGMA_HI = 100.0
DEFAULT_SIGMA_REL_TOL = 1e-4


def converted_epsilon(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                      S: int, K: int, delta: float) -> float:
    """(eps, delta) certificate after training to convergence and K
    fine-tuning steps: the full accountant chain at one (sigma, K)."""
    return _converted(*_Stream.single(pc, ns, regime, S, K), delta, {})[0]


def find_min_k(eps_hat: float, delta: float, pc: ProblemConstants, ns: NoiseSchedule,
               regime: Regime, S: int = 1, k_max: int = DEFAULT_K_MAX) -> int:
    """Smallest K whose certificate meets eps_hat.

    Galloping doubling followed by bisection on the (non-increasing in K)
    converted epsilon; raises BudgetUnreachable past k_max. The learning
    curve does not depend on K, so every probe shares one and its checks.
    """
    if not eps_hat > 0:
        raise ValueError(f"eps_hat must be positive, got {eps_hat}")
    k_max = _count(k_max, "k_max", least=1)

    stream, exps = _Stream(pc, ns, regime), {}
    slope = stream.slope(S)

    def eps_at(k: int, target: float | None = None) -> float:
        return _converted(slope, stream.decay(k)[0], delta, exps, target)[0]

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
    k_hat = _count(k_hat, "k_hat")
    eta, exps = 1.0 / pc.L if eta is None else eta, {}

    def feasible(sigma: float) -> bool:  # converted_epsilon's chain of one, targeted
        ns = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=k_hat)
        try:
            slope, decay = _Stream.single(pc, ns, regime, S, k_hat)
            return _converted(slope, decay, delta, exps, eps_hat)[0] <= eps_hat
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
    i = _count(i, "request index i", least=1)
    if len(K_list) < i:
        raise ValueError(f"K_list has {len(K_list)} entries, need at least {i}")
    sizes = list(batch_sizes) if batch_sizes is not None else [b] * i
    if len(sizes) < i:
        raise ValueError("batch_sizes must cover every request")

    stream = _Stream(pc, NoiseSchedule(eta=1.0 / pc.L if eta is None else eta, sigma=sigma),
                     regime)
    for j in range(i):
        stream.admit(sizes[j], K_list[j])
    return _at_orders(stream.curve, alpha)


def sequential_k_schedule(eps_hat: float, delta: float, sigma: float, s_total: int,
                          b: int, pc: ProblemConstants, regime: Regime,
                          k_max: int = DEFAULT_K_MAX,
                          eta: float | None = None) -> list[int]:
    """Least fine-tuning steps per removal request in a batched stream.

    Requests remove b samples each (a smaller final batch is allowed and
    uses its actual size as the group size); each request's K is the least
    count certifying eps_hat, with earlier entries frozen, as rdp_to_dp on
    sequential_epsilon would certify it (_Stream.probe).

    The search for each K is the same whatever it starts from; only its
    probe count depends on the start. A strongly convex request with a
    finite grid K (_grid_k) starts there, less the overshoot (grid K minus
    answer) of the last such request: along a stream that gap changes
    slowly (0 or 1 at b = 5, 10 and 20 on mnist38). Any other request
    starts from the K the last two requests extrapolate to.
    """
    if not eps_hat > 0:
        raise ValueError(f"eps_hat must be positive, got {eps_hat}")
    s_total, b = _count(s_total, "s_total", least=1), _count(b, "b", least=1)
    k_max = _count(k_max, "k_max")

    stream = _Stream(pc, NoiseSchedule(eta=1.0 / pc.L if eta is None else eta, sigma=sigma),
                     regime)
    schedule: list[int] = []
    overshoot = 0  # grid K less the answer, at the last request with a grid K
    for r in range(-(-s_total // b)):
        size = min(b, s_total - r * b)  # the last batch may be smaller
        ok, k_grid = stream.probe(size, eps_hat, delta, k_max)
        guess = (k_grid - overshoot if k_grid is not None
                 else 2 * schedule[-1] - schedule[-2] if len(schedule) > 1
                 else schedule[-1] if schedule else 0)
        k = _least_k(ok, k_max, guess)
        if k is None:
            raise BudgetUnreachable(eps_hat, k_max)
        overshoot = overshoot if k_grid is None else k_grid - k
        stream.admit(size, k)
        schedule.append(k)
    return schedule
