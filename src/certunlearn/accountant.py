"""Renyi privacy accountant for projected noisy gradient descent.

Pure, deterministic formulas. Three ingredients compose:

  * `learn_epsilon0` - the Renyi privacy loss of the training chain run on
    two datasets differing in at most S samples (a curve eps0(alpha)).
  * `unlearn_epsilon` - the exponential decay of that loss under K
    fine-tuning iterations on the updated dataset, driven by a per-step
    log-Sobolev (LSI) constant recursion.
  * `rdp_to_dp` - conversion of a Renyi curve into a single (eps, delta)
    guarantee by optimizing the Renyi order alpha.

Every single-request curve has the form eps(alpha) = exp(-decay/alpha) *
slope * alpha, so a curve is a `RenyiBound` value holding its two scalars,
and `rdp_to_dp` converts it from them. Everything here is a pure function
of its arguments; there is no shared mutable state.
"""
from __future__ import annotations

import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .constants import (NoiseSchedule, ProblemConstants, Regime, default_c0,
                        validate_schedule)
from .errors import CapOverflow, VacuousBound

ArrayLike = Union[float, np.ndarray]

# exp() overflows float64 just above this exponent
_EXP_OVERFLOW = 709.0

# alpha-optimization design: dense log grid, then golden-section refinement
_ALPHA_GRID_POINTS = 2000
_ALPHA_MIN_OFFSET = 1e-6        # grid starts at alpha = 1 + 1e-6
_ALPHA_MAX = 1e6
_REFINE_REL_TOL = 1e-10
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# a targeted search checks its floor before every _FLOOR_EVERY-th golden probe,
# and prunes only past this relative margin over the target
_FLOOR_EVERY = 4
_FLOOR_REL_MARGIN = 1e-9

# the orders every conversion probes first; shared, so read-only
ALPHA_GRID = 1.0 + np.logspace(math.log10(_ALPHA_MIN_OFFSET),
                               math.log10(_ALPHA_MAX - 1.0), _ALPHA_GRID_POINTS)
ALPHA_GRID.flags.writeable = False
assert (ALPHA_GRID > 1.0).all(), "curves are evaluated on ALPHA_GRID unchecked"
# slope * ALPHA_GRID stays below 2**1023, so finite, for a slope below this
_GRID_FINITE_BELOW = math.ldexp(1.0, 1023 - math.frexp(ALPHA_GRID[-1])[1])


def _at_orders(curve: Callable[[np.ndarray], np.ndarray], alpha: ArrayLike) -> ArrayLike:
    """curve at alpha, a scalar order (giving a float) or an ndarray, each checked > 1."""
    arr = np.asarray(alpha, dtype=float)
    if not (arr > 1.0).all():  # negated so that a nan order fails too
        raise ValueError("alpha must be > 1")
    out = curve(arr)
    return float(out) if np.ndim(alpha) == 0 else out


def _loss(slope: float, decay: float, alpha: ArrayLike) -> ArrayLike:
    """exp(-decay/alpha) * slope * alpha at a float order or an ndarray of them, unchecked."""
    return np.exp(-decay / alpha) * (slope * alpha)


@dataclass(frozen=True)
class RenyiBound:
    """The privacy-loss curve eps(alpha) = exp(-decay/alpha) * slope * alpha
    for alpha > 1, as a scalar order (giving a float) or an ndarray. A learning
    curve has decay 0; fine-tuning adds its rate sum. An infinite slope is vacuous."""

    slope: float
    decay: float = 0.0

    def __post_init__(self):
        if not (self.slope >= 0 and self.decay >= 0):
            raise ValueError(f"slope and decay must be non-negative, got {self!r}")

    def __call__(self, alpha: ArrayLike) -> ArrayLike:
        return _at_orders(functools.partial(_loss, self.slope, self.decay), alpha)


@dataclass(frozen=True)
class LsiTrace:
    """Per-iteration LSI constants of the fine-tuning chain, plus their cap.

    `values[k]` bounds the LSI constant of the chain's law after k steps.
    `cap` is the ball-geometry bound; +inf when the constant recursion never
    consults it (strongly convex traces are constant).
    """

    values: np.ndarray
    cap: float


def lsi_cap(R: float, M: float, eta: float, xi: float) -> float:
    """Ball-geometry LSI cap: 6*(4*(R + eta*M)^2 + xi) * exp(4*(R + eta*M)^2 / xi).

    Applies to any law supported on the radius-R ball, pushed through an
    M-bounded drift of step eta and smoothed by Gaussian noise of variance
    xi. Raises CapOverflow instead of returning a non-finite value.
    """
    if not (R > 0 and M >= 0 and eta >= 0 and xi > 0):
        raise ValueError("lsi_cap needs R > 0, M >= 0, eta >= 0, xi > 0")
    reach = R + eta * M
    try:
        reach2 = 4.0 * reach ** 2
    except OverflowError:  # float ** raises where * gives inf; the cap overflows too
        raise CapOverflow(4.0 * reach * (reach / xi)) from None
    exponent = reach2 / xi
    if exponent > _EXP_OVERFLOW:
        raise CapOverflow(exponent)
    value = 6.0 * (reach2 + xi) * math.exp(exponent)
    if not math.isfinite(value):
        raise CapOverflow(exponent)
    return value


def _check_chain(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                 C0: float, K: int) -> None:
    """Reject a fine-tuning chain of K steps from LSI constant C0 as
    lsi_unlearn_trace does."""
    _check_start(C0, K)
    validate_schedule(pc, ns, regime, c_lsi=C0 if regime is Regime.STRONGLY_CONVEX else None)


def _check_start(C0: float, K: int) -> None:
    if not C0 > 0:
        raise ValueError(f"C0 must be positive, got {C0}")
    if K < 0:
        raise ValueError(f"K must be >= 0, got {K}")


def lsi_unlearn_trace(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                      C0: float, K: int) -> LsiTrace:
    """LSI-constant trajectory over K fine-tuning steps, starting from C0.

    Strongly convex chains keep a constant C0 (for a valid step size).
    Convex chains grow by 2*eta*sigma^2 per step and non-convex ones by the
    factor (1 + eta*L)^2 plus the same noise term; both are capped by the
    ball-geometry bound, whose overflow is surfaced as CapOverflow as soon
    as a growing recursion actually needs it (K >= 1).
    """
    _check_chain(pc, ns, regime, C0, K)
    return _trace(pc, ns, regime, C0, K)


def _trace(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
           C0: float, K: int) -> LsiTrace:
    """lsi_unlearn_trace of a chain that _check_chain accepts."""
    if regime is Regime.STRONGLY_CONVEX or K == 0:
        return LsiTrace(values=np.full(K + 1, C0, dtype=float), cap=math.inf)
    noise = 2.0 * ns.eta * ns.sigma ** 2
    cap = lsi_cap(pc.R, pc.M, ns.eta, noise)  # CapOverflow propagates
    growth = _growth(pc, ns, regime)
    values = np.empty(K + 1, dtype=float)
    values[0] = C0
    c = C0
    for k in range(K):
        c = min(growth * c + noise, cap)
        values[k + 1] = c
    return LsiTrace(values=values, cap=cap)


def _growth(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime) -> float:
    """LSI constant growth per step: (1 + eta*L)^2 if non-convex, else 1; inf past float64."""
    try:
        return (1.0 + ns.eta * pc.L) ** 2 if regime is Regime.NONCONVEX else 1.0
    except OverflowError:
        return math.inf


def unlearn_rate(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                 C_k: float) -> float:
    """Per-step privacy-recovery rate R_k of the fine-tuning chain."""
    if not C_k > 0:
        raise ValueError(f"C_k must be positive, got {C_k}")
    noise = 2.0 * ns.eta * ns.sigma ** 2
    if regime is Regime.STRONGLY_CONVEX:
        return noise / C_k
    if regime is Regime.CONVEX:
        return math.log1p(noise / C_k)
    return math.log1p(noise / (_growth(pc, ns, regime) * C_k))


def _decay_sum(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
               C0: float, K: int) -> tuple[float, float]:
    """Sum of the rates R_k over K fine-tuning steps from LSI constant C0,
    and the LSI constant after them (C0 itself when strongly convex, whose
    constant trace is not built). The chain must pass _check_chain."""
    if regime is Regime.STRONGLY_CONVEX:
        return K * unlearn_rate(pc, ns, regime, C0), C0
    trace = _trace(pc, ns, regime, C0, K)
    return (math.fsum(unlearn_rate(pc, ns, regime, c) for c in trace.values[:K]),
            float(trace.values[-1]))


def unlearn_epsilon(eps0: RenyiBound, pc: ProblemConstants, ns: NoiseSchedule,
                    regime: Regime, C0: float | None = None,
                    K: int | None = None) -> RenyiBound:
    """Privacy loss after K fine-tuning steps: alpha -> exp(-sum R_k / alpha) * eps0(alpha),
    which adds the rate sum to eps0's decay. C0 defaults to the regime's
    standard initialization constant and K to the schedule's K.
    """
    if C0 is None:
        C0 = default_c0(pc, ns, regime)
    if K is None:
        K = ns.K
    _check_chain(pc, ns, regime, C0, K)
    decay, _ = _decay_sum(pc, ns, regime, C0, K)
    return RenyiBound(eps0.slope, eps0.decay + decay)


def _learning_caps(pc: ProblemConstants, ns: NoiseSchedule) -> float:
    """Ball-geometry cap for the learning chain's half-noise decomposition."""
    return lsi_cap(pc.R, pc.M, ns.eta, ns.eta * ns.sigma ** 2)


def _sum_product_finite(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                        C0: float, T: int) -> float:
    """sum_{t<T} prod_{t'=t..T-1} (1 + eta sigma^2 / C_{t',1})^{-1}, compensated."""
    if T == 0:
        return 0.0
    cap = _learning_caps(pc, ns)
    half = ns.eta * ns.sigma ** 2
    growth = _growth(pc, ns, regime)
    r = np.empty(T, dtype=float)
    c = C0
    for t in range(T):
        c_half = min(growth * c + half, cap)
        r[t] = 1.0 / (1.0 + half / c_half)
        c = min(c_half + half, cap)
    # backward running products, then a compensated sum
    products = np.multiply.accumulate(r[::-1])[::-1]
    return math.fsum(products.tolist())


def learn_epsilon0(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                   S: int = 1, T: float | None = None,
                   C0: float | None = None) -> RenyiBound:
    """Renyi privacy-loss curve of T training iterations at group size S.

    The curve is linear in alpha. Strongly convex chains admit the closed
    form 4*alpha*S^2*M^2/(m*sigma^2*n^2) * (1 - exp(-m*eta*T)); the other
    regimes use the sum-product of per-step noise gains driven by the LSI
    recursion, capped by the ball geometry, so the T = INFINITE limit is
    cap/(eta*sigma^2). T = INFINITE selects the converged-training bound.
    """
    return RenyiBound(_learned(pc, ns, regime, S, T, C0)[0])


def _learned(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime, S: int,
             T: float | None = None, C0: float | None = None) -> tuple[float, float]:
    """learn_epsilon0's slope, checks included (VacuousBound past float64), and its C0."""
    # int first: the ABC check alone costs about 0.5 us per calibration probe
    if not (type(S) is int or isinstance(S, numbers.Integral)) or S < 1:
        raise ValueError(f"group size S must be an integer >= 1, got {S!r}")
    if T is None:
        T = ns.T
    if not math.isinf(T):
        if T < 0 or not float(T).is_integer():
            raise ValueError(f"T must be a non-negative integer or INFINITE, got {T}")
        T = int(T)
    if C0 is None:
        C0 = default_c0(pc, ns, regime)
    validate_schedule(pc, ns, regime, c_lsi=C0 if regime is Regime.STRONGLY_CONVEX else None)
    _check_start(C0, 0)  # after the schedule, so that sigma = 0 reports the sigma range

    try:
        M2 = pc.M ** 2
    except OverflowError:
        raise VacuousBound() from None
    if regime is Regime.STRONGLY_CONVEX:
        factor = 1.0 if math.isinf(T) else -math.expm1(-pc.m * ns.eta * T)
        slope = 4.0 * S * S * M2 / (pc.m * ns.sigma ** 2 * pc.n ** 2) * factor
    else:
        # at T = INFINITE the LSI constants saturate at the cap, where
        # Q <- r(Q + 1) has the fixed point r/(1 - r) = cap/(eta sigma^2)
        q = (_learning_caps(pc, ns) / (ns.eta * ns.sigma ** 2) if math.isinf(T)
             else _sum_product_finite(pc, ns, regime, C0, T))
        slope = 2.0 * ns.eta * S * S * M2 / (ns.sigma ** 2 * pc.n ** 2) * q
    if not math.isfinite(slope):
        raise VacuousBound()
    return slope, C0


def rdp_to_dp(bound: RenyiBound, delta: float) -> tuple[float, float]:
    """Convert a Renyi curve to an (eps, delta) guarantee.

    Minimizes eps(alpha) + log(1/delta)/(alpha - 1) over alpha > 1: one scan
    of a dense log grid (`ALPHA_GRID`; the delta term is cached per delta),
    then golden-section refinement of the bracketing interval. Returns (eps,
    minimizing alpha), never above the objective at any probed alpha. Raises
    VacuousBound when the curve is infinite at every grid order, ValueError at nan.
    """
    return _converted(bound.slope, bound.decay, delta, {})


def _converted(slope: float, decay: float, delta: float, exps: dict,
               target: float | None = None) -> tuple[float, float]:
    """rdp_to_dp on RenyiBound(slope, decay), without building it, as floats;
    given a target, a pair whose eps meets it exactly when rdp_to_dp's does
    (the curve never decreases in alpha, so a bracket's floor is its value at
    the lower end). `exps` holds exp(-decay/ALPHA_GRID) per decay for one search."""
    if slope == math.inf:
        raise VacuousBound()
    if slope < _GRID_FINITE_BELOW:
        if decay not in exps:
            exps[decay] = np.exp(-decay / ALPHA_GRID)
        curve = functools.partial(_loss, slope, decay)
        on_grid = exps[decay] * (slope * ALPHA_GRID)
    else:
        curve = functools.partial(_loss_past_grid, slope, decay)
        on_grid = curve(ALPHA_GRID)
    eps, alpha = _optimize_order(on_grid, curve, delta, target,
                                 None if target is None else lambda a, b: curve(a))
    return float(eps), float(alpha)


def _loss_past_grid(slope: float, decay: float, alpha: ArrayLike) -> ArrayLike:
    """_loss at a slope of at least _GRID_FINITE_BELOW: +inf where slope * alpha
    overflows, but in logs where exp(-decay/alpha) underflows too (0 * inf is nan)."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _loss(slope, decay, alpha)
        in_logs = np.exp(math.log(slope) + np.log(alpha) - decay / alpha)
    return np.where(np.isnan(out), in_logs, out)


@functools.lru_cache(maxsize=8)
def _order_term(delta: float) -> np.ndarray:
    """log(1/delta)/(alpha - 1) on ALPHA_GRID; cached per delta, so read-only."""
    term = math.log(1.0 / delta) / (ALPHA_GRID - 1.0)
    term.flags.writeable = False
    return term


def _golden_probes(a: float, b: float):
    """The orders golden-section search probes on [a, b], as a coroutine.

    Yields (order, a, b) and is sent the objective at that order; [a, b] is
    the current bracket, which holds this order and every later one. The
    last order is the final bracket's midpoint.
    """
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = yield x1, a, b
    f2 = yield x2, a, b
    while (b - a) > _REFINE_REL_TOL * a:
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = yield x1, a, b
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = yield x2, a, b
    yield 0.5 * (a + b), a, b


def _optimize_order(on_grid: np.ndarray, curve: Callable[[float], float],
                    delta: float, target: float | None = None,
                    floor: Callable[[float, float], float] | None = None
                    ) -> tuple[float, float]:
    """rdp_to_dp given the curve's values on ALPHA_GRID and the curve at one order.

    Callers that can evaluate the whole grid more cheaply than order by order
    pass its values in; `curve` serves the golden-section probes. Neither may
    hold nan: +inf marks an order at which the curve is vacuous. One argmin
    scans the grid objective, whose delta term `_order_term` caches.

    A search that only asks whether the certificate meets `target` passes it,
    and stops refining the order once the answer is known: at the grid
    minimum or the first golden-section probe that meets the target, or,
    given `floor`, once the bracket [a, b] holding every later probe cannot
    meet it. `floor(a, b)` must not exceed the curve at any order in [a, b];
    nan means it knows nothing. The bracket fails once floor(a, b) +
    log(1/delta)/(b - 1) exceeds the target by the relative margin
    _FLOOR_REL_MARGIN, which covers the rounding of floor and curve; it is
    checked before every _FLOOR_EVERY-th probe. Either way the result is the
    minimum over a prefix of rdp_to_dp's probes, so `eps <= target` answers
    the question as rdp_to_dp's eps would.
    """
    if not sys.float_info.min <= delta < 1.0:  # 1/delta overflows from subnormal deltas
        raise ValueError(f"delta must be in [{sys.float_info.min!r}, 1), got {delta!r}")
    log_inv_delta = math.log(1.0 / delta)

    grid = ALPHA_GRID
    obj = on_grid + _order_term(delta)
    i = int(np.argmin(obj))  # the first nan, if there is one
    best = (float(obj[i]), float(grid[i]))
    if math.isnan(best[0]):
        raise ValueError("Renyi curve is nan at some order; +inf marks a vacuous order")
    if math.isinf(best[0]) and not np.isfinite(obj).any():
        raise VacuousBound()
    if target is not None and best[0] <= target:
        return best
    # what a bracket's floor must exceed to settle a failing verdict
    bar = math.inf if target is None else target + _FLOOR_REL_MARGIN * abs(target)

    search = _golden_probes(grid[max(i - 1, 0)], grid[min(i + 1, _ALPHA_GRID_POINTS - 1)])
    x, a, b = next(search)
    probes = []
    while True:
        if floor is not None and len(probes) % _FLOOR_EVERY == 0 and \
                floor(a, b) + log_inv_delta / (b - 1.0) > bar:
            break
        v = curve(x) + log_inv_delta / (x - 1.0)
        if target is not None and v <= target:
            return v, x
        probes.append((v, x))
        try:
            x, a, b = search.send(v)
        except StopIteration:
            break
    refined = min(probes, default=best)
    return refined if refined[0] < best[0] else best


def adjacency_bound_unbiased(F: float, n: int) -> float:
    """Order-free Renyi difference of the small-step-limit laws on adjacent
    datasets, when per-sample losses differ by at most F: 2*F/n."""
    if F < 0:
        raise ValueError(f"F must be >= 0, got {F}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 2.0 * F / n


def retrain_saving_lower_bound(pc: ProblemConstants, ns: NoiseSchedule,
                               alpha: float) -> tuple[float, bool]:
    """Lower bound on iterations saved by fine-tuning instead of retraining.

    Returns (saving, vacuous). The bound (alpha/(m*eta)) * log(m^2 n^2 / (16 M^2))
    is only meaningful for strongly convex problems with m*n > 4*M; otherwise
    it is reported as 0 with vacuous=True. A bound beyond float64 raises
    ValueError.
    """
    if not alpha > 1:
        raise ValueError(f"alpha must be > 1, got {alpha}")
    if pc.m <= 0:
        raise ValueError("retraining-saving bound requires strong convexity (m > 0)")
    # log(m^2 n^2 / (16 M^2)) as twice the log of m n / (4 M): the squares
    # leave float64 at constants (M = 1e200, m = M = 5e-324) whose ratio does not
    ratio = pc.m / pc.M * (pc.n / 4.0)
    if not ratio > 1.0:
        return 0.0, True
    rate = pc.m * ns.eta
    saving = alpha / rate * (2.0 * math.log(ratio)) if rate > 0 else math.inf
    if not math.isfinite(saving):
        raise ValueError(f"retraining-saving bound exceeds float64: alpha={alpha!r}, "
                         f"m*eta={rate!r}, m n / (4 M)={ratio!r}")
    return saving, False
