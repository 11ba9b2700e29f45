"""Problem constants, curvature regimes, and optimizer/accountant schedules.

These small value types are the common currency of the accountant: every
privacy formula consumes an immutable (L, m, M, R, n, d, lam) bundle plus an
(eta, sigma, T, K) schedule, validated once at construction.
"""
from __future__ import annotations

import enum
import math
import numbers
import sys
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ConfigError


class Regime(enum.Enum):
    """Curvature assumption under which the accountant bounds are valid."""

    STRONGLY_CONVEX = "strongly_convex"
    CONVEX = "convex"
    NONCONVEX = "nonconvex"


@dataclass(frozen=True)
class ProblemConstants:
    """Certified constants of the objective and the problem instance.

    Attributes:
        L: gradient-Lipschitz (smoothness) constant, > 0.
        m: strong-convexity modulus, >= 0 (0 encodes merely convex).
        M: per-sample gradient norm bound (clip radius), > 0.
        R: projection-ball radius for the iterates, > 0.
        n: number of training samples, >= 1, with n**2 finite in float64.
        d: parameter dimension (d*c for a d-by-c weight matrix).
        lam: l2 regularization weight, >= 0.
    """

    L: float
    m: float
    M: float
    R: float
    n: int
    d: int
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")
        for name in ("L", "M", "R"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not (self.m >= 0 and math.isfinite(self.m)):
            raise ValueError(f"m must be non-negative and finite, got {self.m}")
        if self.m > self.L * (1 + 1e-12):
            raise ValueError(f"m={self.m} exceeds L={self.L}")
        try:  # the bounds divide by n**2, so it must stay within float64
            n_ok = self.n >= 1 and float(self.n) ** 2 < math.inf
        except OverflowError:  # a float n**2 or an int n past float64
            n_ok = False
        if not n_ok:
            raise ValueError(f"n must be >= 1 and finite, got {self.n}")
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")

    def with_(self, **kw) -> "ProblemConstants":
        return replace(self, **kw)


def regime_for(pc: ProblemConstants) -> Regime:
    """Strictest regime the constants support (m>0 -> strongly convex)."""
    return Regime.STRONGLY_CONVEX if pc.m > 0 else Regime.CONVEX


DEFAULT_RADIUS = 100.0
"""Radius of the projection ball the models' iterates stay in."""

INFINITE = math.inf
"""Sentinel for training-to-convergence (T = infinity)."""

SIGMA_RANGE_TEXT = ("1e-150", "1e150")
"""The ends of SIGMA_RANGE as its error messages print them (formatting the
floats would print 1e+150)."""
SIGMA_RANGE = (float(SIGMA_RANGE_TEXT[0]), float(SIGMA_RANGE_TEXT[1]))
"""Noise levels the accountant accepts: sigma^2, sigma^2/m and m*sigma^2
keep float64 headroom on every preset."""

_COUNT_MAX = int(sys.float_info.max)  # an int, which a count compares to fastest


def _count(value, name: str, least: int = 0) -> int:
    """A step count, request index or group size as an int: an integer, Python's or
    numpy's, from `least` up to float64's max; ValueError naming it otherwise."""
    if type(value) is int and least <= value <= _COUNT_MAX:  # the probe loops' case
        return value
    if isinstance(value, numbers.Integral) and least <= value <= _COUNT_MAX:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {least} within float64, got {value!r}")


@dataclass(frozen=True)
class NoiseSchedule:
    """Step size, noise level, and iteration counts of the PNGD chain.

    T and K are step counts; T may be `INFINITE` to select the converged-training bounds.
    """

    eta: float
    sigma: float
    T: float = INFINITE
    K: int = 0

    def __post_init__(self):
        if not 0 < self.eta < math.inf:
            raise ValueError(f"eta must be positive and finite, got {self.eta}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if self.T != INFINITE:
            _count(self.T, "T")
        _count(self.K, "K")

    def with_(self, **kw) -> "NoiseSchedule":
        return replace(self, **kw)


def validate_schedule(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                      c_lsi: float | None = None) -> None:
    """Check that the constants fit the regime, and its step-size condition.

    Strongly convex: eta <= min(2/m (1 - sigma^2/(m C)), 1/L), which for the
    default C = 2 sigma^2/m collapses to eta <= 1/L. Convex: eta <= 2/L.
    Non-convex: no step condition. Privacy accounting needs noise in
    SIGMA_RANGE (the optimizer itself tolerates sigma = 0). A regime that is
    not a Regime is rejected.
    """
    if not isinstance(regime, Regime):
        raise ValueError(f"regime must be a Regime, got {regime!r}")
    if regime is Regime.STRONGLY_CONVEX and pc.m <= 0:
        raise ValueError("strongly convex regime requires m > 0")
    if regime is Regime.CONVEX and pc.m != 0:
        raise ValueError("convex regime encodes m = 0; use STRONGLY_CONVEX for m > 0")
    if not SIGMA_RANGE[0] <= ns.sigma <= SIGMA_RANGE[1]:
        raise ValueError("privacy accounting requires sigma > 0 within "
                         f"[{', '.join(SIGMA_RANGE_TEXT)}], got {ns.sigma!r}")
    tol = 1.0 + 1e-12
    if regime is Regime.STRONGLY_CONVEX:
        c = 2.0 * ns.sigma ** 2 / pc.m if c_lsi is None else c_lsi
        if not c > ns.sigma ** 2 / pc.m:
            raise ValueError(
                f"strongly convex regime needs C_LSI > sigma^2/m; got C={c:.6g}, "
                f"sigma^2/m={ns.sigma ** 2 / pc.m:.6g}")
        cap = min(2.0 / pc.m * (1.0 - ns.sigma ** 2 / (pc.m * c)), 1.0 / pc.L)
        if ns.eta > cap * tol:
            raise ValueError(f"eta={ns.eta:.6g} exceeds the strongly convex limit {cap:.6g}")
    elif regime is Regime.CONVEX:
        if ns.eta > 2.0 / pc.L * tol:
            raise ValueError(f"eta={ns.eta:.6g} exceeds the convex limit 2/L={2.0 / pc.L:.6g}")


def default_c0(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime) -> float:
    """Default initialization LSI constant: 2 sigma^2/m when strongly convex,
    else eta sigma^2. A sigma outside SIGMA_RANGE, or m = 0 when strongly
    convex, raises validate_schedule's ValueError."""
    sigma, strongly_convex = ns.sigma, regime is Regime.STRONGLY_CONVEX
    if not SIGMA_RANGE[0] <= sigma <= SIGMA_RANGE[1] or (strongly_convex and pc.m <= 0):
        validate_schedule(pc, ns, regime)  # raises, naming the cause
    return 2.0 * sigma ** 2 / pc.m if strongly_convex else ns.eta * sigma ** 2


def model_constants(n: int, shape: tuple[int, ...], lam: float,
                    R: float = DEFAULT_RADIUS) -> ProblemConstants:
    """Certified constants of the library's model on n unit-norm rows, by
    its weight shape: binary logistic regression for (d,) (L = 1/4 + lam,
    M = 1), softmax regression for a d-by-c matrix (L = 1 + lam, M = 2).
    m = lam, and d counts the weights."""
    softmax = len(shape) == 2
    return ProblemConstants(L=(1.0 if softmax else 0.25) + lam, m=lam,
                            M=2.0 if softmax else 1.0, R=R, n=n, d=math.prod(shape), lam=lam)


@dataclass(frozen=True)
class Preset:
    """A named benchmark model: n training rows of d features, the class
    count (softmax regression for more than two) and lam. Its constants and
    accountant defaults derive from these."""

    name: str
    n: int
    d: int
    lam: float
    n_classes: int = 2

    @cached_property
    def pc(self) -> ProblemConstants:
        shape = (self.d, self.n_classes) if self.n_classes > 2 else (self.d,)
        return model_constants(self.n, shape, self.lam)

    @property
    def regime(self) -> Regime:
        return regime_for(self.pc)

    @property
    def delta(self) -> float:
        return 1.0 / self.n

    @property
    def eta(self) -> float:
        return 1.0 / self.pc.L


PRESETS: dict[str, Preset] = {p.name: p for p in (
    Preset("mnist38", n=11982, d=724, lam=0.0119),
    Preset("cifar10-binary", n=10000, d=512, lam=0.0100),
    Preset("cifar10-multi", n=50000, d=512, lam=0.0499, n_classes=10),
    Preset("synthetic", n=2000, d=20, lam=1e-6 * 2000),
)}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
