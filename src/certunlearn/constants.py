"""Problem constants, curvature regimes, and optimizer/accountant schedules.

These small value types are the common currency of the accountant: every
privacy formula consumes an immutable (L, m, M, R, n, d, lam) bundle plus an
(eta, sigma, T, K) schedule, validated once at construction.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

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
        n: number of training samples.
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
        if not (self.L > 0 and math.isfinite(self.L)):
            raise ValueError(f"L must be positive and finite, got {self.L}")
        if self.m < 0:
            raise ValueError(f"m must be non-negative, got {self.m}")
        if self.m > self.L * (1 + 1e-12):
            raise ValueError(f"m={self.m} exceeds L={self.L}")
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if not self.R > 0:
            raise ValueError(f"R must be positive, got {self.R}")
        if self.n < 1 or self.d < 1:
            raise ValueError(f"n and d must be >= 1, got n={self.n}, d={self.d}")
        if self.lam < 0:
            raise ValueError(f"lam must be non-negative, got {self.lam}")

    def with_(self, **kw) -> "ProblemConstants":
        return replace(self, **kw)


def regime_for(pc: ProblemConstants) -> Regime:
    """Strictest regime the constants support (m>0 -> strongly convex)."""
    return Regime.STRONGLY_CONVEX if pc.m > 0 else Regime.CONVEX


INFINITE = math.inf
"""Sentinel for training-to-convergence (T = infinity)."""

SIGMA_RANGE_TEXT = ("1e-150", "1e150")
"""The ends of SIGMA_RANGE as its error messages print them (formatting the
floats would print 1e+150)."""
SIGMA_RANGE = (float(SIGMA_RANGE_TEXT[0]), float(SIGMA_RANGE_TEXT[1]))
"""Noise levels the accountant accepts: sigma^2, sigma^2/m and m*sigma^2
keep float64 headroom on every preset."""


@dataclass(frozen=True)
class NoiseSchedule:
    """Step size, noise level, and iteration counts of the PNGD chain.

    T may be `INFINITE` to select the converged-training bounds.
    """

    eta: float
    sigma: float
    T: float = INFINITE
    K: int = 0

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(f"eta must be positive, got {self.eta}")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if math.isinf(self.T):
            if self.T < 0:
                raise ValueError("T must be a positive integer or INFINITE")
        elif not (float(self.T).is_integer() and self.T >= 0):
            raise ValueError(f"T must be a non-negative integer or INFINITE, got {self.T}")
        if not (isinstance(self.K, (int,)) and self.K >= 0):
            raise ValueError(f"K must be a non-negative integer, got {self.K}")

    def with_(self, **kw) -> "NoiseSchedule":
        return replace(self, **kw)


def validate_schedule(pc: ProblemConstants, ns: NoiseSchedule, regime: Regime,
                      c_lsi: float | None = None) -> None:
    """Check that the constants fit the regime, and its step-size condition.

    Strongly convex: eta <= min(2/m (1 - sigma^2/(m C)), 1/L), which for the
    default C = 2 sigma^2/m collapses to eta <= 1/L. Convex: eta <= 2/L.
    Non-convex: no step condition. Privacy accounting needs noise in
    SIGMA_RANGE (the optimizer itself tolerates sigma = 0).
    """
    if regime is Regime.STRONGLY_CONVEX and pc.m <= 0:
        raise ValueError("strongly convex regime requires m > 0")
    if regime is Regime.CONVEX and pc.m != 0:
        raise ValueError("convex regime encodes m = 0; use STRONGLY_CONVEX for m > 0")
    if not SIGMA_RANGE[0] <= ns.sigma <= SIGMA_RANGE[1]:
        raise ValueError("privacy accounting requires sigma > 0 within "
                         f"[{', '.join(SIGMA_RANGE_TEXT)}], got {ns.sigma!r}")
    tol = 1.0 + 1e-12
    if regime is Regime.STRONGLY_CONVEX:
        c = default_c0(pc, ns, regime) if c_lsi is None else c_lsi
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
    """Default initialization LSI constant: 2 sigma^2/m when strongly convex, else eta sigma^2."""
    if regime is Regime.STRONGLY_CONVEX:
        return 2.0 * ns.sigma ** 2 / pc.m
    return ns.eta * ns.sigma ** 2


@dataclass(frozen=True)
class Preset:
    """A named benchmark configuration: constants plus accountant defaults."""

    name: str
    pc: ProblemConstants
    regime: Regime
    delta: float
    n_classes: int = 2

    @property
    def eta(self) -> float:
        return 1.0 / self.pc.L

    @property
    def n_params(self) -> int:
        """Parameter count of the preset's model: d*c weights for c > 2
        classes (a preset's pc.d is its feature dimension), else d."""
        return self.pc.d * self.n_classes if self.n_classes > 2 else self.pc.d


def _logistic_preset(name: str, n: int, d: int, lam: float, M: float,
                     n_classes: int = 2) -> Preset:
    smooth = (1.0 if n_classes > 2 else 0.25) + lam
    pc = ProblemConstants(L=smooth, m=lam, M=M, R=100.0, n=n, d=d, lam=lam)
    return Preset(name=name, pc=pc, regime=Regime.STRONGLY_CONVEX,
                  delta=1.0 / n, n_classes=n_classes)


PRESETS: dict[str, Preset] = {
    "mnist38": _logistic_preset("mnist38", n=11982, d=724, lam=0.0119, M=1.0),
    "cifar10-binary": _logistic_preset("cifar10-binary", n=10000, d=512, lam=0.0100, M=1.0),
    "cifar10-multi": _logistic_preset("cifar10-multi", n=50000, d=512, lam=0.0499, M=2.0,
                                      n_classes=10),
    "synthetic": _logistic_preset("synthetic", n=2000, d=20, lam=1e-6 * 2000, M=1.0),
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}") from None
