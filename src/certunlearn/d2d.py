"""Delete-to-Descent baseline: deterministic fine-tuning plus one Gaussian
output perturbation, with the two published noise calibrations.

Learning is plain projected gradient descent at step 2/(L + m) (no noise);
unlearning runs I more deterministic steps on the updated data and then
perturbs the result once. The calibration with an internal non-private
state (the server keeps the pre-noise iterate) needs less noise than the
stateless one, which must also lower-bound the per-request iteration count.
Both formulas are stated for add/remove dataset adjacency.
"""
from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import ProblemConstants, _count
from .errors import InfeasibleBudget
from .pngd import project_ball

log = logging.getLogger("certunlearn")


def _contraction(L: float, m: float) -> float:
    """gamma = (L - m)/(L + m), the contraction factor of one fine-tuning step."""
    if not m > 0:
        raise ValueError("Delete-to-Descent requires strong convexity (m > 0)")
    if not m < L:
        raise ValueError(f"need m < L for a contraction, got m={m}, L={L}")
    return (L - m) / (L + m)


def d2d_train(objective, T: int, init: np.ndarray) -> np.ndarray:
    """Deterministic projected GD at step 2/(L + m); bit-identical across runs."""
    T = _count(T, "T")
    pc = objective.constants
    step = 2.0 / (pc.L + pc.m)
    w = project_ball(np.array(init, dtype=float), pc.R)
    for _ in range(T):
        w = project_ball(w - step * objective.grad(w), pc.R)
    return w


def d2d_unlearn(params: np.ndarray, objective, I: int, sigma: float,
                rng: np.random.Generator) -> np.ndarray:
    """I deterministic GD steps on the updated data, then one Gaussian
    perturbation N(0, sigma^2 I), not projected again (none when sigma is 0).
    Only the perturbed iterate is returned, so a stateless caller never sees
    the non-private intermediate."""
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    w = d2d_train(objective, _count(I, "I"), params)
    return w if sigma == 0.0 else w + sigma * rng.standard_normal(w.shape)


def d2d_sigma_thm9(eps: float, delta: float, I: int, M: float, m: float,
                   n: int, L: float) -> float:
    """Output-perturbation scale when the pre-noise iterate is retained.

    sigma = 4*sqrt(2)*M*gamma^I / (m*n*(1 - gamma^I)*(sqrt(log(1/delta) + eps)
    - sqrt(log(1/delta)))).
    """
    _check_eps_delta(eps, delta)
    I = _count(I, "I")
    if I < 1:
        raise InfeasibleBudget(f"I must be >= 1, got {I}")
    gI = _contraction(L, m) ** I
    log_inv = math.log(1.0 / delta)
    return _noise(4.0 * math.sqrt(2.0) * M, gI, m * n,
                  math.sqrt(log_inv + eps) - math.sqrt(log_inv))


def _noise(scale: float, gI: float, mn: float, gap: float) -> float:
    """scale * gamma^I / (m n (1 - gamma^I) gap)."""
    _check_divisors(gap, gI)
    return scale * gI / (mn * (1.0 - gI) * gap)


def _check_divisors(gap: float, gI: float) -> None:
    """InfeasibleBudget where a formula would divide by zero: the sqrt gap or
    1 - gamma^I is 0 in float64 (eps, or m/L, below its resolution)."""
    if gap == 0.0 or gI == 1.0:
        raise InfeasibleBudget(f"noise formula divides by zero in float64 (sqrt gap {gap!r}, "
                               f"gamma^I {gI!r}); eps or m/L is too small")


@dataclass(frozen=True)
class Thm28Calibration:
    """Stateless calibration: noise scale, base iteration count, and the
    per-request iteration rule (requests are 1-indexed)."""

    sigma: float
    I_min: int
    gamma: float
    d: int
    delta: float

    def iterations(self, i: int) -> int:
        """Total deterministic steps for the i-th sequential request;
        InfeasibleBudget once 4*d*i/delta overflows float64."""
        i = _count(i, "request index i", least=1)
        # 4*d*i/delta > 4 for d, i >= 1 and delta < 1, so the inner log is positive
        ratio = 4.0 * self.d * i / self.delta
        if ratio == math.inf:
            raise InfeasibleBudget(f"request {i}: 4*d*i/delta overflows float64 at "
                                   f"delta={self.delta!r}; no step count follows")
        extra = math.log(math.log(ratio)) / math.log(1.0 / self.gamma)
        return int(math.ceil(self.I_min + extra))


def d2d_sigma_thm28(eps: float, delta: float, M: float, m: float, n: int,
                    L: float, d: int) -> Thm28Calibration:
    """Output-perturbation scale without a non-private internal state.

    The iteration count must satisfy
      I >= log(sqrt(2d)/(1-gamma) / (sqrt(2 log(2/delta) + eps) - sqrt(2 log(2/delta))))
           / log(1/gamma)
    (rounded up), and the noise is
      sigma = 8*M*gamma^I / (m*n*(1 - gamma^I)
              * (sqrt(2 log(2/delta) + 3 eps) - sqrt(2 log(2/delta) + 2 eps))).
    The i-th sequential request runs I + log(log(4*d*i/delta))/log(1/gamma)
    steps before its perturbation.
    """
    _check_eps_delta(eps, delta)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    gamma = _contraction(L, m)
    b2 = 2.0 * math.log(2.0 / delta)
    gap = math.sqrt(b2 + eps) - math.sqrt(b2)
    _check_divisors(gap, gamma)  # arg divides by both
    arg = math.sqrt(2.0 * d) / (1.0 - gamma) / gap
    I_min = max(1, int(math.ceil(math.log(arg) / math.log(1.0 / gamma))))
    sigma = _noise(8.0 * M, gamma ** I_min, m * n,
                   math.sqrt(b2 + 3.0 * eps) - math.sqrt(b2 + 2.0 * eps))
    return Thm28Calibration(sigma=sigma, I_min=I_min, gamma=gamma, d=d, delta=delta)


def _check_eps_delta(eps: float, delta: float) -> None:
    """eps in (0, inf), and delta in [least normal float64, 1), where log(2/delta) is finite."""
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not sys.float_info.min <= delta < 1.0:
        raise ValueError(f"delta must be in [{sys.float_info.min!r}, 1), got {delta!r}")


# Reference noise table published with the original baseline, kept as data
# for the diagnostic comparison report (rows: dataset, unlearning steps I;
# columns: eps targets). The verbatim formulas above evaluate ~1.39x higher
# on the MNIST row; the report surfaces the per-cell ratio.
REFERENCE_EPS_GRID = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0)
REFERENCE_SIGMAS_THM9 = {
    "cifar10-binary": {
        1: (59.5184, 29.7994, 6.0233, 3.0504, 1.5626, 0.6663),
        2: (28.1340, 14.0859, 2.8472, 1.4419, 0.7386, 0.3149),
        5: (9.4523, 4.7325, 0.9565, 0.4844, 0.2481, 0.1058),
    },
    "cifar10-multi": {
        1: (5.9612, 2.9840, 0.6022, 0.3044, 0.1554, 0.0657),
        2: (2.8386, 1.4209, 0.2867, 0.1449, 0.0740, 0.0313),
        5: (0.9764, 0.4887, 0.0986, 0.0498, 0.0254, 0.0107),
    },
    "mnist38": {
        1: (36.8573, 18.4620, 3.7310, 1.8890, 0.9673, 0.4120),
        2: (17.3030, 8.6229, 1.7507, 0.8864, 0.4538, 0.1933),
        5: (5.6774, 2.8424, 0.5744, 0.2908, 0.1489, 0.0634),
    },
}


def _report_rows(name: str, pc: ProblemConstants, delta: float,
                 eps_targets: tuple[float, ...]) -> list[list[str]]:
    """Rows of the `d2d` report: the internal-state noise at I = 1, 2, 5 over
    the reference eps grid beside the reference value and their ratio, then
    the stateless calibration per eps target (blank where it is infeasible)."""
    rows = []
    grid = REFERENCE_EPS_GRID
    for i_steps in (1, 2, 5):
        refs = REFERENCE_SIGMAS_THM9.get(name, {}).get(i_steps, (None,) * len(grid))
        for eps, ref in zip(grid, refs):
            sigma = d2d_sigma_thm9(eps, delta, i_steps, pc.M, pc.m, pc.n, pc.L)
            rows.append([name, "internal_state", str(i_steps), f"{eps:g}", f"{sigma:.6g}",
                         "" if ref is None else str(ref), f"{sigma / ref:.6g}" if ref else ""])
    for eps in eps_targets:
        try:
            cal = d2d_sigma_thm28(eps, delta, pc.M, pc.m, pc.n, pc.L, pc.d)
            rows.append([name, "stateless", str(cal.I_min), f"{eps:g}", f"{cal.sigma:.6g}",
                         "", ""])
        except InfeasibleBudget as exc:
            log.error("thm28 eps=%g: %s", eps, exc)
            rows.append([name, "stateless", "", f"{eps:g}", "", "", ""])
    return rows
