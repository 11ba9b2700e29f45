"""The benchmark's workloads, the inputs they make from a seed, and their output checks.

Every workload is closed-loop and single-process: it makes one call into
certunlearn at a time and waits for the answer. A workload is built once
(set-up), then run in passes. A pass times each operation, a call into the
library that a user would wait for, and checks each answer. A typed
`CertUnlearnError` is a valid answer; an untyped exception or a failed
check makes the operation count as failed. Each class names its
operation in `op` and its unit of work in `unit`.

All four use the strongly convex presets only, so the convex and non-convex
accountant paths (`_sum_product_*`, the growing LSI trace) are not measured.
"""
from __future__ import annotations

import contextlib
import functools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from certunlearn import calibrate, constants, d2d, harness, pngd
from certunlearn.errors import CertUnlearnError

# Frozen oracles, copied from tests/test_acceptance.py: the published sigma
# table (K=1, S=1) and the sequential-schedule totals at mnist38, sigma=0.03,
# eps=1 and 100 removals.
EPS_GRID = (0.05, 0.1, 0.5, 1.0, 2.0, 5.0)
TABLE_SIGMA = {
    "mnist38": (0.1872, 0.094, 0.0190, 0.0096, 0.0049, 0.0021),
    "cifar10-binary": (0.2431, 0.1220, 0.0250, 0.0125, 0.0064, 0.0028),
    "cifar10-multi": (0.0473, 0.0238, 0.0049, 0.0025, 0.0012, 0.0005),
}
TABLE_TOLERANCE = 0.02
SEQ_TOTALS = {5: 26726, 10: 11847, 20: 6858}
SEQ_REMOVALS, SEQ_SIGMA, SEQ_EPS = 100, 0.03, 1.0

# Published cells that miss the 2% gate on the current code (a known,
# unexplained red of acceptance criterion 1). Their deviation is printed,
# not gated: the benchmark neither hides nor fixes it.
KNOWN_RED_CELLS = frozenset({
    ("cifar10-binary", 5.0),
    ("cifar10-multi", 0.5), ("cifar10-multi", 1.0),
    ("cifar10-multi", 2.0), ("cifar10-multi", 5.0),
})


@dataclass
class Op:
    """One timed call into the library and the verdict on its answer."""

    seconds: float
    units: int
    problem: str | None = None      # why the answer is wrong, if it is
    typed_error: bool = False


def _call(fn, *args, **kwargs):
    """Time fn(*args); return (seconds, result, typed error, untyped error)."""
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except CertUnlearnError as exc:
        return time.perf_counter() - t0, None, exc, None
    except Exception as exc:  # an untyped failure is a result to count, not to crash on
        return time.perf_counter() - t0, None, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None, None


class Calibrate:
    """The sigma-calibration grid: presets x eps x K-budget x group size."""

    name = "calibrate"
    unit = "cells"
    op = "binary_search_sigma + converted_epsilon for one cell"

    def __init__(self, seed: int,
                 presets=("mnist38", "cifar10-binary", "cifar10-multi"),
                 eps=EPS_GRID, k_hats=(1, 2, 5), group_sizes=(1, 5)):
        self.presets = {p: constants.get_preset(p) for p in presets}
        self.cells = [(p, e, k, s) for p in presets for e in eps
                      for k in k_hats for s in group_sizes]
        # the grid has no randomness; the seed only orders the cells
        random.Random(seed).shuffle(self.cells)
        self.cells_per_pass = len(self.cells)
        self.requests_per_pass = 0
        self.deviations: dict[tuple, float] = {}

    def run_pass(self, index: int, quiet) -> list[Op]:
        ops = []
        for cell in self.cells:
            name, eps, k_hat, S = cell
            pr = self.presets[name]

            def certify():
                sigma = calibrate.binary_search_sigma(eps, pr.delta, k_hat, pr.pc,
                                                      pr.regime, S=S, eta=pr.eta)
                ns = constants.NoiseSchedule(eta=pr.eta, sigma=sigma,
                                             T=constants.INFINITE, K=k_hat)
                return sigma, calibrate.converted_epsilon(pr.pc, ns, pr.regime, S,
                                                          k_hat, pr.delta)

            seconds, out, typed, untyped = _call(certify)
            problem = untyped
            if out is not None:
                with quiet():
                    problem = self.check(cell, *out)
            ops.append(Op(seconds, 1, problem, typed is not None))
        return ops

    def check(self, cell, sigma: float, cert: float) -> str | None:
        name, eps, k_hat, S = cell
        pr = self.presets[name]
        if not (math.isfinite(sigma) and sigma > 0):
            return f"{cell}: sigma {sigma!r} is not a positive number"
        if not cert <= eps:
            return f"{cell}: sigma {sigma:.6g} certifies {cert:.6g} > eps"
        smaller = sigma / (1.0 + calibrate.DEFAULT_SIGMA_REL_TOL)
        ns = constants.NoiseSchedule(eta=pr.eta, sigma=smaller, T=constants.INFINITE,
                                     K=k_hat)
        if calibrate.converted_epsilon(pr.pc, ns, pr.regime, S, k_hat, pr.delta) <= eps:
            return f"{cell}: sigma {sigma:.6g} is not minimal ({smaller:.6g} also certifies)"
        if k_hat == 1 and S == 1 and name in TABLE_SIGMA:
            ref = TABLE_SIGMA[name][EPS_GRID.index(eps)]
            dev = abs(sigma - ref) / ref
            self.deviations[(name, eps)] = dev
            if dev > TABLE_TOLERANCE and (name, eps) not in KNOWN_RED_CELLS:
                return f"{cell}: sigma {sigma:.6g} is {100 * dev:.2f}% off the published {ref}"
        return None

    def notes(self) -> list[str]:
        return [f"published cell {name} eps={eps}: deviation {100 * dev:.2f}%"
                + (" (known red, not gated)" if (name, eps) in KNOWN_RED_CELLS else "")
                for (name, eps), dev in sorted(self.deviations.items())]


class Stream:
    """Sequential removal schedules on mnist38, one stream per batch size."""

    name = "stream"
    unit = "removals"
    op = "sequential_k_schedule for one batch size"

    def __init__(self, seed: int, batches=(20, 10, 5)):
        self.preset = constants.get_preset("mnist38")
        # the streams have no randomness; the seed only orders them
        self.batches = list(batches)
        random.Random(seed).shuffle(self.batches)
        self.cells_per_pass = 0
        self.requests_per_pass = sum(-(-SEQ_REMOVALS // b) for b in batches)

    def run_pass(self, index: int, quiet) -> list[Op]:
        pr = self.preset
        ops = []
        for b in self.batches:
            seconds, schedule, typed, problem = _call(
                calibrate.sequential_k_schedule, SEQ_EPS, pr.delta, SEQ_SIGMA,
                SEQ_REMOVALS, b, pr.pc, pr.regime, eta=pr.eta)
            if schedule is not None:
                problem = self.check(b, schedule)
            ops.append(Op(seconds, SEQ_REMOVALS, problem, typed is not None))
        return ops

    def check(self, b: int, schedule) -> str | None:
        if len(schedule) != -(-SEQ_REMOVALS // b):
            return f"b={b}: {len(schedule)} requests, expected {-(-SEQ_REMOVALS // b)}"
        if any(int(k) != k or k < 0 for k in schedule):
            return f"b={b}: step counts {schedule} are not non-negative integers"
        total = sum(schedule)
        if total != SEQ_TOTALS[b]:
            return f"b={b}: total {total} != frozen {SEQ_TOTALS[b]}"
        return None

    def notes(self) -> list[str]:
        return []


# Unlearning steps per trial on top of n_iter training steps (k_budget = 1).
_UNLEARN_STEPS = {"langevin": 1, "retrain": 0, "d2d_thm9": 1}
# Parameter vectors each trial gets at least from the engine entry points
# WeightChecks wraps: the harness's train, then unlearn (retrain only trains).
_WEIGHT_VECTORS = {"langevin": 2, "retrain": 1, "d2d_thm9": 2}


class Unlearn:
    """Single-point removal (harness.run_unlearn_one), one call per method."""

    unit = "steps"
    op = "harness.run_unlearn_one for one method"

    def __init__(self, seed: int, name: str, methods, trials: int, n_iter: int,
                 acc_floor: float, gap_floor: float, shape_preset: str | None = None):
        self.name = name
        self.seed = seed
        self.methods, self.trials, self.n_iter = tuple(methods), trials, n_iter
        self.acc_floor, self.gap_floor = acc_floor, gap_floor
        # the mnist-shape workload keeps preset "synthetic" data generation but
        # takes the constants (n, d, lambda) of a named preset
        self.constants = constants.get_preset(shape_preset).pc if shape_preset else None
        self.cells_per_pass = 0
        self.requests_per_pass = 0
        self.weights = WeightChecks()
        self.accuracies: list[tuple[str, float]] = []

    def config(self, method: str, seed: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            preset="synthetic", constants=self.constants, method=method,
            eps_targets=(1.0,), k_budget=1, trials=self.trials, n_iter=self.n_iter,
            seed=seed)

    def run_pass(self, index: int, quiet) -> list[Op]:
        # every pass draws fresh trial keys and data, derived from the seed
        seed = self.seed * 1009 + index
        ops, means = [], {}
        with self.weights.installed():
            for method in self.methods:
                cfg = self.config(method, seed)
                self.weights.problems.clear()
                checked = self.weights.checked
                seconds, rows, typed, problem = _call(harness.run_unlearn_one, cfg)
                checked = self.weights.checked - checked
                units = self.trials * (self.n_iter + _UNLEARN_STEPS[method])
                if rows is not None:
                    problem = self.check(method, rows)
                    if problem is None and rows[0].error is None:
                        means[method] = rows[0]
                        self.accuracies.append((method, rows[0].acc_mean))
                        problem = self.check_weights_seen(method, checked)
                if problem is None and self.weights.problems:
                    problem = f"{method}: {self.weights.problems[0]}"
                ops.append(Op(seconds, units, problem,
                              typed is not None or bool(rows and rows[0].error)))
        if "langevin" in means and "retrain" in means:
            problem = self.check_gap(means["langevin"], means["retrain"])
            if problem:
                op = ops[self.methods.index("langevin")]
                op.problem = op.problem or problem
        return ops

    def check(self, method: str, rows) -> str | None:
        if len(rows) != 1:
            return f"{method}: {len(rows)} result rows, expected 1"
        row = rows[0]
        if row.error is not None:
            return None  # a typed error reported by the harness is a valid answer
        accs = np.asarray(row.per_trial_acc, dtype=float)
        if accs.shape != (self.trials,) or not np.all((accs >= 0) & (accs <= 1)):
            return (f"{method}: per-trial accuracies {row.per_trial_acc} are not "
                    f"{self.trials} values in [0, 1]")
        if method in ("langevin", "retrain") and not row.acc_mean >= self.acc_floor:
            return f"{method}: accuracy {row.acc_mean:.4f} below the floor {self.acc_floor}"
        return None

    def check_weights_seen(self, method: str, checked: int) -> str | None:
        """Every trial's parameter vectors went through WeightChecks; an engine
        the harness reaches by another route would leave them unchecked."""
        expected = self.trials * _WEIGHT_VECTORS[method]
        if checked < expected:
            return (f"{method}: {checked} weight vectors checked, expected at least {expected} "
                    f"(the harness no longer calls the engine entry points WeightChecks wraps)")
        return None

    def check_gap(self, unlearned, retrained) -> str | None:
        """Acceptance criterion 6's gate: the gap is within 2 pooled standard
        deviations, or within an absolute floor when the trials barely vary."""
        pooled = math.sqrt((unlearned.acc_std ** 2 + retrained.acc_std ** 2) / 2.0)
        gap = abs(unlearned.acc_mean - retrained.acc_mean)
        if gap <= max(2.0 * pooled, self.gap_floor):
            return None
        return (f"langevin {unlearned.acc_mean:.4f} vs retrain {retrained.acc_mean:.4f}: "
                f"gap {gap:.4f} > max(2 pooled std {2 * pooled:.4f}, {self.gap_floor})")

    def notes(self) -> list[str]:
        accs = {}
        for method, acc in self.accuracies:
            accs.setdefault(method, []).append(acc)
        lines = [f"{method}: mean accuracy min {min(a):.4f} median {float(np.median(a)):.4f} "
                 f"over {len(a)} calls" for method, a in accs.items()]
        lines.append(f"weights checked finite and inside the ball: {self.weights.checked}")
        return lines


class WeightChecks:
    """Checks every parameter vector the engines return: finite, and inside
    the projection ball wherever the engine projects.

    Wraps the engine entry points for the duration of a pass. The wrapping
    is identical on every commit; a commit whose harness no longer calls
    these entry points fails `Unlearn.check_weights_seen`.
    """

    # (module, function, position of the objective argument or None when
    # the result is perturbed after the last projection)
    _ENTRY_POINTS = (("pngd", "train", 0), ("pngd", "unlearn", 1),
                     ("d2d", "d2d_train", 0), ("d2d", "d2d_unlearn", None))

    def __init__(self):
        self.problems: list[str] = []
        self.checked = 0

    def _wrap(self, fn, name: str, objective_at: int | None):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            w = fn(*args, **kwargs)
            self.checked += 1
            arr = np.asarray(w, dtype=float)
            if not np.all(np.isfinite(arr)):
                self.problems.append(f"{name} returned non-finite weights")
            elif objective_at is not None:
                R = kwargs.get("R") or args[objective_at].constants.R
                norm = float(np.sqrt(np.sum(arr * arr)))
                if norm > R * (1.0 + 1e-12):
                    self.problems.append(f"{name} returned norm {norm:.6g} > R={R}")
            return w
        return checked

    @contextlib.contextmanager
    def installed(self):
        modules = {"pngd": pngd, "d2d": d2d}
        saved = []
        for mod, attr, objective_at in self._ENTRY_POINTS:
            fn = getattr(modules[mod], attr, None)
            if fn is not None:
                saved.append((modules[mod], attr, fn))
                setattr(modules[mod], attr,
                        self._wrap(fn, f"{mod}.{attr}", objective_at))
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def build(name: str, seed: int):
    """The named workload at its benchmark size."""
    if name == "calibrate":
        return Calibrate(seed)
    if name == "stream":
        return Stream(seed)
    if name == "unlearn-synthetic":
        return Unlearn(seed, name, ("langevin", "retrain", "d2d_thm9"), trials=10,
                       n_iter=1000, acc_floor=0.9, gap_floor=0.02)
    if name == "unlearn-mnist-shape":
        return Unlearn(seed, name, ("langevin", "retrain"), trials=2, n_iter=200,
                       acc_floor=0.95, gap_floor=0.01, shape_preset="mnist38")
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("calibrate", "stream", "unlearn-synthetic", "unlearn-mnist-shape")
