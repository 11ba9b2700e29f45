"""The paper's protocols, one `run_*` function per CLI result table, and
their result files. Every protocol but the sigma table runs its trials
through one runner, `_trials`: train, then serve a list of removal requests
(none for `evaluate`, one for `unlearn-one` and `sweep`, a stream for
`sequential`); once every trial has run, one pass over the test split, a row
block at a time, scores them all.

Determinism contract: every experiment is a pure function of its config.
The generator for trial t is Philox keyed by `seed XOR t`; it draws the
trial's whole removal order first, before training. The replacement rows of
request r of trial t draw from key `seed XOR t XOR REPLACEMENT_TAG XOR r`.
Reruns with the same master seed therefore produce byte-identical output
files. Wall-clock timing is opt-in (`timing=True`) because real timings
would break that guarantee; timings always go to the stderr log.
"""
from __future__ import annotations

import logging
import math
import numbers
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from . import d2d as _d2d
from . import pngd as _pngd
from .accountant import learn_epsilon0, rdp_to_dp
from .calibrate import (binary_search_sigma, converted_epsilon, find_min_k,
                        sequential_k_schedule)
from .constants import (INFINITE, SIGMA_RANGE, SIGMA_RANGE_TEXT, NoiseSchedule, Preset,
                        ProblemConstants, default_c0, get_preset, regime_for)
from .data import SyntheticSpec, _synthetic_rows, load_dataset, make_synthetic, write_csv
from .errors import CalibrationInfeasible, ConfigError, DatasetFormatError
from .objectives import (Dataset, Objective, UnlearningRequest, _hits, _replace_rows,
                         _row_blocks, objective_for)

log = logging.getLogger("certunlearn")

REPLACEMENT_TAG = 0x7265706C << 32  # ascii "repl", shifted clear of trial indices
_TEST_SPLIT_TAG = 0x74657374         # ascii "test"

METHODS = ("langevin", "d2d_thm9", "d2d_thm28", "retrain")

# a test split's (features, labels) row blocks, labels in Dataset form
_Blocks = Iterator[tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run.

    A run certifies with the constants of the objective it trained, delta
    defaulting to 1/n of its training rows; a run that trains nothing uses
    the preset's. A `constants` bundle names the model as a preset does (n,
    lam, weights; `n_classes` classes) and must equal the constants used.
    """

    preset: str = "synthetic"
    method: str = "langevin"
    eps_targets: tuple[float, ...] = (1.0,)
    delta: float | None = None          # default 1/n of the training rows
    sigma: float | None = None          # None -> calibrate per target
    k_budget: int = 1
    trials: int = 100
    seed: int = 0
    s_total: int = 1
    batch: int = 1
    n_iter: int = 10000
    sigma_grid: tuple[float, ...] = ()
    init_mean: float = 1000.0
    constants: ProblemConstants | None = None
    n_classes: int = 2
    data_path: str | None = None
    test_data_path: str | None = None
    out: str = "results.csv"
    timing: bool = False

    def __post_init__(self):
        get_preset(self.preset)  # ConfigError for an unknown name
        for name in ("trials", "seed", "k_budget", "batch", "s_total", "n_iter"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        if not self.eps_targets:
            raise ConfigError("need at least one eps target")
        # the float checks negate an in-range test, so that nan fails them too
        if any(not 0.0 < e < math.inf for e in self.eps_targets):
            raise ConfigError(f"eps targets must be positive and finite, got {self.eps_targets}")
        # from the least normal float64 up, log(1/delta) and log(2/delta) stay finite
        if self.delta is not None and not sys.float_info.min <= self.delta < 1.0:
            raise ConfigError(f"delta must be in [{sys.float_info.min!r}, 1), got {self.delta!r}")
        if self.k_budget < 0:
            raise ConfigError(f"k_budget must be >= 0, got {self.k_budget}")
        if self.batch < 1:
            raise ConfigError(f"batch must be >= 1, got {self.batch}")
        if self.s_total < 1:
            raise ConfigError(f"total removals must be >= 1, got {self.s_total}")
        if self.n_iter < 0:
            raise ConfigError(f"n_iter must be >= 0, got {self.n_iter}")
        noise = self.sigma_grid + (() if self.sigma is None else (self.sigma,))
        if any(not SIGMA_RANGE[0] <= s <= SIGMA_RANGE[1] for s in noise):
            raise ConfigError(f"sigma values must lie in [{', '.join(SIGMA_RANGE_TEXT)}], "
                              f"got {noise}")
        if not math.isfinite(self.init_mean):
            raise ConfigError(f"init_mean must be finite, got {self.init_mean}")

    def resolved_preset(self) -> Preset:
        """The named preset, or the model the constants bundle names."""
        pc, c = self.constants, self.n_classes
        if pc is None:
            return get_preset(self.preset)
        return Preset("custom", n=pc.n, d=pc.d // c if c > 2 else pc.d, lam=pc.lam,
                      n_classes=c)

    def resolved_delta(self, pc: ProblemConstants) -> float:
        """delta, by default 1/n of the rows the certified constants pc describe."""
        return 1.0 / pc.n if self.delta is None else self.delta


@dataclass
class TrialResult:
    """One aggregated result row (plus the raw per-trial accuracies)."""

    method: str
    sigma: float | None
    epsilon_target: float
    epsilon_achieved: float | None
    k_total: int | None
    acc_mean: float | None
    acc_std: float | None
    wall_ms: float | None
    seed: int
    per_trial_acc: list[float] = field(default_factory=list)
    error: str | None = None


def trial_seed(master_seed: int, trial: int) -> int:
    """Per-trial generator key: master seed XOR trial index."""
    return master_seed ^ trial


def replacement_seed(master_seed: int, trial: int, request: int = 0) -> int:
    return trial_seed(master_seed, trial) ^ REPLACEMENT_TAG ^ request


def _load_data(cfg: ExperimentConfig) -> tuple[Dataset, Callable[[], _Blocks]]:
    """The training set and the test split's row blocks for the configured
    source. A training file must hold unit-norm rows (normalized=1), and a
    test file the same feature dimension and class count. A generated split
    is drawn a block at a time, anew each time its blocks are asked for."""
    preset = cfg.resolved_preset()
    if cfg.data_path:
        train = load_dataset(cfg.data_path)
        if not train.normalized:
            raise DatasetFormatError(f"header of {cfg.data_path} says normalized=0; protocols "
                                     "train only on unit-norm rows (normalized=1)", line=1)
        if not cfg.test_data_path:
            log.info("no test data supplied; evaluating on the training set")
            return train, lambda: _row_slices(train)
        test = load_dataset(cfg.test_data_path)
        if (test.d, test.n_classes) != (train.d, train.n_classes):
            raise DatasetFormatError(
                f"header of {cfg.test_data_path} says d={test.d} c={test.n_classes}, but the "
                f"training data {cfg.data_path} has d={train.d} c={train.n_classes}", line=1)
        return train, lambda: _row_slices(test)
    if cfg.preset != "synthetic" and cfg.constants is None:
        raise ConfigError(
            f"preset {cfg.preset!r} needs a feature CSV (data=<path>); only the "
            "synthetic preset (or an explicit constants bundle) generates its own data")
    spec = SyntheticSpec(n=preset.n, d=preset.d, n_classes=preset.n_classes)

    def test_blocks() -> _Blocks:
        labels, blocks = _synthetic_rows(replace(spec, n=max(200, preset.n // 4)),
                                         cfg.seed ^ _TEST_SPLIT_TAG, geometry_seed=cfg.seed)
        return ((X, labels[rows]) for rows, X, _ in blocks())
    return make_synthetic(spec, cfg.seed), test_blocks


def _row_slices(data: Dataset) -> _Blocks:
    return ((data.features[rows], data.labels[rows])
            for rows in _row_blocks(data.n, data.features.nbytes))


def _accuracies(weights: list[np.ndarray], blocks: _Blocks) -> list[float]:
    """Test accuracy of each weight vector, by `evaluate`'s rule, from one
    pass over the test split's (features, labels) row blocks."""
    correct, n = [0] * len(weights), 0
    for X, labels in blocks:
        n += X.shape[0]
        for i, w in enumerate(weights):
            correct[i] += int(np.count_nonzero(_hits(X @ w, labels)))
    return [c / n for c in correct]


def _certified(cfg: ExperimentConfig, objective: Objective | None = None) -> ProblemConstants:
    """The constants a protocol certifies with: those of the objective its
    chain trained, or the resolved preset's when no chain runs. An explicit
    constants bundle must equal them."""
    pc = cfg.resolved_preset().pc if objective is None else objective.constants
    if cfg.constants is not None and cfg.constants != pc:
        differ = [f"{key}={value!r} (model {getattr(pc, key)!r})"
                  for key, value in vars(cfg.constants).items() if value != getattr(pc, key)]
        raise ConfigError(f"the constants bundle differs from the model's in {', '.join(differ)}")
    return pc


def _run_trial(cfg: ExperimentConfig, method: str, sigma: float,
               requests: list[tuple[int, int]], objective: Objective,
               t: int) -> np.ndarray:
    """Weights of trial t: train, then serve `requests` in turn.

    Each request is (points removed, unlearning steps). The trial's
    generator draws the whole removal order before training. Langevin
    trains by noisy GD from the C0 initialization and fine-tunes by noisy
    GD; retrain applies every request and then trains once on what
    remains; the delete-to-descent methods train deterministically from a
    unit-variance start and add sigma-noise after each request's steps.
    """
    data, pc = objective.data, objective.constants
    rng = _pngd.make_rng(trial_seed(cfg.seed, t))
    order = rng.choice(data.n, size=sum(size for size, _ in requests),
                       replace=False).tolist()

    def serve(w, step):
        """w after the last request: each request writes its rows into the
        loaded data, then w = step(w, objective on the post-request data,
        steps). No objective outlives its step unless the step returns it."""
        lo = 0
        for r, (size, steps) in enumerate(requests):
            req = UnlearningRequest(indices=tuple(order[lo:lo + size]),
                                    replacement_seed=replacement_seed(cfg.seed, t, r))
            _replace_rows(data.features, data.labels, req)
            lo += size
            w = step(w, objective_for(Dataset(data.features, data.labels,
                                              normalized=data.normalized),
                                      lam=pc.lam, radius=pc.R), steps)
        return w

    # the rows the requests overwrite, put back before the trial returns:
    # with no test file, the test set is the training set
    kept = data.features[order], data.labels[order]
    try:
        if method in ("langevin", "retrain"):
            ns = NoiseSchedule(eta=1.0 / pc.L, sigma=sigma, T=cfg.n_iter)
            init = _pngd.InitSpec(mean=cfg.init_mean,
                                  variance=default_c0(pc, ns, regime_for(pc)))
            if method == "retrain":  # exact removal: train once on what remains
                w = _pngd.train(serve(objective, lambda _, updated, steps: updated),
                                ns, init, rng)
            else:
                w = serve(_pngd.train(objective, ns, init, rng),
                          lambda w, updated, steps: _pngd.unlearn(w, updated, steps, ns, rng))
        else:
            w = _pngd.draw_init(_pngd.InitSpec(mean=cfg.init_mean, variance=1.0),
                                objective.shape, pc.R, rng)
            w = serve(_d2d.d2d_train(objective, cfg.n_iter, w),
                      lambda w, updated, steps: _d2d.d2d_unlearn(w, updated, steps, sigma,
                                                                  rng))
    finally:
        data.features[order], data.labels[order] = kept
    return w


def _trials(cfg: ExperimentConfig, count: int):
    """The constants `count` trials certify with (see `_certified`), and
    their runner, which maps (method, sigma, requests) to the per-trial
    accuracies and their mean and sample std (None, None for no trials).
    The runner runs every trial, then scores them all in one pass over the
    test split. The data are loaded here, once, and only when count > 0."""
    objective = test_blocks = None
    if count > 0:
        data, test_blocks = _load_data(cfg)
        objective = objective_for(data, lam=cfg.resolved_preset().lam)
    pc = _certified(cfg, objective)

    def run(method: str, sigma: float, requests: list[tuple[int, int]]):
        removed = sum(size for size, _ in requests)
        if count > 0 and removed > objective.data.n:
            raise ConfigError(f"{removed} removals per trial exceed the "
                              f"{objective.data.n} training rows")
        if count == 0:
            return [], None, None
        accs = _accuracies([_run_trial(cfg, method, sigma, requests, objective, t)
                            for t in range(count)], test_blocks())
        arr = np.asarray(accs, dtype=float)
        return accs, float(arr.mean()), float(arr.std(ddof=1)) if len(accs) > 1 else 0.0
    return pc, run


# The ExperimentConfig fields each protocol below reads; the CLI gives its
# subcommand exactly these flags, plus --config and --out. _TRIAL_READS is
# what _trials reads through _load_data and _run_trial.
_TRIAL_READS = ("preset", "trials", "seed", "n_iter", "init_mean", "data_path",
                "test_data_path")
_CALIBRATE_SIGMA_READS = ("preset", "eps_targets", "delta", "k_budget", "batch", "seed",
                          "timing")
_UNLEARN_ONE_READS = (*_TRIAL_READS, "method", "eps_targets", "delta", "sigma", "k_budget",
                      "timing")
_SEQUENTIAL_READS = (*_TRIAL_READS, "method", "eps_targets", "delta", "sigma", "batch",
                     "s_total")
_SWEEP_READS = (*_TRIAL_READS, "eps_targets", "delta", "sigma_grid", "s_total")
_EVALUATE_READS = (*_TRIAL_READS, "sigma")


def run_calibrate_sigma(cfg: ExperimentConfig) -> list[TrialResult]:
    """Least sigma per target at the step budget (accountant only); a target
    that no sigma certifies within the budget gives an error row."""
    pc = _certified(cfg)
    regime, eta, delta = regime_for(pc), 1.0 / pc.L, cfg.resolved_delta(pc)
    rows: list[TrialResult] = []
    for eps_hat in cfg.eps_targets:
        t0 = time.perf_counter()
        try:
            sigma = binary_search_sigma(eps_hat, delta, cfg.k_budget, pc, regime,
                                        S=cfg.batch, eta=eta)
            ns = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=cfg.k_budget)
            cert = converted_epsilon(pc, ns, regime, cfg.batch, cfg.k_budget, delta)
            rows.append(TrialResult("langevin", sigma, eps_hat, cert, cfg.k_budget,
                                    None, None, None, cfg.seed))
        except CalibrationInfeasible as exc:
            log.error("eps=%g: %s", eps_hat, exc)
            rows.append(TrialResult("langevin", None, eps_hat, None, None, None,
                                    None, None, cfg.seed, error=str(exc)))
        if cfg.timing:
            rows[-1].wall_ms = 1e3 * (time.perf_counter() - t0)
    return rows


def run_unlearn_one(cfg: ExperimentConfig) -> list[TrialResult]:
    """Single-point removal at a fixed fine-tuning budget, one row per target.

    Langevin rows calibrate the least noise meeting (eps, k_budget); retrain
    rows share that calibration but rebuild the model from scratch on the
    post-request data; the delete-to-descent rows use their closed-form
    noise at I = k_budget deterministic steps.
    """
    pc, run = _trials(cfg, cfg.trials)
    rows: list[TrialResult] = []
    for eps_hat in cfg.eps_targets:
        t0 = time.perf_counter()
        try:
            rows.append(_unlearn_one_row(cfg, pc, eps_hat, run))
        except CalibrationInfeasible as exc:
            log.error("target eps=%g: %s", eps_hat, exc)
            rows.append(TrialResult(cfg.method, None, eps_hat, None, None, None,
                                    None, None, cfg.seed, error=str(exc)))
        if cfg.timing:
            rows[-1].wall_ms = 1e3 * (time.perf_counter() - t0)
        log.info("unlearn-one eps=%g done in %.1f ms", eps_hat,
                 1e3 * (time.perf_counter() - t0))
    return rows


def _unlearn_one_row(cfg: ExperimentConfig, pc: ProblemConstants, eps_hat: float,
                     run) -> TrialResult:
    regime, eta, delta = regime_for(pc), 1.0 / pc.L, cfg.resolved_delta(pc)
    k_hat = cfg.k_budget

    if cfg.method in ("langevin", "retrain"):
        sigma = cfg.sigma if cfg.sigma is not None else binary_search_sigma(
            eps_hat, delta, k_hat, pc, regime, S=1, eta=eta)
        ns = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=k_hat)
        if cfg.method == "langevin":
            eps_achieved = converted_epsilon(pc, ns, regime, 1, k_hat, delta)
            k_total = k_hat
        else:
            eps_achieved = 0.0  # retraining is exact removal
            k_total = cfg.n_iter
        unlearn_steps = k_hat
    elif cfg.method == "d2d_thm9":
        sigma = _d2d.d2d_sigma_thm9(eps_hat, delta, k_hat, pc.M, pc.m, pc.n, pc.L)
        eps_achieved, k_total, unlearn_steps = eps_hat, k_hat, k_hat
    else:  # d2d_thm28
        cal = _d2d.d2d_sigma_thm28(eps_hat, delta, pc.M, pc.m, pc.n, pc.L, pc.d)
        sigma = cal.sigma
        unlearn_steps = cal.iterations(1)
        eps_achieved, k_total = eps_hat, unlearn_steps

    accs, mean, std = run(cfg.method, sigma, [(1, unlearn_steps)])
    return TrialResult(cfg.method, sigma, eps_hat, eps_achieved, k_total,
                       mean, std, None, cfg.seed, per_trial_acc=accs)


def _single_target(cfg: ExperimentConfig) -> float:
    if len(cfg.eps_targets) != 1:
        raise ConfigError(f"this protocol takes one eps target, got {cfg.eps_targets}")
    return cfg.eps_targets[0]


def run_sequential(cfg: ExperimentConfig) -> tuple[list[TrialResult], list[tuple]]:
    """Streamed removals: per-request step schedule plus cumulative cost.

    Returns (summary rows, plot points); plot points are (removed, cumulative
    iterations, 0) triples, one per request. Accuracy trials execute the
    full stream and run only when trials > 0.
    """
    eps_hat = _single_target(cfg)
    if cfg.method not in ("langevin", "d2d_thm28"):
        raise ConfigError(f"sequential supports langevin or d2d_thm28, not {cfg.method!r}")
    if cfg.method == "langevin" and cfg.sigma is None:
        raise ConfigError("sequential langevin runs need an explicit sigma")
    pc, run = _trials(cfg, cfg.trials)
    delta = cfg.resolved_delta(pc)
    if cfg.method == "langevin":
        schedule = sequential_k_schedule(eps_hat, delta, cfg.sigma, cfg.s_total,
                                         cfg.batch, pc, regime_for(pc), eta=1.0 / pc.L)
        sigma = cfg.sigma
        batch = cfg.batch
    else:
        cal = _d2d.d2d_sigma_thm28(eps_hat, delta, pc.M, pc.m, pc.n, pc.L, pc.d)
        schedule = [cal.iterations(i) for i in range(1, cfg.s_total + 1)]
        sigma = cal.sigma
        batch = 1  # the baseline removes one point per request

    cum = np.cumsum(schedule)
    plot = [(min((i + 1) * batch, cfg.s_total), int(c), 0.0)
            for i, c in enumerate(cum)]
    requests = [(min(batch, cfg.s_total - r * batch), steps)
                for r, steps in enumerate(schedule)]

    accs, mean, std = run(cfg.method, sigma, requests)
    row = TrialResult(cfg.method, sigma, eps_hat, eps_hat, int(cum[-1]), mean, std, None,
                      cfg.seed, per_trial_acc=accs)
    return [row], plot


def run_tradeoff_sweep(cfg: ExperimentConfig) -> tuple[list[TrialResult], list[tuple]]:
    """Langevin noise sweep at a fixed target: per sigma, the converted
    privacy loss of training alone, the least fine-tuning steps for the
    target, and (optionally) post-unlearning accuracy.

    Plot points are (sigma, converted initial epsilon, 0) triples.
    """
    if not cfg.sigma_grid:
        raise ConfigError("sweep needs a non-empty sigma grid")
    eps_hat = _single_target(cfg)
    S = cfg.s_total

    rows: list[TrialResult] = []
    plot: list[tuple] = []
    pc, run = _trials(cfg, cfg.trials)
    regime, delta = regime_for(pc), cfg.resolved_delta(pc)
    for sigma in cfg.sigma_grid:
        ns = NoiseSchedule(eta=1.0 / pc.L, sigma=sigma, T=INFINITE, K=0)
        try:
            eps0 = rdp_to_dp(learn_epsilon0(pc, ns, regime, S=S), delta)[0]
            k = find_min_k(eps_hat, delta, pc, ns, regime, S=S)
        except CalibrationInfeasible as exc:
            log.error("sigma=%g: %s", sigma, exc)
            rows.append(TrialResult("langevin", sigma, eps_hat, None, None, None,
                                    None, None, cfg.seed, error=str(exc)))
            continue
        accs, mean, std = run("langevin", sigma, [(S, k)])
        cert = converted_epsilon(pc, ns, regime, S, k, delta)
        rows.append(TrialResult("langevin", sigma, eps_hat, cert, k, mean, std,
                                None, cfg.seed, per_trial_acc=accs))
        plot.append((sigma, eps0, 0.0))
    return rows, plot


def run_evaluate(cfg: ExperimentConfig) -> list[TrialResult]:
    """Train from scratch (no removal) and report test accuracy. No target
    applies; the row's epsilon_target column carries the default one."""
    sigma = cfg.sigma if cfg.sigma is not None else 0.03
    _, run = _trials(cfg, max(cfg.trials, 1))
    accs, mean, std = run("langevin", sigma, [])
    return [TrialResult("evaluate", sigma, ExperimentConfig.eps_targets[0], None,
                        cfg.n_iter, mean, std, None, cfg.seed, per_trial_acc=accs)]


CSV_HEADER = "method,sigma,epsilon_target,epsilon_achieved,K_total,acc_mean,acc_std,wall_ms,seed"
TRIALS_HEADER = "method,sigma,epsilon_target,trial,trial_seed,acc"


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".12g")


def trials_log_path(path: str) -> str:
    return (path[:-4] if path.endswith(".csv") else path) + ".trials.csv"


def plot_data_path(path: str) -> str:
    return (path[:-4] if path.endswith(".csv") else path) + ".plot.csv"


def emit_results(table: list[TrialResult], path: str,
                 plot: list[tuple] | None = None) -> str:
    """Write the results CSV (stable column order), the raw per-trial log,
    and optionally a plot-data file of (x, y, yerr) triples."""
    if not table:
        raise ValueError("refusing to emit an empty result table")
    write_csv(path, CSV_HEADER, ([
        row.method, _fmt(row.sigma), _fmt(row.epsilon_target),
        _fmt(row.epsilon_achieved), _fmt(row.k_total), _fmt(row.acc_mean),
        _fmt(row.acc_std), _fmt(row.wall_ms), str(row.seed),
    ] for row in table))
    if any(row.per_trial_acc for row in table):
        write_csv(trials_log_path(path), TRIALS_HEADER, ([
            row.method, _fmt(row.sigma), _fmt(row.epsilon_target), str(t),
            str(trial_seed(row.seed, t)), _fmt(acc),
        ] for row in table for t, acc in enumerate(row.per_trial_acc)))
    if plot:
        write_csv(plot_data_path(path), "x,y,yerr",
                  ([_fmt(x), _fmt(y), _fmt(yerr)] for x, y, yerr in plot))
    return path
