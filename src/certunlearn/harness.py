"""The paper's protocols, one `run_*` function per CLI result table, and
their result files. Every protocol but the sigma table runs its trials
through one runner, `_trials`: train, then serve a list of removal requests
(none for `evaluate`, one for `unlearn-one` and `sweep`, a stream for
`sequential`).

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
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import d2d as _d2d
from . import pngd as _pngd
from .accountant import learn_epsilon0, rdp_to_dp
from .calibrate import (binary_search_sigma, converted_epsilon, find_min_k,
                        sequential_k_schedule)
from .constants import (INFINITE, SIGMA_RANGE, SIGMA_RANGE_TEXT, NoiseSchedule, Preset,
                        ProblemConstants, default_c0, get_preset, regime_for)
from .data import SyntheticSpec, load_dataset, make_synthetic, write_csv
from .errors import (BudgetUnreachable, CertUnlearnError, ConfigError, DatasetFormatError,
                     NoFeasibleSigma)
from .objectives import (Dataset, Objective, UnlearningRequest, _replace_rows, evaluate,
                         objective_for)

log = logging.getLogger("certunlearn")

REPLACEMENT_TAG = 0x7265706C << 32  # ascii "repl", shifted clear of trial indices
_TEST_SPLIT_TAG = 0x74657374         # ascii "test"

METHODS = ("langevin", "d2d_thm9", "d2d_thm28", "retrain")


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one experiment run.

    Either a named preset or an explicit constants bundle may drive the
    accountant; `constants` wins when both are set (the preset name then
    only selects the data source).
    """

    preset: str = "synthetic"
    method: str = "langevin"
    eps_targets: tuple[float, ...] = (1.0,)
    delta: float | None = None          # default 1/n of the preset
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
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.trials < 0:
            raise ConfigError("trials must be >= 0")
        if not self.eps_targets:
            raise ConfigError("need at least one eps target")
        # the float checks negate an in-range test, so that nan fails them too
        if any(not e > 0 for e in self.eps_targets):
            raise ConfigError("eps targets must be positive")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {self.delta}")
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
        if self.constants is not None:
            return Preset(name="custom", pc=self.constants,
                          regime=regime_for(self.constants),
                          delta=1.0 / self.constants.n, n_classes=self.n_classes)
        return get_preset(self.preset)

    def resolved_delta(self) -> float:
        return self.delta if self.delta is not None else self.resolved_preset().delta


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


def _load_data(cfg: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """(train, test) datasets for the configured source. A training file
    must hold unit-norm rows (normalized=1), and a test file the same
    feature dimension and class count."""
    preset = cfg.resolved_preset()
    if cfg.data_path:
        train = load_dataset(cfg.data_path)
        if not train.normalized:
            raise DatasetFormatError(f"header of {cfg.data_path} says normalized=0; protocols "
                                     "train only on unit-norm rows (normalized=1)", line=1)
        if not cfg.test_data_path:
            log.info("no test data supplied; evaluating on the training set")
            return train, train
        test = load_dataset(cfg.test_data_path)
        if (test.d, test.n_classes) != (train.d, train.n_classes):
            raise DatasetFormatError(
                f"header of {cfg.test_data_path} says d={test.d} c={test.n_classes}, but the "
                f"training data {cfg.data_path} has d={train.d} c={train.n_classes}", line=1)
        return train, test
    if cfg.preset != "synthetic" and cfg.constants is None:
        raise ConfigError(
            f"preset {cfg.preset!r} needs a feature CSV (data=<path>); only the "
            "synthetic preset (or an explicit constants bundle) generates its own data")
    pc = preset.pc
    spec = SyntheticSpec(n=pc.n, d=pc.d, n_classes=preset.n_classes)
    train = make_synthetic(spec, cfg.seed)
    test = make_synthetic(replace(spec, n=max(200, pc.n // 4)),
                          cfg.seed ^ _TEST_SPLIT_TAG, geometry_seed=cfg.seed)
    return train, test


def _objective_for(preset: Preset, data: Dataset) -> Objective:
    return objective_for(data, lam=preset.pc.lam, radius=preset.pc.R)


def _run_trial(cfg: ExperimentConfig, preset: Preset, method: str, sigma: float,
               requests: list[tuple[int, int]], objective: Objective,
               test: Dataset, t: int) -> float:
    """Test accuracy of trial t: train, then serve `requests` in turn.

    Each request is (points removed, unlearning steps). The trial's
    generator draws the whole removal order before training. Langevin
    trains by noisy GD from the C0 initialization and fine-tunes by noisy
    GD; retrain applies every request and then trains once on what
    remains; the delete-to-descent methods train deterministically from a
    unit-variance start and add sigma-noise after each request's steps.
    """
    data = objective.data
    rng = _pngd.make_rng(trial_seed(cfg.seed, t))
    order = rng.choice(data.n, size=sum(size for size, _ in requests),
                       replace=False).tolist()

    def served():
        """(objective on the post-request data, steps) per request. Every
        request writes its rows into one copy of the data, so a yielded
        objective holds only until the next one is drawn."""
        if not requests:
            return
        X, y = data.features.copy(), data.labels.copy()
        lo = 0
        for r, (size, steps) in enumerate(requests):
            req = UnlearningRequest(indices=tuple(order[lo:lo + size]),
                                    replacement_seed=replacement_seed(cfg.seed, t, r))
            _replace_rows(X, y, req)
            lo += size
            yield _objective_for(preset, Dataset(X, y, normalized=data.normalized)), steps

    if method in ("langevin", "retrain"):
        ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=cfg.n_iter)
        init = _pngd.InitSpec(mean=cfg.init_mean,
                              variance=default_c0(preset.pc, ns, preset.regime))
        if method == "retrain":  # exact removal: train once on what remains
            for objective, _ in served():
                pass
            return evaluate(_pngd.train(objective, ns, init, rng), test)[1]
        w = _pngd.train(objective, ns, init, rng)
        for updated, steps in served():
            w = _pngd.unlearn(w, updated, steps, ns, rng)
    else:
        w = _pngd.draw_init(_pngd.InitSpec(mean=cfg.init_mean, variance=1.0),
                            objective.shape, preset.pc.R, rng)
        w = _d2d.d2d_train(objective, cfg.n_iter, w)
        for updated, steps in served():
            w = _d2d.d2d_unlearn(w, updated, steps, sigma, rng)
    return evaluate(w, test)[1]


def _trials(cfg: ExperimentConfig, preset: Preset, count: int):
    """Runner of `count` trials: maps (method, sigma, requests) to the
    per-trial accuracies and their mean and sample std (None, None for no
    trials). The data are loaded here, once, and only when count > 0."""
    objective = test = None
    if count > 0:
        data, test = _load_data(cfg)
        objective = _objective_for(preset, data)

    def run(method: str, sigma: float, requests: list[tuple[int, int]]):
        removed = sum(size for size, _ in requests)
        if count > 0 and removed > objective.data.n:
            raise ConfigError(f"{removed} removals per trial exceed the "
                              f"{objective.data.n} training rows")
        accs = [_run_trial(cfg, preset, method, sigma, requests, objective, test, t)
                for t in range(count)]
        if not accs:
            return accs, None, None
        arr = np.asarray(accs, dtype=float)
        return accs, float(arr.mean()), float(arr.std(ddof=1)) if len(accs) > 1 else 0.0
    return run


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
    preset = cfg.resolved_preset()
    delta = cfg.resolved_delta()
    rows: list[TrialResult] = []
    for eps_hat in cfg.eps_targets:
        t0 = time.perf_counter()
        try:
            sigma = binary_search_sigma(eps_hat, delta, cfg.k_budget, preset.pc,
                                        preset.regime, S=cfg.batch, eta=preset.eta)
            ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=INFINITE, K=cfg.k_budget)
            cert = converted_epsilon(preset.pc, ns, preset.regime, cfg.batch,
                                     cfg.k_budget, delta)
            rows.append(TrialResult("langevin", sigma, eps_hat, cert, cfg.k_budget,
                                    None, None, None, cfg.seed))
        except (NoFeasibleSigma, BudgetUnreachable) as exc:
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
    preset = cfg.resolved_preset()
    delta = cfg.resolved_delta()
    run = _trials(cfg, preset, cfg.trials)
    rows: list[TrialResult] = []
    for eps_hat in cfg.eps_targets:
        t0 = time.perf_counter()
        try:
            rows.append(_unlearn_one_row(cfg, preset, delta, eps_hat, run))
        except CertUnlearnError as exc:
            log.error("target eps=%g: %s", eps_hat, exc)
            rows.append(TrialResult(cfg.method, None, eps_hat, None, None, None,
                                    None, None, cfg.seed, error=str(exc)))
        if cfg.timing:
            rows[-1].wall_ms = 1e3 * (time.perf_counter() - t0)
        log.info("unlearn-one eps=%g done in %.1f ms", eps_hat,
                 1e3 * (time.perf_counter() - t0))
    return rows


def _unlearn_one_row(cfg: ExperimentConfig, preset: Preset, delta: float,
                     eps_hat: float, run) -> TrialResult:
    pc = preset.pc
    eta = preset.eta
    k_hat = int(cfg.k_budget)

    if cfg.method in ("langevin", "retrain"):
        sigma = cfg.sigma if cfg.sigma is not None else binary_search_sigma(
            eps_hat, delta, k_hat, pc, preset.regime, S=1, eta=eta)
        ns = NoiseSchedule(eta=eta, sigma=sigma, T=INFINITE, K=k_hat)
        if cfg.method == "langevin":
            eps_achieved = converted_epsilon(pc, ns, preset.regime, 1, k_hat, delta)
            k_total = k_hat
        else:
            eps_achieved = 0.0  # retraining is exact removal
            k_total = cfg.n_iter
        unlearn_steps = k_hat
    elif cfg.method == "d2d_thm9":
        sigma = _d2d.d2d_sigma_thm9(eps_hat, delta, k_hat, pc.M, pc.m, pc.n, pc.L)
        eps_achieved, k_total, unlearn_steps = eps_hat, k_hat, k_hat
    else:  # d2d_thm28
        cal = _d2d.d2d_sigma_thm28(eps_hat, delta, pc.M, pc.m, pc.n, pc.L, preset.n_params)
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
    preset = cfg.resolved_preset()
    delta = cfg.resolved_delta()
    pc = preset.pc
    eps_hat = _single_target(cfg)
    if cfg.method == "langevin":
        if cfg.sigma is None:
            raise ConfigError("sequential langevin runs need an explicit sigma")
        schedule = sequential_k_schedule(eps_hat, delta, cfg.sigma, cfg.s_total,
                                         cfg.batch, pc, preset.regime, eta=preset.eta)
        sigma = cfg.sigma
        batch = cfg.batch
    elif cfg.method == "d2d_thm28":
        cal = _d2d.d2d_sigma_thm28(eps_hat, delta, pc.M, pc.m, pc.n, pc.L, preset.n_params)
        schedule = [cal.iterations(i) for i in range(1, cfg.s_total + 1)]
        sigma = cal.sigma
        batch = 1  # the baseline removes one point per request
    else:
        raise ConfigError(f"sequential supports langevin or d2d_thm28, not {cfg.method!r}")

    cum = np.cumsum(schedule)
    plot = [(min((i + 1) * batch, cfg.s_total), int(c), 0.0)
            for i, c in enumerate(cum)]
    requests = [(min(batch, cfg.s_total - r * batch), steps)
                for r, steps in enumerate(schedule)]

    accs, mean, std = _trials(cfg, preset, cfg.trials)(cfg.method, sigma, requests)
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
    preset = cfg.resolved_preset()
    delta = cfg.resolved_delta()
    pc = preset.pc
    eps_hat = _single_target(cfg)
    S = cfg.s_total

    rows: list[TrialResult] = []
    plot: list[tuple] = []
    run = _trials(cfg, preset, cfg.trials)
    for sigma in cfg.sigma_grid:
        ns = NoiseSchedule(eta=preset.eta, sigma=sigma, T=INFINITE, K=0)
        try:
            eps0 = rdp_to_dp(learn_epsilon0(pc, ns, preset.regime, S=S), delta)[0]
            k = find_min_k(eps_hat, delta, pc, ns, preset.regime, S=S)
        except CertUnlearnError as exc:
            log.error("sigma=%g: %s", sigma, exc)
            rows.append(TrialResult("langevin", sigma, eps_hat, None, None, None,
                                    None, None, cfg.seed, error=str(exc)))
            continue
        accs, mean, std = run("langevin", sigma, [(S, k)])
        cert = converted_epsilon(pc, ns, preset.regime, S, k, delta)
        rows.append(TrialResult("langevin", sigma, eps_hat, cert, k, mean, std,
                                None, cfg.seed, per_trial_acc=accs))
        plot.append((sigma, eps0, 0.0))
    return rows, plot


def run_evaluate(cfg: ExperimentConfig) -> list[TrialResult]:
    """Train from scratch (no removal) and report test accuracy. No target
    applies; the row's epsilon_target column carries the default one."""
    preset = cfg.resolved_preset()
    sigma = cfg.sigma if cfg.sigma is not None else 0.03
    accs, mean, std = _trials(cfg, preset, max(cfg.trials, 1))("langevin", sigma, [])
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
