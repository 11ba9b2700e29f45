"""Command-line interface.

Subcommands: calibrate-sigma, unlearn-one, sequential, sweep, d2d, evaluate.
A key=value config file (--config) may set any flag; explicit flags win.
Exit codes: 0 success, 2 calibration infeasible, 3 I/O error, 4 invalid
config. Diagnostics go to stderr (level from UNLEARN_LOG in
{error, info, debug}); results go only to --out.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from . import d2d as _d2d
from .calibrate import binary_search_sigma, converted_epsilon
from .constants import INFINITE, NoiseSchedule, PRESETS
from .data import SyntheticSpec, make_synthetic, save_dataset
from .errors import (BudgetUnreachable, CertUnlearnError, ConfigError,
                     DatasetFormatError, InfeasibleBudget, NoFeasibleSigma,
                     VacuousBound)
from .harness import (ExperimentConfig, TrialResult, emit_results, run_evaluate,
                      run_sequential, run_tradeoff_sweep, run_unlearn_one)

log = logging.getLogger("certunlearn")

EXIT_OK = 0
EXIT_CALIBRATION = 2
EXIT_IO = 3
EXIT_CONFIG = 4


def _configure_logging() -> None:
    level = os.environ.get("UNLEARN_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        print(f"warning: UNLEARN_LOG={level!r} not in {sorted(levels)}; using error",
              file=sys.stderr)
        level = "error"
    logging.basicConfig(stream=sys.stderr, level=levels[level],
                        format="%(levelname)s %(name)s: %(message)s")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value file; flags given explicitly override it")
    p.add_argument("--preset", default="synthetic", choices=sorted(PRESETS),
                   help="constants bundle (default: synthetic)")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--eps", default=None,
                   help="target epsilon or comma-separated list (default: 1)")
    p.add_argument("--delta", type=float, default=None, help="default: 1/n of the preset")
    p.add_argument("--k-budget", type=int, default=1)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--total-removals", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="results.csv")
    p.add_argument("--method", default="langevin",
                   choices=["langevin", "d2d_thm9", "d2d_thm28", "retrain"])
    p.add_argument("--n-iter", type=int, default=10000, help="training iterations")
    p.add_argument("--sigma-grid", default=None, help="comma-separated sweep values")
    p.add_argument("--data", default=None, help="training dataset CSV")
    p.add_argument("--test-data", default=None, help="held-out evaluation CSV")
    p.add_argument("--init-mean", type=float, default=1000.0)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock in the CSV (breaks byte-for-byte reruns)")


def _parse_config_file(path: str) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


_CONFIG_COERCERS = {
    "sigma": float, "delta": float, "k_budget": int, "batch": int,
    "total_removals": int, "trials": int, "seed": int, "n_iter": int,
    "init_mean": float, "timing": lambda v: v.lower() in ("1", "true", "yes"),
}


def _merge_config(args: argparse.Namespace, argv: list[str]) -> None:
    """Apply config-file values for flags the user did not pass explicitly."""
    if not args.config:
        return
    values = _parse_config_file(args.config)
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_")
                for a in argv if a.startswith("--")}
    for key, raw in values.items():
        if key in explicit or not hasattr(args, key):
            if not hasattr(args, key):
                raise ConfigError(f"unknown config key {key!r}")
            continue
        coerce = _CONFIG_COERCERS.get(key, str)
        try:
            setattr(args, key, coerce(raw))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc


def _eps_list(args: argparse.Namespace) -> tuple[float, ...]:
    if args.eps is None:
        return (1.0,)
    try:
        return tuple(float(tok) for tok in str(args.eps).split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"bad --eps value {args.eps!r}: {exc}") from exc


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    grid = ()
    if args.sigma_grid:
        try:
            grid = tuple(float(tok) for tok in str(args.sigma_grid).split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad --sigma-grid value: {exc}") from exc
    return ExperimentConfig(
        preset=args.preset, method=args.method, eps_targets=_eps_list(args),
        delta=args.delta, sigma=args.sigma, k_budget=args.k_budget,
        trials=args.trials, seed=args.seed, s_total=args.total_removals,
        batch=args.batch, n_iter=args.n_iter, sigma_grid=grid,
        init_mean=args.init_mean, data_path=args.data,
        test_data_path=args.test_data, out=args.out, timing=args.timing)


def _cmd_calibrate_sigma(args) -> int:
    """Pure accountant run: least sigma per target at the step budget."""
    cfg = _build_config(args)
    preset = cfg.resolved_preset()
    delta = cfg.resolved_delta()
    rows: list[TrialResult] = []
    failures = 0
    for eps_hat in cfg.eps_targets:
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
            failures += 1
    emit_results(rows, cfg.out)
    return EXIT_CALIBRATION if failures == len(rows) else EXIT_OK


def _cmd_unlearn_one(args) -> int:
    cfg = _build_config(args)
    rows = run_unlearn_one(cfg)
    emit_results(rows, cfg.out)
    return EXIT_CALIBRATION if all(r.error for r in rows) else EXIT_OK


def _cmd_sequential(args) -> int:
    cfg = _build_config(args)
    rows, plot = run_sequential(cfg)
    emit_results(rows, cfg.out, plot=plot)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    rows, plot = run_tradeoff_sweep(cfg)
    emit_results(rows, cfg.out, plot=plot)
    return EXIT_CALIBRATION if all(r.error for r in rows) else EXIT_OK


def _cmd_d2d(args) -> int:
    """Emit both closed-form noise calibrations plus the reference-table
    comparison (diagnostic; the formulas are the source of truth)."""
    cfg = _build_config(args)
    preset = cfg.resolved_preset()
    delta = cfg.resolved_delta()
    pc = preset.pc
    lines = ["preset,theorem,I,eps,sigma_formula,sigma_reference,ratio"]
    reference = _d2d.REFERENCE_SIGMAS_THM9.get(cfg.preset, {})
    for i_steps in (1, 2, 5):
        ref_row = reference.get(i_steps)
        for j, eps in enumerate(_d2d.REFERENCE_EPS_GRID):
            sigma = _d2d.d2d_sigma_thm9(eps, delta, i_steps, pc.M, pc.m, pc.n, pc.L)
            ref = ref_row[j] if ref_row else None
            ratio = sigma / ref if ref else None
            lines.append(f"{cfg.preset},internal_state,{i_steps},{eps:g},"
                         f"{sigma:.6g},{'' if ref is None else ref},"
                         f"{'' if ratio is None else format(ratio, '.6g')}")
    for eps in cfg.eps_targets:
        try:
            cal = _d2d.d2d_sigma_thm28(eps, delta, pc.M, pc.m, pc.n, pc.L, pc.d)
            lines.append(f"{cfg.preset},stateless,{cal.I_min},{eps:g},"
                         f"{cal.sigma:.6g},,")
        except InfeasibleBudget as exc:
            log.error("thm28 eps=%g: %s", eps, exc)
            lines.append(f"{cfg.preset},stateless,,{eps:g},,,")
    try:
        with open(cfg.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write {cfg.out!r}: {exc}") from exc
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    """Train on the configured data (no removal) and report test accuracy."""
    cfg = _build_config(args)
    rows = run_evaluate(cfg)
    emit_results(rows, cfg.out)
    return EXIT_OK


def _cmd_make_data(args) -> int:
    """Generate a synthetic dataset CSV (helper for offline runs)."""
    cfg = _build_config(args)
    preset = cfg.resolved_preset()
    spec = SyntheticSpec(n=preset.pc.n, d=preset.pc.d, n_classes=preset.n_classes)
    save_dataset(make_synthetic(spec, cfg.seed), cfg.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certunlearn",
        description="Certified machine unlearning: PNGD training/unlearning, a "
                    "Renyi accountant, and benchmark protocols.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "calibrate-sigma": (_cmd_calibrate_sigma,
                            "least noise per target at a fixed step budget"),
        "unlearn-one": (_cmd_unlearn_one, "single-point removal benchmark"),
        "sequential": (_cmd_sequential, "streamed removals and step schedules"),
        "sweep": (_cmd_sweep, "noise sweep at a fixed target"),
        "d2d": (_cmd_d2d, "delete-to-descent noise calibrations"),
        "evaluate": (_cmd_evaluate, "train once and report test accuracy"),
        "make-data": (_cmd_make_data, "write a synthetic dataset CSV"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, argv)
        return args.handler(args)
    except ConfigError as exc:
        log.error("%s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NoFeasibleSigma, BudgetUnreachable, InfeasibleBudget, VacuousBound) as exc:
        print(f"calibration infeasible: {exc}", file=sys.stderr)
        return EXIT_CALIBRATION
    except (DatasetFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CertUnlearnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
