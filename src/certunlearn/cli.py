"""Command-line interface. Five subcommands run a harness protocol and write
its result table through one handler: calibrate-sigma, unlearn-one,
sequential, sweep and evaluate. Two are commands of their own: d2d (a
calibration report) and make-data (a dataset CSV).

Each flag's dest is an ExperimentConfig field, whose defaults are the only
ones. A key=value config file (--config) is parsed as --key=value flags ahead
of the explicit ones, which win. Exit codes: 0 success, 2 calibration
infeasible, 3 I/O error, 4 invalid config or a malformed flag. Diagnostics go
to stderr (level from UNLEARN_LOG in {error, info, debug}); results go only
to --out.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from . import d2d as _d2d
from .constants import PRESETS
from .data import SyntheticSpec, make_synthetic, save_dataset
from .errors import (BudgetUnreachable, CertUnlearnError, ConfigError,
                     DatasetFormatError, InfeasibleBudget, NoFeasibleSigma,
                     VacuousBound)
from .harness import (METHODS, ExperimentConfig, emit_results, run_calibrate_sigma,
                      run_evaluate, run_sequential, run_tradeoff_sweep,
                      run_unlearn_one, write_csv)

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


class _Parser(argparse.ArgumentParser):
    """Reports a malformed flag, key or value as a ConfigError (exit 4)."""

    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str) -> tuple[float, ...]:
    """Comma-separated floats, as --eps and --sigma-grid take them."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_common(p: argparse.ArgumentParser) -> None:
    """Every flag's dest is an ExperimentConfig field; defaults live there."""
    p.add_argument("--config", help="key=value file; flags given explicitly override it")
    p.add_argument("--preset", choices=sorted(PRESETS), help="constants bundle")
    p.add_argument("--sigma", type=float)
    p.add_argument("--eps", dest="eps_targets", type=_float_list, help="target epsilons")
    p.add_argument("--delta", type=float, help="default: 1/n of the preset")
    p.add_argument("--k-budget", type=int)
    p.add_argument("--batch", type=int)
    p.add_argument("--total-removals", dest="s_total", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--n-iter", type=int, help="training iterations")
    p.add_argument("--sigma-grid", type=_float_list, help="comma-separated sweep values")
    p.add_argument("--data", dest="data_path", help="training dataset CSV")
    p.add_argument("--test-data", dest="test_data_path", help="held-out evaluation CSV")
    p.add_argument("--init-mean", type=float)
    p.add_argument("--timing", action="store_true",
                   help="record wall-clock in the CSV (breaks byte-for-byte reruns)")


def _config_flags(path: str) -> list[str]:
    """The flags a key=value config file stands for: `key = value` becomes
    `--key=value`, and `timing`, the one flag without a value, becomes
    `--timing` when true and nothing when false."""
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
        values[key.strip().replace("_", "-")] = value.strip()
    timing = values.pop("timing", "false").lower()
    if timing not in ("1", "true", "yes", "0", "false", "no"):
        raise ConfigError(f"config key 'timing' must be true or false, got {timing!r}")
    flags = [f"--{key}={value}" for key, value in values.items()]
    return flags + ["--timing"] if timing in ("1", "true", "yes") else flags


def _table(protocol):
    """Handler that runs a harness protocol and writes its rows (and plot
    points, if it returns them); exit 2 only when every row is an error row."""
    def handler(cfg: ExperimentConfig) -> int:
        out = protocol(cfg)
        rows, plot = out if isinstance(out, tuple) else (out, None)
        emit_results(rows, cfg.out, plot=plot)
        return EXIT_CALIBRATION if all(r.error for r in rows) else EXIT_OK
    return handler


def _cmd_d2d(cfg: ExperimentConfig) -> int:
    """Emit both closed-form noise calibrations plus the reference-table
    comparison (diagnostic; the formulas are the source of truth)."""
    pc = cfg.resolved_preset().pc
    delta = cfg.resolved_delta()
    rows = []
    reference = _d2d.REFERENCE_SIGMAS_THM9.get(cfg.preset, {})
    for i_steps in (1, 2, 5):
        ref_row = reference.get(i_steps)
        for j, eps in enumerate(_d2d.REFERENCE_EPS_GRID):
            sigma = _d2d.d2d_sigma_thm9(eps, delta, i_steps, pc.M, pc.m, pc.n, pc.L)
            ref = ref_row[j] if ref_row else None
            rows.append([cfg.preset, "internal_state", str(i_steps), f"{eps:g}",
                         f"{sigma:.6g}", "" if ref is None else str(ref),
                         f"{sigma / ref:.6g}" if ref else ""])
    for eps in cfg.eps_targets:
        try:
            cal = _d2d.d2d_sigma_thm28(eps, delta, pc.M, pc.m, pc.n, pc.L, pc.d)
            rows.append([cfg.preset, "stateless", str(cal.I_min), f"{eps:g}",
                         f"{cal.sigma:.6g}", "", ""])
        except InfeasibleBudget as exc:
            log.error("thm28 eps=%g: %s", eps, exc)
            rows.append([cfg.preset, "stateless", "", f"{eps:g}", "", "", ""])
    write_csv(cfg.out, "preset,theorem,I,eps,sigma_formula,sigma_reference,ratio", rows)
    return EXIT_OK


def _cmd_make_data(cfg: ExperimentConfig) -> int:
    """Generate a synthetic dataset CSV (helper for offline runs)."""
    preset = cfg.resolved_preset()
    spec = SyntheticSpec(n=preset.pc.n, d=preset.pc.d, n_classes=preset.n_classes)
    save_dataset(make_synthetic(spec, cfg.seed), cfg.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="certunlearn",
        description="Certified machine unlearning: PNGD training/unlearning, a "
                    "Renyi accountant, and benchmark protocols.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {  # built per call, so the protocol names are looked up then
        "calibrate-sigma": (_table(run_calibrate_sigma),
                            "least noise per target at a fixed step budget"),
        "unlearn-one": (_table(run_unlearn_one), "single-point removal benchmark"),
        "sequential": (_table(run_sequential), "streamed removals and step schedules"),
        "sweep": (_table(run_tradeoff_sweep), "noise sweep at a fixed target"),
        "d2d": (_cmd_d2d, "delete-to-descent noise calibrations"),
        "evaluate": (_table(run_evaluate), "train once and report test accuracy"),
        "make-data": (_cmd_make_data, "write a synthetic dataset CSV"),
    }
    for name, (fn, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_common(p)
        p.set_defaults(handler=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if hasattr(args, "config"):  # the file's flags go first, so explicit ones win
            at = argv.index(args.command) + 1
            args = parser.parse_args([*argv[:at], *_config_flags(args.config), *argv[at:]])
        settings = {key: value for key, value in vars(args).items()
                    if key not in ("command", "config", "handler")}
        return args.handler(ExperimentConfig(**settings))
    except ConfigError as exc:
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
