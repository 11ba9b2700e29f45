"""Command-line interface. Five subcommands run a harness protocol and write
its result table through one handler (calibrate-sigma, unlearn-one,
sequential, sweep, evaluate); d2d writes a calibration report and make-data a
dataset CSV. Each takes --config, --out and the flags of the ExperimentConfig
fields it reads; a key=value config file is read as --key=value flags ahead
of the explicit ones, which win. Exit codes: 0 success, 2 calibration
infeasible, 3 I/O error, 4 invalid config or flag. Diagnostics go to stderr
(level from UNLEARN_LOG in {error, info, debug}); results go only to --out.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys

from . import d2d as _d2d
from .constants import PRESETS
from .data import SyntheticSpec, make_synthetic, save_dataset, write_csv
from .errors import (BudgetUnreachable, CertUnlearnError, ConfigError, DatasetFormatError,
                     InfeasibleBudget, NoFeasibleSigma, VacuousBound)
from .harness import (_CALIBRATE_SIGMA_READS, _EVALUATE_READS, _SEQUENTIAL_READS,
                      _SWEEP_READS, _UNLEARN_ONE_READS, METHODS, ExperimentConfig, _certified,
                      emit_results, run_calibrate_sigma, run_evaluate, run_sequential,
                      run_tradeoff_sweep, run_unlearn_one)

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

    def _get_option_tuples(self, option_string):
        """Abbreviations; a foreign flag (sweep --sigma) abbreviates nothing."""
        if option_string.split("=", 1)[0] in _FLAG_NAMES:
            return []
        return super()._get_option_tuples(option_string)


def _float_list(text: str) -> tuple[float, ...]:
    """Comma-separated floats, as --eps and --sigma-grid take them."""
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _bool(text: str) -> bool:
    """--timing's optional value, as a config file's `timing = ...` gives it."""
    if text.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"must be true or false, got {text!r}")
    return text.lower() in ("1", "true", "yes")


# ExperimentConfig field -> (flag, add_argument keywords); defaults live there
_FLAGS = {
    "preset": ("--preset", dict(choices=sorted(PRESETS), help="model: n, d, class count "
                                "and lam; its constants derive from these")),
    "method": ("--method", dict(choices=METHODS)),
    "eps_targets": ("--eps", dict(type=_float_list, help="target epsilons")),
    "delta": ("--delta", dict(type=float, help="default: 1/n for the n training rows "
                                               "(the preset's n when no data is read)")),
    "sigma": ("--sigma", dict(type=float)),
    "sigma_grid": ("--sigma-grid", dict(type=_float_list, help="comma-separated values")),
    "k_budget": ("--k-budget", dict(type=int)),
    "batch": ("--batch", dict(type=int)),
    "s_total": ("--total-removals", dict(type=int)),
    "trials": ("--trials", dict(type=int)),
    "seed": ("--seed", dict(type=int)),
    "n_iter": ("--n-iter", dict(type=int, help="training iterations")),
    "init_mean": ("--init-mean", dict(type=float)),
    "data_path": ("--data", dict(help="training dataset CSV")),
    "test_data_path": ("--test-data", dict(help="held-out evaluation CSV")),
    "timing": ("--timing", dict(type=_bool, nargs="?", const=True,
                                help="fill wall_ms (breaks byte-for-byte reruns)")),
}
_FLAG_NAMES = {flag for flag, _ in _FLAGS.values()}


def _config_flags(path: str) -> list[str]:
    """The flags a config file stands for: `key = value` lines become
    `--key=value`; blank lines and `#` comments are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [line.strip() for line in fh.read().splitlines()]
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    flags = []
    for lineno, line in enumerate(lines, start=1):
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        flags.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return flags


def _table(protocol):
    """Handler that runs a harness protocol and writes its rows (and plot
    points, if it returns them); exit 2 only when every row is an error row."""
    def handler(cfg: ExperimentConfig) -> int:
        out = protocol(cfg)
        rows, plot = out if isinstance(out, tuple) else (out, None)
        emit_results(rows, cfg.out, plot=plot)
        return EXIT_CALIBRATION if all(r.error for r in rows) else EXIT_OK
    return handler


_D2D_READS = ("preset", "eps_targets", "delta")


def _cmd_d2d(cfg: ExperimentConfig) -> int:
    """Emit both closed-form noise calibrations plus the reference-table
    comparison (diagnostic; the formulas are the source of truth)."""
    pc = _certified(cfg)
    rows = _d2d._report_rows(cfg.preset, pc, cfg.resolved_delta(pc), cfg.eps_targets)
    write_csv(cfg.out, "preset,theorem,I,eps,sigma_formula,sigma_reference,ratio", rows)
    return EXIT_OK


_MAKE_DATA_READS = ("preset", "seed")


def _cmd_make_data(cfg: ExperimentConfig) -> int:
    """Generate a synthetic dataset CSV (helper for offline runs)."""
    preset = cfg.resolved_preset()
    spec = SyntheticSpec(n=preset.n, d=preset.d, n_classes=preset.n_classes)
    save_dataset(make_synthetic(spec, cfg.seed), cfg.out)
    return EXIT_OK


def build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand. Only the first subcommand named in
    argv gets -h and its flags (all do when argv names none): argparse sizes
    the terminal at each add_argument, and a subcommand argv does not name is
    never parsed, so help and errors read the same."""
    parser = _Parser(
        prog="certunlearn",
        description="Certified machine unlearning: PNGD training/unlearning, a "
                    "Renyi accountant, and benchmark protocols.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {  # built per call, so the protocol names are looked up then
        "calibrate-sigma": (_table(run_calibrate_sigma), _CALIBRATE_SIGMA_READS,
                            "least noise per target at a fixed step budget"),
        "unlearn-one": (_table(run_unlearn_one), _UNLEARN_ONE_READS,
                        "single-point removal benchmark"),
        "sequential": (_table(run_sequential), _SEQUENTIAL_READS,
                       "streamed removals and step schedules"),
        "sweep": (_table(run_tradeoff_sweep), _SWEEP_READS,
                  "Langevin noise sweep at a fixed target"),
        "d2d": (_cmd_d2d, _D2D_READS, "delete-to-descent noise calibrations"),
        "evaluate": (_table(run_evaluate), _EVALUATE_READS,
                     "train once and report test accuracy"),
        "make-data": (_cmd_make_data, _MAKE_DATA_READS, "write a synthetic dataset CSV"),
    }
    named = next((arg for arg in argv or () if arg in commands), None)
    for name, (fn, reads, help_text) in commands.items():
        flagged = named in (None, name)
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS,
                           add_help=flagged)
        p.set_defaults(handler=fn)
        if not flagged:
            continue
        p.add_argument("--config", help="key=value file; explicit flags override it")
        p.add_argument("--out")
        for field in reads:
            p.add_argument(_FLAGS[field][0], dest=field, **_FLAGS[field][1])
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _configure_logging()
    parser = build_parser(argv)
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
