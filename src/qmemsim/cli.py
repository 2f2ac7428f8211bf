"""Command-line interface.

Subcommands: ``reproduce fig3|fig4|fig5|table1`` runs a packaged
scenario, ``simulate`` runs the configured channel/time grid, ``fit``
fits a user-supplied decay dataset, ``calibrate`` computes static
coherence factors from target fidelities.

Exit codes: 0 success, 2 configuration or input-schema error,
3 numerical or fit failure or a run out of memory, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from .config import ScenarioConfig, _build, _read_json, load_config
from .errors import ConfigError, FitError
from .fitting import DecayDataset, channel_model, fit_exponential, fit_sigma_gamma
from .scenarios import (
    FIGURE_CHANNEL,
    _json_text,
    _write_files,
    calibrate_table,
    emit,
    run_fig3,
    run_fig4,
    run_fig5,
    run_simulate,
    run_table1,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FIT = 3
EXIT_IO = 4

#: An error line longer than this keeps its first and last MAX_ERROR_CHARS // 2 characters;
#: its C0, DEL and C1 control characters are escaped as repr escapes them.
MAX_ERROR_CHARS = 400
_ESCAPES = {c: repr(chr(c))[1:-1] for c in [*range(32), *range(127, 160)]}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """Print the usage, then the error as ``_fail`` prints every error line; exit 2."""
        self.print_usage(sys.stderr)
        self.exit(_fail(f"{self.prog}: error", message, EXIT_CONFIG))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qmemsim",
        description="Deterministic quantum-memory simulator and estimation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="JSON scenario config")
        p.add_argument("--seed", type=int, metavar="U64", help="override the RNG seed")
        p.add_argument("--pulses", type=int, metavar="M", help="override pulses per setting")
        p.add_argument("--out", metavar="DIR", help="override the output directory")
        p.add_argument(
            "--expected-counts",
            action="store_true",
            help="infinite-statistics mode: use exact expected counts",
        )
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            help="emit only this format (default: both)",
        )

    rep = sub.add_parser("reproduce", help="run a packaged scenario")
    rep.add_argument("target", choices=("fig3", "fig4", "fig5", "table1"))
    add_scenario_flags(rep)
    rep.add_argument("--channel", help=f"channel of fig4 and fig5 (default: {FIGURE_CHANNEL})")

    sim = sub.add_parser("simulate", help="run the configured channel/time grid")
    add_scenario_flags(sim)
    sim.set_defaults(target="simulate", channel=None)

    fit = sub.add_parser("fit", help="fit a decay dataset file")
    fit.add_argument("dataset", metavar="PATH", help="CSV (t_ms,value[,sigma]) or JSON")
    fit.add_argument(
        "--model",
        choices=("exponential", "sigma-gamma"),
        default="exponential",
        help="decay model to fit",
    )
    fit.add_argument("--config", metavar="PATH", help="scenario config for fixed parameters")
    fit.add_argument(
        "--channel", default=FIGURE_CHANNEL, help="channel for sigma-gamma fixed parameters"
    )
    fit.add_argument("--out", metavar="DIR", help="also write the report as fit.json here")

    cal = sub.add_parser("calibrate", help="compute static coherence factors")
    cal.add_argument(
        "--targets",
        metavar="PATH",
        help="JSON mapping channel id to target fidelity (default: built-in benchmarks)",
    )
    cal.add_argument("--config", metavar="PATH", help="JSON scenario config")
    cal.add_argument("--out", metavar="DIR", help="also write calibration.json here")
    return parser


def _scenario_from_args(cfg: ScenarioConfig, args: argparse.Namespace) -> ScenarioConfig:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.pulses is not None:
        overrides["pulses_per_setting"] = args.pulses
    if args.out is not None:
        overrides["output_dir"] = args.out
    if overrides:
        try:
            cfg = dataclasses.replace(cfg, **overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return cfg


def _load_dataset(path: str) -> DecayDataset:
    # A JSON dataset is read as a config is, with the same error mapping.
    data = _read_json(path, "dataset") if path.endswith(".json") else None
    try:
        if path.endswith(".json"):
            if not isinstance(data, dict) or "times" not in data or "values" not in data:
                raise ConfigError(f"{path}: expected an object with times and values")
            extra = [key for key in data if key not in ("times", "values", "sigmas")]
            if extra:
                raise ConfigError(f"{path}: unknown key {extra[0]}")
            # Each column follows the config's leaf rules; null sigmas fit unweighted.
            keys = ["times", "values"] + (["sigmas"] if data.get("sigmas") is not None else [])
            columns = [_build(tuple[float, ...], data[key], f"{path}: {key}") for key in keys]
        else:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    raise ConfigError(f"{path}: empty dataset file")
                ncol = len(header)
                if ncol not in (2, 3):
                    raise ConfigError(f"{path}: expected 2 or 3 columns, got {ncol}")
                rows = []
                for row in filter(None, reader):
                    where = f"{path}: line {reader.line_num}"
                    if len(row) != ncol:
                        raise ConfigError(f"{where}: expected {ncol} cells, got {len(row)}")
                    # Each cell is a JSON number under the config's leaf rules.
                    rows.append([])
                    for cell in row:
                        try:
                            rows[-1].append(_build(float, json.loads(cell), where))
                        except (json.JSONDecodeError, RecursionError):
                            raise ConfigError(f"{where}: {cell!r} is not a JSON number") from None
                if not rows:
                    raise ConfigError(f"{path}: no data rows after the header")
                columns = list(zip(*rows))
        return DecayDataset(*columns)
    except OSError as exc:
        raise IOError(f"cannot read dataset {path}: {exc}") from None
    except (TypeError, ValueError, OverflowError, csv.Error) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _report(payload: dict, out_dir: str | None, filename: str) -> int:
    """Print the payload's JSON text and, given out_dir, write the same text to filename there."""
    text = _json_text(payload) + "\n"
    sys.stdout.write(text)
    if out_dir:
        _write_files(out_dir, {filename: text})
    return EXIT_OK


def _run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.command in ("reproduce", "simulate"):
        cfg = _scenario_from_args(cfg, args)
        if args.channel is not None and args.target not in ("fig4", "fig5"):
            raise ConfigError(f"--channel applies to fig4 and fig5, not {args.target}")
        channel = FIGURE_CHANNEL if args.channel is None else args.channel
        artifact = {
            "fig3": lambda: run_fig3(cfg),
            "fig4": lambda: run_fig4(cfg, args.expected_counts, channel),
            "fig5": lambda: run_fig5(cfg, args.expected_counts, channel),
            "table1": lambda: run_table1(cfg, args.expected_counts),
            "simulate": lambda: run_simulate(cfg, args.expected_counts),
        }[args.target]()
        formats = ("csv", "json") if args.format is None else (args.format,)
        for path in emit(artifact, cfg.output_dir, formats):
            print(path)
        if "error" in artifact.meta.get("fit", {}):
            return _fail("fit failed", artifact.meta["fit"]["error"], EXIT_FIT)
        return EXIT_OK

    if args.command == "fit":
        dataset = _load_dataset(args.dataset)
        # A user's data may overflow the fit arithmetic: fail, never report inf.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            if args.model == "exponential":
                report = fit_exponential(dataset)
            else:
                model = channel_model(cfg.channel(args.channel), cfg.memory, cfg.detection)
                report = fit_sigma_gamma(dataset, model)
        return _report({"model": args.model, **dataclasses.asdict(report)}, args.out, "fit.json")

    if args.command == "calibrate":
        targets = None
        if args.targets:
            targets = _build(dict[str, float], _read_json(args.targets, "targets"), args.targets)
            if not targets:
                raise ConfigError(f"{args.targets}: expected a non-empty channel->fidelity object")
            for key, value in targets.items():
                if not 0.0 < value <= 1.0:
                    raise ConfigError(f"{args.targets}.{key}: fidelity must be in (0, 1]")
        return _report(calibrate_table(cfg, targets), args.out, "calibration.json")


def _fail(kind: str, message: object, code: int) -> int:
    """Print "kind: message" to stderr as one line, cut in the middle past MAX_ERROR_CHARS."""
    line, half = f"{kind}: {message}".translate(_ESCAPES), MAX_ERROR_CHARS // 2
    if len(line) > MAX_ERROR_CHARS:
        line = f"{line[:half]} ... [{len(line) - 2 * half} characters left out] ... {line[-half:]}"
    print(line, file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        return _fail("config error", exc, EXIT_CONFIG)
    except FitError as exc:
        return _fail("fit error", exc, EXIT_FIT)
    except (IOError, OSError) as exc:
        return _fail("io error", exc, EXIT_IO)
    except (ValueError, ArithmeticError) as exc:
        # Model or estimator failures on valid input, such as a basis
        # with zero total counts or a fit that overflows.
        return _fail("numerical error", exc, EXIT_FIT)
    except MemoryError as exc:
        # A grid too large for this machine: numpy names the array it could not allocate.
        return _fail("memory error", str(exc) or "out of memory", EXIT_FIT)


if __name__ == "__main__":
    sys.exit(main())
