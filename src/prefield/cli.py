"""Command-line experiment runner.

One subcommand per experiment kind.  Each takes --config, --seed, --out and
--workers, plus one flag for every setting its runner reads
(`experiments.SOURCES`; flag names and parsers in `SETTINGS`).  The Bell
kinds, chsh and kolmogorov, take the flags of every --model that
`experiments.SOURCES` lists, and a run reads only its model's.  A flag or
config-file key the run does not read (`experiments.settings_read`) is a
configuration error.  Every run writes a results file with
provenance-tagged values and pass/fail checks, CSV plot data, and a run
manifest (the kind, the seed and the settings the run read, plus the
package version; no timestamps).  Configuration comes from defaults, then
an optional key=value config file, then command-line flags, in that order
of precedence.  A seed is mandatory; repeated runs with the same config and
seed produce bit-identical artifacts regardless of the worker count.

Exit status: 0 when every declared tolerance check passed, 1 when any
failed, 2 for configuration errors, usage errors included (`--help` exits 0).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .analysis import InconsistentTableError, NoCoincidencesError, SignallingDataError, TableFileError
from .experiments import (
    BELL_KINDS,
    BELL_MODELS,
    BELL_SETTINGS,
    EXPERIMENT_KINDS,
    SOURCES,
    ExperimentConfig,
    manifest_payload,
    run_experiment,
    settings_read,
    validate,
)
from .serialize import write_csv, write_json


def parse_config_file(path) -> dict:
    """Flat key=value lines; '#' starts a comment; keys match config fields."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        values[key.strip().replace("-", "_")] = val.strip()
    return values


def _parse_angles(text: str) -> tuple[float, ...]:
    return tuple(float(p) for p in text.replace(",", " ").split())


# config field -> (flag, parser of its flag or file value, help)
SETTINGS = {
    "seed": ("--seed", int, "master seed (required here or in the file)"),
    "out": ("--out", str, "output directory (default: artifacts)"),
    "workers": ("--workers", int, "parallel workers (results unchanged)"),
    "dim": ("--dim", int, "space dimension"),
    "epsilon": ("--epsilon", float, "background field level (default: the run's calibrated point)"),
    "samples": ("--samples", int, "Monte Carlo field samples"),
    "trials": ("--trials", int, "detector trials / table samples per setting"),
    "threshold": ("--threshold", float, "detector power threshold"),
    "angles": ("--angles", _parse_angles, "comma-separated angles in radians"),
    "policy": ("--policy", str, "post-selection policy (keep-singles | keep-all)"),
    "model": ("--model", str, "Bell table source (" + " | ".join(BELL_MODELS) + ")"),
    "table_path": ("--table", str, "correlation table JSON file"),
    "time_horizon": ("--time", float, "integration horizon"),
    "dt": ("--dt", float, "integrator step"),
    "step": ("--step", float, "finite-difference step"),
}
_EVERY_KIND = ("seed", "out", "workers")


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    """Parse and set each key's text value; a key that the resulting run does not read is an error."""
    config.model = overrides.get("model", config.model)  # a Bell run reads its model's settings
    run = f"{config.kind} --model {config.model}" if config.kind in BELL_KINDS else config.kind
    readable = (*_EVERY_KIND, *settings_read(config))
    for key, text in overrides.items():
        if key not in readable:
            flag = f" ({SETTINGS[key][0]})" if key in SETTINGS else ""
            raise ValueError(f"{run} does not read {key!r}{flag}")
        try:
            setattr(config, key, SETTINGS[key][1](text))
        except ValueError:
            raise ValueError(f"{key}: cannot parse {text!r}") from None
    return config


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is a configuration error: main returns 2 instead of exiting."""
        if message.startswith("argument --angles"):
            message += "; join a negative first angle to its flag, as in --angles=-0.5,0.3,0.1,0.2"
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prefield",
        description="Random-field experiments: Born averages, field dynamics, "
        "threshold-detector clicks, and Bell/Kolmogorov analysis.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="|".join(EXPERIMENT_KINDS))
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="key=value config file applied before flags")
        bell = BELL_SETTINGS if kind in BELL_KINDS else ()
        for name in (*_EVERY_KIND, *SOURCES[kind], *bell):
            flag, _, text = SETTINGS[name]
            p.add_argument(flag, dest=name, help=text)
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the config file's values, then the flags."""
    values = parse_config_file(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k not in ("kind", "config") and v is not None)
    return apply_overrides(ExperimentConfig(kind=args.kind), values)


def write_artifacts(config: ExperimentConfig, result, out_dir: Path) -> None:
    payload = {
        "kind": result.kind,
        "passed": result.passed,
        "values": result.values,
        "checks": [dataclasses.asdict(c) for c in result.checks],
    }
    write_json(out_dir / "results.json", payload)
    write_json(out_dir / "manifest.json", manifest_payload(config))
    for name, table in result.tables.items():
        write_csv(out_dir / f"{name}.csv", *table)


def main(argv=None) -> int:
    try:
        args, unread = build_parser().parse_known_args(argv)
        if unread:
            raise ValueError(f"{args.kind} does not read {' '.join(unread)} (see prefield {args.kind} --help)")
        config = config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    problems = validate(config)
    if problems:
        for p in problems:
            print(f"configuration error: {p}", file=sys.stderr)
        return 2
    out_dir = Path(config.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a path that cannot be created
        print(f"configuration error: cannot create output directory {config.out}: {exc}", file=sys.stderr)
        return 2
    try:
        result = run_experiment(config)
    except NoCoincidencesError as exc:
        print(
            f"configuration error: {exc}; too few trials, or a threshold so high that no channel fires"
            " or so low that every channel fires and every trial is a double click",
            file=sys.stderr,
        )
        return 2
    except (TableFileError, SignallingDataError, InconsistentTableError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    write_artifacts(config, result, out_dir)
    for check in result.checks:
        status = "pass" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: observed {check.observed:.6g} vs tolerance {check.tolerance:.6g}")
    summary = ("all checks passed" if result.passed else "checks FAILED") if result.checks else "no checks declared"
    print(f"{result.kind}: {summary}; artifacts in {config.out}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
