"""Command-line experiment runner.

One subcommand per experiment kind; every run writes a results file with
provenance-tagged values and pass/fail checks, CSV plot data, and a run
manifest (config + package version, no timestamps).  Configuration comes
from defaults, then an optional key=value config file, then command-line
flags, in that order of precedence.  A seed is mandatory; repeated runs
with the same config and seed produce bit-identical artifacts regardless
of the worker count.

Exit status: 0 when every declared tolerance check passed, 1 when any
failed, 2 for configuration errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import InconsistentTableError, SignallingDataError, TableFileError
from .detection import NoCoincidencesError
from .experiments import (
    EXPERIMENT_KINDS,
    ExperimentConfig,
    manifest_payload,
    run_experiment,
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


_FIELD_PARSERS = {
    "dim": int,
    "trials": int,
    "samples": int,
    "seed": int,
    "workers": int,
    "epsilon": float,
    "threshold": float,
    "flat_sum": float,
    "time_horizon": float,
    "dt": float,
    "step": float,
    "out": str,
    "policy": str,
    "model": str,
    "table_path": str,
}


def _parse_angles(text: str) -> tuple[float, ...]:
    parts = [p for p in text.replace(",", " ").split() if p]
    return tuple(float(p) for p in parts)


def apply_overrides(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    for key, val in overrides.items():
        if val is None:
            continue
        if key == "angles":
            config.angles = _parse_angles(val) if isinstance(val, str) else tuple(val)
        elif key in _FIELD_PARSERS:
            setattr(config, key, _FIELD_PARSERS[key](val))
        elif key == "kind":
            config.kind = str(val)
        else:
            raise ValueError(f"unknown config key {key!r}")
    return config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prefield",
        description="Random-field experiments: Born averages, field dynamics, "
        "threshold-detector clicks, and Bell/Kolmogorov analysis.",
    )
    sub = parser.add_subparsers(dest="kind", required=True, metavar="|".join(EXPERIMENT_KINDS))
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", help="key=value config file applied before flags")
        p.add_argument("--seed", type=int, help="master seed (required here or in the file)")
        p.add_argument("--out", help="output directory (default: artifacts)")
        p.add_argument("--trials", type=int, help="detector trials / table samples per setting")
        p.add_argument("--samples", type=int, help="Monte Carlo field samples")
        p.add_argument("--epsilon", type=float, help="background field level")
        p.add_argument("--threshold", type=float, help="detector power threshold")
        p.add_argument("--angles", help="comma-separated angles in radians")
        p.add_argument("--dim", type=int, help="space dimension")
        p.add_argument("--workers", type=int, help="parallel workers (results unchanged)")
        p.add_argument("--policy", help="post-selection policy (keep-singles | keep-all)")
        if kind in ("chsh", "kolmogorov"):
            p.add_argument("--model", help="data source model")
        if kind == "kolmogorov":
            p.add_argument("--table", dest="table_path", help="correlation table JSON file")
        if kind == "triangle":
            p.add_argument("--flat-sum", dest="flat_sum", type=float, help="flat angle-sum reference")
        if kind == "dynamics":
            p.add_argument("--time", dest="time_horizon", type=float, help="integration horizon")
            p.add_argument("--dt", type=float, help="integrator step")
        if kind == "hessian":
            p.add_argument("--step", type=float, help="finite-difference step")
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig(kind=args.kind)
    if getattr(args, "config", None):
        apply_overrides(config, parse_config_file(args.config))
    overrides = {
        k: v
        for k, v in vars(args).items()
        if k not in ("kind", "config") and v is not None
    }
    apply_overrides(config, overrides)
    config.kind = args.kind
    return config


def write_artifacts(config: ExperimentConfig, result, out_dir: Path) -> None:
    payload = {
        "kind": result.kind,
        "passed": result.passed,
        "values": result.values,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "observed": c.observed,
                "tolerance": c.tolerance,
                "comparator": c.comparator,
            }
            for c in result.checks
        ],
    }
    write_json(out_dir / "results.json", payload)
    write_json(out_dir / "manifest.json", manifest_payload(config))
    for name, table in result.tables.items():
        path = out_dir / f"{name}.csv"
        if isinstance(table, tuple):
            write_csv(path, *table)
        else:
            table.to_csv(path)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
            f"configuration error: {exc}; too few trials or too high a threshold",
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
    summary = "all checks passed" if result.passed else "checks FAILED"
    print(f"{result.kind}: {summary}; artifacts in {config.out}")
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
