"""Golden artifacts: the digests and values of a fixed run set, and their comparison.

`RUN_SET` is ten CLI configurations, one per kind and, for chsh and
kolmogorov, per model with a seed-driven table, each run at seeds 1, 41 and
9173 at one worker.  `tests/golden_artifacts.json` records, for every run,
its exit status, the SHA-256 of every artifact it wrote, and the values a
comparison needs, together with the environment (`experiments._environment`)
that wrote it.

A run set compares with the record in one of two ways:

* in the recorded environment, every digest must match: the bytes are
  fixed by the config, the seed and the environment alone;
* in any other environment (another OpenBLAS kernel, other SIMD targets,
  another numpy), OpenBLAS and numpy may round differently, so values are
  compared instead.  Exit statuses, artifact names, check verdicts, every
  integer and text value of results.json, and every CSV's header, shape
  and integer and text cells (click codes, flags, counts) must be equal;
  floats must agree within TOLERANCE, which covers the largest move
  measured under OpenBLAS's Haswell, Sandybridge, Nehalem and Prescott
  kernels and with numpy's AVX2 dispatch off.  The manifest must match once
  its environment is the recorded one.  A CSV's floats are recorded for at
  most SAMPLED_ROWS evenly spaced rows.

The run set keeps each kind's default dim.  At dim >= 3 a born run is not
stable across kernels: the background eigenspace of its covariance is
degenerate, eigh may return any basis of it, and the sampling factor, hence
every sample, follows that basis.

A change that means to move bytes regenerates the record:

    PYTHONPATH=src python tests/golden_artifacts.py           # rewrite the record
    PYTHONPATH=src python tests/golden_artifacts.py --check   # compare; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden_artifacts.py --check --values  # by values even here

The value path prints each run's largest float move (over the sampled CSV
rows), so `--check --values` before regenerating shows how far a change moved
the floats and that the moves stay within TOLERANCE.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from prefield.cli import main as prefield
from prefield.experiments import _environment
from prefield.serialize import write_json

GOLDEN = Path(__file__).with_suffix(".json")
SEEDS = (1, 41, 9173)
RUN_SET = {
    "born": ["born", "--samples", "20000"],
    "dynamics": ["dynamics", "--dt", "2e-3"],
    "hessian": ["hessian"],
    "epr": ["epr", "--trials", "10000", "--samples", "10000", "--angles=0,0.4,0.8,1.2,1.6,2,2.4,2.8"],
    "chsh-lhv": ["chsh", "--model", "lhv", "--trials", "5000"],
    "chsh-singlet": ["chsh", "--model", "singlet"],
    "chsh-singlet-clicks": ["chsh", "--model", "singlet-clicks", "--trials", "4000"],
    "kolmogorov-lhv": ["kolmogorov", "--model", "lhv", "--trials", "5000"],
    "kolmogorov-singlet": ["kolmogorov", "--model", "singlet"],
    # one trial past TRIAL_CSV_LIMIT: the click run that writes no trial CSVs
    "kolmogorov-singlet-clicks": ["kolmogorov", "--model", "singlet-clicks", "--trials", "200001"],
}
# Absolute.  The largest measured move is 5.6e-13: von_neumann_residual, a
# central difference over 2e-4 that multiplies last-bit moves by 5,000, at
# seed 9173 under Haswell.  The trajectory, 5,000 steps as powers of the step
# matrix, moves by 3.9e-13 under Sandybridge and Prescott (every row, seed 41).
TOLERANCE = 1e-12
SAMPLED_ROWS = 16


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@functools.cache
def _cell(text: str):
    """A CSV cell as an int, a float or text, as write_csv wrote it."""
    for parse in (int, float):
        try:
            return parse(text)
        except ValueError:
            pass
    return text


def _csv_values(path: Path) -> dict:
    """Header, shape, a digest of every integer and text cell, and the floats of SAMPLED_ROWS rows."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    cells = [[_cell(text) for text in row] for row in rows]
    codes = [[None if isinstance(v, float) else v for v in row] for row in cells]
    sampled = np.unique(np.linspace(0, len(cells) - 1, SAMPLED_ROWS).astype(int)) if cells else []
    return {
        "header": header,
        "shape": [len(rows), len(header)],
        "codes": hashlib.sha256(json.dumps(codes).encode()).hexdigest(),
        "floats": {str(i): [v for v in cells[i] if isinstance(v, float)] for i in sampled},
    }


def run_set(out: Path) -> dict:
    """Run RUN_SET under `out` and return each run's record."""
    runs = {}
    for name, argv in RUN_SET.items():
        for seed in SEEDS:
            run_dir = out / f"{name}-{seed}"
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                status = prefield([*argv, "--seed", str(seed), "--out", str(run_dir)])
            paths = sorted(run_dir.iterdir())
            runs[run_dir.name] = {
                "argv": [*argv, "--seed", str(seed)],
                "exit": status,
                "digests": {p.name: _digest(p) for p in paths},
                "results": json.loads((run_dir / "results.json").read_text()),
                "csv": {p.name: _csv_values(p) for p in paths if p.suffix == ".csv"},
                "dir": str(run_dir),
            }
    return runs


def _values_differ(want, got, where: str) -> list[str]:
    """Where `got` differs from `want`: floats by more than TOLERANCE, anything else at all."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= TOLERANCE else [f"{where}: {got!r} vs {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict) and want.keys() == got.keys():
        return [m for key in want for m in _values_differ(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list) and len(want) == len(got):
        return [m for k, (w, g) in enumerate(zip(want, got)) for m in _values_differ(w, g, f"{where}[{k}]")]
    return [] if type(want) is type(got) and want == got else [f"{where}: {got!r} vs {want!r}"]


def largest_move(want, got) -> float:
    """The largest |got - want| over the floats that `want` and `got` hold at the same place."""
    if isinstance(want, float) and isinstance(got, float):
        return abs(got - want)
    if isinstance(want, dict) and isinstance(got, dict):
        pairs = [(want[key], got[key]) for key in want.keys() & got.keys()]
    elif isinstance(want, list) and isinstance(got, list):
        pairs = zip(want, got)
    else:
        return 0.0
    return max((largest_move(w, g) for w, g in pairs), default=0.0)


def compare(golden: dict, runs: dict, by_values: bool = False) -> tuple[str, list[str]]:
    """("digests" or "values", the mismatches of `runs` against the record `golden`).

    Digests are compared in the recorded environment unless `by_values` is set.
    """
    if golden["runs"].keys() != runs.keys():
        return "runs", [f"run set {sorted(runs)} vs {sorted(golden['runs'])}"]
    mismatches = []
    if _environment() == golden["environment"] and not by_values:
        for name, run in runs.items():
            want = golden["runs"][name]
            moved = sorted({f for f, _ in set(run["digests"].items()) ^ set(want["digests"].items())})
            if moved or run["exit"] != want["exit"] or run["argv"] != want["argv"]:
                mismatches.append(f"{name}: exit {run['exit']} vs {want['exit']}; bytes moved in {moved}")
        return "digests", mismatches
    for name, run in runs.items():
        want = golden["runs"][name]
        manifest = Path(run["dir"]) / "manifest.json"
        write_json(manifest, {**json.loads(manifest.read_text()), "environment": golden["environment"]})
        run["digests"]["manifest.json"] = _digest(manifest)
        for key in ("exit", "argv", "results", "csv"):
            mismatches += _values_differ(want[key], run[key], f"{name}.{key}")
        if run["digests"].keys() != want["digests"].keys():
            mismatches.append(f"{name}: artifacts {sorted(run['digests'])} vs {sorted(want['digests'])}")
        elif run["digests"]["manifest.json"] != want["digests"]["manifest.json"]:
            mismatches.append(f"{name}: manifest.json differs beyond its environment")
    return "values", mismatches


def record(runs: dict) -> dict:
    return {
        "environment": _environment(),
        "runs": {name: {k: v for k, v in run.items() if k != "dir"} for name, run in runs.items()},
    }


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        runs = run_set(Path(tmp))
        if "--check" not in argv:
            GOLDEN.write_text(json.dumps(record(runs), indent=1, sort_keys=True) + "\n")
            print(f"wrote {GOLDEN} ({len(runs)} runs)")
            return 0
        golden = json.loads(GOLDEN.read_text())
        path, mismatches = compare(golden, runs, "--values" in argv)
    if path == "values":
        for name, run in runs.items():
            want = golden["runs"][name]
            move = largest_move([want["results"], want["csv"]], [run["results"], run["csv"]])
            print(f"{name}: largest float move {move:.2e}")
    print(f"compared by {path}: {len(mismatches)} mismatches", *mismatches[:20], sep="\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
