#!/usr/bin/env python3
"""prefield benchmark: CLI workloads timed end to end, layers traced from outside.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chsh_stream --seed 7 --seconds 20 --trace 0

Each repetition is a fresh interpreter (perfbench/child.py) that imports
`prefield.cli` from ``src`` and runs the workload's CLI invocations one after
another through `prefield.cli.main`: a closed loop with one client.  With
``--trace 0`` repetitions alternate between ``--workers 1`` and
``--workers 2`` and give the end-to-end metrics; with ``--trace 1`` they
alternate between an untraced and a traced ``--workers 1`` run and give the
per-layer metrics.  Every invocation's outputs are checked; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  Metric names and units come from BENCHMARK.json.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from spans import PROBE_SPAN, SELF_TIME_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CHSH_TARGET = 2.6  # prefield.experiments.CHSH_TARGET, restated so the guard is independent
PARALLEL_WORKERS = 2
MIN_PAIRS = 2  # two of each repetition kind, so every count is seen to repeat
SETUP_SPAWNS = 4  # import-only interpreters per run, after one untimed warm-up
CHILD_TIMEOUT_S = 90.0
STOP_STARTING_AFTER_S = 120.0  # keeps a run under the 180 s limit whatever --seconds says

LAYERS = ("random_field", "detection", "observables", "dynamics", "analysis", "serialize", "experiments", "cli")


# ---------------------------------------------------------------------------
# workloads and output guards


def _results(out: Path) -> dict:
    return json.loads((out / "results.json").read_text())


def guard_clicks(out: Path) -> list[str]:
    """chsh --model singlet-clicks declares no check of its own."""
    values = _results(out)["values"]
    s = values["S_clicks"]
    problems = []
    if not (math.isfinite(s["value"]) and abs(s["value"]) >= CHSH_TARGET):
        problems.append(f"S_clicks = {s['value']!r} is not finite with |S| >= {CHSH_TARGET}")
    if not (math.isfinite(s["standard_error"]) and s["standard_error"] > 0.0):
        problems.append(f"S_clicks standard error {s['standard_error']!r} is not > 0")
    fractions = values["accepted_fractions"]["value"]
    if len(fractions) != 4 or not all(0.0 < f < 1.0 for f in fractions.values()):
        problems.append(f"accepted fractions {fractions} not four values in (0, 1)")
    return problems


def guard_trial_csvs(rows: int):
    def guard(out: Path) -> list[str]:
        problems = []
        for x in (0, 1):
            for y in (0, 1):
                path = out / f"trials_x{x}_y{y}.csv"
                found = path.read_bytes().count(b"\n") - 1 if path.is_file() else None
                if found != rows:
                    problems.append(f"{path.name}: {found} data rows, expected {rows}")
        return problems

    return guard


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    guards: tuple = ()


CLICKS_1E6 = ("chsh", "--model", "singlet-clicks", "--trials", "1000000")
CLICKS_1E5 = ("chsh", "--model", "singlet-clicks", "--trials", "100000")

WORKLOADS = {
    "chsh_stream": (Invocation(CLICKS_1E6, (guard_clicks,)),),
    "chsh_trials_csv": (Invocation(CLICKS_1E5, (guard_clicks, guard_trial_csvs(100_000))),),
    "epr_sweep": (Invocation(("epr", "--trials", "100000", "--samples", "100000")),),
    "exact_desk": (
        Invocation(("born", "--samples", "1000000")),
        Invocation(("dynamics", "--dt", "2e-4")),
        Invocation(("hessian", "--dim", "6")),
        Invocation(("kolmogorov", "--model", "lhv", "--trials", "1000000")),
        Invocation(("kolmogorov", "--model", "singlet")),
        Invocation(("chsh", "--model", "lhv", "--trials", "1000000")),
    ),
}


def check_outputs(inv: Invocation, record: dict, out: Path) -> list[str]:
    """Exit status 0, no exception, all declared checks passed, then the guards."""
    if record["error"] is not None:
        return ["raised " + record["error"].strip().splitlines()[-1]]
    if record["rc"] != 0:
        return [f"exit status {record['rc']}"]
    try:
        if not _results(out)["passed"]:
            return ["results.json reports a failed check"]
        return [p for guard in inv.guards for p in guard(out)]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable outputs: {exc!r}"]


def accepted_in_results(out: Path) -> int | None:
    """Accepted coincidences behind S_clicks, as written to results.json."""
    try:
        return _results(out)["values"]["S_clicks"]["n"]
    except (OSError, ValueError, KeyError):
        return None


def scan_artifacts(out: Path) -> tuple[dict, int, int]:
    """sha256 of every artifact, and the data rows and bytes of the CSVs."""
    digests, rows, size = {}, 0, 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
            size += len(data)
    return digests, rows, size


# ---------------------------------------------------------------------------
# repetitions


def spawn(job: dict) -> tuple[dict | None, float | None]:
    """Run child.py on `job`; return its report and its set-up time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: repetition exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None, None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except ValueError:
        report = None
    if report is None:
        print(f"perfbench: repetition exited with status {proc.returncode} and no report", file=sys.stderr)
        return None, None
    return report, report["ready"] - started


@dataclass
class Rep:
    kind: str  # "w1", "w2" or "traced"
    workers: int
    wall_s: float = 0.0
    setup_s: float | None = None
    peak_rss_mb: float = 0.0
    counts: list = field(default_factory=list)  # per invocation
    failed: list = field(default_factory=list)  # per invocation: list of problems
    digests: list = field(default_factory=list)
    spans: list | None = None
    steps: int = 0  # integrator steps, counted from the spans


class Bench:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.invocations = WORKLOADS[workload]
        self.seed = seed
        self.workdir = workdir
        self.reps: list[Rep] = []
        self.setups: list[float] = []

    def measure_setup(self) -> None:
        job = {"invocations": [], "mode": "count", "src": str(SRC)}
        spawn(job)  # warm-up: byte-compilation and page cache
        for _ in range(SETUP_SPAWNS):
            _, setup = spawn(job)
            if setup is not None:
                self.setups.append(setup)

    def run_rep(self, kind: str, workers: int) -> Rep:
        tag = f"rep{len(self.reps)}-{kind}"
        rep_dir = self.workdir / tag
        outs = [rep_dir / f"inv{i}" for i in range(len(self.invocations))]
        job = {
            "invocations": [
                list(inv.argv)
                + ["--seed", str(self.seed), "--workers", str(workers), "--out", str(out)]
                for inv, out in zip(self.invocations, outs)
            ],
            "mode": "trace" if kind == "traced" else "count",
            "spans_path": str(self.workdir / f"{tag}-spans.json"),
            "src": str(SRC),
        }
        rep = Rep(kind, workers)
        report, rep.setup_s = spawn(job)
        if report is None:
            records = [{"rc": None, "error": "repetition did not report", "wall_s": 0.0, "counts": {}}] * len(outs)
        else:
            records = report["invocations"]
            rep.peak_rss_mb = report["peak_rss_mb"]
        for inv, record, out in zip(self.invocations, records, outs):
            rep.wall_s += record["wall_s"]
            rep.failed.append(check_outputs(inv, record, out))
            digests, rows, size = scan_artifacts(out) if out.is_dir() else ({}, 0, 0)
            rep.digests.append(digests)
            rep.counts.append(dict(record["counts"], csv_rows=rows, csv_bytes=size, accepted_in_results=accepted_in_results(out)))
        if kind == "traced" and report is not None:
            spans_path = Path(job["spans_path"])
            rep.spans = json.loads(spans_path.read_text())["spans"]
            rep.steps = sum(1 for span in rep.spans if span[0] == "dynamics.SymplecticIntegrator.step")
            OUT.mkdir(exist_ok=True)
            spans_path.replace(OUT / f"trace-{self.workload}.json")
        shutil.rmtree(rep_dir, ignore_errors=True)
        self.reps.append(rep)
        return rep

    def run(self, seconds: float, trace: bool) -> None:
        """Pairs of repetitions while the next pair is expected to end within `seconds`."""
        kinds = (("w1", 1), ("traced", 1)) if trace else (("w1", 1), ("w2", PARALLEL_WORKERS))
        start = time.monotonic()
        pairs, last = 0, 0.0
        while True:
            elapsed = time.monotonic() - start
            if pairs >= MIN_PAIRS and (elapsed + last > seconds or elapsed > STOP_STARTING_AFTER_S):
                break
            for kind, workers in kinds:
                self.run_rep(kind, workers)
            pairs, last = pairs + 1, time.monotonic() - start - elapsed

    def cross_check(self) -> None:
        """Artifacts and counts must repeat exactly; a mismatch fails the invocation.

        Every repetition runs the same seed, so artifacts must be
        byte-identical across repetitions, worker counts and tracing.  Blocks
        drawn depend on the partition, so they are compared only between
        repetitions with the same worker count.  Accepted coincidences and
        integrator steps exist only in traced repetitions; the accepted count
        must also equal the n that results.json reports for S_clicks.
        """
        first = {}
        for rep in self.reps:
            first.setdefault(rep.kind, rep)
        reference = first["w1"]
        for rep in self.reps:
            partition = first[rep.kind] if rep.kind == "w2" else reference
            for i, problems in enumerate(rep.failed):
                mine = rep.counts[i]
                if rep.digests[i] != reference.digests[i]:
                    problems.append("artifacts differ from the first w1 repetition")
                expected = {k: reference.counts[i].get(k) for k in ("samples", "trials", "csv_rows", "csv_bytes")}
                expected.update({k: partition.counts[i].get(k) for k in ("blocks", "drawn")})
                if rep.kind == "traced":
                    expected["accepted"] = first["traced"].counts[i].get("accepted")
                    in_results = mine.get("accepted_in_results")
                    if in_results is not None and mine.get("accepted") != in_results:
                        problems.append(f"accepted {mine.get('accepted')} != S_clicks n {in_results}")
                for key, value in expected.items():
                    if mine.get(key) != value:
                        problems.append(f"{key} {mine.get(key)} differs from {value} in the reference repetition")
            if rep.kind == "traced" and rep.steps != first["traced"].steps:
                rep.failed[0].append(f"integrator steps {rep.steps} != {first['traced'].steps}")


# ---------------------------------------------------------------------------
# metrics


def span_metrics(rep: Rep) -> dict:
    """Per-layer metrics of one traced repetition."""
    spans = rep.spans
    duration = [end - start for _, _, start, end in spans]
    covered = [0.0] * len(spans)
    for (_, parent, _, _), d in zip(spans, duration):
        if parent >= 0:
            covered[parent] += d
    self_time = defaultdict(float)
    root_time = 0.0
    for (name, parent, _, _), d, c in zip(spans, duration, covered):
        self_time[name] += d - c
        if parent < 0:
            root_time += d
    totals = Counter()
    for c in rep.counts:
        totals.update({key: value for key, value in c.items() if value is not None})
    metrics = {name: sum(self_time[s] for s in names) for name, names in SELF_TIME_METRICS.items()}
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = sum(t for n, t in self_time.items() if n.split(".")[0] == layer)
    metrics.update(
        {
            "unattributed_s": rep.wall_s - root_time,
            "random_field.samples": totals["samples"],
            "random_field.blocks": totals["blocks"],
            "random_field.useful_ratio": totals["samples"] / totals["drawn"] if totals["drawn"] else 0.0,
            "detection.trials": totals["trials"],
            "detection.accepted_ratio": totals["accepted"] / totals["trials"] if totals["trials"] else 0.0,
            "dynamics.steps": rep.steps,
            "serialize.csv_rows": totals["csv_rows"],
            "serialize.csv_bytes": totals["csv_bytes"],
            "trace.wall_s": rep.wall_s,
            "trace.probe_s": self_time[PROBE_SPAN],
            "trace.spans": len(spans),
        }
    )
    return metrics


def describe(values: list[float]) -> str:
    """Median, sample count, quartiles, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g}  n={n}  min {ordered[0]:.6g}  max {ordered[-1]:.6g}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        text += f"  q1 {q1:.6g}  q3 {q3:.6g}"
    if n > 10:
        text += f"  p{100 * (n - 10) // n} {ordered[n - 11]:.6g}"
    else:
        text += "  p_hi n/a (needs more than 10 samples)"
    return text


def environment() -> dict:
    """Which build produced the bits: Python, numpy, BLAS, CPU and caches."""
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                env[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="passed to the program as --seed")
    parser.add_argument("--seconds", type=int, default=30, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "prefield" / "cli.py").is_file():
        print(f"perfbench: no prefield sources at {SRC}", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = definition["per_layer"] if args.trace else definition["end_to_end"]
    seed = args.seed % 2**64

    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, seed, workdir)
        bench.measure_setup()
        bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    bench.cross_check()

    w1 = [r for r in bench.reps if r.kind == "w1"]
    setups = bench.setups + [r.setup_s for r in bench.reps if r.setup_s is not None]
    series = {
        "setup_s": setups,
        "run_s": [r.wall_s for r in w1],
        "run_w2_s": [r.wall_s for r in bench.reps if r.kind == "w2"],
        "samples_per_s": [sum(c.get("samples", 0) for c in r.counts) / r.wall_s for r in w1 if r.wall_s],
        "peak_rss_mb": [r.peak_rss_mb for r in w1],
    }
    traced = [r for r in bench.reps if r.kind == "traced" and r.spans is not None]
    if traced:
        per_rep = [span_metrics(r) for r in traced]
        for name in per_rep[0]:
            series[name] = [m[name] for m in per_rep]
        overhead = statistics.median(series["trace.wall_s"]) - statistics.median(series["run_s"])
        series["trace.overhead_s"] = [overhead]

    attempted = sum(len(r.failed) for r in bench.reps)
    failed = sum(1 for r in bench.reps for problems in r.failed if problems)
    print(f"perfbench {args.workload}: seed {seed}, trace {args.trace}, {len(bench.reps)} repetitions")
    print("env " + json.dumps(environment(), sort_keys=True))
    for rep in bench.reps:
        for i, problems in enumerate(rep.failed):
            for problem in problems:
                print(f"FAILED {rep.kind} invocation {i} ({' '.join(bench.invocations[i].argv)}): {problem}")
    print(f"error_rate {failed / max(attempted, 1):.6g} ratio  ({failed} failed of {attempted} invocations)")
    units = {m["name"]: m["unit"] for m in definition["end_to_end"] + definition["per_layer"]}
    for name, values in series.items():
        if values:
            print(f"{name} [{units.get(name, '?')}]  {describe(values)}")
    if traced:
        wall = statistics.median(series["trace.wall_s"])
        share = statistics.median(series["unattributed_s"]) / wall if wall else 0.0
        print(f"unattributed share of traced wall time {share:.4%}")

    metrics = {}
    for m in wanted:
        values = series.get(m["name"])
        if not values:
            print(f"perfbench: metric {m['name']} was not measured", file=sys.stderr)
            return 2
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
