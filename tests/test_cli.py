import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import CHUNK_EDGES, chunk_calls
from prefield import detection, experiments, observables, random_field
from prefield.analysis import CorrelationTable, lhv_exact_table, singlet_exact_table
from prefield.cli import main, parse_config_file
from prefield.dynamics import HamiltonianSystem, SymplecticIntegrator
from prefield.experiments import (
    CHSH_CLICK_EPSILON,
    CURVE_EPSILON,
    DEFAULT_CHSH_ANGLES,
    DYNAMICS_MAX_STEPS,
    MAX_DRAWS,
    MAX_WORKERS,
    SOURCES,
    TRIAL_CSV_LIMIT,
    ExperimentConfig,
    run_born,
    settings_read,
    validate,
)
from prefield.observables import MCEstimate
from prefield.random_field import CHUNK, SAMPLE_BLOCK


EPR_SMALL = ["epr", "--trials", "4000", "--samples", "2000", "--angles", "0.3"]
# every SOURCES value that is not a field default, and a small run of its kind or Bell model that leaves it unset
SOURCE_VALUES = [(source, name, value) for source, fields in SOURCES.items() for name, value in fields.items()
                 if value is not None]
SOURCE_RUNS = {
    "born": ["born", "--samples", "2000"],
    "dynamics": ["dynamics", "--time", "0.1", "--dt", "0.01"],
    "epr": ["epr", "--trials", "2000", "--samples", "2000"],
    "lhv": ["chsh", "--model", "lhv", "--trials", "1000"],
    "singlet": ["chsh", "--model", "singlet"],
    "singlet-clicks": ["chsh", "--model", "singlet-clicks", "--trials", "2000"],
}


def nan_field_mc(ensemble, a, b, n_samples, *rest, **kwargs):
    return MCEstimate(math.nan, math.nan, n_samples)


class NanPartyCounts(detection.TrialTally):
    """A tally whose per-party code counts are NaN."""

    party_counts = np.full((2, 4), math.nan)


def nan_party_counts(batch):
    return NanPartyCounts(batch.theta1, batch.theta2, batch.histogram, batch.policy)


def nan_energy(system, x):
    return math.nan


def forward_euler(integrator, system, dt, steps):
    """Forward Euler, (I + dt A)^steps for the flow dx/dt = A x: not symplectic, so energy and norm grow."""
    r, j = system.r_block, system.j_block
    a = np.block([[j, r], [-r, j]])
    integrator.matrix = np.linalg.matrix_power(np.eye(len(a)) + dt * a, steps)


strang_init = SymplecticIntegrator.__init__


def stretched_step(integrator, system, dt, steps):
    """The Strang step built at 1.01 dt: still symplectic, but it runs 1 % past the time asked for."""
    strang_init(integrator, system, 1.01 * dt, steps)


def signalling_threshold(monkeypatch):
    """Party 1's threshold scaled by 1 + theta2, so party 1's clicks see party 2's setting."""
    kernel, run_trials = detection._click_codes, experiments.run_trials

    def run(ensemble, theta1, theta2, threshold, *args, **kwargs):
        scale = np.array([1.0 + theta2, 1.0 + theta2, 1.0, 1.0])

        def scaled(factor, d, *rest, **kw):
            return kernel(factor, d * scale, *rest, **kw)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detection, "_click_codes", scaled)
            return run_trials(ensemble, theta1, theta2, threshold, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_trials", run)


def swapped_party_two(monkeypatch):
    """Party 2's "+" and "-" click bits swapped."""
    kernel = detection._click_codes

    def swapped(*args, **kwargs):
        codes = kernel(*args, **kwargs)
        return (codes & 3) | ((codes & 4) << 1) | ((codes & 8) >> 1)

    monkeypatch.setattr(detection, "_click_codes", swapped)


def failed_checks(out):
    checks = strict_json(Path(out) / "results.json")["checks"]
    return {c["name"]: c["observed"] for c in checks if not c["passed"]}


def table_text(**changes):
    """JSON of a valid correlation-table file with some entries replaced."""
    payload = {
        "a_settings": [0.0, 0.8],
        "b_settings": [0.4, -0.4],
        "correlations": [[0.0, 0.0], [0.0, 0.0]],
        "standard_errors": [[0.0, 0.0], [0.0, 0.0]],
        "frequencies": [[[[0.25, 0.25], [0.25, 0.25]]] * 2] * 2,
        "counts": None,
    }
    return json.dumps({**payload, **changes})


def reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(path):
    """Parse a JSON file, refusing the NaN and Infinity tokens that strict readers reject."""
    return json.loads(Path(path).read_text(), parse_constant=reject_constant)


def read_artifacts(out_dir):
    out = Path(out_dir)
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestValidate:
    def test_valid_config_empty_diagnostics(self):
        cfg = ExperimentConfig(kind="born", seed=7)
        assert validate(cfg) == []

    def test_negative_epsilon(self):
        cfg = ExperimentConfig(kind="born", seed=7, epsilon=-0.1)
        problems = validate(cfg)
        assert any("epsilon" in p for p in problems)

    def test_dim_bound_is_inclusive(self):
        # dim 65 is among test_degenerate_click_runs_are_config_errors
        assert validate(ExperimentConfig(kind="hessian", seed=7, dim=64)) == []

    def test_draw_bound_is_inclusive(self):
        # MAX_DRAWS + 1 is among test_degenerate_click_runs_are_config_errors
        cfg = ExperimentConfig(kind="epr", seed=7, trials=MAX_DRAWS, samples=MAX_DRAWS)
        assert validate(cfg) == []

    def test_worker_bound_is_inclusive(self):
        """No input asks for more than MAX_WORKERS threads: every pool has min(workers, items) of them.

        validate is called directly, so that a missing cap fails here without starting a thread.
        """
        assert MAX_WORKERS == 64
        for kind in ("born", "epr", "chsh"):
            assert validate(ExperimentConfig(kind=kind, seed=7, workers=MAX_WORKERS)) == []
            assert validate(ExperimentConfig(kind=kind, seed=7, workers=MAX_WORKERS + 1)) == ["workers must lie in [1, 64]"]

    def test_missing_seed(self):
        cfg = ExperimentConfig(kind="born")
        assert any("seed" in p for p in validate(cfg))

    def test_unknown_kind(self):
        cfg = ExperimentConfig(kind="banana", seed=7)
        assert any("kind" in p for p in validate(cfg))

    @pytest.mark.parametrize(
        "time_horizon, dt, reason",
        [(0.0, 1e-3, "time must be positive"), (1.0, 20.0, "drift table takes round(10 / dt) = 0 steps")],
    )
    def test_dynamics_checks_must_be_able_to_fail(self, time_horizon, dt, reason):
        """At time 0 no integrator step runs; at dt >= 20 the drift table has one row: each check would hold by construction."""
        (problem,) = validate(ExperimentConfig(kind="dynamics", seed=3, dt=dt, time_horizon=time_horizon))
        assert reason in problem
        assert validate(ExperimentConfig(kind="dynamics", seed=3, dt=np.nextafter(20.0, 0.0))) == []

    def test_aggregated_diagnostics(self):
        cfg = ExperimentConfig(kind="born", epsilon=-1.0, trials=0, workers=0)
        assert len(validate(cfg)) >= 3

    def test_dynamics_cap_counts_both_loops(self):
        # run_dynamics takes step_count(time, dt) integrate steps plus
        # step_count(10, dt) drift-table steps; the cap bounds their sum.
        # At dt = 11 / cap, time 1 takes 90,909 steps and the table 909,091: the cap exactly
        at_cap = 11.0 / DYNAMICS_MAX_STEPS
        assert validate(ExperimentConfig(kind="dynamics", seed=7, dt=at_cap, time_horizon=1.0)) == []
        problems = validate(ExperimentConfig(kind="dynamics", seed=7, dt=at_cap, time_horizon=1.0 + at_cap))
        assert any("dt too small" in p for p in problems)
        dt = 10.0 / DYNAMICS_MAX_STEPS
        problems = validate(ExperimentConfig(kind="dynamics", seed=7, dt=dt, time_horizon=dt))
        assert any("dt too small" in p for p in problems)
        problems = validate(ExperimentConfig(kind="dynamics", seed=7, dt=1.5e-5, time_horizon=10.0))
        assert any("dt too small" in p for p in problems)


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed = 11\nepsilon = 0.2  # background\n\n# comment line\ndim = 3\n")
        values = parse_config_file(path)
        assert values == {"seed": "11", "epsilon": "0.2", "dim": "3"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 11\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config_file(path)

    def test_cli_flag_beats_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 11\nsamples = 5000\n")
        out = tmp_path / "out"
        code = main(
            ["born", "--config", str(cfg), "--samples", "2000", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["samples"] == 2000
        assert manifest["config"]["seed"] == 11

    @pytest.mark.parametrize(
        "kind, text, key",
        [
            ("born", "kind = epr\ntrials = 5\nthreshold = 9\n", "kind"),
            ("born", "kind = born\n", "kind"),
            ("born", "threshold = 9\n", "threshold"),
            ("hessian", "epsilon = 0.1\n", "epsilon"),
            ("epr", "dim = 3\n", "dim"),
            ("kolmogorov", "model = singlet\ntrials = 5\n", "trials"),
        ],
        ids=["born-epr-file", "born-kind", "born-threshold", "hessian-epsilon", "epr-dim", "kolmogorov-singlet-trials"],
    )
    def test_unread_key_is_a_config_error(self, kind, text, key, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert main([kind, "--config", str(cfg), "--seed", "7", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and repr(key) in err
        assert not out.exists()


# The flags each Bell model reads besides --model, and each kind takes
# besides --config, --seed, --out and --workers.
MODEL_FLAGS = {
    "lhv": {"--angles", "--trials"},
    "singlet": {"--angles"},
    "singlet-clicks": {"--epsilon", "--threshold", "--angles", "--trials", "--policy"},
    "file": {"--table"},
}
BELL_FLAGS = {"--model"}.union(*MODEL_FLAGS.values())
KIND_FLAGS = {
    "born": {"--dim", "--epsilon", "--samples"},
    "dynamics": {"--dim", "--epsilon", "--time", "--dt"},
    "hessian": {"--dim", "--step"},
    "epr": {"--epsilon", "--threshold", "--angles", "--trials", "--samples", "--policy"},
    "chsh": BELL_FLAGS,
    "kolmogorov": BELL_FLAGS,
}
SETTING_FLAGS = set().union(*KIND_FLAGS.values())
BELL_RUNS = [(kind, model) for kind in ("chsh", "kolmogorov") for model in MODEL_FLAGS]


class TestKindSettings:
    @pytest.mark.parametrize("kind", KIND_FLAGS)
    def test_help_lists_exactly_the_read_flags(self, kind, capsys):
        with pytest.raises(SystemExit):
            main([kind, "--help"])
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert flags == {"--config", "--seed", "--out", "--workers"} | KIND_FLAGS[kind]

    @pytest.mark.parametrize("kind", KIND_FLAGS)
    def test_unread_flag_is_a_config_error(self, kind, capsys, tmp_path):
        out = tmp_path / "out"
        for flag in sorted(SETTING_FLAGS - KIND_FLAGS[kind]):
            assert main([kind, flag, "1", "--seed", "7", "--out", str(out)]) == 2, flag
            err = capsys.readouterr().err
            assert "configuration error" in err and flag in err and "Traceback" not in err
            assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "--trials", "abc"],
            ["born", "--samples", "1e6"],
            ["hessian", "--dim", "2.5"],
            ["chsh", "--angles", "0,x,0,0"],
            ["born", "--seed", "seven"],
        ],
        ids=["trials-abc", "samples-float-text", "dim-real", "angles-text", "seed-text"],
    )
    def test_non_numeric_value_is_a_config_error(self, argv, capsys, tmp_path):
        argv = argv if "--seed" in argv else argv + ["--seed", "7"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["born", "--samples", "2000"], {"dim", "epsilon", "samples"}),
            (["chsh", "--model", "singlet"], {"model", "angles"}),
        ],
        ids=["born", "chsh"],
    )
    def test_manifest_records_only_read_settings(self, argv, keys, tmp_path):
        assert main(argv + ["--seed", "7", "--workers", "2", "--out", str(tmp_path)]) == 0
        config = strict_json(tmp_path / "manifest.json")["config"]
        assert set(config) == {"kind", "seed"} | keys
        assert config["kind"] == argv[0] and config["seed"] == 7

    @pytest.mark.parametrize(
        "kind, runs",
        [
            ("born", [dict(samples=2000)]),
            ("dynamics", [dict(dt=1e-2)]),
            ("hessian", [dict(dim=2)]),
            ("epr", [dict(trials=2000, samples=2000, angles=(0.3,))]),
            *[(kind, [dict(model="lhv", trials=1000), dict(model="singlet"),
                      dict(model="singlet-clicks", trials=4000), dict(model="file")])
              for kind in ("chsh", "kolmogorov")],
        ],
        ids=list(KIND_FLAGS),
    )
    def test_table_lists_what_the_runners_read(self, kind, runs, tmp_path):
        """Every run, one per Bell model, reads exactly the settings that settings_read lists for it."""
        table = tmp_path / "table.json"
        table.write_text(table_text())
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        reads = set()

        class Recording(ExperimentConfig):
            def __getattribute__(self, name):
                if name in names:
                    reads.add(name)
                return super().__getattribute__(name)

        seen = set()
        for settings in runs:
            if settings.get("model") == "file":
                settings = {**settings, "table_path": str(table)}
            config = Recording(kind=kind, seed=7, **settings)
            assert validate(config) == []
            reads.clear()
            experiments._RUNNERS[kind](config)
            read, listed = set(reads), set(settings_read(config))  # settings_read reads the model too
            outside = read - {"kind", "seed", "workers"} - listed
            assert not outside, f"{kind} {settings} reads {outside}, which settings_read does not list"
            assert listed <= read, f"settings_read lists {listed - read} for {kind} {settings}, which it does not read"
            seen |= read
        unread = set(SOURCES[kind]) - seen
        assert not unread, f"SOURCES lists {unread} for {kind}, which no run reads"

    @pytest.mark.parametrize("kind, model", BELL_RUNS, ids=[f"{k}-{m}" for k, m in BELL_RUNS])
    def test_unread_model_flag_is_a_config_error(self, kind, model, capsys, tmp_path):
        """Each flag that the Bell kind takes but the model does not read exits 2 and is named."""
        out = tmp_path / "out"
        for flag in sorted(BELL_FLAGS - {"--model"} - MODEL_FLAGS[model]):
            assert main([kind, "--model", model, flag, "1", "--seed", "7", "--out", str(out)]) == 2, flag
            err = capsys.readouterr().err
            assert "configuration error" in err and flag in err and "Traceback" not in err
            assert not out.exists()


class TestExitCodes:
    def test_usage_error_is_2(self, capsys, tmp_path):
        code = main(["born", "--out", str(tmp_path / "x")])  # no seed
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["chsh", "--model", "singlet", "--angles", "-0.5,0.3,0.1,0.2"], "--angles=-0.5"),
            (["chsh", "--trials"], "--trials"),
        ],
        ids=["negative-first-angle", "flag-without-value"],
    )
    def test_usage_error_returns_2(self, argv, message, capsys, tmp_path):
        """An argument the parser rejects is a configuration error that main returns, not a SystemExit."""
        assert main(argv + ["--seed", "1", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err
        assert not (tmp_path / "run").exists()

    def test_chsh_lhv_passes(self, tmp_path):
        out = tmp_path / "chsh"
        code = main(["chsh", "--seed", "3", "--model", "lhv", "--trials", "20000", "--out", str(out)])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert abs(results["values"]["S_exact"]["value"]) <= 2.0

    def test_chsh_lhv_two_trials_passes_at_every_seed(self, tmp_path):
        # two trials per setting pair can agree in every cell (|S| = 4); the
        # standard error must still leave room for the 5 se tolerance
        for seed in range(20):
            out = tmp_path / f"s{seed}"
            argv = ["chsh", "--seed", str(seed), "--model", "lhv", "--trials", "2", "--out", str(out)]
            assert main(argv) == 0, f"seed {seed}"

    def test_kolmogorov_lhv_two_trials_never_fails_a_check(self, tmp_path):
        # two trials per setting pair leave a local model's table inconsistent
        # (exit 2) or, at seed 226, infeasible by sampling noise alone; neither
        # is a failed check
        for seed in [*range(8), 226]:
            argv = ["kolmogorov", "--seed", str(seed), "--model", "lhv", "--trials", "2"]
            assert main(argv + ["--out", str(tmp_path / f"s{seed}")]) in (0, 2), f"seed {seed}"

    def test_kolmogorov_lhv_check_fails_a_singlet_table(self, tmp_path, monkeypatch):
        """The 5 se allowance for a local table does not pass a singlet table (|S| = 2.83)."""

        def singlet_table(a_settings, b_settings, n_per_pair, seed):
            exact = singlet_exact_table(a_settings, b_settings)
            counts = np.full((2, 2), n_per_pair)
            return CorrelationTable.from_frequencies(a_settings, b_settings, exact.frequencies, counts)

        monkeypatch.setattr(experiments, "lhv_sampled_table", singlet_table)
        argv = ["kolmogorov", "--seed", "1", "--model", "lhv", "--trials", "100000"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        assert "verdict_matches_feasible" in failed_checks(tmp_path / "run")

    def test_chsh_seeds_share_no_batch(self, tmp_path):
        """Neighbouring seeds draw no setting pair's fields twice.

        With all four settings equal, two setting pairs drawing the same
        fields write byte-equal trial files.
        """
        files = []
        for seed in (7, 8):
            out = tmp_path / f"s{seed}"
            argv = ["chsh", "--model", "singlet-clicks", "--seed", str(seed), "--trials", "2000"]
            assert main(argv + ["--angles", "0,0,0,0", "--out", str(out)]) == 0
            files += [(out / f"trials_x{x}_y{y}.csv").read_bytes() for x in (0, 1) for y in (0, 1)]
        assert len(set(files)) == 8

    def test_epr_batches_draw_their_own_fields(self, tmp_path, monkeypatch):
        """The first no-signalling batch is not the curve's delta = pi/8 batch again."""
        calls = []
        run_trials = experiments.run_trials

        def recorded(ensemble, theta1, theta2, threshold, *args, **kwargs):
            batch = run_trials(ensemble, theta1, theta2, threshold, *args, **kwargs)
            calls.append(((theta2, threshold), batch.codes.tobytes()))
            return batch

        monkeypatch.setattr(experiments, "run_trials", recorded)
        argv = ["epr", "--seed", "41", "--trials", "4000", "--samples", "2000", "--angles", f"0,{math.pi / 8!r}"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        curve, no_signalling = calls[1], calls[-2]
        assert curve[0] == no_signalling[0] == (math.pi / 8, experiments.CURVE_THRESHOLD)
        assert curve[1] != no_signalling[1]
        assert len({codes for _, codes in calls}) == len(calls)

    def test_chsh_party_rate_check_fails_on_shifted_threshold(self, tmp_path, monkeypatch):
        """A kernel whose threshold is 2 % high misses the exact click classes by over 5 se."""
        args = ["chsh", "--model", "singlet-clicks", "--seed", "41", "--trials", "250000"]
        assert main(args + ["--out", str(tmp_path / "ok")]) == 0
        kernel = detection._click_codes

        def shifted(factor, threshold, *rest, **kwargs):
            return kernel(factor, 1.02 * threshold, *rest, **kwargs)

        monkeypatch.setattr(detection, "_click_codes", shifted)
        assert main(args + ["--out", str(tmp_path / "mutant")]) == 1
        checks = json.loads((tmp_path / "mutant" / "results.json").read_text())["checks"]
        failed = {c["name"]: c["observed"] for c in checks if not c["passed"]}
        assert failed.get("party_rates_vs_exact_5se", 0.0) > 5.0

    def test_kolmogorov_singlet_verdict_follows_fine(self, tmp_path):
        """Away from the default angles the singlet table can be feasible (S = -1.84), and the run says so."""
        argv = ["kolmogorov", "--model", "singlet", "--angles=0,0.3,0.1,0.2", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        results = strict_json(tmp_path / "results.json")
        assert results["values"]["feasible"]["value"] is True
        assert [c["name"] for c in results["checks"]] == ["verdict_matches_feasible"]
        assert results["values"]["S_exact"]["value"] == pytest.approx(-1.84, abs=0.01)

    def test_kolmogorov_singlet_verdict_check_fails_its_mutant(self, tmp_path, monkeypatch):
        """Fine's values with the minus sign dropped find no violation, so the infeasible verdict fails."""
        argv = ["kolmogorov", "--model", "singlet", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "ok")]) == 0

        def unsigned(table):
            return {key: float(table.correlations.sum()) for key in np.ndindex(2, 2)}

        monkeypatch.setattr(experiments, "fine_chsh_values", unsigned)
        assert main(argv + ["--out", str(tmp_path / "mutant")]) == 1
        assert set(failed_checks(tmp_path / "mutant")) == {"verdict_matches_feasible"}

    @pytest.mark.parametrize(
        "build, check",
        [(singlet_exact_table, "verdict_matches_infeasible"), (lhv_exact_table, "verdict_matches_feasible")],
        ids=["singlet-table", "lhv-table"],
    )
    def test_kolmogorov_file_checks_the_verdict_against_fine(self, build, check, tmp_path, capsys):
        """A table file's simplex verdict must agree with Fine's eight facets, as the singlet's does."""
        path = tmp_path / "table.json"
        table = build(DEFAULT_CHSH_ANGLES[:2], DEFAULT_CHSH_ANGLES[2:])
        path.write_text(json.dumps(dataclasses.asdict(table), default=np.ndarray.tolist))
        argv = ["kolmogorov", "--model", "file", "--table", str(path), "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "run")]) == 0
        checks = strict_json(tmp_path / "run" / "results.json")["checks"]
        assert [(c["name"], c["passed"]) for c in checks] == [(check, True)]
        assert "kolmogorov: all checks passed" in capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["chsh", "kolmogorov"])
    def test_inconsistent_table_file_is_a_configuration_error(self, kind, tmp_path, capsys):
        """Correlations that the file's own frequencies do not give exit 2, not a verdict on either."""
        path = tmp_path / "table.json"
        path.write_text(table_text(correlations=[[1.0, 1.0], [1.0, -1.0]]))  # uniform frequencies give E = 0
        argv = [kind, "--model", "file", "--table", str(path), "--seed", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        assert "correlations must equal the frequencies'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["chsh", "kolmogorov"])
    def test_singlet_table_file_matches_the_singlet_model(self, kind, tmp_path):
        """The exact singlet table, written as a file, still runs and gives the singlet model's table bytes."""
        path = tmp_path / "table.json"
        table = singlet_exact_table(DEFAULT_CHSH_ANGLES[:2], DEFAULT_CHSH_ANGLES[2:])
        path.write_text(json.dumps(dataclasses.asdict(table), default=np.ndarray.tolist))
        outs = [tmp_path / "file", tmp_path / "model"]
        assert main([kind, "--model", "file", "--table", str(path), "--seed", "1", "--out", str(outs[0])]) == 0
        assert main([kind, "--model", "singlet", "--seed", "1", "--out", str(outs[1])]) == 0
        assert len({(out / "chsh_table.csv").read_bytes() for out in outs}) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["epr", "--trials", "2000", "--samples", "2000"],
            ["chsh", "--model", "singlet-clicks", "--trials", "2000"],
            ["kolmogorov", "--model", "singlet-clicks", "--trials", "2000"],
        ],
        ids=["epr", "chsh-singlet-clicks", "kolmogorov-singlet-clicks"],
    )
    def test_epsilon_below_the_singlet_floor_is_a_configuration_error(self, argv, tmp_path, capsys):
        """An explicit --epsilon below eps* is refused, not raised silently to a level the manifest does not record."""
        assert main(argv + ["--epsilon", "0.1", "--seed", "1", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "eps* = sqrt(1/2) - 1/2 = 0.207107" in err
        assert not (tmp_path / "run").exists()

    def test_run_without_a_check_says_so(self, tmp_path, capsys):
        """chsh --model file declares no check: it exits 0 and prints that, not that checks passed."""
        path = tmp_path / "table.json"
        path.write_text(table_text())
        argv = ["chsh", "--model", "file", "--table", str(path), "--seed", "1", "--out", str(tmp_path / "run")]
        assert main(argv) == 0
        assert strict_json(tmp_path / "run" / "results.json")["checks"] == []
        out = capsys.readouterr().out
        assert "chsh: no checks declared" in out and "passed" not in out

    def test_kolmogorov_singlet_infeasible(self, tmp_path):
        out = tmp_path / "kol"
        code = main(["kolmogorov", "--seed", "3", "--model", "singlet", "--out", str(out)])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["values"]["feasible"]["value"] is False
        assert results["values"]["violated_inequalities"]["value"]

    def test_hessian_runs(self, tmp_path):
        out = tmp_path / "hess"
        assert main(["hessian", "--seed", "5", "--dim", "2", "--out", str(out)]) == 0
        assert (out / "hessian_step_scan.csv").exists()

    def test_dynamics_dim_one(self, tmp_path):
        out = tmp_path / "dyn1"
        assert main(["dynamics", "--seed", "5", "--dim", "1", "--out", str(out)]) == 0
        header = (out / "trajectory.csv").read_text().splitlines()[0]
        assert header == "t,re_0,im_0,energy,power"
        assert json.loads((out / "manifest.json").read_text())["config"]["dim"] == 1

    def test_dynamics_at_the_step_cap_passes(self, tmp_path):
        """dt = 11 / DYNAMICS_MAX_STEPS at time 1 takes the cap's 10**6 steps; rounding stays inside the checks."""
        dt = 11.0 / DYNAMICS_MAX_STEPS
        assert main(["dynamics", "--seed", "41", "--dt", repr(dt), "--time", "1", "--out", str(tmp_path)]) == 0
        assert failed_checks(tmp_path) == {}

    @pytest.mark.parametrize(
        "mutant, checks",
        [
            (forward_euler, {"energy_conserved", "norm_conserved", "integrator_matches_propagator"}),
            (stretched_step, {"integrator_matches_propagator"}),
        ],
        ids=["forward-euler", "dt-times-1.01"],
    )
    def test_dynamics_checks_fail_their_mutants(self, mutant, checks, tmp_path, monkeypatch):
        """A non-symplectic step fails the conservation checks; a step of the wrong size fails the propagator check."""
        args = ["dynamics", "--seed", "41"]
        assert main(args + ["--out", str(tmp_path / "ok")]) == 0
        monkeypatch.setattr(SymplecticIntegrator, "__init__", mutant)
        assert main(args + ["--out", str(tmp_path / "mutant")]) == 1
        assert set(failed_checks(tmp_path / "mutant")) == checks

    def test_hessian_dim_one(self, tmp_path):
        out = tmp_path / "hess1"
        assert main(["hessian", "--seed", "5", "--dim", "1", "--out", str(out)]) == 0
        values = json.loads((out / "results.json").read_text())["values"]
        recovered = values["recovered_operator"]["value"]
        assert recovered["dim"] == 1
        assert np.array(recovered["data"]).shape == (1, 1, 2)
        assert values["recovery_error"]["value"] <= 1e-5

    def test_epr_double_rate_check_fails_on_shifted_threshold(self, tmp_path, monkeypatch):
        """A kernel whose threshold is 5 % high misses exp(-2 d / (1/2 + eps)) by 7 sigma at seed 41."""
        args = ["epr", "--seed", "41", "--trials", "100000", "--samples", "2000", "--angles", "0.3"]
        assert main(args + ["--out", str(tmp_path / "ok")]) == 0
        kernel = detection._click_codes

        def shifted(factor, threshold, *rest, **kwargs):
            return kernel(factor, 1.05 * threshold, *rest, **kwargs)

        monkeypatch.setattr(detection, "_click_codes", shifted)
        assert main(args + ["--out", str(tmp_path / "mutant")]) == 1
        checks = json.loads((tmp_path / "mutant" / "results.json").read_text())["checks"]
        failed = {c["name"]: c["observed"] for c in checks if not c["passed"]}
        assert failed.get("double_rate_vs_exact_5se", 0.0) > 5.0

    @pytest.mark.parametrize(
        "mutate, check",
        [(signalling_threshold, "no_signalling_5se"), (swapped_party_two, "clicks_near_qm_curve")],
        ids=["epr-no-signalling", "epr-clicks-curve"],
    )
    def test_click_check_fails_its_mutant(self, mutate, check, tmp_path, monkeypatch):
        """Each epr click check passes on the program and fails on a kernel that breaks what it checks."""
        args = EPR_SMALL + ["--seed", "41"]
        assert main(args + ["--out", str(tmp_path / "ok")]) == 0
        mutate(monkeypatch)
        assert main(args + ["--out", str(tmp_path / "mutant")]) == 1
        assert check in failed_checks(tmp_path / "mutant")

    def test_epr_keep_all_curve_follows_the_policy(self, tmp_path, monkeypatch):
        """Each clicks_E / clicks_se row is the +-1 estimator of its batch's keep-all coincidences.

        Under keep-all a party with no click or a double click counts as an
        outcome too, which pulls the curve off -cos 2(delta), so the run fails
        clicks_near_qm_curve and nothing else.
        """
        curve_codes = {}
        run_trials = experiments.run_trials

        def recorded(*args, **kwargs):
            batch = run_trials(*args, **kwargs)
            _, purpose, idx = kwargs["stream"]
            if purpose == experiments.EPR_CURVE:
                curve_codes[idx] = batch.codes
            return batch

        monkeypatch.setattr(experiments, "run_trials", recorded)
        argv = ["epr", "--seed", "7", "--trials", "20000", "--samples", "2000", "--angles", "0.0,0.8,1.9"]
        assert main(argv + ["--policy", "keep-all", "--out", str(tmp_path / "run")]) == 1
        assert set(failed_checks(tmp_path / "run")) == {"clicks_near_qm_curve"}
        lines = (tmp_path / "run" / "correlation_curve.csv").read_text().splitlines()
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert len(rows) == len(curve_codes) == 3
        for idx, row in enumerate(rows):
            codes = curve_codes[idx]
            # a party's outcome is "+" when its + channel fired
            agree = (codes & 1) == ((codes >> 2) & 1)
            n = codes.size
            e = (2 * int(agree.sum()) - n) / n
            assert float(row["clicks_E"]) == e
            assert float(row["clicks_se"]) == math.sqrt(max(1.0 / n, 1.0 - e * e) / n)
            assert float(row["accepted_fraction"]) == 1.0

    @pytest.mark.parametrize(
        "argv, owner, name, mutant, check",
        [
            (EPR_SMALL, experiments, "quadratic_correlation_mc", nan_field_mc, "mc_within_5se"),
            (EPR_SMALL, experiments, "click_statistics", nan_party_counts, "double_rate_vs_exact_5se"),
            (["chsh", "--model", "singlet-clicks", "--trials", "4000"], experiments, "click_statistics",
             nan_party_counts, "party_rates_vs_exact_5se"),
            (["dynamics"], HamiltonianSystem, "hamilton_function", nan_energy, "energy_conserved"),
        ],
        ids=["epr-field-mc", "epr-click-rates", "chsh-click-rates", "dynamics-energy"],
    )
    def test_nan_estimates_fail_their_checks(self, argv, owner, name, mutant, check, tmp_path, monkeypatch):
        """A NaN pull fails its check instead of being dropped by a running max."""
        args = argv + ["--seed", "41"]
        assert main(args + ["--out", str(tmp_path / "ok")]) == 0
        monkeypatch.setattr(owner, name, mutant)
        assert main(args + ["--out", str(tmp_path / "mutant")]) == 1
        checks = strict_json(tmp_path / "mutant" / "results.json")["checks"]
        failed = {c["name"]: c["observed"] for c in checks if not c["passed"]}
        assert failed[check] is None  # NaN, written as JSON null

    @pytest.mark.parametrize(
        "argv, mutant, read",
        [
            (["dynamics"], nan_energy,
             lambda results: {c["name"]: c["observed"] for c in results["checks"]}["energy_conserved"]),
        ],
        ids=["dynamics-nan-energy"],
    )
    def test_results_are_strict_json(self, argv, mutant, read, tmp_path, monkeypatch):
        """A NaN check is written as null, not as a bare NaN token."""
        if mutant is not None:
            monkeypatch.setattr(HamiltonianSystem, "hamilton_function", mutant)
        main(argv + ["--seed", "1", "--out", str(tmp_path)])
        strict_json(tmp_path / "manifest.json")
        assert read(strict_json(tmp_path / "results.json")) is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh", "--model", "singlet-clicks", "--trials", "1"],
            ["chsh", "--model", "singlet-clicks", "--threshold", "50"],
            ["epr", "--trials", "1", "--samples", "1000"],
            ["epr", "--samples", "1"],
            ["chsh", "--model", "singlet", "--angles", "nan,0,0,0"],
            ["chsh", "--model", "lhv", "--angles", "inf,0,0,0"],
            ["born", "--samples", "1"],
            ["chsh", "--model", "singlet-clicks", "--trials", "1000", "--policy", "bogus"],
            ["epr", "--trials", "1000", "--samples", "1000", "--policy", "bogus"],
            ["dynamics", "--dt", "nan"],
            ["dynamics", "--time", "inf"],
            ["dynamics", "--time", "0"],
            ["dynamics", "--dt", "20"],
            ["dynamics", "--dt", "1e300"],
            ["hessian", "--step", "nan"],
            ["hessian", "--step", "1e-170"],
            ["hessian", "--step", "1e77"],
            ["chsh", "--model", "lhv", "--trials", "1"],
            ["kolmogorov", "--model", "lhv", "--trials", "1"],
            ["epr", "--trials", "20000", "--samples", "2000", "--threshold", "50", "--workers", "2"],
            ["epr", "--trials", "2000", "--samples", "2000", "--epsilon", "1e308"],
            ["hessian", "--dim", "65"],
            ["born", "--samples", "10000001"],
            ["born", "--samples", "10000000000000"],
            ["epr", "--trials", "10000001", "--samples", "2000"],
            ["epr", "--trials", "2000", "--samples", "10000001"],
            ["chsh", "--model", "singlet-clicks", "--trials", "10000001"],
            ["kolmogorov", "--model", "lhv", "--trials", "10000001"],
            ["epr", "--trials", "2000", "--samples", "2000", "--angles=,"],
            ["epr", "--trials", "2000", "--samples", "2000", "--threshold", "0"],
            ["chsh", "--model", "singlet-clicks", "--trials", "2000", "--threshold", "0"],
        ],
        ids=[
            "chsh-one-trial", "chsh-high-threshold", "epr-one-trial", "epr-one-sample",
            "chsh-nan-angle", "chsh-inf-angle", "born-one-sample",
            "chsh-unknown-policy", "epr-unknown-policy", "dynamics-nan-dt", "dynamics-inf-time",
            "dynamics-zero-time", "dynamics-no-drift-step", "dynamics-huge-dt",
            "hessian-nan-step", "hessian-tiny-step", "hessian-huge-step", "chsh-lhv-one-trial",
            "kolmogorov-lhv-one-trial", "epr-high-threshold-two-workers", "epr-huge-epsilon",
            "hessian-dim-over-bound", "born-samples-over-bound", "born-huge-samples",
            "epr-trials-over-bound", "epr-samples-over-bound", "chsh-trials-over-bound",
            "kolmogorov-trials-over-bound", "epr-empty-angles", "epr-zero-threshold", "chsh-zero-threshold",
        ],
    )
    def test_degenerate_click_runs_are_config_errors(self, argv, capsys, tmp_path):
        threads = threading.active_count()
        code = main(argv + ["--seed", "7", "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert threading.active_count() == threads

    @pytest.mark.parametrize(
        "argv, angles",
        [
            (["epr", "--trials", "2000", "--samples", "2000", "--angles", "0.3", "--threshold", "0"], "(0, 0.3)"),
            (["chsh", "--model", "singlet-clicks", "--trials", "2000", "--threshold", "0"], "(0, 0.392699)"),
            (["epr", "--trials", "2000", "--samples", "2000", "--threshold", "50"], "(0, 0)"),
            (["chsh", "--model", "singlet-clicks", "--trials", "2000", "--threshold", "50"], "(0, 0.392699)"),
        ],
        ids=["epr-zero", "chsh-zero", "epr-high", "chsh-high"],
    )
    def test_no_coincidences_hint_names_both_threshold_ends(self, argv, angles, capsys, tmp_path):
        """At threshold 0 every trial is a double click; far above it no channel fires: the hint names both.

        The error names the splitter angles of the first batch without a coincidence.
        """
        assert main(argv + ["--seed", "7", "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"no accepted coincidences at angles {angles};" in err
        assert "so high that no channel fires" in err and "every trial is a double click" in err

    def test_out_naming_a_file_is_a_config_error(self, capsys, tmp_path):
        path = tmp_path / "taken"
        path.write_text("keep me")
        code = main(["chsh", "--model", "singlet", "--seed", "1", "--out", str(path)])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err
        assert path.read_text() == "keep me"

    def test_tiny_dt_is_rejected_at_once(self, capsys, tmp_path):
        start = time.perf_counter()
        code = main(["dynamics", "--seed", "1", "--dt", "1e-9", "--out", str(tmp_path / "run")])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            None,
            "{",
            "[]",
            '{"a_settings": [0, 1]}',
            table_text(correlations=[[math.nan, 0.0], [0.0, 0.0]]),
            table_text(a_settings=[0.0, 0.5, 1.0]),
            table_text(frequencies=None),
            table_text(frequencies=[[[[0.15, 0.15], [0.35, 0.35]], [[0.35, 0.35], [0.15, 0.15]]]] * 2),
            table_text(counts=[[10**30, 1], [1, 1]]),
            table_text(a_settings=["x", "y"]),
            table_text(b_settings=[math.nan, 0.4]),
            table_text(counts=[[-5, 10], [10, 10]]),
        ],
        ids=[
            "missing", "not-json", "not-an-object", "missing-keys", "nan-correlation",
            "three-settings", "no-frequencies", "signalling", "huge-count", "string-settings",
            "nan-setting", "negative-count",
        ],
    )
    def test_bad_table_files_are_config_errors(self, text, capsys, tmp_path):
        path = tmp_path / "table.json"
        if text is not None:
            path.write_text(text)
        argv = ["kolmogorov", "--model", "file", "--table", str(path)]
        code = main(argv + ["--seed", "7", "--out", str(tmp_path / "run")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err


class TestDeterminism:
    def test_bit_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["born", "--seed", "42", "--samples", "20000", "--dim", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert read_artifacts(out1) == read_artifacts(out2)

    @pytest.mark.usefixtures("split_every_chunk")
    def test_worker_count_invisible_in_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        args = ["born", "--seed", "42", "--samples", "100000"]  # thirteen chunks
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "4", "--out", str(out2)]) == 0
        assert read_artifacts(out1) == read_artifacts(out2)

    @pytest.mark.usefixtures("split_every_chunk")
    def test_trials_worker_invariance(self, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e3"
        args = [
            "epr", "--seed", "9", "--trials", "70000", "--samples", "4000",
            "--angles", "0.0,0.3927,0.7854",
        ]
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "3", "--out", str(out2)]) == 0
        assert read_artifacts(out1) == read_artifacts(out2)

    @pytest.mark.usefixtures("split_every_chunk")
    def test_chunk_size_invisible_in_artifacts(self, tmp_path, monkeypatch):
        """CHUNK sets memory, not bits: chunks of 1, 2 and 8 blocks at 1 and 2 workers write the same bytes.

        Every run length is one more than a multiple of each chunk size, so
        each run ends one row into a chunk, and the click runs write trial CSVs.
        """
        n = str(8 * SAMPLE_BLOCK + 1)
        runs = {
            "born": ["born", "--samples", n],
            "epr": ["epr", "--trials", n, "--samples", n, "--angles", "0.0,0.4"],
            **{kind: [kind, "--model", "singlet-clicks", "--trials", n] for kind in ("chsh", "kolmogorov")},
        }
        binders = [m for name, m in sys.modules.items() if name.startswith("prefield.") and hasattr(m, "CHUNK")]
        names = {m.__name__.removeprefix("prefield.") for m in binders}
        assert names >= {"random_field", "detection", "serialize"}
        written = {}
        for blocks in (1, 2, 8):
            for module in binders:
                monkeypatch.setattr(module, "CHUNK", blocks * SAMPLE_BLOCK)
            for workers in (1, 2):
                for kind, args in runs.items():
                    out = tmp_path / f"{kind}-{blocks}-{workers}"
                    assert main(args + ["--seed", "3", "--workers", str(workers), "--out", str(out)]) == 0
                    assert read_artifacts(out) == written.setdefault(kind, read_artifacts(out)), (kind, blocks, workers)
        assert "trials_x1_y1.csv" in written["chsh"] and "trials_x1_y1.csv" in written["kolmogorov"]

    def test_block_order_reaches_the_bytes(self, tmp_path, monkeypatch):
        """Chunk results reduced out of chunk order move born's and epr's bytes, so the order is checked.

        The mutant returns for_each_chunk's results reversed, as a pool that
        collected them in completion order might.
        """
        n = str(8 * SAMPLE_BLOCK + 1)
        runs = {
            "born": (["born", "--samples", n], "born_convergence.csv"),
            "epr": (["epr", "--trials", "2000", "--samples", n, "--angles", "0.0,0.4"], "correlation_curve.csv"),
        }

        def reversed_chunks(fn, stop, workers):
            return random_field.for_each_chunk(fn, stop, workers)[::-1]

        written = {}
        for order in ("chunk", "reversed"):
            if order == "reversed":
                monkeypatch.setattr(observables, "for_each_chunk", reversed_chunks)
                monkeypatch.setattr(detection, "for_each_chunk", reversed_chunks)
            for kind, (args, table) in runs.items():
                out = tmp_path / f"{kind}-{order}"
                assert main(args + ["--seed", "3", "--out", str(out)]) in (0, 1)
                written[kind, order] = read_artifacts(out)[table]
        for kind in runs:
            assert written[kind, "chunk"] != written[kind, "reversed"], kind

    def test_epr_estimates_worker_invariance(self, tmp_path):
        """Whole estimates on worker threads, none split: artifacts at 1, 2 and 3 workers agree.

        Three threads on two cores with a short switch interval: a result
        collected out of order or a job that ran twice would change the bits.
        """
        args = ["epr", "--seed", "9", "--trials", "20000", "--samples", "20000"]
        outs = [tmp_path / f"w{w}" for w in (1, 2, 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            began = time.perf_counter()
            for workers, out in zip((1, 2, 3), outs):
                assert main(args + ["--workers", str(workers), "--out", str(out)]) == 0
            assert time.perf_counter() - began < 30.0
        finally:
            sys.setswitchinterval(interval)
        assert read_artifacts(outs[0]) == read_artifacts(outs[1]) == read_artifacts(outs[2])

    @pytest.mark.parametrize("policy", ["keep-singles", "keep-all"])
    def test_click_numbers_do_not_depend_on_keeping_codes(self, policy, tmp_path, monkeypatch):
        """A click run past TRIAL_CSV_LIMIT, which keeps no pair's codes, writes the numbers of one that does.

        Each table count is the number of accepted rows in its pair's trial
        CSV, so a tally that lost its batch's policy fails under keep-all.
        """
        args = ["chsh", "--model", "singlet-clicks", "--seed", "5", "--trials", "4000", "--policy", policy]
        assert main(args + ["--out", str(tmp_path / "codes")]) == 0
        monkeypatch.setattr(experiments, "TRIAL_CSV_LIMIT", 3999)
        assert main(args + ["--out", str(tmp_path / "tallies")]) == 0
        kept, tallied = read_artifacts(tmp_path / "codes"), read_artifacts(tmp_path / "tallies")
        assert sorted(tallied) == ["chsh_table.csv", "manifest.json", "results.json"]
        assert kept["results.json"] == tallied["results.json"]
        assert kept["chsh_table.csv"] == tallied["chsh_table.csv"]
        for row in tallied["chsh_table.csv"].decode().splitlines()[1:]:
            x, y, *_, n = row.split(",")
            trials = kept[f"trials_x{x}_y{y}.csv"].decode().splitlines()[1:]
            assert int(n) == sum(line.endswith(",1") for line in trials)

    @pytest.mark.usefixtures("split_every_chunk")
    def test_click_trial_csvs_worker_invariance(self, tmp_path):
        out1, out3 = tmp_path / "c1", tmp_path / "c3"
        args = ["chsh", "--model", "singlet-clicks", "--seed", "9", "--trials", "70000"]  # nine chunks
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "3", "--out", str(out3)]) == 0
        assert read_artifacts(out1) == read_artifacts(out3)
        assert "trials_x1_y1.csv" in read_artifacts(out1)

    @pytest.mark.usefixtures("split_every_chunk")
    @pytest.mark.parametrize(
        "total", [1, 4095, 4096, 4097, 50_000, 1_000_000, *(c + 1 for c in CHUNK_EDGES), *(5 * c + 11 for c in CHUNK_EDGES)]
    )
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_partition_cuts_at_block_edges(self, total, workers):
        """Every worker count makes the one-worker calls, [0, CHUNK), [CHUNK, 2 CHUNK), ...,
        [k CHUNK, total), and spreads them over min(workers, chunks) threads; only the
        thread that makes a call changes, and every index is filled once."""
        one_worker = [(lo, hi) for lo, hi, _ in chunk_calls(total, 1, 1)]
        assert [lo for lo, _ in one_worker] == list(range(0, CHUNK * len(one_worker), CHUNK))
        assert one_worker[-1][1] == total and total - one_worker[-1][0] <= CHUNK + 1
        assert total == 1 or total - one_worker[-1][0] > 1  # a lone last row joins the chunk before it
        assert CHUNK % SAMPLE_BLOCK == 0
        n_threads = min(workers, len(one_worker))
        calls = chunk_calls(total, workers, n_threads)
        assert [(lo, hi) for lo, hi, _ in calls] == one_worker
        threads = {thread for _, _, thread in calls}
        assert len(threads) == n_threads
        if n_threads > 1:
            assert threading.get_ident() not in threads
        hits = np.zeros(total, dtype=np.int64)
        for lo, hi, _ in calls:
            hits[lo:hi] += 1
        assert (hits == 1).all()


BAD_REALS = st.sampled_from([0.0, -1.0, math.nan, math.inf, -math.inf])


def assert_exit_contract(argv):
    """One CLI run ends in 0, 1 or 2, and a passing run writes strict JSON with no non-finite check."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        code = main(argv + ["--out", str(out)])
        assert code in (0, 1, 2)
        if code == 0:
            results = strict_json(out / "results.json")
            assert all(c["observed"] is not None and math.isfinite(c["observed"]) for c in results["checks"])


def real_flags(**values):
    """--name=value for every real flag given a value; underscores become dashes."""
    return [f"--{name.replace('_', '-')}={value!r}" for name, value in values.items() if value is not None]


TABLE_FIELDS = ("a_settings", "b_settings", "correlations", "standard_errors", "frequencies", "counts")
JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, 10**30, 10**400])
    | st.floats() | st.text(max_size=3)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)
TWO_BY_TWO = st.lists(st.lists(JSON_VALUES, min_size=2, max_size=2), min_size=2, max_size=2)
# A table file of random bytes, or a valid one with one field replaced.
TABLE_FILES = st.binary(max_size=64) | st.builds(
    lambda name, value: table_text(**{name: value}).encode(),
    st.sampled_from(TABLE_FIELDS),
    JSON_VALUES | TWO_BY_TWO | st.lists(JSON_SCALARS, min_size=2, max_size=2),
)
CLICK_SETTINGS = dict(
    trials=st.integers(1, 3000),
    threshold=st.none() | st.floats(0.0, 0.5) | st.floats(0.0, 10.0) | BAD_REALS,
    epsilon=st.none() | st.floats(0.0, 1.0) | st.floats(0.0, 1.0) | st.floats(min_value=0.0) | BAD_REALS,
    policy=st.none() | st.sampled_from(["keep-singles", "keep-all"]) | st.just("keep-none"),
    workers=st.integers(1, 3),
    seed=st.integers(0, 2**32),
    angles=st.none()
    | st.lists(st.floats(-1e12, 1e12), min_size=4, max_size=4)
    | st.lists(st.floats(-10.0, 10.0), min_size=4, max_size=4)
    | st.lists(st.floats(-1e12, 1e12) | st.sampled_from([math.nan, math.inf, -math.inf]), max_size=6),
)


def assert_table_file_contract(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.json"
        path.write_bytes(text)
        assert_exit_contract([kind, "--model", "file", "--table", str(path), "--seed", "7"])


def assert_click_contract(kind, trials, threshold, epsilon, policy, workers, seed, angles):
    argv = [kind, "--model", "singlet-clicks", "--seed", str(seed), "--trials", str(trials),
            "--workers", str(workers)]
    if policy is not None:
        argv.append("--policy=" + policy)
    if angles is not None:
        argv.append("--angles=" + ",".join(map(repr, angles)))
    assert_exit_contract(argv + real_flags(threshold=threshold, epsilon=epsilon))


class TestExitContractFuzz:
    @settings(max_examples=80, deadline=None)
    @given(text=TABLE_FILES)
    @example(text=table_text(counts=[[10**30, 1], [1, 1]]).encode())
    def test_table_file(self, text):
        """A kolmogorov table file of random bytes, or a valid one with one field replaced, ends in 0, 1 or 2."""
        assert_table_file_contract("kolmogorov", text)

    @settings(max_examples=40, deadline=None)
    @given(text=TABLE_FILES)
    @example(text=table_text(frequencies=None).encode())
    def test_chsh_table_file(self, text):
        assert_table_file_contract("chsh", text)

    @settings(max_examples=60, deadline=None)
    @given(
        dt=st.floats(1e-3, 2.0) | BAD_REALS,
        horizon=st.floats(0.0, 10.0) | BAD_REALS,
        dim=st.integers(1, 6),
        epsilon=st.floats(0.0, 1.0) | BAD_REALS,
        seed=st.integers(0, 2**32),
    )
    def test_dynamics(self, dt, horizon, dim, epsilon, seed):
        assert_exit_contract(
            ["dynamics", "--seed", str(seed), f"--dt={dt!r}", f"--time={horizon!r}",
             "--dim", str(dim), f"--epsilon={epsilon!r}"]
        )

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["chsh", "kolmogorov"]),
        trials=st.integers(1, 5000),
        seed=st.integers(0, 2**32),
        angles=st.none()
        | st.lists(st.floats(-1e12, 1e12), min_size=4, max_size=4)
        | st.lists(st.floats(-1e12, 1e12), min_size=0, max_size=6)
        | st.lists(st.floats(-1e12, 1e12) | st.sampled_from([math.nan, math.inf, -math.inf]),
                   min_size=4, max_size=4),
    )
    def test_lhv_tables(self, kind, trials, seed, angles):
        argv = [kind, "--model", "lhv", "--trials", str(trials), "--seed", str(seed)]
        if angles is not None:
            argv.append("--angles=" + ",".join(map(repr, angles)))
        assert_exit_contract(argv)

    @settings(max_examples=40, deadline=None)
    @given(
        trials=st.integers(1, 3000),
        samples=st.integers(1, 3000),
        workers=st.integers(1, 3),
        threshold=st.none() | st.floats(0.0, 10.0) | st.floats(min_value=0.0) | BAD_REALS,
        epsilon=st.none() | st.floats(0.0, 1.0) | st.floats(min_value=0.0) | BAD_REALS,
        seed=st.integers(0, 2**32),
        angles=st.lists(st.floats(-1e12, 1e12) | st.sampled_from([math.nan, math.inf, -math.inf]), max_size=3),
    )
    def test_epr(self, trials, samples, workers, threshold, epsilon, seed, angles):
        argv = ["epr", "--seed", str(seed), "--trials", str(trials), "--samples", str(samples),
                "--workers", str(workers), "--angles=" + ",".join(map(repr, angles))]
        assert_exit_contract(argv + real_flags(threshold=threshold, epsilon=epsilon))

    @settings(max_examples=60, deadline=None)
    @given(**CLICK_SETTINGS)
    def test_chsh_clicks(self, **drawn):
        assert_click_contract("chsh", **drawn)

    @settings(max_examples=40, deadline=None)
    @given(**CLICK_SETTINGS)
    def test_kolmogorov_clicks(self, **drawn):
        """The click table under the feasibility test: signalling or inconsistent tables end in 2."""
        assert_click_contract("kolmogorov", **drawn)

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 6),
        samples=st.integers(1, 3000),
        workers=st.integers(1, 3),
        epsilon=st.none() | st.floats(0.0, 1.0) | st.floats(min_value=0.0) | BAD_REALS,
        threshold=st.none() | BAD_REALS,
        seed=st.integers(0, 2**32),
    )
    def test_born(self, dim, samples, workers, epsilon, threshold, seed):
        argv = ["born", "--seed", str(seed), "--dim", str(dim), "--samples", str(samples),
                "--workers", str(workers)]
        assert_exit_contract(argv + real_flags(epsilon=epsilon, threshold=threshold))

    @settings(max_examples=40, deadline=None)
    @given(
        dim=st.integers(1, 6),
        step=st.none() | st.floats(1e-6, 1e-1) | st.floats(min_value=0.0) | BAD_REALS,
        epsilon=st.none() | BAD_REALS,
        threshold=st.none() | BAD_REALS,
        seed=st.integers(0, 2**32),
    )
    def test_hessian(self, dim, step, epsilon, threshold, seed):
        argv = ["hessian", "--seed", str(seed), "--dim", str(dim)]
        assert_exit_contract(argv + real_flags(step=step, epsilon=epsilon, threshold=threshold))


class TestMemory:
    def test_born_streams_its_samples(self):
        """run_born holds one chunk of samples, whatever the sample count: no array of values (8 MB here)."""
        run_born(ExperimentConfig(kind="born", seed=7, samples=2_000))  # one-time lazy imports stay out of the peak
        tracemalloc.start()
        try:
            result = run_born(ExperimentConfig(kind="born", seed=7, samples=1_000_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.values["mc_average"]["n"] == 1_000_000
        assert peak < CHUNK * 2 * 16 + 2**20

    def test_trial_csvs_stream_their_rows(self, tmp_path):
        """The largest run that writes trial CSVs holds its click codes and one slice of CSV text, not a whole file."""
        argv = ["chsh", "--model", "singlet-clicks", "--seed", "7", "--trials"]
        assert main(argv + ["2000", "--out", str(tmp_path / "warm")]) == 0  # lazy imports stay out of the peak
        tracemalloc.start()
        try:
            code = main(argv + [str(TRIAL_CSV_LIMIT), "--out", str(tmp_path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(list(tmp_path.glob("trials_x*_y*.csv"))) == 4
        assert peak < 3 * 2**20

    def test_click_codes_stream_their_trials(self, tmp_path):
        """A click run past the trial-CSV limit holds one setting pair's codes and one chunk per worker.

        Holding every pair's codes, one byte per trial each, would peak at
        about n + 3.7 MiB at one worker and n + 4.5 MiB at two.
        """
        n = 10**6
        for kind in ("chsh", "kolmogorov"):
            for workers, slack_mib in ((1, 1.25), (2, 2.0)):
                argv = [kind, "--model", "singlet-clicks", "--seed", "7", "--workers", str(workers), "--trials"]
                assert main(argv + ["2000", "--out", str(tmp_path / "warm")]) == 0  # lazy imports stay out of the peak
                tracemalloc.start()
                try:
                    code = main(argv + [str(n), "--out", str(tmp_path / "run")])
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert code == 0
                assert peak < n + slack_mib * 2**20, (kind, workers, (peak - n) / 2**20)


class TestProvenance:
    def test_every_value_tagged(self, tmp_path):
        out = tmp_path / "born"
        assert main(["born", "--seed", "13", "--samples", "5000", "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        for name, entry in results["values"].items():
            assert entry["provenance"] in ("exact", "mc", "reference-oracle", "derived"), name
            if entry["provenance"] == "mc":
                assert "standard_error" in entry and "n" in entry

    @pytest.mark.parametrize(
        "argv, epsilon",
        [
            (["born", "--samples", "2000"], 0.05),
            (["dynamics", "--time", "0.1", "--dt", "0.01"], 0.05),
            (["epr", "--trials", "2000", "--samples", "2000", "--angles", "0.3"], CURVE_EPSILON),
            (["chsh", "--model", "singlet-clicks", "--trials", "2000"], CHSH_CLICK_EPSILON),
            (["epr", "--trials", "2000", "--samples", "2000", "--angles", "0.3", "--epsilon", "0.21"], 0.21),
            (["chsh", "--model", "singlet-clicks", "--trials", "2000", "--epsilon", "0.5"], 0.5),
        ],
        ids=["born", "dynamics", "epr", "singlet-clicks", "epr-explicit", "singlet-clicks-explicit"],
    )
    def test_manifest_records_the_epsilon_the_run_used(self, argv, epsilon, tmp_path):
        """Without --epsilon a run uses its calibrated point; with it, the given value, unclamped."""
        out = tmp_path / "run"
        assert main(argv + ["--seed", "1", "--out", str(out)]) in (0, 1)
        assert json.loads((out / "manifest.json").read_text())["config"]["epsilon"] == epsilon
        values = json.loads((out / "results.json").read_text())["values"]
        if "epsilon" in values:
            assert values["epsilon"]["value"] == epsilon

    @pytest.mark.parametrize("source, name, value", SOURCE_VALUES, ids=[f"{s}-{n}" for s, n, _ in SOURCE_VALUES])
    def test_unset_setting_records_its_sources_value(self, source, name, value, tmp_path):
        """A run that leaves a setting unset records in manifest.json exactly its SOURCES value."""
        out = tmp_path / "run"
        assert main(SOURCE_RUNS[source] + ["--seed", "1", "--out", str(out)]) in (0, 1)
        recorded = strict_json(out / "manifest.json")["config"][name]
        assert recorded == (list(value) if isinstance(value, tuple) else value)

    @pytest.mark.parametrize(
        "argv",
        [
            ["born", "--samples", "2000"],
            ["dynamics", "--time", "0.1", "--dt", "0.01"],
            ["hessian"],
            ["epr", "--trials", "2000", "--samples", "2000"],
            *[[kind, "--model", model, *extra] for kind in ("chsh", "kolmogorov") for model, extra in (
                ("lhv", ["--trials", "1000"]), ("singlet", []), ("singlet-clicks", ["--trials", "4000"]), ("file", []))],
        ],
        ids=["born", "dynamics", "hessian", "epr", *(f"{kind}-{model}" for kind, model in BELL_RUNS)],
    )
    def test_manifest_records_every_setting_the_run_read(self, argv, tmp_path):
        """No setting that settings_read lists is null in the manifest: defaults are recorded as the values used."""
        table = tmp_path / "table.json"
        table.write_text(table_text())
        file_model = ["--table", str(table)] if "file" in argv else []
        assert main(argv + file_model + ["--seed", "1", "--out", str(tmp_path / "run")]) in (0, 1)
        config = strict_json(tmp_path / "run" / "manifest.json")["config"]
        listed = settings_read(ExperimentConfig(kind=argv[0], model=config.get("model", "lhv")))
        assert [name for name in listed if config.get(name) is None] == []
        values = strict_json(tmp_path / "run" / "results.json")["values"]
        for name in ("epsilon", "threshold"):
            if name in values:
                assert config[name] == values[name]["value"], name

    def test_manifest_has_config_and_version(self, tmp_path):
        out = tmp_path / "m"
        assert main(["chsh", "--model", "singlet", "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config"]["kind"] == "chsh"
        assert manifest["rng_contract"] == 2
        assert "workers" not in manifest["config"]
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert env["blas"] and env["blas"] != "? ?"
        assert env["blas_kernel"] and env["simd"]

    def test_manifest_records_the_forced_blas_kernel(self, tmp_path):
        """OpenBLAS reads OPENBLAS_CORETYPE once, at load, so a child process forces the kernel."""
        if experiments._environment()["blas_kernel"] == "?":
            pytest.skip("numpy has no bundled OpenBLAS whose kernel can be read")
        out = tmp_path / "run"
        argv = [sys.executable, "-m", "prefield.cli", "chsh", "--model", "singlet", "--seed", "1", "--out", str(out)]
        env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
        assert subprocess.run(argv, env=env, capture_output=True).returncode == 0
        assert json.loads((out / "manifest.json").read_text())["environment"]["blas_kernel"] == "Haswell"
