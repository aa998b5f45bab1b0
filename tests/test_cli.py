import json
import math
from pathlib import Path

import pytest

from prefield.cli import main, parse_config_file
from prefield.experiments import ExperimentConfig, _partition, validate
from prefield.random_field import SAMPLE_BLOCK


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

    def test_missing_seed(self):
        cfg = ExperimentConfig(kind="born")
        assert any("seed" in p for p in validate(cfg))

    def test_unknown_kind(self):
        cfg = ExperimentConfig(kind="banana", seed=7)
        assert any("kind" in p for p in validate(cfg))

    def test_triangle_needs_three_angles(self):
        cfg = ExperimentConfig(kind="triangle", seed=7, angles=(1.0, 1.0))
        assert any("three angles" in p for p in validate(cfg))

    def test_aggregated_diagnostics(self):
        cfg = ExperimentConfig(kind="born", epsilon=-1.0, trials=0, workers=0)
        assert len(validate(cfg)) >= 3


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


class TestExitCodes:
    def test_usage_error_is_2(self, capsys, tmp_path):
        code = main(["born", "--out", str(tmp_path / "x")])  # no seed
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_triangle_flat(self, tmp_path):
        out = tmp_path / "tri"
        code = main(
            ["triangle", "--seed", "1", "--angles",
             f"{math.pi/3},{math.pi/3},{math.pi/3}", "--out", str(out)]
        )
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["values"]["classification"]["value"] == "flat"

    def test_chsh_lhv_passes(self, tmp_path):
        out = tmp_path / "chsh"
        code = main(["chsh", "--seed", "3", "--model", "lhv", "--trials", "20000", "--out", str(out)])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert abs(results["values"]["S_exact"]["value"]) <= 2.0

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["chsh", "--model", "singlet-clicks", "--trials", "1"],
            ["chsh", "--model", "singlet-clicks", "--threshold", "50"],
            ["epr", "--trials", "1", "--samples", "1000"],
            ["epr", "--samples", "1"],
        ],
        ids=["chsh-one-trial", "chsh-high-threshold", "epr-one-trial", "epr-one-sample"],
    )
    def test_degenerate_click_runs_are_config_errors(self, argv, capsys, tmp_path):
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

    def test_worker_count_invisible_in_artifacts(self, tmp_path):
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        args = ["born", "--seed", "42", "--samples", "20000"]
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "4", "--out", str(out2)]) == 0
        assert read_artifacts(out1) == read_artifacts(out2)

    def test_trials_worker_invariance(self, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e3"
        args = [
            "epr", "--seed", "9", "--trials", "4000", "--samples", "4000",
            "--angles", "0.0,0.3927,0.7854",
        ]
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "3", "--out", str(out2)]) == 0
        assert read_artifacts(out1) == read_artifacts(out2)

    def test_click_trial_csvs_worker_invariance(self, tmp_path):
        out1, out3 = tmp_path / "c1", tmp_path / "c3"
        args = ["chsh", "--model", "singlet-clicks", "--seed", "9", "--trials", "10000"]
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "3", "--out", str(out3)]) == 0
        assert read_artifacts(out1) == read_artifacts(out3)
        assert "trials_x1_y1.csv" in read_artifacts(out1)

    @pytest.mark.parametrize("total", [1, 4095, 4096, 4097, 50_000, 1_000_000])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_partition_cuts_at_block_edges(self, total, workers):
        chunks = _partition(total, workers)
        assert chunks[0][0] == 0
        assert sum(count for _, count in chunks) == total
        for (start, count), (next_start, _) in zip(chunks, chunks[1:]):
            assert next_start == start + count
            assert next_start % SAMPLE_BLOCK == 0
        assert len(chunks) == min(workers, -(-total // SAMPLE_BLOCK))


class TestProvenance:
    def test_every_value_tagged(self, tmp_path):
        out = tmp_path / "born"
        assert main(["born", "--seed", "13", "--samples", "5000", "--out", str(out)]) == 0
        results = json.loads((out / "results.json").read_text())
        for name, entry in results["values"].items():
            assert entry["provenance"] in ("exact", "mc", "reference-oracle", "derived"), name
            if entry["provenance"] == "mc":
                assert "standard_error" in entry and "n" in entry

    def test_manifest_has_config_and_version(self, tmp_path):
        out = tmp_path / "m"
        assert main(["triangle", "--seed", "1", "--angles", "1,1,1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"]
        assert manifest["config"]["kind"] == "triangle"
        assert "workers" not in manifest["config"]
