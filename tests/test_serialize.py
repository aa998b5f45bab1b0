import dataclasses
import json
import math

import numpy as np
import pytest

from prefield.cli import main
from prefield.hilbert import HermitianOperator
from prefield.serialize import complex_to_pairs, operator_payload, read_json, write_json


class TestComplexPairs:
    def test_vector_pairs(self):
        v = np.array([1 + 2j, -0.5j, 3.0])
        assert complex_to_pairs(v) == [[1.0, 2.0], [0.0, -0.5], [3.0, 0.0]]

    def test_matrix_pairs_are_row_major(self):
        m = np.array([[1 + 1j, 0], [2, -1j]])
        assert complex_to_pairs(m) == [[[1.0, 1.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, -1.0]]]

    def test_operator_payload(self):
        op = operator_payload(np.eye(2, dtype=complex))
        assert op == {"kind": "operator", "dim": 2, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


class TestTypePayloads:
    def test_operator_payload_via_json(self, tmp_path):
        h = HermitianOperator([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
        path = tmp_path / "op.json"
        write_json(path, h.to_payload())
        assert read_json(path) == {
            "kind": "operator",
            "dim": 2,
            "data": [[[1.0, 0.0], [0.5, -0.25]], [[0.5, 0.25], [-1.0, 0.0]]],
        }


class TestCliIntegration:
    def test_dynamics_cli(self, tmp_path):
        out = tmp_path / "dyn"
        code = main(["dynamics", "--seed", "21", "--dim", "3", "--time", "0.5", "--out", str(out)])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["passed"]
        assert (out / "trajectory.csv").exists()

    def test_kolmogorov_from_table_file(self, tmp_path):
        from prefield.analysis import singlet_exact_table

        table = singlet_exact_table((0.0, math.pi / 4), (math.pi / 8, -math.pi / 8))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(dataclasses.asdict(table), default=np.ndarray.tolist))
        out = tmp_path / "kol"
        code = main(
            ["kolmogorov", "--seed", "1", "--model", "file", "--table", str(path), "--out", str(out)]
        )
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["values"]["feasible"]["value"] is False

    def test_chsh_singlet_exact_cli(self, tmp_path):
        out = tmp_path / "chsh"
        code = main(["chsh", "--seed", "2", "--model", "singlet-exact", "--out", str(out)])
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert results["values"]["S_exact"]["value"] == pytest.approx(
            -2 * math.sqrt(2), abs=1e-9
        )

    def test_chsh_clicks_cli_small(self, tmp_path):
        out = tmp_path / "clicks"
        code = main(
            ["chsh", "--seed", "2", "--model", "singlet-clicks", "--trials", "20000", "--out", str(out)]
        )
        assert code == 0
        results = json.loads((out / "results.json").read_text())
        assert abs(results["values"]["S_clicks"]["value"]) > 2.0
        assert (out / "trials_x0_y0.csv").exists()
