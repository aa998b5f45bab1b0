import csv
import dataclasses
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import CHUNK_EDGES
from prefield.cli import main
from prefield.hilbert import HermitianOperator
from prefield.random_field import CHUNK
from prefield.serialize import operator_payload, read_json, write_csv, write_json


class TestComplexPairs:
    def test_vector_pairs(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0] = [1 + 2j, -0.5j, 3.0]
        assert operator_payload(m)["data"][0] == [[1.0, 2.0], [0.0, -0.5], [3.0, 0.0]]

    def test_matrix_pairs_are_row_major(self):
        m = np.array([[1 + 1j, 0], [2, -1j]])
        assert operator_payload(m)["data"] == [[[1.0, 1.0], [0.0, 0.0]], [[2.0, 0.0], [0.0, -1.0]]]

    def test_operator_payload(self):
        op = operator_payload(np.eye(2, dtype=complex))
        assert op == {"kind": "operator", "dim": 2, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]}


class TestTypePayloads:
    def test_operator_payload_via_json(self, tmp_path):
        h = HermitianOperator([[1.0, 0.5 - 0.25j], [0.5 + 0.25j, -1.0]])
        path = tmp_path / "op.json"
        write_json(path, operator_payload(h.matrix))
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
        code = main(["chsh", "--seed", "2", "--model", "singlet", "--out", str(out)])
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


class LabelledFloat(float):
    """A float subclass that prints itself with a wrapper, as np.float64's repr does."""

    def __str__(self):
        return f"LabelledFloat({float(self)!r})"

    __repr__ = __str__


def reference_cell(value):
    """Cell text as write_csv formats it: every number converted, floats by repr(float(v))."""
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def reference_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([reference_cell(v) for v in row])


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-5]
FLOATS = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
CELLS = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    FLOATS.map(LabelledFloat),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.text(st.characters(codec="utf-8"), max_size=4),
)


class TestCsvCells:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.lists(CELLS, min_size=1, max_size=5), min_size=1, max_size=6))
    def test_write_csv_matches_reference_writer(self, rows):
        """A plain float goes to csv unconverted; every other number is converted first.

        Without an index every row is written in order; an index, reversed or
        repeating rows, writes rows[i] for each of its entries.
        """
        header = [f"c{k}" for k in range(max(map(len, rows)))]
        n = len(rows)
        indexes = {"none": None, "reversed": list(range(n))[::-1], "repeating": [k % n for k in range(3 * n + 1)][::2]}
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            for name, index in indexes.items():
                write_csv(got, header, rows, index)
                reference_csv(want, header, rows if index is None else [rows[i] for i in index])
                assert got.read_bytes() == want.read_bytes(), name


TRIAL_LIKE_ROWS = [[0.1 * k, np.float64(k) / 3, k & 1, bool(k & 2), np.bool_(k & 4), "+-"[k & 1]] for k in range(16)]
TRIAL_LIKE_HEADER = ["theta1", "theta2", "click", "flag", "accepted", "class"]


class TestCsvSlices:
    """The body is written CHUNK rows at a time; the bytes never show where a slice ends."""

    @pytest.mark.parametrize("n", [0, *(c + d for c in CHUNK_EDGES for d in (-1, 0, 1)), *(2 * c + 3 for c in CHUNK_EDGES)])
    def test_indexed_body_matches_reference_across_slices(self, n, tmp_path):
        index = np.random.default_rng(n).integers(0, 16, n).astype(np.uint8)  # as trial click codes are stored
        write_csv(tmp_path / "got.csv", TRIAL_LIKE_HEADER, TRIAL_LIKE_ROWS, index)
        reference_csv(tmp_path / "want.csv", TRIAL_LIKE_HEADER, [TRIAL_LIKE_ROWS[i] for i in index])
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_unindexed_body_matches_reference_across_a_slice(self, tmp_path):
        rows = [[k, k / 7, np.float64(k) / 3] for k in range(CHUNK + 1)]
        write_csv(tmp_path / "got.csv", ["k", "x", "y"], rows)
        reference_csv(tmp_path / "want.csv", ["k", "x", "y"], rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_memory_is_one_slice(self, tmp_path):
        """A 200,000-entry index over 16 rows: one slice of text at a time, not the whole file twice over."""
        index = np.random.default_rng(5).integers(0, 16, 200_000).astype(np.uint8)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", TRIAL_LIKE_HEADER, TRIAL_LIKE_ROWS, index)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (tmp_path / "big.csv").stat().st_size > 5 * 10**6
        assert peak < 4 * 2**20
