"""The golden run set writes the artifacts that tests/golden_artifacts.json records.

In the recorded environment every digest must match; elsewhere the runs are
compared value by value (see tests/golden_artifacts.py).  The value path is
exercised here too, by reporting another environment.
"""

import copy
import json

import pytest

import golden_artifacts as golden


@pytest.fixture(scope="module")
def record():
    return json.loads(golden.GOLDEN.read_text())


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return golden.run_set(tmp_path_factory.mktemp("golden"))


def test_run_set_matches_the_record(record, runs):
    path, mismatches = golden.compare(record, runs)
    assert mismatches == [], f"compared by {path}; regenerate the record only for a change that means to move bytes"


@pytest.fixture
def elsewhere(record, monkeypatch):
    """The record as seen from an environment other than the one that wrote it."""
    monkeypatch.setattr(golden, "_environment", lambda: {**record["environment"], "blas_kernel": "elsewhere"})
    return copy.deepcopy(record)


def test_value_path_accepts_the_same_runs(elsewhere, runs):
    assert golden.compare(elsewhere, runs) == ("values", [])


def test_value_path_can_be_forced_and_reports_the_largest_move(record, runs):
    moved = copy.deepcopy(record)
    want = moved["runs"]["born-41"]
    want["results"]["values"]["mc_average"]["value"] += 0.5 * golden.TOLERANCE
    assert golden.compare(moved, runs, True) == ("values", [])
    assert golden.largest_move(want["results"], runs["born-41"]["results"]) == pytest.approx(0.5 * golden.TOLERANCE)
    assert golden.largest_move(record["runs"]["born-41"], runs["born-41"]) == 0.0


@pytest.mark.parametrize("factor, moved", [(0.5, False), (2.0, True)])
def test_value_path_tolerates_float_moves_within_tolerance_only(elsewhere, runs, factor, moved):
    born = elsewhere["runs"]["born-41"]
    born["results"]["values"]["mc_average"]["value"] += factor * golden.TOLERANCE
    born["csv"]["born_convergence.csv"]["floats"]["0"][0] += factor * golden.TOLERANCE
    path, mismatches = golden.compare(elsewhere, runs)
    assert path == "values" and len(mismatches) == (2 if moved else 0)


@pytest.mark.parametrize(
    "edit",
    [
        lambda run: run["results"]["checks"][0].update(passed=not run["results"]["checks"][0]["passed"]),
        lambda run: run.update(exit=1 - run["exit"]),
        lambda run: run["csv"]["trials_x0_y1.csv"].update(codes="0" * 64),
        lambda run: run["csv"]["trials_x0_y1.csv"]["shape"].__setitem__(0, 3999),
        lambda run: run["digests"].pop("trials_x1_y1.csv"),
        lambda run: run["results"]["values"]["S_clicks"].update(n=1),
        lambda run: run["digests"].update({"manifest.json": "0" * 64}),
    ],
    ids=["verdict", "exit", "click codes", "csv shape", "artifact set", "integer value", "manifest"],
)
def test_value_path_requires_everything_but_floats_to_be_equal(elsewhere, runs, edit):
    edit(elsewhere["runs"]["chsh-singlet-clicks-1"])
    path, mismatches = golden.compare(elsewhere, runs)
    assert path == "values" and len(mismatches) == 1
