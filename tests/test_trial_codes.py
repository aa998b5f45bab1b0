"""The per-block click-code kernel against boolean-array reference paths.

The references below are the straightforward implementations: clicks from
`ThresholdDetector.clicks` on materialised sample pairs, statistics from
boolean masks, and trial CSVs written row by row with `csv.writer`.  The
code path must reproduce them exactly.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from prefield.detection import (
    TRIAL_CHUNK,
    BipartiteEnsemble,
    ClickStatistics,
    NoCoincidencesError,
    ThresholdDetector,
    TrialBatch,
    click_statistics,
    correlation_from_clicks,
    pbs_projectors,
    run_trials,
)
from prefield.hilbert import FieldVector
from prefield.random_field import SAMPLE_BLOCK, BackgroundField, RandomSeed
from prefield.serialize import _cell

SEED = RandomSeed(4242)
SINGLET = FieldVector(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))
SINGLET_EPS_MIN = math.sqrt(0.5) - 0.5
NAMES = {0: "none", 1: "single", 2: "double"}


def reference_statistics(clicks1, clicks2, policy):
    """click_statistics computed from boolean click tables."""
    n = clicks1.shape[0]
    parties = [clicks1] if clicks2 is None else [clicks1, clicks2]
    counts = [c.sum(axis=1) for c in parties]
    if policy == "keep-all":
        acc = np.ones(n, dtype=bool)
    else:
        acc = np.logical_and.reduce([k == 1 for k in counts])
    n_acc = int(acc.sum())
    fields = {"n_trials": n, "n_accepted": n_acc, "accepted_fraction": n_acc / n}
    for i in (1, 2):
        if i > len(parties):
            for name in ("raw_click_rates", "single_rates", "double_rate", "none_rate", "conditional"):
                fields[f"{name}_{i}"] = None
            continue
        c, k = parties[i - 1], counts[i - 1]
        fields[f"raw_click_rates_{i}"] = tuple(float(v) for v in c.mean(axis=0))
        fields[f"single_rates_{i}"] = tuple(float((c[:, j] & (k == 1)).sum() / n) for j in range(2))
        fields[f"double_rate_{i}"] = float((k >= 2).mean())
        fields[f"none_rate_{i}"] = float((k == 0).mean())
        fields[f"conditional_{i}"] = (
            None if n_acc == 0 else tuple(float(c[acc, j].mean()) for j in range(2))
        )
    fields["coincidences"] = None
    if clicks2 is not None and n_acc:
        o1 = np.where(clicks1[acc, 0], 1, -1)
        o2 = np.where(clicks2[acc, 0], 1, -1)
        fields["coincidences"] = {
            (a, b): int(((o1 == a) & (o2 == b)).sum()) for a in (1, -1) for b in (1, -1)
        }
    fields["degenerate"] = n_acc == 0
    return ClickStatistics(**fields)


def reference_correlation(clicks1, clicks2):
    acc = (clicks1.sum(axis=1) == 1) & (clicks2.sum(axis=1) == 1)
    prod = np.where(clicks1[acc, 0], 1.0, -1.0) * np.where(clicks2[acc, 0], 1.0, -1.0)
    return float(prod.mean()), float(prod.std(ddof=1) / np.sqrt(acc.sum()))


def reference_csv(path, theta1, theta2, clicks1, clicks2, policy):
    """One csv.writer row per trial, as the trial CSVs were first written."""
    stats_acc = reference_accepted(clicks1, clicks2, policy)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if clicks2 is None:
            writer.writerow(["theta", "click_plus", "click_minus", "classification", "accepted"])
            for i in range(clicks1.shape[0]):
                row = [theta1, int(clicks1[i, 0]), int(clicks1[i, 1]),
                       NAMES[int(clicks1[i].sum())], int(stats_acc[i])]
                writer.writerow([_cell(v) for v in row])
            return
        writer.writerow(["theta1", "theta2", "click1_plus", "click1_minus",
                         "click2_plus", "click2_minus", "class1", "class2", "accepted"])
        for i in range(clicks1.shape[0]):
            row = [theta1, theta2, int(clicks1[i, 0]), int(clicks1[i, 1]),
                   int(clicks2[i, 0]), int(clicks2[i, 1]), NAMES[int(clicks1[i].sum())],
                   NAMES[int(clicks2[i].sum())], int(stats_acc[i])]
            writer.writerow([_cell(v) for v in row])


def reference_accepted(clicks1, clicks2, policy):
    if policy == "keep-all":
        return np.ones(clicks1.shape[0], dtype=bool)
    acc = clicks1.sum(axis=1) == 1
    if clicks2 is not None:
        acc &= clicks2.sum(axis=1) == 1
    return acc


def random_clicks(seed, n, p):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) < p, rng.random((n, 2)) < p


class TestKernel:
    @pytest.mark.parametrize(
        "theta1, theta2, threshold, eps",
        [
            (0.0, math.pi / 8, 0.2, SINGLET_EPS_MIN),
            (math.pi / 4, -math.pi / 8, 0.2, SINGLET_EPS_MIN),
            (0.3, 1.9, 1.1, SINGLET_EPS_MIN + 0.03),
            (-0.7, 0.4, 0.05, 0.4),
        ],
    )
    @pytest.mark.parametrize(
        "start, n",
        [
            (0, 5_000),
            (1_000, 5_000),
            (2 * SAMPLE_BLOCK + 17, 100),
            (SAMPLE_BLOCK - 300, 600),
            (TRIAL_CHUNK - 300, 600),
            (123, 2 * TRIAL_CHUNK + 5_000),
        ],
    )
    def test_codes_match_threshold_detector(self, theta1, theta2, threshold, eps, start, n):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(eps))
        batch = run_trials(ens, theta1, theta2, ThresholdDetector(threshold, pbs_projectors(0.0)),
                           n, SEED, start_index=start)
        phi1, phi2 = ens.sample_pairs(n, SEED, start)
        clicks1 = ThresholdDetector(threshold, pbs_projectors(theta1)).clicks(phi1)
        clicks2 = ThresholdDetector(threshold, pbs_projectors(theta2)).clicks(phi2)
        bits = np.concatenate([clicks1, clicks2], axis=1).astype(int)
        np.testing.assert_array_equal(batch.codes, bits @ [1, 2, 4, 8])
        np.testing.assert_array_equal(batch.clicks1, clicks1)
        np.testing.assert_array_equal(batch.clicks2, clicks2)
        np.testing.assert_array_equal(batch.histogram, np.bincount(bits @ [1, 2, 4, 8], minlength=16))

    def test_memory_is_one_chunk_plus_one_byte_per_trial(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(SINGLET_EPS_MIN))
        det = ThresholdDetector(0.2, pbs_projectors(0.0))
        tracemalloc.start()
        try:
            batch = run_trials(ens, 0.0, math.pi / 8, det, 1_000_000, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.n_trials == 1_000_000
        assert peak < 16 * 2**20


class TestHistogramStatistics:
    @pytest.mark.parametrize("policy", ["keep-singles", "keep-all"])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.8])
    def test_bipartite_statistics_match_boolean_reference(self, policy, p):
        clicks1, clicks2 = random_clicks(int(p * 100), 20_011, p)
        batch = TrialBatch(0.1, 0.2, clicks1, clicks2, policy)
        assert click_statistics(batch) == reference_statistics(clicks1, clicks2, policy)
        assert correlation_from_clicks(batch) == reference_correlation(clicks1, clicks2)
        np.testing.assert_array_equal(batch.accepted, reference_accepted(clicks1, clicks2, policy))

    @pytest.mark.parametrize("policy", ["keep-singles", "keep-all"])
    def test_single_party_statistics_match_boolean_reference(self, policy):
        clicks1, _ = random_clicks(5, 9_999, 0.4)
        batch = TrialBatch(0.0, None, clicks1, None, policy)
        assert click_statistics(batch) == reference_statistics(clicks1, None, policy)

    def test_zero_accepted_is_a_dedicated_error(self):
        batch = TrialBatch(0.0, 0.0, np.ones((5, 2), bool), np.zeros((5, 2), bool))
        with pytest.raises(NoCoincidencesError):
            correlation_from_clicks(batch)
        assert click_statistics(batch).degenerate

    def test_codes_and_click_tables_build_the_same_batch(self):
        clicks1, clicks2 = random_clicks(9, 1_000, 0.5)
        a = TrialBatch(0.0, 0.5, clicks1, clicks2)
        b = TrialBatch(0.0, 0.5, codes=a.codes)
        np.testing.assert_array_equal(a.histogram, b.histogram)
        np.testing.assert_array_equal(b.clicks1, clicks1)
        np.testing.assert_array_equal(b.clicks2, clicks2)

    def test_rejects_codes_outside_the_party_layout(self):
        with pytest.raises(ValueError, match="below 4"):
            TrialBatch(0.0, None, codes=np.array([0, 5], dtype=np.uint8))
        with pytest.raises(ValueError, match="channel"):
            TrialBatch(0.0, None, np.zeros((3, 3), bool), None)


class TestTrialCsv:
    @pytest.mark.parametrize(
        "bipartite, policy",
        [(True, "keep-singles"), (True, "keep-all"), (False, "keep-singles"), (False, "keep-all")],
    )
    def test_bytes_match_row_by_row_writer(self, tmp_path, bipartite, policy):
        clicks1, clicks2 = random_clicks(3, 3_000, 0.45)
        theta1, theta2 = -math.pi / 8, 3 * math.pi / 8
        if not bipartite:
            clicks2, theta2 = None, None
        batch = TrialBatch(theta1, theta2, clicks1, clicks2, policy)
        batch.to_csv(tmp_path / "codes.csv")
        reference_csv(tmp_path / "rows.csv", theta1, theta2, clicks1, clicks2, policy)
        assert (tmp_path / "codes.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
