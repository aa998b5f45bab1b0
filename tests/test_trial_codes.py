"""The per-block click-code kernel against boolean-array reference paths.

The references below are the straightforward implementations: clicks from
the channel powers <phi, P_c phi> of the splitter projectors on materialised
samples, statistics from boolean masks, and trial CSVs written row by row
with `csv.writer`.  The code path must reproduce them exactly.
"""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from helpers import CHUNK_EDGES, pairs_in_two_pieces
from prefield.analysis import CorrelationTable, NoCoincidencesError
from prefield.detection import (
    BipartiteEnsemble,
    TrialBatch,
    _pack_codes,
    click_statistics,
    correlation_from_clicks,
    pbs_projectors,
    run_trials,
)
from prefield.hilbert import FieldVector, kron_vector
from prefield.random_field import (
    CHUNK,
    SAMPLE_BLOCK,
    STREAM_PAIRS,
    BackgroundField,
    RandomSeed,
    sample_powers,
    sample_with_factor,
)
from prefield.serialize import _cell, write_csv

SEED = RandomSeed(4242)
SINGLET = FieldVector(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))
SINGLET_EPS_MIN = math.sqrt(0.5) - 0.5
NAMES = {0: "none", 1: "single", 2: "double"}


def projector_clicks(phi, theta, threshold):
    """Click table from <phi, P_c phi> over pbs_projectors(theta), without the kernel."""
    stack = np.stack([p.matrix for p in pbs_projectors(theta)])
    return np.einsum("ni,cij,nj->nc", phi.conj(), stack, phi).real > threshold


def codes_of(*tables):
    """Click codes of boolean (n, 2) click tables, party 1 first."""
    bits = np.concatenate(tables, axis=1).astype(np.uint8)
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.uint8))


def reference_accepted(clicks1, clicks2, policy):
    if policy == "keep-all":
        return np.ones(clicks1.shape[0], dtype=bool)
    return (clicks1.sum(axis=1) == 1) & (clicks2.sum(axis=1) == 1)


def reference_statistics(clicks1, clicks2, policy):
    """Raw table, accepted count, 2x2 outcome counts and channel rates from boolean click tables.

    A party's outcome is "+" when its + channel fired, "-" otherwise.  Its
    + and - channel rates count the trials in which that channel fired,
    alone or in a double click.
    """
    # each party's trials by code: none, + only, - only, both
    party_codes = [[~p & ~m, p & ~m, ~p & m, p & m] for p, m in (clicks1.T, clicks2.T)]
    raw = np.array([[int((c1 & c2).sum()) for c2 in party_codes[1]] for c1 in party_codes[0]])
    acc = reference_accepted(clicks1, clicks2, policy)
    plus1, plus2 = clicks1[acc, 0], clicks2[acc, 0]
    cells = np.array([[int((a1 & a2).sum()) for a2 in (plus2, ~plus2)] for a1 in (plus1, ~plus1)])
    rates = np.array([clicks1.sum(axis=0), clicks2.sum(axis=0)]) / clicks1.shape[0]
    return raw, int(acc.sum()), cells, rates


def reference_correlation(clicks1, clicks2, policy):
    """E = P++ + P-- - P+- - P-+ and the +-1 standard error sqrt(max(1/n, 1 - E^2) / n) over the policy's trials."""
    acc = reference_accepted(clicks1, clicks2, policy)
    plus1, plus2 = clicks1[acc, 0], clicks2[acc, 0]
    n = int(acc.sum())
    pp, mm = int((plus1 & plus2).sum()) / n, int((~plus1 & ~plus2).sum()) / n
    pm, mp = int((plus1 & ~plus2).sum()) / n, int((~plus1 & plus2).sum()) / n
    e = pp + mm - pm - mp
    return e, math.sqrt(max(1.0 / n, 1.0 - e * e) / n)


def reference_csv(path, theta1, theta2, clicks1, clicks2, policy):
    """One csv.writer row per trial, as the trial CSVs were first written."""
    stats_acc = reference_accepted(clicks1, clicks2, policy)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["theta1", "theta2", "click1_plus", "click1_minus",
                         "click2_plus", "click2_minus", "class1", "class2", "accepted"])
        for i in range(clicks1.shape[0]):
            row = [theta1, theta2, int(clicks1[i, 0]), int(clicks1[i, 1]),
                   int(clicks2[i, 0]), int(clicks2[i, 1]), NAMES[int(clicks1[i].sum())],
                   NAMES[int(clicks2[i].sum())], int(stats_acc[i])]
            writer.writerow([_cell(v) for v in row])


def random_clicks(seed, n, p):
    rng = np.random.default_rng(seed)
    return rng.random((n, 2)) < p, rng.random((n, 2)) < p


KERNEL_CONFIGS = [
    (0.0, math.pi / 8, 0.2, SINGLET_EPS_MIN),
    (math.pi / 4, -math.pi / 8, 0.2, SINGLET_EPS_MIN),
    (0.3, 1.9, 1.1, SINGLET_EPS_MIN + 0.03),
    (-0.7, 0.4, 0.05, 0.4),
]


def splitter(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


class TestKernel:
    """Kernel runs of [0, cut + n) against reference pairs drawn in two pieces cut at `cut`."""

    @pytest.mark.parametrize("theta1, theta2, threshold, eps", KERNEL_CONFIGS)
    @pytest.mark.parametrize(
        "cut, n",
        [
            (0, 5_000),
            (1_000, 5_000),
            (2 * SAMPLE_BLOCK + 17, 100),
            (SAMPLE_BLOCK - 300, 600),
            *((c - 300, 600) for c in CHUNK_EDGES),
            *((123, 2 * c + 5_000) for c in CHUNK_EDGES),
        ],
    )
    def test_codes_match_projector_powers(self, theta1, theta2, threshold, eps, cut, n):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(eps))
        batch = run_trials(ens, theta1, theta2, threshold, cut + n, SEED)
        phi1, phi2 = pairs_in_two_pieces(ens, SEED, cut, cut + n)
        clicks1 = projector_clicks(phi1, theta1, threshold)
        clicks2 = projector_clicks(phi2, theta2, threshold)
        bits = np.concatenate([clicks1, clicks2], axis=1).astype(int)
        np.testing.assert_array_equal(batch.codes, bits @ [1, 2, 4, 8])
        np.testing.assert_array_equal(batch.histogram, np.bincount(bits @ [1, 2, 4, 8], minlength=16))

    @pytest.mark.parametrize("theta1, theta2, threshold, eps", KERNEL_CONFIGS)
    def test_folded_basis_matches_projecting_the_samples(self, theta1, theta2, threshold, eps):
        """Colouring and projecting in one product thresholds like z @ basis."""
        ens = BipartiteEnsemble(SINGLET, BackgroundField(eps))
        n = 2 * CHUNK + 1  # ends one row into a block
        basis = np.zeros((4, 4), dtype=complex)
        basis[:2, :2], basis[2:, 2:] = splitter(theta1), splitter(theta2)
        amplitudes = sample_with_factor(ens.sampler_factor, n, SEED, 0, STREAM_PAIRS) @ basis
        clicks = amplitudes.real**2 + amplitudes.imag**2 > threshold
        expected = np.packbits(clicks, axis=1, bitorder="little")[:, 0]
        batch = run_trials(ens, theta1, theta2, threshold, n, SEED)
        np.testing.assert_array_equal(batch.codes, expected)

    @pytest.mark.parametrize("theta, threshold", [(0.0, 0.0202), (0.6, 0.3), (-1.2, 0.05)])
    @pytest.mark.parametrize(
        "cut, n",
        [(0, 5_000), *((SAMPLE_BLOCK - 7, c + 9) for c in CHUNK_EDGES), *((123, 2 * c + 5_000) for c in CHUNK_EDGES)],
    )
    def test_single_party_codes_match_projector_powers(self, theta, threshold, cut, n):
        """A single party is party 1 of the product state psi x e_0; its codes are the low two bits."""
        psi = FieldVector([math.cos(0.4), math.sin(0.4) * 1j])
        ens = BipartiteEnsemble(kron_vector(psi, FieldVector([1.0, 0.0])), BackgroundField(0.06))
        batch = run_trials(ens, theta, 0.0, threshold, cut + n, SEED)
        phi1, _ = pairs_in_two_pieces(ens, SEED, cut, cut + n)
        clicks = projector_clicks(phi1, theta, threshold)
        np.testing.assert_array_equal(batch.codes & 3, codes_of(clicks))
        np.testing.assert_array_equal(batch.raw.sum(axis=1), np.bincount(codes_of(clicks), minlength=4))
        assert batch.theta1 == theta

    def test_memory_is_one_chunk_plus_one_byte_per_trial(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(SINGLET_EPS_MIN))
        tracemalloc.start()
        try:
            batch = run_trials(ens, 0.0, math.pi / 8, 0.2, 1_000_000, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.n_trials == 1_000_000
        assert peak < 16 * 2**20

    def test_two_workers_fill_one_code_array(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(SINGLET_EPS_MIN))
        tracemalloc.start()
        try:
            batch = run_trials(ens, 0.0, math.pi / 8, 0.2, 1_000_000, SEED, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.n_trials == 1_000_000
        assert peak < 16 * 2**20
        single = run_trials(ens, 0.0, math.pi / 8, 0.2, 1_000_000, SEED)
        np.testing.assert_array_equal(batch.codes, single.codes)


class TestPackCodes:
    """The word-wise packing against the uint8 product it replaced."""

    @staticmethod
    def reference(clicks):
        return clicks.view(np.uint8) @ np.array([1, 2, 4, 8], dtype=np.uint8)

    def test_every_code(self):
        clicks = ((np.arange(16)[:, None] >> np.arange(4)) & 1).astype(bool)
        np.testing.assert_array_equal(_pack_codes(clicks), np.arange(16))
        np.testing.assert_array_equal(_pack_codes(clicks), self.reference(clicks))

    def test_random_table(self):
        clicks = np.random.default_rng(11).random((100_000, 4)) < 0.5
        np.testing.assert_array_equal(_pack_codes(clicks), self.reference(clicks))

    def test_table_from_strided_powers(self):
        """sample_powers returns every other column of its buffer, as _click_codes thresholds it.

        Above eps* the law has full rank, so every code occurs."""
        ens = BipartiteEnsemble(SINGLET, BackgroundField(SINGLET_EPS_MIN + 0.03))
        basis = np.zeros((4, 4))
        basis[:2, :2], basis[2:, 2:] = splitter(0.0), splitter(math.pi / 8)
        powers = sample_powers(basis.T @ ens.sampler_factor, 3 * SAMPLE_BLOCK + 5, SEED, 17, STREAM_PAIRS)
        assert not powers.flags.c_contiguous
        clicks = powers > 0.2
        assert np.unique(self.reference(clicks)).size == 16
        np.testing.assert_array_equal(_pack_codes(clicks), self.reference(clicks))


class TestHistogramStatistics:
    @pytest.mark.parametrize("policy", ["keep-singles", "keep-all"])
    @pytest.mark.parametrize("p", [0.02, 0.3, 0.8])
    def test_bipartite_statistics_match_boolean_reference(self, policy, p):
        clicks1, clicks2 = random_clicks(int(p * 100), 20_011, p)
        batch = TrialBatch(0.1, 0.2, codes_of(clicks1, clicks2), policy)
        raw, n_accepted, cells, rates = reference_statistics(clicks1, clicks2, policy)
        np.testing.assert_array_equal(batch.raw, raw)
        np.testing.assert_array_equal(batch.coincidences(), cells)
        stats = click_statistics(batch)
        assert (stats.n_trials, int(stats.raw[stats.mask].sum())) == (20_011, n_accepted)
        np.testing.assert_array_equal(stats.party_counts, [raw.sum(axis=1), raw.sum(axis=0)])
        np.testing.assert_array_equal(stats.channel_rates, rates)
        assert stats.accepted_fraction == reference_accepted(clicks1, clicks2, policy).mean()
        assert correlation_from_clicks(batch) == reference_correlation(clicks1, clicks2, policy)
        np.testing.assert_array_equal(batch.accepted, reference_accepted(clicks1, clicks2, policy))

    @pytest.mark.parametrize("policy", ["keep-singles", "keep-all"])
    def test_single_party_statistics_match_boolean_reference(self, policy):
        """A single party's clicks are party 1's marginal when party 2 never clicks."""
        clicks1, _ = random_clicks(5, 9_999, 0.4)
        silent = np.zeros_like(clicks1)
        batch = TrialBatch(0.0, 0.0, codes_of(clicks1, silent), policy)
        raw, n_accepted, cells, rates = reference_statistics(clicks1, silent, policy)
        np.testing.assert_array_equal(batch.raw, raw)
        np.testing.assert_array_equal(batch.coincidences(), cells)
        stats = click_statistics(batch)
        np.testing.assert_array_equal(stats.party_counts, [raw[:, 0], (9_999, 0, 0, 0)])
        np.testing.assert_array_equal(stats.channel_rates, rates)
        assert int(stats.raw[stats.mask].sum()) == n_accepted == (9_999 if policy == "keep-all" else 0)

    def test_one_e_formula_on_2000_batches(self):
        """correlation_from_clicks and from_trial_batches give E and SE bit for bit."""
        rng = np.random.default_rng(2000)
        keys = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for k in range(2000):
            policy = ("keep-singles", "keep-all")[k % 2]
            codes = rng.choice(16, size=int(rng.integers(20, 400)), p=rng.dirichlet(np.ones(16)))
            batch = TrialBatch(0.1, 0.2, codes, policy)
            if not batch.coincidences().sum():
                continue
            table = CorrelationTable.from_trial_batches((0.1, 0.5), (0.2, 0.6), dict.fromkeys(keys, batch))
            e, se = correlation_from_clicks(batch)
            assert (e, se) == (table.correlations[0, 0], table.standard_errors[0, 0]), (k, policy)

    @pytest.mark.parametrize("policy", ["keep-singles", "keep-all"])
    def test_one_estimator_for_curve_and_table(self, policy):
        """correlation_from_clicks and from_trial_batches give one E and SE for one batch."""
        clicks1, clicks2 = random_clicks(11, 5_003, 0.35)
        batch = TrialBatch(0.1, 0.2, codes_of(clicks1, clicks2), policy)
        e, se = correlation_from_clicks(batch)
        table = CorrelationTable.from_trial_batches((0.1, 0.5), (0.2, 0.6), dict.fromkeys(
            [(0, 0), (0, 1), (1, 0), (1, 1)], batch))
        assert table.counts[0, 0] == int(reference_accepted(clicks1, clicks2, policy).sum())
        assert table.correlations[0, 0] == pytest.approx(e, rel=1e-13, abs=1e-15)
        assert table.standard_errors[0, 0] == pytest.approx(se, rel=1e-13)

    def test_zero_accepted_is_a_dedicated_error(self):
        batch = TrialBatch(0.0, 0.0, codes_of(np.ones((5, 2), bool), np.zeros((5, 2), bool)))
        with pytest.raises(NoCoincidencesError):
            correlation_from_clicks(batch)
        tally = click_statistics(batch)
        assert int(tally.raw[tally.mask].sum()) == 0

    def test_rejects_codes_outside_the_party_layout(self):
        with pytest.raises(ValueError, match="below 16"):
            TrialBatch(0.0, 0.0, np.array([0, 16], dtype=np.uint8))


class TestTrialCsv:
    @pytest.mark.parametrize(
        "party2_clicks, policy",
        [(True, "keep-singles"), (True, "keep-all"), (False, "keep-singles"), (False, "keep-all")],
    )
    def test_bytes_match_row_by_row_writer(self, tmp_path, party2_clicks, policy):
        clicks1, clicks2 = random_clicks(3, 3_000, 0.45)
        if not party2_clicks:
            clicks2 = np.zeros_like(clicks2)
        theta1, theta2 = -math.pi / 8, 3 * math.pi / 8
        batch = TrialBatch(theta1, theta2, codes_of(clicks1, clicks2), policy)
        write_csv(tmp_path / "codes.csv", *batch.csv_table())
        reference_csv(tmp_path / "rows.csv", theta1, theta2, clicks1, clicks2, policy)
        assert (tmp_path / "codes.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
