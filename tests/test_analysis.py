import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_no_signalling_tables
from prefield import analysis
from prefield.analysis import (
    LHV_FLIP,
    CorrelationTable,
    FeasibilityVerdict,
    SignallingDataError,
    _assignment_matrix,
    _canonical_frequencies,
    _lhv_exact_correlation,
    _phase1_simplex,
    chsh,
    fine_chsh_values,
    kolmogorov_feasible,
    lhv_exact_table,
    lhv_sampled_table,
    singlet_exact_table,
    table_from_json,
)
from prefield.random_field import STREAM_HIDDEN_VARIABLE, RandomSeed

CHSH_ANGLES = (0.0, math.pi / 4, math.pi / 8, -math.pi / 8)
HUGE_ANGLES = (1e9, 0.785, -1e6, 3.0)
SPEC_GRID_ANGLES = (0.0, math.pi / 4, math.pi / 8, 3 * math.pi / 8)


def lhv_sampled_table_by_masks(a_settings, b_settings, n_per_pair, seed):
    """The flip-model table tabulated per trial by 16 boolean-mask means, as a reference.

    The four counts of each setting pair are drawn as the RNG contract
    states (one multinomial draw with the closed-form cell probabilities
    (1 + a b E) / 4 from stream (STREAM_HIDDEN_VARIABLE, x, y), block 0) and
    expanded into one (A, B) outcome per trial.
    """
    freq = np.zeros((2, 2, 2, 2))
    counts = np.zeros((2, 2), dtype=np.int64)
    for x in range(2):
        for y in range(2):
            e = _lhv_exact_correlation(a_settings[x], b_settings[y])
            cells = [(1.0 + a * b * e) / 4.0 for a in (1, -1) for b in (1, -1)]
            rng = seed.stream((STREAM_HIDDEN_VARIABLE, x, y), 0)
            cell = np.repeat(np.arange(4), rng.multinomial(n_per_pair, cells))
            out_a = np.where(cell < 2, 1, -1)
            out_b = np.where(cell % 2 == 0, 1, -1)
            for i, a in enumerate((1, -1)):
                for j, b in enumerate((1, -1)):
                    freq[x, y, i, j] = float(((out_a == a) & (out_b == b)).mean())
            counts[x, y] = n_per_pair
    return CorrelationTable.from_frequencies(tuple(a_settings), tuple(b_settings), freq, counts)


def scalar_frequencies(corr, mean_a=(0.0, 0.0), mean_b=(0.0, 0.0)):
    """The +-1 outcome table cell by cell: (1 + a m_a[x] + b m_b[y] + a b E[x, y]) / 4."""
    freq = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for i, a in enumerate((1, -1)):
                for j, b in enumerate((1, -1)):
                    freq[x, y, i, j] = (1.0 + a * mean_a[x] + b * mean_b[y] + a * b * corr[x][y]) / 4.0
    return freq


def table_from_correlations(corr, ses=None):
    corr = np.asarray(corr, dtype=float)
    ses = np.zeros((2, 2)) if ses is None else np.asarray(ses, dtype=float)
    return CorrelationTable((0.0, 1.0), (2.0, 3.0), corr, ses, scalar_frequencies(corr))


def signalling_table(party, gaps, counts=None):
    """Zero-correlation table in which `party` signals.

    Its mean outcome at its own setting s is (r - 1/2) gaps[s] when the other
    party's setting is r, so that marginal moves by gaps[s] with r.
    """
    freq = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            own, remote = (x, y) if party == 1 else (y, x)
            p_plus = (1.0 + (remote - 0.5) * gaps[own]) / 2.0
            for i in range(2):
                for j in range(2):
                    outcome = i if party == 1 else j
                    freq[x, y, i, j] = (p_plus if outcome == 0 else 1.0 - p_plus) / 2.0
    return CorrelationTable.from_frequencies((0, 1), (2, 3), freq, counts)


class TestChsh:
    def test_zero_correlations(self):
        s, se = chsh(table_from_correlations(np.zeros((2, 2))))
        assert s == 0.0 and se == 0.0

    def test_deterministic_boundary(self):
        s, _ = chsh(table_from_correlations(np.ones((2, 2))))
        assert s == pytest.approx(2.0)

    def test_singlet_tsirelson_value(self):
        table = singlet_exact_table(CHSH_ANGLES[:2], CHSH_ANGLES[2:])
        s, _ = chsh(table)
        assert s == pytest.approx(-2.0 * math.sqrt(2.0), abs=1e-12)

    def test_spec_grid_angles_hit_tsirelson_on_another_facet(self):
        # with E = -cos 2(a - b), the angle set (0, pi/4; pi/8, 3pi/8) gives
        # S = 0 for the canonical combination; the maximal violation sits on
        # the facet with the minus on (a1, b2)
        table = singlet_exact_table(SPEC_GRID_ANGLES[:2], SPEC_GRID_ANGLES[2:])
        s, _ = chsh(table)
        assert s == pytest.approx(0.0, abs=1e-12)
        fine = fine_chsh_values(table)
        assert max(abs(v) for v in fine.values()) == pytest.approx(
            2.0 * math.sqrt(2.0), abs=1e-12
        )

    def test_quadrature_error(self):
        ses = np.full((2, 2), 0.01)
        _, se = chsh(table_from_correlations(np.zeros((2, 2)), ses))
        assert se == pytest.approx(0.02)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(*[st.floats(-1.0, 1.0) for _ in range(4)]),
        st.integers(0, 1),
        st.integers(0, 2),
    )
    def test_relabeling_preserves_fine_family(self, es, party, setting):
        # flipping all outcomes of one setting permutes the eight CHSH
        # expressions up to sign, so the multiset of magnitudes is invariant
        corr = np.array(es).reshape(2, 2)
        base = sorted(abs(v) for v in fine_chsh_values(table_from_correlations(corr)).values())
        flipped = corr.copy()
        if setting < 2:
            if party == 0:
                flipped[setting, :] *= -1.0
            else:
                flipped[:, setting] *= -1.0
        after = sorted(abs(v) for v in fine_chsh_values(table_from_correlations(flipped)).values())
        np.testing.assert_allclose(after, base, atol=1e-12)


class TestFeasibility:
    def test_independent_fair_coins(self):
        table = table_from_correlations(np.zeros((2, 2)))
        verdict = kolmogorov_feasible(table)
        assert verdict.feasible
        assert verdict.residual <= 1e-9
        # witness reproduces the tables
        m = _assignment_matrix()
        np.testing.assert_allclose(m @ verdict.witness, _canonical_frequencies(table).reshape(16), atol=1e-9)

    def test_perfect_correlations_all_equal_assignment(self):
        verdict = kolmogorov_feasible(table_from_correlations(np.ones((2, 2))))
        assert verdict.feasible
        support = {
            verdict.assignments[k] for k in range(16) if verdict.witness[k] > 1e-9
        }
        assert support <= {(1, 1, 1, 1), (-1, -1, -1, -1)}

    def test_singlet_infeasible_with_certificate(self):
        table = singlet_exact_table(CHSH_ANGLES[:2], CHSH_ANGLES[2:])
        verdict = kolmogorov_feasible(table)
        assert not verdict.feasible
        assert verdict.violated_inequalities
        worst = max(abs(v) for _, v in verdict.violated_inequalities)
        assert worst == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
        # Farkas vector is a genuine certificate
        m = _assignment_matrix()
        assert float((verdict.farkas @ m).max()) <= 1e-7
        assert float(verdict.farkas @ _canonical_frequencies(table).reshape(16)) > 0.0

    def test_spec_grid_singlet_also_infeasible(self):
        table = singlet_exact_table(SPEC_GRID_ANGLES[:2], SPEC_GRID_ANGLES[2:])
        verdict = kolmogorov_feasible(table)
        assert not verdict.feasible

    def test_needs_frequencies(self):
        table = CorrelationTable((0, 1), (2, 3), np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="frequencies"):
            kolmogorov_feasible(table)

    @pytest.mark.parametrize("party", [1, 2], ids=["party-1", "party-2"])
    def test_signalling_rejected(self, party):
        # the leaking party's marginal moves by 0.4 with the remote setting, at both of its settings
        with pytest.raises(SignallingDataError) as raised:
            kolmogorov_feasible(signalling_table(party, (0.4, 0.4)))
        named = [problem.split(":")[0] for problem in str(raised.value).split("; ")]
        assert named == [f"party {party} marginal at setting {s}" for s in (0, 1)]

    @pytest.mark.parametrize("setting", [0, 1])
    @pytest.mark.parametrize("party", [1, 2], ids=["party-1", "party-2"])
    def test_signalling_tolerance_reads_the_party_counts(self, party, setting):
        """The tolerance is 5 sqrt(1/n0 + 1/n1) over the counts of the party's setting at each remote one."""
        counts = np.array([[400, 900], [100, 2500]])
        n0, n1 = (counts if party == 1 else counts.T)[setting]
        tol = 5.0 * math.sqrt(1.0 / n0 + 1.0 / n1)
        gaps = np.zeros(2)
        gaps[setting] = 0.999 * tol
        assert kolmogorov_feasible(signalling_table(party, gaps, counts)).feasible
        gaps[setting] = 1.001 * tol
        with pytest.raises(SignallingDataError) as raised:
            kolmogorov_feasible(signalling_table(party, gaps, counts))
        assert str(raised.value).startswith(f"party {party} marginal at setting {setting}: ")
        assert f"(tol {tol:.2g})" in str(raised.value) and ";" not in str(raised.value)

    def test_lhv_always_feasible(self):
        # at the quantum-optimal angles the sign-response model touches the
        # CHSH boundary exactly (|S| = 2), so finite-sample tables land
        # outside the polytope about half the time; exact feasibility of
        # noisy data is only asserted where the model sits strictly inside
        seeds = [RandomSeed(k) for k in range(5)]
        angle_sets = [CHSH_ANGLES, (0.1, 0.9, 0.4, 1.3), (0.0, np.pi / 3, np.pi / 6, np.pi / 2)]
        for angles in angle_sets:
            exact = lhv_exact_table(angles[:2], angles[2:])
            assert kolmogorov_feasible(exact).feasible
            s, _ = chsh(exact)
            assert abs(s) <= 2.0 + 1e-12
            margin = 2.0 - max(abs(v) for v in fine_chsh_values(exact).values())
            for seed in seeds:
                sampled = lhv_sampled_table(angles[:2], angles[2:], 40_000, seed)
                s, se = chsh(sampled)
                assert abs(s) <= 2.0 + 5.0 * se
                if margin > 0.05:
                    assert kolmogorov_feasible(sampled).feasible

    def test_fine_criterion_equivalence_1000_random_tables(self):
        """The verdict on each of 1000 random no-signalling tables is Fine's, and each feasible witness reproduces its table."""
        a = _assignment_matrix()
        n_infeasible = 0
        for table, verdict in random_no_signalling_tables():
            fine_ok = all(abs(v) <= 2.0 + 1e-9 for v in fine_chsh_values(table).values())
            assert verdict.feasible == fine_ok
            if verdict.feasible:
                assert (verdict.witness >= 0).all()
                assert np.allclose(a @ verdict.witness, _canonical_frequencies(table).reshape(16), atol=1e-9)
            n_infeasible += not verdict.feasible
        assert n_infeasible > 0  # the sample must exercise both verdicts

    def test_pr_box_maximally_infeasible(self):
        corr = np.array([[1.0, 1.0], [1.0, -1.0]])
        verdict = kolmogorov_feasible(table_from_correlations(corr))
        assert not verdict.feasible
        worst = max(abs(v) for _, v in verdict.violated_inequalities)
        assert worst == pytest.approx(4.0, abs=1e-12)


class TestTableBuilders:
    @pytest.mark.parametrize("angles", [CHSH_ANGLES, (0.3, 1.1, -0.4, 0.7), HUGE_ANGLES])
    def test_exact_tables_match_scalar_cells(self, angles):
        a_settings, b_settings = angles[:2], angles[2:]
        lhv = [[_lhv_exact_correlation(a, b) for b in b_settings] for a in a_settings]
        singlet = [[-math.cos(2.0 * (a - b)) for b in b_settings] for a in a_settings]
        assert np.array_equal(lhv_exact_table(a_settings, b_settings).frequencies, scalar_frequencies(lhv))
        singlet_table = singlet_exact_table(a_settings, b_settings)
        assert np.array_equal(singlet_table.frequencies, scalar_frequencies(singlet))

    # 99991 trials leave k / 99991 frequencies with full mantissas, so a cell
    # formula summed in another order or a rearranged standard error changes
    # some bits of at least one of these eight tables
    SAMPLED = [lhv_sampled_table((0.3, 1.1), (-0.4, 0.7), 99_991, RandomSeed(seed)) for seed in range(8)]

    @pytest.mark.parametrize("table", SAMPLED, ids=[f"seed-{k}" for k in range(8)])
    def test_canonical_frequencies_match_scalar_cells(self, table):
        freq = table.frequencies
        corr = [[p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0] for p in row] for row in freq]
        mean_a = [(freq[x, :, 0, :].sum() - freq[x, :, 1, :].sum()) / 2.0 for x in range(2)]
        mean_b = [(freq[:, y, :, 0].sum() - freq[:, y, :, 1].sum()) / 2.0 for y in range(2)]
        assert min(map(abs, mean_a + mean_b)) > 0.0
        assert np.array_equal(_canonical_frequencies(table), scalar_frequencies(corr, mean_a, mean_b))

    @pytest.mark.parametrize("table", SAMPLED, ids=[f"seed-{k}" for k in range(8)])
    def test_standard_errors_match_scalar_floor(self, table):
        """sqrt(max(1/n, 1 - E^2) / n) per cell; 0 where n = 0; 1/n where all n trials agree."""
        freq = table.frequencies.copy()
        freq[1, 0] = [[0.0, 0.0], [0.0, 1.0]]  # every trial agrees: E = 1
        counts = np.array([[99_991, 0], [7, 99_991]])
        table = CorrelationTable.from_frequencies(table.a_settings, table.b_settings, freq, counts)
        expected = np.zeros((2, 2))
        for x in range(2):
            for y in range(2):
                p, n = freq[x, y], counts[x, y]
                e = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
                if n > 0:
                    expected[x, y] = math.sqrt(max(1.0 / n, 1.0 - e**2) / n)
        assert expected[0, 1] == 0.0 and expected[1, 0] == pytest.approx(1.0 / 7)  # the 1/n floor, not 0
        assert np.array_equal(table.standard_errors, expected)


class TestLhvSampledTable:
    @pytest.mark.parametrize("n_per_pair", [2, 3, 100_000])
    @pytest.mark.parametrize("seed", [41, 9173])
    @pytest.mark.parametrize("angles", [CHSH_ANGLES, (0.1, 0.9, 0.4, 1.3), HUGE_ANGLES])
    def test_bit_identical_to_mask_means(self, angles, seed, n_per_pair):
        table = lhv_sampled_table(angles[:2], angles[2:], n_per_pair, RandomSeed(seed))
        reference = lhv_sampled_table_by_masks(angles[:2], angles[2:], n_per_pair, RandomSeed(seed))
        assert np.array_equal(table.frequencies, reference.frequencies)
        assert np.array_equal(table.correlations, reference.correlations)
        assert np.array_equal(table.standard_errors, reference.standard_errors)
        assert np.array_equal(table.counts, reference.counts)


class TestArcTest:
    """The flip model's law is an arc overlap; it must match the cosine sign rule.

    A party at setting s answers -1 when cos(2 (lam - s)) < 0, lam uniform
    on [0, pi).  The sampled table draws its counts from the closed-form
    correlation `_lhv_exact_correlation`, so that closed form, over the flip
    visibility (1 - 2 LHV_FLIP)^2, must equal the mean sign product of the
    rule, here on a midpoint grid of lam.
    """

    SETTINGS = [0.0, math.pi / 8, -math.pi / 8, math.pi / 4, -math.pi / 4, math.pi / 2, math.pi,
                1e5, -1e6, 1e9]
    OFFSETS = (0.0, 0.1, math.pi / 8, math.pi / 4, 1.0, math.pi / 2, 2.5, math.pi, -0.7, 7.0)

    @pytest.mark.parametrize("s", SETTINGS + list(np.random.default_rng(7).uniform(-10.0, 10.0, 20)))
    def test_matches_cosine_sign(self, s):
        m = 200_000
        lam = (np.arange(m) + 0.5) * (math.pi / m)
        sign_a = np.where(np.cos(2.0 * (lam - s)) < 0.0, -1.0, 1.0)
        # each of the at most four sign changes costs at most one grid cell;
        # for huge |s| the rule itself resolves lam - s only to ulps of s
        tol = 8.0 / m + 1e-15 * abs(s)
        for offset in self.OFFSETS:
            b = s + offset
            sign_b = np.where(np.cos(2.0 * (lam - b)) < 0.0, -1.0, 1.0)
            base = _lhv_exact_correlation(s, b) / (1.0 - 2.0 * LHV_FLIP) ** 2
            assert abs(float((sign_a * sign_b).mean()) - base) <= tol


class TestSimplexEdgeCases:
    def test_simple_feasible_system(self):
        a = np.array([[1.0, 1.0], [1.0, -1.0]])
        b = np.array([1.0, 0.2])
        feasible, x, residual, _ = _phase1_simplex(a, b)
        assert feasible
        np.testing.assert_allclose(a @ x, b, atol=1e-10)
        assert (x >= -1e-12).all()

    def test_simple_infeasible_system(self):
        # x1 + x2 = 1 and x1 + x2 = 2 cannot both hold
        a = np.array([[1.0, 1.0], [1.0, 1.0]])
        b = np.array([1.0, 2.0])
        feasible, _, residual, farkas = _phase1_simplex(a, b)
        assert not feasible
        assert residual > 0.1
        assert (farkas @ a <= 1e-9).all()
        assert farkas @ b > 0.0


class TestTableValidation:
    def test_rejects_out_of_range_correlation(self):
        with pytest.raises(ValueError):
            CorrelationTable((0, 1), (2, 3), np.full((2, 2), 1.5), np.zeros((2, 2)))

    def test_rejects_unnormalized_frequencies(self):
        freq = np.full((2, 2, 2, 2), 0.3)
        with pytest.raises(ValueError, match="sum to 1"):
            CorrelationTable.from_frequencies((0, 1), (2, 3), freq)

    def test_json_roundtrip(self, tmp_path):
        table = lhv_sampled_table((0.0, 0.8), (0.3, 1.1), 5_000, RandomSeed(3))
        path = tmp_path / "table.json"
        path.write_text(json.dumps(dataclasses.asdict(table), default=np.ndarray.tolist))
        back = table_from_json(path)
        np.testing.assert_allclose(back.correlations, table.correlations, atol=1e-15)
        np.testing.assert_allclose(back.frequencies, table.frequencies, atol=1e-15)
        np.testing.assert_array_equal(back.counts, table.counts)


class TestDetectionBridge:
    def test_table_from_click_trials(self):
        from prefield.detection import BipartiteEnsemble, run_trials
        from prefield.hilbert import FieldVector
        from prefield.random_field import BackgroundField

        singlet = FieldVector(np.array([0, 1, -1, 0]) / np.sqrt(2))
        ens = BipartiteEnsemble(singlet, BackgroundField(math.sqrt(0.5) - 0.5))
        a_settings, b_settings = CHSH_ANGLES[:2], CHSH_ANGLES[2:]
        batches = {}
        for x in range(2):
            for y in range(2):
                batches[(x, y)] = run_trials(
                    ens, a_settings[x], b_settings[y], 0.2, 30_000, RandomSeed(100 + 2 * x + y)
                )
        table = CorrelationTable.from_trial_batches(a_settings, b_settings, batches)
        s, se = chsh(table)
        assert abs(s) > 2.0 + 5.0 * se  # post-selected clicks break the bound
        verdict = kolmogorov_feasible(table)
        assert not verdict.feasible

    def test_analysis_imports_nothing_from_detection(self):
        """analysis owns the coincidence table that detection's E reads, so the import runs one way only."""
        modules = set()
        for node in ast.walk(ast.parse(Path(analysis.__file__).read_text())):
            if isinstance(node, ast.ImportFrom):
                modules |= {node.module or "", *(f"{node.module or ''}.{alias.name}" for alias in node.names)}
            elif isinstance(node, ast.Import):
                modules |= {alias.name for alias in node.names}
        assert not [m for m in modules if "detection" in m.split(".")], sorted(modules)
