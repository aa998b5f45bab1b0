import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import CHUNK_EDGES, diagonal_operator, in_two_pieces, pairs_in_two_pieces
from prefield import detection, experiments, observables, random_field
from prefield.cli import main
from prefield.detection import (
    BackgroundTooSmallError,
    BipartiteEnsemble,
    ThresholdDetector,
    TrialBatch,
    click_statistics,
    correlation_from_clicks,
    pbs_projectors,
    quadratic_correlation_mc,
    quadratic_correlation_renormalized,
    run_trials,
)
from prefield.experiments import (
    BORN_CLICK_EPSILON,
    BORN_CLICK_THRESHOLD,
    BORN_SINGLE_FRACTION_TARGET,
)
from prefield.hilbert import FieldVector, HermitianOperator, kron_vector, state_average
from prefield.observables import QuadraticForm, quadratic_form_mc
from prefield.random_field import (
    CHUNK,
    SAMPLE_BLOCK,
    STREAM_PAIRS,
    BackgroundField,
    GaussianFieldEnsemble,
    RandomSeed,
    ensemble_from_pure_state,
    sample_with_factor,
)

SEED = RandomSeed(777)

SINGLET = FieldVector(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))
SINGLET_EPS_MIN = math.sqrt(0.5) - 0.5


def rand_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FieldVector(v / np.linalg.norm(v))


def rand_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((m + m.conj().T) / 2)


def marginal_covariances(ens):
    """E[phi1 phi1^+] and E[phi2 phi2^+], read from the factor of (phi1, conj(phi2))."""
    n, s = ens.dim, ens.sampler_factor
    k = s @ s.conj().T
    return k[:n, :n], k[n:, n:].T


def polarization(theta):
    plus, minus = pbs_projectors(theta)
    return HermitianOperator(plus.matrix - minus.matrix)


class TestPBSProjectors:
    def test_axis_aligned(self):
        plus, minus = pbs_projectors(0.0)
        np.testing.assert_allclose(plus.matrix, np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(minus.matrix, np.diag([0.0, 1.0]), atol=1e-15)

    def test_diagonal_angle(self):
        plus, minus = pbs_projectors(np.pi / 4)
        np.testing.assert_allclose(plus.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)
        np.testing.assert_allclose(minus.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)

    def test_quarter_turn_swaps(self):
        plus, minus = pbs_projectors(np.pi / 2)
        np.testing.assert_allclose(plus.matrix, np.diag([0.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(minus.matrix, np.diag([1.0, 0.0]), atol=1e-15)

    def test_completeness_any_angle(self):
        for theta in np.linspace(0, np.pi, 7):
            plus, minus = pbs_projectors(theta)
            np.testing.assert_allclose(plus.matrix + minus.matrix, np.eye(2), atol=1e-14)
            assert np.abs(plus.matrix @ minus.matrix).max() <= 1e-14


def codes_of(*tables):
    """Click codes of boolean (n, 2) click tables, party 1 first."""
    bits = np.concatenate(tables, axis=1).astype(np.uint8)
    return bits @ (1 << np.arange(bits.shape[1], dtype=np.uint8))


class TestThresholdDetector:
    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            ThresholdDetector(-0.1)

    def test_channel_powers_sum_to_total(self):
        rng = np.random.default_rng(0)
        det = ThresholdDetector(0.1, 0.7)
        x = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        powers = det.channel_powers(x)
        np.testing.assert_allclose(powers.sum(axis=1), (np.abs(x) ** 2).sum(axis=1), atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.7, -2.1])
    def test_channel_powers_are_projector_expectations(self, theta):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        expected = [[np.vdot(row, p.matrix @ row).real for p in pbs_projectors(theta)] for row in x]
        np.testing.assert_allclose(ThresholdDetector(0.1, theta).channel_powers(x), expected, atol=1e-12)
        np.testing.assert_array_equal(ThresholdDetector(0.1, theta).clicks(x), np.array(expected) > 0.1)


class TestBipartiteConstruction:
    def test_non_square_dimension_rejected(self):
        with pytest.raises(ValueError, match="square"):
            BipartiteEnsemble(FieldVector(np.ones(6) / np.sqrt(6)), BackgroundField(1.0))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            BipartiteEnsemble(FieldVector([1.0, 0.0, 0.0, 1.0]), BackgroundField(1.0))

    def test_singlet_epsilon_floor(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        assert ens.epsilon_min == pytest.approx(SINGLET_EPS_MIN, abs=1e-12)

    def test_sub_floor_epsilon_rejected_with_value(self):
        with pytest.raises(BackgroundTooSmallError) as err:
            BipartiteEnsemble(SINGLET, BackgroundField(0.1))
        assert err.value.epsilon_min == pytest.approx(SINGLET_EPS_MIN, abs=1e-12)

    def test_product_state_needs_no_background(self):
        rng = np.random.default_rng(1)
        psi = FieldVector(kron_vector(rand_unit(rng, 2), rand_unit(rng, 2)).components)
        ens = BipartiteEnsemble(psi, BackgroundField(0.0))
        assert ens.epsilon_min == pytest.approx(0.0, abs=1e-12)
        assert np.linalg.matrix_rank(ens.cross_block, tol=1e-10) == 1

    def test_singlet_marginals_maximally_mixed(self):
        eps = 0.25
        ens = BipartiteEnsemble(SINGLET, BackgroundField(eps))
        expected = np.eye(2) / 2 + eps * np.eye(2)
        for marginal in marginal_covariances(ens):
            np.testing.assert_allclose(marginal, expected, atol=1e-12)

    def test_marginals_match_partial_trace(self):
        rng = np.random.default_rng(2)
        psi = rand_unit(rng, 9)
        ens = BipartiteEnsemble(psi, BackgroundField(1.0))
        m = np.outer(psi.components, psi.components.conj()).reshape(3, 3, 3, 3)
        reduced = np.einsum("ikjk->ij", m), np.einsum("kikj->ij", m)
        for rho, marginal in zip(reduced, marginal_covariances(ens)):
            np.testing.assert_allclose(marginal, rho + np.eye(3), atol=1e-12)

    def test_sampled_marginals_match(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.25))
        phi1, phi2 = ens.sample_pairs(60_000, SEED)
        for phi, marginal in zip((phi1, phi2), marginal_covariances(ens)):
            emp = phi.T @ phi.conj() / 60_000
            assert np.abs(emp - marginal).max() <= 5.0 * 0.75 / np.sqrt(60_000)

    def test_pair_sampling_partition_invariant(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.25))
        full = ens.sample_pairs(5_000, SEED)
        parts = [ens.sample_pairs(2_500, SEED, start_index=k * 2_500) for k in range(2)]
        np.testing.assert_array_equal(full[0], np.concatenate([p[0] for p in parts]))
        np.testing.assert_array_equal(full[1], np.concatenate([p[1] for p in parts]))


class TestQuadraticCorrelation:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(3)
        psi1, psi2 = rand_unit(rng, 2), rand_unit(rng, 2)
        psi = FieldVector(kron_vector(psi1, psi2).components)
        ens = BipartiteEnsemble(psi, BackgroundField(0.0))
        a, b = rand_hermitian(rng, 2), rand_hermitian(rng, 2)
        corr = quadratic_correlation_renormalized(ens, a, b)
        product = state_average(a, psi1) * state_average(b, psi2)
        assert corr == pytest.approx(product, abs=1e-12)

    def test_singlet_anticorrelated(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        sz = diagonal_operator([1.0, -1.0])
        assert quadratic_correlation_renormalized(ens, sz, sz) == pytest.approx(-1.0, abs=1e-12)

    def test_singlet_cosine_curve(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.5))
        for t1, t2 in [(0.0, 0.0), (0.1, 0.7), (np.pi / 8, 3 * np.pi / 8), (1.0, 2.2)]:
            corr = quadratic_correlation_renormalized(ens, polarization(t1), polarization(t2))
            assert corr == pytest.approx(-np.cos(2 * (t1 - t2)), abs=1e-12)

    def test_renormalized_equals_tensor_oracle_100_random(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 4))
            psi = rand_unit(rng, n * n)
            eps_floor = BipartiteEnsemble(psi, BackgroundField(1.0)).epsilon_min
            eps = eps_floor + float(rng.uniform(0.0, 0.5))
            ens = BipartiteEnsemble(psi, BackgroundField(eps))
            a, b = rand_hermitian(rng, n), rand_hermitian(rng, n)
            oracle = state_average(HermitianOperator(np.kron(a.matrix, b.matrix)), psi)
            assert quadratic_correlation_renormalized(ens, a, b) == pytest.approx(
                oracle, abs=1e-10
            )

    def test_renormalized_mc_matches_exact(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        sz = diagonal_operator([1.0, -1.0])
        est = quadratic_correlation_mc(ens, sz, sz, 50_000, SEED)
        assert abs(est.mean - (-1.0)) <= 5.0 * est.standard_error

    def test_independent_fields_have_zero_covariance_term(self):
        # C = 0: a product of independent marginals; build via a product
        # state, whose cross block has rank 1, then null the coupling by
        # comparing against two independent single-party ensembles
        rng = np.random.default_rng(6)
        psi1, psi2 = rand_unit(rng, 2), rand_unit(rng, 2)
        a, b = rand_hermitian(rng, 2), rand_hermitian(rng, 2)
        e1 = ensemble_from_pure_state(psi1, BackgroundField(0.1))
        e2 = ensemble_from_pure_state(psi2, BackgroundField(0.1))
        fa = QuadraticForm(a).evaluate_batch(sample_with_factor(e1.sampler_factor, 40_000, RandomSeed(61)))
        fb = QuadraticForm(b).evaluate_batch(sample_with_factor(e2.sampler_factor, 40_000, RandomSeed(62)))
        cov = float(np.mean(fa * fb) - fa.mean() * fb.mean())
        se = float((fa * fb).std(ddof=1) / np.sqrt(40_000))
        assert abs(cov) <= 5.0 * se

    def test_dimension_mismatch(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        with pytest.raises(ValueError):
            quadratic_correlation_renormalized(ens, rand_hermitian(np.random.default_rng(7), 3), polarization(0.0))


def reference_correlation(ens, a, b, seed, cut, stop):
    """Covariance of f_A(phi1) and f_B(phi2) and its SE from materialised field pairs."""
    phi1, phi2 = pairs_in_two_pieces(ens, seed, cut, stop)
    fa, fb = QuadraticForm(a).evaluate_batch(phi1), QuadraticForm(b).evaluate_batch(phi2)
    prod = (fa - fa.mean()) * (fb - fb.mean())
    return prod.sum() / (stop - 1), prod.std(ddof=1) / np.sqrt(stop)


def record_forms(monkeypatch, module) -> list:
    """Every `powers @ weights` product of the channel powers that `module` draws, in call order."""
    values = []

    class Recorded(np.ndarray):
        """Channel powers whose products with the form weights are kept in `values`."""

        def __matmul__(self, weights):
            values.append(np.asarray(np.ndarray.__matmul__(self, weights)))
            return values[-1]

    sample_powers = module.sample_powers
    monkeypatch.setattr(module, "sample_powers", lambda *args: sample_powers(*args).view(Recorded))
    return values


def born_values(values, ens, form, n_samples, seed):
    """The f_A values that `quadratic_form_mc` reduces, recorded by `record_forms` on observables."""
    values.clear()
    quadratic_form_mc(ens, form, n_samples, seed, np.array([n_samples]), 1)
    return np.concatenate(values)


# (cut, stop): the kernels run [0, stop), which ends one row into a block,
# the longest across a chunk edge; the references draw their samples in two
# pieces cut at a block edge, one row before it and one row after it
KERNEL_RANGES = [(0, 3 * SAMPLE_BLOCK + 1), (4095, 2 * SAMPLE_BLOCK + 1), (4097, 9 * SAMPLE_BLOCK + 1)]


class TestPowerKernel:
    """The channel-power kernel against the field samples it replaces."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cut,stop", KERNEL_RANGES)
    def test_correlation_matches_materialised_pairs(self, dim, cut, stop):
        # non-real A and B: party 2's transpose W^T differs from W^+
        rng = np.random.default_rng(10 * dim + cut % 7)
        psi = rand_unit(rng, dim * dim)
        eps = BipartiteEnsemble(psi, BackgroundField(1.0)).epsilon_min + 0.1
        ens = BipartiteEnsemble(psi, BackgroundField(eps))
        a, b = rand_hermitian(rng, dim), rand_hermitian(rng, dim)
        assert np.abs(b.matrix.imag).max() > 0.1
        est = quadratic_correlation_mc(ens, a, b, stop, SEED)
        mean, se = reference_correlation(ens, a, b, SEED, cut, stop)
        assert abs(est.mean - mean) <= 1e-12 * max(1.0, abs(mean))
        assert abs(est.standard_error - se) <= 1e-12 * max(1.0, se)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("cut,stop", KERNEL_RANGES)
    def test_born_values_match_evaluate_batch(self, dim, cut, stop, monkeypatch):
        rng = np.random.default_rng(20 * dim + cut % 7)
        ens = ensemble_from_pure_state(rand_unit(rng, dim), BackgroundField(0.05))
        form = QuadraticForm(rand_hermitian(rng, dim))
        values = born_values(record_forms(monkeypatch, observables), ens, form, stop, SEED)
        pieces = in_two_pieces(lambda n, lo: sample_with_factor(ens.sampler_factor, n, SEED, lo), cut, stop)
        reference = form.evaluate_batch(np.concatenate(pieces))
        assert (np.abs(values - reference) <= 1e-12 * np.maximum(1.0, np.abs(reference))).all()

    @pytest.mark.parametrize("n", [k * c + 1 for c in CHUNK_EDGES for k in (1, 2)])
    def test_born_values_do_not_depend_on_where_the_run_stops(self, n, monkeypatch):
        """A run of n samples ends one row into a chunk: its last value equals that of a longer run."""
        values = record_forms(monkeypatch, observables)
        for k in range(50):
            rng = np.random.default_rng(k)
            ens = ensemble_from_pure_state(rand_unit(rng, 2), BackgroundField(0.05))
            form = QuadraticForm(rand_hermitian(rng, 2))
            seed = RandomSeed(k)
            longer = born_values(values, ens, form, n + 1, seed)
            np.testing.assert_array_equal(born_values(values, ens, form, n, seed), longer[:n])

    @pytest.mark.parametrize("n", [k * c + 1 for c in CHUNK_EDGES for k in (1, 2)])
    def test_correlation_forms_do_not_depend_on_where_the_run_stops(self, n, monkeypatch):
        """Both parties' form values of a run ending one row into a chunk equal those of a longer run."""
        values = record_forms(monkeypatch, detection)

        def forms(ens, a, b, n_samples, seed):
            values.clear()
            quadratic_correlation_mc(ens, a, b, n_samples, seed)
            both = np.concatenate(values)  # one product per chunk: party 1's column, then party 2's
            return both[:, 0], both[:, 1]

        for k in range(50):
            rng = np.random.default_rng(k)
            psi = rand_unit(rng, 4)
            ens = BipartiteEnsemble(psi, BackgroundField(BipartiteEnsemble(psi, BackgroundField(1.0)).epsilon_min))
            a, b = rand_hermitian(rng, 2), rand_hermitian(rng, 2)
            seed = RandomSeed(k)
            longer = forms(ens, a, b, n + 1, seed)
            for party, short in enumerate(forms(ens, a, b, n, seed)):
                np.testing.assert_array_equal(short, longer[party][:n])

    @pytest.mark.usefixtures("split_every_chunk")
    def test_worker_threads_fill_disjoint_slices(self):
        # more threads than cores and a short switch interval: a chunk reduced
        # twice, lost or collected out of order would change the bits
        rng = np.random.default_rng(31)
        single = ensemble_from_pure_state(rand_unit(rng, 3), BackgroundField(0.05))
        form = QuadraticForm(rand_hermitian(rng, 3))
        n = 6 * CHUNK + 1  # six chunks, the last CHUNK + 1 rows long
        stops = np.arange(1, n + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [quadratic_form_mc(single, form, n, SEED, stops, w) for w in (1, 5)]
        finally:
            sys.setswitchinterval(interval)
        assert runs[0][0] == runs[1][0]
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_epr_field_monte_carlo_worker_invariance(self, tmp_path, monkeypatch):
        """At two workers the field Monte Carlo estimates run side by side, bits unchanged.

        Each call covers _WORKER_CHUNKS chunks, too few for a split of its
        own, so only running whole estimates concurrently lets the first two meet.
        """
        samples = random_field._WORKER_CHUNKS * CHUNK
        assert -(-samples // CHUNK) < 2 * random_field._WORKER_CHUNKS
        args = ["epr", "--seed", "5", "--trials", "2000", "--samples", str(samples), "--angles", "0.0,0.4"]
        assert main(args + ["--workers", "1", "--out", str(tmp_path / "1")]) == 0
        barrier = threading.Barrier(2, timeout=10)
        calls = itertools.count()

        def meeting(*args, **kwargs):
            if next(calls) < 2:
                barrier.wait()
            return quadratic_correlation_mc(*args, **kwargs)

        monkeypatch.setattr(experiments, "quadratic_correlation_mc", meeting)
        assert main(args + ["--workers", "2", "--out", str(tmp_path / "2")]) == 0
        assert not barrier.broken and next(calls) == 2
        outputs = [{p.name: p.read_bytes() for p in sorted((tmp_path / w).iterdir())} for w in ("1", "2")]
        assert outputs[0] == outputs[1]

    def test_correlation_streams_its_samples(self):
        """Memory is one chunk of four-channel samples, whatever the sample count: no array of form values."""
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        n = 1_000_000
        quadratic_correlation_mc(ens, polarization(0.0), polarization(0.4), 2, SEED)  # lazy imports stay out of the peak
        tracemalloc.start()
        try:
            est = quadratic_correlation_mc(ens, polarization(0.0), polarization(0.4), n, SEED)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert est.n_samples == n
        assert peak < CHUNK * 4 * 16 + 2**20


class TestTrials:
    def test_zero_threshold_everything_clicks(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        batch = run_trials(ens, 0.0, 0.3, 0.0, 5_000, SEED)
        stats = click_statistics(batch)
        assert stats.party_counts[0][3] >= 0.999 * 5_000
        assert stats.party_counts[1][3] >= 0.999 * 5_000

    def test_huge_threshold_no_clicks(self):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        batch = run_trials(ens, 0.0, 0.3, 1e6, 2_000, SEED)
        stats = click_statistics(batch)
        np.testing.assert_array_equal(stats.party_counts, [(2_000, 0, 0, 0), (2_000, 0, 0, 0)])
        assert int(stats.raw[stats.mask].sum()) == 0

    def test_double_click_rate_matches_closed_form(self):
        # the singlet's reduced state is maximally mixed, so each party's
        # channel power is an independent exponential with mean 1/2 + eps and
        # a channel fires with probability q = exp(-d / (1/2 + eps)): both
        # channels with q^2, each channel alone with q (1 - q), either alone
        # with 2 q (1 - q).  Every threshold draws its fields from a stream
        # label of its own.  A kernel whose threshold is scaled by 1.05 reaches
        # a pull of about 13.
        eps, n = SINGLET_EPS_MIN, 100_000
        ens = BipartiteEnsemble(SINGLET, BackgroundField(eps))
        for k, d in enumerate(np.geomspace(0.01, 2.0, 12)):
            d = float(d)
            batch = run_trials(ens, 0.0, 0.3, d, n, SEED, stream=(STREAM_PAIRS, k))
            q = math.exp(-d / (0.5 + eps))
            for _, plus, minus, both in click_statistics(batch).party_counts:
                pairs = [(both / n, q * q), ((plus + minus) / n, 2.0 * q * (1.0 - q))]
                pairs += [(plus / n, q * (1.0 - q)), (minus / n, q * (1.0 - q))]
                for observed, exact in pairs:
                    se = max(math.sqrt(exact * (1.0 - exact) / n), 1.0 / n)
                    assert abs(observed - exact) <= 5.0 * se, (d, observed, exact)

    def test_acceptance_fraction_monotone_past_peak(self):
        # the accepted-coincidence fraction vanishes at both threshold
        # extremes (all doubles / no clicks) and peaks near d ~ 0.5 for the
        # singlet at its minimal background; monotone decrease holds on the
        # tail, which is where the operating points live
        ens = BipartiteEnsemble(SINGLET, BackgroundField(SINGLET_EPS_MIN))
        n = 100_000
        phi1, phi2 = ens.sample_pairs(n, SEED)
        det0 = ThresholdDetector(0.0)
        p1, p2 = det0.channel_powers(phi1), det0.channel_powers(phi2)
        previous = None
        for d in np.geomspace(0.5, 4.0, 10):
            accepted = ((p1 > d).sum(axis=1) == 1) & ((p2 > d).sum(axis=1) == 1)
            frac = float(accepted.mean())
            se = math.sqrt(max(frac * (1 - frac), 1e-12) / n)
            if previous is not None:
                assert frac <= previous + 5.0 * se * math.sqrt(2.0)
            previous = frac

    def test_perfect_anticorrelation_at_aligned_settings(self):
        # at the minimal background the paired fields are exact conjugates
        # with swapped channels, so aligned settings anti-correlate exactly
        ens = BipartiteEnsemble(SINGLET, BackgroundField(SINGLET_EPS_MIN))
        batch = run_trials(ens, 0.4, 0.4, 0.2, 20_000, SEED)
        e, _ = correlation_from_clicks(batch)
        assert e == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("threshold", [-0.1, math.nan, math.inf])
    def test_rejects_invalid_threshold(self, threshold):
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.3))
        with pytest.raises(ValueError, match="threshold"):
            run_trials(ens, 0.0, 0.3, threshold, 100, SEED)

    @pytest.mark.usefixtures("split_every_chunk")
    def test_trial_partition_invariance(self):
        """Codes depend on the trial index and the stream label: a split across workers
        leaves them unchanged, and another label draws other fields."""
        ens = BipartiteEnsemble(SINGLET, BackgroundField(0.25))
        n = 2 * CHUNK + 1
        full = run_trials(ens, 0.0, 0.5, 0.1, n, SEED)
        split = run_trials(ens, 0.0, 0.5, 0.1, n, SEED, workers=2)
        np.testing.assert_array_equal(full.codes, split.codes)
        labels = [run_trials(ens, 0.0, 0.5, 0.1, n, SEED, stream=(STREAM_PAIRS, k)).codes for k in range(2)]
        assert (labels[0] != labels[1]).mean() > 0.1


class TestClickStatistics:
    def test_all_none_flagged_degenerate(self):
        batch = TrialBatch(0.0, 0.1, codes_of(np.zeros((10, 2), bool), np.zeros((10, 2), bool)))
        stats = click_statistics(batch)
        assert int(stats.raw[stats.mask].sum()) == 0
        np.testing.assert_array_equal(stats.party_counts, [(10, 0, 0, 0), (10, 0, 0, 0)])
        np.testing.assert_array_equal(batch.coincidences(), np.zeros((2, 2)))

    def test_synthetic_counts(self):
        clicks1 = np.array([[1, 0], [1, 0], [0, 1], [1, 1]], bool)
        clicks2 = np.array([[0, 1], [1, 0], [0, 1], [0, 0]], bool)
        batch = TrialBatch(0.0, 0.2, codes_of(clicks1, clicks2))
        stats = click_statistics(batch)
        assert int(stats.raw[stats.mask].sum()) == 3
        np.testing.assert_array_equal(stats.party_counts, [(0, 2, 1, 1), (1, 1, 2, 0)])
        np.testing.assert_array_equal(stats.party_frequencies[0], [0.0, 0.5, 0.25, 0.25])
        np.testing.assert_array_equal(batch.raw, [[0, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
        # rows: party 1 outcome +, -; columns: party 2 outcome +, -
        np.testing.assert_array_equal(batch.coincidences(), [[1, 1], [0, 1]])
        keep_all = TrialBatch(0.0, 0.2, batch.codes, policy="keep-all")
        np.testing.assert_array_equal(keep_all.coincidences(), [[1, 2], [0, 1]])

    def test_correlation_from_synthetic_batches(self):
        plus = np.tile([True, False], (8, 1))
        all_pp = TrialBatch(0.0, 0.0, codes_of(plus, plus))
        assert correlation_from_clicks(all_pp)[0] == pytest.approx(1.0)
        balanced = TrialBatch(
            0.0, 0.0, codes_of(plus, np.array([[True, False], [False, True]] * 4, bool))
        )
        assert correlation_from_clicks(balanced)[0] == pytest.approx(0.0)

    def test_no_accepted_coincidences_raises(self):
        batch = TrialBatch(0.0, 0.0, codes_of(np.ones((5, 2), bool), np.ones((5, 2), bool)))
        with pytest.raises(ValueError, match="accepted"):
            correlation_from_clicks(batch)

    def test_keep_all_policy_accepts_everything(self):
        batch = TrialBatch(
            0.0, 0.0, codes_of(np.ones((5, 2), bool), np.ones((5, 2), bool)), policy="keep-all"
        )
        assert batch.accepted.all()


def single_party_counts(psi, eps, threshold, n, seed):
    """Party 1's (none, + only, - only, both) counts on the product state psi x e_0.

    Party 1's field then has covariance psi psi^+ + eps I, the single-party ensemble of psi.
    """
    ens = BipartiteEnsemble(kron_vector(psi, FieldVector([1.0, 0.0])), BackgroundField(eps))
    return run_trials(ens, 0.0, 0.0, threshold, n, seed).raw.sum(axis=1)


class TestSingleParty:
    def test_born_frequencies_at_calibration_point(self):
        # quick statistical check at the frozen operating point; the full
        # million-trial version lives in the acceptance suite
        for alpha in (np.pi / 6, np.pi / 3):
            psi = FieldVector([np.cos(alpha), np.sin(alpha)])
            _, plus, minus, _ = single_party_counts(psi, BORN_CLICK_EPSILON, BORN_CLICK_THRESHOLD, 400_000, SEED)
            f_plus = plus / (plus + minus)
            born = np.cos(alpha) ** 2
            assert abs(f_plus - born) / born <= 0.03
            assert abs((1 - f_plus) - (1 - born)) / (1 - born) <= 0.03


class TestCalibration:
    def test_threshold_hits_target_fraction(self):
        # the Born threshold is the closed-form root of 2 q (1 - q) = target
        # with q = exp(-d / (1/2 + eps)), the single-click fraction on the
        # maximally mixed ensemble; simulated singles at that threshold hit
        # the target, and the two channels fire alone equally often
        eps, d, target = BORN_CLICK_EPSILON, BORN_CLICK_THRESHOLD, BORN_SINGLE_FRACTION_TARGET
        q = math.exp(-d / (0.5 + eps))
        assert abs(2.0 * q * (1.0 - q) - target) <= 1e-12
        n = 100_000
        # eps = 0.06 lies below the singlet's floor, so the maximally mixed
        # field is sampled directly and put behind the detector
        ens = GaussianFieldEnsemble(HermitianOperator((0.5 + eps) * np.eye(2)))
        clicks = ThresholdDetector(d).clicks(sample_with_factor(ens.sampler_factor, n, SEED))
        single = [float((clicks[:, c] & ~clicks[:, 1 - c]).mean()) for c in range(2)]
        assert abs(sum(single) - target) <= 0.01
        se = math.sqrt(q * (1.0 - q) / n)
        for rate in single:
            assert abs(rate - q * (1.0 - q)) <= 5.0 * se, (rate, q * (1.0 - q))
        assert abs(single[0] - single[1]) <= 5.0 * math.sqrt(2.0) * se


@pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 3])
def test_click_probability_quadrature_oracle(alpha):
    """Cross-check simulated singles probabilities against quadrature.

    Conditioned on the shared complex amplitude, each channel power is an
    independent scaled noncentral chi-square, so the singles probabilities
    reduce to one-dimensional integrals; the simulation must agree.
    """
    scipy_stats = pytest.importorskip("scipy.stats")
    eps, d = 0.06, 0.0202
    nodes, weights = np.polynomial.laguerre.laggauss(160)
    t = 2 * d / eps
    wp, wm = np.cos(alpha) ** 2, np.sin(alpha) ** 2
    sf_p = scipy_stats.ncx2.sf(t, 2, 2 * wp * nodes / eps)
    sf_m = scipy_stats.ncx2.sf(t, 2, 2 * wm * nodes / eps)
    cdf_p = scipy_stats.ncx2.cdf(t, 2, 2 * wp * nodes / eps)
    cdf_m = scipy_stats.ncx2.cdf(t, 2, 2 * wm * nodes / eps)
    p_plus = float(np.sum(weights * sf_p * cdf_m))
    p_minus = float(np.sum(weights * cdf_p * sf_m))

    psi = FieldVector([np.cos(alpha), np.sin(alpha)])
    n = 400_000
    _, plus, minus, _ = single_party_counts(psi, eps, d, n, SEED)
    singles = plus / n, minus / n
    for observed, expected in zip(singles, (p_plus, p_minus)):
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(observed - expected) <= 5.0 * se
