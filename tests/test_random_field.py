import math
import sys
import threading
import time

import numpy as np
import pytest

from helpers import chunk_calls, diagonal_operator
from prefield import random_field
from prefield.analysis import lhv_sampled_table
from prefield.detection import BipartiteEnsemble
from prefield.hilbert import FieldVector, HermitianOperator
from prefield.random_field import (
    CHUNK,
    SAMPLE_BLOCK,
    STREAM_FIELD,
    STREAM_PAIRS,
    BackgroundField,
    GaussianFieldEnsemble,
    RandomSeed,
    ensemble_from_pure_state,
    for_each_chunk,
    map_jobs,
    sample_with_factor,
)

SEED = RandomSeed(20250809)


def rand_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FieldVector(v / np.linalg.norm(v))


def rand_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = m @ m.conj().T
    return HermitianOperator.symmetrized(h / np.trace(h).real).matrix


def mixed_ensemble(rho, eps=0.0):
    """Ensemble with covariance rho + eps I for a density matrix rho."""
    return GaussianFieldEnsemble(HermitianOperator.symmetrized(rho + eps * np.eye(len(rho))))


def colouring_factor(kind):
    """The singlet pair's factor at eps* (4 x 2) or a complex full-rank dim-3 factor."""
    if kind == "singlet-pair":
        singlet = FieldVector(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))
        return BipartiteEnsemble(singlet, BackgroundField(math.sqrt(0.5) - 0.5)).sampler_factor
    return mixed_ensemble(rand_density(np.random.default_rng(5), 3), 0.1).sampler_factor


def block_normals(seed, block, rank):
    """A Philox block's (SAMPLE_BLOCK, 2 rank) standard normals, as drawn."""
    return seed.stream(STREAM_FIELD, block).standard_normal((SAMPLE_BLOCK, 2 * rank))


def real_form(factor):
    """(2 r, 2 dim) real matrix of sqrt(1/2) factor^T, built block by block."""
    dim, rank = factor.shape
    real = np.zeros((2 * rank, 2 * dim))
    for k in range(rank):
        for c in range(dim):
            g = np.sqrt(0.5) * factor[c, k]
            real[2 * k : 2 * k + 2, 2 * c : 2 * c + 2] = [[g.real, g.imag], [-g.imag, g.real]]
    return real


def sample(ens, n, seed=SEED, start=0):
    """Field samples [start, start + n) of an ensemble."""
    return sample_with_factor(ens.sampler_factor, n, seed, start, STREAM_FIELD)


class TestEnsembleConstruction:
    def test_pure_state_no_background(self):
        ens = ensemble_from_pure_state(FieldVector([1, 0]))
        np.testing.assert_allclose(ens.covariance.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_pure_state_with_background(self):
        ens = ensemble_from_pure_state(FieldVector([1, 0]), BackgroundField(0.1))
        np.testing.assert_allclose(ens.covariance.matrix, [[1.1, 0], [0, 0.1]], atol=1e-15)

    def test_pure_state_diagonal(self):
        ens = ensemble_from_pure_state(FieldVector(np.array([1, 1]) / np.sqrt(2)))
        np.testing.assert_allclose(ens.covariance.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_unnormalized_input_normalized(self):
        ens = ensemble_from_pure_state(FieldVector([2, 0]))
        np.testing.assert_allclose(ens.covariance.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            BackgroundField(-0.1)

    def test_hard_negative_covariance_rejected(self):
        with pytest.raises(ValueError, match="PSD"):
            GaussianFieldEnsemble(diagonal_operator([1.0, -0.5]))


class TestSampling:
    def test_zero_covariance_gives_zero_fields(self):
        ens = GaussianFieldEnsemble(HermitianOperator(np.zeros((2, 2))))
        x = sample(ens, 100)
        assert np.all(x == 0)

    def test_scalar_unit_variance(self):
        ens = GaussianFieldEnsemble(HermitianOperator(np.eye(1)))
        x = sample(ens, 1_000_000)
        mean_power = float(np.mean(np.abs(x) ** 2))
        assert abs(mean_power - 1.0) <= 0.005  # 5 / sqrt(N)

    def test_rank_one_support_exact_zero_component(self):
        ens = ensemble_from_pure_state(FieldVector([1, 0]))
        x = sample(ens, 1000)
        assert np.all(x[:, 1] == 0)

    def test_rank_one_support_general_state(self):
        rng = np.random.default_rng(1)
        psi = rand_unit(rng, 4)
        ens = ensemble_from_pure_state(psi)
        x = sample(ens, 500)
        overlap = x @ psi.components.conj()
        residual = x - overlap[:, None] * psi.components[None, :]
        assert np.abs(residual).max() <= 1e-12

    def test_mean_is_zero(self):
        ens = mixed_ensemble(np.eye(3) / 3)
        x = sample(ens, 200_000)
        assert np.abs(x.mean(axis=0)).max() <= 5.0 / np.sqrt(200_000)

    def test_circularity(self):
        rng = np.random.default_rng(2)
        ens = ensemble_from_pure_state(rand_unit(rng, 3), BackgroundField(0.2))
        n = 100_000
        x = sample(ens, n)
        pseudo = x.T @ x / n  # E[phi phi^T] vanishes for a circular law
        assert np.abs(pseudo).max() <= 5.0 / np.sqrt(n)

    def test_covariance_consistency_dims_2_to_8(self):
        rng = np.random.default_rng(3)
        n = 40_000
        for dim in range(2, 9):
            for _ in range(3):
                rho = rand_density(rng, dim)
                ens = mixed_ensemble(rho, 0.05)
                x = sample(ens, n)
                emp = x.T @ x.conj() / n
                d = ens.covariance.matrix
                bound = 5.0 * float(np.abs(d).max()) / np.sqrt(n)
                assert np.abs(emp - d).max() <= bound


class TestDeterminism:
    def test_partition_invariance(self):
        ens = mixed_ensemble(np.eye(3) / 3, 0.1)
        full = sample(ens, 10_000)
        pieces = [sample(ens, 2_500, start=k * 2_500) for k in range(4)]
        np.testing.assert_array_equal(full, np.concatenate(pieces, axis=0))

    def test_same_indices_same_fields(self):
        ens = mixed_ensemble(np.eye(2) / 2)
        a = sample(ens, 6_000)
        b = sample(ens, 2_000, start=4_000)
        np.testing.assert_array_equal(a[4_000:], b)

    @pytest.mark.parametrize(
        "start, n",
        [
            (0, 1),
            (2047, 2),
            (2047, 2049),
            (SAMPLE_BLOCK - 1, 2),
            (SAMPLE_BLOCK - 5, 6),
            (4000, 10000),
            (123, 3 * SAMPLE_BLOCK + 7),
            *[(SAMPLE_BLOCK + j, 1) for j in (0, 1, 2047, 4095)],
            (SAMPLE_BLOCK + 1, SAMPLE_BLOCK),
        ],
    )
    @pytest.mark.parametrize("kind", ["singlet-pair", "dim3"])
    def test_sliced_colouring_matches_one_product(self, kind, start, n):
        """Block-by-block colouring equals one real-form product over the whole blocks, lone rows included."""
        factor = colouring_factor(kind)
        first, last = start // SAMPLE_BLOCK, (start + n - 1) // SAMPLE_BLOCK
        offset = start - first * SAMPLE_BLOCK
        for seed in (SEED, *map(RandomSeed, range(1, 6))):
            normals = np.concatenate([block_normals(seed, b, factor.shape[1]) for b in range(first, last + 1)])
            expected = (normals @ real_form(factor)).view(np.complex128)[offset : offset + n]
            np.testing.assert_array_equal(sample_with_factor(factor, n, seed, start), expected)

    @pytest.mark.parametrize("kind", ["singlet-pair", "dim3"])
    def test_real_form_matches_the_complex_product(self, kind):
        """The real-form product colours like xi @ factor^T on the circular normals xi."""
        factor = colouring_factor(kind)
        for seed in (SEED, *map(RandomSeed, range(1, 6))):
            normals = np.concatenate([block_normals(seed, b, factor.shape[1]) for b in (0, 1)])
            expected = (np.sqrt(0.5) * normals).view(np.complex128) @ factor.T
            error = np.abs(sample_with_factor(factor, 2 * SAMPLE_BLOCK, seed) - expected).max()
            assert error <= 1e-15 * np.abs(expected).max()

    def test_short_ranges_stay_on_the_calling_thread(self):
        """A range splits only when every thread gets _WORKER_CHUNKS chunks."""
        per_worker = random_field._WORKER_CHUNKS * CHUNK

        def where(stop, workers, n_threads):
            """(lo, hi, thread) of the part of [0, stop) each thread walked."""
            spans = {}
            for lo, hi, thread in chunk_calls(stop, workers, n_threads):
                spans.setdefault(thread, [lo, hi])[1] = hi
            return sorted((lo, hi, thread) for thread, (lo, hi) in spans.items())

        # seven chunks, the last CHUNK + 1 rows long, then eight
        short = where(2 * per_worker - CHUNK + 1, 2, 1)
        assert short == [(0, 2 * per_worker - CHUNK + 1, threading.get_ident())]
        split = where(2 * per_worker - CHUNK + 2, 4, 2)
        assert [(lo, hi) for lo, hi, _ in split] == [(0, per_worker), (per_worker, 2 * per_worker - CHUNK + 2)]
        assert threading.get_ident() not in {thread for _, _, thread in split}

    @pytest.mark.usefixtures("split_every_chunk")
    def test_more_workers_than_cores_fill_every_index_once(self):
        stop = 6 * CHUNK + 5 * SAMPLE_BLOCK + 3
        hits = np.zeros(stop, dtype=np.int64)

        def fill(lo, hi):
            hits[lo:hi] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            began = time.perf_counter()
            for_each_chunk(fill, stop, 8)
            assert time.perf_counter() - began < 10.0
        finally:
            sys.setswitchinterval(interval)
        assert (hits == 1).all()

    def test_jobs_return_in_input_order(self):
        """Later jobs finish first on the threads; one worker or one job stays on the caller, in order."""
        ran = []

        def job(k):
            time.sleep(0.002 * (5 - k))
            ran.append(k)
            return k, threading.get_ident()

        results = map_jobs(job, list(range(6)), 3)
        assert [k for k, _ in results] == list(range(6))
        assert threading.get_ident() not in {thread for _, thread in results}
        ran.clear()
        assert map_jobs(job, list(range(6)), 1) == [(k, threading.get_ident()) for k in range(6)]
        assert ran == list(range(6))
        assert map_jobs(job, [4], 3) == [(4, threading.get_ident())]

    def test_failing_job_cancels_the_pending_ones(self):
        """The first failure in input order is raised; unstarted jobs never run; no thread outlives the call."""
        started = []

        def job(k):
            started.append(k)
            if k == 1:
                time.sleep(0.05)
                raise ValueError("job 1")
            if k == 3:
                raise ValueError("job 3")
            time.sleep(0.005)

        threads = threading.active_count()
        with pytest.raises(ValueError, match="job 1"):
            map_jobs(job, list(range(200)), 2)
        assert len(started) < 100
        assert threading.active_count() == threads

    def test_different_seeds_differ(self):
        ens = mixed_ensemble(np.eye(2) / 2)
        assert not np.array_equal(sample(ens, 10, RandomSeed(1)), sample(ens, 10, RandomSeed(2)))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RandomSeed(-1)
        with pytest.raises(ValueError):
            RandomSeed(2**64)


SINGLET = FieldVector(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0))


class TestContract:
    """RNG contract 2 (module docstring).  A changed bit here is a contract change."""

    @pytest.mark.parametrize("label", [STREAM_FIELD, (STREAM_PAIRS, 1, 0)])
    def test_stream_is_philox_keyed_by_seed_and_label(self, label):
        spawn_key = label if isinstance(label, tuple) else (label,)
        key = np.random.SeedSequence(entropy=SEED.master, spawn_key=spawn_key).generate_state(2, np.uint64)
        reference = np.random.Philox(key=key, counter=[0, 0, 0, 9])
        assert np.array_equal(SEED.stream(label, 9).bit_generator.random_raw(8), reference.random_raw(8))

    def test_labels_and_blocks_are_distinct_streams(self):
        def raw(label, block):
            return SEED.stream(label, block).bit_generator.random_raw(4).tobytes()

        labels = [STREAM_PAIRS, (STREAM_PAIRS, 0, 1), (STREAM_PAIRS, 1, 0), (STREAM_PAIRS, 0, 1, 0)]
        assert len({raw(label, block) for label in labels for block in (0, 1)}) == 8
        assert raw(STREAM_PAIRS, 3) == raw((STREAM_PAIRS,), 3)

    def test_factor_keeps_only_the_rank(self):
        eps_min = math.sqrt(0.5) - 0.5
        assert BipartiteEnsemble(SINGLET, BackgroundField(eps_min)).sampler_factor.shape == (4, 2)
        assert BipartiteEnsemble(SINGLET, BackgroundField(eps_min + 0.03)).sampler_factor.shape == (4, 4)
        assert ensemble_from_pure_state(FieldVector([0.6, 0.8])).sampler_factor.shape == (2, 1)
        assert GaussianFieldEnsemble(HermitianOperator(np.zeros((2, 2)))).sampler_factor.shape == (2, 0)

    def test_pinned_samples(self):
        # factors with one power-of-two entry per row colour exactly, so the
        # pins hold whatever BLAS does the product
        full = sample_with_factor(np.diag([1.0, 0.5, 2.0]), 2, SEED, 5 * SAMPLE_BLOCK + 7)
        assert full.view(np.float64).tolist() == [
            [-0.6834391262912873, -0.18716979569567604, 0.4158333580432938,
             -0.4088546837219304, 1.255218119823972, 0.5852473391805117],
            [-0.785787244452378, -0.7545663098307216, -0.3988806232552021,
             -0.3383725019899111, 0.20734537302872882, 1.6683321782397587],
        ]
        pair_factor = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.5], [2.0, 0.0]])
        pair = sample_with_factor(pair_factor, 2, SEED, 3 * SAMPLE_BLOCK + 11, STREAM_PAIRS)
        assert pair.view(np.float64).tolist() == [
            [0.7962944746283271, -0.5747724972578788, 0.10851502529932085, 0.7641578487012438,
             0.054257512649660423, 0.3820789243506219, 1.5925889492566543, -1.1495449945157576],
            [0.7793006253601086, 0.17099951002970237, 0.12822811020657496, 0.2871157067886039,
             0.06411405510328748, 0.14355785339430194, 1.5586012507202172, 0.34199902005940475],
        ]

    def test_pinned_lhv_counts(self):
        table = lhv_sampled_table((0.0, math.pi / 4), (math.pi / 8, -math.pi / 8), 1000, SEED)
        counts = np.rint(table.frequencies * 1000).astype(int).reshape(4, 4)
        assert counts.tolist() == [
            [356, 155, 135, 354], [354, 168, 158, 320], [360, 139, 152, 349], [167, 352, 344, 137]
        ]


class TestFunctionals:
    def test_dispersion_background_shift(self):
        rng = np.random.default_rng(4)
        for dim in (2, 5):
            rho = rand_density(rng, dim)
            ens = mixed_ensemble(rho, 0.3)
            assert ens.covariance.trace() == pytest.approx(1.0 + dim * 0.3, abs=1e-12)
