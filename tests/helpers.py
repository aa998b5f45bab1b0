"""Shared test helpers."""

import functools
import threading

import numpy as np

from prefield.analysis import CorrelationTable, kolmogorov_feasible
from prefield.hilbert import HermitianOperator
from prefield.random_field import CHUNK, SAMPLE_BLOCK, for_each_chunk

# Chunk lengths that boundary cases are written against: CHUNK, and eight
# Philox blocks, a multiple of it, so each case meets a chunk edge both one
# chunk and several chunks into a run.
CHUNK_EDGES = sorted({CHUNK, 8 * SAMPLE_BLOCK})


def diagonal_operator(values) -> HermitianOperator:
    """The Hermitian operator with the given real diagonal."""
    return HermitianOperator(np.diag(np.asarray(values, dtype=np.float64)))


@functools.cache
def random_no_signalling_tables(n=1000, seed=107):
    """(table, simplex verdict) for n random no-signalling tables, solved once per test process.

    Each table has uniform means and correlations in [-1, 1], redrawn until
    every cell (1 + a m_a[x] + b m_b[y] + a b E[x, y]) / 4 is non-negative.
    """
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        means_a = rng.uniform(-1, 1, size=2)
        means_b = rng.uniform(-1, 1, size=2)
        corr = rng.uniform(-1, 1, size=(2, 2))
        freq = np.empty((2, 2, 2, 2))
        for x in range(2):
            for y in range(2):
                for i, av in enumerate((1, -1)):
                    for j, bv in enumerate((1, -1)):
                        freq[x, y, i, j] = (1 + av * means_a[x] + bv * means_b[y] + av * bv * corr[x, y]) / 4
        if (freq < 0).any():
            continue
        table = CorrelationTable.from_frequencies((0, 1), (2, 3), freq)
        out.append((table, kolmogorov_feasible(table)))
    return tuple(out)


def in_two_pieces(draw, cut, stop):
    """draw(n, start) of samples [0, stop), called on the pieces [0, cut) and [cut, stop) that are not empty."""
    return [draw(hi - lo, lo) for lo, hi in ((0, cut), (cut, stop)) if hi > lo]


def pairs_in_two_pieces(ens, seed, cut, stop):
    """Field pairs [0, stop) of a BipartiteEnsemble, drawn as the pieces [0, cut) and [cut, stop)."""
    pieces = in_two_pieces(lambda n, lo: ens.sample_pairs(n, seed, lo), cut, stop)
    return tuple(np.concatenate([piece[party] for piece in pieces]) for party in (0, 1))


def chunk_calls(stop, workers, n_threads):
    """Sorted (lo, hi, thread) of every call for_each_chunk makes.

    Each thread waits at its first chunk until n_threads threads have
    started, so no pool thread can finish its share and take over another.
    """
    calls, started = [], set()
    barrier = threading.Barrier(n_threads, timeout=10)

    def record(lo, hi):
        thread = threading.get_ident()
        if thread not in started:
            started.add(thread)
            barrier.wait()
        calls.append((lo, hi, thread))

    for_each_chunk(record, stop, workers)
    return sorted(calls)
