"""Shared test helpers."""

import threading

import numpy as np

from prefield.hilbert import HermitianOperator
from prefield.random_field import for_each_chunk


def diagonal_operator(values) -> HermitianOperator:
    """The Hermitian operator with the given real diagonal."""
    return HermitianOperator(np.diag(np.asarray(values, dtype=np.float64)))


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
