"""Shared test helpers."""

import numpy as np

from prefield.hilbert import HermitianOperator


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
