"""Shared test helpers."""

import numpy as np

from prefield.hilbert import HermitianOperator


def diagonal_operator(values) -> HermitianOperator:
    """The Hermitian operator with the given real diagonal."""
    return HermitianOperator(np.diag(np.asarray(values, dtype=np.float64)))
