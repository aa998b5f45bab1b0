"""Classical random-field toolkit reproducing quantum statistics.

Quantum states enter only as covariance operators of zero-mean complex
Gaussian random fields.  The subpackages cover the full pipeline: linear
algebra on state vectors and Hermitian operators (`hilbert`), field
ensembles and their counter-based sampling streams (`random_field`),
quadratic-form observables with background renormalization
(`observables`), Hamiltonian field dynamics (`dynamics`), threshold
detectors turning continuous fields into clicks (`detection`), and
Bell/joint-distribution analysis of the click data (`analysis`).
"""

__version__ = "0.1.0"

from .hilbert import (
    FieldVector,
    HermitianOperator,
    kron_vector,
    trace_product,
)
from .random_field import (
    BackgroundField,
    GaussianFieldEnsemble,
    RandomSeed,
    ensemble_from_pure_state,
)

__all__ = [
    "BackgroundField",
    "FieldVector",
    "GaussianFieldEnsemble",
    "HermitianOperator",
    "RandomSeed",
    "ensemble_from_pure_state",
    "kron_vector",
    "trace_product",
    "__version__",
]
