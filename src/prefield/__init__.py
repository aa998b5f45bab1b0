"""Classical random-field toolkit reproducing quantum statistics.

Quantum states enter only as covariance operators of zero-mean complex
Gaussian random fields.  The subpackages cover the full pipeline: linear
algebra (`hilbert`), field ensembles (`random_field`), quadratic-form
observables with background renormalization (`observables`), Hamiltonian
field dynamics (`dynamics`), threshold detectors turning continuous fields
into clicks (`detection`), and Bell/joint-distribution analysis of the
click data (`analysis`).
"""

__version__ = "0.1.0"

from .hilbert import (
    DensityOperator,
    FieldVector,
    HermitianOperator,
    kron_vector,
    projector_from_state,
    tensor_product,
    trace_product,
)
from .random_field import (
    BackgroundField,
    GaussianFieldEnsemble,
    RandomSeed,
    empirical_covariance,
    ensemble_from_density,
    ensemble_from_pure_state,
)

__all__ = [
    "BackgroundField",
    "DensityOperator",
    "FieldVector",
    "GaussianFieldEnsemble",
    "HermitianOperator",
    "RandomSeed",
    "empirical_covariance",
    "ensemble_from_density",
    "ensemble_from_pure_state",
    "kron_vector",
    "projector_from_state",
    "tensor_product",
    "trace_product",
    "__version__",
]
