"""Zero-mean complex Gaussian random-field ensembles.

An ensemble is fully specified by a positive semi-definite covariance
operator D = E[phi phi^+]; the mean is identically zero and the law is
circular (the pseudo-covariance E[phi phi^T] vanishes), the unique
rotation-invariant choice compatible with phase invariance of the
quadratic observables.  A pure state psi with background level eps yields
D = psi psi^+ / ||psi||^2 + eps I; a density matrix rho yields rho + eps I.

Sampling draws phi = S xi with S = V sqrt(Lambda) from the
eigendecomposition D = V Lambda V^+ (robust to the rank deficiency of
pure-state covariances, unlike Cholesky) and xi a standard circular
complex Gaussian.  Streams are counter-based Philox generators keyed by
(master seed, stream label, block index): sample i of a run lives in block
i // SAMPLE_BLOCK, so any partition of the index range across workers
reproduces bit-identical fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator, FieldVector, HermitianOperator, PSD_TOL

SAMPLE_BLOCK = 4096

# Stream labels keep independent uses of one master seed decorrelated.
STREAM_FIELD = 1
STREAM_PAIRS = 3
STREAM_TRIALS = 4
STREAM_CALIBRATION = 5
STREAM_HIDDEN_VARIABLE = 6
STREAM_EXPERIMENT = 7


@dataclass(frozen=True)
class RandomSeed:
    """Master seed for counter-based, partition-invariant random streams."""

    master: int

    def __post_init__(self):
        if not isinstance(self.master, (int, np.integer)):
            raise ValueError("seed must be an integer")
        if not 0 <= int(self.master) < 2**64:
            raise ValueError("seed must fit in 64 bits")

    def stream(self, label: int, block: int) -> np.random.Generator:
        """Fresh generator for (label, block); identical on every worker."""
        seq = np.random.SeedSequence(entropy=int(self.master), spawn_key=(int(label), int(block)))
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class BackgroundField:
    """White-noise vacuum component with covariance epsilon * I."""

    epsilon: float = 0.0

    def __post_init__(self):
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps < 0.0:
            raise ValueError(f"epsilon must be a finite non-negative real, got {self.epsilon}")
        object.__setattr__(self, "epsilon", eps)


def _standard_circular(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """(n, dim) complex normals with E[xi xi^+] = I and E[xi xi^T] = 0."""
    re = rng.standard_normal((n, dim))
    im = rng.standard_normal((n, dim))
    return (re + 1j * im) * np.sqrt(0.5)


def sampling_factor(covariance: HermitianOperator) -> np.ndarray:
    """Matrix S with S S^+ = D via eigendecomposition, clipping tiny negatives.

    Eigenvalues below -PSD_TOL are a hard error; anything in
    [-PSD_TOL, PSD_TOL] is numerical noise around an exact zero and is
    zeroed, which keeps rank-deficient laws (pure states) exactly on their
    support instead of leaking sqrt(round-off) into orthogonal directions.
    """
    w, v = covariance.eig()
    if w[0] < -PSD_TOL:
        raise ValueError(f"covariance not PSD: min eigenvalue {w[0]:.3e}")
    w = np.where(w <= PSD_TOL, 0.0, w)
    return v * np.sqrt(w)


def sample_with_factor(
    factor: np.ndarray,
    n_samples: int,
    seed: RandomSeed,
    start_index: int = 0,
    stream_label: int = STREAM_FIELD,
) -> np.ndarray:
    """Samples with absolute indices [start_index, start_index + n_samples).

    Blocks of SAMPLE_BLOCK samples are generated whole from their own
    stream and sliced, so the result depends only on the absolute indices,
    never on how a Monte Carlo run was partitioned.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if start_index < 0:
        raise ValueError("start_index must be >= 0")
    dim = factor.shape[0]
    lo, hi = start_index, start_index + n_samples
    first_block, last_block = lo // SAMPLE_BLOCK, (hi - 1) // SAMPLE_BLOCK
    parts = []
    for block in range(first_block, last_block + 1):
        rng = seed.stream(stream_label, block)
        xi = _standard_circular(rng, SAMPLE_BLOCK, dim)
        block_lo = block * SAMPLE_BLOCK
        a = max(lo, block_lo) - block_lo
        b = min(hi, block_lo + SAMPLE_BLOCK) - block_lo
        parts.append(xi[a:b])
    xi = np.concatenate(parts, axis=0)
    return xi @ factor.T


class GaussianFieldEnsemble:
    """Zero-mean circular complex Gaussian law with covariance D.

    `background_epsilon` records the white-noise level the ensemble was
    built with (already included in D); `evolve_ensemble` carries it along
    so downstream renormalization knows what to subtract.
    """

    __slots__ = ("_cov", "_factor", "_epsilon")

    def __init__(self, covariance: HermitianOperator, background_epsilon: float = 0.0):
        self._cov = covariance
        self._factor = sampling_factor(covariance)
        self._epsilon = float(background_epsilon)

    @property
    def covariance(self) -> HermitianOperator:
        return self._cov

    @property
    def sampler_factor(self) -> np.ndarray:
        """Matrix S with S S^+ = D used to color white noise into samples."""
        return self._factor

    @property
    def background_epsilon(self) -> float:
        return self._epsilon

    @property
    def dim(self) -> int:
        return self._cov.dim

    def sample(self, n_samples: int, seed: RandomSeed, start_index: int = 0) -> np.ndarray:
        """(n_samples, dim) array of field samples, one per row."""
        return sample_with_factor(self._factor, n_samples, seed, start_index, STREAM_FIELD)

    def __repr__(self) -> str:
        return f"GaussianFieldEnsemble(dim={self.dim})"


def ensemble_from_pure_state(
    psi: FieldVector, background: BackgroundField = BackgroundField(0.0)
) -> GaussianFieldEnsemble:
    """Ensemble with covariance psi psi^+ / ||psi||^2 + eps I.

    With eps = 0 the law is concentrated on the complex line through psi;
    the background shifts every covariance additively and is removed later
    by renormalization.
    """
    unit = psi.normalized().components
    cov = np.outer(unit, unit.conj()) + background.epsilon * np.eye(psi.dim)
    return GaussianFieldEnsemble(HermitianOperator(cov), background.epsilon)


def ensemble_from_density(
    rho: DensityOperator, background: BackgroundField = BackgroundField(0.0)
) -> GaussianFieldEnsemble:
    """Ensemble with covariance rho + eps I."""
    cov = rho.matrix + background.epsilon * np.eye(rho.dim)
    return GaussianFieldEnsemble(HermitianOperator.symmetrized(cov), background.epsilon)


def empirical_covariance(samples: np.ndarray) -> HermitianOperator:
    """(1/N) sum phi phi^+ with the mean pinned at zero, not subtracted.

    Population normalization; the zero-mean law is part of the model, so
    subtracting the sample mean would only add noise.
    """
    x = np.asarray(samples, dtype=np.complex128)
    if x.ndim != 2:
        raise ValueError("samples must be a 2-D array, one sample per row")
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty sample batch")
    if n < 2:
        raise ValueError("need at least 2 samples")
    return HermitianOperator(x.T @ x.conj() / n)
