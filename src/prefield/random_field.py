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
reproduces bit-identical fields.  `for_each_chunk` is the one streaming
loop: every sampling consumer walks its index range in block-aligned
chunks, on the calling thread or on workers, and fills a preallocated array.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hilbert import DensityOperator, FieldVector, HermitianOperator, PSD_TOL

SAMPLE_BLOCK = 4096

# Rows per colouring product.  OpenBLAS hands a complex (m x dim) @ (dim x dim)
# product to its thread pool from m ~ 4096 rows up, and the pool's spinning
# threads then compete with the caller's other workers for the cores; at half
# a block the product stays on the calling thread.  A row's bits do not
# depend on m (m >= 2), so the slicing leaves every sample unchanged.
_COLOUR_ROWS = SAMPLE_BLOCK // 2

# Samples per chunk, aligned to Philox blocks.  Eight blocks keep the
# per-chunk interpreter work (one sampling call and the consumer's passes
# over it) small against the draws, at about 5 MB of working memory per worker.
CHUNK = 8 * SAMPLE_BLOCK

# Fewest Philox blocks worth a thread of their own (about 50 ms of draws and
# colouring).  A split costs a thread start, a join and hand-offs of the
# interpreter lock, each of which waits until the OS runs the other thread;
# on short ranges those waits are a large and erratic share of the call.
_WORKER_BLOCKS = 32

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
    colour = factor.T
    out = np.empty((n_samples, dim), dtype=np.complex128)
    lo, hi = start_index, start_index + n_samples
    for block in range(lo // SAMPLE_BLOCK, (hi - 1) // SAMPLE_BLOCK + 1):
        xi = _standard_circular(seed.stream(stream_label, block), SAMPLE_BLOCK, dim)
        block_lo = block * SAMPLE_BLOCK
        a = max(lo, block_lo) - block_lo
        b = min(hi, block_lo + SAMPLE_BLOCK) - block_lo
        if b - a == 1:
            # numpy colours a lone row with gemv, whose rounding differs from
            # the rows of a longer product: colour it inside a two-row product
            # so that its bits do not depend on where the request starts or ends
            pair = max(a - 1, 0)
            out[block_lo + a - lo] = (xi[pair : pair + 2] @ colour)[a - pair]
            continue
        # equal slices, so that none is a lone row
        pieces = -(-(b - a) // _COLOUR_ROWS)
        cuts = [a + (b - a) * k // pieces for k in range(pieces + 1)]
        for r0, r1 in zip(cuts, cuts[1:]):
            np.matmul(xi[r0:r1], colour, out=out[block_lo + r0 - lo : block_lo + r1 - lo])
    return out


def block_ranges(start: int, stop: int, workers: int) -> list[tuple[int, int]]:
    """At most `workers` contiguous (lo, hi) ranges covering [start, stop).

    Cuts fall on multiples of SAMPLE_BLOCK, so no two workers draw the same
    Philox block and every block is coloured in the same slices whatever
    the worker count.
    """
    first_block = start // SAMPLE_BLOCK
    blocks = -(-stop // SAMPLE_BLOCK) - first_block
    workers = max(1, min(workers, blocks))
    base, extra = divmod(blocks, workers)
    cuts, block = [start], first_block
    for w in range(workers):
        block += base + (1 if w < extra else 0)
        cuts.append(min(stop, block * SAMPLE_BLOCK))
    return list(zip(cuts, cuts[1:]))


def for_each_chunk(fn, start: int, stop: int, workers: int) -> None:
    """fn(lo, hi) on chunks of [start, stop) that end on multiples of CHUNK.

    The chunks tile the range; callers fill arrays they allocated up front.
    Contiguous block-aligned ranges of chunks run on threads (the draws and
    products inside release the interpreter lock).  Each thread gets at
    least _WORKER_BLOCKS blocks, so shorter runs use fewer threads, down to
    the calling one.
    """

    def walk(lo: int, hi: int) -> None:
        while lo < hi:
            end = min(hi, (lo // CHUNK + 1) * CHUNK)
            fn(lo, end)
            lo = end

    blocks = -(-stop // SAMPLE_BLOCK) - start // SAMPLE_BLOCK
    ranges = block_ranges(start, stop, min(workers, blocks // _WORKER_BLOCKS))
    if len(ranges) == 1:
        walk(*ranges[0])
        return
    with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
        for future in [pool.submit(walk, lo, hi) for lo, hi in ranges]:
            future.result()


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
