"""Zero-mean complex Gaussian random-field ensembles.

An ensemble is fully specified by a positive semi-definite covariance
operator D = E[phi phi^+]; the mean is identically zero and the law is
circular (the pseudo-covariance E[phi phi^T] vanishes), the unique
rotation-invariant choice compatible with phase invariance of the
quadratic observables.  A pure state psi with background level eps yields
D = psi psi^+ / ||psi||^2 + eps I (`ensemble_from_pure_state`); any other
covariance, such as rho + eps I for a density matrix rho, is handed to
`GaussianFieldEnsemble` directly.

Sampling draws phi = S xi with S = V sqrt(Lambda) from the
eigendecomposition D = V Lambda V^+ (robust to the rank deficiency of
pure-state covariances, unlike Cholesky) and xi a standard circular
complex Gaussian.  `for_each_chunk` is the one streaming loop: it returns,
in chunk order, a consumer's result for each of one fixed list of chunks,
which worker threads may share out, and Monte Carlo sums of the channel
powers (`sample_powers`) are reduced per block, in block order.  `map_jobs`
runs independent calls on worker threads.

RNG contract (version RNG_CONTRACT = 2).  Every random bit is a function
of (master seed, stream label, block index):

* a label is an int or a tuple of ints (sub-keys, such as a setting pair);
  its Philox key is derived once per (seed, label) from
  SeedSequence(entropy=seed, spawn_key=label) and cached;
* block b of that label is Philox(key, counter=[0, 0, 0, b]): the block
  index sits in the counter's high word, so blocks never overlap;
* sample i of a run lives in block i // SAMPLE_BLOCK, which is drawn and
  coloured whole, so a sample's bits depend only on its index, not on the
  chunk that holds it, the thread that draws it or where the run stops;
* a block holds SAMPLE_BLOCK draws of r standard circular normals, r the
  rank of D (eigenvalues above PSD_TOL): one standard_normal draw of shape
  (SAMPLE_BLOCK, 2 r) whose column pairs, times sqrt(1/2), are the real
  and imaginary parts.  These normals are the contract's random bits.
  Colouring multiplies the draw, as drawn, by the (2 r x 2 dim) real form
  of sqrt(1/2) factor^T, so the scaling is folded in: one real product,
  done as two products of SAMPLE_BLOCK / 2 rows, whose float output is
  read as the (SAMPLE_BLOCK, dim) complex samples.  Rank 0 draws nothing.
"""

from __future__ import annotations

import functools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hilbert import FieldVector, HermitianOperator, PSD_TOL

SAMPLE_BLOCK = 4096

# Rows per colouring product: each block is coloured as two.  OpenBLAS hands a
# whole-block product with a 16 x 16 real form (dim 8 at full rank) to its
# thread pool, whose spinning threads then compete with the caller's other
# workers for the cores; at half a block it stays on the calling thread, as
# the singlet's 4 x 8 and 8 x 8 forms do at either size.  A row's bits do not
# depend on m >= 2, so the split changes no sample.
_COLOUR_ROWS = SAMPLE_BLOCK // 2

# Samples per chunk, aligned to Philox blocks.  Two blocks keep a worker's
# working set inside its share of an L2 that SMT siblings share: for four
# coordinates, a 512 KiB coloured chunk and one 128-256 KiB block of draws,
# or a CSV slice of about 0.5 MB.  The per-chunk interpreter work stays small
# against the draws, and the size moves no bit: blocks are coloured whole.
CHUNK = 2 * SAMPLE_BLOCK

# Fewest chunks worth a thread of their own (8 Philox blocks, 4-7 ms of draws
# and colouring at rank 2-4 on a 2-vCPU AVX-512 host): a split costs a thread
# start, a join and hand-offs of the interpreter lock, which on short runs are
# a large and erratic share.
_WORKER_CHUNKS = 4

# Version of the stream layout in the module docstring; manifest.json records it.
RNG_CONTRACT = 2

# Stream labels keep independent uses of one master seed decorrelated; a
# tuple label such as (STREAM_PAIRS, x, y) sub-keys one use.
STREAM_FIELD = 1
STREAM_PAIRS = 3
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

    def stream(self, label: int | tuple[int, ...], block: int) -> np.random.Generator:
        """Fresh generator for (label, block); identical on every worker."""
        spawn_key = tuple(map(int, label)) if isinstance(label, tuple) else (int(label),)
        key = _philox_key(int(self.master), spawn_key)
        return np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, int(block)]))


@functools.lru_cache(maxsize=1024)
def _philox_key(master: int, label: tuple[int, ...]) -> int:
    """128-bit Philox key of (master, label): derived once, then cached."""
    low, high = np.random.SeedSequence(entropy=master, spawn_key=label).generate_state(2, np.uint64)
    return int(low) | int(high) << 64


@dataclass(frozen=True)
class BackgroundField:
    """White-noise vacuum component with covariance epsilon * I."""

    epsilon: float = 0.0

    def __post_init__(self):
        eps = float(self.epsilon)
        if not np.isfinite(eps) or eps < 0.0:
            raise ValueError(f"epsilon must be a finite non-negative real, got {self.epsilon}")
        object.__setattr__(self, "epsilon", eps)


def sampling_factor(covariance: HermitianOperator) -> np.ndarray:
    """dim x r matrix S with S S^+ = D, r the number of eigenvalues above PSD_TOL.

    Eigenvalues below -PSD_TOL are a hard error; anything in
    [-PSD_TOL, PSD_TOL] is numerical noise around an exact zero and its
    eigenvector is dropped, which keeps rank-deficient laws (pure states)
    exactly on their support instead of leaking sqrt(round-off) into
    orthogonal directions, and draws no normals for it.
    """
    w, v = covariance.eig()
    if w[0] < -PSD_TOL:
        raise ValueError(f"covariance not PSD: min eigenvalue {w[0]:.3e}")
    keep = w > PSD_TOL
    return v[:, keep] * np.sqrt(w[keep])


def sample_with_factor(
    factor: np.ndarray,
    n_samples: int,
    seed: RandomSeed,
    start_index: int = 0,
    stream_label: int | tuple[int, ...] = STREAM_FIELD,
) -> np.ndarray:
    """Samples with absolute indices [start_index, start_index + n_samples).

    `factor` is dim x r.  Every block of SAMPLE_BLOCK draws that the range
    touches is drawn and coloured whole, as two _COLOUR_ROWS-row real
    products into a block-aligned buffer, and the requested rows are sliced
    out of it, so a sample's bits depend only on its absolute index, never
    on where a request starts or stops or how a run was partitioned.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if start_index < 0:
        raise ValueError("start_index must be >= 0")
    dim, rank = factor.shape
    if rank == 0:
        return np.zeros((n_samples, dim), dtype=np.complex128)
    # real form of g = sqrt(1/2) factor^T: rows 2 k and 2 k + 1 are g[k] and i g[k] read as (Re, Im)
    # pairs, i.e. [[Re, Im], [-Im, Re]] blocks, so draw pair (x, y) of column k adds (x + i y) g[k]
    g = np.sqrt(0.5) * factor.T
    real = np.ascontiguousarray(np.stack((g, 1j * g), 1)).view(np.float64).reshape(2 * rank, 2 * dim)
    blocks = range(start_index // SAMPLE_BLOCK, (start_index + n_samples - 1) // SAMPLE_BLOCK + 1)
    halves = (SAMPLE_BLOCK // _COLOUR_ROWS, _COLOUR_ROWS)
    out = np.empty((len(blocks), *halves, 2 * dim))
    for k, block in enumerate(blocks):
        np.matmul(seed.stream(stream_label, block).standard_normal((*halves, 2 * rank)), real, out=out[k])
    return out.reshape(-1, 2 * dim).view(np.complex128)[start_index % SAMPLE_BLOCK :][:n_samples]


def sample_powers(factor, n_samples, seed, start_index, stream_label) -> np.ndarray:
    """(n_samples, dim) powers |z_c|^2 of the samples z of `sample_with_factor`.

    With a basis U^+ folded into the factor, the columns are channel powers
    in that basis, which thresholds and quadratic forms read.  They are
    formed in place, so a call allocates one array: separate temporaries
    (several chunk-sized arrays, freed together) let malloc trim the heap
    after each chunk and fault the pages in again.
    """
    parts = sample_with_factor(factor, n_samples, seed, start_index, stream_label).view(np.float64)
    np.square(parts, out=parts)
    return np.add(parts[:, 0::2], parts[:, 1::2], out=parts[:, 0::2])


def map_jobs(fn, items, workers: int) -> list:
    """[fn(item) for item in items], on up to `workers` threads, in input order.

    One worker or one item runs every call on the calling thread, in order.
    If a call raises, calls not yet started are cancelled and the first
    failure in input order is raised once the running ones have ended.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        return [future.result() for future in [pool.submit(fn, item) for item in items]]
    finally:
        pool.shutdown(cancel_futures=True)


def for_each_chunk(fn, stop: int, workers: int) -> list:
    """[fn(lo, hi)] over the chunks [0, CHUNK), [CHUNK, 2 CHUNK), ..., [k CHUNK, stop), in chunk order.

    Every chunk starts on a Philox block, and Monte Carlo sums are reduced per
    block, in block order, so CHUNK moves none of their bits; `_click_codes`
    fills one code array instead.  A last chunk one row long joins the one
    before: numpy takes a one-row product (`powers @ weights`) by its dot
    path, whose rounding differs from a longer product's rows.
    Threads share the list out in contiguous parts of at least _WORKER_CHUNKS
    chunks (`map_jobs`; the draws and products inside release the interpreter
    lock), so every worker count makes the same calls; shorter runs stay on
    the calling thread, and `epr` runs its short estimates side by side.
    """
    cuts = [*range(0, stop - 1 or 1, CHUNK), stop]  # one row only at stop 1: _click_codes' exact integer packing
    chunks = list(zip(cuts, cuts[1:]))
    threads = max(1, min(workers, len(chunks) // _WORKER_CHUNKS))
    shares = [-(-len(chunks) * k // threads) for k in range(threads + 1)]
    parts = [chunks[a:b] for a, b in zip(shares, shares[1:])]
    return [r for part in map_jobs(lambda part: [fn(lo, hi) for lo, hi in part], parts, threads) for r in part]


class GaussianFieldEnsemble:
    """Zero-mean circular complex Gaussian law with covariance D."""

    __slots__ = ("_cov", "_factor")

    def __init__(self, covariance: HermitianOperator):
        self._cov = covariance
        self._factor = sampling_factor(covariance)

    @property
    def covariance(self) -> HermitianOperator:
        return self._cov

    @property
    def sampler_factor(self) -> np.ndarray:
        """dim x rank(D) matrix S with S S^+ = D that colours white noise into samples."""
        return self._factor

    @property
    def dim(self) -> int:
        return self._cov.dim

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
    return GaussianFieldEnsemble(HermitianOperator(cov))
