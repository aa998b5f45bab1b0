"""Threshold detection: entangled field pairs, beam-splitter channels, clicks.

Field pair construction
-----------------------
A bipartite state Psi on C^n x C^n is reshaped into the n x n matrix
Psihat with Psihat[j, k] = Psi[j*n + k].  The joint field (phi1, phi2) is
the zero-mean Gaussian fixed by

    E[phi1 phi1^+] = Psihat Psihat^+ + eps I   (reduced state of party 1)
    E[phi2 phi2^+] = (Psihat^+ Psihat)^T + eps I
    E[phi1 phi2^T] = Psihat                    (cross coupling)
    E[phi1 phi1^T] = E[phi2 phi2^T] = E[phi1 phi2^+] = 0

i.e. each party's field is circular on its own, and the parties couple
through the conjugate channel.  Equivalently: (phi1, conj(phi2)) is a
jointly circular Gaussian whose ordinary block covariance is

    K = [[Psihat Psihat^+ + eps I,  Psihat         ],
         [Psihat^+,                 Psihat^+ Psihat + eps I]].

With this convention the classical covariance of two quadratic forms
reproduces the composite-state average identically, for every eps:

    cov(f_A(phi1), f_B(phi2)) = Tr(A Psihat B^T Psihat^+) = <Psi| A x B |Psi>.

Coupling the ordinary cross block E[phi1 phi2^+] instead can only match
observables with B^T = B; the conjugate-channel convention is the one that
survives the tensor-product oracle for arbitrary Hermitian A, B.

K is positive semi-definite iff eps >= eps* = max_i (s_i - s_i^2) over the
singular values s_i of Psihat.  Product states have a single singular
value 1, so eps* = 0; entangled states force a genuinely positive
background level (eps* = sqrt(1/2) - 1/2 ~ 0.207 for the singlet).

Clicks
------
A threshold detector is a polarization splitter at angle theta followed by
a power threshold d: channel c fires when |<phi, e_c>|^2 exceeds d, where
e_+ = (cos theta, sin theta) and e_- is orthogonal to it.  One trial is
one time window; both channels may fire (a double click) or neither.  The
default post-selection policy keeps trials where each party produced
exactly one click, mirroring the time-window discard of coincidence
experiments; raw counts are always retained so the selection is auditable.

A trial is stored as one byte, the click code of its four channels, and a
batch of trials as its codes plus their 16-bin histogram.  Every rate,
coincidence count and correlation is a function of the histogram, so
batches from different workers combine by concatenating their codes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import FieldVector, HermitianOperator
from .observables import MCEstimate
from .random_field import (
    CHUNK,
    STREAM_PAIRS,
    STREAM_TRIALS,
    BackgroundField,
    RandomSeed,
    for_each_chunk,
    sample_powers,
    sample_with_factor,
    sampling_factor,
)
from .serialize import write_csv_indexed

STATE_NORM_TOL = 1e-10

CLASS_NONE = 0
CLASS_SINGLE = 1
CLASS_DOUBLE = 2
_CLASS_NAMES = {CLASS_NONE: "none", CLASS_SINGLE: "single", CLASS_DOUBLE: "double"}

POLICY_KEEP_SINGLES = "keep-singles"
POLICY_KEEP_ALL = "keep-all"
POLICIES = (POLICY_KEEP_SINGLES, POLICY_KEEP_ALL)


class BackgroundTooSmallError(ValueError):
    """Raised when eps is below the PSD floor of a bipartite construction."""

    def __init__(self, epsilon: float, epsilon_min: float):
        self.epsilon = epsilon
        self.epsilon_min = epsilon_min
        super().__init__(
            f"background level {epsilon:.6g} is below the minimum {epsilon_min:.6g} "
            "required for a positive semi-definite joint covariance"
        )


def _splitter_basis(theta: float) -> np.ndarray:
    """Real 2x2 matrix whose columns are the + and - channel directions at theta.

    Column 0 is e(theta) = (cos theta, sin theta), column 1 the orthogonal
    direction (-sin theta, cos theta).
    """
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def pbs_projectors(theta: float) -> tuple[HermitianOperator, HermitianOperator]:
    """Two-channel polarization splitter at angle theta.

    P+ projects onto e(theta) = (cos theta, sin theta), P- onto the
    orthogonal direction (-sin theta, cos theta); they sum to the identity.
    """
    basis = _splitter_basis(theta)
    plus, minus = basis[:, 0], basis[:, 1]
    return HermitianOperator(np.outer(plus, plus)), HermitianOperator(np.outer(minus, minus))


@dataclass(frozen=True)
class ThresholdDetector:
    """Polarization splitter at angle theta followed by a power threshold."""

    threshold: float
    theta: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.threshold) or self.threshold < 0.0:
            raise ValueError(f"threshold must be a finite non-negative real, got {self.threshold}")

    def channel_powers(self, samples: np.ndarray) -> np.ndarray:
        """(N, 2) array of the + and - channel powers |<phi, e_c>|^2."""
        amplitudes = np.asarray(samples, dtype=np.complex128) @ _splitter_basis(self.theta)
        return amplitudes.real**2 + amplitudes.imag**2

    def clicks(self, samples: np.ndarray) -> np.ndarray:
        """Boolean (N, 2) click table: channel power above threshold."""
        return self.channel_powers(samples) > self.threshold


class BipartiteEnsemble:
    """Joint Gaussian field pair encoding a bipartite state (see module docs)."""

    __slots__ = ("_psihat", "_epsilon", "_epsilon_min", "_factor")

    def __init__(self, psi: FieldVector, background: BackgroundField):
        n = math.isqrt(psi.dim)
        if n * n != psi.dim:
            raise ValueError(
                f"bipartite state dimension must be a perfect square, got {psi.dim}"
            )
        if abs(psi.norm() - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state must be unit-normalized, got norm {psi.norm():.12g}")
        psihat = psi.components.reshape(n, n)
        svals = np.linalg.svd(psihat, compute_uv=False)
        eps_min = float(max(0.0, np.max(svals - svals**2)))
        eps = background.epsilon
        if eps < eps_min - 1e-12:
            raise BackgroundTooSmallError(eps, eps_min)
        eye = np.eye(n)
        block = np.block(
            [
                [psihat @ psihat.conj().T + eps * eye, psihat],
                [psihat.conj().T, psihat.conj().T @ psihat + eps * eye],
            ]
        )
        self._psihat = psihat
        self._epsilon = eps
        self._epsilon_min = eps_min
        self._factor = sampling_factor(HermitianOperator.symmetrized(block))

    @property
    def dim(self) -> int:
        """Per-party dimension n."""
        return self._psihat.shape[0]

    @property
    def epsilon_min(self) -> float:
        """Smallest background level keeping the joint covariance PSD."""
        return self._epsilon_min

    @property
    def sampler_factor(self) -> np.ndarray:
        """2n x rank(K) matrix S with S S^+ = K that colours white noise into (phi1, conj(phi2))."""
        return self._factor

    @property
    def cross_block(self) -> np.ndarray:
        """Pseudo cross-covariance E[phi1 phi2^T] = Psihat."""
        return self._psihat

    def sample_pairs(
        self, n_samples: int, seed: RandomSeed, start_index: int = 0, stream=STREAM_PAIRS
    ) -> tuple[np.ndarray, np.ndarray]:
        """Paired samples (phi1, phi2), each (n_samples, n)."""
        z = sample_with_factor(self._factor, n_samples, seed, start_index, stream)
        n = self.dim
        return z[:, :n], z[:, n:].conj()

    def __repr__(self) -> str:
        return (
            f"BipartiteEnsemble(dim={self.dim}x{self.dim}, eps={self._epsilon:.6g}, "
            f"eps_min={self._epsilon_min:.6g})"
        )


def quadratic_correlation_renormalized(
    ensemble: BipartiteEnsemble, a: HermitianOperator, b: HermitianOperator
) -> float:
    """Classical covariance cov(f_A(phi1), f_B(phi2)) = <Psi| A x B |Psi>.

    Subtracting the product of the (background-laden) channel means removes
    every eps contribution at once; what is left is exactly the composite
    quantum average, independent of eps.
    """
    if a.dim != ensemble.dim or b.dim != ensemble.dim:
        raise ValueError("observable dimension must match the per-party dimension")
    q = ensemble.cross_block
    val = complex(np.trace(a.matrix @ q @ b.matrix.T @ q.conj().T))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ArithmeticError(f"correlation has imaginary residue {val.imag:.3e}")
    return val.real


def quadratic_correlation_mc(
    ensemble: BipartiteEnsemble,
    a: HermitianOperator,
    b: HermitianOperator,
    n_samples: int,
    seed: RandomSeed,
    start_index: int = 0,
    stream=STREAM_PAIRS,
) -> MCEstimate:
    """Monte Carlo counterpart of `quadratic_correlation_renormalized`.

    With A = V diag(a) V^+ and B = W diag(b) W^+, f_A(phi1) is
    sum_k a_k |(V^+ phi1)_k|^2 and, party 2 being sampled as z2 = conj(phi2),
    f_B(phi2) is sum_k b_k |(W^T z2)_k|^2.  Both bases are folded into the
    sampling factor, so each chunk's channel powers (`sample_powers`) give
    the two forms; memory is one chunk plus two floats per sample.  It runs
    on the calling thread: `epr` runs its estimates side by side instead.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    n, s = ensemble.dim, ensemble.sampler_factor
    (wa, va), (wb, vb) = a.eig(), b.eig()
    factor = np.vstack((va.conj().T @ s[:n], vb.T @ s[n:]))
    fa, fb = np.empty(n_samples), np.empty(n_samples)

    def fill(lo: int, hi: int) -> None:
        powers = sample_powers(factor, hi - lo, seed, lo, stream)
        fa[lo - start_index : hi - start_index] = powers[:, :n] @ wa
        fb[lo - start_index : hi - start_index] = powers[:, n:] @ wb

    for_each_chunk(fill, start_index, start_index + n_samples, 1)
    # deviation products, in place; bias-corrected covariance and its SE
    fa -= fa.mean()
    fb -= fb.mean()
    fa *= fb
    mean = float(fa.sum() / (n_samples - 1))
    se = float(fa.std(ddof=1) / np.sqrt(n_samples))
    return MCEstimate(mean, se, n_samples)


class NoCoincidencesError(ValueError):
    """No trial passed the post-selection, so no correlation can be estimated."""


# One uint8 click code per trial: bit 0 party 1 "+", bit 1 party 1 "-",
# bit 2 party 2 "+", bit 3 party 2 "-".  Single-party codes use bits 0-1.
_N_CODES = 16
_CODE_CLICKS = ((np.arange(_N_CODES)[:, None] >> np.arange(4)) & 1).astype(bool)
_CODE_CLASSES = _CODE_CLICKS.reshape(_N_CODES, 2, 2).sum(axis=2)  # clicks per party
_SINGLE_SINGLE = (_CODE_CLASSES == CLASS_SINGLE).all(axis=1)
# outcome of a party: "+" (index 0) when its + channel fired, "-" (index 1) otherwise
_OUTCOME_CELL = np.where(_CODE_CLICKS[:, 0], 0, 2) + np.where(_CODE_CLICKS[:, 2], 0, 1)
_OUTCOME_PRODUCT = np.where(_CODE_CLICKS[:, 0] == _CODE_CLICKS[:, 2], 1.0, -1.0)
_CODE_BITS = np.array([1, 2, 4, 8], dtype=np.uint8)


def _pack_codes(clicks: np.ndarray) -> np.ndarray:
    """Code of each row of an (n, k <= 4) boolean click table: column c sets bit c."""
    # np.packbits along rows of four would do the same, but it holds the
    # interpreter lock for the whole call (about 0.8 ms per chunk), so the
    # other worker threads stall; this uint8 product runs without the lock
    return clicks.view(np.uint8) @ _CODE_BITS[: clicks.shape[1]]


def _click_codes(factor, threshold, n_trials, seed, start_index, stream, workers=1) -> np.ndarray:
    """Click codes of trials [start_index, start_index + n_trials), chunk by chunk.

    `factor` has the splitter bases folded in, so its channel powers
    (`sample_powers`) are thresholded and packed straight into the codes.
    """
    codes = np.empty(n_trials, dtype=np.uint8)

    def fill(lo: int, hi: int) -> None:
        powers = sample_powers(factor, hi - lo, seed, lo, stream)
        codes[lo - start_index : hi - start_index] = _pack_codes(powers > threshold)

    for_each_chunk(fill, start_index, start_index + n_trials, workers)
    return codes


def _outcome_counts(histogram: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """2x2 counts of accepted trials by (party 1, party 2) outcome, "+" first."""
    cells = np.zeros(4, dtype=np.int64)
    np.add.at(cells, _OUTCOME_CELL[accepted], histogram[accepted])
    return cells.reshape(2, 2)


class TrialBatch:
    """Detection trials for one setting pair, one click code per trial.

    A single-party batch has theta2 None and codes below 4.  The 16-bin
    code histogram is computed once and every statistic of the batch reads
    it; the per-trial click tables, classifications and acceptance flags
    are derived from the codes.
    """

    __slots__ = ("theta1", "theta2", "codes", "histogram", "policy")

    def __init__(self, theta1, theta2, codes, policy=POLICY_KEEP_SINGLES):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.theta1 = float(theta1)
        self.theta2 = None if theta2 is None else float(theta2)
        self.policy = policy
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        limit = _N_CODES if self.bipartite else 4
        if codes.size and int(codes.max()) >= limit:
            raise ValueError(f"click codes must lie below {limit}")
        self.codes = codes
        # bincount widens its input to intp (8 bytes per trial), so count by chunks
        self.histogram = np.zeros(_N_CODES, dtype=np.int64)
        for lo in range(0, codes.size, CHUNK):
            self.histogram += np.bincount(codes[lo : lo + CHUNK], minlength=_N_CODES)

    @property
    def n_trials(self) -> int:
        return self.codes.size

    @property
    def bipartite(self) -> bool:
        return self.theta2 is not None

    @property
    def clicks1(self) -> np.ndarray:
        """(n_trials, 2) click table of party 1: channels + and -."""
        return _CODE_CLICKS[self.codes, :2]

    @property
    def clicks2(self) -> np.ndarray | None:
        return _CODE_CLICKS[self.codes, 2:] if self.bipartite else None

    @property
    def accepted_codes(self) -> np.ndarray:
        """(16,) mask of the click codes the post-selection policy keeps."""
        if self.policy == POLICY_KEEP_ALL:
            return np.ones(_N_CODES, dtype=bool)
        return _SINGLE_SINGLE.copy() if self.bipartite else _CODE_CLASSES[:, 0] == CLASS_SINGLE

    @property
    def accepted(self) -> np.ndarray:
        return self.accepted_codes[self.codes]

    def coincidences(self) -> np.ndarray:
        """2x2 accepted-trial counts by (party 1, party 2) outcome, "+" first."""
        if not self.bipartite:
            raise ValueError("batch has no second party")
        return _outcome_counts(self.histogram, self.accepted_codes)

    def to_csv(self, path) -> None:
        """One row per trial: settings, click flags, classifications, accepted.

        A batch has at most 16 distinct rows, one per click code; each is
        formatted once and the file is written by indexing them with the codes.
        """
        accepted = self.accepted_codes
        names = [[_CLASS_NAMES[int(k)] for k in classes] for classes in _CODE_CLASSES]
        if self.bipartite:
            header = ["theta1", "theta2", "click1_plus", "click1_minus", "click2_plus"]
            header += ["click2_minus", "class1", "class2", "accepted"]
            rows = [
                [self.theta1, self.theta2, *_CODE_CLICKS[c], *names[c], accepted[c]]
                for c in range(_N_CODES)
            ]
        else:
            header = ["theta", "click_plus", "click_minus", "classification", "accepted"]
            rows = [[self.theta1, *_CODE_CLICKS[c, :2], names[c][0], accepted[c]] for c in range(4)]
        write_csv_indexed(path, header, rows, self.codes)


def run_trials(
    ensemble: BipartiteEnsemble,
    theta1: float,
    theta2: float,
    threshold: float,
    n_trials: int,
    seed: RandomSeed,
    start_index: int = 0,
    policy: str = POLICY_KEEP_SINGLES,
    workers: int = 1,
    stream=STREAM_PAIRS,
) -> TrialBatch:
    """Coincidence run: one sampled field pair per time window, drawn from `stream`.

    Party i sits behind a polarization splitter at angle theta_i, and a
    channel clicks when its power exceeds `threshold`.  Both splitter bases
    are folded into the sampling factor, so one product per chunk gives all
    four channel amplitudes (`_click_codes`); memory is one chunk per worker
    plus one byte per trial.  Party 2's field is the conjugate of the
    sampled coordinates, which leaves |R^T z|^2 unchanged for the real
    splitter basis R, so the conjugate is never formed.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if not np.isfinite(threshold) or threshold < 0.0:
        raise ValueError(f"threshold must be a finite non-negative real, got {threshold}")
    if ensemble.dim != 2:
        raise ValueError("coincidence trials are defined for two-channel polarization fields")
    basis = np.zeros((4, 4))
    basis[:2, :2] = _splitter_basis(theta1)
    basis[2:, 2:] = _splitter_basis(theta2)
    # rows of the sampled pairs times basis: (xi S^T) basis = xi (basis^T S)^T
    factor = basis.T @ ensemble.sampler_factor
    codes = _click_codes(factor, threshold, n_trials, seed, start_index, stream, workers)
    return TrialBatch(theta1, theta2, codes, policy)


def run_single_party_trials(
    ensemble,
    detector: ThresholdDetector,
    n_trials: int,
    seed: RandomSeed,
    start_index: int = 0,
    policy: str = POLICY_KEEP_SINGLES,
) -> TrialBatch:
    """Threshold trials on a single two-channel field ensemble."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if ensemble.dim != 2:
        raise ValueError(f"the detector has two channels, the ensemble dimension is {ensemble.dim}")
    factor = _splitter_basis(detector.theta).T @ ensemble.sampler_factor
    codes = _click_codes(factor, detector.threshold, n_trials, seed, start_index, STREAM_TRIALS)
    return TrialBatch(detector.theta, None, codes, policy)


@dataclass(frozen=True)
class PartyRates:
    """Click rates of one party's + and - channels."""

    raw_click_rates: tuple[float, float]  # channel fired, over all trials
    double_rate: float  # both channels fired, over all trials
    conditional: tuple[float, float] | None  # channel fired, over accepted trials


@dataclass(frozen=True)
class ClickStatistics:
    """Aggregate click frequencies for one batch: one `PartyRates` per party."""

    n_trials: int
    n_accepted: int
    parties: tuple[PartyRates, ...]
    coincidences: dict | None

    @property
    def accepted_fraction(self) -> float:
        return self.n_accepted / self.n_trials


def _party_rates(histogram: np.ndarray, party: int, accepted: np.ndarray, n_acc: int) -> PartyRates:
    n = int(histogram.sum())
    clicks = _CODE_CLICKS[:, 2 * party : 2 * party + 2]
    conditional = None
    if n_acc:
        conditional = tuple(float(histogram[accepted & clicks[:, c]].sum() / n_acc) for c in range(2))
    return PartyRates(
        raw_click_rates=tuple(float(histogram[clicks[:, c]].sum() / n) for c in range(2)),
        double_rate=float(histogram[_CODE_CLASSES[:, party] == CLASS_DOUBLE].sum() / n),
        conditional=conditional,
    )


def click_statistics(batch: TrialBatch) -> ClickStatistics:
    """Frequencies conditioned on the acceptance policy; raw counts retained."""
    if batch.n_trials < 1:
        raise ValueError("empty batch")
    accepted = batch.accepted_codes
    n_acc = int(batch.histogram[accepted].sum())
    parties = range(2 if batch.bipartite else 1)
    coincidences = None
    if batch.bipartite and n_acc:
        cells = batch.coincidences()
        coincidences = {
            (a, b): int(cells[i, j]) for i, a in enumerate((1, -1)) for j, b in enumerate((1, -1))
        }
    return ClickStatistics(
        n_trials=batch.n_trials,
        n_accepted=n_acc,
        parties=tuple(_party_rates(batch.histogram, p, accepted, n_acc) for p in parties),
        coincidences=coincidences,
    )


def correlation_from_clicks(batch: TrialBatch) -> tuple[float, float]:
    """E = (N++ + N-- - N+- - N-+) / N_accepted over single-click coincidences."""
    if not batch.bipartite:
        raise ValueError("correlation needs a bipartite batch")
    cells = _outcome_counts(batch.histogram, _SINGLE_SINGLE)
    n_acc = int(cells.sum())
    if n_acc == 0:
        raise NoCoincidencesError("no accepted coincidences")
    e = float((cells[0, 0] + cells[1, 1] - cells[0, 1] - cells[1, 0]) / n_acc)
    if n_acc == 1:
        return e, 1.0
    # the sample deviation is summed in trial order, as numpy does, so that
    # the standard error keeps its last bits
    products = _OUTCOME_PRODUCT[batch.codes[_SINGLE_SINGLE[batch.codes]]]
    return e, float(products.std(ddof=1) / np.sqrt(n_acc))
