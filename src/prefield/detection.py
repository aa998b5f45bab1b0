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

A trial is stored as one byte, the click code of its four channels.  A
batch of trials is its codes plus their 16-bin histogram, and its tally
the histogram alone.  A party's code is 0 none, 1 "+" only, 2 "-" only,
3 both, and the histogram read as a 4x4 raw table counts trials by
(party 1 code, party 2 code).  A policy is a 4x4 mask over that table,
and the 2x2 counts of +-1 outcomes are _OUTCOME^T (raw * mask) _OUTCOME,
with _OUTCOME mapping a party code to "+" when its + channel fired.
Every rate, coincidence count and correlation is read from a tally's raw
table.  A single party's clicks are party 1's marginal of a product
state psi x e_0, whose party-1 covariance is psi psi^+ + eps I.  A singlet
party's is (1/2 + eps) I, so each of its channels fires independently with
q = exp(-d / (1/2 + eps)): the closed form `party_code_probabilities`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import _correlations, coincidence_frequencies, sign_standard_error
from .hilbert import FieldVector, HermitianOperator
from .observables import MCEstimate
from .random_field import (
    CHUNK,
    SAMPLE_BLOCK,
    STREAM_PAIRS,
    BackgroundField,
    RandomSeed,
    for_each_chunk,
    sample_powers,
    sample_with_factor,
    sampling_factor,
)

STATE_NORM_TOL = 1e-10

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
    stream=STREAM_PAIRS,
) -> MCEstimate:
    """Monte Carlo counterpart of `quadratic_correlation_renormalized`.

    With A = V diag(a) V^+ and B = W diag(b) W^+, f_A(phi1) is
    sum_k a_k |(V^+ phi1)_k|^2 and, party 2 being sampled as z2 = conj(phi2),
    f_B(phi2) is sum_k b_k |(W^T z2)_k|^2.  Both bases are folded into the
    sampling factor, so one product of each chunk's channel powers
    (`sample_powers`) with block-diagonal weights gives the two forms,
    shifted by their exact means Tr(D1 A) and Tr(D2 B) to u and v.  Each
    Philox block is reduced to the co-moments M[i, j] = sum u^i v^j
    (i, j <= 2), the blocks are added in block order, and the covariance and
    its SE follow in closed form; memory is one chunk.  It runs on the
    calling thread: `epr` runs its estimates side by side instead.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    n, s = ensemble.dim, ensemble.sampler_factor
    (wa, va), (wb, vb) = a.eig(), b.eig()
    factor = np.vstack((va.conj().T @ s[:n], vb.T @ s[n:]))
    power_means = np.square(np.abs(factor)).sum(axis=1)  # the diagonal of the folded covariance
    weights = np.zeros((2 * n, 2))  # block-diagonal: u from party 1's powers, v from party 2's
    weights[:n, 0], weights[n:, 1] = wa, wb
    shift = power_means @ weights

    def reduce(lo: int, hi: int) -> list:
        rows = np.ones((3, 2, hi - lo))  # (1, x, x^2) for x = u, v
        rows[1] = (sample_powers(factor, hi - lo, seed, lo, stream) @ weights - shift).T
        np.square(rows[1], out=rows[2])
        pu, pv = rows[:, 0], rows[:, 1]
        return [pu[:, k : k + SAMPLE_BLOCK] @ pv[:, k : k + SAMPLE_BLOCK].T for k in range(0, hi - lo, SAMPLE_BLOCK)]

    m = sum(block for chunk in for_each_chunk(reduce, n_samples, 1) for block in chunk)
    # p = (u - u_bar)(v - v_bar): sum p = M[1, 1] - M[1, 0] M[0, 1] / n, and sum p^2 = alpha^T M beta
    # with (u - u_bar)^2 = sum_i alpha_i u^i and (v - v_bar)^2 = sum_j beta_j v^j
    u_bar, v_bar = m[1, 0] / n_samples, m[0, 1] / n_samples
    products = m[1, 1] - m[1, 0] * m[0, 1] / n_samples
    squares = np.array([u_bar * u_bar, -2.0 * u_bar, 1.0]) @ m @ np.array([v_bar * v_bar, -2.0 * v_bar, 1.0])
    variance = max(float(squares - products * products / n_samples), 0.0) / (n_samples - 1)
    return MCEstimate(float(products / (n_samples - 1)), math.sqrt(variance / n_samples), n_samples)


# One uint8 click code per trial: bit 0 party 1 "+", bit 1 party 1 "-",
# bit 2 party 2 "+", bit 3 party 2 "-".  A party's code (bits 0-1 or 2-3)
# is 0 none, 1 "+" only, 2 "-" only, 3 both.
_N_CODES = 16
_CODE_CLICKS = ((np.arange(_N_CODES)[:, None] >> np.arange(4)) & 1).astype(bool)
CODE_BOTH = 3  # a party's code for a double click
_PARTY_CLASS = ("none", "single", "single", "double")
# outcome of a party code: "+" (column 0) when its + channel fired, "-" (column 1) otherwise
_OUTCOME = np.array([[0, 1], [1, 0], [0, 1], [1, 0]], dtype=np.int64)
_SINGLE = np.array([False, True, True, False])
# post-selection policy: a 4x4 mask over (party 1 code, party 2 code)
_POLICY_MASKS = {POLICY_KEEP_SINGLES: np.outer(_SINGLE, _SINGLE), POLICY_KEEP_ALL: np.ones((4, 4), dtype=bool)}


def channel_click_probability(threshold: float, epsilon: float) -> float:
    """q = exp(-d / (1/2 + eps)): the probability that a singlet party's channel fires."""
    return math.exp(-threshold / (0.5 + epsilon))


def party_code_probabilities(threshold: float, epsilon: float) -> np.ndarray:
    """A singlet party's code probabilities (none, + only, - only, both): each channel fires with q, independently."""
    q = channel_click_probability(threshold, epsilon)
    return np.array([(1.0 - q) ** 2, q * (1.0 - q), q * (1.0 - q), q * q])


def _pack_codes(clicks: np.ndarray) -> np.ndarray:
    """Code of each row of an (n, 4) boolean click table: column c sets bit c."""
    # each row's four click bytes, read as one little-endian ('<u4') word, hold
    # column c's flag at bit 8 c; times 0x01020408 it moves to bit 24 + c, and no
    # other partial product carries into the top byte, so >> 24 is the code in
    # exact integer arithmetic.  np.packbits along rows of four would do the same,
    # but it holds the interpreter lock for the whole call (about 0.8 ms per
    # chunk), so the other worker threads stall; integer ufuncs run without it
    return (clicks.view("<u4")[:, 0] * 0x01020408) >> 24


def _click_codes(factor, threshold, n_trials, seed, stream, workers) -> np.ndarray:
    """Click codes of trials [0, n_trials), chunk by chunk.

    `factor` has the splitter bases folded in, so its channel powers
    (`sample_powers`) are thresholded and packed straight into the codes.
    """
    codes = np.empty(n_trials, dtype=np.uint8)

    def fill(lo: int, hi: int) -> None:
        powers = sample_powers(factor, hi - lo, seed, lo, stream)
        codes[lo:hi] = _pack_codes(powers > threshold)

    for_each_chunk(fill, n_trials, workers)
    return codes


class TrialTally:
    """A setting pair's 16-bin code histogram and policy: every count of its trials."""

    __slots__ = ("theta1", "theta2", "histogram", "policy")

    def __init__(self, theta1, theta2, histogram, policy):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.theta1, self.theta2 = float(theta1), float(theta2)
        self.histogram, self.policy = histogram, policy

    @property
    def n_trials(self) -> int:
        return int(self.histogram.sum())

    @property
    def raw(self) -> np.ndarray:
        """4x4 trial counts by (party 1 code, party 2 code)."""
        return self.histogram.reshape(4, 4).T

    @property
    def mask(self) -> np.ndarray:
        """4x4 mask of the (party 1 code, party 2 code) cells the policy keeps."""
        return _POLICY_MASKS[self.policy]

    def coincidences(self) -> np.ndarray:
        """2x2 accepted-trial counts by (party 1, party 2) outcome, "+" first."""
        return _OUTCOME.T @ (self.raw * self.mask) @ _OUTCOME

    @property
    def accepted_fraction(self) -> float:
        """Share of the trials that the policy keeps."""
        return int(self.raw[self.mask].sum()) / self.n_trials

    @property
    def party_counts(self) -> np.ndarray:
        """(2, 4) trial counts of each party's code: (none, + only, - only, both)."""
        return np.array([self.raw.sum(axis=1), self.raw.sum(axis=0)])

    @property
    def party_frequencies(self) -> np.ndarray:
        """(2, 4) frequencies of each party's code over all trials."""
        return self.party_counts / self.n_trials

    @property
    def channel_rates(self) -> np.ndarray:
        """(2, 2) frequency of each party's + and - channel firing, alone or in a double click."""
        return (self.histogram @ _CODE_CLICKS).reshape(2, 2) / self.n_trials


class TrialBatch(TrialTally):
    """A setting pair's tally and its trials' click codes, one byte per trial.

    The codes live as long as the batch: `click_statistics` drops them once no trial is read.
    """

    __slots__ = ("codes",)

    def __init__(self, theta1, theta2, codes, policy=POLICY_KEEP_SINGLES):
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        if codes.size and int(codes.max()) >= _N_CODES:
            raise ValueError(f"click codes must lie below {_N_CODES}")
        # bincount widens its input to intp (8 bytes per trial), so count by chunks
        histogram = np.zeros(_N_CODES, dtype=np.int64)
        for lo in range(0, codes.size, CHUNK):
            histogram += np.bincount(codes[lo : lo + CHUNK], minlength=_N_CODES)
        super().__init__(theta1, theta2, histogram, policy)
        self.codes = codes

    @property
    def accepted(self) -> np.ndarray:
        """Per-trial flag: the policy keeps the trial."""
        return self.mask.T.ravel()[self.codes]

    def csv_table(self):
        """(header, rows, index) of the trial CSV, the arguments of `serialize.write_csv` after the path.

        One written row per trial: settings, click flags, classifications,
        accepted.  A batch has at most 16 distinct rows, one per click code,
        and the codes index them.
        """
        accepted = self.mask.T.ravel()
        header = ["theta1", "theta2", "click1_plus", "click1_minus", "click2_plus"]
        header += ["click2_minus", "class1", "class2", "accepted"]
        rows = [
            [self.theta1, self.theta2, *_CODE_CLICKS[c], _PARTY_CLASS[c & 3], _PARTY_CLASS[c >> 2], accepted[c]]
            for c in range(_N_CODES)
        ]
        return header, rows, self.codes


def run_trials(
    ensemble: BipartiteEnsemble,
    theta1: float,
    theta2: float,
    threshold: float,
    n_trials: int,
    seed: RandomSeed,
    policy: str = POLICY_KEEP_SINGLES,
    workers: int = 1,
    stream=STREAM_PAIRS,
) -> TrialBatch:
    """Coincidence run: one sampled field pair per time window, drawn from `stream`.

    Party i sits behind a polarization splitter at angle theta_i, and a
    channel clicks when its power exceeds `threshold`.  Both splitter bases
    are folded into the sampling factor, so one product per chunk gives all
    four channel amplitudes (`_click_codes`); memory is one chunk per worker
    plus the batch's codes, one byte per trial, which live as long as the
    batch (`click_statistics` drops them).  Party 2's field is the conjugate
    of the sampled coordinates, which leaves |R^T z|^2 unchanged for the
    real splitter basis R, so the conjugate is never formed.
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
    codes = _click_codes(factor, threshold, n_trials, seed, stream, workers)
    return TrialBatch(theta1, theta2, codes, policy)


def click_statistics(batch: TrialTally) -> TrialTally:
    """The batch's tally without its codes: every count its statistics read."""
    if batch.n_trials < 1:
        raise ValueError("empty batch")
    return TrialTally(batch.theta1, batch.theta2, batch.histogram, batch.policy)


def correlation_from_clicks(batch: TrialTally) -> tuple[float, float]:
    """E over the policy's coincidences, and its SE.

    E is the frequency sum `_correlations` of `coincidence_frequencies`, as
    `CorrelationTable.from_trial_batches` forms it, so one batch gives one
    E and SE to the last bit on either path.
    """
    freq, n_acc = coincidence_frequencies(batch)
    e = float(_correlations(freq))
    return e, float(sign_standard_error(e, n_acc))
