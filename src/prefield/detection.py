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
A threshold detector fires channel c when the channel power ||P_c phi||^2
exceeds the threshold d.  One trial is one time window; both channels may
fire (a double click) or neither.  The default post-selection policy
keeps trials where each party produced exactly one click, mirroring the
time-window discard of coincidence experiments; raw counts are always
retained so the selection is auditable.

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
from .observables import MCEstimate, QuadraticForm
from .random_field import (
    SAMPLE_BLOCK,
    STREAM_CALIBRATION,
    STREAM_PAIRS,
    STREAM_TRIALS,
    BackgroundField,
    RandomSeed,
    sample_with_factor,
    sampling_factor,
)
from .serialize import read_csv, write_csv_indexed

PROJECTOR_TOL = 1e-12
STATE_NORM_TOL = 1e-10

CLASS_NONE = 0
CLASS_SINGLE = 1
CLASS_DOUBLE = 2
_CLASS_NAMES = {CLASS_NONE: "none", CLASS_SINGLE: "single", CLASS_DOUBLE: "double"}

POLICY_KEEP_SINGLES = "keep-singles"
POLICY_KEEP_ALL = "keep-all"
_POLICIES = (POLICY_KEEP_SINGLES, POLICY_KEEP_ALL)


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
    """Power threshold plus a complete set of orthogonal channel projectors."""

    threshold: float
    projectors: tuple[HermitianOperator, ...]

    def __post_init__(self):
        if not np.isfinite(self.threshold) or self.threshold < 0.0:
            raise ValueError(f"threshold must be a finite non-negative real, got {self.threshold}")
        if len(self.projectors) < 1:
            raise ValueError("need at least one channel projector")
        dim = self.projectors[0].dim
        total = np.zeros((dim, dim), dtype=np.complex128)
        for proj in self.projectors:
            if proj.dim != dim:
                raise ValueError("channel projectors must share one dimension")
            total = total + proj.matrix
        if np.abs(total - np.eye(dim)).max() > PROJECTOR_TOL:
            raise ValueError("channel projectors must sum to the identity")
        for i, pi in enumerate(self.projectors):
            for pj in self.projectors[i + 1 :]:
                if np.abs(pi.matrix @ pj.matrix).max() > PROJECTOR_TOL:
                    raise ValueError("channel projectors must be mutually orthogonal")

    @property
    def dim(self) -> int:
        return self.projectors[0].dim

    @property
    def n_channels(self) -> int:
        return len(self.projectors)

    def channel_powers(self, samples: np.ndarray) -> np.ndarray:
        """(N, n_channels) array of ||P_c phi||^2 = <P_c phi, phi>."""
        x = np.asarray(samples, dtype=np.complex128)
        stack = np.stack([p.matrix for p in self.projectors])
        return np.einsum("ni,cij,nj->nc", x.conj(), stack, x).real

    def clicks(self, samples: np.ndarray) -> np.ndarray:
        """Boolean (N, n_channels) click table: channel power above threshold."""
        return self.channel_powers(samples) > self.threshold


class BipartiteEnsemble:
    """Joint Gaussian field pair encoding a bipartite state (see module docs)."""

    __slots__ = ("_psi", "_psihat", "_epsilon", "_epsilon_min", "_block", "_factor")

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
        self._psi = psi
        self._psihat = psihat
        self._epsilon = eps
        self._epsilon_min = eps_min
        self._block = HermitianOperator.symmetrized(block)
        self._factor = sampling_factor(self._block)

    @property
    def dim(self) -> int:
        """Per-party dimension n."""
        return self._psihat.shape[0]

    @property
    def state(self) -> FieldVector:
        return self._psi

    @property
    def epsilon(self) -> float:
        return self._epsilon

    @property
    def epsilon_min(self) -> float:
        """Smallest background level keeping the joint covariance PSD."""
        return self._epsilon_min

    @property
    def block_covariance(self) -> HermitianOperator:
        """Ordinary covariance of the stacked coordinates (phi1, conj(phi2))."""
        return self._block

    @property
    def sampler_factor(self) -> np.ndarray:
        """Matrix S with S S^+ = K that colors white noise into (phi1, conj(phi2))."""
        return self._factor

    @property
    def cross_block(self) -> np.ndarray:
        """Pseudo cross-covariance E[phi1 phi2^T] = Psihat."""
        return self._psihat

    @property
    def marginal_covariance_1(self) -> HermitianOperator:
        n = self.dim
        return HermitianOperator.symmetrized(self._block.matrix[:n, :n])

    @property
    def marginal_covariance_2(self) -> HermitianOperator:
        n = self.dim
        return HermitianOperator.symmetrized(self._block.matrix[n:, n:].T)

    def sample_pairs(
        self, n_samples: int, seed: RandomSeed, start_index: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Paired samples (phi1, phi2), each (n_samples, n)."""
        z = sample_with_factor(self._factor, n_samples, seed, start_index, STREAM_PAIRS)
        n = self.dim
        return z[:, :n], z[:, n:].conj()

    def __repr__(self) -> str:
        return (
            f"BipartiteEnsemble(dim={self.dim}x{self.dim}, eps={self._epsilon:.6g}, "
            f"eps_min={self._epsilon_min:.6g})"
        )


def quadratic_correlation(
    ensemble: BipartiteEnsemble, a: HermitianOperator, b: HermitianOperator
) -> float:
    """Exact raw second moment E[f_A(phi1) f_B(phi2)].

    Gaussian moment factorization gives
    Tr(D1 A) Tr(D2 B) + Tr(A Q B^T Q^+) with Q the cross block.
    """
    if a.dim != ensemble.dim or b.dim != ensemble.dim:
        raise ValueError("observable dimension must match the per-party dimension")
    mean1 = float(np.trace(ensemble.marginal_covariance_1.matrix @ a.matrix).real)
    mean2 = float(np.trace(ensemble.marginal_covariance_2.matrix @ b.matrix).real)
    return mean1 * mean2 + quadratic_correlation_renormalized(ensemble, a, b)


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
    renormalized: bool = True,
    start_index: int = 0,
) -> MCEstimate:
    """Monte Carlo counterpart of the exact correlation formulas."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    phi1, phi2 = ensemble.sample_pairs(n_samples, seed, start_index)
    fa = QuadraticForm(a).evaluate_batch(phi1)
    fb = QuadraticForm(b).evaluate_batch(phi2)
    if renormalized:
        da = fa - fa.mean()
        db = fb - fb.mean()
        prod = da * db
        # bias-corrected sample covariance; SE from the deviation products
        mean = float(prod.sum() / (n_samples - 1))
    else:
        prod = fa * fb
        mean = float(prod.mean())
    se = float(prod.std(ddof=1) / np.sqrt(n_samples))
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

# Trials per kernel chunk, aligned to Philox blocks.  Single-block chunks are
# as fast on an idle machine, but each chunk's small colouring product wakes
# the BLAS threads, and with another process busy on a core that made the run
# two to three times slower; eight blocks amortise the wake-up at a few MB of
# working memory.
TRIAL_CHUNK = 8 * SAMPLE_BLOCK


def _encode_clicks(clicks1, clicks2) -> np.ndarray:
    """Pack (n_trials, 2) boolean click tables into one code per trial."""
    tables = [np.asarray(c, dtype=bool) for c in (clicks1, clicks2) if c is not None]
    for table in tables:
        if table.ndim != 2 or table.shape[1] != 2:
            raise ValueError("click tables must be (n_trials, 2): one column per splitter channel")
    if len(tables) == 2 and tables[0].shape != tables[1].shape:
        raise ValueError("clicks1 and clicks2 must have equal shapes")
    return np.packbits(np.concatenate(tables, axis=1), axis=1, bitorder="little")[:, 0]


def _outcome_counts(histogram: np.ndarray, accepted: np.ndarray) -> np.ndarray:
    """2x2 counts of accepted trials by (party 1, party 2) outcome, "+" first."""
    cells = np.zeros(4, dtype=np.int64)
    np.add.at(cells, _OUTCOME_CELL[accepted], histogram[accepted])
    return cells.reshape(2, 2)


class TrialBatch:
    """Detection trials for one setting pair, one click code per trial.

    Built from boolean click tables (one (n_trials, 2) array per party) or
    directly from `codes`.  The 16-bin code histogram is computed once and
    every statistic of the batch reads it; the per-trial click tables,
    classifications and acceptance flags are derived from the codes.
    """

    __slots__ = ("theta1", "theta2", "codes", "histogram", "policy")

    def __init__(
        self, theta1, theta2, clicks1=None, clicks2=None, policy=POLICY_KEEP_SINGLES, *, codes=None
    ):
        if policy not in _POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {_POLICIES}")
        self.theta1 = float(theta1)
        self.theta2 = None if theta2 is None else float(theta2)
        self.policy = policy
        if codes is None:
            if (clicks2 is None) != (self.theta2 is None):
                raise ValueError("theta2 and clicks2 must be provided together")
            codes = _encode_clicks(clicks1, clicks2)
        elif clicks1 is not None or clicks2 is not None:
            raise ValueError("give click tables or codes, not both")
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 1:
            raise ValueError("codes must be one-dimensional")
        limit = _N_CODES if self.bipartite else 4
        if codes.size and int(codes.max()) >= limit:
            raise ValueError(f"click codes must lie below {limit}")
        self.codes = codes
        # bincount widens its input to intp (8 bytes per trial), so count by chunks
        self.histogram = np.zeros(_N_CODES, dtype=np.int64)
        for lo in range(0, codes.size, TRIAL_CHUNK):
            self.histogram += np.bincount(codes[lo : lo + TRIAL_CHUNK], minlength=_N_CODES)

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

    def classification(self, party: int) -> np.ndarray:
        """Per-trial code: 0 none, 1 single, 2 double."""
        if party != 1 and not self.bipartite:
            raise ValueError("batch has no second party")
        return _CODE_CLASSES[self.codes, 0 if party == 1 else 1].astype(np.int8)

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

    @classmethod
    def from_csv(cls, path, policy=POLICY_KEEP_SINGLES) -> "TrialBatch":
        header, rows = read_csv(path)
        if header[:2] == ["theta1", "theta2"]:
            theta1 = float(rows[0][0])
            theta2 = float(rows[0][1])
            c1 = np.array([[int(r[2]), int(r[3])] for r in rows], dtype=bool)
            c2 = np.array([[int(r[4]), int(r[5])] for r in rows], dtype=bool)
            return cls(theta1, theta2, c1, c2, policy)
        theta = float(rows[0][0])
        c1 = np.array([[int(r[1]), int(r[2])] for r in rows], dtype=bool)
        return cls(theta, None, c1, None, policy)


def run_trials(
    ensemble: BipartiteEnsemble,
    theta1: float,
    theta2: float,
    detector: ThresholdDetector,
    n_trials: int,
    seed: RandomSeed,
    start_index: int = 0,
    policy: str = POLICY_KEEP_SINGLES,
) -> TrialBatch:
    """Coincidence run: one sampled field pair per time window.

    Party i sits behind a polarization splitter at angle theta_i, and a
    channel clicks when its power exceeds the detector's threshold (only the
    threshold of `detector` is used).  Trials are processed in chunks of
    TRIAL_CHUNK aligned to Philox blocks: draw the chunk, project both
    parties onto their splitter bases with one block-diagonal matrix,
    threshold, and pack each trial into a click code.  Memory is
    O(TRIAL_CHUNK) plus one byte per trial.  Party 2's field is the
    conjugate of the sampled coordinates, which leaves |R^T z|^2 unchanged
    for the real splitter basis R, so the conjugate is never formed.
    """
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if detector.dim != ensemble.dim:
        raise ValueError("detector dimension must match the per-party dimension")
    if detector.dim != 2:
        raise ValueError("coincidence trials are defined for two-channel polarization fields")
    # complex, because numpy runs complex @ real products outside BLAS, about 7x slower
    basis = np.zeros((4, 4), dtype=np.complex128)
    basis[:2, :2] = _splitter_basis(theta1)
    basis[2:, 2:] = _splitter_basis(theta2)
    codes = np.empty(n_trials, dtype=np.uint8)
    lo, stop = start_index, start_index + n_trials
    while lo < stop:
        hi = min(stop, (lo // TRIAL_CHUNK + 1) * TRIAL_CHUNK)
        amplitudes = sample_with_factor(ensemble.sampler_factor, hi - lo, seed, lo, STREAM_PAIRS) @ basis
        powers = amplitudes.real**2 + amplitudes.imag**2
        clicks = powers > detector.threshold
        codes[lo - start_index : hi - start_index] = np.packbits(clicks, axis=1, bitorder="little")[:, 0]
        lo = hi
    return TrialBatch(theta1, theta2, policy=policy, codes=codes)


def run_single_party_trials(
    ensemble,
    detector: ThresholdDetector,
    n_trials: int,
    seed: RandomSeed,
    start_index: int = 0,
    policy: str = POLICY_KEEP_SINGLES,
) -> TrialBatch:
    """Threshold trials on a single field ensemble with a fixed two-channel detector."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    if detector.dim != ensemble.dim:
        raise ValueError(f"dimension mismatch: {detector.dim} vs {ensemble.dim}")
    samples = sample_with_factor(ensemble.sampler_factor, n_trials, seed, start_index, STREAM_TRIALS)
    return TrialBatch(0.0, None, detector.clicks(samples), None, policy)


@dataclass(frozen=True)
class ClickStatistics:
    """Aggregate click frequencies for one batch."""

    n_trials: int
    n_accepted: int
    raw_click_rates_1: tuple[float, ...]
    raw_click_rates_2: tuple[float, ...] | None
    single_rates_1: tuple[float, ...]
    single_rates_2: tuple[float, ...] | None
    double_rate_1: float
    double_rate_2: float | None
    none_rate_1: float
    none_rate_2: float | None
    accepted_fraction: float
    conditional_1: tuple[float, ...] | None
    conditional_2: tuple[float, ...] | None
    coincidences: dict | None
    degenerate: bool


def _party_stats(histogram: np.ndarray, party: int, accepted: np.ndarray, n_acc: int):
    """Raw, single-click, double, none and accepted-conditional rates of one party."""
    n = int(histogram.sum())
    clicks = _CODE_CLICKS[:, 2 * party - 2 : 2 * party]
    count = _CODE_CLASSES[:, party - 1]
    raw = tuple(float(histogram[clicks[:, c]].sum() / n) for c in range(2))
    singles = tuple(float(histogram[clicks[:, c] & (count == 1)].sum() / n) for c in range(2))
    double = float(histogram[count == CLASS_DOUBLE].sum() / n)
    none = float(histogram[count == CLASS_NONE].sum() / n)
    conditional = None
    if n_acc:
        conditional = tuple(float(histogram[accepted & clicks[:, c]].sum() / n_acc) for c in range(2))
    return raw, singles, double, none, conditional


def click_statistics(batch: TrialBatch) -> ClickStatistics:
    """Frequencies conditioned on the acceptance policy; raw counts retained."""
    if batch.n_trials < 1:
        raise ValueError("empty batch")
    accepted = batch.accepted_codes
    n_acc = int(batch.histogram[accepted].sum())
    raw1, singles1, dbl1, none1, cond1 = _party_stats(batch.histogram, 1, accepted, n_acc)
    raw2 = singles2 = dbl2 = none2 = cond2 = coinc = None
    if batch.bipartite:
        raw2, singles2, dbl2, none2, cond2 = _party_stats(batch.histogram, 2, accepted, n_acc)
        if n_acc:
            cells = batch.coincidences()
            coinc = {
                (1, 1): int(cells[0, 0]),
                (1, -1): int(cells[0, 1]),
                (-1, 1): int(cells[1, 0]),
                (-1, -1): int(cells[1, 1]),
            }
    return ClickStatistics(
        n_trials=batch.n_trials,
        n_accepted=n_acc,
        raw_click_rates_1=raw1,
        raw_click_rates_2=raw2,
        single_rates_1=singles1,
        single_rates_2=singles2,
        double_rate_1=dbl1,
        double_rate_2=dbl2,
        none_rate_1=none1,
        none_rate_2=none2,
        accepted_fraction=n_acc / batch.n_trials,
        conditional_1=cond1,
        conditional_2=cond2,
        coincidences=coinc,
        degenerate=n_acc == 0,
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


@dataclass(frozen=True)
class CalibrationResult:
    """Threshold scan on the maximally mixed ensemble."""

    threshold: float
    epsilon: float
    target_single_fraction: float
    grid: tuple[tuple[float, float], ...]
    channel_rates: tuple[float, ...]
    balanced: bool


def calibrate_threshold(
    epsilon: float,
    target_single_fraction: float,
    seed: RandomSeed,
    dim: int = 2,
    d_grid=None,
    n_trials: int = 200_000,
) -> CalibrationResult:
    """Pick the threshold whose singles fraction on the mixed state hits a target.

    Calibration never sees the state under test: it scans d on the
    maximally mixed ensemble (covariance (1/dim + eps) I), checks that the
    per-channel single-click rates are balanced, and returns the grid point
    whose total single-click fraction is closest to the requested target.
    One sample batch is shared across the whole scan.
    """
    from .hilbert import DensityOperator
    from .random_field import ensemble_from_density

    if d_grid is None:
        d_grid = np.geomspace(1e-3, 1.0, 61)
    ens = ensemble_from_density(DensityOperator.maximally_mixed(dim), BackgroundField(epsilon))
    samples = sample_with_factor(ens.sampler_factor, n_trials, seed, 0, STREAM_CALIBRATION)
    det0 = ThresholdDetector(0.0, pbs_projectors(0.0)) if dim == 2 else None
    if det0 is None:
        raise ValueError("calibration is defined for two-channel detectors")
    powers = det0.channel_powers(samples)
    grid = []
    best = None
    for d in d_grid:
        clicks = powers > d
        counts = clicks.sum(axis=1)
        singles_mask = counts == 1
        frac = float(singles_mask.mean())
        grid.append((float(d), frac))
        gap = abs(frac - target_single_fraction)
        if best is None or gap < best[0]:
            best = (gap, float(d), singles_mask, clicks)
    _, d_star, singles_mask, clicks = best
    n_singles = max(1, int(singles_mask.sum()))
    channel_rates = tuple(
        float((clicks[:, c] & singles_mask).sum() / n_singles) for c in range(2)
    )
    # per-channel singles on the mixed state are equal by symmetry; flag if not
    se = math.sqrt(0.25 / n_singles)
    balanced = abs(channel_rates[0] - channel_rates[1]) <= 5.0 * 2.0 * se
    return CalibrationResult(
        threshold=d_star,
        epsilon=float(epsilon),
        target_single_fraction=float(target_single_fraction),
        grid=tuple(grid),
        channel_rates=channel_rates,
        balanced=balanced,
    )
