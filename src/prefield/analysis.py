"""Statistical tests on click data: CHSH and joint-distribution feasibility.

The question behind both tests is whether four measured correlation tables
(two settings per party, binary outcomes) can coexist inside one classical
probability space.  `chsh` evaluates the canonical combination
S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2); `kolmogorov_feasible`
decides the existence question exactly, as a linear feasibility problem
over the 16 deterministic assignments of (A1, A2, B1, B2), using a small
phase-1 simplex written here so every pivot is auditable.  The complete
family of eight CHSH expressions (necessary and sufficient for existence
when the tables are non-signalling) is exposed separately and serves as an
independent cross-check of the simplex verdicts, never as the decision
path.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .random_field import RandomSeed
from .serialize import read_json

NORMALIZATION_TOL = 1e-9
FEASIBILITY_TOL = 1e-7
PIVOT_TOL = 1e-11  # simplex: smallest reduced cost and pivot entry taken as nonzero
SIGNALLING_SE = 5.0  # marginal gaps beyond this many standard errors are signalling

_OUTCOMES = (1, -1)


class SignallingDataError(ValueError):
    """Marginals depend on the remote setting: outside the model class."""


class InconsistentTableError(ValueError):
    """Averaged marginals and correlations fit no probability table.

    Sampled tables with only a few trials per setting pair land here.
    """


class TableFileError(ValueError):
    """A correlation-table file is missing or malformed."""


class NoCoincidencesError(ValueError):
    """No trial passed the post-selection, so no correlation can be estimated."""


def _correlations(freq: np.ndarray) -> np.ndarray:
    """E = P++ + P-- - P+- - P-+ of every setting pair of a (..., 2, 2) table of +-1 outcome frequencies."""
    return freq[..., 0, 0] + freq[..., 1, 1] - freq[..., 0, 1] - freq[..., 1, 0]


def sign_standard_error(corr, n):
    """Standard error of the mean E of n products of +-1 outcomes.

    A sample whose n products all agree has variance 0; the variance is
    floored at 1/n so that its standard error is not 0.
    """
    return np.sqrt(np.maximum(1.0 / n, 1.0 - corr * corr) / n)


def coincidence_frequencies(tally) -> tuple[np.ndarray, int]:
    """A tally's 2x2 frequencies of +-1 outcome pairs over its accepted coincidences, and their count.

    Raises NoCoincidencesError, naming the tally's angles, when its policy accepts no trial.
    """
    cells = tally.coincidences()
    n_acc = int(cells.sum())
    if n_acc == 0:
        raise NoCoincidencesError(f"no accepted coincidences at angles ({tally.theta1:.6g}, {tally.theta2:.6g})")
    return cells / n_acc, n_acc


def _numbers(values, kinds: str, name: str) -> np.ndarray:
    """`values` as an array of a dtype kind in `kinds`; strings, None, bools and overlong ints are not."""
    arr = np.asarray(values)
    if arr.dtype.kind not in kinds:
        raise ValueError(f"{name} must be numbers of kind {kinds!r}, got {arr.dtype}")
    return arr


def _frequencies(corr, mean_a=0.0, mean_b=0.0) -> np.ndarray:
    """The (2, 2, 2, 2) table of +-1 outcomes with party means m_a, m_b and correlations E.

    Cell (x, y, i, j) is (1 + a m_a[x] + b m_b[y] + a b E[x, y]) / 4, (a, b) = (_OUTCOMES[i], _OUTCOMES[j]).
    """
    a = np.array(_OUTCOMES, dtype=np.float64)[:, None]  # along i; a.T is b, along j
    m_a, m_b = np.broadcast_to(mean_a, 2)[:, None, None, None], np.broadcast_to(mean_b, 2)[:, None, None]
    return (1.0 + a * m_a + a.T * m_b + a * a.T * np.reshape(corr, (2, 2, 1, 1))) / 4.0


@dataclass(frozen=True)
class CorrelationTable:
    """Correlations (and optionally full frequencies) for a 2x2x2 Bell scenario.

    `correlations[x, y]` estimates E(a_x, b_y); `frequencies[x, y, i, j]`
    is the probability of outcomes (_OUTCOMES[i], _OUTCOMES[j]) under
    settings (x, y), and must give the correlations.  `counts[x, y]` are
    the accepted-trial counts behind the estimates, for standard errors.
    """

    a_settings: tuple[float, float]
    b_settings: tuple[float, float]
    correlations: np.ndarray
    standard_errors: np.ndarray
    frequencies: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        if len(self.a_settings) != 2 or len(self.b_settings) != 2:
            raise ValueError("each party needs exactly two settings")
        for s in (*self.a_settings, *self.b_settings):
            if not (isinstance(s, numbers.Real) and type(s) is not bool and -math.inf < s < math.inf):
                raise ValueError("settings must be finite real numbers")
        corr = np.array(_numbers(self.correlations, "iuf", "correlations"), dtype=np.float64)
        errs = np.array(_numbers(self.standard_errors, "iuf", "standard_errors"), dtype=np.float64)
        if corr.shape != (2, 2) or errs.shape != (2, 2):
            raise ValueError("correlations and standard_errors must be 2x2")
        # comparisons are written so that NaN fails them
        if not np.all(np.abs(corr) <= 1.0 + NORMALIZATION_TOL):
            raise ValueError("correlations must lie in [-1, 1]")
        if not np.all((errs >= 0.0) & (errs < np.inf)):
            raise ValueError("standard errors must be finite and non-negative")
        corr.setflags(write=False)
        errs.setflags(write=False)
        object.__setattr__(self, "correlations", corr)
        object.__setattr__(self, "standard_errors", errs)
        if self.frequencies is not None:
            freq = np.array(_numbers(self.frequencies, "iuf", "frequencies"), dtype=np.float64)
            if freq.shape != (2, 2, 2, 2):
                raise ValueError("frequencies must have shape (2, 2, 2, 2)")
            if not np.all(freq >= -NORMALIZATION_TOL):
                raise ValueError("frequencies must be non-negative")
            sums = freq.sum(axis=(2, 3))
            if not np.all(np.abs(sums - 1.0) <= NORMALIZATION_TOL):
                raise ValueError("each setting pair's frequencies must sum to 1")
            if not np.all(np.abs(corr - _correlations(freq)) <= NORMALIZATION_TOL):
                raise ValueError("correlations must equal the frequencies' P++ + P-- - P+- - P-+")
            freq.setflags(write=False)
            object.__setattr__(self, "frequencies", freq)
        if self.counts is not None:
            cnt = _numbers(self.counts, "iu", "counts")
            if cnt.shape != (2, 2) or not np.all((cnt >= 0) & (cnt <= np.iinfo(np.int64).max)):
                raise ValueError("counts must be a 2x2 table of integers in [0, 2**63)")
            cnt = cnt.astype(np.int64)
            cnt.setflags(write=False)
            object.__setattr__(self, "counts", cnt)

    @classmethod
    def from_frequencies(cls, a_settings, b_settings, frequencies, counts=None) -> "CorrelationTable":
        freq = np.asarray(frequencies, dtype=np.float64)
        corr = _correlations(freq)
        errs = np.zeros((2, 2))
        if counts is not None:
            n = np.asarray(counts, dtype=np.float64)
            live = n > 0
            errs[live] = sign_standard_error(corr[live], n[live])
        return cls(tuple(a_settings), tuple(b_settings), corr, errs, freq, counts)

    @classmethod
    def from_trial_batches(cls, a_settings, b_settings, batches) -> "CorrelationTable":
        """Build from detection tallies keyed by setting indices (x, y).

        Frequencies are over the trials each tally's policy accepts
        (single-click coincidences by default): `coincidence_frequencies`.
        """
        freq = np.zeros((2, 2, 2, 2))
        counts = np.zeros((2, 2), dtype=np.int64)
        for (x, y), batch in batches.items():
            freq[x, y], counts[x, y] = coincidence_frequencies(batch)
        return cls.from_frequencies(a_settings, b_settings, freq, counts)


def chsh(table: CorrelationTable) -> tuple[float, float]:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2), with quadrature error."""
    e = table.correlations
    s = float(e[0, 0] + e[0, 1] + e[1, 0] - e[1, 1])
    se = float(np.sqrt((table.standard_errors**2).sum()))
    return s, se


def fine_chsh_values(table: CorrelationTable) -> dict[tuple[int, int], float]:
    """All four CHSH combinations, keyed by the setting pair carrying the minus.

    Together with their negatives these are the eight facet inequalities
    |s| <= 2 whose joint satisfaction is equivalent (for non-signalling
    tables) to the existence of a joint distribution.
    """
    e = table.correlations
    out = {}
    for mx in range(2):
        for my in range(2):
            signs = np.ones((2, 2))
            signs[mx, my] = -1.0
            out[(mx, my)] = float((signs * e).sum())
    return out


def _assignment_outcomes(index: int) -> tuple[int, int, int, int]:
    """Deterministic assignment (A1, A2, B1, B2) encoded by bits of index."""
    return tuple(1 if (index >> bit) & 1 == 0 else -1 for bit in range(4))


def _assignment_matrix() -> np.ndarray:
    """(16 equations) x (16 assignments) incidence of outcome probabilities.

    Row order: (x, y, i, j) lexicographic with outcome index i, j in
    {0: +1, 1: -1}; column k is the deterministic assignment
    (A1, A2, B1, B2) = _assignment_outcomes(k).
    """
    k = np.arange(16)
    bits = (k >> np.arange(4)[:, None]) & 1  # outcome index of A1, A2, B1, B2 under each assignment
    x, y = np.divmod(np.arange(4), 2)  # setting pair (x, y) of each block of four rows
    rows = 4 * (2 * x + y)[:, None] + 2 * bits[x] + bits[2 + y]
    m = np.zeros((16, 16))
    m[rows, k] = 1.0
    return m


def _phase1_simplex(a: np.ndarray, b: np.ndarray):
    """Find x >= 0 with A x = b, or a Farkas certificate that none exists.

    Dense phase-1 simplex with Bland's rule (no cycling).  Returns
    (feasible, x, residual, farkas):  when feasible, x solves the system up
    to `residual`; otherwise farkas is y with y^T A <= 0 and y^T b > 0.
    """
    m, n = a.shape
    a = a.copy()
    b = b.copy()
    flip = b < 0.0
    a[flip] *= -1.0
    b[flip] *= -1.0
    # tableau columns: n original, m artificial, plus rhs
    tab = np.zeros((m, n + m + 1))
    tab[:, :n] = a
    tab[:, n : n + m] = np.eye(m)
    tab[:, -1] = b
    basis = list(range(n, n + m))
    # phase-1 objective: minimize the sum of artificials
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    red = cost.copy()
    red -= tab[:, :-1].sum(axis=0)  # artificial basis has unit costs
    obj = float(b.sum())
    for _ in range(10_000):
        entering = -1
        for jdx in range(n + m):
            if red[jdx] < -PIVOT_TOL:
                entering = jdx
                break  # Bland: smallest eligible index
        if entering < 0:
            break
        ratios = []
        for i in range(m):
            if tab[i, entering] > PIVOT_TOL:
                ratios.append((tab[i, -1] / tab[i, entering], basis[i], i))
        if not ratios:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        ratios.sort()
        _, _, pivot_row = ratios[0]
        pivot = tab[pivot_row, entering]
        tab[pivot_row] /= pivot
        for i in range(m):
            if i != pivot_row and abs(tab[i, entering]) > 0.0:
                tab[i] -= tab[i, entering] * tab[pivot_row]
        obj_coeff = red[entering]
        red -= obj_coeff * tab[pivot_row, :-1]
        obj += obj_coeff * tab[pivot_row, -1]  # z grows by c_bar * step
        basis[pivot_row] = entering
    else:
        raise ArithmeticError("simplex failed to converge")
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tab[i, -1]
    if obj <= max(PIVOT_TOL * 100, FEASIBILITY_TOL):
        residual = float(np.abs(a @ x - b).max())
        return True, x, residual, None
    # Farkas vector from the reduced costs of the artificial columns,
    # mapped back through the row sign flips.
    y = 1.0 - red[n : n + m]
    y[flip] *= -1.0
    return False, None, float(obj), y


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the joint-distribution existence test."""

    feasible: bool
    witness: np.ndarray | None
    residual: float
    farkas: np.ndarray | None
    violated_inequalities: tuple[tuple[tuple[int, int], float], ...]
    assignments: tuple[tuple[int, int, int, int], ...]


def _no_signalling_check(table: CorrelationTable):
    """Marginals of one party must not depend on the other party's setting."""
    freq, counts = table.frequencies, table.counts
    # each party's outcome marginals and counts, indexed [own setting, remote setting]
    parties = ((freq.sum(axis=3), counts),
               (freq.sum(axis=2).transpose(1, 0, 2), None if counts is None else counts.T))
    problems = []
    for party, (marginals, n) in enumerate(parties, start=1):
        means = marginals[..., 0] - marginals[..., 1]
        for s in range(2):
            m0, m1 = means[s]
            tol = NORMALIZATION_TOL
            if n is not None:
                n0, n1 = max(int(n[s, 0]), 1), max(int(n[s, 1]), 1)
                tol = SIGNALLING_SE * math.sqrt(1.0 / n0 + 1.0 / n1)
            if abs(m0 - m1) > tol:
                problems.append(f"party {party} marginal at setting {s}: {m0:+.5f} vs {m1:+.5f} (tol {tol:.2g})")
    if problems:
        raise SignallingDataError("; ".join(problems))


def _canonical_frequencies(table: CorrelationTable) -> np.ndarray:
    """Rebuild exactly non-signalling tables from averaged marginals.

    A +-1 pair distribution is determined by (mean A, mean B, E); averaging
    each party's marginal over the remote setting removes the sampling
    jitter that would otherwise make exact feasibility vacuously fail.
    Already non-signalling input is reproduced unchanged.
    """
    freq = table.frequencies
    mean_a = np.array([freq[x, :, 0, :].sum() - freq[x, :, 1, :].sum() for x in range(2)]) / 2.0
    mean_b = np.array([freq[:, y, :, 0].sum() - freq[:, y, :, 1].sum() for y in range(2)]) / 2.0
    canon = _frequencies(_correlations(freq), mean_a, mean_b)
    if np.any(canon < -1e-6):
        raise InconsistentTableError(
            "canonical frequencies have a significantly negative entry; too few trials per setting pair?"
        )
    return np.clip(canon, 0.0, None)


def kolmogorov_feasible(table: CorrelationTable) -> FeasibilityVerdict:
    """Decide whether one joint distribution reproduces all four tables.

    Requires full frequencies.  Signalling beyond SIGNALLING_SE standard
    errors is rejected with a diagnostic rather than projected away.  The
    decision is made by exact linear feasibility over the 16 deterministic
    assignments; when infeasible, the verdict carries both the simplex
    Farkas certificate and the violated CHSH inequalities (there is always
    at least one for non-signalling data).
    """
    if table.frequencies is None:
        raise ValueError("feasibility test needs full outcome frequencies")
    _no_signalling_check(table)
    canon = _canonical_frequencies(table)
    a = _assignment_matrix()
    b = canon.reshape(16)
    feasible, x, residual, farkas = _phase1_simplex(a, b)
    assignments = tuple(_assignment_outcomes(k) for k in range(16))
    violated = tuple(
        (key, val)
        for key, val in fine_chsh_values(
            CorrelationTable.from_frequencies(table.a_settings, table.b_settings, canon)
        ).items()
        if abs(val) > 2.0 + FEASIBILITY_TOL
    )
    if feasible:
        return FeasibilityVerdict(True, x, residual, None, (), assignments)
    # certificate sanity: y^T A <= 0 on every assignment, y^T b > 0
    slack = float((farkas @ a).max())
    gain = float(farkas @ b)
    if slack > FEASIBILITY_TOL or gain <= 0.0:
        raise ArithmeticError("invalid Farkas certificate from simplex")
    if not violated:
        raise ArithmeticError(
            "simplex reports infeasible but no CHSH inequality is violated; "
            "inconsistent input"
        )
    return FeasibilityVerdict(False, None, residual, farkas, violated, assignments)


# ---------------------------------------------------------------------------
# Local hidden-variable reference model: deterministic responses to a shared
# random variable (an angle plus one flip coordinate per party).  Such a
# model always admits a joint distribution, so it pins down the classical
# side of every test above.  The pure sign-response model (flip probability
# zero) saturates one CHSH facet exactly at any angle set, so finite-sample
# tables from it straddle the polytope boundary; the flip probability
# LHV_FLIP pulls the model strictly inside by the visibility factor (1 - 2p)^2.

LHV_FLIP = 0.05


def _lhv_exact_correlation(a: float, b: float) -> float:
    """E[A B] for the sign-response model with a uniform shared angle.

    Both base responses are half-period square waves in lam with period pi,
    giving the triangle wave 1 - 4 delta / pi for offsets in [0, pi/2];
    independent flips with probability p = LHV_FLIP scale it by (1 - 2p)^2.
    """
    delta = math.fmod(b - a, math.pi)
    if delta < 0.0:
        delta += math.pi
    if delta <= math.pi / 2.0:
        base = 1.0 - 4.0 * delta / math.pi
    else:
        base = 4.0 * (delta - math.pi / 2.0) / math.pi - 1.0
    return (1.0 - 2.0 * LHV_FLIP) ** 2 * base


def lhv_exact_table(a_settings, b_settings) -> CorrelationTable:
    """Closed-form correlation table of the flip model (zero marginals)."""
    corr = [[_lhv_exact_correlation(a, b) for b in b_settings] for a in a_settings]
    return CorrelationTable.from_frequencies(tuple(a_settings), tuple(b_settings), _frequencies(corr))


def lhv_sampled_table(a_settings, b_settings, n_per_pair: int, seed: RandomSeed, stream: int) -> CorrelationTable:
    """Finite-sample table from the flip model (fresh hidden variable per trial).

    The four outcome counts of n independent trials are multinomial with
    the cell probabilities of `lhv_exact_table`, so they are drawn as such,
    one draw per setting pair from stream label (stream, x, y),
    without forming the trials.
    """
    if n_per_pair < 2:
        raise ValueError("n_per_pair must be >= 2")
    cells = lhv_exact_table(a_settings, b_settings).frequencies
    freq = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            rng = seed.stream((stream, x, y), 0)
            drawn = rng.multinomial(n_per_pair, cells[x, y].ravel())
            freq[x, y] = (drawn / n_per_pair).reshape(2, 2)
    counts = np.full((2, 2), n_per_pair, dtype=np.int64)
    return CorrelationTable.from_frequencies(tuple(a_settings), tuple(b_settings), freq, counts)


def singlet_exact_table(a_settings, b_settings) -> CorrelationTable:
    """Analytic singlet table E = -cos 2(a - b) with uniform marginals."""
    # math.cos, not np.cos: numpy's SIMD cosine may differ in the last ulp
    corr = [[-math.cos(2.0 * (a - b)) for b in b_settings] for a in a_settings]
    return CorrelationTable.from_frequencies(tuple(a_settings), tuple(b_settings), _frequencies(corr))


# ---------------------------------------------------------------------------
# Table files


def table_from_json(path) -> CorrelationTable:
    """Table from a JSON object with the `CorrelationTable` fields as keys.

    `a_settings`, `b_settings`, `correlations` and `standard_errors` are
    required; `frequencies` and `counts` may be null or absent.  A missing,
    malformed or inconsistent file raises TableFileError.
    """
    try:
        payload = read_json(path)
        return CorrelationTable(
            tuple(payload["a_settings"]),
            tuple(payload["b_settings"]),
            payload["correlations"],
            payload["standard_errors"],
            payload.get("frequencies"),
            payload.get("counts"),
        )
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:  # nesting too deep for the decoder
        raise TableFileError(f"cannot read correlation table {path}: {exc}") from exc
