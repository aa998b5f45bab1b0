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

`triangle_angle_test` is the geometric cousin: summing the three angles of
a triangle and comparing with the flat value detects curvature just as
CHSH detects the absence of a joint distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detection import NoCoincidencesError
from .random_field import STREAM_HIDDEN_VARIABLE, RandomSeed
from .serialize import read_json, write_json

NORMALIZATION_TOL = 1e-9
FEASIBILITY_TOL = 1e-7

_OUTCOMES = (1, -1)


class SignallingDataError(ValueError):
    """Marginals depend on the remote setting: outside the model class."""


@dataclass(frozen=True)
class CorrelationTable:
    """Correlations (and optionally full frequencies) for a 2x2x2 Bell scenario.

    `correlations[x, y]` estimates E(a_x, b_y); `frequencies[x, y, i, j]`
    is the probability of outcomes (_OUTCOMES[i], _OUTCOMES[j]) under
    settings (x, y).  `counts[x, y]` are the accepted-trial counts behind
    the estimates, used for standard-error arithmetic.
    """

    a_settings: tuple[float, float]
    b_settings: tuple[float, float]
    correlations: np.ndarray
    standard_errors: np.ndarray
    frequencies: np.ndarray | None = None
    counts: np.ndarray | None = None

    def __post_init__(self):
        corr = np.array(self.correlations, dtype=np.float64)
        errs = np.array(self.standard_errors, dtype=np.float64)
        if corr.shape != (2, 2) or errs.shape != (2, 2):
            raise ValueError("correlations and standard_errors must be 2x2")
        if np.any(np.abs(corr) > 1.0 + NORMALIZATION_TOL):
            raise ValueError("correlations must lie in [-1, 1]")
        if np.any(errs < 0.0):
            raise ValueError("standard errors must be non-negative")
        corr.setflags(write=False)
        errs.setflags(write=False)
        object.__setattr__(self, "correlations", corr)
        object.__setattr__(self, "standard_errors", errs)
        if self.frequencies is not None:
            freq = np.array(self.frequencies, dtype=np.float64)
            if freq.shape != (2, 2, 2, 2):
                raise ValueError("frequencies must have shape (2, 2, 2, 2)")
            if np.any(freq < -NORMALIZATION_TOL):
                raise ValueError("frequencies must be non-negative")
            sums = freq.sum(axis=(2, 3))
            if np.any(np.abs(sums - 1.0) > NORMALIZATION_TOL):
                raise ValueError("each setting pair's frequencies must sum to 1")
            freq.setflags(write=False)
            object.__setattr__(self, "frequencies", freq)
        if self.counts is not None:
            cnt = np.array(self.counts, dtype=np.int64)
            if cnt.shape != (2, 2):
                raise ValueError("counts must be 2x2")
            cnt.setflags(write=False)
            object.__setattr__(self, "counts", cnt)

    @classmethod
    def from_frequencies(cls, a_settings, b_settings, frequencies, counts=None) -> "CorrelationTable":
        freq = np.asarray(frequencies, dtype=np.float64)
        corr = np.empty((2, 2))
        errs = np.empty((2, 2))
        for x in range(2):
            for y in range(2):
                p = freq[x, y]
                corr[x, y] = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
                if counts is not None and counts[x][y] > 0:
                    errs[x, y] = math.sqrt(
                        max(0.0, 1.0 - corr[x, y] ** 2) / counts[x][y]
                    )
                else:
                    errs[x, y] = 0.0
        return cls(tuple(a_settings), tuple(b_settings), corr, errs, freq, counts)

    @classmethod
    def from_trial_batches(cls, a_settings, b_settings, batches) -> "CorrelationTable":
        """Build from detection trial batches keyed by setting indices (x, y).

        Frequencies are over the trials each batch's policy accepts (single-click
        coincidences by default), read from the batch's click-code histogram.
        """
        freq = np.zeros((2, 2, 2, 2))
        counts = np.zeros((2, 2), dtype=np.int64)
        for (x, y), batch in batches.items():
            if not batch.bipartite:
                raise ValueError("correlation tables need bipartite trial batches")
            cells = batch.coincidences()
            n_acc = int(cells.sum())
            if n_acc == 0:
                raise NoCoincidencesError(f"no accepted coincidences for settings {(x, y)}")
            freq[x, y] = cells / n_acc
            counts[x, y] = n_acc
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
    m = np.zeros((16, 16))
    for k in range(16):
        a1, a2, b1, b2 = _assignment_outcomes(k)
        a = (a1, a2)
        b = (b1, b2)
        for x in range(2):
            for y in range(2):
                i = 0 if a[x] == 1 else 1
                j = 0 if b[y] == 1 else 1
                row = ((x * 2) + y) * 4 + i * 2 + j
                m[row, k] = 1.0
    return m


def _phase1_simplex(a: np.ndarray, b: np.ndarray, tol: float = 1e-11):
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
            if red[jdx] < -tol:
                entering = jdx
                break  # Bland: smallest eligible index
        if entering < 0:
            break
        ratios = []
        for i in range(m):
            if tab[i, entering] > tol:
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
    if obj <= max(tol * 100, FEASIBILITY_TOL):
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
    canonical_frequencies: np.ndarray
    assignments: tuple[tuple[int, int, int, int], ...]


def _no_signalling_check(table: CorrelationTable, se_factor: float = 5.0):
    """Marginals of one party must not depend on the other party's setting."""
    freq = table.frequencies
    problems = []
    for x in range(2):
        m0 = freq[x, 0, 0, :].sum() - freq[x, 0, 1, :].sum()
        m1 = freq[x, 1, 0, :].sum() - freq[x, 1, 1, :].sum()
        tol = NORMALIZATION_TOL
        if table.counts is not None:
            n0, n1 = max(int(table.counts[x, 0]), 1), max(int(table.counts[x, 1]), 1)
            tol = se_factor * math.sqrt(1.0 / n0 + 1.0 / n1)
        if abs(m0 - m1) > tol:
            problems.append(f"party 1 marginal at setting {x}: {m0:+.5f} vs {m1:+.5f} (tol {tol:.2g})")
    for y in range(2):
        m0 = freq[0, y, :, 0].sum() - freq[0, y, :, 1].sum()
        m1 = freq[1, y, :, 0].sum() - freq[1, y, :, 1].sum()
        tol = NORMALIZATION_TOL
        if table.counts is not None:
            n0, n1 = max(int(table.counts[0, y]), 1), max(int(table.counts[1, y]), 1)
            tol = se_factor * math.sqrt(1.0 / n0 + 1.0 / n1)
        if abs(m0 - m1) > tol:
            problems.append(f"party 2 marginal at setting {y}: {m0:+.5f} vs {m1:+.5f} (tol {tol:.2g})")
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
    corr = np.empty((2, 2))
    for x in range(2):
        for y in range(2):
            p = freq[x, y]
            corr[x, y] = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
    mean_a = np.array(
        [freq[x, :, 0, :].sum() - freq[x, :, 1, :].sum() for x in range(2)]
    ) / 2.0
    mean_b = np.array(
        [freq[:, y, :, 0].sum() - freq[:, y, :, 1].sum() for y in range(2)]
    ) / 2.0
    canon = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for i, a in enumerate(_OUTCOMES):
                for j, b in enumerate(_OUTCOMES):
                    canon[x, y, i, j] = (
                        1.0 + a * mean_a[x] + b * mean_b[y] + a * b * corr[x, y]
                    ) / 4.0
    if np.any(canon < -1e-6):
        raise ValueError("canonical frequencies have a significantly negative entry")
    return np.clip(canon, 0.0, None)


def kolmogorov_feasible(table: CorrelationTable, se_factor: float = 5.0) -> FeasibilityVerdict:
    """Decide whether one joint distribution reproduces all four tables.

    Requires full frequencies.  Signalling beyond `se_factor` standard
    errors is rejected with a diagnostic rather than projected away.  The
    decision is made by exact linear feasibility over the 16 deterministic
    assignments; when infeasible, the verdict carries both the simplex
    Farkas certificate and the violated CHSH inequalities (there is always
    at least one for non-signalling data).
    """
    if table.frequencies is None:
        raise ValueError("feasibility test needs full outcome frequencies")
    _no_signalling_check(table, se_factor)
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
        return FeasibilityVerdict(True, x, residual, None, (), canon, assignments)
    if farkas is not None:
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
    return FeasibilityVerdict(False, None, residual, farkas, violated, canon, assignments)


def triangle_angle_test(
    angles, flat_sum: float = math.pi, tolerance: float = 1e-9
) -> str:
    """Classify an angle-sum measurement as flat, deficit, or excess.

    The flat reference is a parameter: pi for interior angles of a plane
    triangle; conventions measuring angles between extended sides total
    2 pi instead.  A deficit diagnoses hyperbolic geometry the same way a
    CHSH violation diagnoses the absence of a joint distribution.
    """
    vals = [float(v) for v in angles]
    if len(vals) != 3:
        raise ValueError("need exactly three angles")
    for v in vals:
        if not 0.0 < v < flat_sum:
            raise ValueError(f"each angle must lie in (0, {flat_sum:.6g}), got {v:.6g}")
    total = sum(vals)
    if abs(total - flat_sum) <= tolerance:
        return "flat"
    return "deficit" if total < flat_sum else "excess"


# ---------------------------------------------------------------------------
# Local hidden-variable reference model: deterministic responses to a shared
# random variable (an angle plus one flip coordinate per party).  Such a
# model always admits a joint distribution, so it pins down the classical
# side of every test above.  The pure sign-response model (flip probability
# zero) saturates one CHSH facet exactly at any angle set, so finite-sample
# tables from it straddle the polytope boundary; a positive flip probability
# pulls the model strictly inside by the visibility factor (1 - 2p)^2.

DEFAULT_LHV_FLIP = 0.05


def lhv_response(lam: float, setting: float, flip: float = 1.0, flip_probability: float = 0.0) -> int:
    """Deterministic +-1 response: sign of cos 2(lam - setting), inverted
    when the hidden flip coordinate falls below the flip probability."""
    base = 1 if math.cos(2.0 * (lam - setting)) >= 0.0 else -1
    return -base if flip < flip_probability else base


def _lhv_exact_correlation(a: float, b: float, flip_probability: float) -> float:
    """E[A B] for the sign-response model with a uniform shared angle.

    Both base responses are half-period square waves in lam with period pi,
    giving the triangle wave 1 - 4 delta / pi for offsets in [0, pi/2];
    independent flips scale it by (1 - 2p)^2.
    """
    delta = math.fmod(b - a, math.pi)
    if delta < 0.0:
        delta += math.pi
    if delta <= math.pi / 2.0:
        base = 1.0 - 4.0 * delta / math.pi
    else:
        base = 4.0 * (delta - math.pi / 2.0) / math.pi - 1.0
    return (1.0 - 2.0 * flip_probability) ** 2 * base


def lhv_exact_table(
    a_settings, b_settings, flip_probability: float = DEFAULT_LHV_FLIP
) -> CorrelationTable:
    """Closed-form correlation table of the flip model (zero marginals)."""
    freq = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            e = _lhv_exact_correlation(a_settings[x], b_settings[y], flip_probability)
            for i, a in enumerate(_OUTCOMES):
                for j, b in enumerate(_OUTCOMES):
                    freq[x, y, i, j] = (1.0 + a * b * e) / 4.0
    return CorrelationTable.from_frequencies(tuple(a_settings), tuple(b_settings), freq)


def lhv_sampled_table(
    a_settings,
    b_settings,
    n_per_pair: int,
    seed: RandomSeed,
    flip_probability: float = DEFAULT_LHV_FLIP,
) -> CorrelationTable:
    """Finite-sample table from the flip model (fresh hidden variable per trial)."""
    if n_per_pair < 2:
        raise ValueError("n_per_pair must be >= 2")
    freq = np.zeros((2, 2, 2, 2))
    counts = np.zeros((2, 2), dtype=np.int64)
    for x in range(2):
        for y in range(2):
            rng = seed.stream(STREAM_HIDDEN_VARIABLE, x * 2 + y)
            lam = rng.uniform(0.0, math.pi, size=n_per_pair)
            flips_a = rng.uniform(0.0, 1.0, size=n_per_pair) < flip_probability
            flips_b = rng.uniform(0.0, 1.0, size=n_per_pair) < flip_probability
            out_a = np.where(np.cos(2.0 * (lam - a_settings[x])) >= 0.0, 1, -1)
            out_b = np.where(np.cos(2.0 * (lam - b_settings[y])) >= 0.0, 1, -1)
            out_a = np.where(flips_a, -out_a, out_a)
            out_b = np.where(flips_b, -out_b, out_b)
            for i, a in enumerate(_OUTCOMES):
                for j, b in enumerate(_OUTCOMES):
                    freq[x, y, i, j] = float(((out_a == a) & (out_b == b)).mean())
            counts[x, y] = n_per_pair
    return CorrelationTable.from_frequencies(tuple(a_settings), tuple(b_settings), freq, counts)


def singlet_exact_table(a_settings, b_settings) -> CorrelationTable:
    """Analytic singlet table E = -cos 2(a - b) with uniform marginals."""
    freq = np.empty((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            e = -math.cos(2.0 * (a_settings[x] - b_settings[y]))
            for i, a in enumerate(_OUTCOMES):
                for j, b in enumerate(_OUTCOMES):
                    freq[x, y, i, j] = (1.0 + a * b * e) / 4.0
    return CorrelationTable.from_frequencies(tuple(a_settings), tuple(b_settings), freq)


# ---------------------------------------------------------------------------
# Table files


def table_to_json(table: CorrelationTable, path) -> None:
    payload = {
        "a_settings": list(table.a_settings),
        "b_settings": list(table.b_settings),
        "correlations": table.correlations.tolist(),
        "standard_errors": table.standard_errors.tolist(),
        "frequencies": None if table.frequencies is None else table.frequencies.tolist(),
        "counts": None if table.counts is None else table.counts.tolist(),
    }
    write_json(path, payload)


def table_from_json(path) -> CorrelationTable:
    payload = read_json(path)
    return CorrelationTable(
        tuple(payload["a_settings"]),
        tuple(payload["b_settings"]),
        np.asarray(payload["correlations"], dtype=np.float64),
        np.asarray(payload["standard_errors"], dtype=np.float64),
        None if payload.get("frequencies") is None else np.asarray(payload["frequencies"]),
        None if payload.get("counts") is None else np.asarray(payload["counts"]),
    )
