"""Observables as functionals of the field, and their classical averages.

A quantum observable A enters as the quadratic form f_A(phi) = <A phi, phi>.
Its exact average over an ensemble with covariance D is Tr(D A); subtracting
the background contribution eps Tr A recovers the Born-rule value Tr(rho A).
A general smooth functional with f(0) = 0 maps to the operator given by half
its Hessian at the zero field, which is extracted here by Richardson-refined
central differences in the 2n real phase-space coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import HermitianOperator, trace_product
from .random_field import SAMPLE_BLOCK, GaussianFieldEnsemble, RandomSeed, for_each_chunk, sample_powers

EVAL_IMAG_TOL = 1e-12
DEFAULT_FD_STEP = 1e-3
FD_SLICE_ELEMENTS = 1 << 16  # stencil points x real coordinates per evaluator call


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error and sample count."""

    mean: float
    standard_error: float
    n_samples: int


class QuadraticForm:
    """f_A(phi) = <A phi, phi>; real-valued for Hermitian A."""

    __slots__ = ("_op",)

    def __init__(self, operator: HermitianOperator):
        self._op = operator

    @property
    def operator(self) -> HermitianOperator:
        return self._op

    def evaluate_batch(self, samples: np.ndarray) -> np.ndarray:
        """Values on an (N, dim) batch of field samples."""
        x = np.asarray(samples, dtype=np.complex128)
        vals = np.einsum("mi,mi->m", x.conj(), x @ self._op.matrix.T)
        scale = max(1.0, float(np.abs(vals.real).max(initial=0.0)))
        if vals.size and float(np.abs(vals.imag).max()) > EVAL_IMAG_TOL * scale:
            raise ArithmeticError("quadratic form batch has imaginary residue")
        return vals.real


def _one_per_row(values: np.ndarray, rows: int) -> np.ndarray:
    if values.shape != (rows,):
        raise ValueError(f"evaluator must return one value per row: expected shape ({rows},), got {values.shape}")
    return values


class FieldFunctional:
    """Smooth real functional of the field with f(0) = 0.

    The evaluator maps an (m, dim) complex array of fields to their m real
    values and must be side-effect free.
    """

    __slots__ = ("evaluator", "dim")

    def __init__(self, evaluator: Callable[[np.ndarray], np.ndarray], dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        at_zero = np.asarray(evaluator(np.zeros((1, dim), dtype=np.complex128)), dtype=float)
        if np.any(at_zero != 0.0):
            raise ValueError(f"functional must map the zero field to zero, got f(0) = {at_zero!r}")
        _one_per_row(at_zero, 1)
        self.evaluator = evaluator
        self.dim = dim


def quadratic_functional(operator: HermitianOperator) -> FieldFunctional:
    """FieldFunctional of <A phi, phi>."""
    return FieldFunctional(QuadraticForm(operator).evaluate_batch, operator.dim)


def quartic_power_functional(dim: int) -> FieldFunctional:
    """f(phi) = ||phi||^4; quartic, so its Hessian at zero vanishes."""

    def evaluator(phi):
        return np.einsum("mi,mi->m", phi.conj(), phi).real ** 2

    return FieldFunctional(evaluator, dim)


def quadratic_plus_quartic(operator: HermitianOperator) -> FieldFunctional:
    """f(phi) = <A phi, phi> + ||phi||^4."""
    quad = quadratic_functional(operator)
    quart = quartic_power_functional(operator.dim)

    def evaluator(phi):
        return quad.evaluator(phi) + quart.evaluator(phi)

    return FieldFunctional(evaluator, operator.dim)


def classical_average_exact(ensemble: GaussianFieldEnsemble, form: QuadraticForm) -> float:
    """E f_A(phi) = Tr(D A), exactly, no sampling."""
    return trace_product(ensemble.covariance, form.operator)


def quadratic_form_mc(
    ensemble: GaussianFieldEnsemble, form: QuadraticForm, n_samples: int, seed: RandomSeed, stream, stops, workers: int
) -> tuple[MCEstimate, np.ndarray]:
    """Mean and SE of f_A over the field samples [0, n_samples) of `stream`, and its running means at ascending `stops`.

    With A = V diag(a) V^+, f_A(phi) = sum_k a_k |(V^+ phi)_k|^2: V^+ is folded
    into the sampling factor and each chunk's channel powers (`sample_powers`)
    give the values.  Shifted by the exact mean Tr(DA), so that the sum of
    squares cancels benignly, each Philox block is reduced to its sum, its
    sum of squares and its cumsum at the stops it holds, and the blocks are
    added in block order; memory is one chunk per worker.
    One sample is refused: a one-row `powers @ weights` rounds differently.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    exact = classical_average_exact(ensemble, form)
    weights, basis = form.operator.eig()
    factor = basis.conj().T @ ensemble.sampler_factor

    def reduce(lo: int, hi: int) -> list:
        shifted = sample_powers(factor, hi - lo, seed, lo, stream) @ weights - exact
        blocks = []
        for start in range(lo, hi, SAMPLE_BLOCK):
            u = shifted[start - lo : start - lo + SAMPLE_BLOCK]
            first, last = np.searchsorted(stops, (start, start + u.size), side="right")  # the stops in (start, end]
            local = np.cumsum(u)[stops[first:last] - 1 - start] if first < last else np.empty(0)
            blocks.append((u.sum(), np.square(u).sum(), local))
        return blocks

    sums, squares, local = zip(*(block for chunk in for_each_chunk(reduce, n_samples, workers) for block in chunk))
    before = np.cumsum((0.0, *sums))  # the shifted sum before each block, added in block order
    variance = max(float(sum(squares) - before[-1] ** 2 / n_samples), 0.0) / (n_samples - 1)
    running = exact + np.concatenate([total + block for total, block in zip(before, local)]) / stops
    return MCEstimate(float(exact + before[-1] / n_samples), math.sqrt(variance / n_samples), n_samples), running


def renormalize(average: float, operator: HermitianOperator, epsilon: float) -> float:
    """Subtract the background contribution eps Tr A from a classical average.

    Applied to the exact average Tr((rho + eps I) A) this recovers the
    Born-rule value Tr(rho A) identically; this is the model's counterpart
    of detector calibration.
    """
    return float(average) - float(epsilon) * operator.trace()


@dataclass(frozen=True)
class HessianExtraction:
    """Result of recovering the operator behind a smooth functional.

    `operator` is half the Hessian at the zero field reassembled as a
    complex matrix.  `phase_defect` measures couplings of phi phi^T type
    that no Hermitian operator can represent; if it exceeds 10 step**2,
    `representable` is False and `operator` is the best phase-invariant
    part.
    """

    operator: HermitianOperator
    representable: bool
    phase_defect: float


def _fd_hessians(evaluator: Callable[[np.ndarray], np.ndarray], n: int, steps) -> np.ndarray:
    """Central-difference Hessians at the zero field in the 2n real coordinates x = (q, p), one per step.

    The stencils +-h e_i and +-h (e_i +- e_j), i < j, of all steps h are
    built as rows of one array of points phi = q + ip and evaluated in slices
    of at most FD_SLICE_ELEMENTS real coordinates, so memory stays O(n**2).
    """
    h, dim2 = np.asarray(steps, dtype=float), 2 * n
    iu, ju = np.triu_indices(dim2, k=1)
    diag = np.arange(dim2)
    counts = [dim2, dim2] + [len(iu)] * 4
    # stencil point p sets coordinate first[p] to first_sign[p] * h, then adds
    # second_sign[p] * h to coordinate second[p] (zero on the diagonal points);
    # row k of all steps' points is point k % points at step h[k // points]
    first = np.concatenate((diag, diag, iu, iu, iu, iu))
    second = np.concatenate((diag, diag, ju, ju, ju, ju))
    first_sign = np.repeat([1.0, -1.0, 1.0, 1.0, -1.0, -1.0], counts)
    second_sign = np.repeat([0.0, 0.0, 1.0, -1.0, 1.0, -1.0], counts)
    points = len(first)
    values = np.empty(len(h) * points)
    rows = max(1, FD_SLICE_ELEMENTS // dim2)
    for lo in range(0, len(values), rows):
        k = np.arange(lo, min(lo + rows, len(values)))
        point, step = k % points, h[k // points]
        x = np.zeros((len(k), dim2))
        r = np.arange(len(k))
        x[r, first[point]] = first_sign[point] * step
        x[r, second[point]] += second_sign[point] * step
        values[k] = _one_per_row(np.asarray(evaluator(x[:, :n] + 1j * x[:, n:]), dtype=float), len(k))
    bad = values[~np.isfinite(values)]
    if bad.size:
        raise ArithmeticError(f"functional returned non-finite value {float(bad[0])!r} during differentiation")

    values = values.reshape(len(h), points)
    h2 = h[:, None] ** 2
    pp, pm, mp, mm = values[:, 2 * dim2 :].reshape(len(h), 4, -1).transpose(1, 0, 2)
    hess = np.empty((len(h), dim2, dim2))
    hess[:, diag, diag] = (values[:, :dim2] + values[:, dim2 : 2 * dim2]) / h2  # f(0) = 0 by contract
    hess[:, iu, ju] = hess[:, ju, iu] = (pp - pm - mp + mm) / (4.0 * h2)
    return hess


def hessian_extract(
    functional: FieldFunctional, step: float = DEFAULT_FD_STEP
) -> HessianExtraction:
    """Operator A with quadratic part <A phi, phi> = half the Hessian of f at 0.

    Differentiation runs in the stacked real coordinates x = (q, p) with
    phi = q + ip.  Central differences at steps h and h/2 are combined by
    Richardson extrapolation, which cancels the h^2 truncation term
    exactly; for a quadratic-plus-quartic functional the recovery is then
    limited only by round-off.  A representable quadratic part has the
    block structure [[R, -J], [J, R]] with R symmetric and J antisymmetric;
    deviations from it (phi phi^T couplings) are reported as the phase
    defect instead of being silently projected away.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = functional.dim
    coarse, fine = _fd_hessians(functional.evaluator, n, (step, step / 2.0))
    hess = (4.0 * fine - coarse) / 3.0

    m = hess / 2.0
    a_qq, a_qp, a_pq, a_pp = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    r = (a_qq + a_pp) / 2.0
    r = (r + r.T) / 2.0
    j = (a_pq - a_qp) / 2.0
    j = (j - j.T) / 2.0
    phase_defect = max(float(np.abs(a_qq - a_pp).max()), float(np.abs(a_qp + a_pq).max()))
    return HessianExtraction(HermitianOperator(r + 1j * j), phase_defect <= 10.0 * step**2, phase_defect)
