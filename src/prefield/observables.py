"""Observables as functionals of the field, and their classical averages.

A quantum observable A enters as the quadratic form f_A(phi) = <A phi, phi>.
Its exact average over an ensemble with covariance D is Tr(D A); subtracting
the background contribution eps Tr A recovers the Born-rule value Tr(rho A).
A general smooth functional with f(0) = 0 maps to the operator given by half
its Hessian at the zero field, which is extracted here by Richardson-refined
central differences in the 2n real phase-space coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hilbert import HermitianOperator, trace_product
from .random_field import STREAM_FIELD, GaussianFieldEnsemble, RandomSeed, for_each_chunk, sample_powers

EVAL_IMAG_TOL = 1e-12
DEFAULT_FD_STEP = 1e-3


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

    @property
    def dim(self) -> int:
        return self._op.dim

    def evaluate_batch(self, samples: np.ndarray) -> np.ndarray:
        """Values on an (N, dim) batch of field samples."""
        x = np.asarray(samples, dtype=np.complex128)
        vals = np.einsum("ni,ij,nj->n", x.conj(), self._op.matrix, x)
        scale = max(1.0, float(np.abs(vals.real).max(initial=0.0)))
        if vals.size and float(np.abs(vals.imag).max()) > EVAL_IMAG_TOL * scale:
            raise ArithmeticError("quadratic form batch has imaginary residue")
        return vals.real


class FieldFunctional:
    """Smooth real functional of the field with f(0) = 0.

    The evaluator takes a complex coordinate array and must be side-effect
    free; `smoothness_order` is how often it is differentiable at zero.
    """

    __slots__ = ("evaluator", "dim", "smoothness_order")

    def __init__(self, evaluator: Callable[[np.ndarray], float], dim: int, smoothness_order: int = 2):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        at_zero = evaluator(np.zeros(dim, dtype=np.complex128))
        if at_zero != 0.0:
            raise ValueError(f"functional must map the zero field to zero, got f(0) = {at_zero!r}")
        self.evaluator = evaluator
        self.dim = dim
        self.smoothness_order = smoothness_order


def quadratic_functional(operator: HermitianOperator) -> FieldFunctional:
    """FieldFunctional of <A phi, phi>."""

    def evaluator(phi):
        return float(np.vdot(phi, operator.matrix @ phi).real)

    return FieldFunctional(evaluator, operator.dim)


def quartic_power_functional(dim: int, weight: float = 1.0) -> FieldFunctional:
    """f(phi) = weight * ||phi||^4; quartic, so its Hessian at zero vanishes."""

    def evaluator(phi):
        return float(weight) * float(np.vdot(phi, phi).real) ** 2

    return FieldFunctional(evaluator, dim, smoothness_order=4)


def quadratic_plus_quartic(operator: HermitianOperator, quartic_weight: float = 1.0) -> FieldFunctional:
    """f(phi) = <A phi, phi> + weight * ||phi||^4."""
    quad = quadratic_functional(operator)
    quart = quartic_power_functional(operator.dim, quartic_weight)

    def evaluator(phi):
        return quad.evaluator(phi) + quart.evaluator(phi)

    return FieldFunctional(evaluator, operator.dim, smoothness_order=4)


def classical_average_exact(ensemble: GaussianFieldEnsemble, form: QuadraticForm) -> float:
    """E f_A(phi) = Tr(D A), exactly, no sampling."""
    return trace_product(ensemble.covariance, form.operator)


def quadratic_form_values(
    ensemble: GaussianFieldEnsemble, form: QuadraticForm, n_samples: int, seed: RandomSeed,
    start_index: int = 0, workers: int = 1,
) -> np.ndarray:
    """f_A on the field samples [start_index, start_index + n_samples) of `ensemble`.

    With A = V diag(a) V^+, f_A(phi) = sum_k a_k |(V^+ phi)_k|^2: V^+ is folded
    into the sampling factor and each chunk's channel powers (`sample_powers`)
    give the values, so memory is one chunk per worker plus the values.
    """
    weights, basis = form.operator.eig()
    factor = basis.conj().T @ ensemble.sampler_factor
    vals = np.empty(n_samples)

    def fill(lo: int, hi: int) -> None:
        powers = sample_powers(factor, hi - lo, seed, lo, STREAM_FIELD)
        vals[lo - start_index : hi - start_index] = powers @ weights

    for_each_chunk(fill, start_index, start_index + n_samples, workers)
    return vals


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
    that no Hermitian operator can represent; if it exceeds the tolerance,
    `representable` is False and `operator` is the best phase-invariant
    part.
    """

    operator: HermitianOperator
    representable: bool
    phase_defect: float
    tolerance: float
    step: float
    real_hessian: np.ndarray


def _fd_hessian(func: Callable[[np.ndarray], float], dim2: int, h: float) -> np.ndarray:
    """Central-difference Hessian at the origin in dim2 real coordinates."""

    def f(x):
        val = float(func(x))
        if not np.isfinite(val):
            raise ArithmeticError(f"functional returned non-finite value {val!r} during differentiation")
        return val

    hess = np.empty((dim2, dim2))
    e = np.eye(dim2)
    diag_plus = np.array([f(h * e[i]) for i in range(dim2)])
    diag_minus = np.array([f(-h * e[i]) for i in range(dim2)])
    for i in range(dim2):
        hess[i, i] = (diag_plus[i] + diag_minus[i]) / h**2  # f(0) = 0 by contract
        for jdx in range(i + 1, dim2):
            pp = f(h * (e[i] + e[jdx]))
            pm = f(h * (e[i] - e[jdx]))
            mp = f(-h * (e[i] - e[jdx]))
            mm = f(-h * (e[i] + e[jdx]))
            val = (pp - pm - mp + mm) / (4.0 * h**2)
            hess[i, jdx] = val
            hess[jdx, i] = val
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
    if functional.smoothness_order < 2:
        raise ValueError("functional must be at least twice differentiable at 0")
    n = functional.dim

    def as_real(func):
        def wrapped(x):
            return func(x[:n] + 1j * x[n:])

        return wrapped

    f = as_real(functional.evaluator)
    coarse = _fd_hessian(f, 2 * n, step)
    fine = _fd_hessian(f, 2 * n, step / 2.0)
    hess = (4.0 * fine - coarse) / 3.0

    m = hess / 2.0
    a_qq = m[:n, :n]
    a_qp = m[:n, n:]
    a_pq = m[n:, :n]
    a_pp = m[n:, n:]
    r = (a_qq + a_pp) / 2.0
    r = (r + r.T) / 2.0
    j = (a_pq - a_qp) / 2.0
    j = (j - j.T) / 2.0
    phase_defect = max(
        float(np.abs(a_qq - a_pp).max()),
        float(np.abs(a_qp + a_pq).max()),
    )
    tol = 10.0 * step**2
    return HessianExtraction(
        operator=HermitianOperator(r + 1j * j),
        representable=phase_defect <= tol,
        phase_defect=phase_defect,
        tolerance=tol,
        step=step,
        real_hessian=hess,
    )
