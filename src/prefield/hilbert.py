"""Finite-dimensional complex linear algebra substrate.

Field samples and quantum states are complex coordinate vectors;
observables, Hamiltonians, density matrices and covariance blocks are
Hermitian matrices.  The inner product is conjugate-linear in its second
argument,

    <u, v> = sum_k u_k conj(v_k),

so the projector onto a unit vector psi acts as P u = <u, psi> psi and its
matrix is the plain outer product psi psi^dagger.  Everything is dense and
desk-scale; all objects are immutable after construction and safe to share
across workers.
"""

from __future__ import annotations

import numpy as np

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_IMAG_TOL = 1e-12


def _as_complex_vector(values) -> np.ndarray:
    arr = np.array(values, dtype=np.complex128, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"vector must be one-dimensional, got shape {arr.shape}")
    if arr.size < 1:
        raise ValueError("vector must have dimension >= 1")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("vector components must be finite")
    arr.setflags(write=False)
    return arr


class FieldVector:
    """Complex coordinate vector: a single field sample or a state vector."""

    __slots__ = ("_components",)

    def __init__(self, components):
        self._components = _as_complex_vector(components)

    @property
    def components(self) -> np.ndarray:
        return self._components

    @property
    def dim(self) -> int:
        return self._components.size

    def norm(self) -> float:
        return float(np.linalg.norm(self._components))

    def normalized(self) -> "FieldVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return FieldVector(self._components / n)

    def __repr__(self) -> str:
        return f"FieldVector(dim={self.dim})"


class HermitianOperator:
    """Self-adjoint matrix: observable, Hamiltonian, or covariance block.

    Construction rejects matrices whose Hermiticity defect max|M - M^+|
    exceeds ``HERMITICITY_TOL``.  Use `symmetrized` to project an almost-
    Hermitian matrix explicitly; it is never done silently.
    """

    __slots__ = ("_matrix", "_eig")

    def __init__(self, matrix):
        arr = np.array(matrix, dtype=np.complex128, copy=True)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"operator must be a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
            raise ValueError("operator entries must be finite")
        defect = float(np.abs(arr - arr.conj().T).max())
        if defect > HERMITICITY_TOL:
            raise ValueError(
                f"matrix is not Hermitian: max|M - M^+| = {defect:.3e} "
                f"(tolerance {HERMITICITY_TOL:.0e}); use HermitianOperator.symmetrized"
            )
        arr.setflags(write=False)
        self._matrix = arr
        self._eig = None

    @classmethod
    def symmetrized(cls, matrix) -> "HermitianOperator":
        """Explicit Hermitian projection (M + M^+)/2."""
        arr = np.asarray(matrix, dtype=np.complex128)
        return cls((arr + arr.conj().T) / 2.0)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self._matrix).real)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached eigendecomposition (ascending eigenvalues, unitary columns)."""
        if self._eig is None:
            w, v = np.linalg.eigh(self._matrix)
            w.setflags(write=False)
            v.setflags(write=False)
            self._eig = (w, v)
        return self._eig

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


def trace_product(d: HermitianOperator, a: HermitianOperator) -> float:
    """Re Tr(D A) for Hermitian D, A; the pairing behind every exact average.

    Tr(DA) is real for Hermitian arguments; a residual imaginary part above
    ``TRACE_IMAG_TOL`` indicates corrupted inputs and raises.
    """
    if d.dim != a.dim:
        raise ValueError(f"dimension mismatch: {d.dim} vs {a.dim}")
    t = complex(np.trace(d.matrix @ a.matrix))
    if abs(t.imag) > TRACE_IMAG_TOL:
        raise ArithmeticError(f"Tr(DA) has imaginary residue {t.imag:.3e}")
    return t.real


def kron_vector(psi1: FieldVector, psi2: FieldVector) -> FieldVector:
    """Product vector with components (psi1 kron psi2)_{jn+k} = psi1_j psi2_k."""
    return FieldVector(np.kron(psi1.components, psi2.components))


def state_average(a: HermitianOperator, psi: FieldVector) -> float:
    """<A psi, psi> for a unit-normalized copy of psi (reference oracle)."""
    unit = psi.normalized().components
    val = complex(np.vdot(unit, a.matrix @ unit))
    if abs(val.imag) > TRACE_IMAG_TOL:
        raise ArithmeticError(f"<A psi, psi> has imaginary residue {val.imag:.3e}")
    return val.real
