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

    @classmethod
    def diagonal(cls, values) -> "HermitianOperator":
        vals = np.asarray(values, dtype=np.float64)
        return cls(np.diag(vals.astype(np.complex128)))

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

    def min_eigenvalue(self) -> float:
        return float(self.eig()[0][0])

    def to_payload(self) -> dict:
        from .serialize import operator_payload

        return operator_payload(self._matrix)

    def __repr__(self) -> str:
        return f"HermitianOperator(dim={self.dim})"


class DensityOperator:
    """Hermitian, positive semi-definite, unit-trace matrix."""

    __slots__ = ("_op",)

    def __init__(self, operator):
        if isinstance(operator, HermitianOperator):
            op = operator
        else:
            op = HermitianOperator(operator)
        wmin = op.min_eigenvalue()
        if wmin < -PSD_TOL:
            raise ValueError(f"density operator not PSD: min eigenvalue {wmin:.3e}")
        tr = np.trace(op.matrix)
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density operator trace {tr} differs from 1 beyond 1e-12")
        self._op = op

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityOperator":
        return cls(np.eye(dim) / dim)

    @property
    def operator(self) -> HermitianOperator:
        return self._op

    @property
    def matrix(self) -> np.ndarray:
        return self._op.matrix

    @property
    def dim(self) -> int:
        return self._op.dim

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def projector_from_state(psi: FieldVector) -> HermitianOperator:
    """Rank-1 orthogonal projector psi psi^+ onto the direction of psi.

    The state is normalized first, so the result is idempotent with unit
    trace for any nonzero input.
    """
    unit = psi.normalized().components
    return HermitianOperator(np.outer(unit, unit.conj()))


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


def tensor_product(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product acting on the composite space of dimension n_a * n_b."""
    return HermitianOperator(np.kron(a.matrix, b.matrix))


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


def partial_trace(op: HermitianOperator, dims: tuple[int, int], keep: int) -> HermitianOperator:
    """Trace out one tensor factor of an operator on a bipartite space.

    `dims` gives the factor dimensions (n1, n2) with n1 * n2 equal to the
    operator dimension; `keep` is 1 or 2.
    """
    n1, n2 = dims
    if n1 * n2 != op.dim:
        raise ValueError(f"dims {dims} incompatible with operator dimension {op.dim}")
    m = op.matrix.reshape(n1, n2, n1, n2)
    if keep == 1:
        out = np.einsum("ikjk->ij", m)
    elif keep == 2:
        out = np.einsum("kikj->ij", m)
    else:
        raise ValueError("keep must be 1 or 2")
    return HermitianOperator.symmetrized(out)
