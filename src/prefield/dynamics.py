"""Hamiltonian evolution of fields and covariance operators.

With hbar fixed at 1 the field obeys d(phi)/dt = -i H phi.  In the real
phase-space coordinates phi = q + ip this is the Hamilton system

    dq/dt = dH/dp,   dp/dt = -dH/dq,   H(q, p) = <H_op phi, phi> / 2,

and splitting H_op = R + iJ (R symmetric, J antisymmetric) gives

    dq/dt = R p + J q,   dp/dt = -R q + J p.

The factor 1/2 in the Hamilton function is exactly what makes the flow
coincide with multiplication by exp(-i t H_op); both routes are provided.
The exact propagator comes from the eigendecomposition and is the oracle;
the time stepper is a Stoermer-Verlet (leapfrog) step for the separable R
part, wrapped in Strang fashion by the exact rotation exp(dt J / 2) of the
J part.  Every piece is linear, so one step is a single fixed real
2n x 2n matrix M acting on the stacked phase vector x = (q, p), and k steps
are M^k, formed by repeated squaring: any number of steps is one
matrix-vector product.  The composition is symplectic and second order, so
the energy and norm stay within a bounded oscillation for all times instead
of drifting.

Covariances push forward as D -> U D U^+, which solves the von Neumann
equation dD/dt = -i [H_op, D]; a background block eps I commutes with U
and is left exactly in place.
"""

from __future__ import annotations

import numpy as np

from .hilbert import HermitianOperator
from .random_field import GaussianFieldEnsemble

UNITARITY_TOL = 1e-10


class HamiltonianSystem:
    """Energy observable H_op together with its Hamilton function."""

    __slots__ = ("_r", "_j")

    def __init__(self, h_op: HermitianOperator):
        r = h_op.matrix.real
        j = h_op.matrix.imag
        # Hermiticity makes Re symmetric and Im antisymmetric up to round-off;
        # enforce it exactly so the split flows stay Hamiltonian.
        self._r = (r + r.T) / 2.0
        self._j = (j - j.T) / 2.0

    @property
    def r_block(self) -> np.ndarray:
        return self._r

    @property
    def j_block(self) -> np.ndarray:
        return self._j

    def hamilton_function(self, x: np.ndarray) -> np.ndarray:
        """H(q, p) = <H_op phi, phi> / 2 = (q^T R q + p^T R p - 2 q^T J p) / 2 at each x = (q, p) on the last axis."""
        n = self._r.shape[0]
        q, p = x[..., :n], x[..., n:]
        return 0.5 * ((q @ self._r) * q + (p @ self._r) * p - 2.0 * (p @ self._j.T) * q).sum(axis=-1)


def exact_propagator(h_op: HermitianOperator, t: float) -> np.ndarray:
    """U(t) = exp(-i t H_op) via the eigendecomposition of H_op."""
    w, v = h_op.eig()
    u = (v * np.exp(-1j * t * w)) @ v.conj().T
    defect = float(np.abs(u.conj().T @ u - np.eye(h_op.dim)).max())
    if defect > UNITARITY_TOL:
        raise ArithmeticError(f"propagator unitarity defect {defect:.3e}")
    return u


def _expm_antisymmetric(j: np.ndarray, t: float) -> np.ndarray:
    """exp(t J) for real antisymmetric J, via the Hermitian matrix iJ."""
    w, v = np.linalg.eigh(1j * j)
    return ((v * np.exp(-1j * t * w)) @ v.conj().T).real


class SymplecticIntegrator:
    """`steps` Strang steps of size dt: exact half-rotations of J around a Verlet step of R.

    One step of size dt maps the stacked phase vector x = (q, p) by

        half J rotation -> R kick (dt/2) -> R drift (dt) -> R kick (dt/2)
        -> half J rotation,

    every piece a linear symplectic map.  Their product M is the real
    2n x 2n matrix of one step, and `matrix` is M^steps, formed by repeated
    squaring, so `step` advances all `steps` steps in one product.  For real
    Hamiltonians (J = 0) this is plain leapfrog.
    """

    __slots__ = ("matrix",)

    def __init__(self, system: HamiltonianSystem, dt: float, steps: int):
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        r = system.r_block
        eye, zero = np.eye(len(r)), np.zeros_like(r)
        half_j = _expm_antisymmetric(system.j_block, dt / 2.0)
        rot = np.block([[half_j, zero], [zero, half_j]])
        kick = np.block([[eye, zero], [-(dt / 2.0) * r, eye]])
        drift = np.block([[eye, dt * r], [zero, eye]])
        self.matrix = np.linalg.matrix_power(rot @ kick @ drift @ kick @ rot, steps)

    def step(self, x: np.ndarray) -> np.ndarray:
        # ndarray.dot skips the matmul ufunc dispatch, half the cost of `@` at this size
        return self.matrix.dot(x)


def step_count(t: float, dt: float) -> float:
    """Uniform steps covering t at a step size near dt: max(1, round(t / dt)).

    Rounded in floats, so a huge or non-finite ratio compares instead of raising.
    """
    return float(max(1.0, np.rint(t / dt)))


def integrate(system: HamiltonianSystem, x: np.ndarray, t: float, dt: float) -> np.ndarray:
    """March the Hamilton flow of x = (q, p) to exactly t in uniform (hence symplectic) steps of t / step_count."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t < 0.0:
        raise ValueError("t must be non-negative")
    if t == 0.0:
        return x
    steps = step_count(t, dt)
    return SymplecticIntegrator(system, t / steps, int(steps)).step(x)


def evolve_ensemble(
    ensemble: GaussianFieldEnsemble, h_op: HermitianOperator, t: float
) -> GaussianFieldEnsemble:
    """Push the ensemble covariance forward: D -> U(t) D U(t)^+.

    Equals the covariance of the per-sample push-forward, and leaves any
    eps I background block invariant because it commutes with U(t).
    """
    if ensemble.dim != h_op.dim:
        raise ValueError(f"dimension mismatch: {ensemble.dim} vs {h_op.dim}")
    u = exact_propagator(h_op, t)
    evolved = u @ ensemble.covariance.matrix @ u.conj().T
    return GaussianFieldEnsemble(HermitianOperator.symmetrized(evolved))


def covariance_derivative(ensemble: GaussianFieldEnsemble, h_op: HermitianOperator) -> np.ndarray:
    """Right-hand side -i [H_op, D] of the covariance evolution equation."""
    h = h_op.matrix
    d = ensemble.covariance.matrix
    return -1j * (h @ d - d @ h)
