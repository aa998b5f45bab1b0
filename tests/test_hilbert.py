import numpy as np
import pytest

from helpers import diagonal_operator
from prefield.hilbert import (
    FieldVector,
    HermitianOperator,
    kron_vector,
    state_average,
    trace_product,
)
from prefield.random_field import ensemble_from_pure_state


def rand_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FieldVector(v / np.linalg.norm(v))


def rand_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((m + m.conj().T) / 2)


def projector_from_state(psi):
    """The projector psi psi^+ / ||psi||^2, as the covariance of psi without background."""
    return ensemble_from_pure_state(psi).covariance


class TestProjector:
    def test_basis_vector(self):
        p = projector_from_state(FieldVector([1, 0]))
        np.testing.assert_allclose(p.matrix, [[1, 0], [0, 0]], atol=1e-15)

    def test_diagonal_state(self):
        p = projector_from_state(FieldVector(np.array([1, 1]) / np.sqrt(2)))
        np.testing.assert_allclose(p.matrix, [[0.5, 0.5], [0.5, 0.5]], atol=1e-15)

    def test_circular_state(self):
        p = projector_from_state(FieldVector(np.array([1, 1j]) / np.sqrt(2)))
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(p.matrix, expected, atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            projector_from_state(FieldVector([0, 0]))

    def test_idempotent_unit_trace_many(self):
        # 1000 random unit vectors spread over dims 2..16
        rng = np.random.default_rng(7041988)
        dims = rng.integers(2, 17, size=1000)
        for dim in dims:
            p = projector_from_state(rand_unit(rng, int(dim))).matrix
            assert abs(np.trace(p) - 1.0) <= 1e-12
            assert np.abs(p @ p - p).max() <= 1e-12


class TestTraceProduct:
    def test_traceless_on_mixed(self):
        d = HermitianOperator(np.eye(2) / 2)
        a = diagonal_operator([1, -1])
        assert trace_product(d, a) == pytest.approx(0.0, abs=1e-15)

    def test_projector_pairing(self):
        d = HermitianOperator([[1, 0], [0, 0]])
        a = diagonal_operator([1, -1])
        assert trace_product(d, a) == pytest.approx(1.0, abs=1e-15)

    def test_offdiagonal_pairing(self):
        d = HermitianOperator([[0.5, 0.5], [0.5, 0.5]])
        a = HermitianOperator([[0, 1], [1, 0]])
        assert trace_product(d, a) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_product(HermitianOperator(np.eye(2)), HermitianOperator(np.eye(3)))

    def test_bilinear(self):
        rng = np.random.default_rng(3)
        d1, d2, a = (rand_hermitian(rng, 3) for _ in range(3))
        lhs = trace_product(HermitianOperator(d1.matrix + 2.0 * d2.matrix), a)
        assert lhs == pytest.approx(trace_product(d1, a) + 2.0 * trace_product(d2, a), abs=1e-10)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d, a = rand_hermitian(rng, 4), rand_hermitian(rng, 4)
            u = np.linalg.eigh(rand_hermitian(rng, 4).matrix)[1]
            du = HermitianOperator.symmetrized(u @ d.matrix @ u.conj().T)
            au = HermitianOperator.symmetrized(u @ a.matrix @ u.conj().T)
            assert trace_product(du, au) == pytest.approx(trace_product(d, a), abs=1e-10)


class TestTensor:
    def test_singlet_correlation(self):
        up, down = FieldVector([1, 0]), FieldVector([0, 1])
        singlet = FieldVector(
            (kron_vector(up, down).components - kron_vector(down, up).components) / np.sqrt(2)
        )
        sz = diagonal_operator([1, -1])
        szsz = HermitianOperator(np.kron(sz.matrix, sz.matrix))
        assert state_average(szsz, singlet) == pytest.approx(-1.0, abs=1e-14)


class TestHermitianConstruction:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianOperator([[0, 1], [0, 0]])

    def test_symmetrized_explicit(self):
        m = np.array([[0, 1], [0, 0]], dtype=complex)
        h = HermitianOperator.symmetrized(m)
        np.testing.assert_allclose(h.matrix, [[0, 0.5], [0.5, 0]])

    def test_eigenvalues_real_spot_check(self):
        rng = np.random.default_rng(11)
        h = rand_hermitian(rng, 5)
        general = np.linalg.eigvals(h.matrix)  # no Hermitian shortcut
        assert np.abs(general.imag).max() <= 1e-12
        w, v = h.eig()
        assert w.dtype.kind == "f"
        np.testing.assert_allclose((v * w) @ v.conj().T, h.matrix, atol=1e-12)

    def test_immutable(self):
        h = HermitianOperator(np.eye(2))
        with pytest.raises(ValueError):
            h.matrix[0, 0] = 2.0


class TestFieldVector:
    def test_projector_action_matches_inner(self):
        rng = np.random.default_rng(5)
        psi = rand_unit(rng, 3)
        u = rand_unit(rng, 3)
        p = projector_from_state(psi)
        # P u = <u, psi> psi, with <u, psi> = sum_k u_k conj(psi_k)
        expected = np.vdot(psi.components, u.components) * psi.components
        np.testing.assert_allclose(p.matrix @ u.components, expected, atol=1e-14)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FieldVector([np.nan, 0.0])
