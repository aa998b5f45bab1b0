import tracemalloc

import numpy as np
import pytest

from helpers import CHUNK_EDGES, diagonal_operator
from prefield import observables
from prefield.hilbert import FieldVector, HermitianOperator, state_average
from prefield.observables import (
    DEFAULT_FD_STEP,
    FieldFunctional,
    QuadraticForm,
    _fd_hessians,
    classical_average_exact,
    hessian_extract,
    quadratic_form_mc,
    quadratic_functional,
    quadratic_plus_quartic,
    quartic_power_functional,
    renormalize,
)
from prefield.random_field import (
    BackgroundField,
    GaussianFieldEnsemble,
    RandomSeed,
    ensemble_from_pure_state,
    sample_with_factor,
)

SEED = RandomSeed(515001)


def rand_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FieldVector(v / np.linalg.norm(v))


def rand_hermitian(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((m + m.conj().T) / 2)


class TestEvaluateQuadratic:
    def test_identity_equals_power(self):
        form = QuadraticForm(HermitianOperator(np.eye(2)))
        assert form.evaluate_batch([[1, 1j]])[0] == pytest.approx(2.0, abs=1e-14)

    def test_diagonal(self):
        form = QuadraticForm(diagonal_operator([1, -1]))
        assert form.evaluate_batch([[1, 0]])[0] == pytest.approx(1.0, abs=1e-15)

    def test_offdiagonal(self):
        form = QuadraticForm(HermitianOperator([[0, 1], [1, 0]]))
        phi = np.array([1, 1]) / np.sqrt(2)
        assert form.evaluate_batch([phi])[0] == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        form = QuadraticForm(HermitianOperator(np.eye(3)))
        with pytest.raises(ValueError):
            form.evaluate_batch([[1, 0]])

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(0)
        form = QuadraticForm(rand_hermitian(rng, 3))
        x = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        batch = form.evaluate_batch(x)
        singles = [np.vdot(row, form.operator.matrix @ row).real for row in x]
        np.testing.assert_allclose(batch, singles, atol=1e-12)


class TestExactAverages:
    def test_pure_state_projector(self):
        ens = ensemble_from_pure_state(FieldVector([1, 0]))
        form = QuadraticForm(diagonal_operator([1, -1]))
        assert classical_average_exact(ens, form) == pytest.approx(1.0, abs=1e-14)

    def test_traceless_on_mixed_with_background(self):
        ens = GaussianFieldEnsemble(HermitianOperator(0.9 * np.eye(2)))
        form = QuadraticForm(HermitianOperator([[0, 1], [1, 0]]))
        assert classical_average_exact(ens, form) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_with_background(self):
        ens = GaussianFieldEnsemble(diagonal_operator([1.1, 0.3]))
        form = QuadraticForm(diagonal_operator([1, -1]))
        assert classical_average_exact(ens, form) == pytest.approx(0.8, abs=1e-14)

    def test_born_identity_1000_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            dim = int(rng.integers(2, 9))
            psi = rand_unit(rng, dim)
            a = rand_hermitian(rng, dim)
            eps = float(rng.uniform(0.0, 0.5))
            ens = ensemble_from_pure_state(psi, BackgroundField(eps))
            avg = classical_average_exact(ens, QuadraticForm(a))
            assert abs(renormalize(avg, a, eps) - state_average(a, psi)) <= 1e-10


class TestRenormalize:
    def test_algebraic_identity_exact(self):
        rng = np.random.default_rng(2)
        rho_m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho_m = rho_m @ rho_m.conj().T
        rho = rho_m / np.trace(rho_m).real
        a = rand_hermitian(rng, 3)
        eps = 0.37
        ens = GaussianFieldEnsemble(HermitianOperator.symmetrized(rho + eps * np.eye(3)))
        avg = classical_average_exact(ens, QuadraticForm(a))
        born = float(np.trace(rho @ a.matrix).real)
        assert renormalize(avg, a, eps) == pytest.approx(born, abs=1e-12)

    def test_traceless_identity(self):
        a = HermitianOperator([[0, 1], [1, 0]])
        assert renormalize(1.0, a, 0.3) == 1.0


def mc_average(ens, form, n):
    """Mean and standard error of f_A over the first n samples of the ensemble."""
    est, _ = quadratic_form_mc(ens, form, n, SEED, np.array([n]), 1)
    return est.mean, est.standard_error


class TestMCAverages:
    def test_zero_functional(self):
        ens = GaussianFieldEnsemble(HermitianOperator(np.eye(2) / 2))
        form = QuadraticForm(HermitianOperator(np.zeros((2, 2))))
        assert mc_average(ens, form, 1000) == (0.0, 0.0)

    def test_power_average(self):
        ens = GaussianFieldEnsemble(HermitianOperator(np.eye(2)))
        form = QuadraticForm(HermitianOperator(np.eye(2)))
        mean, se = mc_average(ens, form, 100_000)
        assert abs(mean - 2.0) <= 5.0 * se

    def test_one_sample_is_refused(self):
        """A one-row `powers @ weights` rounds unlike the rows of a longer product, so one sample is no estimate."""
        ens = GaussianFieldEnsemble(HermitianOperator(np.eye(2) / 2))
        form = QuadraticForm(HermitianOperator(np.diag([1.0, -0.5])))
        with pytest.raises(ValueError, match="n_samples must be >= 2"):
            quadratic_form_mc(ens, form, 1, SEED, np.array([1]), 1)

    def test_mc_matches_exact_for_quadratic(self):
        rng = np.random.default_rng(3)
        for dim in (2, 3, 4):
            a = rand_hermitian(rng, dim)
            psi = rand_unit(rng, dim)
            ens = ensemble_from_pure_state(psi, BackgroundField(0.1))
            form = QuadraticForm(a)
            mean, se = mc_average(ens, form, 100_000)
            assert abs(mean - classical_average_exact(ens, form)) <= 5.0 * se


REDUCTION_SIZES = [2, *(c + d for c in CHUNK_EDGES for d in (-1, 0, 1)), *(3 * c + 5 for c in CHUNK_EDGES)]


class TestReductions:
    """The per-block reduction against numpy on the materialised values: running sums, mean and SE within 1e-12."""

    @staticmethod
    def run(n, seed):
        """(streamed estimate, streamed running means at every stop, the materialised f_A values)."""
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        ens = ensemble_from_pure_state(rand_unit(rng, dim), BackgroundField(0.05))
        form = QuadraticForm(rand_hermitian(rng, dim))
        est, running = quadratic_form_mc(ens, form, n, RandomSeed(seed), np.arange(1, n + 1), 1)
        return est, running, form.evaluate_batch(sample_with_factor(ens.sampler_factor, n, RandomSeed(seed)))

    @staticmethod
    def assert_close(got, want):
        want = np.asarray(want)
        assert (np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))).all()

    @pytest.mark.parametrize("n", REDUCTION_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_running_sums_equal_cumsum_at_every_stop(self, n, seed):
        _, running, values = self.run(n, seed)
        self.assert_close(running * np.arange(1, n + 1), np.cumsum(values))

    @pytest.mark.parametrize("n", REDUCTION_SIZES)
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_standard_error_in_place_equals_numpy(self, n, seed):
        """The mean and SE come from per-block sums, with no array of values, and equal numpy's."""
        est, _, values = self.run(n, seed)
        assert est.n_samples == n
        self.assert_close(est.mean, values.mean())
        self.assert_close(est.standard_error, values.std(ddof=1) / np.sqrt(n))


class TestFunctionalRegistration:
    def test_rejects_nonzero_at_origin(self):
        with pytest.raises(ValueError, match="zero field"):
            FieldFunctional(lambda phi: 1.0, 2)

    def test_rejects_scalar_evaluator(self):
        # the per-field convention: one float for one field, which would
        # broadcast over the stencil into a wrong Hessian
        with pytest.raises(ValueError, match="one value per row"):
            FieldFunctional(lambda phi: float(np.vdot(phi, phi).real), 2)

    def test_rejects_wrong_length_away_from_zero(self):
        # right shape on the one zero row checked at registration, wrong on the stencil
        f = FieldFunctional(lambda phi: np.abs(phi[:1, 0]) ** 2, 2)
        with pytest.raises(ValueError, match="one value per row"):
            hessian_extract(f)


class TestHessianExtraction:
    def test_quadratic_recovers_operator(self):
        a = diagonal_operator([1, -1])
        ext = hessian_extract(quadratic_functional(a))
        assert ext.representable
        assert np.abs(ext.operator.matrix - a.matrix).max() <= 1e-6

    def test_quartic_maps_to_zero(self):
        ext = hessian_extract(quartic_power_functional(2))
        assert np.abs(ext.operator.matrix).max() <= 1e-6

    def test_quadratic_plus_quartic_random(self):
        rng = np.random.default_rng(6)
        a = rand_hermitian(rng, 3)
        ext = hessian_extract(quadratic_plus_quartic(a))
        assert ext.representable
        assert np.abs(ext.operator.matrix - a.matrix).max() <= 1e-5

    def test_complex_operator_recovered(self):
        a = HermitianOperator([[0, -1j], [1j, 0]])
        ext = hessian_extract(quadratic_functional(a))
        assert ext.representable
        assert np.abs(ext.operator.matrix - a.matrix).max() <= 1e-6

    def test_phase_coupling_reported_not_guessed(self):
        # f = Re(phi_0^2) couples phi phi^T terms; no Hermitian operator has
        # this quadratic part
        f = FieldFunctional(lambda phi: (phi[:, 0] ** 2).real, 2)
        ext = hessian_extract(f)
        assert not ext.representable
        assert ext.phase_defect > 10.0 * DEFAULT_FD_STEP**2

    def test_non_finite_evaluation_raises(self):
        f = FieldFunctional(lambda phi: np.where(np.abs(phi[:, 0]) == 0.0, 0.0, np.nan), 2)
        with pytest.raises(ArithmeticError, match="non-finite"):
            hessian_extract(f)


def per_point_fd_hessian(func, dim2, h):
    """The nested-loop central-difference Hessian, one field per evaluator call."""

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
        hess[i, i] = (diag_plus[i] + diag_minus[i]) / h**2
        for jdx in range(i + 1, dim2):
            pp = f(h * (e[i] + e[jdx]))
            pm = f(h * (e[i] - e[jdx]))
            mp = f(-h * (e[i] - e[jdx]))
            mm = f(-h * (e[i] + e[jdx]))
            val = (pp - pm - mp + mm) / (4.0 * h**2)
            hess[i, jdx] = val
            hess[jdx, i] = val
    return hess


def pinned_functionals(dim):
    """Batched functionals, each with its one-field evaluator written out."""
    rng = np.random.default_rng(100 + dim)
    a = rand_hermitian(rng, dim)

    def quadratic(phi):
        return float(np.vdot(phi, a.matrix @ phi).real)

    def quartic(phi):
        return float(np.vdot(phi, phi).real) ** 2

    return {
        "quadratic": (quadratic_functional(a), quadratic),
        "quartic": (quartic_power_functional(dim), quartic),
        "quadratic_plus_quartic": (quadratic_plus_quartic(a), lambda phi: quadratic(phi) + quartic(phi)),
        "phase_coupling": (
            FieldFunctional(lambda phi: (phi[:, 0] ** 2).real, dim),
            lambda phi: float((phi[0] ** 2).real),
        ),
    }


class TestBatchedStencil:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [1e-4, 1e-3, 1e-2])
    def test_matches_per_point_hessian(self, dim, step):
        for name, (functional, one_field) in pinned_functionals(dim).items():
            ref = per_point_fd_hessian(lambda x: one_field(x[:dim] + 1j * x[dim:]), 2 * dim, step)
            got = _fd_hessians(functional.evaluator, dim, [step])[0]
            assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref))), name

    def test_stencil_slices_match_one_slice(self, monkeypatch):
        # one point per slice: the slices must cover the stencil in order
        functional, _ = pinned_functionals(4)["quadratic_plus_quartic"]
        steps = (1e-3, 5e-4)
        whole = _fd_hessians(functional.evaluator, 4, steps)
        monkeypatch.setattr(observables, "FD_SLICE_ELEMENTS", 1)
        np.testing.assert_allclose(_fd_hessians(functional.evaluator, 4, steps), whole, rtol=1e-13, atol=1e-13)

    def test_two_evaluator_calls_per_extraction(self):
        a = rand_hermitian(np.random.default_rng(8), 6)
        inner = quadratic_plus_quartic(a).evaluator
        calls = []

        def counted(phi):
            calls.append(len(phi))
            return inner(phi)

        functional = FieldFunctional(counted, 6)
        calls.clear()
        ext = hessian_extract(functional)
        assert len(calls) <= 2
        assert sum(calls) == 2 * 2 * 12**2  # the stencils at h and h/2, 2 dim2**2 points each
        assert np.abs(ext.operator.matrix - a.matrix).max() <= 1e-5

    def test_stencil_memory_bounded(self):
        functional = quadratic_plus_quartic(rand_hermitian(np.random.default_rng(9), 48))
        tracemalloc.start()
        try:
            hessian_extract(functional)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 2**20
