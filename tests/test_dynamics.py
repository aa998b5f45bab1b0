import csv

import numpy as np
import pytest

from helpers import diagonal_operator
from prefield.cli import main
from prefield.dynamics import (
    HamiltonianSystem,
    SymplecticIntegrator,
    _expm_antisymmetric,
    covariance_derivative,
    evolve_ensemble,
    exact_propagator,
    integrate,
    step_count,
)
from prefield.experiments import (
    DRIFT_HORIZON,
    ExperimentConfig,
    _random_hermitian,
    _random_state,
    _rng_for,
)
from prefield.hilbert import FieldVector, HermitianOperator
from prefield.random_field import (
    BackgroundField,
    GaussianFieldEnsemble,
    ensemble_from_pure_state,
)


def rand_hermitian(rng, dim, radius=1.0):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2
    h *= radius / np.abs(np.linalg.eigvalsh(h)).max()
    return HermitianOperator(h)


def rand_unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FieldVector(v / np.linalg.norm(v))


def phase(phi):
    """Stacked phase vector x = (q, p) of phi = q + ip."""
    return np.concatenate((phi.components.real, phi.components.imag))


def field(x):
    n = len(x) // 2
    return x[:n] + 1j * x[n:]


def strang_step(system, dt, q, p):
    """The five-piece step written out on q and p: rotation, kick, drift, kick, rotation."""
    r = system.r_block
    half_j = _expm_antisymmetric(system.j_block, dt / 2.0)
    q, p = half_j @ q, half_j @ p
    p = p - (dt / 2.0) * (r @ q)
    q = q + dt * (r @ p)
    p = p - (dt / 2.0) * (r @ q)
    return half_j @ q, half_j @ p


class TestExactPropagator:
    def test_zero_time_is_identity(self):
        h = diagonal_operator([1.0, 2.0])
        np.testing.assert_allclose(exact_propagator(h, 0.0), np.eye(2), atol=1e-15)

    def test_pi_rotation(self):
        h = diagonal_operator([1.0, -1.0])
        np.testing.assert_allclose(exact_propagator(h, np.pi), -np.eye(2), atol=1e-12)

    def test_group_property(self):
        rng = np.random.default_rng(0)
        h = rand_hermitian(rng, 4)
        u = exact_propagator(h, 0.7) @ exact_propagator(h, -0.7)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-10)

    def test_norm_preserved_to_machine(self):
        rng = np.random.default_rng(1)
        h = rand_hermitian(rng, 5)
        phi = rand_unit(rng, 5)
        out = exact_propagator(h, 3.3) @ phi.components
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


class TestHamiltonStructure:
    def test_energy_is_half_form(self):
        rng = np.random.default_rng(3)
        h = rand_hermitian(rng, 3)
        phi = rand_unit(rng, 3)
        system = HamiltonianSystem(h)
        direct = 0.5 * float(np.vdot(phi.components, h.matrix @ phi.components).real)
        assert system.hamilton_function(phase(phi)) == pytest.approx(
            direct, abs=1e-13
        )


class TestSymplecticIntegrator:
    def test_step_count_rounds_to_at_least_one_step(self):
        assert step_count(1.0, 1e-3) == 1000.0
        assert (step_count(0.0015, 1e-3), step_count(0.0025, 1e-3)) == (2.0, 2.0)  # half to even
        assert step_count(1e-4, 1e-3) == 1.0
        assert step_count(1.0, 1e-320) == float("inf")  # a huge ratio compares instead of raising

    @pytest.mark.parametrize("t, dt", [(1.0, 0.0), (1.0, -1e-3), (-1.0, 1e-3)])
    def test_integrate_rejects_bad_arguments(self, t, dt):
        system = HamiltonianSystem(HermitianOperator(np.eye(2)))
        with pytest.raises(ValueError):
            integrate(system, np.ones(4), t, dt)

    def test_zero_hamiltonian_is_identity(self):
        system = HamiltonianSystem(HermitianOperator(np.zeros((2, 2))))
        x = np.array([1.0, 2.0, 3.0, 4.0])
        out = SymplecticIntegrator(system, 0.1, 1).step(x)
        np.testing.assert_array_equal(out[:2], x[:2])
        np.testing.assert_array_equal(out[2:], x[2:])

    @pytest.mark.parametrize("dim", [1, 4, 6])
    def test_matrix_is_the_five_piece_step(self, dim):
        rng = np.random.default_rng(20 + dim)
        system = HamiltonianSystem(rand_hermitian(rng, dim))
        for dt in (1e-3, 0.1, 0.7):
            matrix = SymplecticIntegrator(system, dt, 1).matrix
            assert matrix.shape == (2 * dim, 2 * dim)
            # column k is the old step applied to the k-th basis vector
            columns = [np.concatenate(strang_step(system, dt, e[:dim], e[dim:])) for e in np.eye(2 * dim)]
            assert np.abs(matrix - np.column_stack(columns)).max() <= 1e-14

    def test_matrix_is_the_power_of_one_step(self):
        rng = np.random.default_rng(40)
        system = HamiltonianSystem(rand_hermitian(rng, 3))
        one = SymplecticIntegrator(system, 1e-2, 1).matrix
        product = np.eye(6)
        for k in range(1, 1001):
            product = one @ product
            if k in (1, 2, 7, 1000):
                assert np.abs(SymplecticIntegrator(system, 1e-2, k).matrix - product).max() <= 1e-12
        np.testing.assert_array_equal(SymplecticIntegrator(system, 1e-2, 0).matrix, np.eye(6))

    @pytest.mark.parametrize("dim", [1, 4, 6])
    def test_matrix_is_symplectic(self, dim):
        rng = np.random.default_rng(30 + dim)
        system = HamiltonianSystem(rand_hermitian(rng, dim))
        eye, zero = np.eye(dim), np.zeros((dim, dim))
        omega = np.block([[zero, eye], [-eye, zero]])
        for dt in (1e-3, 0.1, 0.7):
            m = SymplecticIntegrator(system, dt, 1).matrix
            assert np.abs(m.T @ omega @ m - omega).max() <= 1e-13

    def test_harmonic_circle_bounded_and_driftless(self):
        # dim 1, frequency 1: the orbit is a circle; leapfrog keeps the
        # radius inside a bounded O(dt^2) oscillation (closed-form bound)
        # with no secular drift across periods
        system = HamiltonianSystem(HermitianOperator([[1.0]]))
        dt, steps = 1e-3, 10_000
        integrator = SymplecticIntegrator(system, dt, 1)
        x = np.array([1.0, 0.0])
        radii = np.empty(steps + 1)
        radii[0] = 1.0
        for k in range(steps):
            x = integrator.step(x)
            radii[k + 1] = np.hypot(x[0], x[1])
        assert np.abs(radii - 1.0).max() <= (dt**2) / 4.0  # oscillation bound
        # secular drift: compare period-averaged radius at both ends
        period = int(round(2 * np.pi / dt))  # 6283 steps
        window = period // 2
        assert abs(radii[-window:].mean() - radii[:window].mean()) <= 1e-8

    def test_matches_exact_propagator_dim4(self):
        rng = np.random.default_rng(4)
        h = rand_hermitian(rng, 4)
        phi0 = rand_unit(rng, 4)
        final = integrate(HamiltonianSystem(h), phase(phi0), 1.0, 1e-3)
        target = exact_propagator(h, 1.0) @ phi0.components
        assert np.linalg.norm(field(final) - target) <= 1e-4

    def test_flow_equivalence_dims_2_to_8(self):
        rng = np.random.default_rng(5)
        for dim in (2, 3, 5, 8):
            h = rand_hermitian(rng, dim)
            phi0 = rand_unit(rng, dim)
            final = integrate(HamiltonianSystem(h), phase(phi0), 0.5, 1e-3)
            target = exact_propagator(h, 0.5) @ phi0.components
            assert np.linalg.norm(field(final) - target) <= 1e-4

    def test_energy_and_norm_bounded_over_long_run(self):
        rng = np.random.default_rng(6)
        h = rand_hermitian(rng, 4)
        system = HamiltonianSystem(h)
        integrator = SymplecticIntegrator(system, 1e-3, 1)
        x = phase(rand_unit(rng, 4))
        e0 = system.hamilton_function(x)
        n0 = float(x @ x)
        for _ in range(10_000):  # t in [0, 10]
            x = integrator.step(x)
            assert abs(system.hamilton_function(x) - e0) <= 1e-6
            n = float(x @ x)
            assert abs(n - n0) <= 1e-6


class TestEnsembleEvolution:
    def test_zero_time_unchanged(self):
        rng = np.random.default_rng(8)
        ens = ensemble_from_pure_state(rand_unit(rng, 3), BackgroundField(0.2))
        out = evolve_ensemble(ens, rand_hermitian(rng, 3), 0.0)
        np.testing.assert_allclose(out.covariance.matrix, ens.covariance.matrix, atol=1e-13)

    def test_background_is_stationary(self):
        eps = 0.3
        ens = GaussianFieldEnsemble(HermitianOperator((0.5 + eps - 0.25) * np.eye(2)))
        # any isotropic law is stationary
        rng = np.random.default_rng(9)
        h = rand_hermitian(rng, 2)
        out = evolve_ensemble(ens, h, 2.0)
        np.testing.assert_allclose(out.covariance.matrix, ens.covariance.matrix, atol=1e-12)

    def test_pure_state_with_background_shifts_additively(self):
        rng = np.random.default_rng(10)
        psi = rand_unit(rng, 3)
        eps = 0.15
        h = rand_hermitian(rng, 3)
        ens = ensemble_from_pure_state(psi, BackgroundField(eps))
        t = 1.7
        out = evolve_ensemble(ens, h, t)
        psi_t = exact_propagator(h, t) @ psi.components
        expected = np.outer(psi_t, psi_t.conj()) + eps * np.eye(3)
        assert np.abs(out.covariance.matrix - expected).max() <= 1e-12

    def test_von_neumann_equation_at_zero(self):
        rng = np.random.default_rng(11)
        psi = rand_unit(rng, 3)
        h = rand_hermitian(rng, 3)
        ens = ensemble_from_pure_state(psi, BackgroundField(0.1))
        step = 1e-4
        u_p = exact_propagator(h, step)
        u_m = exact_propagator(h, -step)
        d = ens.covariance.matrix
        fd = (u_p @ d @ u_p.conj().T - u_m @ d @ u_m.conj().T) / (2 * step)
        assert np.abs(fd - covariance_derivative(ens, h)).max() <= 1e-6


# the drift table's states, energies and powers against a per-step loop: the table
# applies M^stride by repeated squaring, whose rounding grows with the step count;
# at the seed and dt below, 33,333 steps move them by 1.2e-12
DRIFT_TABLE_TOLERANCE = 1e-11


def per_step_rows(seed, dt):
    """The drift table of a dynamics run, computed one Strang step at a time."""
    config = ExperimentConfig(kind="dynamics", seed=seed, dt=dt)
    rng = _rng_for(config)
    system = HamiltonianSystem(_random_hermitian(rng, config.dim, spectral_radius=1.0))
    phi0 = _random_state(rng, config.dim).components
    integrator = SymplecticIntegrator(system, dt, 1)
    x = np.concatenate((phi0.real, phi0.imag))
    steps = int(round(DRIFT_HORIZON / dt))
    stride = max(1, steps // 1000)
    rows = []
    for k in range(steps + 1):
        if k % stride == 0 or k == steps:
            rows.append([k * dt] + x.tolist() + [system.hamilton_function(x), float(x @ x)])
        if k < steps:
            x = integrator.step(x)
    return np.array(rows)


def drift_table_deviation(out, rows):
    """The written trajectory.csv's largest move from `rows`; its shape and t column must be equal."""
    with open(out / "trajectory.csv", newline="") as fh:
        written = np.array([[float(v) for v in row] for row in list(csv.reader(fh))[1:]])
    assert written.shape == rows.shape
    np.testing.assert_array_equal(written[:, 0], rows[:, 0])
    return float(np.abs(written[:, 1:] - rows[:, 1:]).max())


class TestDriftTable:
    # 33,333 steps at dt = 3e-4, not a multiple of the stride 33: the last
    # row is an extra one at t = steps * dt
    SEED, DT = 23, 3e-4

    @pytest.fixture(scope="class")
    def rows(self):
        return per_step_rows(self.SEED, self.DT)

    def run(self, out):
        return main(["dynamics", "--seed", str(self.SEED), "--dt", repr(self.DT), "--out", str(out)])

    def test_trajectory_matches_per_step_loop(self, rows, tmp_path):
        assert (rows[1, 0], rows[-2, 0], rows[-1, 0]) == (33 * self.DT, 33_330 * self.DT, 33_333 * self.DT)
        assert self.run(tmp_path) == 0
        assert drift_table_deviation(tmp_path, rows) <= DRIFT_TABLE_TOLERANCE

    def test_off_by_one_power_fails_the_comparison(self, rows, tmp_path, monkeypatch):
        init = SymplecticIntegrator.__init__

        def one_step_more_per_row(self, system, dt, steps):
            init(self, system, dt, steps + 1 if steps == 33 else steps)

        monkeypatch.setattr(SymplecticIntegrator, "__init__", one_step_more_per_row)
        self.run(tmp_path)
        assert drift_table_deviation(tmp_path, rows) > 1e3 * DRIFT_TABLE_TOLERANCE
