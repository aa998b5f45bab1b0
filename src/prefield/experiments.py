"""Experiment implementations behind the command-line runner.

Every runner consumes a validated `ExperimentConfig` and returns an
`ExperimentResult`: provenance-tagged numeric values ("exact", "mc" with
sample count and standard error, or "reference-oracle"), a list of
tolerance checks (the process exit status is derived from them), and CSV
plot tables.  All randomness flows through the counter-based streams of
`random_field`, so a worker count change rearranges only who computes
which estimate or block, never the numbers.

chsh and kolmogorov share one table layer, `_bell_table`: each --model in
BELL_MODELS builds its table, declares its S and checks, and reads only the
settings its SOURCES entry lists.  chsh is that layer; kolmogorov adds the feasibility verdict.

Detection operating points
--------------------------
The threshold model needs calibrated (eps, d) pairs.  The Born point is a
closed form; the other two were frozen from scans documented in the test
suite and README:

* Born frequencies (single party): eps = 0.06 and the threshold at which
  the maximally mixed state gives a 0.068 singles fraction.  There each
  channel power is exponential with mean 1/2 + eps, so a channel fires
  with probability q = exp(-d / (1/2 + eps)) and the singles fraction is
  2 q (1 - q); its root q = (1 + sqrt(1 - 2 * 0.068)) / 2 gives d = 0.0200917.
  At this point the exact conditional single-click frequency of amplitude
  angle alpha differs from cos^2 alpha by at most 0.03 % (relative) at
  30, 45 and 60 degrees, the three angles the acceptance suite tests, but
  by -0.9 % at 52.5, +7.9 % at 67.5 and +41 % at 75 degrees.  No CLI
  experiment runs this point; the acceptance suite does, as party 1's
  marginal of `run_trials` on the product state psi x e_0.
* Correlation curve: eps = eps*(singlet) + 0.03, d = 1.1 keeps the click
  correlation within ~0.03 of -cos 2(delta) across the whole angle sweep.
* CHSH from clicks: eps = eps*(singlet), d = 0.2 trades |S| ~ 3.44 against
  an accepted fraction of ~0.21; |S| rises as d falls (3.77 at d = 0.001)
  while acceptance vanishes.  The time-window style selection of
  single-click coincidences is exactly what makes |S| exceed 2.
"""

from __future__ import annotations

import ctypes
import math
import platform
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    FEASIBILITY_TOL,
    CorrelationTable,
    TableFileError,
    chsh,
    fine_chsh_values,
    kolmogorov_feasible,
    lhv_exact_table,
    lhv_sampled_table,
    singlet_exact_table,
    table_from_json,
)
from .detection import (
    CODE_BOTH,
    POLICIES,
    POLICY_KEEP_SINGLES,
    BipartiteEnsemble,
    channel_click_probability,
    click_statistics,
    correlation_from_clicks,
    party_code_probabilities,
    pbs_projectors,
    quadratic_correlation_mc,
    quadratic_correlation_renormalized,
    run_trials,
)
from .dynamics import (
    HamiltonianSystem,
    SymplecticIntegrator,
    covariance_derivative,
    evolve_ensemble,
    exact_propagator,
    integrate,
    step_count,
)
from .hilbert import FieldVector, HermitianOperator, kron_vector, state_average
from .observables import (
    DEFAULT_FD_STEP,
    QuadraticForm,
    classical_average_exact,
    hessian_extract,
    quadratic_form_mc,
    quadratic_plus_quartic,
    quartic_power_functional,
    renormalize,
)
from .random_field import (
    RNG_CONTRACT,
    STREAM_EXPERIMENT,
    STREAM_PAIRS,
    BackgroundField,
    RandomSeed,
    ensemble_from_pure_state,
    map_jobs,
)
from .serialize import operator_payload

SINGLET_EPS_MIN = math.sqrt(0.5) - 0.5

# frozen calibration constants (see module docstring)
BORN_CLICK_EPSILON = 0.06
BORN_SINGLE_FRACTION_TARGET = 0.068
BORN_CLICK_THRESHOLD = -(0.5 + BORN_CLICK_EPSILON) * math.log(
    (1.0 + math.sqrt(1.0 - 2.0 * BORN_SINGLE_FRACTION_TARGET)) / 2.0
)
CURVE_EPSILON = SINGLET_EPS_MIN + 0.03
CURVE_THRESHOLD = 1.1
CHSH_CLICK_EPSILON = SINGLET_EPS_MIN
CHSH_CLICK_THRESHOLD = 0.2
CHSH_TARGET = 2.6

DEFAULT_CHSH_ANGLES = (0.0, math.pi / 4, math.pi / 8, -math.pi / 8)

# Each kind, then each Bell model, maps the ExperimentConfig fields its run reads
# besides seed and workers to the value read when the field is unset: a calibrated
# value, or None for the field's own default.  A Bell kind reads its model, then
# that model's fields; `settings_read` gives a run's whole list.
SOURCES = {
    "born": {"dim": None, "epsilon": 0.05, "samples": None},
    "dynamics": {"dim": None, "epsilon": 0.05, "time_horizon": None, "dt": None},
    "hessian": {"dim": None, "step": None},
    "epr": {"epsilon": CURVE_EPSILON, "threshold": CURVE_THRESHOLD,
            "angles": tuple(np.linspace(0.0, math.pi, 16, endpoint=False).tolist()),
            "trials": None, "samples": None, "policy": None},
    "chsh": {"model": None},
    "kolmogorov": {"model": None},
    "lhv": {"angles": DEFAULT_CHSH_ANGLES, "trials": None},
    "singlet": {"angles": DEFAULT_CHSH_ANGLES},
    "singlet-clicks": {"epsilon": CHSH_CLICK_EPSILON, "threshold": CHSH_CLICK_THRESHOLD,
                       "angles": DEFAULT_CHSH_ANGLES, "trials": None, "policy": None},
    "file": {"table_path": None},
}
BELL_KINDS = ("chsh", "kolmogorov")
EXPERIMENT_KINDS = ("born", "dynamics", "hessian", "epr", *BELL_KINDS)
BELL_MODELS = tuple(name for name in SOURCES if name not in EXPERIMENT_KINDS)
BELL_SETTINGS = tuple(dict.fromkeys(name for model in BELL_MODELS for name in SOURCES[model]))

# Sub-keys of STREAM_PAIRS.  chsh draws setting pair (x, y) from
# (STREAM_PAIRS, x, y) with x, y in {0, 1}; epr's estimates draw from
# (STREAM_PAIRS, purpose, index) with the purposes below, so no two
# estimates of one run, nor an epr and a chsh run of one seed, share a field.
EPR_FIELD_MC = 2
EPR_CURVE = 3
EPR_GRID = 4
EPR_NO_SIGNALLING = 5

# avoid multi-hundred-MB artifacts; a click run up to it keeps each pair's codes for its trial CSV
TRIAL_CSV_LIMIT = 200_000
DRIFT_HORIZON = 10.0  # energy and norm are tracked along t in [0, DRIFT_HORIZON]
# integrate plus drift-table steps; rounding grows with them: at the cap 2e-11 in the table, a 12 ms run (2 vCPUs)
DYNAMICS_MAX_STEPS = 1_000_000
MAX_DIM = 64  # hessian evaluates 16 dim**2 stencil points: about 2.6 s at dim 64 on one core
MAX_DRAWS = 10**7  # trials or samples; born and epr hold no per-sample array; README gives peak RSS at the bound
MAX_WORKERS = 64  # every pool has min(workers, items) threads, so this bounds map_jobs and for_each_chunk


@dataclass
class ExperimentConfig:
    """Declarative description of one reproducible run."""

    kind: str
    dim: int = 2
    epsilon: float | None = None  # None, as for threshold and angles: the run's SOURCES value
    threshold: float | None = None
    angles: tuple[float, ...] | None = None
    trials: int = 100_000
    samples: int = 100_000
    seed: int | None = None
    out: str = "artifacts"
    workers: int = 1
    policy: str = POLICY_KEEP_SINGLES
    model: str = "lhv"
    time_horizon: float = 1.0
    dt: float = 1e-3
    step: float = DEFAULT_FD_STEP
    table_path: str | None = None

    def as_manifest_dict(self) -> dict:
        """Config as written to the run manifest: the kind, the seed and `settings_read`.

        Fields the run does not read are left out, so the manifest names
        only what produced the numbers.  The worker count and output
        directory are execution infrastructure with no effect on any number;
        omitting them keeps artifacts bit-identical across both.
        """
        return {name: self.setting(name) for name in ("kind", "seed", *settings_read(self))}

    def setting(self, name: str):
        """The value the run reads for field `name`: the config's, else its SOURCES one."""
        value = getattr(self, name)
        source = self.model if self.kind in BELL_KINDS else self.kind
        return SOURCES.get(source, {}).get(name) if value is None else value


def settings_read(config: ExperimentConfig) -> tuple[str, ...]:
    """A run's settings besides seed and workers: its kind's, then its Bell model's
    (any Bell setting for an unknown model, so that `validate` names the model)."""
    bell = SOURCES[config.model] if config.model in BELL_MODELS else BELL_SETTINGS
    return (*SOURCES[config.kind], *(bell if config.kind in BELL_KINDS else ()))


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and range diagnostics only; no computation."""
    problems, eps = [], config.setting("epsilon")
    if config.kind not in EXPERIMENT_KINDS:
        problems.append(f"unknown experiment kind {config.kind!r}; expected one of {EXPERIMENT_KINDS}")
    if config.seed is None:
        problems.append("seed is required (wall-clock seeding would break reproducibility)")
    elif not 0 <= int(config.seed) < 2**64:
        problems.append("seed must fit in 64 bits")
    reals = {
        "epsilon": eps,
        "threshold": config.threshold,
        "time": config.time_horizon,
        "dt": config.dt,
        "step": config.step,
    }
    for name, value in reals.items():
        if value is not None and not math.isfinite(value):
            problems.append(f"{name} must be finite")
    if config.angles is not None and not (config.angles and all(map(math.isfinite, config.angles))):
        problems.append("angles must be a non-empty list of finite numbers")
    if not 1 <= config.dim <= MAX_DIM:
        problems.append(f"dim must lie in [1, {MAX_DIM}]: hessian's stencil grows as dim**2 points")
    singlet = config.kind == "epr" or config.kind in BELL_KINDS and config.model == "singlet-clicks"
    if eps is not None and (eps < 0.0 or eps >= 2.0**53):  # from 2**53 on, 1 + eps == eps
        problems.append("epsilon must lie in [0, 2**53): a larger background swallows the state")
    elif singlet and eps < SINGLET_EPS_MIN:
        problems.append(f"epsilon {eps:g} is below the singlet's floor eps* = sqrt(1/2) - 1/2 = {SINGLET_EPS_MIN:.6g}")
    if config.threshold is not None and config.threshold < 0.0:
        problems.append("threshold must be non-negative")
    if not 1 <= config.trials <= MAX_DRAWS:
        problems.append(f"trials must lie in [1, {MAX_DRAWS:,}]")
    if not 1 <= config.samples <= MAX_DRAWS:
        problems.append(f"samples must lie in [1, {MAX_DRAWS:,}]")
    elif config.kind in ("born", "epr") and config.samples < 2:
        problems.append(f"{config.kind} needs samples >= 2 for a Monte Carlo standard error")
    if not 1 <= config.workers <= MAX_WORKERS:
        problems.append(f"workers must lie in [1, {MAX_WORKERS}]")
    if config.policy not in POLICIES:
        problems.append(f"unknown policy {config.policy!r}; expected one of {POLICIES}")
    if config.dt <= 0.0:
        problems.append("dt must be positive")
    elif config.kind == "dynamics" and np.rint(DRIFT_HORIZON / config.dt) < 1.0:
        problems.append(
            f"dt too large: the drift table takes round({DRIFT_HORIZON:g} / dt) = 0 steps, "
            f"so energy_conserved and norm_conserved would compare the initial state with itself"
        )
    elif config.kind == "dynamics" and (
        step_count(config.time_horizon, config.dt) + step_count(DRIFT_HORIZON, config.dt) > DYNAMICS_MAX_STEPS
    ):
        problems.append(
            f"dt too small for the horizon: dynamics takes round(time / dt) + "
            f"round({DRIFT_HORIZON:g} / dt) steps, at most {DYNAMICS_MAX_STEPS}"
        )
    if not 1e-150 <= config.step <= 1e75:  # step**2 stays a normal float, (2 step)**4 finite
        problems.append("step must lie in [1e-150, 1e75]: finite differences divide by step**2")
    if config.time_horizon <= 0.0:
        problems.append("time must be positive: at time 0 integrate takes no step, so "
                        "integrator_matches_propagator would compare the initial state with itself")
    if config.kind in BELL_KINDS:
        if config.model not in BELL_MODELS:
            problems.append(f"{config.kind} model must be one of {BELL_MODELS}")
        if config.model == "file" and not config.table_path:
            problems.append("model 'file' needs --table")
        if config.model == "lhv" and config.trials < 2:
            problems.append("lhv tables need trials >= 2 per setting pair")
        if config.angles is not None and len(config.angles) != 4:
            problems.append(f"{config.kind} needs exactly four angles (a1, a2, b1, b2)")
    return problems


@dataclass(frozen=True)
class Check:
    """One declared tolerance check; failures drive the exit status."""

    name: str
    passed: bool
    observed: float
    tolerance: float
    comparator: str = "abs <="


@dataclass
class ExperimentResult:
    """Values, checks and CSV tables of one run.

    A table holds the arguments of `serialize.write_csv` after the path:
    (header, rows), or (header, distinct rows, index) for a trial CSV.
    """

    kind: str
    values: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_exact(self, name: str, value: float) -> None:
        self.values[name] = {"value": float(value), "provenance": "exact"}

    def add_oracle(self, name: str, value: float) -> None:
        self.values[name] = {"value": float(value), "provenance": "reference-oracle"}

    def add_mc(self, name: str, value: float, se: float, n: int) -> None:
        self.values[name] = {"value": float(value), "provenance": "mc", "standard_error": float(se), "n": int(n)}

    def add_info(self, name: str, value) -> None:
        self.values[name] = {"value": value, "provenance": "derived"}

    def check_abs(self, name: str, observed: float, tolerance: float) -> None:
        self.checks.append(Check(name, bool(abs(observed) <= tolerance), float(observed), float(tolerance)))

    def check_true(self, name: str, condition: bool, observed: float) -> None:
        self.checks.append(Check(name, bool(condition), float(observed), 0.0, comparator="bool"))


def _worst(values) -> float:
    """Largest of `values`, 0 for none; NaN when any is NaN.

    The builtin max(worst, x) keeps worst when x is NaN, so a NaN estimate
    would pass its check; np.max carries the NaN into it and fails it.
    """
    return float(np.max(np.asarray(values, dtype=np.float64), initial=0.0))


# ---------------------------------------------------------------------------
# deterministic helpers


def _rng_for(config: ExperimentConfig) -> np.random.Generator:
    return RandomSeed(config.seed).stream(STREAM_EXPERIMENT, 0)


def _random_state(rng, dim: int) -> FieldVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FieldVector(v / np.linalg.norm(v))


def _random_hermitian(rng, dim: int, spectral_radius: float | None = None) -> HermitianOperator:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    if spectral_radius is not None:
        h = h * (spectral_radius / max(np.abs(np.linalg.eigvalsh(h)).max(), 1e-30))
    return HermitianOperator(h)


# ---------------------------------------------------------------------------
# experiment runners


def run_born(config: ExperimentConfig) -> ExperimentResult:
    """Exact and Monte Carlo averages of a random observable vs the state average."""
    result = ExperimentResult("born")
    rng = _rng_for(config)
    psi = _random_state(rng, config.dim)
    a_op = _random_hermitian(rng, config.dim)
    eps = config.setting("epsilon")
    ensemble = ensemble_from_pure_state(psi, BackgroundField(eps))
    form = QuadraticForm(a_op)

    exact = classical_average_exact(ensemble, form)
    born = renormalize(exact, a_op, eps)
    oracle = state_average(a_op, psi)
    result.add_exact("classical_average", exact)
    result.add_exact("renormalized_average", born)
    result.add_oracle("state_average", oracle)
    result.check_abs("born_exact_identity", born - oracle, 1e-10)

    seed = RandomSeed(config.seed)
    checkpoints = np.unique(np.clip(np.geomspace(1, config.samples, 40).astype(int), 1, config.samples))
    mc, running = quadratic_form_mc(ensemble, form, config.samples, seed, checkpoints, config.workers)
    rows = [[int(k), float(mean), exact] for k, mean in zip(checkpoints, running)]
    result.add_mc("mc_average", mc.mean, mc.standard_error, config.samples)
    result.check_abs("born_mc_within_5se", mc.mean - exact, 5.0 * mc.standard_error)
    result.tables["born_convergence"] = (["n", "running_mean", "exact"], rows)
    return result


def run_dynamics(config: ExperimentConfig) -> ExperimentResult:
    """Symplectic integration vs the exact propagator, plus covariance flow."""
    result = ExperimentResult("dynamics")
    dim = config.dim
    rng = _rng_for(config)
    h_op = _random_hermitian(rng, dim, spectral_radius=1.0)
    phi0 = _random_state(rng, dim)
    system = HamiltonianSystem(h_op)
    t, dt, eps = config.time_horizon, config.dt, config.setting("epsilon")

    u = exact_propagator(h_op, t)
    target = u @ phi0.components
    x0 = np.concatenate((phi0.components.real, phi0.components.imag))
    final = integrate(system, x0, t, dt)
    state_error = float(np.linalg.norm((final[:dim] + 1j * final[dim:]) - target))
    result.add_exact("state_error_vs_exact", state_error)
    result.check_abs("integrator_matches_propagator", state_error, 1e-4)

    # long-horizon drift: energy and norm along t in [0, DRIFT_HORIZON], a row every stride
    # steps and one at the end; each row is one product with M^gap, one power per distinct gap
    steps = int(step_count(DRIFT_HORIZON, dt))
    marks = [*range(0, steps, max(1, steps // 1000)), steps]
    gaps = np.diff(marks).tolist()
    leaps = {gap: SymplecticIntegrator(system, dt, gap).step for gap in set(gaps)}
    states = [x0]
    for gap in gaps:
        states.append(leaps[gap](states[-1]))
    table = np.empty((len(marks), 2 * dim + 3))
    table[:, 0], table[:, 1:-2] = np.array(marks) * dt, states
    table[:, -2] = system.hamilton_function(table[:, 1:-2])
    table[:, -1] = np.square(table[:, 1:-2]).sum(axis=1)
    header = ["t"] + [f"re_{k}" for k in range(dim)] + [f"im_{k}" for k in range(dim)] + ["energy", "power"]
    result.tables["trajectory"] = (header, table.tolist())
    energy_drift, norm_drift = (_worst(np.abs(column - column[0])) for column in table[:, -2:].T)
    result.add_exact("energy_drift", energy_drift)
    result.add_exact("norm_drift", norm_drift)
    result.check_abs("energy_conserved", energy_drift, 1e-6)
    result.check_abs("norm_conserved", norm_drift, 1e-6)

    # covariance flow: finite difference of U D U^+ against -i [H, D]
    ensemble = ensemble_from_pure_state(phi0, BackgroundField(eps))
    h = 1e-4
    plus = evolve_ensemble(ensemble, h_op, h).covariance.matrix
    u_minus = exact_propagator(h_op, -h)
    minus = u_minus @ ensemble.covariance.matrix @ u_minus.conj().T
    fd = (plus - minus) / (2.0 * h)
    vn_error = float(np.abs(fd - covariance_derivative(ensemble, h_op)).max())
    result.add_exact("von_neumann_residual", vn_error)
    result.check_abs("covariance_flow", vn_error, 1e-6)

    # the background block must ride along unchanged
    evolved = evolve_ensemble(ensemble, h_op, t).covariance.matrix
    psi_t = u @ phi0.components
    background_residual = float(
        np.abs(evolved - np.outer(psi_t, psi_t.conj()) - eps * np.eye(dim)).max()
    )
    result.add_exact("background_shift_residual", background_residual)
    result.check_abs("background_invariant", background_residual, 1e-12)
    return result


def run_hessian(config: ExperimentConfig) -> ExperimentResult:
    """Operator recovery from a quadratic-plus-quartic functional."""
    result = ExperimentResult("hessian")
    dim = config.dim
    rng = _rng_for(config)
    a_op = _random_hermitian(rng, dim)
    functional = quadratic_plus_quartic(a_op)
    extraction = hessian_extract(functional, config.step)
    err = float(np.abs(extraction.operator.matrix - a_op.matrix).max())
    result.add_exact("recovery_error", err)
    result.add_exact("phase_defect", extraction.phase_defect)
    result.add_info("true_operator", operator_payload(a_op.matrix))
    result.add_info("recovered_operator", operator_payload(extraction.operator.matrix))
    result.check_abs("operator_recovered", err, 1e-5)
    result.check_true("phase_invariant", extraction.representable, extraction.phase_defect)

    quartic = quartic_power_functional(dim)
    zero_err = float(np.abs(hessian_extract(quartic, config.step).operator.matrix).max())
    result.add_exact("quartic_null_error", zero_err)
    result.check_abs("quartic_maps_to_zero", zero_err, 1e-6)

    rows = [
        [float(s), float(np.abs(hessian_extract(functional, float(s)).operator.matrix - a_op.matrix).max())]
        for s in np.geomspace(1e-4, 1e-2, 9)
    ]
    result.tables["hessian_step_scan"] = (["step", "recovery_error"], rows)
    return result


def _singlet() -> FieldVector:
    up = FieldVector([1.0, 0.0])
    down = FieldVector([0.0, 1.0])
    comp = kron_vector(up, down).components - kron_vector(down, up).components
    return FieldVector(comp / np.sqrt(2.0))


def _polarization_observable(theta: float) -> HermitianOperator:
    plus, minus = pbs_projectors(theta)
    return HermitianOperator(plus.matrix - minus.matrix)


def run_epr(config: ExperimentConfig) -> ExperimentResult:
    """Singlet correlations three ways: exact, Monte Carlo fields, clicks.

    Each estimate draws its own stream label, so the field Monte Carlo and
    click run of every angle, the threshold grid and the no-signalling pair
    are independent jobs, run in that order on up to `workers` threads
    (`map_jobs`).  A job reduces its samples to the statistics its rows need.
    """
    result = ExperimentResult("epr")
    seed = RandomSeed(config.seed)
    psi = _singlet()
    eps, threshold = config.setting("epsilon"), config.setting("threshold")
    ensemble = BipartiteEnsemble(psi, BackgroundField(eps))
    result.add_info("epsilon", eps)
    result.add_info("epsilon_min", ensemble.epsilon_min)
    result.add_info("threshold", threshold)

    deltas = np.asarray(config.setting("angles"), dtype=np.float64)
    a0 = _polarization_observable(0.0)
    b_ops = [_polarization_observable(float(delta)) for delta in deltas]
    grid = np.geomspace(0.05, 2.0, 10)
    n_grid = max(2, config.trials // 2)

    def field_mc(idx):
        stream = (STREAM_PAIRS, EPR_FIELD_MC, idx)
        return quadratic_correlation_mc(ensemble, a0, b_ops[idx], config.samples, seed, stream=stream)

    def clicks(purpose, idx, theta2, d, n):
        stream = (STREAM_PAIRS, purpose, idx)
        return click_statistics(run_trials(ensemble, 0.0, theta2, d, n, seed, config.policy, stream=stream))

    jobs = [
        job
        for idx, delta in enumerate(deltas)
        for job in (partial(field_mc, idx), partial(clicks, EPR_CURVE, idx, delta, threshold, config.trials))
    ]
    jobs += [partial(clicks, EPR_GRID, k, math.pi / 8, d, n_grid) for k, d in enumerate(grid)]
    jobs += [
        partial(clicks, EPR_NO_SIGNALLING, k, theta2, threshold, config.trials)
        for k, theta2 in enumerate((math.pi / 8, 3 * math.pi / 8))
    ]
    done = map_jobs(lambda job: job(), jobs, config.workers)
    curve, grid_runs, no_signalling = done[: 2 * len(deltas)], done[2 * len(deltas) : -2], done[-2:]

    header = ["delta", "reference", "exact_renormalized", "mc_renormalized", "mc_se",
              "clicks_E", "clicks_se", "accepted_fraction"]
    rows = []
    for delta, b_op, mc, tally in zip(deltas, b_ops, curve[0::2], curve[1::2]):
        reference = -math.cos(2.0 * float(delta))
        exact = quadratic_correlation_renormalized(ensemble, a0, b_op)
        rows.append([float(delta), reference, exact, mc.mean, mc.standard_error,
                     *correlation_from_clicks(tally), tally.accepted_fraction])
    result.tables["correlation_curve"] = (header, rows)
    _, reference, exact, mc_mean, mc_se, e_clicks, se_clicks, _ = np.array(rows).T
    worst_exact = _worst(np.abs(exact - reference))
    worst_mc = _worst(np.abs(mc_mean - exact) / np.maximum(mc_se, 1e-30))
    worst_clicks = _worst(np.abs(e_clicks - reference))
    max_click_se = _worst(se_clicks)
    result.add_exact("max_exact_deviation", worst_exact)
    result.check_abs("exact_equals_qm_curve", worst_exact, 1e-10)
    result.add_info("max_mc_deviation_in_se", worst_mc)
    result.check_abs("mc_within_5se", worst_mc, 5.0)
    result.add_exact("max_clicks_deviation", worst_clicks)
    result.check_abs("clicks_near_qm_curve", worst_clicks, 0.05 + 5.0 * max_click_se)

    # double-click rate against its closed form: each party's two channels fire
    # independently with q(d), so both with q(d)^2, written as q(2 d) for its bits
    header = ["threshold", "double_rate_1", "double_rate_2", "accepted_fraction", "exact"]
    rows, pulls = [], []
    for d, tally in zip(grid, grid_runs):
        exact = channel_click_probability(2.0 * d, eps)
        se = max(math.sqrt(exact * (1.0 - exact) / n_grid), 1.0 / n_grid)
        double_rates = tally.party_frequencies[:, CODE_BOTH]
        pulls += list(np.abs(double_rates - exact) / se)
        rows.append([float(d), *map(float, double_rates), tally.accepted_fraction, exact])
    result.tables["double_click_rate"] = (header, rows)
    result.check_abs("double_rate_vs_exact_5se", _worst(pulls), 5.0)

    # no-signalling: party 1's + and - channel rates cannot see party 2's setting;
    # each run draws its own fields (shared samples would make the gap exactly
    # zero and test nothing).  A rate difference has variance 2 q (1 - q) / n.
    r1, r2 = (tally.channel_rates[0] for tally in no_signalling)
    q = channel_click_probability(threshold, eps)
    se = max(math.sqrt(2.0 * q * (1.0 - q) / config.trials), 1.0 / config.trials)
    gap = float(np.abs(r1 - r2).max())
    result.add_mc("no_signalling_gap", gap, se, 2 * config.trials)
    result.check_abs("no_signalling_5se", gap, 5.0 * se)
    return result


def _bell_table(config: ExperimentConfig, result: ExperimentResult) -> CorrelationTable:
    """The table of config.model (BELL_MODELS), written as chsh_table.csv.

    Declares the source's S, with its provenance, and the source's checks.
    A click run draws its setting pairs one after another and keeps each
    one's tally; its codes outlive the pair only in its trial CSV.
    """
    if config.model != "file":
        a1, a2, b1, b2 = config.setting("angles")
        a_settings, b_settings = (a1, a2), (b1, b2)
    if config.model == "lhv":
        s_exact, _ = chsh(lhv_exact_table(a_settings, b_settings))
        result.add_exact("S_exact", s_exact)
        result.check_abs("lhv_bound_exact", s_exact, 2.0 + 1e-9)
        table = lhv_sampled_table(a_settings, b_settings, config.trials, RandomSeed(config.seed))
        s, se = chsh(table)
        result.add_mc("S_sampled", s, se, int(4 * config.trials))
        result.check_abs("lhv_bound_sampled_5se", s, 2.0 + 5.0 * max(se, 1e-12))
    elif config.model == "singlet":
        table = singlet_exact_table(a_settings, b_settings)
        s, _ = chsh(table)
        result.add_exact("S_exact", s)
        if a_settings + b_settings == DEFAULT_CHSH_ANGLES:
            result.check_abs("tsirelson_value", s + 2.0 * math.sqrt(2.0), 1e-9)
        result.add_info("max_fine_value", max(abs(v) for v in fine_chsh_values(table).values()))
    elif config.model == "singlet-clicks":
        eps, threshold = config.setting("epsilon"), config.setting("threshold")
        ensemble = BipartiteEnsemble(_singlet(), BackgroundField(eps))
        seed = RandomSeed(config.seed)
        result.add_info("epsilon", eps)
        result.add_info("threshold", threshold)

        def pair_tally(x, y):
            batch = run_trials(
                ensemble, a_settings[x], b_settings[y], threshold, config.trials, seed,
                policy=config.policy, workers=config.workers, stream=(STREAM_PAIRS, x, y),
            )
            if config.trials <= TRIAL_CSV_LIMIT:
                result.tables[f"trials_x{x}_y{y}"] = batch.csv_table()
            return click_statistics(batch)

        tallies = {(x, y): pair_tally(x, y) for x in range(2) for y in range(2)}
        exact = party_code_probabilities(threshold, eps)
        rate_se = np.maximum(np.sqrt(exact * (1.0 - exact) / config.trials), 1.0 / config.trials)
        pulls = [np.abs(tally.party_frequencies - exact) / rate_se for tally in tallies.values()]
        result.add_exact("channel_click_probability", channel_click_probability(threshold, eps))
        result.check_abs("party_rates_vs_exact_5se", _worst(pulls), 5.0)
        table = CorrelationTable.from_trial_batches(a_settings, b_settings, tallies)
        s, se = chsh(table)
        result.add_mc("S_clicks", s, se, int(table.counts.sum()))
        result.add_info("violation_target", CHSH_TARGET)
        result.add_info("violation_reproduced", bool(abs(s) >= CHSH_TARGET))
        result.add_info("accepted_fractions", {f"{k}": v.accepted_fraction for k, v in tallies.items()})
    else:  # file
        table = table_from_json(config.table_path)
        s, se = chsh(table)
        result.add_info("S_file", s)
        result.add_info("S_file_se", se)
    result.tables["chsh_table"] = _table_rows(table)
    return table


def _table_rows(table: CorrelationTable):
    header = ["x", "y", "a_setting", "b_setting", "E", "se", "n"]
    rows = [
        [x, y, table.a_settings[x], table.b_settings[y], float(table.correlations[x, y]),
         float(table.standard_errors[x, y]), 0 if table.counts is None else int(table.counts[x, y])]
        for x in range(2)
        for y in range(2)
    ]
    return header, rows


def run_chsh(config: ExperimentConfig) -> ExperimentResult:
    """S of one Bell source's table: an LHV model, the analytic singlet, clicks, or a file."""
    result = ExperimentResult("chsh")
    _bell_table(config, result)
    return result


def run_kolmogorov(config: ExperimentConfig) -> ExperimentResult:
    """The Bell source's table, and whether one joint distribution reproduces it.

    A local model's table is feasible, and the singlet's or a file's exactly
    when Fine's eight CHSH facets hold; the click verdict is reported unchecked.
    """
    result = ExperimentResult("kolmogorov")
    table = _bell_table(config, result)
    if table.frequencies is None:
        raise TableFileError(f"{config.table_path} has no outcome frequencies")
    verdict = kolmogorov_feasible(table)
    result.add_info("feasible", verdict.feasible)
    result.add_info("residual", verdict.residual)
    if verdict.feasible:
        witness = {"".join(map(str, a)): w for a, w in zip(verdict.assignments, verdict.witness)}
        result.add_info("witness", witness)
    else:
        result.add_info(
            "violated_inequalities",
            [{"minus_on": list(k), "value": v} for k, v in verdict.violated_inequalities],
        )
        result.add_info("farkas", list(map(float, verdict.farkas)))
    if config.model == "lhv":
        # a local model's finite-sample table leaves the polytope by noise
        # alone when every violated CHSH value is within 5 se of 2
        _, se = chsh(table)
        passed = verdict.feasible or all(abs(v) <= 2.0 + 5.0 * se for _, v in verdict.violated_inequalities)
        result.check_true("verdict_matches_feasible", passed, float(verdict.residual))
    elif config.model in ("singlet", "file"):
        expected = all(abs(v) <= 2.0 + FEASIBILITY_TOL for v in fine_chsh_values(table).values())
        name = f"verdict_matches_{'feasible' if expected else 'infeasible'}"
        result.check_true(name, verdict.feasible == expected, float(verdict.residual))
    return result


_RUNNERS = {
    "born": run_born,
    "dynamics": run_dynamics,
    "hessian": run_hessian,
    "epr": run_epr,
    "chsh": run_chsh,
    "kolmogorov": run_kolmogorov,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    problems = validate(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return _RUNNERS[config.kind](config)


def _blas_kernel() -> str:
    """The CPU kernel numpy's bundled OpenBLAS chose at load time (OPENBLAS_CORETYPE forces it); "?" if unknown."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "?"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _environment() -> dict:
    """Python, numpy, BLAS build and kernel, and SIMD targets behind the bits; fixed per process."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 has no dict mode
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_kernel": _blas_kernel(),
        "simd": ", ".join(config.get("SIMD Extensions", {}).get("found", ["?"])),
    }


def manifest_payload(config: ExperimentConfig) -> dict:
    return {
        "config": config.as_manifest_dict(),
        "version": __version__,
        "rng_contract": RNG_CONTRACT,
        "environment": _environment(),
    }
