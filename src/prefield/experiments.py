"""Experiment implementations behind the command-line runner.

Every runner consumes a validated `ExperimentConfig` and returns an
`ExperimentResult`: provenance-tagged numeric values ("exact", "mc" with
sample count and standard error, or "reference-oracle"), a list of
tolerance checks (the process exit status is derived from them), and CSV
plot tables.  All randomness flows through the counter-based streams of
`random_field`, so a worker count change rearranges only who computes
which block, never the numbers.

Detection operating points
--------------------------
The threshold model needs calibrated (eps, d) pairs; these were frozen
from scans documented in the test suite and README:

* Born frequencies (single party): eps = 0.06 with the threshold chosen by
  `calibrate_threshold` at a 0.068 singles fraction on the maximally mixed
  state (d ~ 0.020).  At this point the conditional single-click
  frequencies reproduce cos^2/sin^2 weights to well under a percent for
  amplitude angles in [pi/6, pi/3]; the agreement degrades toward extreme
  ratios, which the results file reports rather than hides.
* Correlation curve: eps = eps*(singlet) + 0.03, d = 1.1 keeps the click
  correlation within ~0.03 of -cos 2(delta) across the whole angle sweep.
* CHSH from clicks: eps = eps*(singlet), d = 0.2 maximizes the
  post-selected violation (|S| ~ 3.4); the time-window style selection of
  single-click coincidences is exactly what makes |S| exceed 2.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .analysis import (
    CorrelationTable,
    chsh,
    fine_chsh_values,
    kolmogorov_feasible,
    lhv_exact_table,
    lhv_sampled_table,
    singlet_exact_table,
    table_from_json,
    triangle_angle_test,
)
from .detection import (
    POLICY_KEEP_SINGLES,
    BipartiteEnsemble,
    ThresholdDetector,
    TrialBatch,
    click_statistics,
    correlation_from_clicks,
    pbs_projectors,
    quadratic_correlation_mc,
    quadratic_correlation_renormalized,
    run_trials,
)
from .dynamics import (
    HamiltonianSystem,
    PhasePoint,
    SymplecticIntegrator,
    covariance_derivative,
    evolve_ensemble,
    exact_propagator,
    integrate,
)
from .hilbert import FieldVector, HermitianOperator, kron_vector, state_average
from .observables import (
    QuadraticForm,
    classical_average_exact,
    hessian_extract,
    quadratic_plus_quartic,
    quartic_power_functional,
    renormalize,
)
from .random_field import (
    SAMPLE_BLOCK,
    STREAM_EXPERIMENT,
    BackgroundField,
    RandomSeed,
    ensemble_from_pure_state,
)

EXPERIMENT_KINDS = ("born", "dynamics", "hessian", "epr", "chsh", "kolmogorov", "triangle")
CHSH_MODELS = ("lhv", "singlet-exact", "singlet-clicks")
KOLMOGOROV_SOURCES = ("lhv", "singlet", "file")

SINGLET_EPS_MIN = math.sqrt(0.5) - 0.5

# frozen calibration constants (see module docstring)
BORN_CLICK_EPSILON = 0.06
BORN_SINGLE_FRACTION_TARGET = 0.068
CURVE_EPSILON = SINGLET_EPS_MIN + 0.03
CURVE_THRESHOLD = 1.1
CHSH_CLICK_EPSILON = SINGLET_EPS_MIN
CHSH_CLICK_THRESHOLD = 0.2
CHSH_TARGET = 2.6

DEFAULT_CHSH_ANGLES = (0.0, math.pi / 4, math.pi / 8, -math.pi / 8)

TRIAL_CSV_LIMIT = 200_000  # avoid multi-hundred-MB artifacts


@dataclass
class ExperimentConfig:
    """Declarative description of one reproducible run."""

    kind: str
    dim: int = 2
    epsilon: float = 0.05
    threshold: float | None = None
    angles: tuple[float, ...] | None = None
    trials: int = 100_000
    samples: int = 100_000
    seed: int | None = None
    out: str = "artifacts"
    workers: int = 1
    policy: str = POLICY_KEEP_SINGLES
    model: str = "lhv"
    flat_sum: float = math.pi
    time_horizon: float = 1.0
    dt: float = 1e-3
    step: float = 1e-3
    table_path: str | None = None

    def as_manifest_dict(self) -> dict:
        """Config as written to the run manifest.

        The worker count and output directory are execution infrastructure
        with no effect on any number; omitting them keeps artifacts
        bit-identical across worker counts and output locations.
        """
        out = {}
        for f in fields(self):
            if f.name in ("workers", "out"):
                continue
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = list(val)
            out[f.name] = val
        return out


def validate(config: ExperimentConfig) -> list[str]:
    """Schema and range diagnostics only; no computation."""
    problems = []
    if config.kind not in EXPERIMENT_KINDS:
        problems.append(f"unknown experiment kind {config.kind!r}; expected one of {EXPERIMENT_KINDS}")
    if config.seed is None:
        problems.append("seed is required (wall-clock seeding would break reproducibility)")
    elif not 0 <= int(config.seed) < 2**64:
        problems.append("seed must fit in 64 bits")
    if config.dim < 1:
        problems.append("dim must be >= 1")
    if config.epsilon < 0.0 or not np.isfinite(config.epsilon):
        problems.append("epsilon must be non-negative")
    if config.threshold is not None and (config.threshold < 0.0 or not np.isfinite(config.threshold)):
        problems.append("threshold must be non-negative")
    if config.trials < 1:
        problems.append("trials must be >= 1")
    if config.samples < 1:
        problems.append("samples must be >= 1")
    elif config.kind == "epr" and config.samples < 2:
        problems.append("epr needs samples >= 2 for its Monte Carlo covariance")
    if config.workers < 1:
        problems.append("workers must be >= 1")
    if config.dt <= 0.0:
        problems.append("dt must be positive")
    if config.step <= 0.0:
        problems.append("step must be positive")
    if config.time_horizon < 0.0:
        problems.append("time must be non-negative")
    if config.kind == "triangle":
        if config.angles is None or len(config.angles) != 3:
            problems.append("triangle needs exactly three angles")
        elif config.flat_sum <= 0.0:
            problems.append("flat-sum must be positive")
    if config.kind == "chsh" and config.model not in CHSH_MODELS:
        problems.append(f"chsh model must be one of {CHSH_MODELS}")
    if config.kind == "kolmogorov":
        if config.model not in KOLMOGOROV_SOURCES:
            problems.append(f"kolmogorov source must be one of {KOLMOGOROV_SOURCES}")
        if config.model == "file" and not config.table_path:
            problems.append("kolmogorov source 'file' needs --table")
    if config.kind in ("chsh", "kolmogorov") and config.angles is not None and len(config.angles) != 4:
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

    A table is a (header, rows) pair, or a TrialBatch, which writes its own
    trial CSV.
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
        self.values[name] = {
            "value": float(value),
            "provenance": "mc",
            "standard_error": float(se),
            "n": int(n),
        }

    def add_info(self, name: str, value) -> None:
        self.values[name] = {"value": value, "provenance": "derived"}

    def check_abs(self, name: str, observed: float, tolerance: float) -> None:
        self.checks.append(Check(name, bool(abs(observed) <= tolerance), float(observed), float(tolerance)))

    def check_true(self, name: str, condition: bool, observed: float = 1.0) -> None:
        self.checks.append(Check(name, bool(condition), float(observed), 0.0, comparator="bool"))


# ---------------------------------------------------------------------------
# deterministic helpers


def _rng_for(config: ExperimentConfig, block: int = 0) -> np.random.Generator:
    return RandomSeed(config.seed).stream(STREAM_EXPERIMENT, block)


def _random_state(rng, dim: int) -> FieldVector:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return FieldVector(v / np.linalg.norm(v))


def _random_hermitian(rng, dim: int, spectral_radius: float | None = None) -> HermitianOperator:
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (m + m.conj().T) / 2.0
    if spectral_radius is not None:
        h = h * (spectral_radius / max(np.abs(np.linalg.eigvalsh(h)).max(), 1e-30))
    return HermitianOperator(h)


def _partition(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous (start, count) chunks covering range(total), cut at block edges.

    Cutting at multiples of SAMPLE_BLOCK keeps two workers from drawing the
    same Philox block.
    """
    blocks = -(-total // SAMPLE_BLOCK)
    workers = max(1, min(workers, blocks))
    base, extra = divmod(blocks, workers)
    chunks = []
    start = 0
    for w in range(workers):
        stop = min(total, start + (base + (1 if w < extra else 0)) * SAMPLE_BLOCK)
        if stop > start:
            chunks.append((start, stop - start))
        start = stop
    return chunks


def _parallel_concat(fn, total: int, workers: int) -> list:
    """Run fn(start, count) over a partition and return results in order."""
    chunks = _partition(total, workers)
    if len(chunks) == 1:
        return [fn(*chunks[0])]
    with ThreadPoolExecutor(max_workers=len(chunks)) as pool:
        futures = [pool.submit(fn, start, count) for start, count in chunks]
        return [f.result() for f in futures]


def _sample_parallel(ensemble, n: int, seed: RandomSeed, workers: int) -> np.ndarray:
    parts = _parallel_concat(lambda s, c: ensemble.sample(c, seed, s), n, workers)
    return np.concatenate(parts, axis=0)


def _run_trials_parallel(ensemble, theta1, theta2, detector, n, seed, workers, policy) -> TrialBatch:
    parts = _parallel_concat(
        lambda s, c: run_trials(ensemble, theta1, theta2, detector, c, seed, s, policy).codes, n, workers
    )
    codes = parts[0] if len(parts) == 1 else np.concatenate(parts)  # no copy at one worker
    return TrialBatch(theta1, theta2, policy=policy, codes=codes)


# ---------------------------------------------------------------------------
# experiment runners


def run_born(config: ExperimentConfig) -> ExperimentResult:
    """Exact and Monte Carlo averages of a random observable vs the state average."""
    result = ExperimentResult("born")
    rng = _rng_for(config)
    psi = _random_state(rng, config.dim)
    a_op = _random_hermitian(rng, config.dim)
    background = BackgroundField(config.epsilon)
    ensemble = ensemble_from_pure_state(psi, background)
    form = QuadraticForm(a_op)

    exact = classical_average_exact(ensemble, form)
    renormalized = renormalize(exact, a_op, config.epsilon)
    oracle = state_average(a_op, psi)
    result.add_exact("classical_average", exact)
    result.add_exact("renormalized_average", renormalized)
    result.add_oracle("state_average", oracle)
    result.check_abs("born_exact_identity", renormalized - oracle, 1e-10)

    seed = RandomSeed(config.seed)
    samples = _sample_parallel(ensemble, config.samples, seed, config.workers)
    vals = form.evaluate_batch(samples)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(config.samples))
    result.add_mc("mc_average", mean, se, config.samples)
    result.check_abs("born_mc_within_5se", mean - exact, 5.0 * se)

    header = ["n", "running_mean", "exact"]
    rows = []
    cum = np.cumsum(vals)
    checkpoints = np.unique(np.clip(np.geomspace(1, config.samples, 40).astype(int), 1, config.samples))
    for k in checkpoints:
        rows.append([int(k), float(cum[k - 1] / k), exact])
    result.tables["born_convergence"] = (header, rows)
    return result


def run_dynamics(config: ExperimentConfig) -> ExperimentResult:
    """Symplectic integration vs the exact propagator, plus covariance flow."""
    result = ExperimentResult("dynamics")
    dim = config.dim if config.dim > 1 else 4
    rng = _rng_for(config)
    h_op = _random_hermitian(rng, dim, spectral_radius=1.0)
    phi0 = _random_state(rng, dim)
    system = HamiltonianSystem(h_op)
    t, dt = config.time_horizon, config.dt

    u = exact_propagator(h_op, t)
    target = u @ phi0.components
    final = integrate(system, PhasePoint.from_field(phi0), t, dt)
    state_error = float(np.linalg.norm((final.q + 1j * final.p) - target))
    result.add_exact("state_error_vs_exact", state_error)
    result.check_abs("integrator_matches_propagator", state_error, 1e-4)

    # long-horizon drift: energy and norm along t in [0, 10]
    integrator = SymplecticIntegrator(system, dt)
    point = PhasePoint.from_field(phi0)
    e0 = system.hamilton_function(point)
    n0 = float(point.q @ point.q + point.p @ point.p)
    steps = int(round(10.0 / dt))
    energy_drift = 0.0
    norm_drift = 0.0
    stride = max(1, steps // 1000)
    header = ["t"] + [f"re_{k}" for k in range(dim)] + [f"im_{k}" for k in range(dim)] + ["energy", "power"]
    rows = []
    for k in range(steps + 1):
        if k % stride == 0 or k == steps:
            e = system.hamilton_function(point)
            n = float(point.q @ point.q + point.p @ point.p)
            energy_drift = max(energy_drift, abs(e - e0))
            norm_drift = max(norm_drift, abs(n - n0))
            rows.append(
                [k * dt]
                + [v for v in point.q]
                + [v for v in point.p]
                + [e, n]
            )
        if k < steps:
            point = integrator.step(point)
    result.tables["trajectory"] = (header, rows)
    result.add_exact("energy_drift", energy_drift)
    result.add_exact("norm_drift", norm_drift)
    result.check_abs("energy_conserved", energy_drift, 1e-6)
    result.check_abs("norm_conserved", norm_drift, 1e-6)

    # covariance flow: finite difference of U D U^+ against -i [H, D]
    ensemble = ensemble_from_pure_state(phi0, BackgroundField(config.epsilon))
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
        np.abs(evolved - np.outer(psi_t, psi_t.conj()) - config.epsilon * np.eye(dim)).max()
    )
    result.add_exact("background_shift_residual", background_residual)
    result.check_abs("background_invariant", background_residual, 1e-12)
    return result


def run_hessian(config: ExperimentConfig) -> ExperimentResult:
    """Operator recovery from a quadratic-plus-quartic functional."""
    result = ExperimentResult("hessian")
    dim = config.dim if config.dim > 1 else 3
    rng = _rng_for(config)
    a_op = _random_hermitian(rng, dim)
    functional = quadratic_plus_quartic(a_op)
    extraction = hessian_extract(functional, config.step)
    err = float(np.abs(extraction.operator.matrix - a_op.matrix).max())
    result.add_exact("recovery_error", err)
    result.add_exact("phase_defect", extraction.phase_defect)
    result.add_info("true_operator", a_op.to_payload())
    result.add_info("recovered_operator", extraction.operator.to_payload())
    result.check_abs("operator_recovered", err, 1e-5)
    result.check_true("phase_invariant", extraction.representable, extraction.phase_defect)

    quartic = quartic_power_functional(dim)
    zero_err = float(np.abs(hessian_extract(quartic, config.step).operator.matrix).max())
    result.add_exact("quartic_null_error", zero_err)
    result.check_abs("quartic_maps_to_zero", zero_err, 1e-6)

    header = ["step", "recovery_error"]
    rows = []
    for s in np.geomspace(1e-4, 1e-2, 9):
        e = float(np.abs(hessian_extract(functional, float(s)).operator.matrix - a_op.matrix).max())
        rows.append([float(s), e])
    result.tables["hessian_step_scan"] = (header, rows)
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
    """Singlet correlations three ways: exact, Monte Carlo fields, clicks."""
    result = ExperimentResult("epr")
    seed = RandomSeed(config.seed)
    psi = _singlet()
    eps = max(config.epsilon, CURVE_EPSILON)
    ensemble = BipartiteEnsemble(psi, BackgroundField(eps))
    threshold = config.threshold if config.threshold is not None else CURVE_THRESHOLD
    detector = ThresholdDetector(threshold, pbs_projectors(0.0))
    result.add_info("epsilon", eps)
    result.add_info("epsilon_min", ensemble.epsilon_min)
    result.add_info("threshold", threshold)

    deltas = (
        np.asarray(config.angles, dtype=np.float64)
        if config.angles
        else np.linspace(0.0, np.pi, 16, endpoint=False)
    )
    header = [
        "delta",
        "reference",
        "exact_renormalized",
        "mc_renormalized",
        "mc_se",
        "clicks_E",
        "clicks_se",
        "accepted_fraction",
    ]
    rows = []
    worst_exact = 0.0
    worst_mc = 0.0
    worst_clicks = 0.0
    max_click_se = 0.0
    a0 = _polarization_observable(0.0)
    for idx, delta in enumerate(deltas):
        b_op = _polarization_observable(float(delta))
        reference = -math.cos(2.0 * float(delta))
        exact = quadratic_correlation_renormalized(ensemble, a0, b_op)
        worst_exact = max(worst_exact, abs(exact - reference))
        mc = quadratic_correlation_mc(
            ensemble, a0, b_op, config.samples, seed, renormalized=True, start_index=idx * config.samples
        )
        worst_mc = max(worst_mc, abs(mc.mean - exact) / max(mc.standard_error, 1e-30))
        batch = _run_trials_parallel(
            ensemble, 0.0, float(delta), detector, config.trials, seed, config.workers, config.policy
        )
        e_clicks, se_clicks = correlation_from_clicks(batch)
        stats = click_statistics(batch)
        worst_clicks = max(worst_clicks, abs(e_clicks - reference))
        max_click_se = max(max_click_se, se_clicks)
        rows.append(
            [
                float(delta),
                reference,
                exact,
                mc.mean,
                mc.standard_error,
                e_clicks,
                se_clicks,
                stats.accepted_fraction,
            ]
        )
    result.tables["correlation_curve"] = (header, rows)
    result.add_exact("max_exact_deviation", worst_exact)
    result.check_abs("exact_equals_qm_curve", worst_exact, 1e-10)
    result.add_info("max_mc_deviation_in_se", worst_mc)
    result.check_abs("mc_within_5se", worst_mc, 5.0)
    result.add_exact("max_clicks_deviation", worst_clicks)
    result.check_abs("clicks_near_qm_curve", worst_clicks, 0.05 + 5.0 * max_click_se)

    # double-click rate must fall as the threshold rises
    header = ["threshold", "double_rate_1", "double_rate_2", "accepted_fraction"]
    rows = []
    d_grid = np.geomspace(0.05, 2.0, 10)
    previous = None
    monotone = True
    n_grid = max(2, config.trials // 2)
    for d in d_grid:
        det = ThresholdDetector(float(d), pbs_projectors(0.0))
        batch = _run_trials_parallel(
            ensemble, 0.0, math.pi / 8, det, n_grid, seed, config.workers, config.policy
        )
        stats = click_statistics(batch)
        rate = stats.double_rate_1
        se = math.sqrt(max(rate * (1.0 - rate), 1e-12) / batch.n_trials)
        if previous is not None and rate > previous + 5.0 * se * math.sqrt(2.0):
            monotone = False
        previous = rate
        rows.append(
            [float(d), rate, stats.double_rate_2, stats.accepted_fraction]
        )
    result.tables["double_click_rate"] = (header, rows)
    result.check_true("double_rate_monotone", monotone, 0.0 if monotone else 1.0)

    # no-signalling: party 1's marginals cannot see party 2's setting;
    # the second run draws fresh fields (reusing the same samples for both
    # settings would make the comparison exactly zero and test nothing)
    b1 = _run_trials_parallel(
        ensemble, 0.0, math.pi / 8, detector, config.trials, seed, config.workers, config.policy
    )
    b2 = _run_trials_parallel(
        ensemble, 0.0, 3 * math.pi / 8, detector, config.trials,
        RandomSeed((config.seed + 1) % 2**64), config.workers, config.policy,
    )
    r1 = np.asarray(click_statistics(b1).raw_click_rates_1)
    r2 = np.asarray(click_statistics(b2).raw_click_rates_1)
    se = math.sqrt(2.0 * 0.25 / config.trials)
    gap = float(np.abs(r1 - r2).max())
    result.add_mc("no_signalling_gap", gap, se, 2 * config.trials)
    result.check_abs("no_signalling_5se", gap, 5.0 * se)
    return result


def _chsh_from_clicks(config: ExperimentConfig, result: ExperimentResult):
    seed = RandomSeed(config.seed)
    psi = _singlet()
    eps = max(config.epsilon, CHSH_CLICK_EPSILON)
    ensemble = BipartiteEnsemble(psi, BackgroundField(eps))
    threshold = config.threshold if config.threshold is not None else CHSH_CLICK_THRESHOLD
    detector = ThresholdDetector(threshold, pbs_projectors(0.0))
    angles = config.angles if config.angles else DEFAULT_CHSH_ANGLES
    a_settings, b_settings = (angles[0], angles[1]), (angles[2], angles[3])
    result.add_info("epsilon", eps)
    result.add_info("threshold", threshold)
    batches = {}
    for x in range(2):
        for y in range(2):
            batches[(x, y)] = _run_trials_parallel(
                ensemble,
                a_settings[x],
                b_settings[y],
                detector,
                config.trials,
                RandomSeed((config.seed + x * 2 + y) % 2**64),
                config.workers,
                config.policy,
            )
    table = CorrelationTable.from_trial_batches(a_settings, b_settings, batches)
    return table, batches


def run_chsh(config: ExperimentConfig) -> ExperimentResult:
    """CHSH evaluation for an LHV model, the analytic singlet, or click data."""
    result = ExperimentResult("chsh")
    angles = config.angles if config.angles else DEFAULT_CHSH_ANGLES
    a_settings, b_settings = (angles[0], angles[1]), (angles[2], angles[3])

    if config.model == "lhv":
        exact = lhv_exact_table(a_settings, b_settings)
        s_exact, _ = chsh(exact)
        result.add_exact("S_exact", s_exact)
        result.check_abs("lhv_bound_exact", s_exact, 2.0 + 1e-9)
        sampled = lhv_sampled_table(a_settings, b_settings, config.trials, RandomSeed(config.seed))
        s_mc, se_mc = chsh(sampled)
        result.add_mc("S_sampled", s_mc, se_mc, int(4 * config.trials))
        result.check_abs("lhv_bound_sampled_5se", s_mc, 2.0 + 5.0 * max(se_mc, 1e-12))
        result.tables["chsh_table"] = _table_rows(sampled)
    elif config.model == "singlet-exact":
        table = singlet_exact_table(a_settings, b_settings)
        s, _ = chsh(table)
        result.add_exact("S_exact", s)
        if tuple(angles) == DEFAULT_CHSH_ANGLES:
            result.check_abs("tsirelson_value", s + 2.0 * math.sqrt(2.0), 1e-9)
        fine = fine_chsh_values(table)
        result.add_info("max_fine_value", max(abs(v) for v in fine.values()))
        result.tables["chsh_table"] = _table_rows(table)
    else:  # singlet-clicks
        table, batches = _chsh_from_clicks(config, result)
        s, se = chsh(table)
        result.add_mc("S_clicks", s, se, int(table.counts.sum()))
        reproduced = abs(s) >= CHSH_TARGET
        result.add_info("violation_target", CHSH_TARGET)
        result.add_info("violation_reproduced", bool(reproduced))
        result.add_info(
            "accepted_fractions",
            {f"{k}": click_statistics(b).accepted_fraction for k, b in batches.items()},
        )
        result.tables["chsh_table"] = _table_rows(table)
        if config.trials <= TRIAL_CSV_LIMIT:
            for (x, y), batch in batches.items():
                result.tables[f"trials_x{x}_y{y}"] = batch
    return result


def _table_rows(table: CorrelationTable):
    header = ["x", "y", "a_setting", "b_setting", "E", "se", "n"]
    rows = []
    for x in range(2):
        for y in range(2):
            rows.append(
                [
                    x,
                    y,
                    table.a_settings[x],
                    table.b_settings[y],
                    float(table.correlations[x, y]),
                    float(table.standard_errors[x, y]),
                    0 if table.counts is None else int(table.counts[x, y]),
                ]
            )
    return header, rows


def run_kolmogorov(config: ExperimentConfig) -> ExperimentResult:
    """Joint-distribution feasibility for a generated or loaded table."""
    result = ExperimentResult("kolmogorov")
    angles = config.angles if config.angles else DEFAULT_CHSH_ANGLES
    a_settings, b_settings = (angles[0], angles[1]), (angles[2], angles[3])
    if config.model == "lhv":
        table = lhv_sampled_table(a_settings, b_settings, config.trials, RandomSeed(config.seed))
        expected = True
    elif config.model == "singlet":
        table = singlet_exact_table(a_settings, b_settings)
        expected = False
    else:
        table = table_from_json(config.table_path)
        expected = None
    verdict = kolmogorov_feasible(table)
    s, se = chsh(table)
    result.add_exact("S", s)
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
    if expected is not None:
        result.check_true(
            f"verdict_matches_{'feasible' if expected else 'infeasible'}",
            verdict.feasible == expected,
            float(verdict.residual),
        )
    result.tables["table"] = _table_rows(table)
    return result


def run_triangle(config: ExperimentConfig) -> ExperimentResult:
    """Angle-sum classification against a configurable flat reference."""
    result = ExperimentResult("triangle")
    verdict = triangle_angle_test(config.angles, config.flat_sum)
    total = float(sum(config.angles))
    result.add_exact("angle_sum", total)
    result.add_info("flat_sum", config.flat_sum)
    result.add_info("classification", verdict)
    return result


_RUNNERS = {
    "born": run_born,
    "dynamics": run_dynamics,
    "hessian": run_hessian,
    "epr": run_epr,
    "chsh": run_chsh,
    "kolmogorov": run_kolmogorov,
    "triangle": run_triangle,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    problems = validate(config)
    if problems:
        raise ValueError("invalid config: " + "; ".join(problems))
    return _RUNNERS[config.kind](config)


def manifest_payload(config: ExperimentConfig) -> dict:
    return {"config": config.as_manifest_dict(), "version": __version__}
