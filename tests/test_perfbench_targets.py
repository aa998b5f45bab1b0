"""The program surface that the benchmark drives and its instrumentation patches.

`perfbench/spans.py` wraps every function named in `SELF_TIME_METRICS` at
its callers' lookup names, binds the `start_index` argument of
`sample_with_factor`, and reads `n_trials` and `accepted` from what
`run_trials` returns.  `perfbench/run.py` runs the CLI argument vectors of
its `WORKLOADS`.  Removing or renaming any of these, or rejecting one of
those argument vectors, breaks the benchmark run, so these tests fail first.
"""

import importlib
import importlib.util
import inspect
import math
import sys
from pathlib import Path

import pytest

from prefield.cli import build_parser, config_from_args, main
from prefield.detection import BipartiteEnsemble, run_trials
from prefield.dynamics import SymplecticIntegrator
from prefield.experiments import validate
from prefield.hilbert import FieldVector
from prefield.observables import QuadraticForm
from prefield.random_field import BackgroundField, RandomSeed, sample_with_factor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # run.py's dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


TARGETS = sorted({name for names in load_perfbench("spans").SELF_TIME_METRICS.values() for name in names})


def workload_argvs():
    """Every CLI argument vector of perfbench/run.py's workloads; run.py imports spans by its bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = load_perfbench("run").WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    return {f"{name}-{k}": list(inv.argv) for name, invs in workloads.items() for k, inv in enumerate(invs)}


WORKLOAD_ARGVS = workload_argvs()


@pytest.mark.parametrize("target", TARGETS)
def test_span_target_resolves(target):
    layer, _, qualname = target.partition(".")
    owner = importlib.import_module(f"prefield.{layer}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
        # spans.py patches methods through the class dictionary
        assert attr in vars(owner), f"{target} is not defined on {owner_name}"
    assert callable(inspect.unwrap(getattr(owner, attr)))


@pytest.mark.parametrize("argv", WORKLOAD_ARGVS.values(), ids=WORKLOAD_ARGVS)
def test_workload_invocation_is_a_valid_config(argv):
    """Each benchmark invocation, with the seed and workers that run.py adds, parses and validates."""
    args, unread = build_parser().parse_known_args(argv + ["--seed", "1", "--workers", "2"])
    assert not unread
    assert validate(config_from_args(args)) == []


def test_sample_with_factor_takes_start_index():
    assert "start_index" in inspect.signature(sample_with_factor).parameters


def test_run_trials_result_has_counted_fields():
    singlet = FieldVector([0.0, math.sqrt(0.5), -math.sqrt(0.5), 0.0])
    ensemble = BipartiteEnsemble(singlet, BackgroundField(0.3))
    batch = run_trials(ensemble, 0.0, 0.3, 0.2, 100, RandomSeed(5))
    assert batch.n_trials == 100
    assert batch.accepted.shape == (100,)


def test_dynamics_run_steps_once_per_step(monkeypatch, tmp_path):
    # dynamics.steps counts calls of SymplecticIntegrator.step, each one product
    # with a power of the one-step matrix: exact_desk's dynamics run makes one to
    # integrate to t = 1 and one per drift-table row after the first (50,000
    # steps to t = 10 in 1,000 products), as many as the table has rows
    calls = []
    step = SymplecticIntegrator.step

    def counted(self, x):
        calls.append(None)
        return step(self, x)

    monkeypatch.setattr(SymplecticIntegrator, "step", counted)
    assert main(["dynamics", "--dt", "2e-4", "--seed", "41", "--out", str(tmp_path / "run")]) == 0
    rows = len((tmp_path / "run" / "trajectory.csv").read_text().splitlines()) - 1
    assert len(calls) == rows == 1_001


def test_hessian_run_evaluates_through_quadratic_form(monkeypatch, tmp_path):
    # observables.evaluate_batch_s times QuadraticForm.evaluate_batch; exact_desk's
    # hessian run reaches it through quadratic_functional at every stencil slice
    calls = []
    evaluate_batch = QuadraticForm.evaluate_batch

    def counted(self, samples):
        calls.append(len(samples))
        return evaluate_batch(self, samples)

    monkeypatch.setattr(QuadraticForm, "evaluate_batch", counted)
    assert main(["hessian", "--dim", "6", "--seed", "41", "--out", str(tmp_path / "run")]) == 0
    assert len(calls) > 0
