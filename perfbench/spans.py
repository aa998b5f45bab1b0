"""Outside-in instrumentation of prefield for one benchmark repetition.

Every wrapper is patched at each name a caller looks the function up by
(`prefield.experiments.run_trials`, `prefield.detection.sample_with_factor`,
`prefield.cli.write_csv`, ...) or, for a method, on its class.  No file of
the program changes.

Two kinds of wrapper exist:

* count probes on the two low-frequency sampling entry points
  (`sample_with_factor`, `run_trials`).  They do arithmetic on arguments and
  results and read no clock, so untraced repetitions carry them too and the
  exact counts exist in every run;
* spans on every target in `TARGETS`: one ``[name, parent, start, end]``
  record per call, kept in memory and written by the caller when the run
  ends.  Used only in the traced repetition, which runs at one worker so
  that spans never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

# Per-layer self-time metrics and the spans each one sums.  Span names are
# "<module>.<qualified name>"; the module is the layer.
SELF_TIME_METRICS = {
    "random_field.sample_s": ("random_field.sample_with_factor",),
    "random_field.stream_s": ("random_field.RandomSeed.stream",),
    "detection.pairs_s": ("detection.BipartiteEnsemble.sample_pairs",),
    "detection.powers_s": ("detection.ThresholdDetector.channel_powers",),
    "detection.clicks_s": ("detection.ThresholdDetector.clicks",),
    "detection.trials_s": ("detection.run_trials",),
    "detection.stats_s": (
        "detection.click_statistics",
        "detection.correlation_from_clicks",
        "detection.quadratic_correlation_mc",
    ),
    "analysis.table_s": ("analysis.CorrelationTable.from_trial_batches",),
    "analysis.feasible_s": ("analysis.kolmogorov_feasible",),
    "analysis.lhv_s": ("analysis.lhv_sampled_table",),
    "observables.evaluate_batch_s": ("observables.QuadraticForm.evaluate_batch",),
    "observables.hessian_s": ("observables.hessian_extract",),
    "dynamics.step_s": ("dynamics.SymplecticIntegrator.step",),
    "dynamics.integrate_s": ("dynamics.integrate",),
    "serialize.write_csv_s": ("serialize.write_csv",),
    "serialize.write_json_s": ("serialize.write_json",),
    "experiments.self_s": ("experiments.run_experiment",),
    "cli.self_s": ("cli.main",),
}
TARGETS = tuple(name for names in SELF_TIME_METRICS.values() for name in names)

# Probe work (the accepted-coincidence sum) runs in its own span so that it
# is charged to no layer.
PROBE_SPAN = "perfbench.probe"

COUNT_KEYS = ("samples", "blocks", "drawn", "trials", "accepted")


class Counts:
    """Exact work counts, safe to update from the program's worker threads."""

    def __init__(self, with_accepted: bool):
        from prefield.random_field import SAMPLE_BLOCK

        self._block = SAMPLE_BLOCK
        self._with_accepted = with_accepted
        self._lock = threading.Lock()
        self.values = dict.fromkeys(COUNT_KEYS, 0)

    def reset(self) -> None:
        self.values = dict.fromkeys(COUNT_KEYS, 0)

    def _add(self, **increments) -> None:
        with self._lock:
            for key, n in increments.items():
                self.values[key] += n

    def on_samples(self, call: inspect.BoundArguments, result) -> None:
        """Samples returned and Philox blocks drawn (each block is drawn whole)."""
        start, n = int(call.arguments["start_index"]), len(result)
        blocks = (start + n - 1) // self._block - start // self._block + 1
        self._add(samples=n, blocks=blocks, drawn=blocks * self._block)

    def on_trials(self, call: inspect.BoundArguments, result) -> None:
        accepted = int(result.accepted.sum()) if self._with_accepted else 0
        self._add(trials=result.n_trials, accepted=accepted)


class Tracer:
    """In-memory spans; a span's parent is the span open when it started."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name: str, fn, probe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        signature = inspect.signature(fn) if probe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1], clock(), 0.0]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if probe is not None:
                mark = [PROBE_SPAN, stack[-1], clock(), 0.0]
                spans.append(mark)
                probe(_bind(signature, args, kwargs), result)
                mark[3] = clock()
            return result

        return traced


def _bind(signature, args, kwargs) -> inspect.BoundArguments:
    call = signature.bind(*args, **kwargs)
    call.apply_defaults()
    return call


def _counted(fn, probe):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        probe(_bind(signature, args, kwargs), result)
        return result

    return counted


def _patch(target: str, make) -> None:
    """Replace `target` with make(original) wherever prefield looks it up."""
    layer, _, qualname = target.partition(".")
    module = importlib.import_module(f"prefield.{layer}")
    owner_name, _, attr = qualname.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))
        return
    original = getattr(module, attr)
    wrapped = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "prefield" or name.startswith("prefield."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def install(counts: Counts, tracer: Tracer | None = None) -> None:
    """Count probes always; spans on every target when a tracer is given."""
    probes = {
        "random_field.sample_with_factor": counts.on_samples,
        "detection.run_trials": counts.on_trials,
    }
    if tracer is None:
        for target, probe in probes.items():
            _patch(target, lambda fn, probe=probe: _counted(fn, probe))
        return
    for target in TARGETS:
        _patch(target, lambda fn, target=target: tracer.wrap(target, fn, probes.get(target)))
