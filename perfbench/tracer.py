"""Span tracer for the benchmark's traced run.

The tracer records spans around the calls each layer of ``repro`` makes
into the next, from outside the package: :meth:`Hooks.install` replaces
the names a layer calls the layer below through (for example
``repro.tools.mapper.optimal_mapping``) with wrappers that open a span,
call the original and record counts read off its result, and
:meth:`Hooks.uninstall` puts the originals back, so an untraced call runs
the unmodified code.

A span is ``[layer, name, start, end, parent]``; spans stay in memory and
:meth:`Tracer.layer_report` reduces them to per-layer totals.  A layer's
*self time* is its span time minus the time of the child spans nested in
it; its *busy time* counts only its outermost spans, so a layer that
re-enters itself is not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: The measured layers.  Spans of the benchmark's own code use ``bench``.
LAYERS = (
    "tools.mapper",
    "estimate",
    "core.dp_cluster",
    "core.cluster_greedy",
    "machine.feasibility",
    "core.validate",
    "sim.pipeline",
    "core.remap",
    "sim.controller",
)


class Tracer:
    """In-memory span stack plus named counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)

    def open(self, layer: str, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([layer, name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima[key], value)

    def _ancestor_names(self, idx: int):
        parent = self.spans[idx][4]
        while parent >= 0:
            yield self.spans[parent][0], self.spans[parent][1]
            parent = self.spans[parent][4]

    def layer_report(self) -> dict[str, float]:
        """Per-layer ``busy_s``/``self_s`` plus span-derived totals."""
        child_time = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (layer, name, start, end, _) in enumerate(self.spans):
            dur = end - start
            out[f"{layer}.self_s"] += dur - child_time[i]
            ancestors = list(self._ancestor_names(i))
            if all(a_layer != layer for a_layer, _ in ancestors):
                out[f"{layer}.busy_s"] += dur
            if name in ("profile", "fit"):
                out[f"{layer}.{name}_s"] += dur
            if layer == "core.dp_cluster" and ("tools.mapper", "auto_map") in ancestors:
                out["core.dp_cluster.request_calls"] += 1
            if layer == "bench":
                out["trace.wall_s"] += dur
        return dict(out)


def _resolve(path: str):
    module_name, _, attr = path.rpartition(".")
    try:
        return importlib.import_module(module_name), attr
    except ImportError:
        # ``pkg.module.Class.method``: the owner is a class, not a module.
        owner_module, _, cls = module_name.rpartition(".")
        return getattr(importlib.import_module(owner_module), cls), attr


def _wrap(tracer: Tracer, original, layer: str, name: str, after, before, on_error):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        state = before(args) if before is not None else None
        idx = tracer.open(layer, name)
        try:
            result = original(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(tracer, exc)
            raise
        finally:
            tracer.close(idx)
        if after is not None:
            after(tracer, result, args, state)
        return result

    return wrapper


# -- result readers: counts recorded after each hooked call -------------------


def _after_request(tracer, result, args, before):
    tracer.count("tools.mapper.requests")


def _after_estimate(tracer, result, args, before):
    tracer.count("estimate.training_runs", result.training_runs)
    tracer.peak("estimate.worst_fit_error", result.worst_relative_error())


def _after_dp(tracer, result, args, before):
    tracer.count("core.dp_cluster.calls")
    tracer.count("core.dp_cluster.clusterings_examined", result.clusterings_examined)
    tracer.count(f"core.dp_cluster.{result.method}_calls")


def _after_greedy(tracer, result, args, before):
    tracer.count("core.cluster_greedy.rounds", result.rounds)
    tracer.count("core.cluster_greedy.clusterings_examined", result.clusterings_examined)


def _after_feasible(tracer, result, args, before):
    tracer.count("machine.feasibility.candidates_tried", result.candidates_tried)
    tracer.count("machine.feasibility.adjusted", int(result.adjusted))


def _after_validate(tracer, result, args, before):
    tracer.count("core.validate.calls")


def _validate_error(tracer, exc):
    tracer.count("core.validate.calls")
    tracer.count("core.validate.violations", len(getattr(exc, "violations", ())))


def _record_run(tracer, result):
    """Simulator and fault counts of one finished stream."""
    tracer.count("sim.pipeline.calls")
    tracer.count("sim.pipeline.events_processed", result.events_processed)
    tracer.count(f"sim.pipeline.{result.engine}_calls")
    tracer.count("sim.faults.proc_failures", len(result.processor_failures))
    tracer.count("sim.faults.comm_faults", len(result.comm_faults))
    # Drift remaps carry failed_module == -1; only failures count here.
    remaps = [r for r in result.remaps if r.failed_module >= 0]
    tracer.count("sim.faults.remaps", len(remaps))
    tracer.count("sim.faults.remap_downtime_s", sum(r.downtime for r in remaps))


def _after_stream(tracer, result, args, before):
    _record_run(tracer, result)


def _after_drive(tracer, result, args, before):
    _record_run(tracer, result)
    ctrl = result.controller
    tracer.count("sim.controller.epochs", len(result.epochs))
    tracer.count("sim.controller.resolves", ctrl.resolves)
    tracer.count("sim.controller.remaps", ctrl.remap_count)


def _planner_state(args):
    planner = args[0]
    return {
        "solves": planner.solves,
        "updates": planner.updates,
        "evictions": planner.evictions,
        "info_misses": planner.cache.info_misses,
        "part_misses": planner.cache.part_misses,
    }


def _after_planner(tracer, result, args, before):
    after = _planner_state(args)
    for key in before:
        tracer.count(f"core.remap.{key}", after[key] - before[key])


def _after_plan(tracer, result, args, before):
    tracer.count("core.remap.plans")
    _after_planner(tracer, result, args, before)


#: ``(dotted name, layer, span name, reader)``.  Each dotted name is the
#: binding one layer calls the next through; the reader, if any, records
#: counts from the call's result.
HOOKS = (
    ("repro.tools.mapper.auto_map", "tools.mapper", "auto_map", _after_request),
    ("repro.tools.mapper.measure", "tools.mapper", "measure", None),
    ("repro.tools.mapper.estimate_chain", "estimate", "estimate_chain", _after_estimate),
    ("repro.estimate.profiler.simulate", "estimate", "profile", None),
    ("repro.estimate.estimator.fit_exec", "estimate", "fit", None),
    ("repro.estimate.estimator.fit_icom", "estimate", "fit", None),
    ("repro.estimate.estimator.fit_ecom", "estimate", "fit", None),
    ("repro.estimate.estimator.fit_memory", "estimate", "fit", None),
    ("repro.tools.mapper.optimal_mapping", "core.dp_cluster", "optimal_mapping", _after_dp),
    ("repro.machine.feasibility.optimal_mapping", "core.dp_cluster", "optimal_mapping",
     _after_dp),
    ("repro.core.remap.optimal_mapping", "core.dp_cluster", "optimal_mapping", _after_dp),
    ("repro.tools.mapper.heuristic_mapping", "core.cluster_greedy", "heuristic_mapping",
     _after_greedy),
    ("repro.tools.mapper.optimal_feasible_mapping", "machine.feasibility",
     "optimal_feasible_mapping", _after_feasible),
    ("repro.sim.pipeline.ensure_valid_plan", "core.validate", "ensure_valid_plan",
     _after_validate),
    ("repro.core.validate.ensure_valid_plan", "core.validate", "ensure_valid_plan",
     _after_validate),
    ("repro.tools.mapper.simulate", "sim.pipeline", "simulate", _after_stream),
    ("repro.tools.mapper.simulate_fault_tolerant", "sim.pipeline",
     "simulate_fault_tolerant", _after_stream),
    ("repro.sim.fastpath._run_scalar", "sim.pipeline", "fast_epoch", None),
    ("repro.core.remap.RemapPlanner.plan", "core.remap", "plan", _after_plan),
    ("repro.core.remap.RemapPlanner.update_chain", "core.remap", "update_chain",
     _after_planner),
    ("repro.sim.controller.AdaptiveController.__init__", "sim.controller", "init", None),
    ("repro.sim.controller.drive", "sim.controller", "drive", _after_drive),
)

#: Readers that need state captured before the call.
_BEFORE = {_after_plan: _planner_state, _after_planner: _planner_state}
#: Readers of a call that raised.
_ON_ERROR = {_after_validate: _validate_error}


class Hooks:
    """Installs and removes the span wrappers of :data:`HOOKS`.

    A dotted name the package no longer has is listed in :attr:`missing`
    and skipped, so a renamed binding shows in the output instead of
    stopping the run.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []
        self.targets = []
        self.missing: list[str] = []
        for path, layer, name, reader in HOOKS:
            try:
                owner, attr = _resolve(path)
            except (ImportError, AttributeError):
                owner, attr = None, None
            if owner is None or not hasattr(owner, attr):
                self.missing.append(path)
                continue
            self.targets.append((owner, attr, layer, name, reader))

    def install(self) -> None:
        for owner, attr, layer, name, reader in self.targets:
            original = getattr(owner, attr)
            self.saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(
                self.tracer, original, layer, name, reader,
                _BEFORE.get(reader), _ON_ERROR.get(reader),
            ))

    def uninstall(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)
