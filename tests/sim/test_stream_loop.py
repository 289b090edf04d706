"""The one segmented stream loop behind every simulate entry point.

``simulate``, ``simulate_fault_tolerant`` and the adaptive drive all run
their streams through the same segment loop and the same result builder,
so the same healthy stream must come out of each bit for bit, and the
measurement rules (warmup, throughput estimate) are the same everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Mapping, ModuleSpec, PlanError, Task, TaskChain
from repro.core.cost import PolynomialExec
from repro.experiments import drift_study
from repro.sim import (
    AdaptiveController,
    ControllerConfig,
    DriftNoiseModel,
    FaultModel,
    NoiseModel,
    simulate,
    simulate_fault_tolerant,
)

from ..conftest import make_three_task_chain

MAPPING = Mapping([ModuleSpec(0, 1, 2, 2), ModuleSpec(2, 2, 4, 1)])


class TestEntryPointEquivalence:
    def test_healthy_noisy_stream_is_identical_through_every_entry(self):
        chain, n = make_three_task_chain(), 300
        plain = simulate(chain, MAPPING, n, noise=NoiseModel(seed=5),
                         engine="event")
        tolerant = simulate_fault_tolerant(
            chain, MAPPING, n, faults=FaultModel.silent(),
            noise=NoiseModel(seed=5),
        )
        # A monitor-only controller with one epoch spanning the stream.
        ctrl = AdaptiveController(
            chain, MAPPING.total_procs,
            config=ControllerConfig(epoch_datasets=n, adapt=False),
        )
        controlled = simulate(chain, MAPPING, n, noise=NoiseModel(seed=5),
                              engine="event", controller=ctrl)
        assert ctrl.initial_mapping == MAPPING
        for other in (tolerant, controlled):
            assert np.array_equal(plain.completions, other.completions)
            assert np.array_equal(plain.injections, other.injections)
            assert other.throughput == plain.throughput
            assert other.busy_fractions == plain.busy_fractions


class TestWarmupRule:
    def test_warmup_follows_the_initial_mapping(self):
        """The fill transient belongs to the first mapping: a remap that
        changes the module count must not move the warmup window."""
        chain = drift_study.study_chain()
        ctrl = AdaptiveController(
            chain, drift_study.MACHINE_PROCS,
            config=ControllerConfig(epoch_datasets=2, remap_latency=0.0,
                                    oracle=True),
        )
        noise = DriftNoiseModel(seed=7, jitter=0.0, comm_interference=0.0,
                                drift=0.05, comm_drift=0.0)
        result = simulate(chain, None, 20, noise=noise, controller=ctrl)
        assert len(ctrl.initial_mapping) == 1
        assert len(result.final_mapping) == 3
        # max(1, int(0.2 * 20), 2 * 1) — not 2 * 3 from the final mapping.
        assert result.warmup == 4


class TestDegenerateStream:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_infinite_module_time_is_a_structured_error(self):
        """A task with infinite cost everywhere gives a mapping of zero
        predicted throughput; simulating it must fail in the pre-flight,
        naming the module, before any arithmetic on infinite times."""
        base = make_three_task_chain()
        tasks = list(base.tasks)
        tasks[1] = Task("b", PolynomialExec(float("inf"), 0.0, 0.0),
                        replicable=True)
        chain = TaskChain(tasks, list(base.edges), name="inf")
        mapping = Mapping([ModuleSpec(0, 0, 4, 1), ModuleSpec(1, 1, 4, 1),
                           ModuleSpec(2, 2, 4, 1)])
        for run in (
            lambda: simulate(chain, mapping, 50),
            lambda: simulate(chain, mapping, 50, engine="event"),
            lambda: simulate_fault_tolerant(chain, mapping, 50),
        ):
            with pytest.raises(PlanError) as info:
                run()
            (violation,) = info.value.violations
            assert violation.code == "cost"
            assert violation.module == 1
            assert "{b}" in violation.message
