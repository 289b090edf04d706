"""Tests for the end-to-end automatic mapping tool."""

import pytest

from repro.machine import (
    check_feasible,
    feasibility,
    iwarp64_message,
    iwarp64_systolic,
    optimal_feasible_mapping,
    presets,
)
from repro.sim import NoiseModel
from repro.tools import auto_map, mapper, measure
from repro.workloads import by_name, fft_hist


@pytest.fixture(scope="module")
def plan():
    wl = fft_hist(256, iwarp64_message())
    return wl, auto_map(wl, profile_noise=NoiseModel(seed=77, jitter=0.02))


class TestAutoMap:
    def test_produces_feasible_mapping(self, plan):
        wl, p = plan
        assert check_feasible(p.mapping, wl.machine).feasible

    def test_training_budget_is_eight(self, plan):
        _, p = plan
        assert p.estimation.training_runs == 8

    def test_solvers_agree_on_fft_hist(self, plan):
        """§6.3 key result, via the full tool path."""
        _, p = plan
        assert p.solvers_agree

    def test_predicted_close_to_true_optimum(self, plan):
        """Mapping on the fitted model should land near the true optimum."""
        from repro.core import optimal_mapping

        wl, p = plan
        truth = optimal_mapping(
            wl.chain, wl.machine.total_procs, wl.machine.mem_per_proc_mb,
            method="exhaustive",
        )
        assert p.predicted_throughput == pytest.approx(truth.throughput, rel=0.15)

    def test_measured_matches_predicted_within_paper_band(self, plan):
        wl, p = plan
        measured = measure(
            wl, p.mapping, n_datasets=150,
            noise=NoiseModel(seed=88, jitter=0.02, comm_interference=0.015),
        )
        rel = abs(measured.throughput - p.predicted_throughput) / p.predicted_throughput
        assert rel < 0.13  # the paper saw up to ~12%

    def test_chooses_paper_clustering(self, plan):
        _, p = plan
        assert p.optimal.clustering == ((0, 0), (1, 2))


@pytest.fixture
def dp_calls(monkeypatch):
    """Count clustering-DP solves through both bindings a request uses."""
    calls = []
    for module in (mapper, feasibility):
        original = module.optimal_mapping

        def counting(*args, _original=original, **kwargs):
            calls.append(kwargs.get("instance_size_ok"))
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "optimal_mapping", counting)
    return calls


class TestOneSolvePerRequest:
    @pytest.mark.parametrize("program", ["fft-hist-256", "radar", "stereo"])
    @pytest.mark.parametrize("machine", ["sp2-16", "pvm-cluster8"])
    def test_machine_without_a_rule_solves_once(self, dp_calls, program, machine):
        plan = auto_map(by_name(program, presets.by_name(machine)))
        assert len(dp_calls) == 1
        assert plan.feasible.performance is plan.optimal.performance

    @pytest.mark.parametrize("program, machine", [
        ("stereo", "iwarp64-message"),
        ("sar", "iwarp64-systolic"),
        ("sar", "paragon128"),
    ])
    def test_rectangular_optimum_solves_once(self, dp_calls, program, machine):
        plan = auto_map(by_name(program, presets.by_name(machine)))
        assert len(dp_calls) == 1
        assert plan.mapping == plan.optimal.mapping
        assert check_feasible(plan.mapping, plan.workload.machine).feasible

    def test_fft_hist_512_systolic_still_runs_the_constrained_solve(self, dp_calls):
        """Table 1's case: the optimum's 13-processor instances fit no
        rectangle on the 8x8 grid, so the constrained DP runs and the tool
        deploys the same mapping a forced constrained solve gives."""
        wl = fft_hist(512, iwarp64_systolic())
        plan = auto_map(wl)
        assert len(dp_calls) == 2 and dp_calls[1] is not None
        assert 13 in [m.procs for m in plan.optimal.mapping.modules]
        assert 13 not in [m.procs for m in plan.mapping.modules]
        forced = optimal_feasible_mapping(plan.estimation.fitted_chain, wl.machine)
        assert plan.mapping == forced.mapping
        assert plan.predicted_throughput == forced.throughput
