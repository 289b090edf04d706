"""Tests for machine-constrained mappings (§6.1, Table 1 behaviour)."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import InfeasibleError, Mapping, ModuleSpec, optimal_mapping
from repro.machine import (
    PRESETS,
    CommParams,
    MachineSpec,
    by_name,
    check_feasible,
    feasibility,
    is_rectangularizable,
    iwarp64_message,
    iwarp64_systolic,
    optimal_feasible_mapping,
    sp2_16,
)
from repro.workloads import fft_hist
from tests.conftest import make_random_chain


class TestMachineSpec:
    def test_presets_construct(self):
        for name in PRESETS:
            m = by_name(name)
            assert m.total_procs == m.rows * m.cols

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            by_name("cray-t3d")  # not modelled

    def test_validation(self):
        comm = CommParams(1e-4, 1e-2, 1e-5, 1.0)
        with pytest.raises(ValueError):
            MachineSpec("x", 0, 8, 1.0, comm)
        with pytest.raises(ValueError):
            MachineSpec("x", 8, 8, 0.0, comm)
        with pytest.raises(ValueError):
            MachineSpec("x", 8, 8, 1.0, comm, comm_kind="quantum")
        with pytest.raises(ValueError):
            CommParams(-1.0, 1e-2, 1e-5, 1.0)


class TestCheckFeasible:
    def test_paper_mapping_is_feasible(self):
        mapping = Mapping([ModuleSpec(0, 0, 3, 8), ModuleSpec(1, 2, 4, 10)])
        report = check_feasible(mapping, iwarp64_message())
        assert report.feasible
        assert report.placements is not None
        assert sum(len(r) for r in report.placements) == 18

    def test_prime_allocation_rejected(self):
        mapping = Mapping([ModuleSpec(0, 1, 13, 1), ModuleSpec(2, 2, 4, 1)])
        report = check_feasible(mapping, iwarp64_message())
        assert not report.feasible
        assert "13" in report.reason

    def test_oversubscription_rejected(self):
        mapping = Mapping([ModuleSpec(0, 2, 8, 9)])  # 72 > 64
        report = check_feasible(mapping, iwarp64_message())
        assert not report.feasible

    def test_non_rectangular_machine_accepts_anything_fitting(self):
        from repro.machine import sp2_16

        mapping = Mapping([ModuleSpec(0, 2, 13, 1)])  # prime is fine here
        assert check_feasible(mapping, sp2_16()).feasible

    def test_pathway_cap_enforced(self):
        mach = iwarp64_systolic()
        # 8 senders fanning into 1 receiver: heavy pathway concentration.
        mapping = Mapping([ModuleSpec(0, 0, 4, 8), ModuleSpec(1, 2, 32, 1)])
        report = check_feasible(mapping, mach)
        if not report.feasible:
            assert "pathway" in report.reason
        # At least verify the load was measured on a feasible variant.
        small = Mapping([ModuleSpec(0, 0, 8, 1), ModuleSpec(1, 2, 8, 1)])
        rep2 = check_feasible(small, mach)
        assert rep2.feasible


class TestOptimalFeasible:
    @pytest.mark.parametrize("seed", [0, 3, 6])
    def test_never_beats_unconstrained(self, seed):
        chain = make_random_chain(3, seed=seed, with_memory=True)
        mach = iwarp64_message()
        unconstrained = optimal_mapping(
            chain, mach.total_procs, mach.mem_per_proc_mb, method="exhaustive"
        )
        feas = optimal_feasible_mapping(chain, mach)
        assert feas.throughput <= unconstrained.throughput * (1 + 1e-9)
        assert check_feasible(feas.mapping, mach).feasible

    def test_result_is_actually_feasible(self):
        chain = make_random_chain(4, seed=12, with_memory=True)
        mach = iwarp64_systolic()
        feas = optimal_feasible_mapping(chain, mach)
        report = check_feasible(feas.mapping, mach)
        assert report.feasible


# --------------------------------------------------------------------------
# Reusing the unconstrained optimum instead of a second clustering DP
# --------------------------------------------------------------------------

GRID4 = MachineSpec(
    "grid4x4", 4, 4, 2.0, CommParams(4.0e-4, 1.0e-1, 3.0e-5, 1.0),
    require_rectangular=True,
)


def _bits(x):
    return struct.pack("<d", float(x))


def _clustered_key(res):
    perf = res.performance
    return (
        res.clustering, res.totals, perf.mapping, res.method,
        res.clusterings_examined, _bits(perf.throughput), _bits(perf.latency),
        [_bits(t) for t in perf.effective_responses],
    )


def _feasible_key(res):
    perf = res.performance
    return (
        perf.mapping, _bits(perf.throughput), _bits(perf.latency),
        [_bits(t) for t in perf.responses], res.adjusted, res.candidates_tried,
    )


@pytest.fixture
def dp_calls(monkeypatch):
    """Count the constrained solves the feasibility step makes."""
    calls = []
    original = feasibility.optimal_mapping

    def counting(*args, **kwargs):
        calls.append(kwargs.get("instance_size_ok"))
        return original(*args, **kwargs)

    monkeypatch.setattr(feasibility, "optimal_mapping", counting)
    return calls


class TestReuseUnconstrained:
    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        with_memory=st.booleans(),
        comm_scale=st.sampled_from([0.2, 1.0, 5.0]),
    )
    def test_reuse_is_byte_identical_to_the_constrained_solve(
        self, k, seed, with_memory, comm_scale
    ):
        """On a 4x4 grid, handing the unconstrained optimum to the
        feasibility step gives exactly what forcing the constrained DP
        gives: the same base (clustering, totals, mapping, throughput bits,
        clusterings examined) and the same feasible result."""
        chain = make_random_chain(
            k, seed=seed, with_memory=with_memory, comm_scale=comm_scale
        )
        P, mem = GRID4.total_procs, GRID4.mem_per_proc_mb
        try:
            opt = optimal_mapping(chain, P, mem)
        except InfeasibleError:
            return
        size_ok = lambda s: is_rectangularizable(s, GRID4.rows, GRID4.cols)
        forced = optimal_mapping(chain, P, mem, instance_size_ok=size_ok)
        reused = feasibility._constrained_base(chain, GRID4, True, "auto", size_ok, opt)
        assert _clustered_key(reused) == _clustered_key(forced)

        def outcome(**kw):
            try:
                return _feasible_key(optimal_feasible_mapping(chain, GRID4, **kw))
            except InfeasibleError as exc:  # no packable variant: same error
                return str(exc)

        assert outcome(_unconstrained=opt) == outcome()

    def test_rectangular_optimum_skips_the_second_solve(self, dp_calls):
        hits = 0
        for seed in range(12):
            chain = make_random_chain(4, seed=seed)
            opt = optimal_mapping(chain, GRID4.total_procs, GRID4.mem_per_proc_mb)
            before = len(dp_calls)
            feas = optimal_feasible_mapping(chain, GRID4, _unconstrained=opt)
            rect = all(is_rectangularizable(m.procs, 4, 4) for m in opt.mapping.modules)
            assert len(dp_calls) - before == (0 if rect else 1)
            if rect:
                hits += 1
                assert feas.performance is opt.performance
        assert 0 < hits < 12  # both branches are exercised

    def test_machine_without_a_rule_reuses_as_is(self, dp_calls):
        chain = make_random_chain(5, seed=3)
        mach = sp2_16()
        for method in ("exhaustive", "bisect"):
            opt = optimal_mapping(chain, mach.total_procs, mach.mem_per_proc_mb, method=method)
            feas = optimal_feasible_mapping(chain, mach, method=method, _unconstrained=opt)
            assert feas.performance is opt.performance
        assert dp_calls == []

    def test_bisect_optimum_still_solves_under_the_rule(self, dp_calls):
        """Bisection has no first-index argmin argument: re-solve."""
        chain = make_random_chain(3, seed=1)
        opt = optimal_mapping(chain, 16, GRID4.mem_per_proc_mb, method="bisect")
        optimal_feasible_mapping(chain, GRID4, method="bisect", _unconstrained=opt)
        assert len(dp_calls) == 1 and dp_calls[0] is not None

    def test_fft_hist_512_systolic_still_constrains_the_13(self, dp_calls):
        """Table 1: the unconstrained optimum gives a module 13-processor
        instances, which no rectangle on the 8x8 grid holds, so the
        constrained DP runs and the deployed mapping avoids 13."""
        wl = fft_hist(512, iwarp64_systolic())
        mach = wl.machine
        opt = optimal_mapping(wl.chain, mach.total_procs, mach.mem_per_proc_mb)
        assert 13 in [m.procs for m in opt.mapping.modules]
        feas = optimal_feasible_mapping(wl.chain, mach, _unconstrained=opt)
        assert len(dp_calls) == 1
        assert 13 not in [m.procs for m in feas.mapping.modules]
        assert check_feasible(feas.mapping, mach).feasible
        assert _feasible_key(feas) == _feasible_key(optimal_feasible_mapping(wl.chain, mach))
