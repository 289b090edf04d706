"""Equivalence of the optimized solver stack with the seed semantics.

The performance layer (workspace reuse, memoized segments, blocked
transitions, final-plane shortcut, parallel fan-out) must not change *what*
the solvers return — only how fast.  These tests pin that down against the
brute-force oracle and across every optimization configuration.
"""

import numpy as np
import pytest

from repro.core import (
    InfeasibleError,
    SegmentCache,
    SolverWorkspace,
    brute_force_mapping,
    build_module_chain,
    optimal_assignment,
    optimal_mapping,
    throughput_of_totals,
)
from repro.core.mapping import all_clusterings, singleton_clustering
from repro.core.workspace import min_block_elements
from repro.workloads.synthetic import random_chain

RTOL = 1e-9

#: The smallest budget the workspace accepts at P = 24: the four resident
#: float64 tensors plus one single-cell transition block (value + index).
LEAST_BUDGET_MB = (4 * 25**3 * 8 + min_block_elements(24) * 16 + 8) / 2**20


def chains_matrix():
    """Randomized small chains covering replication, memory, and k=1."""
    cases = []
    for seed in range(6):
        k = 2 + seed % 4  # k in 2..5
        cases.append((random_chain(k, seed=seed), 8 + 4 * (seed % 3), float("inf")))
    # Memory-constrained (p_min > 1) and low-replicability chains.
    cases.append((random_chain(4, seed=11, with_memory=True), 16, 2.0))
    cases.append((random_chain(5, seed=13, replicable_prob=0.0), 20, float("inf")))
    cases.append((random_chain(3, seed=17, with_memory=True), 24, 1.0))
    # Single-task chain: exercises the no-transition DP path.
    cases.append((random_chain(1, seed=19), 12, float("inf")))
    return cases


class TestOracleEquivalence:
    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_exhaustive_matches_brute_force(self, case):
        chain, P, mem = chains_matrix()[case]
        oracle = brute_force_mapping(chain, P, mem)
        res = optimal_mapping(chain, P, mem, method="exhaustive")
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_no_replication_matches_brute_force(self, case):
        chain, P, mem = chains_matrix()[case]
        oracle = brute_force_mapping(chain, P, mem, replication=False)
        res = optimal_mapping(chain, P, mem, method="exhaustive",
                              replication=False)
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)


class TestConfigurationInvariance:
    """Every perf configuration must return byte-identical mappings."""

    def _solve(self, chain, P, mem, **kw):
        return optimal_mapping(chain, P, mem, method="exhaustive", **kw)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_workspace_reuse_is_stateless(self, case):
        chain, P, mem = chains_matrix()[case]
        ref = self._solve(chain, P, mem)
        again = self._solve(chain, P, mem)  # hot arena + caches
        assert again.clustering == ref.clustering
        assert again.totals == ref.totals
        assert again.throughput == ref.throughput

    @pytest.mark.parametrize("budget_mb", [None, 24.0, LEAST_BUDGET_MB])
    def test_memory_budget_changes_blocking_not_results(self, budget_mb):
        chain, P, mem = random_chain(4, seed=3), 24, float("inf")
        ref = self._solve(chain, P, mem)
        ws = SolverWorkspace(memory_budget_mb=budget_mb)
        mchain = build_module_chain(chain, ref.clustering, mem)
        res = optimal_assignment(mchain, P, workspace=ws)
        assert res.totals == ref.totals
        assert res.bottleneck_response == pytest.approx(
            1.0 / ref.throughput, rel=RTOL
        )
        if budget_mb is not None:
            assert ws.peak_table_bytes <= budget_mb * 2**20

    def test_tiny_budget_raises_upfront(self):
        ws = SolverWorkspace(memory_budget_mb=0.05)
        mchain = build_module_chain(
            random_chain(3, seed=0), singleton_clustering(3)
        )
        with pytest.raises(InfeasibleError):
            optimal_assignment(mchain, 24, workspace=ws)

    @pytest.mark.parametrize("case", range(len(chains_matrix())))
    def test_float32_path_matches_oracle(self, case):
        chain, P, mem = chains_matrix()[case]
        oracle = brute_force_mapping(chain, P, mem)
        ws = SolverWorkspace(value_dtype=np.float32)
        best = None
        for clustering in all_clusterings(len(chain)):
            mchain = build_module_chain(chain, clustering, mem)
            if mchain.total_min_procs > P:
                continue
            try:
                res = optimal_assignment(mchain, P, workspace=ws)
            except InfeasibleError:
                continue
            if best is None or res.throughput > best.throughput:
                best = res
        # float32 tables may round DP values, but the reconstructed mapping
        # is re-scored analytically, so the reported throughput is exact and
        # must sit within float32 resolution of the true optimum.
        assert best.throughput == pytest.approx(oracle.throughput, rel=1e-5)
        assert best.bottleneck_response == pytest.approx(
            1.0 / best.throughput, rel=RTOL
        )

    def test_workers_fan_out_identical(self):
        chain, P = random_chain(5, seed=23), 20
        ref = self._solve(chain, P, float("inf"))
        par = self._solve(chain, P, float("inf"), workers=2)
        assert par.clustering == ref.clustering
        assert par.totals == ref.totals
        assert par.throughput == ref.throughput
        assert par.clusterings_examined == ref.clusterings_examined

    def test_workers_with_unpicklable_filter_falls_back(self):
        chain, P = random_chain(3, seed=29), 12
        ref = self._solve(chain, P, float("inf"),
                          instance_size_ok=lambda s: s != 5)
        par = self._solve(chain, P, float("inf"),
                          instance_size_ok=lambda s: s != 5, workers=2)
        assert par.totals == ref.totals
        assert par.throughput == ref.throughput


class TestSegmentCache:
    def test_cached_chain_matches_uncached(self):
        chain, P = random_chain(5, seed=31), 24
        cache = SegmentCache(chain)
        for clustering in all_clusterings(len(chain)):
            plain = build_module_chain(chain, clustering)
            cached = cache.module_chain(clustering)
            for i in range(len(plain)):
                np.testing.assert_array_equal(
                    plain.response_tensor(i, P), cached.response_tensor(i, P)
                )

    def test_cache_shares_segments_across_clusterings(self):
        chain = random_chain(5, seed=37)
        cache = SegmentCache(chain)
        chains = [cache.module_chain(c) for c in all_clusterings(len(chain))]
        for mc in chains:
            for i in range(len(mc)):
                mc.response_parts(i, 16)
        k = len(chain)
        assert cache.info_misses == k * (k + 1) // 2  # distinct segments only
        builds = sum(len(mc) for mc in chains)
        assert cache.part_misses < builds  # strictly shared

    def test_memory_constrained_cache_equivalence(self):
        chain, P, mem = random_chain(4, seed=41, with_memory=True), 16, 2.0
        oracle = brute_force_mapping(chain, P, mem)
        res = optimal_mapping(chain, P, mem, method="exhaustive")
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)


class TestSingleModuleRegression:
    """`throughput_of_totals` on an l == 1 chain (satellite regression)."""

    def test_single_module_no_comms(self):
        chain = random_chain(1, seed=2)
        mchain = build_module_chain(chain, singleton_clustering(1))
        tp, eff = throughput_of_totals(mchain, [8])
        assert len(eff) == 1 and np.isfinite(eff[0])
        assert tp == pytest.approx(1.0 / eff[0], rel=RTOL)

    def test_single_module_infeasible_total(self):
        chain = random_chain(1, seed=2)
        mchain = build_module_chain(chain, singleton_clustering(1))
        tp, eff = throughput_of_totals(mchain, [0])
        assert tp == 0.0 and eff[0] == float("inf")

    def test_single_module_dp(self):
        chain = random_chain(1, seed=3)
        res = optimal_mapping(chain, 10, method="exhaustive")
        oracle = brute_force_mapping(chain, 10)
        assert res.throughput == pytest.approx(oracle.throughput, rel=RTOL)
