"""Tests for the §4.2 heuristic mapper (clustering search + greedy)."""

import numpy as np
import pytest

from repro.core import (
    Edge,
    InfeasibleError,
    LambdaUnary,
    PolynomialEComm,
    PolynomialExec,
    PolynomialIComm,
    Task,
    TaskChain,
    heuristic_mapping,
    optimal_mapping,
)
from tests.conftest import make_random_chain


class TestHeuristicQuality:
    @pytest.mark.parametrize("seed", range(12))
    def test_close_to_optimal(self, seed):
        chain = make_random_chain(4, seed=seed)
        opt = optimal_mapping(chain, 12, method="exhaustive")
        heur = heuristic_mapping(chain, 12)
        assert heur.throughput <= opt.throughput * (1 + 1e-9)
        assert heur.throughput >= opt.throughput * 0.85

    def test_usually_reaches_optimum(self):
        """§6.3: 'the dynamic programming and the greedy algorithms reached
        the same optimal mapping' — require a clear majority here."""
        hits, n = 0, 15
        for seed in range(n):
            chain = make_random_chain(3, seed=500 + seed)
            opt = optimal_mapping(chain, 12, method="exhaustive")
            heur = heuristic_mapping(chain, 12)
            if heur.throughput == pytest.approx(opt.throughput, rel=1e-9):
                hits += 1
        assert hits >= int(0.7 * n)

    def test_merges_when_internal_comm_is_free(self):
        tasks = [Task(f"t{i}", PolynomialExec(0.0, 8.0, 0.0), replicable=False) for i in range(3)]
        edges = [
            Edge(icom=PolynomialIComm(0.0, 0.0, 0.0),
                 ecom=PolynomialEComm(50.0, 0.0, 0.0, 0.0, 0.0))
            for _ in range(2)
        ]
        chain = TaskChain(tasks, edges)
        heur = heuristic_mapping(chain, 8)
        assert heur.clustering == ((0, 2),)


class TestHeuristicMechanics:
    def test_falls_back_to_merged_when_singletons_do_not_fit(self):
        # Singleton minimums 3 * ceil(3/2) = 6 > 5 procs, merged needs 5.
        tasks = [
            Task(f"t{i}", PolynomialExec(0.0, 2.0, 0.0), mem_parallel_mb=3.0)
            for i in range(3)
        ]
        chain = TaskChain(tasks)
        heur = heuristic_mapping(chain, 5, mem_per_proc_mb=2.0)
        assert heur.clustering == ((0, 2),)

    def test_raises_when_nothing_fits(self):
        tasks = [Task("a", PolynomialExec(0.0, 1.0, 0.0), mem_parallel_mb=100.0)]
        chain = TaskChain(tasks)
        with pytest.raises(InfeasibleError):
            heuristic_mapping(chain, 4, mem_per_proc_mb=1.0)

    def test_reports_search_statistics(self):
        chain = make_random_chain(4, seed=2)
        heur = heuristic_mapping(chain, 12)
        assert heur.clusterings_examined >= 1
        assert heur.rounds >= 1

    def test_single_task(self):
        chain = TaskChain([Task("solo", PolynomialExec(0.1, 5.0, 0.0))])
        heur = heuristic_mapping(chain, 6)
        assert heur.clustering == ((0, 0),)
        assert heur.throughput > 0


class TestDegenerateCosts:
    def test_nan_cost_raises_like_the_dp(self):
        """The roadmap's probe: a 3-task chain whose middle task's cost is
        NaN below 3 processors, on P = 12.  The DP raised "no clustering
        fits", which blamed the budget; the greedy returned a mapping with
        throughput inf.  Both now raise InfeasibleError naming the module
        whose table holds the NaN (the DP names the narrowest such module
        over all clusterings, with or without worker processes)."""
        nan_below_3 = LambdaUnary(
            lambda p: np.where(p < 3, np.nan, 6.0 / p), name="nan-below-3"
        )
        chain = TaskChain([
            Task("a", PolynomialExec(0.1, 4.0, 0.0)),
            Task("b", nan_below_3),
            Task("c", PolynomialExec(0.1, 4.0, 0.0)),
        ])
        nan_module = r"module \[1\.\.1\].*NaN"
        with pytest.raises(InfeasibleError, match=nan_module):
            optimal_mapping(chain, 12)
        with pytest.raises(InfeasibleError, match=nan_module):
            optimal_mapping(chain, 12, workers=2)
        with pytest.raises(InfeasibleError, match=nan_module):
            heuristic_mapping(chain, 12)

    def test_budget_message_kept_without_nan(self):
        """A chain that truly does not fit keeps the budget wording."""
        chain = TaskChain([
            Task("a", PolynomialExec(0.1, 4.0, 0.0), min_procs=5),
            Task("b", PolynomialExec(0.1, 4.0, 0.0), min_procs=5),
        ])
        with pytest.raises(InfeasibleError, match="fits on 4 processors"):
            optimal_mapping(chain, 4)
