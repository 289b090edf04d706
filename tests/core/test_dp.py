"""Tests for the dynamic-programming assignment (paper §3.1–§3.2).

The load-bearing guarantee — DP result equals the brute-force optimum — is
checked on a battery of random chains with and without replication, memory
minimums, and communication of varying weight.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    InfeasibleError,
    LambdaBinary,
    LambdaUnary,
    PolynomialExec,
    SolverWorkspace,
    Task,
    TaskChain,
    brute_force_assignment,
    build_module_chain,
    dp,
    optimal_assignment,
    optimal_mapping,
    singleton_clustering,
    throughput_of_totals,
)
from repro.core.workspace import BLOCK_ELEMENTS, min_block_elements
from tests.conftest import make_random_chain, make_three_task_chain


def _mchain(chain, mem=float("inf")):
    return build_module_chain(chain, singleton_clustering(len(chain)), mem)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(12))
    def test_no_replication(self, seed):
        chain = make_random_chain(3, seed=seed)
        mc = _mchain(chain)
        dp = optimal_assignment(mc, 12, replication=False)
        bf = brute_force_assignment(mc, 12, replication=False)
        assert dp.throughput == pytest.approx(bf.throughput)

    @pytest.mark.parametrize("seed", range(12))
    def test_with_replication(self, seed):
        chain = make_random_chain(3, seed=100 + seed)
        mc = _mchain(chain)
        dp = optimal_assignment(mc, 12, replication=True)
        bf = brute_force_assignment(mc, 12, replication=True)
        assert dp.throughput == pytest.approx(bf.throughput)

    @pytest.mark.parametrize("seed", range(6))
    def test_with_memory_minimums(self, seed):
        chain = make_random_chain(3, seed=200 + seed, with_memory=True)
        mc = _mchain(chain, mem=1.0)
        dp = optimal_assignment(mc, 14, replication=True)
        bf = brute_force_assignment(mc, 14, replication=True)
        assert dp.throughput == pytest.approx(bf.throughput)

    @pytest.mark.parametrize("seed", range(6))
    def test_heavy_communication(self, seed):
        chain = make_random_chain(4, seed=300 + seed, comm_scale=10.0)
        mc = _mchain(chain)
        dp = optimal_assignment(mc, 10, replication=False)
        bf = brute_force_assignment(mc, 10, replication=False)
        assert dp.throughput == pytest.approx(bf.throughput)

    def test_longer_chain(self):
        chain = make_random_chain(5, seed=42)
        mc = _mchain(chain)
        dp = optimal_assignment(mc, 9, replication=True)
        bf = brute_force_assignment(mc, 9, replication=True)
        assert dp.throughput == pytest.approx(bf.throughput)


class TestDPInternals:
    def test_reported_value_matches_reevaluation(self):
        chain = make_three_task_chain()
        mc = _mchain(chain)
        dp = optimal_assignment(mc, 16)
        tp, eff = throughput_of_totals(mc, dp.totals)
        assert dp.throughput == pytest.approx(tp)
        assert dp.bottleneck_response == pytest.approx(max(eff))

    def test_totals_within_budget(self):
        chain = make_random_chain(4, seed=1)
        mc = _mchain(chain)
        for P in (4, 7, 16):
            dp = optimal_assignment(mc, P)
            assert sum(dp.totals) <= P
            assert all(t >= 1 for t in dp.totals)

    def test_may_leave_processors_idle(self):
        """With strong per-processor overhead the optimum can use < P."""
        tasks = [
            Task("a", PolynomialExec(0.0, 1.0, 1.0)),
            Task("b", PolynomialExec(0.0, 1.0, 1.0), replicable=False),
        ]
        chain = TaskChain(tasks)
        mc = _mchain(chain)
        dp = optimal_assignment(mc, 20, replication=False)
        assert sum(dp.totals) < 20

    def test_single_module_chain(self):
        chain = TaskChain([Task("solo", PolynomialExec(0.1, 12.0, 0.0))])
        mc = _mchain(chain)
        dp = optimal_assignment(mc, 8)
        assert dp.totals == [8]  # fully replicated: 8 instances of 1
        assert dp.throughput == pytest.approx(8 / (0.1 + 12.0))

    def test_monotone_in_processors(self):
        """More processors never lower the optimal throughput."""
        chain = make_random_chain(3, seed=9)
        mc = _mchain(chain)
        last = 0.0
        for P in range(3, 24, 3):
            tp = optimal_assignment(mc, P).throughput
            assert tp >= last - 1e-12
            last = tp

    def test_infeasible_machine(self):
        tasks = [
            Task("a", PolynomialExec(0.0, 1.0, 0.0), min_procs=4),
            Task("b", PolynomialExec(0.0, 1.0, 0.0), min_procs=4),
        ]
        chain = TaskChain(tasks)
        with pytest.raises(InfeasibleError):
            optimal_assignment(_mchain(chain), 6)

    def test_rejects_zero_processors(self):
        chain = make_random_chain(2, seed=0)
        with pytest.raises(InfeasibleError):
            optimal_assignment(_mchain(chain), 0)


class TestReplicationBenefit:
    def test_replication_helps_scalable_pipeline(self):
        """A replicable chain should beat its non-replicated counterpart
        when tasks have substantial fixed (non-parallelisable) cost."""
        tasks = [
            Task("a", PolynomialExec(1.0, 4.0, 0.0)),
            Task("b", PolynomialExec(1.0, 4.0, 0.0)),
        ]
        chain = TaskChain(tasks)
        mc = _mchain(chain)
        with_rep = optimal_assignment(mc, 16, replication=True)
        without = optimal_assignment(mc, 16, replication=False)
        assert with_rep.throughput > without.throughput


# ---------------------------------------------------------------------------
# The middle-stage transition against the full half-cube reduction
# ---------------------------------------------------------------------------


def _half_cube_transition(W2, R2, V_next, Q, t_flat, idx_flat):
    """Reference kernel: every ``q`` and every ``pn`` for every ``pl <= pt``
    (the reduction the solver ran before it skipped unread cells).  Same
    signature and return value as :func:`repro.core.dp._transition`."""
    N = W2.shape[0]
    for pt in range(N):
        T = np.maximum(W2[pt, : pt + 1, None, :], R2[: pt + 1])  # (pl, pn, q)
        idx = np.argmin(T, axis=-1)
        Q[pt, : pt + 1] = idx
        V_next[pt, : pt + 1] = np.take_along_axis(T, idx[..., None], axis=-1)[..., 0]
    return N * N * N * (N + 1) // 2


def _readable(N):
    """Cells a later step reads: ``pl <= pt`` and ``pt + pn <= P``."""
    pt, pl, pn = np.ogrid[:N, :N, :N]
    return np.broadcast_to((pl <= pt) & (pt + pn <= N - 1), (N, N, N))


@st.composite
def transition_tables(draw):
    """Random ``V_{j-1}``/``R_j`` tables with ties, +inf islands and NaN.

    ``V`` is +inf wherever module ``j-1`` would hold more than its prefix
    total (``q > pt``), as every real value table is.  NaN sits where a
    real table can carry it into a transition: in readable ``V`` cells and
    in whole ``q`` rows of ``R`` (a NaN execution or outgoing-communication
    cost).  A NaN at some ``q`` only (an incoming-communication NaN) never
    reaches a transition: the solver rejects the table first, which
    ``TestWholeSolveDifferential`` checks end to end.
    """
    P = draw(st.integers(1, 40))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    N = P + 1
    V = np.round(rng.uniform(0.0, 3.0, (N, N, N)), 1)  # rounding makes ties
    R = np.round(rng.uniform(0.0, 3.0, (N, N, N)), 1)
    V[rng.random(V.shape) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = np.inf
    R[rng.random(R.shape) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = np.inf
    a, q, _ = np.ogrid[:N, :N, :N]
    V[np.broadcast_to(q > a, V.shape)] = np.inf
    if draw(st.booleans()):
        island = (rng.random(V.shape) < 0.02) & np.broadcast_to(q <= a, V.shape)
        V[island] = np.nan
        R[rng.random((N, N)) < 0.02] = np.nan  # whole q rows of (pl, pn)
    elements = draw(st.sampled_from([
        min_block_elements(P),
        max(min_block_elements(P), N**4 // 7),
        BLOCK_ELEMENTS,
    ]))
    return V.astype(dtype), R.astype(dtype), elements


def _run_kernel(kernel, V_prev, R2, elements):
    N = V_prev.shape[0]
    W2 = np.empty_like(V_prev)
    dp._shift_into(V_prev, W2, N - 1)
    V_next = np.full_like(V_prev, np.inf)
    Q = np.zeros((N, N, N), dtype=np.uint8)
    t_flat = np.empty(elements, dtype=V_prev.dtype)
    idx_flat = np.empty(elements, dtype=np.intp)
    cells = kernel(W2, R2, V_next, Q, t_flat, idx_flat)
    return V_next, Q, cells


class TestTransition:
    @settings(max_examples=80, deadline=None)
    @given(case=transition_tables())
    def test_readable_cells_match_half_cube(self, case):
        V_prev, R2, elements = case
        N = V_prev.shape[0]
        got_V, got_Q, _ = _run_kernel(dp._transition, V_prev, R2, elements)
        ref_V, ref_Q, _ = _run_kernel(_half_cube_transition, V_prev, R2, elements)
        m = _readable(N)
        assert np.array_equal(got_V[m], ref_V[m], equal_nan=True)
        assert np.array_equal(got_Q[m], ref_Q[m])
        if not np.isnan(R2).any():
            # What the next stage relies on: +inf wherever pl > pt.
            pt, pl, _ = np.ogrid[:N, :N, :N]
            assert np.all(got_V[np.broadcast_to(pl > pt, got_V.shape)] == np.inf)

    def test_small_stage_is_one_block(self):
        """At P = 8 the default scratch holds a whole stage: one block of
        every (pt, pl, pn, q), so the per-block overhead is paid once."""
        N = 9
        V_prev = np.zeros((N, N, N))
        R2 = np.zeros((N, N, N))
        _, _, cells = _run_kernel(dp._transition, V_prev, R2, BLOCK_ELEMENTS)
        assert cells == N**4

    def test_cells_counted_and_below_a_third_of_the_half_cube(self):
        chain = make_random_chain(5, seed=4)
        res = optimal_assignment(_mchain(chain), 64)
        N = 65
        half_cube = 3 * N * N * N * (N + 1) // 2 + N * N  # 3 middle stages + final
        assert 0 < res.cells <= half_cube / 3
        again = optimal_assignment(_mchain(chain), 64)
        assert again.cells == res.cells

    def test_least_budget_blocks_match_default(self):
        """The smallest budget the workspace accepts splits the rows into
        blocks of about one (pt, pl) cell; the mapping and objective bits
        are those of the default blocking."""
        chain = make_random_chain(5, seed=21)
        mc = _mchain(chain)
        P, N = 24, 25
        least_mb = (4 * N**3 * 8 + min_block_elements(P) * 16 + 8) / 2**20
        tight = optimal_assignment(
            mc, P, workspace=SolverWorkspace(memory_budget_mb=least_mb)
        )
        ref = optimal_assignment(mc, P, workspace=SolverWorkspace())
        assert tight.totals == ref.totals
        assert tight.bottleneck_response.hex() == ref.bottleneck_response.hex()
        assert tight.cells < ref.cells  # smaller blocks skip more cells
        with pytest.raises(InfeasibleError):
            optimal_assignment(
                mc, P, workspace=SolverWorkspace(memory_budget_mb=least_mb - 1e-4)
            )


# ---------------------------------------------------------------------------
# Whole solves with degenerate cost islands
# ---------------------------------------------------------------------------


def _with_island(cost, lo, hi, value):
    return LambdaUnary(
        lambda p: np.where((p >= lo) & (p <= hi), value, cost(p)), name="island"
    )


def _with_ecom_island(ecom, side, lo, hi, value):
    def fn(ps, pr):
        size = ps if side == "send" else pr
        return np.where((size >= lo) & (size <= hi), value, ecom(ps, pr))

    return LambdaBinary(fn, name="ecom-island")


@st.composite
def island_chains(draw):
    """Random chains whose exec costs, or the ecoms between unreplicable
    modules (whose instance size is their total, so every size is used),
    are NaN or +inf on a range of processor counts."""
    k = draw(st.integers(2, 4))
    P = draw(st.integers(k, 14))
    chain = make_random_chain(
        k, seed=draw(st.integers(0, 10_000)), replicable_prob=0.0
    )
    value = st.sampled_from([np.nan, np.inf])
    for task in chain.tasks:
        if draw(st.booleans()):
            lo = draw(st.integers(1, P))
            hi = draw(st.integers(lo, P))
            task.exec_cost = _with_island(task.exec_cost, lo, hi, draw(value))
    for edge in chain.edges:
        if draw(st.booleans()):
            lo = draw(st.integers(1, P))
            hi = draw(st.integers(lo, P))
            side = draw(st.sampled_from(["send", "recv"]))
            edge.ecom = _with_ecom_island(edge.ecom, side, lo, hi, draw(value))
    return chain, P


def _solve(chain, P):
    try:
        res = optimal_mapping(chain, P, method="exhaustive")
    except InfeasibleError as err:
        return type(err)
    return (
        res.clustering, res.totals, res.throughput.hex(), res.clusterings_examined
    )


class TestWholeSolveDifferential:
    @settings(max_examples=60, deadline=None)
    @given(case=island_chains())
    def test_matches_half_cube_solver(self, case):
        """Clustering, totals, throughput bits and clusterings examined, or
        the exception class, equal those of a solver that runs the full
        half-cube reduction and lets NaN flow through it (the solver before
        it skipped unread cells and rejected NaN tables up front)."""
        chain, P = case
        got = _solve(chain, P)
        with mock.patch.object(dp, "_transition", _half_cube_transition), \
                mock.patch.object(dp, "_reject_nan", lambda *a: None):
            ref = _solve(chain, P)
        assert got == ref
