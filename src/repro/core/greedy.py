"""Greedy processor-assignment heuristic (paper §4.1).

``Greedy(T, P)``: start every module at its minimum processor count, then —
while processors remain — find the module with the longest effective
response time and award one processor to whichever of {its predecessor,
itself, its successor} yields the best new throughput; remember the best
assignment ever seen (adding a processor can *hurt*, since overhead terms
grow with partition size).  Complexity ``O(P k)``.

Variants:

* ``slowest_only`` — always add to the bottleneck module itself; provably
  optimal when communication time increases monotonically with the
  processor counts involved (Theorem 1).
* ``backtracking`` — a bounded local-search post-pass moving one or two
  processors between modules (or parking them idle), motivated by
  Theorem 2's guarantee that plain greedy overallocates by at most two
  processors per module under convexity assumptions.

Candidates are scored from the module chain's tabulated response factors
(:meth:`ModuleChain.response_parts`, shared through a
:class:`~repro.core.response.SegmentCache` when the chain carries one) rather
than by re-evaluating the cost objects; see :class:`_ResponseTable`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dp import _strip_replication
from .exceptions import InfeasibleError
from .mapping import Mapping
from .response import (
    MappingPerformance,
    ModuleChain,
    evaluate_module_chain,
    throughput_of_totals,
    totals_to_allocations,
)

__all__ = ["GreedyResult", "greedy_assignment"]


@dataclass
class GreedyResult:
    """Outcome of the greedy assignment."""

    totals: list[int]
    performance: MappingPerformance
    steps: int                         # processors handed out
    trajectory: list[float]            # best throughput after each step
    backtrack_moves: int               # accepted local-search improvements

    @property
    def mapping(self) -> Mapping:
        return self.performance.mapping

    @property
    def throughput(self) -> float:
        return self.performance.throughput


class _ResponseTable:
    """Effective module responses read off the tabulated response factors.

    Module ``i``'s effective response at total allocations ``totals`` is
    ``(ce[q, pl] + com_out[pl, pn]) / denom[pl]`` with ``q``, ``pl``, ``pn``
    the totals of modules ``i-1``, ``i``, ``i+1`` (0 for a missing
    neighbour), from :meth:`ModuleChain.response_parts`.  ``ce`` already
    holds ``com_in + exec``, so this is the same float sum, in the same
    order, that :func:`throughput_of_totals` and
    :func:`evaluate_module_chain` form from scalar cost calls: the greedy's
    responses, throughputs and choices are bit-identical to scoring with
    them.  Every total must lie in ``p_min..P`` (the search never leaves
    that range).  A NaN response raises :class:`InfeasibleError` naming the
    module, so a broken cost model never yields a silent ``inf``.
    """

    def __init__(self, mchain: ModuleChain, P: int):
        self.infos = mchain.infos
        self.parts = [
            tuple(a.item for a in mchain.response_parts(i, P)[:3])
            for i in range(len(mchain))
        ]

    def moved(self, totals: list[int], eff: list[float], c: int) -> list[float]:
        """``eff`` re-read for module ``c`` and its neighbours — the only
        responses that depend on module ``c``'s total."""
        out = eff.copy()
        last = len(totals) - 1
        for i in range(c - 1 if c > 0 else 0, (c + 1 if c < last else last) + 1):
            ce, com_out, denom = self.parts[i]
            pl = totals[i]
            q = totals[i - 1] if i > 0 else 0
            pn = totals[i + 1] if i < last else 0
            t = (ce(q, pl) + com_out(pl, pn)) / denom(pl)
            if t != t:
                info = self.infos[i]
                raise InfeasibleError(
                    f"module [{info.start}..{info.stop}] has a NaN response at "
                    f"{pl} processors (neighbours {q}, {pn}): its cost model "
                    f"is not finite there"
                )
            out[i] = t
        return out

    def responses(self, totals: list[int]) -> list[float]:
        eff = [math.inf] * len(totals)
        for c in range(len(totals)):
            eff = self.moved(totals, eff, c)
        return eff


def _throughput(eff: list[float]) -> float:
    """:func:`throughput_of_totals`'s throughput of effective responses."""
    worst = max(eff)
    return 0.0 if not math.isfinite(worst) or worst <= 0 else 1.0 / worst


@dataclass
class _Search:
    """What the greedy search found, before the analytic evaluation."""

    mchain: ModuleChain                # the chain searched (replication applied)
    totals: list[int]
    responses: list[float]             # effective responses at ``totals``
    steps: int
    trajectory: list[float]
    moves: int


def _greedy_search(
    mchain: ModuleChain,
    total_procs: int,
    replication: bool = True,
    slowest_only: bool = False,
    backtracking: bool = False,
    max_backtrack_rounds: int = 64,
    initial_totals: list[int] | None = None,
) -> _Search:
    """The search behind :func:`greedy_assignment`, without evaluating the
    resulting mapping — what the §4.2 clustering search scores with."""
    if not replication:
        mchain = _strip_replication(mchain)
    l = len(mchain)
    P = int(total_procs)

    # Step 1: minimum (or warm-start) allocation.
    minimums = [info.p_min for info in mchain.infos]
    if sum(minimums) > P:
        raise InfeasibleError(
            f"modules need at least {sum(minimums)} processors, machine has {P}"
        )
    if initial_totals is None:
        totals = list(minimums)
    else:
        if len(initial_totals) != l:
            raise InfeasibleError(
                f"warm start has {len(initial_totals)} entries for {l} modules"
            )
        totals = [max(m, int(t)) for m, t in zip(minimums, initial_totals)]
        # Shed processors (from the least-loaded modules first) until the
        # warm start fits the machine.  A total may exceed P here, beyond
        # the tables, so this loop scores with the scalar cost calls.
        while sum(totals) > P:
            _, eff = throughput_of_totals(mchain, totals)
            candidates = [
                i for i in range(l) if totals[i] > minimums[i]
            ]
            best = min(candidates, key=lambda i: eff[i])
            totals[best] -= 1
    spare = P - sum(totals)

    table = _ResponseTable(mchain, P)
    eff = table.responses(totals)
    best_tp = _throughput(eff)
    best_totals, best_eff = list(totals), eff
    trajectory = [best_tp]
    steps = 0

    # Steps 2-3: hand out one processor at a time.
    while spare > 0:
        slow = max(range(l), key=lambda i: eff[i])
        if slowest_only:
            candidates = [slow]
        else:
            # Prefer the bottleneck module itself on ties.
            candidates = [slow]
            if slow > 0:
                candidates.append(slow - 1)
            if slow < l - 1:
                candidates.append(slow + 1)
        best_c, best_c_tp, best_c_eff = candidates[0], -1.0, eff
        for c in candidates:
            totals[c] += 1
            c_eff = table.moved(totals, eff, c)
            totals[c] -= 1
            tp = _throughput(c_eff)
            if tp > best_c_tp:
                best_c, best_c_tp, best_c_eff = c, tp, c_eff
        totals[best_c] += 1
        eff = best_c_eff
        spare -= 1
        steps += 1
        if best_c_tp > best_tp:
            best_tp = best_c_tp
            best_totals, best_eff = list(totals), eff
        trajectory.append(best_tp)

    moves = 0
    if backtracking:
        best_totals, best_eff, moves = _local_search(
            table, best_totals, best_eff, P, best_tp, max_backtrack_rounds
        )
    return _Search(mchain, best_totals, best_eff, steps, trajectory, moves)


def greedy_assignment(
    mchain: ModuleChain,
    total_procs: int,
    replication: bool = True,
    slowest_only: bool = False,
    backtracking: bool = False,
    max_backtrack_rounds: int = 64,
    initial_totals: list[int] | None = None,
) -> GreedyResult:
    """Run the §4.1 greedy heuristic on a module chain.

    ``initial_totals`` warm-starts the search from an existing allocation
    (clamped up to the per-module minimums, shedding processors greedily if
    the allocation no longer fits) — the dynamic-remapping use case the
    paper cites as the heuristic's motivation.

    Raises :class:`InfeasibleError` when even the per-module minimums do not
    fit on the machine, or when a response the search reads is NaN.
    """
    found = _greedy_search(
        mchain, total_procs, replication, slowest_only, backtracking,
        max_backtrack_rounds, initial_totals,
    )
    perf = evaluate_module_chain(
        found.mchain, totals_to_allocations(found.mchain, found.totals)
    )
    return GreedyResult(
        totals=found.totals,
        performance=perf,
        steps=found.steps,
        trajectory=found.trajectory,
        backtrack_moves=found.moves,
    )


def _local_search(
    table: _ResponseTable,
    totals: list[int],
    eff: list[float],
    P: int,
    best_tp: float,
    max_rounds: int,
) -> tuple[list[int], list[float], int]:
    """Bounded hill-climbing over ±1/±2 processor moves between modules.

    Moves considered each round: shift ``d ∈ {1, 2}`` processors from module
    ``a`` to module ``b`` (``a != b``), retire ``d`` processors from ``a``
    to the idle pool, or draw ``d`` from the pool into ``b``.  Only strict
    throughput improvements are accepted, so the search terminates.
    """
    l = len(totals)
    totals = list(totals)
    spare = P - sum(totals)
    moves = 0
    for _ in range(max_rounds):
        improved = False
        candidates: list[tuple[int | None, int | None, int]] = []
        for d in (1, 2):
            for a in range(l):
                candidates.append((a, None, d))          # retire to pool
                for b in range(l):
                    if a != b:
                        candidates.append((a, b, d))      # shift a -> b
            for b in range(l):
                candidates.append((None, b, d))          # draw from pool
        for a, b, d in candidates:
            if a is not None and totals[a] - d < table.infos[a].p_min:
                continue
            if a is None and spare < d:
                continue
            if a is not None:
                totals[a] -= d
            if b is not None:
                totals[b] += d
            moved_eff = eff
            for m in (a, b):
                if m is not None:
                    moved_eff = table.moved(totals, moved_eff, m)
            tp = _throughput(moved_eff)
            if tp > best_tp * (1 + 1e-12):
                best_tp = tp
                eff = moved_eff
                spare = P - sum(totals)
                moves += 1
                improved = True
                break
            # undo
            if a is not None:
                totals[a] += d
            if b is not None:
                totals[b] -= d
        if not improved:
            break
    return totals, eff, moves
