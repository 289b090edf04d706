#!/usr/bin/env python
"""Mapping-request smoke: one clustering solve per request, greedy under DP.

Runs :func:`repro.tools.auto_map` for each of the six paper programs on each
of the five machine presets and checks three machine-independent
quantities per request:

* **identity** — the deployed plan (mapping, predicted-throughput bits,
  per-module response bits, perturbation provenance) equals the two-solve
  path's: :func:`repro.machine.optimal_feasible_mapping` running its own
  constrained DP on the same fitted chain;
* **solves** — the clustering DP (``optimal_mapping``, counted through the
  bindings the mapper and the feasibility step call it by) runs at most
  once wherever the unconstrained optimum meets the machine's
  instance-size rule, and at most twice elsewhere;
* **greedy/DP ratio < 1** — the §4 heuristic mapper on the fitted chain
  takes less time than the §3.3 clustering DP (best of 11 alternating
  timings each, 5 with ``--quick``).  Reported per workload as a ratio;
  absolute seconds are recorded but not gated.

Results go to ``BENCH_request.json`` at the repo root (or ``--out``).
Run standalone (not collected by pytest)::

    python benchmarks/bench_request.py            # 11 timing repeats
    python benchmarks/bench_request.py --quick    # CI smoke, 5 repeats
"""

from __future__ import annotations

import argparse
import json
import platform
import struct
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.core import heuristic_mapping, optimal_mapping  # noqa: E402
from repro.machine import feasibility, is_rectangularizable, presets  # noqa: E402
from repro.tools import auto_map, mapper  # noqa: E402
from repro.workloads import by_name  # noqa: E402

PROGRAMS = ("fft-hist-256", "fft-hist-512", "radar", "stereo", "airshed", "sar")
MACHINES = ("sp2-16", "pvm-cluster8", "iwarp64-message", "iwarp64-systolic",
            "paragon128")


def _bits(x: float) -> str:
    return struct.pack("<d", float(x)).hex()


def _plan_key(feasible) -> tuple:
    perf = feasible.performance
    return (
        [(m.start, m.stop, m.procs, m.replicas) for m in perf.mapping.modules],
        _bits(perf.throughput),
        [_bits(t) for t in perf.responses],
        feasible.adjusted,
        feasible.candidates_tried,
    )


def _counted_request(work):
    """``auto_map(work)`` plus the number of clustering-DP solves it made."""
    solves = []
    saved = [(m, m.optimal_mapping) for m in (mapper, feasibility)]

    def counter(original):
        def counted(*args, **kwargs):
            solves.append(1)
            return original(*args, **kwargs)
        return counted

    for module, original in saved:
        module.optimal_mapping = counter(original)
    try:
        t0 = time.perf_counter()
        plan = auto_map(work)
        wall = time.perf_counter() - t0
    finally:
        for module, original in saved:
            module.optimal_mapping = original
    return plan, len(solves), wall


def _best_times(fns, repeats: int, budget_s: float = 0.5) -> list[float]:
    """Best of ``repeats`` timings of each of ``fns``, run in alternation so
    host-speed drift hits them alike; stops early once ``budget_s`` is spent
    (a P = 128 DP solve takes seconds, and one timing of it is plenty)."""
    best, spent = [float("inf")] * len(fns), 0.0
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            took = time.perf_counter() - t0
            best[i], spent = min(best[i], took), spent + took
        if spent >= budget_s:
            break
    return best


def bench_request(program: str, machine_name: str, repeats: int) -> dict:
    work = by_name(program, presets.by_name(machine_name))
    machine = work.machine
    plan, solves, wall = _counted_request(work)
    fitted = plan.estimation.fitted_chain
    P, mem = machine.total_procs, machine.mem_per_proc_mb

    t0 = time.perf_counter()
    two_solve = feasibility.optimal_feasible_mapping(fitted, machine)
    two_solve_feasible_s = time.perf_counter() - t0
    meets_rule = not machine.require_rectangular or all(
        is_rectangularizable(m.procs, machine.rows, machine.cols)
        for m in plan.optimal.mapping.modules
    )
    dp_s, greedy_s = _best_times(
        [lambda: optimal_mapping(fitted, P, mem), lambda: heuristic_mapping(fitted, P, mem)],
        repeats,
    )
    return {
        "workload": f"{program}@{machine_name}",
        "k": len(fitted),
        "P": P,
        "identical": _plan_key(plan.feasible) == _plan_key(two_solve),
        "optimum_meets_rule": meets_rule,
        "dp_solves": solves,
        "request_s": wall,
        "two_solve_feasible_s": two_solve_feasible_s,
        "dp_s": dp_s,
        "greedy_s": greedy_s,
        "greedy_dp_ratio": greedy_s / dp_s,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="5 timing repeats instead of 11 (CI smoke)")
    ap.add_argument("--out", default=str(REPO / "BENCH_request.json"))
    args = ap.parse_args(argv)
    repeats = 5 if args.quick else 11

    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "quick": args.quick,
        "repeats": repeats,
        "requests": [],
    }
    failures = []
    for machine_name in MACHINES:
        for program in PROGRAMS:
            row = bench_request(program, machine_name, repeats)
            report["requests"].append(row)
            print(
                f"{row['workload']:<30} solves {row['dp_solves']} "
                f"(rule met: {'yes' if row['optimum_meets_rule'] else 'no '})  "
                f"identical {'yes' if row['identical'] else 'NO '}  "
                f"dp {row['dp_s'] * 1e3:8.2f} ms  greedy {row['greedy_s'] * 1e3:7.2f} ms  "
                f"ratio {row['greedy_dp_ratio']:.3f}"
            )
            if not row["identical"]:
                failures.append(f"{row['workload']}: plan differs from the two-solve path")
            limit = 1 if row["optimum_meets_rule"] else 2
            if row["dp_solves"] > limit:
                failures.append(
                    f"{row['workload']}: {row['dp_solves']} DP solves (limit {limit})"
                )
            if not row["greedy_dp_ratio"] < 1.0:
                failures.append(
                    f"{row['workload']}: greedy/DP time ratio "
                    f"{row['greedy_dp_ratio']:.3f} >= 1"
                )

    rows = report["requests"]
    report["plans_identical"] = all(r["identical"] for r in rows)
    report["solves_per_request_when_rule_met"] = max(
        r["dp_solves"] for r in rows if r["optimum_meets_rule"]
    )
    report["max_greedy_dp_ratio"] = max(r["greedy_dp_ratio"] for r in rows)
    print(
        f"\nplans identical: {report['plans_identical']}; "
        f"max DP solves where the rule is met: "
        f"{report['solves_per_request_when_rule_met']}; "
        f"max greedy/DP ratio: {report['max_greedy_dp_ratio']:.3f}"
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    assert not failures, "; ".join(failures)
    return 0


if __name__ == "__main__":
    sys.exit(main())
