"""End-to-end benchmark of the automatic mapping tool.

Runs one workload as a closed loop with one client through the public
``repro`` API, checks every output, and prints each metric by name with
its unit.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Run from the repository root::

    python3 perfbench/run.py --workload paper-map --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs every operation twice, untraced and traced, and
reports the per-layer metrics plus the tracing overhead.  ``--quick``
shrinks every workload to a few seconds for the benchmark's own tests.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()
# Pin BLAS/OpenMP pools to one thread before numpy is imported: the
# benchmark is one client in one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import Sampler  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOAD_NAMES  # noqa: E402

#: Set-ups per run; ``setup_s`` reports the median.
SETUP_REPEATS = 5
#: ``setup_s`` is reported in seconds on a host whose ref takes this long
#: (the tuning host's ref took 0.7-1.3 ms), so that the tenants' load on
#: a shared host does not move it; the wall seconds are printed too.
REFERENCE_REF_S = 0.001


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time; at least one whole pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, one set-up (for the benchmark's tests)")
    parser.add_argument("--inject-invalid", action="store_true",
                        help="deploy one invalid mapping, to show the checks count it")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


class Bench:
    """Executes operations, checks them and, when tracing, pairs them.

    With tracing on, each operation runs twice in alternating order, once
    with the span hooks installed and once without, so the traced run
    measures its own overhead; the two results must agree.
    """

    def __init__(self, tally, sampler, tracer=None, hooks=None, inject_invalid=False):
        self.sampler = sampler
        self.tally = tally
        self.tracer = tracer
        self.hooks = hooks
        self.untraced_s = 0.0
        self.traced_s = 0.0
        self._invalid_pending = inject_invalid

    def take_invalid(self) -> bool:
        """True exactly once when ``--inject-invalid`` is set."""
        pending, self._invalid_pending = self._invalid_pending, False
        return pending

    def execute(self, op, check, outcome, fingerprint) -> None:
        problems: list[str] = []
        ref = math.nan
        try:
            if self.tracer is None:
                out, wall, ref = self.sampler.run(op)
            else:
                out, wall = self._paired(op, fingerprint, problems)
            problems += check(out)
        except Exception as exc:  # a raising operation is a failed operation
            self.tally.record([f"raised {type(exc).__name__}: {str(exc)[:160]}"])
            return
        self.tally.record(problems)
        result = outcome(out, wall)
        result.ref_s = ref
        self.tally.outcomes.append(result)

    def _paired(self, op, fingerprint, problems):
        outs, wall = {}, 0.0
        order = (False, True) if self.tally.attempted % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                self.hooks.install()
                root = self.tracer.open("bench", "op")
            t0 = time.perf_counter()
            try:
                outs[traced] = op()
            finally:
                dt = time.perf_counter() - t0
                if traced:
                    self.tracer.close(root)
                    self.hooks.uninstall()
            if traced:
                self.traced_s += dt
                wall = dt
            else:
                self.untraced_s += dt
        if fingerprint(outs[True]) != fingerprint(outs[False]):
            problems.append("traced result differs from untraced")
        return outs[True], wall


def kind_latencies(work, outs) -> tuple[list[float], float]:
    """Each kind's median latency in refs, once per occurrence of the kind in a pass.

    Weighting kinds by their share of a pass, rather than counting the
    operations a run happened to reach, keeps the mix the same whether a
    run stops at the end of a pass or inside one.  Returns the latencies of
    one pass, sorted, and the data sets a pass simulates per ref.
    """
    latencies: dict[str, list[float]] = {}
    datasets = {}
    for o in outs:
        latencies.setdefault(o.kind, []).append(o.wall_s / o.ref_s)
        datasets[o.kind] = o.datasets
    weights = {kind: n for kind, n in work.pass_kinds().items() if kind in latencies}
    median = {kind: statistics.median(latencies[kind]) for kind in weights}
    sample = sorted(median[kind] for kind, n in weights.items() for _ in range(n))
    rate = (sum(n * datasets[kind] for kind, n in weights.items())
            / sum(n * median[kind] for kind, n in weights.items()))
    return sample, rate


def end_to_end_metrics(work, tally, import_s, setups, loads) -> tuple[dict, list]:
    outs = tally.outcomes
    walls = [o.wall_s for o in outs]
    latencies, rate = kind_latencies(work, outs)
    notes = []
    tail_value, beyond = loads.tail(latencies, work.tail_q)
    repeats = Counter(o.kind for o in outs).values()
    refs = [o.ref_s for o in outs]
    notes.append(f"latencies in refs: {len(repeats)} operation kinds, each the median of "
                 f"{min(repeats)}-{max(repeats)} operations; 1 ref = {statistics.median(refs):.6g} s "
                 f"median ({min(refs):.6g}-{max(refs):.6g} s) in this run")
    notes.append(f"op_latency_tail_ref is the p{100 * work.tail_q:.1f} of the n={len(latencies)} "
                 f"kind latencies of a pass ({beyond} beyond it)")
    raw_tail, _ = loads.tail(walls, work.tail_q)
    notes.append(f"raw wall times, host contention included: p50 "
                 f"{statistics.median(walls):.6g} s, p{100 * work.tail_q:.1f} "
                 f"{raw_tail:.6g} s, {sum(o.datasets for o in outs) / sum(walls):.6g} "
                 f"datasets/s over n={len(walls)} operations")
    setup_s = import_s + statistics.median(wall for wall, _ in setups)
    # The set-ups are too short to sample the host's speed well on their
    # own; the run's operations follow them within seconds.
    setup_ref = statistics.median([ref for _, ref in setups] + refs)
    notes.append(f"setup_s is {setup_s:.6g} wall s at 1 ref = {setup_ref:.6g} s (the run's "
                 f"median), scaled to 1 ref = {REFERENCE_REF_S} s")
    ratios = [o.greedy_ratio for o in outs if o.greedy_ratio is not None]
    avail = [o.availability for o in outs if o.availability is not None]
    values = {
        "setup_s": setup_s * REFERENCE_REF_S / setup_ref,
        "op_latency_p50_ref": statistics.median(latencies),
        "op_latency_tail_ref": tail_value,
        "datasets_per_ref": rate,
        "greedy_opt_ratio": loads.geomean(ratios),
        "availability": statistics.fmean(avail),
        "adapt_recovery": work.recovery(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    # Prediction error sits at the profiling-noise floor on most rows, too
    # noisy to bound; it is reported, with every row, but not gated.
    rows: dict[str, list[float]] = {}
    for o in outs:
        if o.pred_error is not None:
            rows.setdefault(o.row, []).append(o.pred_error)
    errors = [e for row in rows.values() for e in row]
    notes.append(f"pred_error = {statistics.median(errors):.5f} ratio (median of "
                 f"{len(errors)}; mean {statistics.fmean(errors):.5f})")
    for row in sorted(rows):
        notes.append(f"pred_error[{row}] = {statistics.median(rows[row]):.4f} "
                     f"(median of {len(rows[row])})")
    return values, notes


def per_layer_metrics(bench, hooks) -> tuple[dict, list]:
    from tracer import LAYERS

    tracer = bench.tracer
    report = tracer.layer_report()
    values = {}
    for name, _, _ in PER_LAYER:
        values[name] = float(report.get(name, tracer.counts.get(name,
                                        tracer.maxima.get(name, 0.0))))
    requests = tracer.counts.get("tools.mapper.requests", 0)
    if requests:
        values["core.dp_cluster.calls_per_request"] = (
            report.get("core.dp_cluster.request_calls", 0.0) / requests
        )
    busy = values["sim.pipeline.busy_s"]
    if busy:
        values["sim.pipeline.events_per_s"] = values["sim.pipeline.events_processed"] / busy
    wall = report.get("trace.wall_s", 0.0)
    layer_self = sum(report.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
    values["trace.wall_s"] = wall
    values["trace.bench_self_s"] = report.get("bench.self_s", 0.0)
    values["trace.layer_self_frac"] = layer_self / wall if wall else 0.0
    values["trace.overhead_frac"] = (bench.traced_s / bench.untraced_s - 1.0
                                     if bench.untraced_s else 0.0)
    values["trace.spans"] = float(len(tracer.spans))
    values["trace.hooks_missing"] = float(len(hooks.missing))
    notes = [f"hook target missing: {path}" for path in hooks.missing]
    notes.append(f"untraced {bench.untraced_s:.3f} s vs traced {bench.traced_s:.3f} s "
                 "over the same operations")
    return values, notes


def drive(work, bench, seconds: float) -> int:
    """Run one whole pass, then operations until ``seconds`` have elapsed.

    Stopping between operations rather than between passes keeps a run
    close to ``seconds`` however long a pass is.  Returns the number of
    passes completed.
    """
    t0 = time.perf_counter()
    passes = 0
    while True:
        for _ in work.one_pass(bench):
            if passes and time.perf_counter() - t0 >= seconds:
                return passes
        passes += 1
        if time.perf_counter() - t0 >= seconds:
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import loads  # imports numpy and repro
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - START

    cls = loads.WORKLOADS[args.workload]
    sampler = Sampler()
    setups = []
    for _ in range(1 if args.quick else SETUP_REPEATS):
        def set_up():
            work = cls(args.seed, args.quick)
            work.setup()
            return work

        work, wall, ref = sampler.run(set_up)
        setups.append((wall, ref))
    t0 = time.perf_counter()
    work.prepare()
    prepare_s = time.perf_counter() - t0

    tally = loads.Tally()
    tracer = hooks = None
    if args.trace:
        from tracer import Hooks, Tracer

        tracer = Tracer()
        hooks = Hooks(tracer)
    bench = Bench(tally, sampler, tracer, hooks, inject_invalid=args.inject_invalid)
    t0 = time.perf_counter()
    passes = drive(work, bench, args.seconds)
    loop_s = time.perf_counter() - t0

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={passes} operations={tally.attempted} measured={loop_s:.2f} s "
          f"reference arms={prepare_s:.2f} s")
    print(f"# env: {json.dumps(environment(), sort_keys=True)}")
    if not tally.outcomes:
        print("# no operation completed", file=sys.stderr)
        return 1
    if args.trace:
        values, notes = per_layer_metrics(bench, hooks)
        declared = PER_LAYER
    else:
        values, notes = end_to_end_metrics(work, tally, import_s, setups, loads)
        declared = END_TO_END
    metrics = {}
    for name, unit, _ in declared:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"metric {name} = {values[name]:.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print(f"# failed_frac = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.4g}")
    for cause, count in sorted(tally.causes.items()):
        print(f"# failure x{count}: {cause}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
