"""The benchmark's four workloads.

Each workload is a closed loop with one client: it issues its next
operation (a mapping request or a stream) only after the previous one has
returned.  Operations are grouped into *passes* of fixed composition; a
run executes one whole pass, then operations until ``--seconds`` have
elapsed.

A workload has three phases, driven by ``run.py``:

* ``setup`` -- generates the inputs from the seed and runs one untimed
  warm-up operation (timed as part of ``setup_s``);
* ``prepare`` -- untimed reference computations that are neither set-up
  nor measurement (the static and oracle arms of ``drift-adapt``);
* ``one_pass`` -- a generator over one pass of timed operations, each
  checked for correctness right after it returns (checks are not timed);
  it yields after every operation so a run can stop between operations.

Every operation has a *kind*: the operations of one kind repeat the same
work on fresh noise (one program on one machine, one chain, one stream
configuration), and ``pass_kinds`` counts how often each kind occurs in a
pass.  The timed metrics are computed from the fastest run of each kind.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from repro.core.cluster_greedy import heuristic_mapping
from repro.core.cost import PolynomialEComm, PolynomialExec, PolynomialIComm
from repro.core.exceptions import PlanError
from repro.core.exhaustive import brute_force_mapping
from repro.core.mapping import Mapping, ModuleSpec
from repro.core.task import Edge, Task, TaskChain
from repro.core.validate import ensure_valid_plan
from repro.machine import presets
from repro.machine.feasibility import check_feasible
from repro.sim import controller as ctl
from repro.sim import pipeline
from repro.sim.faults import FaultModel, ProcessorFailure
from repro.sim.noise import DriftNoiseModel, NoiseModel
from repro.tools import mapper
from repro.workloads import Workload, by_name, random_chain

#: Relative slack of the optimality checks: the certified tolerance of the
#: bisection solver, which the exhaustive solver meets exactly.
REL_TOL = 1e-9


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31 - 1))


@dataclass
class Outcome:
    """What one operation produced, as the metrics need it."""

    kind: str
    wall_s: float
    datasets: int
    pred_error: float | None = None
    greedy_ratio: float | None = None
    availability: float | None = None
    row: str = ""
    #: One ref, the calibration loop's time, during the operation (set by
    #: the runner in untraced runs; see ``hostspeed``).
    ref_s: float = math.nan


@dataclass
class Tally:
    """Per-run accumulation of outcomes and failed checks."""

    outcomes: list[Outcome] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    causes: dict[str, int] = field(default_factory=dict)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        for cause in problems:
            self.causes[cause] = self.causes.get(cause, 0) + 1


def invalid_variant(mapping: Mapping, total_procs: int) -> Mapping:
    """The mapping with its first module grown past the machine size."""
    first, *rest = mapping.modules
    grown = ModuleSpec(first.start, first.stop, first.procs + total_procs, first.replicas)
    return Mapping([grown, *rest])


class Load:
    """Base of the workloads: seeded generator, no reference arms."""

    name = ""
    #: Quantile reported as ``op_latency_tail_s``.
    tail_q = 1.0

    def __init__(self, seed: int, quick: bool):
        self.rng = np.random.default_rng(seed)
        self.quick = quick

    def prepare(self) -> None:
        """Untimed reference computations after set-up (none by default)."""

    def pass_kinds(self) -> Counter:
        """How many operations of each kind one pass holds."""
        raise NotImplementedError

    def recovery(self) -> float:
        """Share of the static-to-oracle gap recovered; 1.0 without an adaptive arm."""
        return 1.0


# ---------------------------------------------------------------------------
# Mapping requests: paper-map and long-chain-map
# ---------------------------------------------------------------------------

PAPER_PROGRAMS = ("fft-hist-256", "fft-hist-512", "radar", "stereo", "airshed", "sar")
PAPER_MACHINES = ("sp2-16", "pvm-cluster8", "iwarp64-message", "iwarp64-systolic",
                  "paragon128")


class MapRequests(Load):
    """Closed-loop mapping requests: ``auto_map`` then ``measure``.

    Subclasses build ``programs``, the ``(label, workload)`` requests of
    one pass, in ``setup``; each pass sends them in a seeded order, every
    request with fresh profile-noise and measurement-noise seeds.
    """

    #: Probability that an eligible request (k <= 4, P <= 16) is also
    #: solved by the brute-force oracle.
    brute_force_share = 1 / 3
    #: Data sets each request's ``measure`` call simulates.
    measure_datasets = 200

    def warm_up(self, programs: list[Workload]) -> None:
        for work in programs:
            plan = mapper.auto_map(work, profile_noise=NoiseModel(seed=1))
            mapper.measure(work, plan.mapping, noise=NoiseModel(seed=2))

    def pass_kinds(self) -> Counter:
        return Counter(label for label, _ in self.programs)

    def one_pass(self, bench: "Bench"):
        for i in self.rng.permutation(len(self.programs)):
            label, work = self.programs[i]
            profile_seed, measure_seed = _seed(self.rng), _seed(self.rng)
            machine = work.machine
            brute = (
                len(work.chain) <= 4 and machine.total_procs <= 16
                and (self.quick or self.rng.random() < self.brute_force_share)
            )
            invalid = bench.take_invalid()

            def request(work=work, profile_seed=profile_seed,
                        measure_seed=measure_seed, invalid=invalid):
                plan = mapper.auto_map(work, profile_noise=NoiseModel(seed=profile_seed))
                deployed = plan.mapping
                if invalid:
                    deployed = invalid_variant(deployed, work.machine.total_procs)
                result = mapper.measure(work, deployed, n_datasets=self.measure_datasets,
                                        noise=NoiseModel(seed=measure_seed))
                return plan, deployed, result

            def check(out, work=work, brute=brute):
                return self.check(work, *out, brute=brute)

            def outcome(out, wall_s, label=label):
                plan, _, result = out
                return Outcome(
                    kind=label,
                    wall_s=wall_s,
                    datasets=result.n_datasets,
                    pred_error=abs(result.throughput / plan.predicted_throughput - 1.0),
                    greedy_ratio=plan.heuristic.throughput / plan.optimal.throughput,
                    availability=result.availability,
                    row=label,
                )

            bench.execute(request, check, outcome, _request_fingerprint)
            yield

    @staticmethod
    def check(work: Workload, plan, deployed: Mapping, result, brute: bool) -> list[str]:
        problems = []
        machine = work.machine
        if not check_feasible(deployed, machine):
            problems.append("deployed mapping fails check_feasible")
        try:
            ensure_valid_plan(work.chain, deployed, total_procs=machine.total_procs,
                              mem_per_proc_mb=machine.mem_per_proc_mb)
        except PlanError:
            problems.append("deployed mapping fails ensure_valid_plan")
        optimal = plan.optimal.throughput
        if plan.heuristic.throughput > optimal * (1 + REL_TOL):
            problems.append("heuristic throughput above the optimal throughput")
        if plan.feasible.throughput > optimal * (1 + REL_TOL):
            problems.append("machine-feasible throughput above the unconstrained optimum")
        if not (math.isfinite(result.throughput) and result.throughput > 0):
            problems.append("measured throughput not finite and positive")
        if brute:
            oracle = brute_force_mapping(plan.estimation.fitted_chain, machine.total_procs,
                                         machine.mem_per_proc_mb)
            if abs(oracle.throughput - optimal) > REL_TOL * oracle.throughput:
                problems.append("DP throughput differs from brute force")
        return problems


def _request_fingerprint(out):
    plan, deployed, result = out
    return (deployed, plan.predicted_throughput, result.throughput)


class PaperMap(MapRequests):
    """The six paper programs on the five machine presets.

    A pass sends three requests for each program on each preset with
    P <= 64 and one on paragon128, 78 in all: a paragon128 request costs
    10-40 times a small one, so this keeps a pass at 20-35 s while giving
    each small kind three samples to take its median over.
    """

    name = "paper-map"
    #: The 10 slowest of a pass's 78 requests lie beyond this quantile.
    tail_q = 68 / 78
    #: Requests per pass for each program on a preset of at most this size.
    small_procs, small_repeats = 64, 3
    quick_combos = (("fft-hist-256", "pvm-cluster8"), ("radar", "sp2-16"),
                    ("sar", "iwarp64-message"))

    def setup(self) -> None:
        combos = (self.quick_combos if self.quick else
                  [(p, m) for m in PAPER_MACHINES for p in PAPER_PROGRAMS])
        self.programs = []
        for program, machine in combos:
            work = by_name(program, presets.by_name(machine))
            repeats = (self.small_repeats if work.machine.total_procs <= self.small_procs
                       and not self.quick else 1)
            self.programs += [(f"{program}@{machine}", work)] * repeats
        self.warm_up([by_name("sar", presets.sp2_16()),
                      by_name("sar", presets.iwarp64_message())][: 1 if self.quick else 2])


class LongChainMap(MapRequests):
    """Random chains with k = 8..16 tasks on the PVM-cluster8 preset.

    The chains are a fixed set, two per length: the bisection solver's
    time depends on the chain's costs (5.8-8.4 s for four k = 16 chains on
    sp2-16), and drawing fresh chains per seed moved the run median by a
    quarter.  The seed orders the requests and draws their noise.
    """

    name = "long-chain-map"
    #: A pass holds 10 requests, too few for a percentile with 10 beyond
    #: it; this quantile is the slowest chain length's latency.
    tail_q = 0.9
    lengths = (8, 10, 12, 14, 16)
    chains_per_length = 2
    quick_lengths = (6, 13)

    def setup(self) -> None:
        machine = presets.pvm_cluster8()
        lengths = self.quick_lengths if self.quick else self.lengths
        copies = 1 if self.quick else self.chains_per_length
        self.programs = []
        for k in lengths:
            for copy in range(copies):
                chain = random_chain(k, seed=1000 * (copy + 1) + k)
                self.programs.append((f"k={k}", Workload(chain.name, chain, machine)))
        self.warm_up([self.programs[0][1]])


# ---------------------------------------------------------------------------
# validate-stream: long noisy streams, half of them faulted
# ---------------------------------------------------------------------------


class ValidateStream(Load):
    """Noisy streams on mappings solved in set-up; half run under faults.

    Each faulted stream scripts two processor failures: one on the module
    with the most instances (degrade when it has several) and one on the
    module with the fewest (remap when it has one), plus transient
    communication faults.
    """

    name = "validate-stream"
    #: The slowest eighth of a pass, the radar streams, lies beyond this
    #: quantile.
    tail_q = 0.875
    datasets = 5_000
    repeats = 4
    comm_fault_prob = 5e-3
    #: Remap downtime as a share of the stream's predicted makespan.
    remap_share = 0.01

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        if quick:
            self.datasets, self.repeats = 400, 1

    def setup(self) -> None:
        machine = presets.sp2_16()
        programs = ("radar", "sar") if self.quick else PAPER_PROGRAMS
        self.plans = []
        for program in programs:
            work = by_name(program, machine)
            plan = mapper.auto_map(work, profile_noise=NoiseModel(seed=_seed(self.rng)))
            self.plans.append((work, plan))
        work, plan = self.plans[0]
        mapper.measure(work, plan.mapping, n_datasets=400, noise=NoiseModel(seed=1))
        mapper.measure(work, plan.mapping, n_datasets=400, noise=NoiseModel(seed=1),
                       faults=self._faults(plan, 400, 1), remap_latency=0.0)

    def _faults(self, plan, n: int, seed: int) -> FaultModel:
        modules = plan.mapping.modules
        span = n / plan.predicted_throughput
        widest = max(range(len(modules)), key=lambda i: modules[i].replicas)
        narrowest = min(range(len(modules)), key=lambda i: modules[i].replicas)
        return FaultModel(
            seed=seed,
            failures=[ProcessorFailure(0.3 * span, widest, 0),
                      ProcessorFailure(0.6 * span, narrowest, 0)],
            comm_fault_prob=self.comm_fault_prob,
        )

    @staticmethod
    def kind(work: Workload, faulted: bool) -> str:
        return f"{work.name}/{'faulted' if faulted else 'healthy'}"

    def pass_kinds(self) -> Counter:
        return Counter({self.kind(work, faulted): self.repeats
                        for work, _ in self.plans for faulted in (False, True)})

    def one_pass(self, bench: "Bench"):
        ops = [(w, p, faulted) for w, p in self.plans for faulted in (False, True)
               for _ in range(self.repeats)]
        for i in self.rng.permutation(len(ops)):
            work, plan, faulted = ops[i]
            noise_seed, fault_seed = _seed(self.rng), _seed(self.rng)
            n = self.datasets
            invalid = bench.take_invalid()
            remap_latency = self.remap_share * n / plan.predicted_throughput

            def stream(work=work, plan=plan, faulted=faulted, noise_seed=noise_seed,
                       fault_seed=fault_seed, invalid=invalid):
                deployed = plan.mapping
                if invalid:
                    deployed = invalid_variant(deployed, work.machine.total_procs)
                faults = self._faults(plan, n, fault_seed) if faulted else None
                result = mapper.measure(work, deployed, n_datasets=n,
                                        noise=NoiseModel(seed=noise_seed), faults=faults,
                                        remap_latency=remap_latency)
                return deployed, result

            def check(out, work=work, faulted=faulted):
                return self.check(work, *out, faulted=faulted)

            def outcome(out, wall_s, plan=plan, faulted=faulted):
                _, result = out
                return Outcome(
                    kind=self.kind(work, faulted),
                    wall_s=wall_s,
                    datasets=result.n_datasets,
                    pred_error=(None if faulted else
                                abs(result.throughput / plan.predicted_throughput - 1.0)),
                    greedy_ratio=plan.heuristic.throughput / plan.optimal.throughput,
                    availability=result.availability if faulted else None,
                    row=work.name,
                )

            bench.execute(stream, check, outcome, _stream_fingerprint)
            yield

    @staticmethod
    def check(work: Workload, deployed: Mapping, result, faulted: bool) -> list[str]:
        problems = []
        machine = work.machine
        if not check_feasible(deployed, machine):
            problems.append("deployed mapping fails check_feasible")
        if not (math.isfinite(result.throughput) and result.throughput > 0):
            problems.append("measured throughput not finite and positive")
        if not np.isfinite(result.completions).all():
            problems.append("stream left data sets unfinished")
        if faulted:
            if not result.processor_failures:
                problems.append("scripted processor failures did not fire")
            if not 0.0 < result.availability <= 1.0:
                problems.append("availability outside (0, 1]")
            if result.remaps:
                try:
                    ensure_valid_plan(work.chain, result.final_mapping,
                                      total_procs=result.remaps[-1].surviving_procs,
                                      mem_per_proc_mb=machine.mem_per_proc_mb)
                except PlanError:
                    problems.append("remapped mapping fails ensure_valid_plan on survivors")
        return problems


def _stream_fingerprint(out):
    result = out[-1]
    return (result.throughput, result.makespan, result.final_mapping)


# ---------------------------------------------------------------------------
# drift-adapt: drifting streams under the adaptive controller
# ---------------------------------------------------------------------------


def drift_chain() -> TaskChain:
    """Four unreplicable tasks whose optimum splits as execution drifts.

    At day-0 costs the external edges are dear enough that the DP merges
    everything into one module; as execution slows relative to
    communication the optimum splits the pipeline.
    """
    tasks = [
        Task("ingest", PolynomialExec(0.05, 6.0, 0.03), replicable=False),
        Task("filter", PolynomialExec(0.05, 10.0, 0.03), replicable=False),
        Task("correlate", PolynomialExec(0.05, 8.0, 0.03), replicable=False),
        Task("reduce", PolynomialExec(0.05, 6.0, 0.03), replicable=False),
    ]
    edges = [Edge(icom=PolynomialIComm(0.02), ecom=PolynomialEComm(g, 0.3, 0.3))
             for g in (0.7, 1.5, 1.4)]
    return TaskChain(tasks, edges, name="drift-bench")


@dataclass
class DriftSpec:
    label: str
    drift: float
    comm_drift: float
    seed: int
    static_rate: float = 0.0
    oracle_rate: float = 0.0
    adaptive_rate: float | None = None


def _stratum(bounds: tuple[float, float], i: int, strata: int,
             rng: np.random.Generator) -> float:
    """A uniform draw from the ``i``-th of ``strata`` equal slices of ``bounds``."""
    lo, hi = bounds
    return lo + (hi - lo) * (i + float(rng.random())) / strata


class DriftAdapt(Load):
    """Seeded drifting streams, each run under a fresh AdaptiveController."""

    name = "drift-adapt"
    #: A stream's latency grows with its drift; three of the twelve pool
    #: streams lie beyond this quantile.
    tail_q = 0.75
    procs = 12
    datasets = 100_000
    epoch = 2_000
    remap_latency = 60.0
    #: Streams per pass.  Each is drawn from its own twelfth of the drift
    #: range, so the median and tail streams vary little between seeds.
    pool = 12
    drift_range = (1.2e-5, 3.0e-5)
    #: Communication drift as a share of execution drift.
    comm_share = (0.0, 0.4)

    def __init__(self, seed: int, quick: bool):
        super().__init__(seed, quick)
        if quick:
            self.pool, self.datasets, self.epoch = 2, 20_000, 400

    def setup(self) -> None:
        self.chain = drift_chain()
        scale = 100_000 / self.datasets
        # Stratified draws: one stream per slice of each range, so every
        # pool spans the ranges evenly whatever the seed.
        comm_strata = self.rng.permutation(self.pool)
        self.specs = []
        for i in range(self.pool):
            drift = _stratum(self.drift_range, i, self.pool, self.rng) * scale
            share = _stratum(self.comm_share, comm_strata[i], self.pool, self.rng)
            self.specs.append(DriftSpec(f"{i}: drift={drift:.3g}", drift, share * drift,
                                        _seed(self.rng)))
        self._stream(self.specs[0], n=self.datasets // 10, epoch=self.epoch // 10)

    def _stream(self, spec: DriftSpec, n: int | None = None, epoch: int | None = None,
                **config):
        n = n or self.datasets
        controller = ctl.AdaptiveController(
            self.chain, self.procs,
            config=ctl.ControllerConfig(epoch_datasets=epoch or self.epoch,
                                        remap_latency=self.remap_latency, **config),
        )
        noise = DriftNoiseModel(seed=spec.seed, jitter=0.0, comm_interference=0.0,
                                drift=spec.drift, comm_drift=spec.comm_drift)
        return controller, pipeline.simulate(self.chain, None, n, noise=noise,
                                             controller=controller)

    def prepare(self) -> None:
        """The static and oracle reference arms, once per stream."""
        for spec in self.specs:
            _, static = self._stream(spec, adapt=False)
            _, oracle = self._stream(spec, oracle=True)
            spec.static_rate = self.datasets / static.makespan
            spec.oracle_rate = self.datasets / oracle.makespan

    def pass_kinds(self) -> Counter:
        return Counter(spec.label for spec in self.specs)

    def one_pass(self, bench: "Bench"):
        for i in self.rng.permutation(len(self.specs)):
            spec = self.specs[i]
            invalid = bench.take_invalid()

            def stream(spec=spec, invalid=invalid):
                controller, result = self._stream(spec)
                if invalid:
                    result.final_mapping = invalid_variant(result.final_mapping, self.procs)
                return controller, result

            def check(out, spec=spec):
                return self.check(spec, *out)

            def outcome(out, wall_s):
                controller, result = out
                # Each epoch's observed rate against the prediction the
                # controller held when the epoch started.
                records = controller.records
                errors = [abs(cur.rate / prev.predicted - 1.0)
                          for prev, cur in zip(records, records[1:])]
                return Outcome(
                    kind=spec.label,
                    wall_s=wall_s,
                    datasets=result.n_datasets,
                    pred_error=statistics.median(errors),
                    greedy_ratio=self._greedy_ratio(controller),
                    availability=result.availability,
                    row=spec.label,
                )

            bench.execute(stream, check, outcome, _drift_fingerprint)
            yield

    def _greedy_ratio(self, controller) -> float:
        """§4 heuristic vs DP on the chain the controller last solved."""
        planner = controller.planner
        optimal = planner.plan(self.procs).throughput
        heuristic = heuristic_mapping(planner.chain, self.procs, planner.mem_per_proc_mb)
        return heuristic.throughput / optimal

    def check(self, spec: DriftSpec, controller, result) -> list[str]:
        problems = []
        if not np.isfinite(result.completions).all():
            problems.append("stream left data sets unfinished")
        if not (math.isfinite(result.throughput) and result.throughput > 0):
            problems.append("measured throughput not finite and positive")
        try:
            ensure_valid_plan(self.chain, result.final_mapping, total_procs=self.procs)
        except PlanError:
            problems.append("final mapping fails ensure_valid_plan")
        rate = result.n_datasets / result.makespan
        if spec.adaptive_rate is None:
            spec.adaptive_rate = rate
            try:
                controller.audit_incremental_solves()
            except AssertionError:
                problems.append("incremental re-solve differs from a cold solve")
        elif rate != spec.adaptive_rate:
            problems.append("adaptive stream not deterministic across repeats")
        return problems

    def recovery(self) -> float:
        """Share of the static-to-oracle rate gap the adaptive arm captured."""
        done = [s for s in self.specs if s.adaptive_rate is not None]
        gap = sum(s.oracle_rate - s.static_rate for s in done)
        return sum(s.adaptive_rate - s.static_rate for s in done) / gap


def _drift_fingerprint(out):
    controller, result = out
    return (result.makespan, result.final_mapping, controller.remap_count)


WORKLOADS = {cls.name: cls for cls in (PaperMap, LongChainMap, ValidateStream, DriftAdapt)}


# ---------------------------------------------------------------------------
# Summary statistics
# ---------------------------------------------------------------------------


def tail(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q`` quantile and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))
