"""Discrete-event simulation of a mapped task pipeline (paper §2.1 model).

The simulator executes a :class:`~repro.core.Mapping` of a task chain on
virtual processors and *measures* throughput and latency, playing the role
of the paper's iWarp runs.  Its semantics follow the paper's execution
model exactly:

* a module instance processes one data set at a time: receive → execute
  (its tasks and internal redistributions, in order) → send;
* an external transfer is a *rendezvous* — sender and receiver instances
  are both busy for the entire communication step;
* replicated instances serve the data-set stream round-robin
  (instance ``d mod r``);
* per-operation jitter and transfer interference (the "second-order
  effects" of §6.4) come from a seeded :class:`NoiseModel`.

Durations are drawn from the chain's cost models at the mapping's
per-instance processor counts, so with noise disabled the measured
steady-state throughput converges exactly to the analytic
``1 / max_i(f_i / r_i)`` — a property the test suite checks.

Fault tolerance
---------------
A seeded :class:`~repro.sim.faults.FaultModel` injects processor failures
and transient communication faults (see ``docs/fault_tolerance.md``):

* a **transient communication fault** retries the transfer after a backoff;
  both rendezvous endpoints stay busy through the wasted attempts;
* a **processor failure** kills one module instance.  A replicated module
  *degrades*: the dead instance's pending data sets are redistributed over
  the survivors (keeping every queue ascending — the ordering invariant
  that makes the blocking rendezvous protocol deadlock-free); a data set no
  survivor can legally absorb is dropped and replayed end to end after the
  stream drains.  Module inputs/outputs are mirrored across instances, so a
  survivor can restart a dead peer's in-progress data set without
  re-receiving it;
* when a module loses its *last* instance the mapping itself is dead:
  the engine freezes and :func:`simulate_fault_tolerant` re-runs the DP
  solver on the surviving processors (via
  :class:`~repro.core.remap.RemapPlanner`, reusing the solver's segment
  cache and workspace), charges a configurable remap latency to the
  stream, and replays the unfinished data sets under the new mapping.

One stream loop
---------------
:func:`simulate`, :func:`simulate_fault_tolerant` and the adaptive
controller's :func:`~repro.sim.controller.drive` all run their stream
through :func:`_stream`, and every result comes from :func:`_result`.
A segment runs on ``_Run`` (event engine) or ``fastpath._run_scalar``
(fast recurrence) and ends when the stream drains, when dropped data sets
must replay, when a module lost its last instance (the planner re-solves),
or when a controller's epoch ends (the controller observes and may
remap).  :func:`_resolve_engine` is the one fast-engine eligibility
check.  Only :func:`simulate` on the fast engine bypasses the loop: it
runs :func:`~repro.sim.fastpath.simulate_fast`, which keeps cycle leaping
for a single healthy stream.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

import numpy as np

from ..core.exceptions import InfeasibleError, SimulationError
from ..core.mapping import Mapping
from ..core.remap import RemapPlanner
from ..core.task import TaskChain
from ..core.validate import ensure_valid_plan
from . import fastpath
from .engine import Simulator
from .faults import EpochStats, FaultEvent, FaultModel, RemapRecord
from .noise import NoiseModel
from .trace import TraceEvent, TraceLog

__all__ = ["SimulationResult", "simulate", "simulate_fault_tolerant"]

#: Segments an epoch (the whole stream, without a controller) may take to
#: drain: its first run plus every drop replay and failure remap.  More
#: means failures outpace recovery.
MAX_SEGMENTS = 32


@dataclass
class SimulationResult:
    """Measured behaviour of one simulated run."""

    n_datasets: int
    makespan: float                    # time of the last completion
    throughput: float                  # steady-state data sets / second
    mean_latency: float                # mean end-to-end time per data set
    completions: np.ndarray            # completion time per data set
    injections: np.ndarray             # first-module start time per data set
    warmup: int                        # data sets excluded from the steady window
    events_processed: int              # events the event engine processed (or,
                                       # for the fast path, would have processed)
    engine: str = "event"              # which engine produced this result
    # (module, instance) -> busy time / makespan
    busy_fractions: dict = field(default_factory=dict)
    trace: TraceLog | None = None
    # -- fault-tolerance accounting (empty/trivial for healthy runs) -------
    failures: list = field(default_factory=list)   # FaultEvent records
    remaps: list = field(default_factory=list)     # RemapRecord per remap
    epochs: list = field(default_factory=list)     # EpochStats per window
    availability: float = 1.0          # 1 - remap downtime / makespan
    final_mapping: Mapping | None = None
    # The AdaptiveController that drove the run (None for plain runs); its
    # records/log expose the per-epoch monitoring the result was built from.
    controller: object | None = None

    def module_utilization(self, module: int) -> float:
        """Mean busy fraction across a module's instances."""
        vals = [f for (m, _), f in self.busy_fractions.items() if m == module]
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def measured_bottleneck(self) -> int:
        """The busiest module — in steady state, the throughput bottleneck."""
        modules = sorted({m for m, _ in self.busy_fractions})
        return max(modules, key=self.module_utilization)

    @property
    def processor_failures(self) -> list:
        return [f for f in self.failures if f.kind == "proc_fail"]

    @property
    def comm_faults(self) -> list:
        return [f for f in self.failures if f.kind == "comm_transient"]

    def __repr__(self):
        extra = ""
        if self.failures or self.remaps:
            extra = (
                f", failures={len(self.processor_failures)}"
                f", remaps={len(self.remaps)}"
                f", availability={self.availability:.4f}"
            )
        return (
            f"{type(self).__name__}(throughput={self.throughput:.4g}/s, "
            f"latency={self.mean_latency:.4g}s, n={self.n_datasets}{extra})"
        )


class _Rendezvous:
    """Synchronises sender and receiver of one (edge, dataset) transfer."""

    __slots__ = ("parties",)

    def __init__(self):
        self.parties: list = []


class _Worker:
    """One module instance: a sequential process over its data sets.

    ``queue`` holds ``(dataset, stage)`` work items in ascending dataset
    order; ``stage`` is where processing (re)starts — ``"recv"`` for a
    fresh data set, ``"exec"``/``"send"`` for work inherited from a failed
    peer whose receive/execution already happened (inputs and outputs are
    mirrored across instances).  ``current`` tracks the in-flight item's
    fine-grained state: ``wait_recv``/``xfer_recv``/``exec``/``wait_send``/
    ``xfer_send``.  The ascending-queue invariant is what keeps the
    blocking rendezvous protocol deadlock-free under redistribution.
    """

    __slots__ = ("run", "module", "instance", "queue", "alive", "idle",
                 "current", "high", "_head")

    def __init__(self, run: "_Run", module: int, instance: int, datasets):
        self.run = run
        self.module = module
        self.instance = instance
        first = "exec" if module == 0 else "recv"
        self.queue: list[tuple[int, str]] = [(d, first) for d in datasets]
        # The queue is consumed from the front via a head cursor rather
        # than list.pop(0): popping the front of a list is O(len), which
        # turns a long stream into an O(n^2) run.  Consumed entries are
        # compacted away lazily; insertions (work inherited from a failed
        # peer) always land past the cursor because the queue is ascending
        # and inherited datasets exceed everything already started.
        self._head = 0
        self.alive = True
        self.idle = True
        self.current: list | None = None  # [dataset, stage] while busy
        self.high = -1                    # largest dataset ever started

    def start(self):
        self._pump()

    # -- queue plumbing ---------------------------------------------------
    def pending_items(self) -> list[tuple[int, str]]:
        """The not-yet-started work items, in ascending dataset order."""
        return self.queue[self._head:]

    def take_all(self) -> list[tuple[int, str]]:
        """Remove and return every pending item (failure redistribution)."""
        items = self.queue[self._head:]
        self.queue = []
        self._head = 0
        return items

    def insert_item(self, item: tuple[int, str]) -> None:
        insort(self.queue, item, lo=self._head, key=lambda it: it[0])

    def remove_dataset(self, dataset: int) -> None:
        self.queue = [it for it in self.queue[self._head:] if it[0] != dataset]
        self._head = 0

    # -- per-dataset flow -------------------------------------------------
    def _pump(self):
        if not self.alive:
            return
        if self._head >= len(self.queue):
            self.queue = []
            self._head = 0
            self.idle = True
            self.current = None
            return
        self.idle = False
        d, stage = self.queue[self._head]
        self._head += 1
        if self._head > 512 and self._head * 2 > len(self.queue):
            del self.queue[: self._head]
            self._head = 0
        if d > self.high:
            self.high = d
        if stage == "recv":
            self.current = [d, "wait_recv"]
            self.run.rendezvous_arrive(
                edge=self.module - 1,
                dataset=d,
                worker=self,
                on_done=lambda d=d: self._begin_exec(d),
            )
        elif stage == "exec":
            self._begin_exec(d)
        else:  # "send": execution already done on a failed peer
            self._after_exec(d)

    def _begin_exec(self, d: int):
        if not self.alive:
            return
        run = self.run
        self.current = [d, "exec"]
        if self.module == 0:
            run.injections[d] = run.sim.now
        phases = run.phases[self.module]  # [(kind, label, base_duration)]
        sim = run.sim

        def do_phase(idx: int):
            if not self.alive:
                return
            if idx == len(phases):
                self._after_exec(d)
                return
            kind, label, base = phases[idx]
            dur = base * run.noise.factor(dataset=d)
            key = (self.module, self.instance)
            run.busy_time[key] = run.busy_time.get(key, 0.0) + dur
            t0 = sim.now
            if run.trace is not None:
                run.trace.record(
                    TraceEvent(self.module, self.instance, kind, label, d, t0, t0 + dur)
                )
            sim.schedule(dur, lambda: do_phase(idx + 1))

        do_phase(0)

    def _after_exec(self, d: int):
        if not self.alive:
            return
        run = self.run
        if self.module == len(run.mapping) - 1:
            run.note_completion(d)
            self._pump()
        else:
            self.current = [d, "wait_send"]
            run.rendezvous_arrive(
                edge=self.module,
                dataset=d,
                worker=self,
                on_done=self._pump,
            )


class _Run:
    """All shared state of one simulation segment."""

    def __init__(self, chain: TaskChain, mapping: Mapping, datasets,
                 noise: NoiseModel, trace: TraceLog | None,
                 completions: np.ndarray, injections: np.ndarray,
                 faults: FaultModel | None = None,
                 dead: set | None = None,
                 start_time: float = 0.0,
                 busy_time: dict | None = None,
                 placements=None, hop_penalty: float = 0.0,
                 queue: str = "heap"):
        self.chain = chain
        self.mapping = mapping
        self.noise = noise
        self.trace = trace
        self.sim = Simulator(queue=queue)
        self.sim.now = start_time
        self.completions = completions
        self.injections = injections
        self.faults = faults
        self.active_transfers = 0
        self.busy_time: dict[tuple[int, int], float] = (
            busy_time if busy_time is not None else {}
        )
        self._rendezvous: dict[tuple[int, int], _Rendezvous] = {}
        self.left = len(datasets)          # completions outstanding
        self.dropped: set[int] = set()     # datasets needing end-to-end replay
        self.faults_injected: list[FaultEvent] = []
        self.remap_needed: tuple | None = None
        self._rr: dict[int, int] = {}      # round-robin reassignment cursors

        # Module instances; instances listed in ``dead`` start dead (they
        # failed in an earlier segment of the same degraded mapping) and
        # receive no work.
        dead = dead or set()
        self.module_workers: list[list[_Worker]] = []
        self.workers: list[_Worker] = []
        for i, m in enumerate(mapping.modules):
            live = [c for c in range(m.replicas) if (i, c) not in dead]
            if not live:
                self.remap_needed = (start_time, i, -1)
                live = list(range(m.replicas))  # moot: the run never starts
            buckets: dict[int, list[int]] = {c: [] for c in range(m.replicas)}
            for j, d in enumerate(datasets):
                buckets[live[j % len(live)]].append(d)
            group = [_Worker(self, i, c, buckets[c]) for c in range(m.replicas)]
            for w in group:
                if (i, w.instance) in dead:
                    w.alive = False
            self.module_workers.append(group)
            self.workers.extend(group)
        self.workers_by_mi = {(w.module, w.instance): w for w in self.workers}

        # Precompute per-module execution phases and per-edge base durations.
        self.phases: list[list[tuple[str, str, float]]] = []
        for m in mapping.modules:
            ph: list[tuple[str, str, float]] = []
            for t_idx in range(m.start, m.stop + 1):
                task = chain.tasks[t_idx]
                ph.append(("task", task.name, float(task.exec_cost(m.procs))))
                if t_idx < m.stop:
                    edge = chain.edges[t_idx]
                    icom = float(edge.icom(m.procs))
                    if icom > 0:
                        label = f"{chain.tasks[t_idx].name}->{chain.tasks[t_idx + 1].name}"
                        ph.append(("icom", label, icom))
            self.phases.append(ph)
        self.edge_base: list[float] = []
        self.edge_label: list[str] = []
        for i in range(len(mapping) - 1):
            a, b = mapping[i], mapping[i + 1]
            edge = chain.edges[a.stop]
            self.edge_base.append(float(edge.ecom(a.procs, b.procs)))
            self.edge_label.append(
                f"{chain.tasks[a.stop].name}->{chain.tasks[b.start].name}"
            )
        # Optional placement model: a transfer between instance rectangles
        # is slowed per Manhattan hop between their centers — the
        # "processor locations" effect §2.1 calls second-order.
        self.hop_factor: dict[tuple[int, int, int], float] = {}
        if placements is not None and hop_penalty > 0.0:
            for e in range(len(mapping) - 1):
                send_rects = placements[e]
                recv_rects = placements[e + 1]
                for si, sr in enumerate(send_rects):
                    for ri, rr in enumerate(recv_rects):
                        (ar, ac), (br, bc) = sr.center(), rr.center()
                        hops = abs(ar - br) + abs(ac - bc)
                        self.hop_factor[(e, si, ri)] = 1.0 + hop_penalty * hops

    # -- stream bookkeeping ------------------------------------------------
    def note_completion(self, d: int) -> None:
        self.completions[d] = self.sim.now
        self.left -= 1

    def start(self) -> None:
        for w in self.workers:
            w.start()
        self._schedule_faults()

    # -- rendezvous communication -----------------------------------------
    def rendezvous_arrive(self, edge: int, dataset: int, worker: _Worker, on_done):
        key = (edge, dataset)
        rv = self._rendezvous.setdefault(key, _Rendezvous())
        rv.parties.append((worker, on_done))
        if len(rv.parties) < 2:
            return
        del self._rendezvous[key]
        (wa, cb_a), (wb, cb_b) = rv.parties
        dur = self.edge_base[edge] * self.noise.comm_factor(
            self.active_transfers, dataset=dataset
        )
        if self.hop_factor:
            sender = wa if wa.module == edge else wb
            receiver = wb if sender is wa else wa
            dur *= self.hop_factor.get(
                (edge, sender.instance, receiver.instance), 1.0
            )
        # Transient communication faults: each failed attempt burns a full
        # transfer duration plus the retry backoff before the retransmission
        # succeeds; both endpoints stay busy throughout.
        wasted = 0.0
        if self.faults is not None:
            retries = self.faults.transfer_attempts() - 1
            if retries > 0:
                wasted = retries * (dur + self.faults.comm_retry_backoff)
                recv = wb if wa.module == edge else wa
                self.faults_injected.append(
                    FaultEvent(
                        "comm_transient", self.sim.now, recv.module,
                        recv.instance,
                        f"{retries} retries on {self.edge_label[edge]}",
                    )
                )
        total = wasted + dur
        self.active_transfers += 1
        for w in (wa, wb):
            key2 = (w.module, w.instance)
            self.busy_time[key2] = self.busy_time.get(key2, 0.0) + total
            if w.current is not None and w.current[0] == dataset:
                w.current[1] = "xfer_send" if w.module == edge else "xfer_recv"
        t0 = self.sim.now
        if self.trace is not None:
            label = self.edge_label[edge]
            if wasted > 0.0:
                for w in (wa, wb):
                    self.trace.record(
                        TraceEvent(w.module, w.instance, "fault", label,
                                   dataset, t0, t0 + wasted)
                    )
            for w in (wa, wb):
                kind = "send" if w.module == edge else "recv"
                self.trace.record(
                    TraceEvent(w.module, w.instance, kind, label, dataset,
                               t0 + wasted, t0 + total)
                )

        def complete():
            self.active_transfers -= 1
            for w, cb in ((wa, cb_a), (wb, cb_b)):
                if w.alive:
                    cb()
                elif w.module == edge + 1:
                    # The receiver died mid-transfer.  The data arrived but
                    # nobody owns it: hand the dataset to a surviving
                    # instance, or drop it for end-of-stream replay.  (A
                    # dead *sender* needs nothing — downstream has the data.)
                    self.reassign_or_drop(edge + 1, dataset, "exec")

        self.sim.schedule(total, complete)

    def _withdraw(self, edge: int, dataset: int, worker: _Worker) -> None:
        """Remove a party from a not-yet-paired rendezvous."""
        key = (edge, dataset)
        rv = self._rendezvous.get(key)
        if rv is None:
            return
        rv.parties = [(w, cb) for (w, cb) in rv.parties if w is not worker]
        if not rv.parties:
            del self._rendezvous[key]

    # -- failure semantics --------------------------------------------------
    def kill_instance(self, module: int, instance: int) -> bool:
        """Deliver a processor failure to one module instance.

        Replicated module: redistribute the dead instance's work over the
        survivors (degrade).  Last instance: freeze the engine and request a
        remap.  Returns False when the addressed instance is already dead.
        """
        w = self.workers_by_mi.get((module, instance))
        if w is None or not w.alive:
            return False
        t = self.sim.now
        w.alive = False
        self.faults_injected.append(FaultEvent("proc_fail", t, module, instance))
        if self.trace is not None:
            self.trace.record(
                TraceEvent(module, instance, "fail", "processor-failure", -1, t, t)
            )
        survivors = [x for x in self.module_workers[module] if x.alive]
        items = w.take_all()
        if w.current is not None:
            d, stage = w.current
            if stage == "wait_recv":
                self._withdraw(module - 1, d, w)
                items.insert(0, (d, "recv"))
            elif stage == "exec":
                items.insert(0, (d, "exec"))
            elif stage == "wait_send":
                self._withdraw(module, d, w)
                items.insert(0, (d, "send"))
            # xfer_recv / xfer_send resolve when the in-flight transfer
            # completes — see complete() in rendezvous_arrive.
            w.current = None
        if not survivors:
            # Unreplicated (or fully dead) module: the stream cannot continue
            # under this mapping.  Freeze and hand over to the orchestrator
            # for a DP-driven remap.
            self.remap_needed = (t, module, instance)
            self.sim.stop()
            return True
        for d, stage in items:
            self.reassign_or_drop(module, d, stage)
        return True

    def reassign_or_drop(self, module: int, dataset: int, stage: str) -> None:
        """Hand an orphaned dataset to a surviving instance of ``module``.

        Only a survivor that has not yet advanced past ``dataset`` may take
        it — inserting behind a larger in-flight dataset would break the
        ascending-queue invariant and can deadlock the blocking rendezvous
        protocol (the downstream owner of the smaller dataset would wait on
        it while its producer is blocked sending the larger one).  When no
        survivor is eligible the dataset is dropped from this pass and
        replayed end to end after the stream drains.
        """
        survivors = [x for x in self.module_workers[module] if x.alive]
        eligible = [x for x in survivors if x.high < dataset]
        if not eligible:
            self.drop_dataset(dataset, module)
            return
        counter = self._rr.get(module, 0)
        self._rr[module] = counter + 1
        w = eligible[counter % len(eligible)]
        w.insert_item((dataset, stage))
        if w.idle:
            w._pump()

    def drop_dataset(self, dataset: int, from_module: int) -> None:
        """Remove a dataset from the current pass (end-of-stream replay).

        Downstream owners must stop expecting it: nobody will produce it on
        this pass, and a blocked receiver waiting on the dropped dataset
        would deadlock the stream.
        """
        self.dropped.add(dataset)
        self.left -= 1
        for m in range(from_module + 1, len(self.mapping)):
            for x in self.module_workers[m]:
                if not x.alive:
                    continue
                x.remove_dataset(dataset)
                if (
                    x.current is not None
                    and x.current[0] == dataset
                    and x.current[1] == "wait_recv"
                ):
                    self._withdraw(m - 1, dataset, x)
                    x.current = None
                    x._pump()

    # -- fault scheduling ---------------------------------------------------
    def _schedule_faults(self) -> None:
        if self.faults is None:
            return
        for idx, f in self.faults.pending_failures():
            t = max(f.time, self.sim.now)

            def fire(idx=idx, f=f):
                if self.left <= 0:
                    return  # stream already drained; leave undelivered
                self.faults.mark_delivered(idx)
                victim = self._resolve_victim(f)
                if victim is not None:
                    self.kill_instance(*victim)

            self.sim.schedule_at(t, fire)
        delay = self.faults.next_random_failure_delay()
        if delay is not None:
            self.sim.schedule(delay, self._random_failure)

    def _resolve_victim(self, f) -> tuple[int, int] | None:
        alive = [(x.module, x.instance) for x in self.workers if x.alive]
        if not alive:
            return None
        if f.module is None:
            return self.faults.choose_victim(alive)
        m = min(f.module, len(self.mapping) - 1)
        candidates = [mi for mi in alive if mi[0] == m]
        if not candidates:
            return self.faults.choose_victim(alive)
        inst = f.instance % self.mapping[m].replicas
        for mi in candidates:
            if mi[1] == inst:
                return mi
        return candidates[0]

    def _random_failure(self) -> None:
        if self.faults is None or self.left <= 0:
            return
        alive = [(x.module, x.instance) for x in self.workers if x.alive]
        if alive:
            m, i = self.faults.choose_victim(alive)
            self.faults.record_random_failure()
            self.kill_instance(m, i)
        if self.remap_needed is None and self.left > 0:
            delay = self.faults.next_random_failure_delay()
            if delay is not None:
                self.sim.schedule(delay, self._random_failure)




def _pooled_throughput(completions: np.ndarray, warmup: int) -> float:
    """Endpoint throughput estimate over the pooled completion stream."""
    ordered = np.sort(completions[np.isfinite(completions)])
    n = len(ordered)
    if n < 2 or warmup >= n:
        raise SimulationError("degenerate steady-state window")
    t0 = ordered[warmup - 1] if warmup >= 1 else ordered[0]
    t1 = ordered[-1]
    if t1 <= t0:
        raise SimulationError("degenerate steady-state window")
    return float((n - warmup) / (t1 - t0))


def _measure_throughput(completions: np.ndarray, mapping: Mapping,
                        warmup: int) -> float:
    """Steady-state throughput estimate.

    Replicated final-module instances complete in interleaved waves; when
    the data-set count does not divide the replica count, the trailing
    partial wave biases a naive endpoint estimate.  Instead each final
    instance's own completion stream (strictly periodic in steady state) is
    rated individually and the rates are summed; instances with too few
    post-warmup completions fall back to the pooled endpoint estimate.
    """
    r_last = mapping.modules[-1].replicas
    total = 0.0
    ok = True
    for c in range(r_last):
        times = completions[c::r_last]
        # Drop this instance's share of the global warmup.
        skip = max(1, warmup // r_last)
        steady = times[skip:]
        if len(steady) < 3:
            ok = False
            break
        span = steady[-1] - steady[0]
        if span <= 0:
            ok = False
            break
        total += (len(steady) - 1) / span
    if ok and total > 0:
        return float(total)
    return _pooled_throughput(completions, warmup)


def _default_warmup(n_datasets: int, n_modules: int, warmup_fraction: float) -> int:
    return min(
        n_datasets - 2,
        max(1, int(n_datasets * warmup_fraction), 2 * n_modules),
    )


def _resolve_engine(engine: str, noise: NoiseModel,
                    faults: FaultModel | None = None,
                    collect_trace: bool = False,
                    controlled: bool = False) -> str:
    """Pick (or validate) the engine a stream's segments run on.

    The one fast-engine eligibility check.  ``"fast"`` admits batchable
    noise — stationary jitter (batched draws: statistically, not bitwise,
    equivalent) and dataset-indexed drift (bit-identical when jitter-free,
    see :class:`~repro.sim.noise.DriftNoiseModel`) — and raises for
    anything the recurrence cannot represent.  ``"auto"`` takes the fast
    path only when it is *provably equivalent*, bit for bit: a healthy,
    untraced, noise-free stream — or, on a ``controlled`` run, noise that
    is a pure function of the data set (deterministic drift), whose
    per-epoch batched draws equal the event engine's per-operation ones.
    """
    if engine not in ("auto", "event", "fast"):
        raise SimulationError(
            f"unknown engine {engine!r}: expected 'auto', 'event' or 'fast'"
        )
    if engine == "event":
        return "event"
    blocker = None
    if faults is not None and faults.active:
        blocker = ("fast engine cannot inject faults; use engine='event' or "
                   "simulate_fault_tolerant()")
    elif collect_trace:
        blocker = "fast engine does not record traces; use engine='event'"
    elif not noise.batchable:
        blocker = ("fast engine needs batchable noise (stationary, or "
                   "context-keyed like DriftNoiseModel); use engine='event'")
    elif noise.comm_interference > 0:
        blocker = ("fast engine cannot model transfer interference "
                   "(contention depends on event-time overlap); use "
                   "engine='event'")
    if engine == "fast":
        if blocker is not None:
            raise SimulationError(blocker)
        return "fast"
    exact = not noise.active or (controlled and noise.deterministic)
    return "fast" if blocker is None and exact else "event"


def simulate(
    chain: TaskChain,
    mapping: Mapping | None,
    n_datasets: int = 200,
    noise: NoiseModel | None = None,
    collect_trace: bool = False,
    warmup_fraction: float = 0.2,
    placements=None,
    hop_penalty: float = 0.0,
    faults: FaultModel | None = None,
    engine: str = "auto",
    queue: str = "heap",
    controller=None,
) -> SimulationResult:
    """Run the pipeline on ``n_datasets`` inputs and measure its behaviour.

    Throughput is measured over the steady-state window (after ``warmup``
    data sets have drained the pipeline fill transient); latency is the mean
    end-to-end time of the measured data sets.

    ``engine`` selects the executor: ``"event"`` always runs the
    discrete-event engine; ``"fast"`` runs the vectorised recurrence of
    :mod:`repro.sim.fastpath` (healthy pipelines only — raises for faults,
    traces, interference or non-stationary noise); ``"auto"`` (default)
    takes the fast path exactly when it is bit-identical to the event
    engine (healthy, noise-free, no trace) and the event engine otherwise.
    ``queue`` selects the event engine's queue backend (``"heap"`` or
    ``"calendar"``); it does not affect results.

    ``placements`` (per-module lists of instance :class:`Rect` objects, as
    produced by the feasibility checker) together with ``hop_penalty``
    enables the processor-location effect: each transfer is slowed by
    ``1 + hop_penalty * manhattan_hops`` between the instance rectangles.
    The paper found locations to be second order (§2.1); the
    ``bench_placement`` experiment quantifies that with this knob.

    ``faults`` injects transient communication faults and processor
    failures that replicated modules absorb by degrading.  A failure this
    call cannot absorb — a module losing its last instance, or a data set
    that needs an end-of-stream replay — raises :class:`SimulationError`;
    use :func:`simulate_fault_tolerant` for those scenarios.

    ``controller`` (an :class:`~repro.sim.controller.AdaptiveController`)
    hands the run to the online adaptive drive loop: the stream executes in
    epochs, the controller watches observed rates against its DP
    prediction, and sustained drift triggers incremental re-solves and
    (when the payback clears the remap latency) live remaps.  ``mapping``
    may then be ``None`` to start from the controller's own DP solution;
    faults and traces are not supported on controlled runs.
    """
    if controller is not None:
        if faults is not None and faults.active:
            raise SimulationError(
                "the adaptive controller does not drive faulted runs; use "
                "simulate_fault_tolerant()"
            )
        if collect_trace:
            raise SimulationError(
                "controlled runs do not record traces; use engine='event' "
                "without a controller"
            )
        from .controller import drive

        return drive(
            chain, controller, n_datasets,
            mapping=mapping,
            noise=noise or NoiseModel.silent(),
            warmup_fraction=warmup_fraction,
            engine=engine,
            queue=queue,
        )
    if mapping is None:
        raise SimulationError("mapping may only be omitted on controlled runs")
    if n_datasets < 2:
        raise SimulationError("need at least 2 data sets to measure throughput")
    if placements is not None and len(placements) != len(mapping):
        raise SimulationError("placements must cover every module")
    # Static pre-flight: a bad plan raises a structured PlanError (all
    # violations at once) here, never a mid-simulation deadlock/assert.
    ensure_valid_plan(chain, mapping)
    noise = noise or NoiseModel.silent()
    if _resolve_engine(engine, noise, faults, collect_trace) == "fast":
        return fastpath.simulate_fast(
            chain, mapping, n_datasets, noise=noise,
            warmup_fraction=warmup_fraction,
            placements=placements, hop_penalty=hop_penalty,
        )
    return _stream(
        chain, mapping, n_datasets, noise, "event", warmup_fraction,
        trace=TraceLog() if collect_trace else None, faults=faults,
        placements=placements, hop_penalty=hop_penalty, queue=queue,
    )


def _stream(chain: TaskChain, mapping: Mapping, n_datasets: int,
            noise: NoiseModel, engine: str, warmup_fraction: float,
            trace: TraceLog | None = None, faults: FaultModel | None = None,
            planner=None, machine_procs: int = 0, remap_latency: float = 0.0,
            controller=None, placements=None, hop_penalty: float = 0.0,
            queue: str = "heap") -> SimulationResult:
    """The one segmented stream loop behind every simulate entry point.

    The stream runs in *segments*, each on the event engine (``_Run``) or
    the fast recurrence (``fastpath._run_scalar``), as ``engine`` says.
    A segment ends at one of four boundaries:

    * the stream (or the current epoch) drains;
    * data sets were dropped during degradation — they replay in a
      follow-up segment under the same degraded mapping;
    * a module lost its last instance — ``planner.plan(survivors)``
      re-solves on the surviving processors, ``remap_latency`` seconds of
      downtime are charged, and the unfinished data sets replay under the
      new mapping;
    * an epoch of ``controller.config.epoch_datasets`` data sets ended —
      ``controller.observe`` digests it and may remap.

    Without a ``planner`` the two failure boundaries raise instead, naming
    :func:`simulate_fault_tolerant`.  Each epoch (the whole stream when
    there is no controller) must drain within :data:`MAX_SEGMENTS`
    segments.
    """
    n = n_datasets
    completions = np.full(n, np.nan)
    injections = np.full(n, np.nan)
    busy_time: dict[tuple[int, int], float] = {}
    failures: list[FaultEvent] = []
    remaps: list[RemapRecord] = []
    epochs: list[EpochStats] = []
    pipes: dict[Mapping, fastpath._Pipeline] = {}
    events = segments = 0
    current, t0, d0 = mapping, 0.0, 0
    span = n
    if controller is not None:
        from .controller import EpochObservation

        span = controller.config.epoch_datasets

    while d0 < n:
        d1 = min(d0 + span, n)
        t_start = t0
        batch = list(range(d0, d1))
        ebusy: dict[tuple[int, int], float] = {}
        dead: set[tuple[int, int]] = set()
        tries = 0
        while batch:
            if tries >= MAX_SEGMENTS:
                raise SimulationError(
                    f"stream did not drain within {MAX_SEGMENTS} segments "
                    f"({len(batch)} data sets outstanding)"
                )
            tries += 1
            segments += 1
            if engine == "fast":
                pipe = pipes.get(current)
                if pipe is None:
                    pipe = pipes[current] = fastpath._Pipeline(
                        chain, current, placements, hop_penalty
                    )
                ebusy = fastpath._segment(pipe, t0, completions, injections,
                                          d0, d1, noise)
                events += (d1 - d0) * pipe.events_per_dataset
                break
            run = _Run(chain, current, batch, noise, trace,
                       completions=completions, injections=injections,
                       faults=faults, dead=dead, start_time=t0,
                       busy_time=ebusy, placements=placements,
                       hop_penalty=hop_penalty, queue=queue)
            if run.remap_needed is None:
                run.start()
                run.sim.run()
                events += run.sim.events_processed
                failures.extend(run.faults_injected)
            for f in run.faults_injected:
                if f.kind == "proc_fail":
                    dead.add((f.module, f.instance))
            unfinished = [d for d in batch if np.isnan(completions[d])]
            if run.remap_needed is not None and unfinished:
                t_fail, module, _ = run.remap_needed
                if planner is None:
                    raise SimulationError(
                        f"module {module} lost its only instance at "
                        f"t={t_fail:.4g}; use simulate_fault_tolerant() for "
                        f"DP-driven remapping"
                    )
                surviving = machine_procs - faults.procs_lost
                try:
                    plan = planner.plan(surviving)
                except InfeasibleError as exc:
                    raise SimulationError(
                        f"stream aborted at t={t_fail:.4g}: chain no longer "
                        f"fits on the {surviving} surviving processors ({exc})"
                    ) from exc
                resume = t_fail + remap_latency
                remaps.append(RemapRecord(
                    time=t_fail, resume_time=resume, failed_module=module,
                    surviving_procs=surviving, old_mapping=current,
                    new_mapping=plan.mapping,
                    predicted_throughput=plan.throughput,
                    datasets_replayed=len(unfinished),
                ))
                if trace is not None:
                    trace.record(
                        TraceEvent(-1, 0, "remap", f"remap@P={surviving}", -1,
                                   t_fail, resume)
                    )
                current = plan.mapping
                dead = set()  # the new mapping only uses surviving processors
                t0 = resume
            elif unfinished:
                if planner is None:
                    if run.dropped:
                        raise SimulationError(
                            f"{len(run.dropped)} data sets were dropped "
                            f"during degradation and need an end-of-stream "
                            f"replay; use simulate_fault_tolerant()"
                        )
                    raise SimulationError(
                        "simulation deadlocked: some data sets never completed"
                    )
                t0 = run.sim.now
            injections[unfinished] = np.nan
            batch = unfinished

        for key, busy in ebusy.items():
            busy_time[key] = busy_time.get(key, 0.0) + busy
        if controller is not None:
            t_end = float(np.max(completions[d0:d1]))
            decision = controller.observe(EpochObservation(
                index=len(epochs), start=d0, stop=d1, t_start=t_start,
                t_end=t_end, busy=ebusy, remaining=n - d1,
            ))
            epochs.append(EpochStats(t_start, t_end, d1 - d0,
                                     (d1 - d0) / (t_end - t_start),
                                     decision.action))
            t0 = t_end
            if decision.remap:
                resume = t_end + remap_latency
                remaps.append(RemapRecord(
                    time=t_end, resume_time=resume,
                    failed_module=-1,  # no failure: drift-triggered remap
                    surviving_procs=controller.total_procs,
                    old_mapping=current, new_mapping=decision.mapping,
                    predicted_throughput=decision.predicted_rate,
                    datasets_replayed=0,
                ))
                current = decision.mapping
                current.validate(chain)
                t0 = resume
        d0 = d1

    # Several segments, or a lost processor, break the per-instance
    # periodicity the endpoint-per-instance estimate relies on.
    pooled = segments > 1 or any(f.kind == "proc_fail" for f in failures)
    return _result(
        mapping, completions, injections, busy_time, warmup_fraction,
        events=events, engine=engine, pooled=pooled, final_mapping=current,
        trace=trace, failures=failures, remaps=remaps,
        epochs=epochs if controller is not None else None,
        controller=controller,
    )


def _result(mapping: Mapping, completions: np.ndarray, injections: np.ndarray,
            busy_time: dict, warmup_fraction: float, events: int,
            engine: str = "event", pooled: bool = False,
            final_mapping: Mapping | None = None,
            trace: TraceLog | None = None, failures: list | None = None,
            remaps: list | None = None, epochs: list | None = None,
            controller=None) -> SimulationResult:
    """Measure a finished stream: the one :class:`SimulationResult` builder.

    The warmup covers the fill transient of the *initial* ``mapping``,
    whatever the stream remapped to later.  ``pooled`` selects the pooled
    endpoint throughput estimate over the per-final-instance one.
    ``epochs`` defaults to the post-hoc split at failures and remaps.
    """
    n = len(completions)
    failures = failures or []
    remaps = remaps or []
    warmup = _default_warmup(n, len(mapping), warmup_fraction)
    if pooled:
        throughput = _pooled_throughput(completions, warmup)
    else:
        throughput = _measure_throughput(completions, mapping, warmup)
    latencies = completions[warmup:] - injections[warmup:]
    makespan = float(completions.max())
    downtime = sum(r.downtime for r in remaps)
    return SimulationResult(
        n_datasets=n,
        makespan=makespan,
        throughput=float(throughput),
        mean_latency=float(latencies.mean()),
        completions=completions,
        injections=injections,
        warmup=warmup,
        events_processed=events,
        engine=engine,
        busy_fractions={
            key: busy / makespan if makespan > 0 else 0.0
            for key, busy in sorted(busy_time.items())
        },
        trace=trace,
        failures=failures,
        remaps=remaps,
        epochs=(epochs if epochs is not None
                else _epochs_from(completions, failures, remaps, makespan)),
        availability=1.0 - (downtime / makespan if makespan > 0 else 0.0),
        final_mapping=final_mapping or mapping,
        controller=controller,
    )


def _epochs_from(completions: np.ndarray, failures: list, remaps: list,
                 makespan: float) -> list[EpochStats]:
    """Post-hoc degraded-throughput accounting: split the stream at every
    processor failure and remap resume, and rate each window."""
    marks: list[tuple[float, str]] = []
    for f in failures:
        if f.kind == "proc_fail":
            marks.append((f.time, "degraded"))
    for r in remaps:
        marks.append((r.resume_time, "remapped"))
    marks.sort()
    bounds = [0.0] + [t for t, _ in marks] + [makespan]
    labels = ["healthy"] + [lab for _, lab in marks]
    done = np.sort(completions[np.isfinite(completions)])
    epochs = []
    for i in range(len(bounds) - 1):
        a, b = bounds[i], bounds[i + 1]
        if b <= a:
            continue
        completed = int(np.searchsorted(done, b, side="right")
                        - np.searchsorted(done, a, side="right"))
        epochs.append(
            EpochStats(a, b, completed, completed / (b - a), labels[i])
        )
    return epochs


def simulate_fault_tolerant(
    chain: TaskChain,
    mapping: Mapping,
    n_datasets: int = 200,
    faults: FaultModel | None = None,
    machine_procs: int | None = None,
    noise: NoiseModel | None = None,
    collect_trace: bool = False,
    warmup_fraction: float = 0.2,
    remap_latency: float = 0.05,
    mem_per_proc_mb: float = float("inf"),
    planner=None,
    queue: str = "heap",
) -> SimulationResult:
    """Run a stream to completion across failures, degradation, and remaps.

    The stream executes in *segments* (see :func:`_stream`).  Within a
    segment, replicated modules absorb failures by degrading; a segment
    ends when either the stream drains, some data sets were dropped (they
    replay in a follow-up segment under the same degraded mapping), or a
    module lost its last instance — in which case the DP solver re-runs on
    the surviving ``machine_procs - procs_lost`` processors (one processor
    is lost per failure; the dead instance's other processors rejoin the
    pool), ``remap_latency`` seconds of downtime are charged, and the
    unfinished data sets replay under the new mapping.

    ``planner`` (a :class:`~repro.core.remap.RemapPlanner`) carries the
    solver's segment cache across remaps and memoises plans per surviving
    processor count; one is created when none is given.  Raises
    :class:`SimulationError` when the chain no longer fits on the survivors
    or the stream fails to drain within :data:`MAX_SEGMENTS` segments.
    """
    if n_datasets < 2:
        raise SimulationError("need at least 2 data sets to measure throughput")
    machine_procs = machine_procs if machine_procs is not None else mapping.total_procs
    ensure_valid_plan(
        chain, mapping, total_procs=machine_procs,
        mem_per_proc_mb=mem_per_proc_mb,
    )
    return _stream(
        chain, mapping, n_datasets, noise or NoiseModel.silent(), "event",
        warmup_fraction,
        trace=TraceLog() if collect_trace else None,
        faults=faults if faults is not None else FaultModel.silent(),
        planner=(planner if planner is not None
                 else RemapPlanner(chain, mem_per_proc_mb=mem_per_proc_mb)),
        machine_procs=machine_procs, remap_latency=remap_latency, queue=queue,
    )
