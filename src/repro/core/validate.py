"""Mapping linter: human-readable diagnostics for a proposed mapping.

``diagnose`` checks a mapping against a chain (and optionally a machine)
and returns every finding — structural errors, constraint violations, and
performance smells (idle processors, a module starving the bottleneck,
replication left on the table).  The CLI's ``check`` command wraps it, so a
mapping produced elsewhere (a saved JSON, a hand-written one) can be vetted
before deployment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .exceptions import InfeasibleError, InvalidMappingError, PlanError
from .mapping import Mapping
from .replication import split_replicas
from .response import build_module_chain, evaluate_module_chain
from .task import TaskChain

__all__ = [
    "Severity",
    "Finding",
    "Diagnosis",
    "diagnose",
    "PlanViolation",
    "preflight",
    "ensure_valid_plan",
]


class Severity(Enum):
    ERROR = "error"      # the mapping cannot run
    WARNING = "warning"  # it runs, but something is off
    INFO = "info"        # a performance observation


@dataclass
class Finding:
    severity: Severity
    code: str
    message: str

    def __str__(self):
        return f"[{self.severity.value}] {self.code}: {self.message}"


@dataclass
class Diagnosis:
    findings: list[Finding]
    throughput: Optional[float]          # None when the mapping cannot run

    @property
    def ok(self) -> bool:
        return not any(f.severity is Severity.ERROR for f in self.findings)

    def render(self) -> str:
        lines = [str(f) for f in self.findings]
        if self.throughput is not None:
            lines.append(f"predicted throughput: {self.throughput:.4g} data sets/s")
        if not self.findings:
            lines.insert(0, "no findings")
        return "\n".join(lines)


@dataclass(frozen=True)
class PlanViolation:
    """One structured reason a plan cannot run.

    ``code`` is stable and machine-readable (``structure``, ``budget``,
    ``replication``, ``memory``, ``cost``, ``geometry``, ``deadlock``);
    ``module`` is the offending module index when the violation is
    localised.
    """

    code: str
    message: str
    module: int | None = None

    def __str__(self):
        where = f" (module {self.module})" if self.module is not None else ""
        return f"{self.code}{where}: {self.message}"

    def to_dict(self) -> dict:
        d = {"code": self.code, "message": self.message}
        if self.module is not None:
            d["module"] = self.module
        return d


def preflight(
    chain: TaskChain,
    mapping: Mapping,
    total_procs: int | None = None,
    mem_per_proc_mb: float | None = None,
) -> list[PlanViolation]:
    """Cheap static checks a mapping must pass before it may execute.

    The subset of :func:`diagnose` that needs no performance evaluation:
    chain coverage, replication legality, finite per-data-set module
    times, processor budget, and (when a memory limit is known)
    per-module memory minimums.  The ``simulate`` and
    :class:`~repro.core.remap.RemapPlanner` entry points run this and
    raise a structured :class:`~repro.core.exceptions.PlanError` instead
    of letting a bad plan surface as a mid-simulation deadlock or assert.
    """
    violations: list[PlanViolation] = []
    if mapping.ntasks != len(chain):
        violations.append(
            PlanViolation(
                "structure",
                f"mapping covers {mapping.ntasks} tasks, chain "
                f"{chain.name!r} has {len(chain)}",
            )
        )
        return violations  # module/task indices are meaningless past here
    for i, m in enumerate(mapping.modules):
        if m.replicas > 1 and not chain.segment_replicable(m.start, m.stop):
            names = [t.name for t in m.tasks_of(chain)]
            violations.append(
                PlanViolation(
                    "replication",
                    f"module {names} contains a non-replicable task but "
                    f"has {m.replicas} instances",
                    module=i,
                )
            )
    violations += _nonfinite_modules(chain, mapping)
    if total_procs is not None and mapping.total_procs > total_procs:
        violations.append(
            PlanViolation(
                "budget",
                f"mapping uses {mapping.total_procs} processors, machine "
                f"has {total_procs}",
            )
        )
    if mem_per_proc_mb is not None and mem_per_proc_mb != float("inf"):
        mchain = build_module_chain(chain, mapping.clustering(), mem_per_proc_mb)
        for i, (spec, info) in enumerate(zip(mapping.modules, mchain.infos)):
            if spec.procs < info.p_min:
                names = ",".join(t.name for t in spec.tasks_of(chain))
                violations.append(
                    PlanViolation(
                        "memory",
                        f"module {{{names}}} needs >= {info.p_min} "
                        f"processors per instance for its memory footprint, "
                        f"has {spec.procs}",
                        module=i,
                    )
                )
    return violations


def _nonfinite_modules(chain: TaskChain, mapping: Mapping) -> list[PlanViolation]:
    """Modules whose per-data-set time is infinite or NaN.

    A module's time is its tasks' execution, its internal redistributions
    and its adjacent external transfers at the mapping's instance sizes —
    every duration the simulator would schedule for it.  Such a stream
    never reaches a steady state, so it is rejected before it runs.
    """
    violations = []
    modules = mapping.modules
    for i, m in enumerate(modules):
        time = sum(float(chain.tasks[j].exec_cost(m.procs))
                   for j in range(m.start, m.stop + 1))
        time += sum(float(chain.edges[j].icom(m.procs))
                    for j in range(m.start, m.stop))
        for a in (i - 1, i):
            if 0 <= a < len(modules) - 1:
                sender, receiver = modules[a], modules[a + 1]
                time += float(chain.edges[sender.stop].ecom(sender.procs,
                                                             receiver.procs))
        if not math.isfinite(time):
            names = ",".join(t.name for t in m.tasks_of(chain))
            violations.append(
                PlanViolation(
                    "cost",
                    f"module {{{names}}} takes a non-finite time per data "
                    f"set ({time!r}) on {m.procs} processors per instance",
                    module=i,
                )
            )
    return violations


def ensure_valid_plan(
    chain: TaskChain,
    mapping: Mapping,
    total_procs: int | None = None,
    mem_per_proc_mb: float | None = None,
) -> None:
    """Raise :class:`PlanError` (all violations at once) if the mapping
    fails :func:`preflight`."""
    violations = preflight(chain, mapping, total_procs, mem_per_proc_mb)
    if violations:
        raise PlanError(violations)


def diagnose(
    chain: TaskChain,
    mapping: Mapping,
    machine=None,
    mem_per_proc_mb: float | None = None,
    total_procs: int | None = None,
) -> Diagnosis:
    """Run every check; never raises for mapping problems — reports them.

    ``total_procs`` overrides the machine's processor count — the partial-
    machine case: vetting a mapping (e.g. a remap candidate) against the
    processors *surviving* after failures rather than the nominal size.
    Geometry checks are skipped under an override, since the surviving set
    no longer forms the preset's full grid.
    """
    findings: list[Finding] = []
    mem = mem_per_proc_mb
    partial = total_procs is not None
    if machine is not None:
        mem = machine.mem_per_proc_mb if mem is None else mem
        if total_procs is None:
            total_procs = machine.total_procs
    if mem is None:
        mem = float("inf")

    # Structural validity.
    try:
        mapping.validate(chain)
    except InvalidMappingError as exc:
        findings.append(Finding(Severity.ERROR, "structure", str(exc)))
        return Diagnosis(findings, None)

    # Processor budget.
    if total_procs is not None and mapping.total_procs > total_procs:
        findings.append(
            Finding(
                Severity.ERROR, "budget",
                f"mapping uses {mapping.total_procs} processors, machine has "
                f"{total_procs}",
            )
        )

    # Memory minimums.
    mchain = build_module_chain(chain, mapping.clustering(), mem)
    perf = None
    for spec, info in zip(mapping.modules, mchain.infos):
        names = ",".join(t.name for t in spec.tasks_of(chain))
        if spec.procs < info.p_min:
            findings.append(
                Finding(
                    Severity.ERROR, "memory",
                    f"module {{{names}}} needs >= {info.p_min} processors per "
                    f"instance for its footprint, has {spec.procs}",
                )
            )
    if not any(f.severity is Severity.ERROR for f in findings):
        try:
            perf = evaluate_module_chain(
                mchain, [(m.procs, m.replicas) for m in mapping.modules]
            )
        except (InfeasibleError, InvalidMappingError) as exc:
            findings.append(Finding(Severity.ERROR, "evaluate", str(exc)))

    # Machine geometry (skipped for partial machines: survivor sets are
    # not the preset's full grid).
    if machine is not None and perf is not None and not partial:
        from ..machine.feasibility import check_feasible

        report = check_feasible(mapping, machine)
        if not report.feasible:
            findings.append(
                Finding(Severity.ERROR, "geometry", report.reason)
            )

    if perf is None:
        return Diagnosis(findings, None)

    # Performance smells.
    if total_procs is not None:
        idle = total_procs - mapping.total_procs
        if idle > max(2, total_procs // 8):
            findings.append(
                Finding(
                    Severity.WARNING, "idle",
                    f"{idle} of {total_procs} processors are idle",
                )
            )
    worst = max(perf.effective_responses)
    for i, (spec, resp) in enumerate(zip(mapping.modules, perf.effective_responses)):
        names = ",".join(t.name for t in spec.tasks_of(chain))
        if resp < 0.5 * worst:
            findings.append(
                Finding(
                    Severity.INFO, "imbalance",
                    f"module {{{names}}} runs at {resp / worst:.0%} of the "
                    f"bottleneck response — processors could shift to module "
                    f"{perf.bottleneck + 1}",
                )
            )
        info = mchain.infos[i]
        if info.replicable and spec.replicas == 1:
            r_max, s = split_replicas(spec.total_procs, info.p_min, True)
            if r_max > 1:
                findings.append(
                    Finding(
                        Severity.INFO, "replication",
                        f"module {{{names}}} is replicable and could run "
                        f"{r_max} instances of {s} processors (§3.2 suggests "
                        f"replicating maximally)",
                    )
                )
    return Diagnosis(findings, perf.throughput)
