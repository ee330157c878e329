"""Run-alone / run-shared experiment methodology (Section 6.2).

A thread's memory slowdown compares its shared-run MCPI against the MCPI
it achieves *running alone in the same memory system under FR-FCFS*.
The runner decomposes workloads into simulation jobs and routes them
through the :mod:`repro.engine` subsystem: alone baselines are
deduplicated across workloads and policies (the baseline depends only on
the memory system, not on the co-runners), jobs run on a worker pool
when ``jobs > 1``, and payloads are memoized in memory and — when a
``cache_dir`` is given — in a content-addressed on-disk store shared
across processes and invocations.  ``jobs=1`` (the default) is the
serial in-process degenerate case, bit-identical to parallel execution.
"""

from __future__ import annotations

from repro.cpu.core import CoreSnapshot
from repro.engine.api import ExperimentEngine
from repro.engine.graph import ExperimentPlan
from repro.engine.jobs import (
    AloneJob,
    budget_for,
    build_trace,
    resolve_spec,
    snapshot_from_payload,
)
from repro.engine.store import ResultStore
from repro.schedulers.base import SchedulingPolicy
from repro.sim.config import SystemConfig
from repro.sim.results import ThreadResult, WorkloadResult
from repro.sim.system import CmpSystem
from repro.workloads.spec2006 import BenchmarkSpec

Workload = list["str | BenchmarkSpec"]


class ExperimentRunner:
    """Runs workloads under scheduling policies and computes slowdowns."""

    def __init__(
        self,
        config: SystemConfig,
        instruction_budget: int = 20_000,
        seed: int = 0,
        min_reads: int = 100,
        max_budget_factor: int = 50,
        jobs: int = 1,
        cache_dir: "str | None" = None,
        store: "ResultStore | None" = None,
        timeout: "float | None" = None,
        retries: int = 1,
    ) -> None:
        """Create a runner.

        Args:
            config: The system under test.
            instruction_budget: Base per-thread instruction budget.
            seed: Workload-generation seed.
            min_reads: Non-memory-intensive benchmarks get their budget
                extended so their trace contains at least this many demand
                reads — otherwise their MCPI (and thus slowdown) would be
                statistical noise.  The paper's uniform 100M-instruction
                budgets provide this implicitly.
            max_budget_factor: Cap on the budget extension.
            jobs: Simulation worker processes (1 = serial, in-process).
            cache_dir: Persist job results in this directory (see
                :class:`repro.engine.ResultStore`); None keeps results
                in memory only.
            store: An existing result store (overrides ``cache_dir``).
            timeout: Per-job wall-clock limit in seconds (parallel only).
            retries: Extra attempts after a worker crash or timeout.
        """
        if instruction_budget < 1:
            raise ValueError("instruction budget must be positive")
        self.config = config
        self.instruction_budget = instruction_budget
        self.seed = seed
        self.min_reads = min_reads
        self.max_budget_factor = max_budget_factor
        self.engine = ExperimentEngine(
            jobs=jobs,
            cache_dir=cache_dir,
            store=store,
            timeout=timeout,
            retries=retries,
        )
        # Identity cache on top of the engine's payload caches: repeat
        # calls return the *same* snapshot objects.
        self._alone_cache: dict[str, CoreSnapshot] = {}

    @property
    def report(self):
        """Cumulative engine activity (jobs run / cached / failed ...)."""
        return self.engine.report

    def budget_for(self, name: "str | BenchmarkSpec") -> int:
        """Per-benchmark instruction budget (see ``min_reads``)."""
        return budget_for(
            resolve_spec(name),
            self.instruction_budget,
            self.min_reads,
            self.max_budget_factor,
        )

    def _plan(self) -> ExperimentPlan:
        return ExperimentPlan(
            self.config,
            instruction_budget=self.instruction_budget,
            seed=self.seed,
            min_reads=self.min_reads,
            max_budget_factor=self.max_budget_factor,
        )

    # -- trace management ---------------------------------------------------
    def trace_for(
        self, name: "str | BenchmarkSpec", partition: int, num_partitions: int
    ):
        spec = resolve_spec(name)
        # build_trace memoizes per process: repeat calls return the same
        # trace object until its bounded memo is cleared.
        return build_trace(
            self.config,
            self.seed,
            spec,
            self.budget_for(spec),
            partition,
            num_partitions,
        )

    # -- alone baselines ------------------------------------------------------
    def alone_snapshot(
        self, name: "str | BenchmarkSpec", partition: int, num_partitions: int
    ) -> CoreSnapshot:
        """Run (or recall) the benchmark alone under FR-FCFS."""
        spec = resolve_spec(name)
        job = AloneJob(
            spec=spec,
            partition=partition,
            num_partitions=num_partitions,
            budget=self.budget_for(spec),
            seed=self.seed,
            config=self.config,
        )
        key = job.cache_key()
        snapshot = self._alone_cache.get(key)
        if snapshot is None:
            payloads = self.engine.run_jobs([job])
            snapshot = snapshot_from_payload(payloads[key])
            self._alone_cache[key] = snapshot
        return snapshot

    # -- shared runs ---------------------------------------------------------
    def run_workload(
        self,
        names: Workload,
        policy: str | SchedulingPolicy = "fr-fcfs",
        policy_kwargs: dict | None = None,
    ) -> WorkloadResult:
        """Run a multiprogrammed workload and compute all metrics.

        Args:
            names: Benchmark names or explicit specs, one per core
                (duplicates allowed — each core slot gets its own
                address partition).
            policy: Policy name (see :func:`repro.schedulers.make_policy`)
                or an already-constructed policy instance.
            policy_kwargs: Extra options for the policy factory.
        """
        if isinstance(policy, SchedulingPolicy):
            # A live policy object cannot be content-addressed or shipped
            # to a worker; run it directly in-process.
            return self._run_workload_direct(names, policy)
        plan = self._plan()
        plan.add(names, policy, policy_kwargs)
        return self.engine.execute(plan)[0]

    def run_policies(
        self,
        names: Workload,
        policies: list[str],
        policy_kwargs: dict[str, dict] | None = None,
    ) -> dict[str, WorkloadResult]:
        """Run one workload under several policies (the case-study shape).

        All policies' jobs form one batch: the workload's alone baselines
        are simulated once, and the shared runs execute concurrently when
        the runner has ``jobs > 1``.
        """
        kwargs = policy_kwargs or {}
        plan = self._plan()
        order = []
        for policy in policies:
            if policy in order:
                continue
            order.append(policy)
            plan.add(names, policy, kwargs.get(policy))
        results = self.engine.execute(plan)
        return dict(zip(order, results))

    def run_sweep(
        self,
        workloads: list[Workload],
        policies: list[str],
        policy_kwargs: dict[str, dict] | None = None,
    ) -> dict[str, dict[str, WorkloadResult]]:
        """Run many workloads × policies as one deduplicated job batch.

        Returns ``{workload label: {policy: result}}`` with labels from
        :func:`repro.workloads.mixes.workload_name`.  This is the sweep
        shape (Figures 9/11/12): the whole cross product executes as one
        engine batch, so alone baselines shared between workloads are
        simulated exactly once and all shared runs parallelize.
        """
        from repro.workloads.mixes import workload_name

        kwargs = policy_kwargs or {}
        plan = self._plan()
        labels = []
        for workload in workloads:
            specs = [resolve_spec(name) for name in workload]
            labels.append(workload_name([spec.name for spec in specs]))
            for policy in policies:
                plan.add(workload, policy, kwargs.get(policy))
        results = self.engine.execute(plan)
        sweep: dict[str, dict[str, WorkloadResult]] = {}
        index = 0
        for label in labels:
            per_policy = sweep.setdefault(label, {})
            for policy in policies:
                per_policy[policy] = results[index]
                index += 1
        return sweep

    # -- legacy direct path ---------------------------------------------------
    def _run_workload_direct(
        self, names: Workload, policy: SchedulingPolicy
    ) -> WorkloadResult:
        """The pre-engine serial path, kept for live policy instances."""
        if not names:
            raise ValueError("workload cannot be empty")
        if len(names) > self.config.num_cores:
            raise ValueError(
                f"{len(names)} benchmarks for {self.config.num_cores} cores"
            )
        specs = [resolve_spec(name) for name in names]
        num = len(specs)
        traces = [self.trace_for(spec, i, num) for i, spec in enumerate(specs)]
        budgets = [self.budget_for(spec) for spec in specs]
        mlp_limits = [spec.mlp for spec in specs]
        system = CmpSystem(
            self.config, traces, policy, budgets, mlp_limits=mlp_limits
        )
        snapshots = system.run()

        threads = []
        for i, spec in enumerate(specs):
            alone = self.alone_snapshot(spec, i, num)
            shared = snapshots[i]
            mem_stats = system.controller.thread_stats[i]
            threads.append(
                ThreadResult(
                    name=spec.name,
                    ipc_alone=alone.ipc,
                    ipc_shared=shared.ipc,
                    mcpi_alone=alone.mcpi,
                    mcpi_shared=shared.mcpi,
                    slowdown=_slowdown(shared.mcpi, alone.mcpi),
                    row_hit_rate_shared=mem_stats.row_hit_rate,
                )
            )
        extras = {"cycles": system.now}
        if hasattr(policy, "fairness_rule_fraction"):
            extras["fairness_rule_fraction"] = policy.fairness_rule_fraction
        return WorkloadResult(
            policy=policy.name, threads=tuple(threads), extras=extras
        )


def _slowdown(mcpi_shared: float, mcpi_alone: float) -> float:
    from repro.metrics.fairness import memory_slowdown

    return memory_slowdown(mcpi_shared, mcpi_alone)
