"""Span tracing for the benchmark's traced run.

The tracer wraps public methods of the simulator's classes with timing
spans while it is installed, and restores the originals when it is
removed; outside a traced phase the program runs unmodified.  Spans are
aggregated in memory per name as (calls, total seconds, self seconds),
where a span's self time is its duration minus the time covered by the
spans it caused (its children on the same thread).  Every thread keeps
its own span stack and tables, merged when the phase ends, so the
service's worker and client threads can be traced side by side.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[float] = []
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)


class Tracer:
    """Installs span wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[type, str, object]] = []

    # -- recording ----------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
        return state

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter (thread-safe without locking)."""
        self._state().counts[name] += amount

    def wrap(self, owner: type, attr: str, name: str, on_exit=None) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``on_exit(tracer, args, result)`` runs after each call, outside
        the span, to record counters the call's result or object carry.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = state.spans[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def wrap_overrides(self, base: type, attr: str, name: str) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass overriding it."""
        pending = [base]
        seen = set()
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            if attr in cls.__dict__:
                self.wrap(cls, attr, name)
            pending.extend(cls.__subclasses__())

    def follow_workers(self, directory: Path) -> None:
        """Also record the engine's worker processes.

        Workers fork with the wrappers installed; each drops the state
        it inherited, and writes what its job recorded to ``directory``
        for :meth:`merge_workers` to add in.
        """
        from repro.engine import executor

        parent = os.getpid()
        original = executor.execute_job
        tracer = self

        def traced_job(job):
            if os.getpid() == parent:
                return original(job)
            tracer._local = threading.local()
            tracer._states = []
            try:
                return original(job)
            finally:
                state = tracer._state()
                dump = {"spans": dict(state.spans), "counts": dict(state.counts)}
                path = directory / f"spans-{os.getpid()}-{time.perf_counter_ns()}.json"
                path.write_text(json.dumps(dump))

        executor.execute_job = traced_job
        self._patches.append((executor, "execute_job", original))

    def merge_workers(self, directory: Path) -> None:
        """Add in (and delete) the span dumps of worker processes."""
        for path in sorted(directory.glob("spans-*.json")):
            dump = json.loads(path.read_text())
            path.unlink()
            state = _ThreadState()
            state.spans.update(dump["spans"])
            state.counts.update(dump["counts"])
            with self._lock:
                self._states.append(state)

    def uninstall(self) -> None:
        """Restore every wrapped method."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------
    def spans(self) -> dict[str, tuple[int, float, float]]:
        """``{name: (calls, total_s, self_s)}`` merged over threads."""
        merged: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, (calls, total, own) in list(state.spans.items()):
                entry = merged[name]
                entry[0] += calls
                entry[1] += total
                entry[2] += own
        return {name: tuple(entry) for name, entry in merged.items()}

    def counts(self) -> dict[str, float]:
        merged: dict[str, float] = defaultdict(float)
        with self._lock:
            states = list(self._states)
        for state in states:
            for name, value in list(state.counts.items()):
                merged[name] += value
        return dict(merged)

    def work_counters(self) -> dict[str, float]:
        """Span call counts and counters together, for exact-repeat checks."""
        merged = {f"{name}.calls": calls for name, (calls, _, _) in self.spans().items()}
        merged.update(self.counts())
        return merged


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls at each simulator layer boundary."""
    from repro.controller.controller import MemoryController
    from repro.core.registers import StfmRegisters
    from repro.cpu.core import Core
    from repro.dram.channel import Channel
    from repro.engine.executor import JobExecutor
    from repro.engine.store import CacheStore
    from repro.schedulers import registry  # noqa: F401  (loads every policy)
    from repro.schedulers.base import SchedulingPolicy
    from repro.service.client import ServiceClient
    from repro.sim.system import CmpSystem
    from repro.workloads.synthetic import SyntheticTraceGenerator

    tracer.wrap(CmpSystem, "run", "sim.run", on_exit=_count_system)
    tracer.wrap(MemoryController, "tick", "controller.tick")
    tracer.wrap(MemoryController, "submit", "controller.submit", on_exit=_count_reject)
    tracer.wrap(MemoryController, "channel_quiet_bound", "sim.channel_quiet_bound")
    tracer.wrap(MemoryController, "fast_forward_drain", "sim.fast_forward_drain")
    tracer.wrap_overrides(SchedulingPolicy, "select", "schedulers.select")
    tracer.wrap_overrides(SchedulingPolicy, "fast_forward", "schedulers.fast_forward")
    tracer.wrap(StfmRegisters, "slowdown", "core.slowdown")
    tracer.wrap(Core, "step", "cpu.step")
    tracer.wrap(Core, "inertia", "sim.inertia")
    tracer.wrap(Core, "advance_compute", "cpu.advance_compute")
    tracer.wrap(Core, "bulk_advance", "cpu.bulk_advance")
    tracer.wrap(Channel, "issue", "dram.issue")
    tracer.wrap(SyntheticTraceGenerator, "trace_for", "workloads.trace_for")
    tracer.wrap(JobExecutor, "run", "engine.executor_run")
    tracer.wrap(CacheStore, "get", "engine.store_get", on_exit=_count_store_get)
    tracer.wrap(CacheStore, "put", "engine.store_put")
    tracer.wrap(ServiceClient, "submit", "service.submit")
    tracer.wrap(ServiceClient, "wait", "service.wait")


def _count_system(tracer: Tracer, args, _result) -> None:
    system = args[0]
    controller = system.controller
    tracer.count("sim.ticks", system.now // system.config.timing.dram_cycle)
    tracer.count("controller.commands_issued", controller.commands_issued)
    tracer.count("cpu.stall_cycles", sum(c.memory_stall_cycles for c in system.cores))
    tracer.count("dram.reads", sum(s.reads_completed for s in controller.thread_stats))
    tracer.count("dram.row_hits", sum(s.row_hits for s in controller.thread_stats))


def _count_reject(tracer: Tracer, _args, accepted) -> None:
    if not accepted:
        tracer.count("controller.submit_rejects")


def _count_store_get(tracer: Tracer, _args, payload) -> None:
    tracer.count("engine.store_hits" if payload is not None else "engine.store_misses")


def layer_metrics(
    tracer: Tracer,
    wall: float,
    setup: Tracer,
    setup_wall: float,
    engine,
    ips_traced: float,
    ips_untraced: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced phase.

    Times are shares of the phase's wall time in percent (summed over
    threads and worker processes, so they can pass 100); the set-up
    metrics are shares of the traced set-up's wall time.  ``engine`` is
    the :class:`repro.engine.EngineReport` delta over the phase.
    """
    spans = tracer.spans()
    counts = tracer.counts()

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def pct(*names: str, own: bool = True) -> float:
        index = 2 if own else 1
        return 100.0 * sum(spans.get(n, (0, 0.0, 0.0))[index] for n in names) / wall

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    live = calls("controller.tick")
    ticks = counts.get("sim.ticks", 0)
    submits = calls("controller.submit")
    rejects = counts.get("controller.submit_rejects", 0)
    hits = counts.get("engine.store_hits", 0)
    misses = counts.get("engine.store_misses", 0)
    setup_spans = setup.spans().get("workloads.trace_for", (0, 0.0, 0.0))
    return {
        "trace.overhead": (ratio(ips_traced, ips_untraced), "ratio"),
        "trace.sim_ips_traced": (ips_traced, "1/s"),
        "trace.sim_ips_untraced": (ips_untraced, "1/s"),
        "controller.tick_self_pct": (pct("controller.tick"), "%"),
        "controller.tick_calls": (live, "count"),
        "controller.commands_issued": (counts.get("controller.commands_issued", 0), "count"),
        "controller.submit_calls": (submits, "count"),
        "controller.submit_rejects": (rejects, "count"),
        "controller.accept_ratio": (ratio(submits - rejects, submits), "ratio"),
        "schedulers.select_calls": (calls("schedulers.select"), "count"),
        "schedulers.select_self_pct": (pct("schedulers.select"), "%"),
        "schedulers.fast_forward_self_pct": (pct("schedulers.fast_forward"), "%"),
        "core.slowdown_calls": (calls("core.slowdown"), "count"),
        "core.slowdown_self_pct": (pct("core.slowdown"), "%"),
        "core.slowdown_per_live_tick": (ratio(calls("core.slowdown"), live), "ratio"),
        "sim.ticks": (ticks, "count"),
        "sim.live_ticks": (live, "count"),
        "sim.live_frac": (ratio(live, ticks), "ratio"),
        "sim.jumps": (calls("sim.fast_forward_drain"), "count"),
        "sim.horizon_self_pct": (pct("sim.inertia", "sim.channel_quiet_bound"), "%"),
        "sim.run_self_pct": (pct("sim.run"), "%"),
        "cpu.step_self_pct": (pct("cpu.step"), "%"),
        "cpu.advance_compute_self_pct": (pct("cpu.advance_compute"), "%"),
        "cpu.bulk_advance_self_pct": (pct("cpu.bulk_advance"), "%"),
        "cpu.stall_cycles": (counts.get("cpu.stall_cycles", 0), "count"),
        "dram.issue_calls": (calls("dram.issue"), "count"),
        "dram.row_hit_rate": (
            ratio(counts.get("dram.row_hits", 0), counts.get("dram.reads", 0)), "ratio"
        ),
        "workloads.setup_trace_calls": (setup_spans[0], "count"),
        "workloads.setup_trace_pct": (100.0 * setup_spans[1] / setup_wall, "%"),
        "engine.executor_run_self_pct": (pct("engine.executor_run"), "%"),
        "engine.jobs_simulated": (engine.jobs_run, "count"),
        "engine.jobs_cached": (engine.hits, "count"),
        "engine.jobs_failed": (engine.jobs_failed, "count"),
        "engine.jobs_retried": (engine.retries, "count"),
        "engine.store_get_self_pct": (pct("engine.store_get"), "%"),
        "engine.store_put_self_pct": (pct("engine.store_put"), "%"),
        "engine.store_hit_ratio": (ratio(hits, hits + misses), "ratio"),
        "service.submit_pct": (pct("service.submit", own=False), "%"),
        "service.wait_pct": (pct("service.wait", own=False), "%"),
        "service.rejected_429": (counts.get("service.rejected_429", 0), "count"),
        "service.coalesced": (counts.get("service.coalesced", 0), "count"),
        "service.queue_wait_pct": (100.0 * counts.get("service.queue_wait_s", 0) / wall, "%"),
        "service.execute_pct": (100.0 * counts.get("service.execute_s", 0) / wall, "%"),
    }
