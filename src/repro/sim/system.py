"""The CMP system: cores + memory controller, and the main loop.

The loop advances in DRAM-cycle quanta (10 CPU cycles): the controller
makes its scheduling decisions at the start of each DRAM cycle, then each
core executes the quantum, issuing new requests that become visible to
the controller on the next decision point — matching the paper's
controller, which "only needs to make a decision every DRAM cycle"
(Section 5.1).
"""

from __future__ import annotations

from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest
from repro.cpu.core import Core, CoreSnapshot
from repro.cpu.trace import Trace
from repro.schedulers.base import SchedulingPolicy
from repro.sim.config import SystemConfig


class CmpSystem:
    """A chip multiprocessor sharing one DRAM memory controller."""

    def __init__(
        self,
        config: SystemConfig,
        traces: list[Trace],
        policy: SchedulingPolicy,
        instruction_budget: int | list[int],
        mlp_limits: list[int] | None = None,
        sanitize: bool | None = None,
    ) -> None:
        """Build the system.

        Args:
            sanitize: Attach the DRAM protocol sanitizer
                (:mod:`repro.analysis.protocol`) — every issued command
                is validated against DDR2 timing and a violation raises
                ``ProtocolViolation``.  ``None`` (default) defers to the
                ``STFM_SIM_SANITIZE`` environment toggle, which the CLI
                ``--sanitize`` flag sets so engine worker processes
                inherit it.  The sanitizer is observation-only: results
                are bit-identical either way.
        """
        if len(traces) > config.num_cores:
            raise ValueError("more traces than cores")
        if isinstance(instruction_budget, int):
            budgets = [instruction_budget] * len(traces)
        else:
            budgets = list(instruction_budget)
        if len(budgets) != len(traces):
            raise ValueError("need one instruction budget per trace")
        if mlp_limits is None:
            mlp_limits = [config.mshr_count] * len(traces)
        if len(mlp_limits) != len(traces):
            raise ValueError("need one MLP limit per trace")
        self.config = config
        self.mapper = config.mapper()
        self.controller = MemoryController(
            timing=config.timing,
            mapper=self.mapper,
            num_threads=len(traces),
            policy=policy,
            read_capacity=config.read_capacity,
            write_capacity=config.write_capacity,
            page_policy=config.page_policy,
            refresh_enabled=config.refresh_enabled,
        )
        self._finished = 0
        self.cores = [
            Core(
                core_id=i,
                trace=trace,
                submit=self._submit,
                instruction_budget=budgets[i],
                window_size=config.window_size,
                commit_width=config.commit_width,
                mshr_count=config.mshr_count,
                max_outstanding=mlp_limits[i],
                on_snapshot=self._on_core_snapshot,
            )
            for i, trace in enumerate(traces)
        ]
        if sanitize is None:
            from repro.analysis.protocol import sanitize_enabled

            sanitize = sanitize_enabled()
        self.sanitizer = None
        if sanitize:
            from repro.analysis.protocol import ProtocolSanitizer

            self.sanitizer = ProtocolSanitizer(
                config.timing, self.mapper.num_channels, self.mapper.num_banks
            )
            self.controller.attach_sanitizer(self.sanitizer)
        # Wire STFM's Tshared source: the cores' memory-stall counters
        # (the paper communicates these with every memory request).
        if hasattr(policy, "set_tshared_source"):
            policy.set_tshared_source(
                lambda thread_id: self.cores[thread_id].memory_stall_cycles
            )
        self.now = 0

    def _submit(
        self, thread_id: int, address: int, is_write: bool, now: int
    ) -> MemoryRequest | None:
        request = self.controller.make_request(thread_id, address, is_write, now)
        if self.controller.submit(request, now):
            return request
        return None

    def _on_core_snapshot(self, core: Core) -> None:
        """O(1) finish detection: count budget crossings as they happen
        instead of polling every core's snapshot each quantum."""
        self._finished += 1

    def run(self) -> list[CoreSnapshot]:
        """Run until every core reaches its instruction budget.

        Traces loop by default, so early finishers keep applying memory
        pressure (their statistics are frozen at their own budget
        crossing).  A ``max_cycles`` safety net bounds runaway runs.

        Every DRAM cycle is live: the controller makes one decision per
        channel, then each core executes the quantum.  The
        ``STFM_SIM_KERNEL`` toggle only selects the controller's cached
        or eager candidate scans, which are bit-identical (DESIGN.md
        Section 3.14).
        """
        self.advance(self.config.max_cycles)
        now = self.now
        return [core.force_snapshot(now) for core in self.cores]

    def advance(self, until: int) -> bool:
        """Tick DRAM cycles until ``now >= until``, every core finished,
        or ``max_cycles`` is reached.

        The single run loop: :meth:`run` drives it to the end, and
        observers (the telemetry sampler) call it between sampling
        points.  Returns True while the run is unfinished, i.e. some
        core is still short of its budget.
        """
        quantum = self.config.timing.dram_cycle
        controller = self.controller
        cores = self.cores
        num_cores = len(cores)
        end = min(until, self.config.max_cycles)
        now = self.now
        while now < end:
            controller.tick(now)
            for core in cores:
                core.step(now, quantum)
            now += quantum
            if self._finished >= num_cores:
                break
        self.now = now
        return self._finished < num_cores
