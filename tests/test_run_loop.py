"""The single run loop: ``CmpSystem.advance`` under ``run`` and telemetry.

The telemetry sampler drives the system's own loop between sampling
points instead of carrying a copy of it, so a sampled run must end in
exactly the state a plain ``run()`` reaches.
"""

from __future__ import annotations

import pytest

from repro.schedulers.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.system import CmpSystem
from repro.sim.telemetry import TelemetrySampler
from repro.workloads.spec2006 import SPEC2006
from repro.workloads.synthetic import generate_trace

NAMES = ["mcf", "GemsFDTD", "hmmer"]


def build_system(policy_name: str, budget: int = 4_000) -> CmpSystem:
    config = SystemConfig(num_cores=len(NAMES))
    mapper = config.mapper()
    traces = [
        generate_trace(
            SPEC2006[n], mapper, budget, partition=i, num_partitions=len(NAMES)
        )
        for i, n in enumerate(NAMES)
    ]
    policy = make_policy(policy_name, num_threads=len(NAMES))
    return CmpSystem(
        config,
        traces,
        policy,
        budget,
        mlp_limits=[SPEC2006[n].mlp for n in NAMES],
    )


def final_state(system: CmpSystem) -> dict:
    controller = system.controller
    return {
        "now": system.now,
        "snapshots": [core.snapshot for core in system.cores],
        "core_counters": [
            (
                core.committed_instructions,
                core.memory_stall_cycles,
                core.idle_cycles,
                core.reads_issued,
                core.writes_issued,
            )
            for core in system.cores
        ],
        "commands_issued": controller.commands_issued,
        "thread_stats": [vars(stats) for stats in controller.thread_stats],
    }


@pytest.mark.parametrize("policy_name", ["stfm", "fr-fcfs"])
@pytest.mark.parametrize("period", [2_000, 1_005])
def test_telemetry_run_equals_plain_run(policy_name, period):
    plain = build_system(policy_name)
    snapshots = plain.run()
    sampled = build_system(policy_name)
    telemetry = TelemetrySampler(sampled, period=period).run()
    assert [core.snapshot for core in sampled.cores] == snapshots
    assert final_state(sampled) == final_state(plain)
    # Each sample lands on the first DRAM tick at/after its due point;
    # the last one is the end-of-run sample.
    quantum = sampled.config.timing.dram_cycle
    due = [
        -(-k * period // quantum) * quantum
        for k in range(len(telemetry.samples) - 1)
    ]
    assert telemetry.cycles[:-1] == due
    assert telemetry.cycles[-1] == sampled.now


def test_advance_stops_at_bound_and_resumes():
    stepped = build_system("fr-fcfs")
    quantum = stepped.config.timing.dram_cycle
    assert stepped.advance(1_001) is True
    assert stepped.now == 1_010  # first tick boundary at/after the bound
    assert stepped.advance(stepped.now) is True  # nothing to do: no tick
    assert stepped.now == 1_010
    while stepped.advance(stepped.now + 50 * quantum):
        pass
    plain = build_system("fr-fcfs")
    plain.run()
    assert final_state(stepped) == final_state(plain)
