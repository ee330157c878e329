"""The two kernel workloads: seeded 4-core mixes run through ``CmpSystem.run``.

``mix_heavy_stfm`` draws from the paper's memory-intensive categories
2-3 and runs under STFM; ``mix_light_frfcfs`` draws from categories 0-1
and runs under FR-FCFS.  The mixes are built cyclically over the
categories' roster so that every benchmark appears exactly once in
every core slot, and stay the same for every seed: which benchmarks
share a mix moves host time by more than the noise these figures must
resolve.  The seed permutes the core slots of each mix (and with them
the address partitions) and generates every trace.

Traces are built in set-up.  Before timing, every mix runs untimed
through ``ExperimentRunner`` under the workload's policy and STFM; that
gives STFM's fairness, the IPCs the timed runs must reproduce, and a
warm-up.  The timed region then repeats complete rounds over the mixes
until ``--seconds`` have passed, each run timed in nominal-host
seconds (``common.HostClock``).  ``sim_ips`` divides one round's
committed instructions by the sum of each mix's median run time.  One
round is one job: the mixes' run times differ several-fold, so
percentiles over single runs would sit on the boundary between two
mixes and jump with the seed.
"""

from __future__ import annotations

import os
import random
import statistics
import time

from repro.engine.jobs import budget_for
from repro.metrics.stats import geometric_mean
from repro.schedulers.registry import make_policy
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.system import CmpSystem
from repro.workloads.spec2006 import benchmark, benchmarks_by_category
from repro.workloads.synthetic import SyntheticTraceGenerator

from common import HostClock, Report, Setup, quantile, timing_note

#: Base per-thread instruction budgets (light benchmarks are extended to
#: 100 demand reads by ``budget_for``, as the paper's runner does).  The
#: heavy mixes run shorter: at 5000 the seed moved their host cost by
#: twice as much (quartile spread 0.11 against 0.055 over eight seeds).
HEAVY_BUDGET = 2500
LIGHT_BUDGET = 5000

CORES = 4

#: Distance between the roster positions that share one mix; with 10
#: or 16 benchmarks in the roster, no mix holds a benchmark twice.
_STRIDE = 3


class Mix:
    """One 4-core mix with its traces, budgets and MLP limits."""

    def __init__(self, config: SystemConfig, seed: int, names: list[str], budget: int) -> None:
        self.names = names
        specs = [benchmark(name) for name in names]
        self.budgets = [budget_for(spec, budget) for spec in specs]
        self.mlp = [spec.mlp for spec in specs]
        self.traces = [
            SyntheticTraceGenerator(config.mapper(), seed).trace_for(
                spec, self.budgets[i], partition=i, num_partitions=CORES
            )
            for i, spec in enumerate(specs)
        ]

    def run(self, config: SystemConfig, policy: str):
        system = CmpSystem(
            config,
            self.traces,
            make_policy(policy, num_threads=CORES),
            self.budgets,
            mlp_limits=self.mlp,
        )
        return system.run()


def design(seed: int, categories: tuple[int, ...]) -> list[list[str]]:
    """Slot-balanced 4-core mixes over the categories' roster, with
    each mix's core slots permuted by the seed."""
    roster = [spec.name for c in categories for spec in benchmarks_by_category(c)]
    n = len(roster)
    mixes = [[roster[(j + k * _STRIDE) % n] for k in range(CORES)] for j in range(n)]
    return shuffle_slots(seed, mixes)


def shuffle_slots(seed: int, mixes: list[list[str]]) -> list[list[str]]:
    """Each mix with its core slots in a seeded order."""
    rng = random.Random(f"slots:{seed}")
    return [rng.sample(mix, len(mix)) for mix in mixes]


def _rounds(mixes, config, policy, seconds, clock, reference, report, on_run=None):
    """Repeat complete rounds for ``seconds``; per-mix nominal run times.

    ``reference`` holds each mix's snapshots from its first timed run;
    every later run must reproduce them exactly.
    """
    times = [[] for _ in mixes]
    deadline = time.perf_counter() + seconds
    while True:
        for i, mix in enumerate(mixes):
            snapshots, seconds_taken = clock.time(lambda: mix.run(config, policy))
            times[i].append(seconds_taken)
            report.attempt()
            if len(reference) == i:
                reference.append(snapshots)
            report.check(
                snapshots == reference[i],
                f"mix {i} ({'+'.join(mix.names)}): snapshots differ between runs",
            )
            if on_run is not None:
                on_run(i)
        if time.perf_counter() >= deadline:
            return times


def _ips(times, instructions) -> float:
    return instructions / sum(statistics.median(t) for t in times)


def run(seed: int, seconds: float, trace: bool, clock: HostClock, report: Report,
        categories: tuple[int, ...], policy: str, budget: int):
    """Measure one mix workload; returns per-layer metrics when tracing."""
    config = SystemConfig(num_cores=CORES)
    names = design(seed, categories)
    setup = Setup(clock, lambda: [Mix(config, seed, n, budget) for n in names])
    if trace:
        from tracer import Tracer, install_layers

        setup_tracer = Tracer()
        install_layers(setup_tracer)
        try:
            mixes, setup_wall = setup.batch()
        finally:
            setup_tracer.uninstall()
    else:
        mixes, _ = setup.batch()

    # Untimed, and the warm-up for the timed runs: the same simulations
    # through the paper's runner, which also yields STFM's fairness.
    expected_ipc = _fairness(seed, config, mixes, policy, budget, report)

    reference: list = []
    layers = None
    if trace:
        from repro.engine import session_report

        from tracer import Tracer, install_layers, layer_metrics

        untraced = _rounds(mixes, config, policy, seconds / 2, clock, reference, report)
        instructions = sum(s.instructions for snaps in reference for s in snaps)
        tracer = Tracer()
        per_mix_counters: dict[int, dict] = {}

        def remember(i):
            # Work counters of this one run: the tracer's totals minus
            # those before it (the mix workloads run on one thread).
            now = tracer.work_counters()
            delta = {k: v - before[0].get(k, 0) for k, v in now.items()}
            before[0] = now
            known = per_mix_counters.setdefault(i, delta)
            report.check(known == delta, f"mix {i}: work counters differ between runs")

        install_layers(tracer)
        before = [tracer.work_counters()]
        engine_before = session_report().snapshot()
        raw_before = clock.raw_seconds
        try:
            traced = _rounds(mixes, config, policy, seconds / 2, clock, reference, report,
                             remember)
            wall = clock.raw_seconds - raw_before
            # One more traced run of mix 0: its counters must repeat.
            _rounds(mixes[:1], config, policy, 0, clock, reference, report, remember)
        finally:
            tracer.uninstall()
        layers = layer_metrics(
            tracer, wall, setup_tracer, setup_wall,
            session_report().since(engine_before),
            _ips(traced, instructions), _ips(untraced, instructions),
        )
        times = untraced
    else:
        times = _rounds(mixes, config, policy, seconds, clock, reference, report)
        instructions = sum(s.instructions for snaps in reference for s in snaps)

    for i, mix in enumerate(mixes):
        report.check(
            all(s.instructions >= b for s, b in zip(reference[i], mix.budgets)),
            f"mix {i}: a core stopped short of its budget",
        )
        report.check(
            [s.ipc for s in reference[i]] == expected_ipc[i],
            f"mix {i}: ExperimentRunner disagrees with the timed CmpSystem run",
        )
    _naive_check(config, mixes[0], policy, reference[0], report)

    rounds = [sum(round_times) for round_times in zip(*times)]
    per_run_ips = [
        sum(s.instructions for s in reference[i]) / t
        for i, per_mix in enumerate(times) for t in per_mix
    ]
    report.metric("setup_s", setup.median, "s",
                  f"median of {len(setup.times)} set-ups building {len(mixes) * CORES} traces")
    report.metric("sim_ips", _ips(times, instructions), "1/s",
                  "per-run " + timing_note(per_run_ips))
    report.metric("sim_ipc", statistics.fmean(sum(s.ipc for s in snaps) for snaps in reference),
                  "instr/cycle", f"mean over {len(mixes)} mixes, summed over cores")
    report.metric("job_p50_ms", statistics.median(rounds) * 1e3, "ms",
                  f"one job = one round of {len(mixes)} CmpSystem runs; "
                  + timing_note(rounds, 1e3, "ms"))
    report.metric("job_p90_ms", quantile(rounds, 0.9) * 1e3, "ms")
    report.metric("jobs_per_s", len(rounds) / sum(rounds), "1/s")
    return layers


def _fairness(seed, config, mixes, policy, budget, report) -> list[list[float]]:
    """Run every mix under ``policy`` and STFM through ``ExperimentRunner``;
    report STFM's fairness and return each mix's per-core IPCs under
    ``policy``, which the timed runs must reproduce."""
    runner = ExperimentRunner(config, instruction_budget=budget, seed=seed)
    unfairness, speedup, ipcs = [], [], []
    for mix in mixes:
        results = runner.run_policies(mix.names, sorted({policy, "stfm"}))
        report.attempt()
        ipcs.append([t.ipc_shared for t in results[policy].threads])
        unfairness.append(results["stfm"].unfairness)
        speedup.append(results["stfm"].weighted_speedup)
    report.metric("unfairness_stfm", geometric_mean(unfairness), "ratio",
                  f"GMEAN over {len(mixes)} mixes under STFM")
    report.metric("weighted_speedup_stfm", geometric_mean(speedup), "ratio",
                  f"GMEAN over {len(mixes)} mixes under STFM")
    return ipcs


def _naive_check(config, mix, policy, expected, report) -> None:
    """The event kernel's snapshots must equal the naive kernel's."""
    previous = os.environ.get("STFM_SIM_KERNEL")
    os.environ["STFM_SIM_KERNEL"] = "naive"
    try:
        naive = mix.run(config, policy)
    finally:
        if previous is None:
            del os.environ["STFM_SIM_KERNEL"]
        else:
            os.environ["STFM_SIM_KERNEL"] = previous
    report.attempt()
    report.check(naive == expected, f"{'+'.join(mix.names)}: naive kernel differs from the event kernel")
