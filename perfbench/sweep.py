"""The paper's evaluation path: a mix x policy sweep through the engine.

Each repetition builds a fresh on-disk store and an ``ExperimentRunner``
with two worker processes, and runs ``run_sweep`` over
``category_pattern_workloads(4, ...)`` mixes under every ``PAPER_ORDER``
policy.  The mixes are the same for every seed (pattern seed
``PATTERN_SEED``, chosen because its six mixes cover all four
categories, include two all-light ones, and vary least across seeds); the seed permutes each mix's
core slots and generates every trace.  The whole batch deduplicates alone baselines, runs on the
process pool and writes every payload to the store.  One repetition is
one job of this workload, timed in nominal-host seconds
(``common.HostClock``, with the host's speed taken as the median of
``SPEED_PASSES`` reference passes before each repetition).
"""

from __future__ import annotations

import shutil
import statistics
import time

from repro.engine import session_report
from repro.metrics.stats import geometric_mean
from repro.schedulers.registry import PAPER_ORDER
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.workloads.mixes import category_pattern_workloads

from common import HostClock, Report, Setup, quantile, scratch_dir, timing_note
from mixes import shuffle_slots

MIXES = 6
PATTERN_SEED = 5
BUDGET = 2000
WORKERS = 2
CORES = 4
#: Reference passes per host-speed reading: one repetition is long and
#: spans both cores, so it gets a steadier reading than one pass.
SPEED_PASSES = 5


def _runner(seed: int, store) -> ExperimentRunner:
    return ExperimentRunner(
        SystemConfig(num_cores=CORES), instruction_budget=BUDGET, seed=seed,
        jobs=WORKERS, cache_dir=str(store),
    )


def _instructions(runner: ExperimentRunner, workloads) -> tuple[int, int]:
    """(instructions to budget, jobs) the sweep must simulate: one alone
    job per distinct (benchmark, core slot) plus one shared job per mix
    and policy."""
    alone = {(name, slot) for names in workloads for slot, name in enumerate(names)}
    total = sum(runner.budget_for(name) for name, _ in alone)
    total += len(PAPER_ORDER) * sum(
        runner.budget_for(name) for names in workloads for name in names
    )
    return total, len(alone) + len(PAPER_ORDER) * len(workloads)


def run(seed: int, seconds: float, trace: bool, clock: HostClock, root, report: Report):
    with scratch_dir(root) as scratch:
        stores = (scratch / f"store-{i}" for i in range(1 << 30))

        def build():
            store = next(stores)
            store.mkdir()
            workloads = shuffle_slots(
                seed, category_pattern_workloads(CORES, count=MIXES, seed=PATTERN_SEED)
            )
            return workloads, store, _runner(seed, store)

        def discard(state):
            shutil.rmtree(state[1])

        setup = Setup(clock, build, discard)
        built, setup_wall = setup.batch()
        discard(built)
        workloads, _, runner = built
        instructions, expected_jobs = _instructions(runner, workloads)
        reference = []

        def sweep_once():
            """One timed repetition on a fresh store; returns nominal seconds."""
            before = session_report().snapshot()

            def sweep():
                store = next(stores)
                store.mkdir()
                return store, _runner(seed, store).run_sweep(workloads, PAPER_ORDER)

            (store, results), elapsed = clock.time(sweep, SPEED_PASSES)
            delta = session_report().since(before)
            shutil.rmtree(store)
            report.attempt(delta.jobs_total)
            report.fail(delta.jobs_failed, f"{delta.jobs_failed} engine jobs failed"
                        if delta.jobs_failed else "")
            report.check(
                (delta.jobs_run, delta.hits) == (expected_jobs, 0),
                f"sweep simulated {delta.jobs_run} and reused {delta.hits} jobs, "
                f"expected {expected_jobs} and 0",
            )
            if not reference:
                reference.append(results)
            report.check(results == reference[0], "sweep results differ between repetitions")
            return elapsed

        def timed(span: float) -> list[float]:
            times = []
            deadline = time.perf_counter() + span
            while not times or time.perf_counter() < deadline:
                times.append(sweep_once())
            return times

        layers = None
        if trace:
            from tracer import Tracer, install_layers, layer_metrics

            untraced = timed(seconds / 2)
            tracer = Tracer()
            install_layers(tracer)
            tracer.follow_workers(scratch)
            engine_before = session_report().snapshot()
            raw_before = clock.raw_seconds
            try:
                traced = timed(seconds / 2)
                wall = clock.raw_seconds - raw_before
            finally:
                tracer.uninstall()
            tracer.merge_workers(scratch)
            layers = layer_metrics(
                tracer, wall, Tracer(), setup_wall,
                session_report().since(engine_before),
                instructions / statistics.median(traced),
                instructions / statistics.median(untraced),
            )
            times = untraced
        else:
            times = timed(seconds)
        results = reference[0]

        # Untimed: one mix re-run serially in-process must match.
        label, per_policy = next(iter(results.items()))
        serial = ExperimentRunner(
            SystemConfig(num_cores=CORES), instruction_budget=BUDGET, seed=seed
        ).run_sweep(workloads[:1], PAPER_ORDER)
        report.check(serial == {label: per_policy},
                     f"{label}: parallel sweep differs from a serial jobs=1 run")

    stfm = [per["stfm"] for per in results.values()]
    everything = [r for per in results.values() for r in per.values()]
    report.metric("setup_s", setup.median, "s",
                  f"median of {len(setup.times)} set-ups: mixes, store, runner")
    report.metric("sim_ips", instructions / statistics.median(times), "1/s",
                  f"{instructions} instructions to budget in {expected_jobs} jobs per sweep")
    report.metric("sim_ipc", statistics.fmean(r.sum_of_ipcs for r in everything),
                  "instr/cycle", f"mean over {len(everything)} mix x policy runs")
    report.metric("unfairness_stfm", geometric_mean([r.unfairness for r in stfm]), "ratio",
                  f"GMEAN over {len(stfm)} mixes")
    report.metric("weighted_speedup_stfm", geometric_mean([r.weighted_speedup for r in stfm]),
                  "ratio", f"GMEAN over {len(stfm)} mixes")
    report.metric("job_p50_ms", statistics.median(times) * 1e3, "ms",
                  "one job = one run_sweep call; " + timing_note(times, 1e3, "ms"))
    report.metric("job_p90_ms", quantile(times, 0.9) * 1e3, "ms")
    report.metric("jobs_per_s", len(times) / sum(times), "1/s")
    return layers
