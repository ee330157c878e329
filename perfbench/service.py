"""The service path: closed-loop clients against an in-process service.

A ``SimulationService`` (2 workers, on-disk store and state) runs on a
background event-loop thread.  Two client threads each submit the next
spec of one seeded stream through ``ServiceClient`` and wait for it to
finish before sending another (a closed loop).  The stream holds small
2-core workload jobs over every pair of benchmark categories and the
``PAPER_ORDER`` policies in turn; a fixed
share repeats an earlier spec, so coalescing and store reads run beside
fresh simulations and store writes.  One submitted spec is one job,
timed from ``submit`` to ``done``.

Set-up starts the service and fills its store: one job per benchmark
runs it on both cores, so every alone baseline the stream can ask for is
in the store before timing.  Without that, the first minute of jobs gets
cheaper as baselines fill the store (throughput doubled over 40
seconds), and a run's figures depend on how far along that curve it
gets.  The fill is part of the timed set-up because a start-up alone
is a few milliseconds of thread and socket calls, whose median drifted
from 3.5 to 6 ms over ten consecutive runs.

The loop runs in slices of ``SLICE`` seconds.  Between slices, with no
job in flight, the main thread reads the host's speed
(``common.HostClock``), and the next slice's latencies and elapsed time
are scaled by it to nominal-host seconds.  Over ten runs on a drifting
host this cut the quartile spread of ``jobs_per_s`` from 0.24 unscaled,
and 0.13 scaled by the median reading of the run, to 0.07.
"""

from __future__ import annotations

import asyncio
import json
import random
import statistics
import threading
import time

from repro.engine import session_report
from repro.engine.jobs import budget_for, resolve_spec
from repro.engine.store import ResultStore
from repro.metrics.stats import geometric_mean
from repro.schedulers.registry import PAPER_ORDER
from repro.service import (
    BackpressureError,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SimulationService,
    parse_metrics,
)
from repro.service.workers import execute_spec
from repro.workloads.spec2006 import benchmarks_by_category

from common import HostClock, Report, Setup, quantile, scratch_dir, timing_note

CLIENTS = 2
WORKERS = 2
BUDGET = 1000
#: Share of submissions that repeat an earlier spec.
REPEAT_SHARE = 0.25
#: Client poll interval while a job runs, seconds.
POLL = 0.005
#: The simulated metrics cover the stream's first this many distinct
#: specs, so they repeat exactly for a seed however far a run gets.
SIMULATED_SPECS = 100
#: Seconds of closed loop between two host-speed readings, and the
#: reference passes per reading.
SLICE = 2.0
SPEED_PASSES = 5
#: Timed set-ups per run; each takes seconds.
SETUPS = 3


class JobStream:
    """The seeded spec stream the clients share."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"service:{seed}")
        self._seed = seed % 2**32
        self._by_category = [
            [spec.name for spec in benchmarks_by_category(c)] for c in range(4)
        ]
        self._fresh: list[dict] = []
        self._pairs: dict[tuple[int, int, str], list[tuple[str, str]]] = {}
        self._lock = threading.Lock()

    def next(self) -> dict:
        with self._lock:
            rng = self._rng
            if self._fresh and rng.random() < REPEAT_SHARE:
                return rng.choice(self._fresh)
            # Fresh specs walk through every pair of categories and every
            # policy in turn, so each run's composition is balanced
            # whatever the seed, and draw benchmark pairs without
            # replacement: a drawn pair that came up before would be a
            # store hit, and hits would grow over the run.
            k = len(self._fresh)
            cell = (k % 4, (k // 4) % 4, PAPER_ORDER[k % len(PAPER_ORDER)])
            pairs = self._pairs.get(cell)
            if not pairs:
                first, second = self._by_category[cell[0]], self._by_category[cell[1]]
                pairs = [(a, b) for a in first for b in second if a != b]
                rng.shuffle(pairs)
                self._pairs[cell] = pairs
            a, b = pairs.pop()
            spec = {
                "kind": "workload",
                "benchmarks": [a, b],
                "policy": cell[2],
                "budget": BUDGET,
                "seed": self._seed,
            }
            self._fresh.append(spec)
            return spec

    def warm_specs(self) -> list[dict]:
        """One spec per benchmark, run on both cores; the stream never
        pairs a benchmark with itself."""
        return [
            {"kind": "workload", "benchmarks": [name, name], "policy": "fr-fcfs",
             "budget": BUDGET, "seed": self._seed}
            for names in self._by_category for name in names
        ]

    def distinct(self, count: int) -> list[dict]:
        """The first ``count`` distinct specs of a fresh stream."""
        while len(self._fresh) < count:
            self.next()
        return self._fresh[:count]


class RunningService:
    """A service on its own event-loop thread, stopped by :meth:`stop`."""

    def __init__(self, directory) -> None:
        self.directory = directory
        self._ready = threading.Event()
        self._error: "BaseException | None" = None
        self._thread = threading.Thread(target=self._main, name="perfbench-service")
        self._thread.start()
        self._ready.wait(60)
        if self._error is not None or not self._ready.is_set():
            self._thread.join(10)
            raise RuntimeError(f"service failed to start: {self._error}")
        self.client = ServiceClient(f"http://127.0.0.1:{self.service.port}", retries=2)

    def _main(self) -> None:
        try:
            asyncio.run(self._serve())
        except Exception as exc:  # reported to the starting thread
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        self.service = SimulationService(ServiceConfig(
            port=0, workers=WORKERS, queue_limit=64,
            cache_dir=str(self.directory / "store"),
            state_dir=str(self.directory / "state"),
        ))
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.service.start()
        self._ready.set()
        await self._stop.wait()
        await self.service.drain_and_stop()

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        if self._thread.is_alive():
            raise RuntimeError("service did not stop")


class Phase:
    """What one closed-loop phase observed."""

    def __init__(self) -> None:
        #: Nominal seconds once the slice they ran in has ended.
        self.latencies: list[float] = []
        self.done: list[tuple[dict, dict]] = []  # (spec, result view)
        self.submitted = 0
        self.errors: list[str] = []
        self.coalesced = 0
        self.queue_wait = 0.0
        #: Nominal and unscaled seconds the clients ran.
        self.elapsed = 0.0
        self.raw_elapsed = 0.0
        self.lock = threading.Lock()


def _client_loop(client: ServiceClient, stream: JobStream, deadline: float, phase: Phase):
    while time.perf_counter() < deadline:
        spec = stream.next()
        start = time.perf_counter()
        try:
            view = client.submit(spec)
            done = client.wait(view["id"], timeout=120, poll=POLL)
        except (BackpressureError, ServiceError, OSError, TimeoutError) as exc:
            with phase.lock:
                phase.submitted += 1
                phase.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        latency = time.perf_counter() - start
        with phase.lock:
            phase.submitted += 1
            if done["status"] != "done":
                phase.errors.append(f"job {done['id']} ended {done['status']}")
                continue
            phase.latencies.append(latency)
            phase.done.append((spec, done))
            if view.get("deduplicated"):
                phase.coalesced += 1
            else:
                phase.queue_wait += max(latency - done.get("wall_seconds", 0.0), 0.0)


def _warm(running: RunningService, seed: int, report: Report) -> None:
    """Fill the store with every alone baseline."""
    ids = [running.client.submit(spec)["id"] for spec in JobStream(seed).warm_specs()]
    for job_id in ids:
        report.attempt()
        status = running.client.wait(job_id, timeout=120, poll=POLL)["status"]
        if status != "done":
            report.fail(1, f"warm-up job {job_id} ended {status}")


def _closed_loop(running: RunningService, seed: int, seconds: float,
                 clock: HostClock) -> Phase:
    stream = JobStream(seed)
    phase = Phase()
    clients = [ServiceClient(f"http://127.0.0.1:{running.service.port}", retries=2)
               for _ in range(CLIENTS)]
    end = time.perf_counter() + seconds
    while not phase.elapsed or time.perf_counter() < end:
        speed = clock.speed(SPEED_PASSES)
        first = len(phase.latencies)
        start = time.perf_counter()
        deadline = min(start + SLICE, end)
        threads = [
            threading.Thread(target=_client_loop, args=(c, stream, deadline, phase))
            for c in clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(SLICE + 180)
        elapsed = time.perf_counter() - start
        phase.raw_elapsed += elapsed
        phase.elapsed += elapsed * speed
        phase.latencies[first:] = [latency * speed for latency in phase.latencies[first:]]
    return phase


def _instructions(spec: dict) -> int:
    return sum(budget_for(resolve_spec(name), spec["budget"]) for name in spec["benchmarks"])


def _account(phase: Phase, running: RunningService, report: Report) -> dict[str, float]:
    """Count attempts and failures; returns the service's /metrics."""
    values = parse_metrics(running.client.metrics())
    rejected = int(values.get('stfm_service_jobs_total{event="rejected"}', 0))
    report.attempt(phase.submitted)
    report.fail(rejected, f"{rejected} submissions refused with 429" if rejected else "")
    for error in phase.errors:
        report.fail(1, error)
    return values


def run(seed: int, seconds: float, trace: bool, clock: HostClock, root, report: Report):
    with scratch_dir(root) as scratch:
        directories = (scratch / f"service-{i}" for i in range(1 << 30))

        def build():
            directory = next(directories)
            directory.mkdir()
            running = RunningService(directory)
            running.client.health()
            _warm(running, seed, report)
            return running

        setup = Setup(clock, build, lambda r: r.stop(), minimum=SETUPS)
        running, setup_wall = setup.batch()
        try:
            if trace:
                from tracer import Tracer, install_layers, layer_metrics

                untraced = _closed_loop(running, seed, seconds / 2, clock)
                _account(untraced, running, report)
                running.stop()
                running = build()
                # The service's counters include the store fill.
                before = parse_metrics(running.client.metrics())
                tracer = Tracer()
                install_layers(tracer)
                engine_before = session_report().snapshot()
                try:
                    traced = _closed_loop(running, seed, seconds / 2, clock)
                finally:
                    tracer.uninstall()
                values = _account(traced, running, report)

                def grown(name: str) -> float:
                    return values.get(name, 0) - before.get(name, 0)

                tracer.count("service.rejected_429",
                             grown('stfm_service_http_requests_total{status="429"}'))
                tracer.count("service.coalesced", traced.coalesced)
                tracer.count("service.queue_wait_s", traced.queue_wait)
                tracer.count("service.execute_s", grown("stfm_service_job_wall_seconds_sum"))
                ips = [sum(_instructions(s) for s, _ in p.done) / p.elapsed
                       for p in (traced, untraced)]
                layers = layer_metrics(tracer, traced.raw_elapsed, Tracer(), setup_wall,
                                       session_report().since(engine_before), *ips)
                phase = untraced
            else:
                layers = None
                phase = _closed_loop(running, seed, seconds, clock)
                _account(phase, running, report)
        finally:
            running.stop()

        # Untimed: every result must equal a direct execute_spec run (on
        # a store of its own, which shares alone baselines between specs).
        check_store = ResultStore(str(scratch / "check-store"))
        expected: dict[str, dict] = {}

        def direct(spec: dict) -> dict:
            key = json.dumps(spec, sort_keys=True)
            if key not in expected:
                expected[key] = execute_spec(spec, store=check_store)
            return expected[key]

        for spec, view in phase.done:
            report.check(view.get("result") == direct(spec),
                         f"job {view['id']}: result differs from execute_spec")
        specs = JobStream(seed).distinct(SIMULATED_SPECS)
        results = [direct(spec) for spec in specs]

    stfm = [r for spec, r in zip(specs, results) if spec["policy"] == "stfm"]
    latencies, elapsed = phase.latencies, phase.elapsed
    report.metric("setup_s", setup.median, "s",
                  f"median of {len(setup.times)} service start-ups with a store fill")
    report.metric("sim_ips", sum(_instructions(s) for s, _ in phase.done) / elapsed, "1/s",
                  "instructions to budget in delivered results")
    report.metric("sim_ipc", statistics.fmean(r["sum_of_ipcs"] for r in results),
                  "instr/cycle", f"mean over the stream's first {len(results)} distinct specs")
    report.metric("unfairness_stfm", geometric_mean([r["unfairness"] for r in stfm]), "ratio",
                  f"GMEAN over {len(stfm)} STFM results")
    report.metric("weighted_speedup_stfm",
                  geometric_mean([r["weighted_speedup"] for r in stfm]), "ratio",
                  f"GMEAN over {len(stfm)} STFM results")
    report.metric("job_p50_ms", statistics.median(latencies) * 1e3, "ms",
                  "submit to done; " + timing_note(latencies, 1e3, "ms"))
    report.metric("job_p90_ms", quantile(latencies, 0.9) * 1e3, "ms")
    report.metric("jobs_per_s", len(latencies) / elapsed, "1/s",
                  f"{CLIENTS} closed-loop clients, {phase.coalesced} coalesced")
    return layers
