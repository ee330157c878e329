"""STFM reproduction benchmark: one workload per run, metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload mix_heavy_stfm --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``mix_heavy_stfm``   4-core category 2-3 mixes under STFM, ``CmpSystem.run``
* ``mix_light_frfcfs`` 4-core category 0-1 mixes under FR-FCFS, ``CmpSystem.run``
* ``paper_sweep``      ``category_pattern_workloads`` x ``PAPER_ORDER`` through
  ``ExperimentRunner.run_sweep`` with 2 worker processes and a fresh store
* ``service_jobs``     2 closed-loop ``ServiceClient`` threads against an
  in-process ``SimulationService``

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics; with ``--trace 1`` it measures half its time untraced and half
with span wrappers installed (``tracer.py``) and reports the per-layer
metrics, including the tracing overhead.  Either way the output checks
run outside the timed region and every mismatch counts as a failed
operation.  A human-readable table goes first; the last line of
standard output is the JSON result.

Simulated metrics (``sim_ipc``, ``unfairness_stfm``,
``weighted_speedup_stfm``) describe the modelled CMP and repeat exactly
for a seed.  Host metrics (everything else) measure the simulator; their
times are nominal-host seconds: each timed sample is scaled by the
host's speed just before it, read from a fixed reference loop
(``common.HostClock``), so that the shared host's drift does not show as
a change of the program.  ``host.speed`` in the traced run gives the
median speed read.
Seed 1000 is held out from tuning: check a claimed gain on it too.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mix_heavy_stfm", "mix_light_frfcfs", "paper_sweep", "service_jobs")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from common import HostClock, Report, peak_rss_mb

    clock = HostClock()
    report = Report()
    trace = bool(args.trace)
    started = time.perf_counter()
    if args.workload == "mix_heavy_stfm":
        import mixes

        layers = mixes.run(args.seed, args.seconds, trace, clock, report,
                           categories=(2, 3), policy="stfm", budget=mixes.HEAVY_BUDGET)
    elif args.workload == "mix_light_frfcfs":
        import mixes

        layers = mixes.run(args.seed, args.seconds, trace, clock, report,
                           categories=(0, 1), policy="fr-fcfs",
                           budget=mixes.LIGHT_BUDGET)
    elif args.workload == "paper_sweep":
        import sweep

        layers = sweep.run(args.seed, args.seconds, trace, clock, ROOT, report)
    else:
        import service

        layers = service.run(args.seed, args.seconds, trace, clock, ROOT, report)
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", "this process plus its largest worker")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ({time.perf_counter() - started:.1f}s, "
          f"host speed {clock.median_speed():.3f} of nominal)")
    print("end-to-end:")
    for line in report.lines():
        print(line)
    print(f"  {'failed_frac':<38} {report.failed / max(report.attempted, 1):>16.6g} "
          f"ratio        {report.failed} of {report.attempted} operations")
    for what in report.mismatches[:20]:
        print(f"  MISMATCH: {what}")
    for what in report.errors[:20]:
        print(f"  FAILED: {what}")
    if trace:
        layers["host.speed"] = (clock.median_speed(), "ratio")
        print("per-layer:")
        for name, (value, unit) in layers.items():
            print(f"  {name:<38} {value:>16.6g} {unit}")
        metrics = layers
    else:
        metrics = report.metrics
    result = {
        "correct": not report.mismatches,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
