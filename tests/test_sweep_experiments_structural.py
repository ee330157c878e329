"""Structural checks of the heavier sweep experiments at minimal scale.

These validate plumbing (row shapes, aggregation, labels) without
paying full sweep runtimes; the end-to-end regeneration of each id is
the slow-marked part of ``tests/test_experiments.py``.
"""

import pytest

from repro.experiments import run_experiment
from repro.experiments.base import Scale

SUPER_TINY = Scale(budget=2_000, samples=1)


class TestFig9Structure:
    def test_gmean_row_and_policy_columns(self):
        result = run_experiment("fig9", scale=SUPER_TINY)
        gmean = [r for r in result.rows if r.get("workload") == "GMEAN"]
        assert len(gmean) == 1
        assert "unfairness:stfm" in gmean[0]
        assert gmean[0]["unfairness:stfm"] >= 1.0


class TestFig10Structure:
    def test_eight_threads_all_policies(self):
        result = run_experiment("fig10", scale=SUPER_TINY)
        assert {row["policy"] for row in result.rows} == {
            "FR-FCFS", "FCFS", "FR-FCFS+Cap", "NFQ", "STFM",
        }
        slowdown_keys = [
            k for k in result.rows[0] if k.startswith("slowdown:")
        ]
        assert len(slowdown_keys) == 8


class TestFig13Structure:
    def test_desktop_threads_present(self):
        result = run_experiment("fig13", scale=SUPER_TINY)
        keys = set(result.rows[0])
        assert "slowdown:xml-parser" in keys
        assert "slowdown:instant-messenger" in keys


class TestTable5Structure:
    def test_all_six_sensitivity_points(self):
        result = run_experiment("table5", scale=SUPER_TINY)
        axes = [(row["axis"], row["value"]) for row in result.rows]
        assert ("banks", 4) in axes and ("banks", 16) in axes
        assert ("row_buffer", 1024) in axes and ("row_buffer", 4096) in axes
        assert len(axes) == 6
        for row in result.rows:
            assert row["frfcfs_unfairness"] >= 1.0
            assert row["stfm_unfairness"] >= 1.0
            assert row["frfcfs_ws"] > 0
            assert row["stfm_ws"] > 0


class TestIntervalResetAtRuntime:
    def test_short_interval_causes_resets_in_contended_run(self):
        from repro.sim.config import SystemConfig
        from repro.sim.runner import ExperimentRunner

        runner = ExperimentRunner(
            SystemConfig(num_cores=2), instruction_budget=4_000
        )
        result = runner.run_workload(
            ["mcf", "libquantum"],
            "stfm",
            {"interval_length": 1 << 12},
        )
        # 2**12 cycles is far below the run length, so the registers
        # must have been reset many times, and the system still works.
        assert result.unfairness >= 1.0

    def test_reset_count_observable(self):
        from repro.core.stfm import StfmPolicy
        from tests.conftest import ControllerHarness

        policy = StfmPolicy(2, interval_length=1_000)
        harness = ControllerHarness(policy=policy, num_threads=2)
        harness.submit(0, bank=0, row=1)
        harness.tick(400)  # 4000 cycles
        assert policy.registers.resets >= 3
