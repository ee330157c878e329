"""Tests for the experiment harness (all ids, tiny scale)."""

import pytest

from repro.experiments import EXPERIMENTS, SCALES, Scale, run_experiment
from repro.experiments.base import resolve_scale

#: A stripped-down scale so the whole registry runs in CI time.
SUPER_TINY = Scale(budget=2_000, samples=1)

#: Experiments cheap enough to execute in the unit-test suite.
FAST_IDS = ["fig1", "fig3", "fig6", "fig7", "fig8", "fig14", "fig15"]

#: The heavyweight sweeps and extension studies, run end to end only on
#: request (``pytest -m slow``).
SLOW_IDS = [
    "fig5", "fig9", "fig10", "fig11", "fig12", "fig13", "table3", "table5",
    "attack", "ablate-gamma", "ablate-interval", "ablate-estimator",
    "ablate-cap", "ablate-page-policy", "ablate-refresh", "extension-parbs",
]


class TestScales:
    def test_named_scales_exist(self):
        assert {"tiny", "small", "medium", "paper"} <= set(SCALES)

    def test_resolve_scale(self):
        assert resolve_scale("tiny") is SCALES["tiny"]
        custom = Scale(budget=123)
        assert resolve_scale(custom) is custom
        with pytest.raises(ValueError):
            resolve_scale("gigantic")

    def test_scales_ordered_by_budget(self):
        assert (
            SCALES["tiny"].budget
            < SCALES["small"].budget
            < SCALES["medium"].budget
            < SCALES["paper"].budget
        )


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        paper_ids = {
            "fig1", "fig3", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
            "table3", "table5",
        }
        assert paper_ids <= set(EXPERIMENTS)

    def test_extension_experiments_registered(self):
        extensions = {
            "attack",
            "ablate-gamma",
            "ablate-interval",
            "ablate-estimator",
            "ablate-cap",
            "ablate-page-policy",
            "ablate-refresh",
        }
        assert extensions <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")


@pytest.mark.parametrize(
    "experiment_id",
    FAST_IDS
    + [pytest.param(id_, marks=pytest.mark.slow) for id_ in SLOW_IDS],
)
def test_experiment_runs_and_is_well_formed(experiment_id):
    result = run_experiment(experiment_id, scale=SUPER_TINY)
    assert result.experiment_id == experiment_id
    assert result.rows, "experiments must produce structured rows"
    assert result.text.strip()
    assert result.paper_reference


class TestSpecificShapes:
    def test_fig1_reports_both_core_counts(self):
        result = run_experiment("fig1", scale=SUPER_TINY)
        cores = {row["cores"] for row in result.rows}
        assert cores == {4, 8}
        assert len(result.rows) == 12  # 4 + 8 threads

    def test_fig6_covers_all_five_policies(self):
        result = run_experiment("fig6", scale=SUPER_TINY)
        policies = {row["policy"] for row in result.rows}
        assert policies == {"FR-FCFS", "FCFS", "FR-FCFS+Cap", "NFQ", "STFM"}

    def test_fig15_sweeps_alpha(self):
        result = run_experiment("fig15", scale=SUPER_TINY)
        alphas = [row["alpha"] for row in result.rows if row["alpha"]]
        assert alphas == [1.0, 1.05, 1.1, 1.2, 2.0, 5.0, 20.0]
        # The FR-FCFS reference row is last.
        assert result.rows[-1]["alpha"] is None

    def test_fig14_reports_equal_priority_unfairness(self):
        result = run_experiment("fig14", scale=SUPER_TINY)
        for row in result.rows:
            assert row["equal_priority_unfairness"] >= 1.0
        schemes = {row["scheme"] for row in result.rows}
        assert schemes == {"FR-FCFS", "NFQ-shares", "STFM-weights"}

    def test_fig3_idleness_shape(self):
        """NFQ hurts the continuous thread more than STFM does."""
        result = run_experiment("fig3", scale=Scale(budget=6_000, samples=1))
        by_policy = {row["policy"]: row for row in result.rows}
        assert (
            by_policy["NFQ"]["continuous_slowdown"]
            > by_policy["STFM"]["continuous_slowdown"]
        )


class TestSweepExperimentsStructurally:
    """Run the sweep experiments with minimal inputs to validate their
    plumbing without paying full runtime."""

    def test_fig5_with_two_partners(self):
        from repro.experiments import fig05

        result = fig05.run(scale=SUPER_TINY, partners=["libquantum", "dealII"])
        assert result.rows[-1]["partner"] == "GMEAN"
        assert result.rows[-1]["stfm_unfairness"] >= 1.0

    def test_table3_subset(self):
        from repro.experiments import table3

        result = table3.run(scale=SUPER_TINY, names=["mcf", "libquantum"])
        assert len(result.rows) == 2
        for row in result.rows:
            assert row["mpki_measured"] > 0
