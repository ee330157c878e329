"""Shared infrastructure for the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Scale:
    """Experiment sizing knob.

    Attributes:
        budget: Base per-thread instruction budget (extended for
            non-intensive benchmarks, see ``ExperimentRunner.min_reads``).
        samples: Number of workloads to run in sweep experiments
            (Figures 9/11 sample the paper's 256/32 combination spaces).
        seed: Workload-generation seed.
    """

    budget: int = 20_000
    samples: int = 6
    seed: int = 0


#: Named scales.  ``tiny`` is for unit tests, ``small`` for interactive
#: iteration, ``medium`` for overnight sweeps,
#: ``paper`` approaches the paper's methodology (still far below its
#: 100M-instruction SimPoints — see EXPERIMENTS.md).
SCALES: dict[str, Scale] = {
    "tiny": Scale(budget=4_000, samples=2),
    "small": Scale(budget=20_000, samples=6),
    "medium": Scale(budget=60_000, samples=16),
    "paper": Scale(budget=200_000, samples=32),
}


def resolve_scale(scale: "str | Scale") -> Scale:
    if isinstance(scale, Scale):
        return scale
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; available: {', '.join(SCALES)}"
        ) from None


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    Attributes:
        experiment_id: e.g. ``fig6``.
        title: Human-readable description (what the paper reports).
        rows: Structured result rows (list of dicts) for programmatic
            consumption and regression tests.
        text: The formatted tables, printed by the CLI.
        paper_reference: The headline numbers the paper reports for this
            figure/table, for side-by-side comparison in EXPERIMENTS.md.
    """

    experiment_id: str
    title: str
    rows: list[dict]
    text: str
    paper_reference: str = ""
    extras: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.experiment_id}: {self.title} ==\n{self.text}"
