"""Experiment harness: one module per figure/table of the evaluation.

Every experiment module exposes ``run(scale) -> ExperimentResult``; the
registry maps experiment ids (``fig1`` ... ``fig15``, ``table3``,
``table5``, ``fig3``) to those entry points.  Use the CLI::

    python -m repro.cli run fig6 --scale small

to regenerate a paper figure/table.  Scales control instruction budgets and sweep sample
counts (see :data:`repro.experiments.base.SCALES`).
"""

from repro.experiments.base import ExperimentResult, Scale, SCALES
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = [
    "EXPERIMENTS",
    "ExperimentResult",
    "SCALES",
    "Scale",
    "get_experiment",
    "run_experiment",
]
