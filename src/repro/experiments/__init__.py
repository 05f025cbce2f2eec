"""Experiment harness: regenerate every table and figure of the paper.

Each experiment module exposes ``run(quick=False) -> ExperimentResult``.
The registry maps paper artifact ids (``fig4``, ``table1``, ...) to these
runners; the CLI (``python -m repro``) and the scorecard go through it.
"""

from repro.experiments.report import ExperimentResult, render_table
from repro.experiments.registry import EXPERIMENTS, get_experiment, run_experiment

__all__ = [
    "ExperimentResult",
    "render_table",
    "EXPERIMENTS",
    "get_experiment",
    "run_experiment",
]
