"""Experiment harness: regenerate the paper's table and theorem claims.

Each experiment module exposes ``run(seed=0, fast=False) ->
ExperimentReport``; reports carry ASCII tables mirroring what the paper
states, a summary dict of headline numbers, and a ``passed`` flag for
the paper's qualitative claim (who wins, what property holds).

Run them all from the command line::

    python -m repro list
    python -m repro run t3_envy
    python -m repro run all
"""

from repro.experiments.base import ExperimentReport, Table

__all__ = [
    "ExperimentReport",
    "Table",
]
