"""Shared fixtures: the scenario corpus."""

from __future__ import annotations

import os

import pytest

from dicekit.runner import run_scenario
from dicekit.scenario import load

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")

CORPUS = (
    "bush_context1",
    "bush_context2",
    "bush_context3",
    "weak_willed",
    "hardware_store",
    "plan_progress",
)


def scenario_path(name: str) -> str:
    return os.path.join(SCENARIO_DIR, name + ".scn")


@pytest.fixture(scope="session")
def corpus_reports():
    """One full run of every scenario in the corpus (untimed assertions only;
    the acceptance gate re-runs them fresh when it measures wall time)."""
    return {name: run_scenario(load(scenario_path(name))) for name in CORPUS}
