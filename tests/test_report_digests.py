"""Output pins: one sha256 per run over its report and its final stores.

Each case hashes `report_dict` without `elapsed`, together with every
store's facts and hard rules in order, so a change that alters any output
-- a relation, a trace line, a fact, or the order of facts -- names the case
it altered.  The committed digests were written when each constituent's
content became a `(K x φ)` fact and the per-pair belief-property rules gave
way to one schema per relation: against the digests before, each case
gained its content facts and, where one fired, its belief-property step
line names the schema and its binding, and nothing else moved.  To write
them again, from the root of a checkout:

    PYTHONPATH=src:tests python tests/test_report_digests.py
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from conftest import CORPUS, scenario_path
from dicekit.formulas import print_formula
from dicekit.runner import RunReport, report_dict, run_scenario
from dicekit.scenario import load, loads
from test_long_discourse import chain_scenario

DATA = os.path.join(os.path.dirname(__file__), "data")
DIGESTS = os.path.join(DATA, "report_digests.json")

CASES = [f"{name}@{steps}" for steps in (1000, 50) for name in CORPUS]
CASES += [f"chain{n}" for n in range(3, 13)]
#: scenarios kept out of the corpus, which the benchmark loads whole
CASES += ["context_defaults@1000"]


def run_case(case: str) -> RunReport:
    if case.startswith("chain"):
        return run_scenario(loads(chain_scenario(int(case[5:])), case))
    name, steps = case.split("@")
    scn = scenario_path(name) if name in CORPUS else os.path.join(DATA, name + ".scn")
    return run_scenario(load(scn), max_steps=int(steps))


def case_payload(report: RunReport) -> dict:
    """What a digest pins: the report without `elapsed`, and every store's
    facts and hard rules in order."""
    pinned = {k: v for k, v in report_dict(report).items() if k != "elapsed"}
    stores = [
        ["/".join(path), [print_formula(f) for f in store.facts], [print_formula(f) for f in store.hard_rules]]
        for path, store in report.kb.walk()
    ]
    return {"report": pinned, "stores": stores}


def case_digest(case: str) -> str:
    payload = json.dumps(case_payload(run_case(case)), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def pinned() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_every_case_is_pinned(pinned):
    assert sorted(pinned) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_output_matches_its_pinned_digest(case, pinned):
    assert case_digest(case) == pinned[case]


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DIGESTS), exist_ok=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump({case: case_digest(case) for case in CASES}, fh, indent=2, sort_keys=True)
        fh.write("\n")
