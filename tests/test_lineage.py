"""The lineage machinery against a from-scratch run.

The carry a closure leaves on its stores (`Store.keep_carry`), and the
closure memos on a knowledge base (`defeasible_closure`'s and
`_closed_with`'s, both in `KnowledgeBase._closures`), only save work: with
both switched off, every closure binds every active rule afresh and nothing
is replayed.  Each digest case runs both ways and must give the same
verdict, relations, diagnostics, expectation results, stores (facts and
hard rules, in order) and trace.  The trace is compared without its
"blocked" notes: a block is noted once along a lineage, so without a carry
every closure that meets it notes it again.
"""

from __future__ import annotations

import pytest

from dicekit import engine
from dicekit.kb import KnowledgeBase, Store
from dicekit.runner import run_scenario
from dicekit.scenario import loads
from test_long_discourse import chain_scenario
from test_report_digests import CASES, case_payload, run_case

BLOCKED = " blocked, consequent conflicts with the store"


def from_scratch(monkeypatch) -> None:
    """Switch the carry and the closure memos off, until the test ends."""
    monkeypatch.setattr(Store, "keep_carry", lambda store, carry: None)
    monkeypatch.setattr(KnowledgeBase, "_closures", property(lambda kb: {}))  # a fresh memo, so every lookup misses


def count_joins(monkeypatch) -> list[int]:
    """A counter, in a one-item list, of the rules that join a carry."""
    joins = [0]
    add = engine._Carry.add

    def counted(carry, entry):
        joins[0] += 1
        add(carry, entry)

    monkeypatch.setattr(engine._Carry, "add", counted)
    return joins


def observed(case: str) -> dict:
    """The case's digest payload, less the trace's "blocked" notes."""
    payload = case_payload(run_case(case))
    trace = payload["report"]["trace"]
    payload["report"]["trace"] = [line for line in trace if not line.endswith(BLOCKED)]
    return payload


@pytest.mark.parametrize("case", CASES)
def test_a_run_agrees_with_the_run_from_scratch(case, monkeypatch):
    expected = observed(case)
    from_scratch(monkeypatch)
    assert observed(case) == expected


def test_from_scratch_every_closure_binds_its_rules_again(monkeypatch):
    # on a 20-utterance chain, 65 rules join a carry along the lineages,
    # and 1,342 when each closure starts afresh
    scenario = loads(chain_scenario(20), "chain20")
    joins = count_joins(monkeypatch)
    run_scenario(scenario)
    along_lineages = joins[0]
    joins[0] = 0
    from_scratch(monkeypatch)
    run_scenario(scenario)
    assert joins[0] > along_lineages
