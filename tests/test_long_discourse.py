"""Length robustness: generated imperative-plus-enablements chains longer than
any corpus scenario interpret with the relations their construction implies."""

import collections
from pathlib import Path

import pytest

from conftest import CORPUS, scenario_path
from dicekit import engine, formulas, runner
from dicekit.formulas import Doing, Formula, Iff, Implies, parse_formula
from dicekit.kb import KnowledgeBase
from dicekit.runner import run_scenario
from dicekit.scenario import load, loads


def chain_scenario(n: int) -> str:
    """An imperative u0, then n - 1 enablements uK, each pair linked by a
    cause fact: every pair should attach with Result, none with Narration."""
    pairs = [(f"u{k}", f"u{k + 1}") for k in range(n - 1)]
    lines = ["agents A I", "context [] {"]
    lines += [f"  fact (cause {a} {b})" for a, b in pairs]
    lines += ["}", "utterance u0 imperative (R (plan s0))"]
    lines += [f"utterance u{k} assertion (can (R (plan s{k})))" for k in range(1, n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [5, 6, 8, 10, 16, 30, 60])
def test_long_enablement_chain_is_coherent(n):
    report = run_scenario(loads(chain_scenario(n), f"chain{n}"))
    assert report.verdict == "coherent"
    got = {(a.rel.rel,) + tuple(a.rel.args) for a in report.sdrs.attachments}
    assert got == {("Result", f"u{k}", f"u{k + 1}") for k in range(n - 1)}
    for intention in ("(I A (R (plan s0)))", "(I A (R (plan s0 s1)))"):
        assert report.kb.entails((), parse_formula(intention))


def test_rule_matching_per_closure_stays_flat_as_the_chain_grows(monkeypatch):
    # each pair adds three belief-property rules, and the relation phase
    # closes again after every utterance; a round binds only the rules that
    # its new atoms touch, from those atoms first, so the `match` calls the
    # engine makes per closure do not grow with the chain
    counts = {"match": 0, "closures": 0}
    real_match, real_fixpoint = engine.match, engine._fixpoint

    def match(*args, **kw):
        counts["match"] += 1
        return real_match(*args, **kw)

    def fixpoint(*args, **kw):
        counts["closures"] += 1
        return real_fixpoint(*args, **kw)

    monkeypatch.setattr(engine, "match", match)
    monkeypatch.setattr(engine, "_fixpoint", fixpoint)
    per_closure = {}
    for n in (20, 80):
        counts.update(match=0, closures=0)
        assert run_scenario(loads(chain_scenario(n), f"chain{n}")).verdict == "coherent"
        per_closure[n] = counts["match"] / counts["closures"]
    assert max(per_closure.values()) <= 1.2 * min(per_closure.values()), per_closure


def test_rules_visited_per_closure_stay_flat_as_the_chain_grows(monkeypatch):
    # a rule is visited when its carry record is read by identity.  A round
    # reads the record of each awake active rule, one with live instances or
    # atoms to bind, the intention-update schema among them; a pair's
    # belief-property rules sleep once their instances are settled, so the
    # visits per closure do not grow with the chain
    counts = {"visits": 0, "closures": 0}
    real_fixpoint = engine._fixpoint

    def getitem(carry, ident):
        counts["visits"] += 1
        return dict.__getitem__(carry, ident)

    def get(carry, ident, default=None):
        counts["visits"] += 1
        return dict.get(carry, ident, default)

    def fixpoint(*args, **kw):
        counts["closures"] += 1
        return real_fixpoint(*args, **kw)

    monkeypatch.setattr(engine._Carry, "__getitem__", getitem, raising=False)
    monkeypatch.setattr(engine._Carry, "get", get, raising=False)
    monkeypatch.setattr(engine, "_fixpoint", fixpoint)
    per_closure = {}
    for n in (20, 80):
        counts.update(visits=0, closures=0)
        assert run_scenario(loads(chain_scenario(n), f"chain{n}")).verdict == "coherent"
        per_closure[n] = counts["visits"] / counts["closures"]
    assert max(per_closure.values()) <= 1.2 * min(per_closure.values()), per_closure


def test_formula_keys_rendered_per_utterance_stay_flat_and_few(monkeypatch):
    # a key is rendered on a node's first `Formula.key` read.  A grounded
    # pattern that is only looked up among a store's atoms is keyed by
    # `ground_key` and not built, a rule instance's opaque antecedents are the
    # store's own atoms, and each update site builds its formulas once, so a
    # chain renders a fixed number of keys per utterance: 22.4 at N=20 and
    # 22.9 at N=80, where it rendered 43.9 and 44.7 before those changes
    rendered = collections.Counter()
    real_render = formulas._render

    def render(f):
        rendered["keys"] += 1
        return real_render(f)

    scenarios = {n: loads(chain_scenario(n), f"chain{n}") for n in (20, 80)}
    monkeypatch.setattr(formulas, "_render", render)
    per_utterance = {}
    for n, scn in scenarios.items():
        rendered.clear()
        assert run_scenario(scn).verdict == "coherent"
        per_utterance[n] = rendered["keys"] / n
    assert max(per_utterance.values()) <= 1.1 * min(per_utterance.values()), per_utterance
    assert max(per_utterance.values()) < 25, per_utterance


def test_closure_binds_per_utterance_stay_flat_and_few(monkeypatch):
    # a rule binds when it joins a closure's lineage or an atom wakes it,
    # and not while one of its anchored conjuncts has no atom of an
    # anchor's functor in the store: the practical syllogism and APS1 wait
    # for a (B A (not ...)) belief, the intention-update schema for a done
    # record.  So a chain makes 2.95 `bind` calls per utterance at N=20 and
    # 2.99 at N=80, where it made 5.45 and 5.11 when such rules bound too
    calls = collections.Counter()
    real_bind = engine.bind

    def bind(*args, **kw):
        calls["bind"] += 1
        return real_bind(*args, **kw)

    scenarios = {n: loads(chain_scenario(n), f"chain{n}") for n in (20, 80)}
    monkeypatch.setattr(engine, "bind", bind)
    per_utterance = {}
    for n, scn in scenarios.items():
        calls.clear()
        assert run_scenario(scn).verdict == "coherent"
        per_utterance[n] = calls["bind"] / n
    assert max(per_utterance.values()) <= 1.1 * min(per_utterance.values()), per_utterance
    assert max(per_utterance.values()) <= 3.2, per_utterance


def test_hard_rule_comparisons_per_addition_stay_flat_as_the_chain_grows(monkeypatch):
    # each pair adds its Narration-Result exclusion to every store; whether
    # the store has it already is a set lookup, not a scan of its hard rules
    counts = {"eq": 0, "adds": 0}
    inside = []
    real_add = KnowledgeBase.add_hard_rule

    def add_hard_rule(self, path, f):
        counts["adds"] += 1
        inside.append(True)
        try:
            return real_add(self, path, f)
        finally:
            inside.pop()

    def counted_eq(real):
        def eq(self, other):
            counts["eq"] += bool(inside)
            return real(self, other)
        return eq

    monkeypatch.setattr(KnowledgeBase, "add_hard_rule", add_hard_rule)
    for cls in (Implies, Iff):
        monkeypatch.setattr(cls, "__eq__", counted_eq(cls.__eq__))
    per_addition = {}
    for n in (20, 80):
        counts.update(eq=0, adds=0)
        assert run_scenario(loads(chain_scenario(n), f"chain{n}")).verdict == "coherent"
        per_addition[n] = counts["eq"] / counts["adds"]
    assert max(per_addition.values()) <= 1.2 * min(per_addition.values()), per_addition


def test_root_facts_read_per_utterance_stay_flat_as_the_chain_grows(monkeypatch):
    # after each utterance the runner traces every plan the author came to
    # intend to the constituent it is intended since.  It reads the author's
    # intentions among the root facts the utterance added, not every one the
    # author holds (one more per pair, from the practical syllogism): one
    # isinstance test per intention read, and one per site
    counts = {"isinstance": 0, "utterances": 0}
    real_take_up = runner._take_up

    def counted_isinstance(*args):
        counts["isinstance"] += 1
        return isinstance(*args)

    def take_up(run, utt):
        counts["utterances"] += 1
        return real_take_up(run, utt)

    monkeypatch.setattr(runner, "isinstance", counted_isinstance, raising=False)
    monkeypatch.setattr(runner, "_take_up", take_up)
    per_utterance = {}
    for n in (20, 80):
        counts.update(isinstance=0, utterances=0)
        assert run_scenario(loads(chain_scenario(n), f"chain{n}")).verdict == "coherent"
        per_utterance[n] = counts["isinstance"] / counts["utterances"]
    assert per_utterance[20] == per_utterance[80], per_utterance  # 2.0 each


def _traced_from_every_intention(run, cid: str, before: dict) -> dict:
    """The plans that a read of every author intention at the root traces."""
    out = dict(before)
    root = run.kb.store_at(())
    for f in root.by_functor.get(("Att", "I", run.scenario.author), ()):
        if isinstance(f.body, Doing) and f in root.fact_set:
            out.setdefault(f.body.plan, cid)
    return out


EARLY_INTENTION = """agents A I
context [] {
  hard (-> (mood) (and (I A (R (plan y))) (I A (R (plan x)))))
}
utterance u0 assertion (fine day)
utterance u1 imperative (R (plan x))
expect coherent
"""


@pytest.mark.parametrize("steps", [1000, 50])
def test_intentions_are_traced_as_a_read_of_every_intention_would(monkeypatch, steps):
    # the same plans, constituents and order after every utterance
    compared = []
    real_trace = runner._trace_intentions

    def trace(run, cid):
        want = _traced_from_every_intention(run, cid, run.provenance)
        real_trace(run, cid)
        assert list(run.provenance.items()) == list(want.items())
        compared.append(len(want))

    monkeypatch.setattr(runner, "_trace_intentions", trace)
    sources = [load(scenario_path(name)) for name in CORPUS]
    sources.append(load(str(Path(__file__).parent / "data" / "context_defaults.scn")))
    sources += [loads(chain_scenario(n), f"chain{n}") for n in (3, 8, 20)]
    # an intention that is an atom of a hard rule before an order makes it a fact
    sources.append(loads(EARLY_INTENTION, "early_intention"))
    for scn in sources:
        assert run_scenario(scn, max_steps=steps).ok, scn.name
    assert compared and max(compared) >= 3


def test_abduction_compares_no_formulas_however_long_the_chain(monkeypatch):
    # the goal reconstruction's pool holds each constituent's content and
    # each site's update; a pooled binding is looked up in a set built once
    # per call, not compared with each pooled formula in turn
    counts = {"eq": 0}
    inside = []
    real_abduce = runner.abduce

    def abduce(*args, **kw):
        inside.append(True)
        try:
            return real_abduce(*args, **kw)
        finally:
            inside.pop()

    def counted_eq(real):
        def eq(self, other):
            counts["eq"] += bool(inside)
            return real(self, other)
        return eq

    monkeypatch.setattr(runner, "abduce", abduce)
    for cls in Formula.__subclasses__():
        monkeypatch.setattr(cls, "__eq__", counted_eq(cls.__eq__))
    per_run = {}
    for n in (20, 80):
        counts.update(eq=0)
        assert run_scenario(loads(chain_scenario(n), f"chain{n}")).verdict == "coherent"
        per_run[n] = counts["eq"]
    assert per_run == {20: 0, 80: 0}, per_run


def _blocked_notes(report) -> list[str]:
    return [line for line in report.trace.lines() if line.endswith("blocked, consequent conflicts with the store")]


@pytest.mark.parametrize("n", range(3, 13))
def test_a_chain_notes_each_block_once(n):
    # each pair's Narration instance is blocked by its Result; once blocked,
    # it is settled for every later round and closure along the lineage
    notes = _blocked_notes(run_scenario(loads(chain_scenario(n), f"chain{n}")))
    assert notes and len(notes) == len(set(notes))


@pytest.mark.parametrize("steps", [1000, 50])
def test_the_corpus_notes_each_block_once(steps):
    for name in CORPUS:
        notes = _blocked_notes(run_scenario(load(scenario_path(name)), max_steps=steps))
        assert len(notes) == len(set(notes)), name


def test_a_long_chain_notes_one_block_per_pair():
    assert len(_blocked_notes(run_scenario(loads(chain_scenario(40), "chain40")))) == 39


def test_entailment_checks_grow_linearly_with_the_chain(monkeypatch):
    # no round checks again an earlier pair's blocked instance, so the
    # `holds` calls grow with the pairs, not with pairs times closures
    calls = {}
    real_holds = engine.holds

    def holds(*args, **kw):
        calls[n] += 1
        return real_holds(*args, **kw)

    monkeypatch.setattr(engine, "holds", holds)
    for n in (80, 160):
        calls[n] = 0
        assert run_scenario(loads(chain_scenario(n), f"chain{n}")).verdict == "coherent"
    assert calls[160] <= 2.2 * calls[80], calls
