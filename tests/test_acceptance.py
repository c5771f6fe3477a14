"""Acceptance gate: one test per shipped guarantee.

Each test re-runs its scenario fresh (so the timing bounds measure a real
end-to-end interpretation) and asserts the qualitative outcome plus the
pinned budget.  `pytest -v tests/test_acceptance.py` prints one pass/fail
line per guarantee.
"""

import random
import time

import reference
from conftest import scenario_path

from dicekit import satcore
from dicekit.axioms import isupport_atom, standard_axioms
from dicekit.engine import DefaultRule, Trace, defeasible_closure, nonmon_yields
from dicekit.formulas import (
    Action,
    And,
    Atom,
    Att,
    Doing,
    Done,
    Implies,
    Not,
    Or,
    Plan,
    RelAtom,
    parse_formula,
    print_formula,
)
from dicekit.kb import KnowledgeBase
from dicekit.runner import run_scenario
from dicekit.scenario import load

RUN_BUDGET = 1.0  # seconds per scenario interpretation
CLOSURE_BUDGET = 30.0  # seconds for the whole randomized closure audit


def _run(name):
    report = run_scenario(load(scenario_path(name)))
    assert report.ok, "\n".join(e.line() for e in report.expectations)
    assert report.elapsed < RUN_BUDGET, f"{name} took {report.elapsed:.3f}s"
    return report


def _kb(facts, hard=()):
    kb = KnowledgeBase()
    for f in facts:
        kb = kb.assert_fact((), f)
    for h in hard:
        kb = kb.add_hard_rule((), h)
    return kb


# --------------------------------------------------------------- discourses


def test_textual_order_support_attaches_result():
    report = _run("bush_context1")
    assert report.verdict == "coherent"
    assert [a.rel for a in report.sdrs.attachments] == [RelAtom("Result", ("alpha", "beta"))]
    assert report.kb.entails((), parse_formula("(bad hb1711)"))
    assert not report.kb.entails((), RelAtom("Narration", ("alpha", "beta")))


def test_reversed_order_support_attaches_evidence():
    report = _run("bush_context2")
    assert [a.rel for a in report.sdrs.attachments] == [RelAtom("Evidence", ("beta", "alpha"))]
    assert report.kb.entails((), parse_formula("(bad hb1711)"))
    assert report.kb.entails((), isupport_atom("beta", "alpha"))
    assert not report.kb.entails((), isupport_atom("alpha", "beta"))


def test_causal_knowledge_yields_result_then_goal_reconstruction():
    report = _run("bush_context3")
    (attachment,) = report.sdrs.attachments
    assert attachment.rel == RelAtom("Result", ("alpha", "beta"))
    assert parse_formula("(cause alpha beta)") in attachment.justification
    lines = report.trace.lines()
    assert any("DMP Charity" in line for line in lines)
    assert any("Abduction PracticalSyllogism" in line for line in lines)
    assert report.kb.entails((), parse_formula("(W A (B I (veto bush hb1711)))"))
    assert report.kb.entails((), parse_formula("(B A (not (B I (veto bush hb1711))))"))


def test_weak_willed_discourse_contraposes_cooperation():
    report = _run("weak_willed")
    assert report.verdict == "incoherent"
    assert any("contraposing Cooperation" in d for d in report.diagnostics)
    assert any("Isupport(alpha,beta)" in d for d in report.diagnostics)
    assert report.kb.entails((), Not(isupport_atom("alpha", "beta")))


def test_imperative_discourse_composes_intended_plans():
    report = _run("hardware_store")
    two_step = "(I A (R (plan go-home get-nails)))"
    three_step = "(I A (R (plan go-home get-nails finish-bookshelves)))"
    lines = report.trace.lines()
    extended = next(i for i, l in enumerate(lines) if l.endswith(f"=> {two_step}"))
    third_utterance = next(i for i, l in enumerate(lines) if l.startswith("utterance gamma"))
    assert extended < third_utterance, "two-step plan must be intended before the third utterance"
    assert report.kb.entails((), parse_formula(two_step))
    assert report.kb.entails((), parse_formula(three_step))
    assert sum("plan anaphor resolved" in l for l in lines) == 1


# ----------------------------------------------------------------- intention


def test_intention_update_drops_prefix_and_is_cumulative():
    a, b, c = Action("a"), Action("b"), Action("c")
    state = reference.update_intentions(reference.IntentionState("A", Plan((a, b, c))), (a, b))
    assert state.intention_formula() == Att("I", "A", Doing(Plan((c,))))
    assert state.dropped_formula() == Not(Att("I", "A", Doing(Plan((a, b)))))
    # the engine's progress schema makes the same update
    kb = _kb((Att("I", "A", Doing(Plan((a, b, c)))), Done(Plan((a, b)))))
    closed = defeasible_closure(kb, (standard_axioms()["IntentionUpdate"],)).kb
    assert set(closed.facts_at(())) - set(kb.facts_at(())) == {state.intention_formula(), state.dropped_formula()}

    rng = random.Random(640)
    pool = tuple(Action(n) for n in ("wash", "sand", "paint", "rest"))
    for _ in range(100):
        steps = tuple(rng.choice(pool) for _ in range(rng.randint(1, 6)))
        done = rng.randint(0, len(steps))
        split = rng.randint(0, done)
        fresh = reference.IntentionState("A", Plan(steps))
        stepwise = reference.update_intentions(
            reference.update_intentions(fresh, steps[:split]), steps[split:done]
        )
        assert stepwise == reference.update_intentions(fresh, steps[:done])
        rest = steps[done:]
        assert stepwise.intended() == (Plan(rest) if rest else None)


# ------------------------------------------------------------------- closure


def _conflict_motif(rng, names, tag):
    """A default and a conflicting twin, as `perfbench`'s rulesys shapes draw
    them, with the twin's triggers: a Penguin twin has a strictly stronger
    antecedent (a conjunction, or an atom that a hard rule makes imply the
    base antecedent), and a Nixon twin an incomparable one.  Returns the
    rules, the hard rules and the triggers."""
    a, b, c = (Atom(n) for n in rng.sample(names, 3))
    concl = c if rng.random() < 0.5 else Not(c)
    base = DefaultRule(f"{tag}a", (a,), concl)
    hard, twin_ants, triggers = [], (b,), [a, b]
    if rng.random() < 0.5:  # Penguin
        if rng.random() < 0.5:
            hard, triggers = [Implies(b, a)], [b]
        else:
            twin_ants = (a, b)
    twin = DefaultRule(f"{tag}b", twin_ants, Not(c) if concl == c else c)
    return [base, twin], hard, triggers


def _random_ground_kb(rng):
    names = tuple(f"p{i}" for i in range(rng.randint(2, 8)))
    facts = []
    for _ in range(rng.randint(0, 2)):
        facts.append(reference.random_literal(rng, names))
    hard = []
    if rng.random() < 0.5:
        hard.append(
            Implies(reference.random_literal(rng, names), reference.random_literal(rng, names))
        )
    motifs = []
    if rng.random() < 0.5:  # arbitration: one or two defaults with conflicting twins
        names = names + tuple(f"p{i}" for i in range(len(names), 3))
        for k in range(rng.randint(1, 2)):
            rules, motif_hard, triggers = _conflict_motif(rng, names, f"M{k}")
            motifs += rules
            hard += motif_hard
            facts += triggers
    facts = list(dict.fromkeys(facts))
    rules = []
    for i in range(rng.randint(1, 6)):
        compound = rng.random() < 0.3  # an `or`, unanchored: it binds nothing, and holds by entailment
        ants = [reference.random_literal(rng, names) for _ in range(rng.randint(0 if compound else 1, 2))]
        if compound:
            ants.insert(rng.randint(0, len(ants)), Or(tuple(reference.random_literal(rng, names) for _ in "ab")))
        consequent = reference.random_literal(rng, names)
        if rng.random() < 0.25:
            consequent = And((consequent, reference.random_literal(rng, names)))
        rules.append(
            DefaultRule(
                name=f"R{i}",
                antecedent=tuple(dict.fromkeys(ants)),
                consequent=consequent,
                hard=rng.random() < 0.2,
            )
        )
    return names, facts, hard, tuple(rules + motifs)


def test_closure_matches_brute_force_reference_within_budget():
    t0 = time.perf_counter()

    # a lone default fires by defeasible modus ponens
    bird, penguin, fly = Atom("bird"), Atom("penguin"), Atom("fly")
    r_bird = DefaultRule("Bird", (bird,), fly)
    r_penguin = DefaultRule("Penguin", (penguin,), Not(fly))
    closed = defeasible_closure(_kb([bird]), (r_bird,), ())
    assert closed.kb.entails((), fly)
    assert [s.mode for s in closed.steps] == ["DMP"]

    # the more specific of two conflicting defaults wins
    closed = defeasible_closure(_kb([penguin], [Implies(penguin, bird)]), (r_bird, r_penguin), ())
    assert closed.kb.entails((), Not(fly))
    assert not closed.kb.entails((), fly)
    assert [s.mode for s in closed.steps] == ["Penguin"]

    # incomparable conflicting defaults stand off: neither conclusion sticks
    quaker, republican, pacifist = Atom("quaker"), Atom("republican"), Atom("pacifist")
    closed = defeasible_closure(
        _kb([quaker, republican]),
        (DefaultRule("Dove", (quaker,), pacifist), DefaultRule("Hawk", (republican,), Not(pacifist))),
        (),
    )
    assert not closed.steps
    assert not closed.kb.entails((), pacifist)
    assert not closed.kb.entails((), Not(pacifist))

    # randomized audit: closure facts, the two-closure yields test, and
    # insensitivity to rule order all track the brute-force reference
    rng = random.Random(731)
    trace = Trace()
    for _ in range(200):
        names, facts, hard, rules = _random_ground_kb(rng)
        kb = _kb(facts, hard)
        closed = defeasible_closure(kb, rules, (), trace=trace)
        got = {print_formula(f) for f in closed.kb.facts_at(())}
        want = {print_formula(f) for f in reference.ref_closure(facts, hard, rules)}
        assert got == want
        phi = reference.random_literal(rng, names)
        psi = reference.random_literal(rng, names)
        assert nonmon_yields(kb, rules, (), phi, psi) == reference.ref_nonmon_yields(
            facts, hard, rules, phi, psi
        )
        for _ in range(20):
            shuffled = tuple(rng.sample(rules, len(rules)))
            reclosed = defeasible_closure(kb, shuffled, ())
            assert {print_formula(f) for f in reclosed.kb.facts_at(())} == got

    # the audit reaches arbitration: specificity and scepticism are checked too
    lines = trace.lines()
    assert sum(s.mode == "Penguin" for s in trace.steps()) >= 10
    assert sum(" defeated by more specific " in line for line in lines) >= 10
    assert sum("sceptical stand-off" in line for line in lines) >= 10
    assert time.perf_counter() - t0 < CLOSURE_BUDGET


# ----------------------------------------------------------------------- SAT


def test_sat_queries_match_exhaustive_enumeration(corpus_reports):
    # every store of every interpreted corpus scenario
    for report in corpus_reports.values():
        for path, store in report.kb.walk():
            formulas = store.formulas()
            assert report.kb.consistent_with(path) == reference.satisfiable_pinned(formulas)
            probes = list(formulas[:3]) + [Not(f) for f in store.facts[:2]]
            for probe in probes:
                assert report.kb.entails(path, probe) == reference.entails_pinned(
                    formulas, probe
                )

    # random stores over at most 12 atoms
    rng = random.Random(90125)
    for _ in range(500):
        names = tuple(f"a{i}" for i in range(rng.randint(1, 12)))
        formulas = [reference.random_formula(rng, names, 3) for _ in range(rng.randint(1, 6))]
        probe = reference.random_formula(rng, names, 3)
        assert satcore.satisfiable(formulas) == reference.satisfiable(formulas)
        assert satcore.satisfiable(formulas, negated=probe) != reference.entails(formulas, probe)
