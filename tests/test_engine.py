"""Defeasible closure, specificity arbitration, lazy yields, abduction."""

from __future__ import annotations

import builtins
import collections
import gc
import itertools
import random
import sys
import weakref
from dataclasses import replace

import pytest

import reference
from dicekit import engine, satcore
from dicekit.engine import (
    DefaultRule,
    EvalContext,
    Trace,
    abduce,
    defeasible_closure,
    holds,
    make_rule,
    nonmon_yields,
    render_binding,
    rule_instances,
    specificity,
)
from dicekit.errors import SatTooLarge, StepBoundExceeded, ValidationError
from dicekit.formulas import (
    And,
    Att,
    Atom,
    Const,
    Eventually,
    Iff,
    Implies,
    Not,
    Or,
    Yields,
    conj,
    free_variables,
    instantiate,
    metavariables,
    parse_formula,
    print_formula,
    print_pattern,
)
from dicekit.kb import KnowledgeBase, Store


def kb_with(facts=(), hard=()):
    kb = KnowledgeBase()
    for f in facts:
        kb = kb.assert_fact((), parse_formula(f))
    for f in hard:
        kb = kb.add_hard_rule((), parse_formula(f))
    return kb


#: 2,000 facts, of functors that no rule of the padding tests below matches
PAD = tuple(parse_formula(f) for i in range(1000) for f in (f"(pad c{i})", f"(B I (pad c{i}))"))


def _padded(kb: KnowledgeBase) -> KnowledgeBase:
    """The knowledge base with PAD stated at the root before its own facts."""
    root = kb.store_at(())
    return replace(kb, stores={**kb.stores, (): replace(root, facts=PAD + root.facts)})


def _count_engine_calls(monkeypatch, *names) -> collections.Counter:
    """Count, by name, the calls that engine code makes to the named
    functions (a builtin too: the count shadows it in the module)."""
    calls = collections.Counter()
    for name in names:
        real = getattr(engine, name, None) or getattr(builtins, name)

        def counted(*args, _name=name, _real=real, **kw):
            calls[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(engine, name, counted, raising=False)
    return calls


BIRD = make_rule("Bird", ["bird"], "fly")
PENGUIN = make_rule("Penguin", ["penguin"], "(not fly)")


# ----------------------------------------------------------------------- closure


def test_defeasible_modus_ponens():
    res = defeasible_closure(kb_with(["bird"]), (BIRD,))
    assert res.kb.entails((), Atom("fly"))
    assert [s.mode for s in res.steps] == ["DMP"]


def test_penguin_principle_prefers_the_specific_rule():
    kb = kb_with(["penguin"], hard=["(-> penguin bird)"])
    trace = Trace()
    res = defeasible_closure(kb, (BIRD, PENGUIN), trace=trace)
    assert res.kb.entails((), Not(Atom("fly")))
    assert not res.kb.entails((), Atom("fly"))
    assert [s.mode for s in res.steps] == ["Penguin"]
    assert any("defeated by more specific" in line for line in trace.lines())


def test_nixon_diamond_is_sceptical():
    kb = kb_with(["quaker", "republican"])
    rules = (
        make_rule("QuakersArePacifists", ["quaker"], "pacifist"),
        make_rule("RepublicansAreNot", ["republican"], "(not pacifist)"),
    )
    trace = Trace()
    res = defeasible_closure(kb, rules, trace=trace)
    assert not res.kb.entails((), Atom("pacifist"))
    assert not res.kb.entails((), Not(Atom("pacifist")))
    assert res.steps == ()
    assert any("sceptical stand-off" in line for line in trace.lines())


def test_a_three_way_conflict_asks_each_pair_once(monkeypatch):
    # three defaults whose consequents pairwise conflict under hard rules:
    # each unordered pair's joint consistency is asked once in the round,
    # and each stand-off is noted once.  Each consequent alone is decided
    # with its entailment by one `Store.verdict`, not by `consistent_with`
    kb = kb_with(["quaker", "republican", "hawkish"], hard=[
        "(-> pacifist (not warrior))", "(-> pacifist (not neutral))", "(-> warrior (not neutral))"])
    rules = (
        make_rule("QuakersArePacifists", ["quaker"], "pacifist"),
        make_rule("HawksAreWarriors", ["hawkish"], "warrior"),
        make_rule("RepublicansAreNeutral", ["republican"], "neutral"),
    )
    asked = []
    real = KnowledgeBase.consistent_with

    def counting(self, path, extra=()):
        extra = tuple(extra)
        asked.append(tuple(f.key for f in extra))
        return real(self, path, extra)

    monkeypatch.setattr(KnowledgeBase, "consistent_with", counting)
    trace = Trace()
    res = defeasible_closure(kb, rules, trace=trace)
    assert res.steps == ()
    assert asked == [("warrior", "pacifist"), ("warrior", "neutral"), ("pacifist", "neutral")]
    assert trace.lines() == [
        f"closure@root: sceptical stand-off between {a} {{}} and {b} {{}}; neither fires"
        for a, b in (("HawksAreWarriors", "QuakersArePacifists"), ("HawksAreWarriors", "RepublicansAreNeutral"),
                     ("QuakersArePacifists", "RepublicansAreNeutral"))
    ]


def test_hard_rules_fire_unconditionally():
    res = defeasible_closure(kb_with(["p"]), (make_rule("H", ["p"], "q", hard=True),))
    assert res.kb.has_fact((), Atom("q"))
    assert [s.mode for s in res.steps] == ["Hard"]


def test_blocked_default_leaves_the_store_alone():
    kb = kb_with(["p", "(not q)"])
    trace = Trace()
    res = defeasible_closure(kb, (make_rule("R", ["p"], "q"),), trace=trace)
    assert not res.kb.has_fact((), Atom("q"))
    assert any("blocked" in line for line in trace.lines())


def test_intra_round_deferral_then_block():
    # pairwise-consistent consequents that jointly trip a hard rule: the last
    # winner defers within the round and is blocked outright the next round
    kb = kb_with(["p"], hard=["(-> (and q r) (not s))"])
    rules = (
        make_rule("r1", ["p"], "q"),
        make_rule("r2", ["p"], "r"),
        make_rule("r3", ["p"], "s"),
    )
    trace = Trace()
    res = defeasible_closure(kb, rules, trace=trace)
    assert res.kb.entails((), Not(Atom("s")))
    assert not res.kb.has_fact((), Atom("s"))
    assert any("deferred" in line for line in trace.lines())
    assert any("blocked" in line for line in trace.lines())


def test_absent_premises_are_negation_as_absence():
    rule = make_rule("R", ["p"], "q", absent=("blocker",))
    trace = Trace()
    res = defeasible_closure(kb_with(["p"]), (rule,), trace=trace)
    assert res.kb.has_fact((), Atom("q"))
    assert any("negation as absence" in line for line in trace.lines())
    held_back = defeasible_closure(kb_with(["p", "blocker"]), (rule,))
    assert not held_back.kb.has_fact((), Atom("q"))


def test_root_scoped_rules_skip_nested_paths():
    kb = KnowledgeBase().assert_fact(("A",), Atom("bird")).assert_fact((), Atom("bird"))
    res = defeasible_closure(kb, (BIRD,), ("A",))
    assert not res.kb.has_fact(("A",), Atom("fly"))
    # a rule scoped to a path runs in the closures there and nowhere else
    at_a = make_rule("Bird", ["bird"], "fly", scope=("A",))
    assert defeasible_closure(kb, (at_a,), ("A",)).kb.has_fact(("A",), Atom("fly"))
    assert not defeasible_closure(kb, (at_a,), ()).kb.has_fact((), Atom("fly"))


def test_everywhere_scoped_rules_run_at_nested_paths():
    kb = KnowledgeBase().assert_fact(("A",), Atom("bird"))
    rule = make_rule("Bird", ["bird"], "fly", scope="everywhere")
    res = defeasible_closure(kb, (rule,), ("A",))
    assert res.kb.has_fact(("A",), Atom("fly"))


def test_chain_needs_a_quiet_round_to_certify_fixpoint():
    kb = kb_with(["p"])
    rules = (make_rule("r1", ["p"], "q"), make_rule("r2", ["q"], "r"))
    res = defeasible_closure(kb, rules, max_steps=3)
    assert res.kb.has_fact((), Atom("r"))
    # the step bound is part of the memo key, and a failure is never recorded
    for _ in range(2):
        with pytest.raises(StepBoundExceeded):
            defeasible_closure(kb, rules, max_steps=2)
    assert defeasible_closure(kb, rules, max_steps=3).kb is res.kb


def test_a_rule_whose_only_matching_fact_fires_late_still_fires():
    # (s a) is fired in round 3, and Late matches it alone.  Through's one
    # instance is bound from the hard rule's atom (w a) in round 1 and
    # carried since; it holds only once (s a) does.
    kb = kb_with(["(p a)"], hard=["(-> (s a) (w a))"])
    rules = (
        make_rule("A", ["(p ?x)"], "(q ?x)"),
        make_rule("B", ["(q ?x)"], "(r ?x)"),
        make_rule("C", ["(r ?x)"], "(s ?x)"),
        make_rule("Late", ["(s ?x)"], "(t ?x)"),
        make_rule("Through", ["(w ?x)"], "(v ?x)"),
    )
    res = defeasible_closure(kb, rules, max_steps=5)
    assert [(s.rule, print_formula(s.added[0])) for s in res.steps] == [
        ("A", "(q a)"), ("B", "(r a)"), ("C", "(s a)"), ("Late", "(t a)"), ("Through", "(v a)"),
    ]
    with pytest.raises(StepBoundExceeded):  # round 4 fires, round 5 certifies the fixpoint
        defeasible_closure(kb, rules, max_steps=4)


def test_a_compound_conjunct_whose_variables_nothing_else_binds_is_rejected():
    # an `or` can hold with no atom of the store, so it binds nothing, and a
    # rule whose only conjunct it is could never be grounded
    with pytest.raises(ValidationError) as err:
        make_rule("Either", ["(or (p ?x) (q ?x))"], "(r ?x)")
    assert "Either" in str(err.value) and "(or (p ?x) (q ?x))" in str(err.value)
    with pytest.raises(ValidationError, match=r"leaves \?y unbound"):
        make_rule("Half", ["(p ?x)", "(or (q ?x) (q ?y))"], "(r ?x)")
    # site and relation arguments print with their ?, as atom arguments do
    with pytest.raises(ValidationError) as err:
        make_rule("Rel", ["(or (rel Result ?x ?y) (site t ?x ?y))"], "(q ?x)")
    assert "conjunct (or (rel Result ?x ?y) (site t ?x ?y)) leaves ?x, ?y unbound" in str(err.value)
    # a formula metavariable of no shape can stand for a compound formula
    with pytest.raises(ValidationError):
        make_rule("Bare", ["?phi"], "(B I ?phi)")
    assert make_rule("Bound", ["(W A ?phi)", "?phi"], "(B I ?phi)").name == "Bound"


def test_a_rule_with_an_empty_antecedent_is_rejected():
    # with no conjunct to compare, specificity would count it as true
    with pytest.raises(ValidationError, match="rule Always has an empty antecedent"):
        DefaultRule("Always", (), Atom("fly"))
    with pytest.raises(ValidationError, match="Never"):
        make_rule("Never", [], "(not fly)")


def test_rules_that_share_a_name_are_kept_apart():
    # one R is blocked by (not q), and the other R fires, in either order;
    # each order closes a store of its own, since a store's carry keeps the
    # block settled for every later closure of it
    to_q, to_s = make_rule("R", ["p"], "q"), make_rule("R", ["p"], "s")
    lines = []
    for rules in ((to_q, to_s), (to_s, to_q)):
        trace = Trace()
        res = defeasible_closure(kb_with(["p", "(not q)"]), rules, trace=trace)
        assert res.kb.has_fact((), Atom("s")) and not res.kb.entails((), Atom("q"))
        lines.append(trace.lines())
    blocked = "closure@root: R {} blocked, consequent conflicts with the store"
    # the blocked R is settled, so the round after the firing checks it no more
    assert lines[0] == lines[1] == [blocked, "step 1 DMP R {} => s"]


def test_a_block_found_in_the_first_round_is_settled_for_the_stores_other_descendants():
    # a yields test closes a store and then the store plus phi, which starts
    # from the carry that the store kept after the first round
    kb = kb_with(["p", "(not q)"])
    rules = (make_rule("Q", ["p"], "q"), make_rule("S", ["p"], "s"))
    first, then = Trace(), Trace()
    defeasible_closure(kb, rules, trace=first)
    defeasible_closure(kb.assert_fact((), Atom("t")), rules, trace=then)
    blocked = "closure@root: Q {} blocked, consequent conflicts with the store"
    assert first.lines() == [blocked, "step 1 DMP S {} => s"]
    assert then.lines() == ["step 1 DMP S {} => s"]


def test_rules_that_share_a_name_fire_in_one_order_whatever_the_input_order():
    # both R fire in one round with the same binding, so only the order of
    # the active rules (name, then consequent and antecedents) orders the steps
    kb = kb_with(["p"])
    to_s, to_q = make_rule("R", ["p"], "s"), make_rule("R", ["p"], "q")
    for rules in ((to_s, to_q), (to_q, to_s)):
        res = defeasible_closure(replace(kb), rules + (make_rule("A", ["p"], "a"),))
        assert [s.line() for s in res.steps] == ["step 1 DMP A {} => a", "step 2 DMP R {} => q",
                                                 "step 3 DMP R {} => s"]


def test_rules_that_differ_only_in_hardness_fire_in_one_order_whatever_the_input_order():
    # both instances share name, binding, consequent and antecedents, so
    # only `hard` orders them: the default fires first, and the hard rule
    # then finds its consequent held, in either input order
    soft, hard = make_rule("R", ["p"], "q"), make_rule("R", ["p"], "q", hard=True)
    lines = []
    for rules in ((soft, hard), (hard, soft)):
        trace = Trace()
        defeasible_closure(kb_with(["p"]), rules, trace=trace)
        lines.append(trace.lines())
    assert lines[0] == lines[1] == ["step 1 DMP R {} => q"]


def test_closing_under_the_same_rules_in_another_order_is_a_memo_hit(monkeypatch):
    # the memo is keyed by the set of active rules, so no order of them,
    # not even of two that differ only in `hard`, closes the store again
    calls = _count_engine_calls(monkeypatch, "_fixpoint")
    kb = kb_with(["p"])
    rules = (make_rule("R", ["p"], "q"), make_rule("R", ["p"], "q", hard=True), make_rule("A", ["p"], "a"))
    first = defeasible_closure(kb, rules)
    again = defeasible_closure(kb, rules[::-1])
    assert calls["_fixpoint"] == 1
    assert again.kb is first.kb and [s.line() for s in again.steps] == [s.line() for s in first.steps]


def test_closure_memo_keeps_rules_step_bounds_and_paths_apart():
    kb = KnowledgeBase().assert_fact((), Atom("p")).assert_fact(("A",), Atom("p"))
    to_q = make_rule("R", ["p"], "q", scope="everywhere")
    to_r = make_rule("R", ["p"], "r", scope="everywhere")  # same name, other consequent
    by_q = defeasible_closure(kb, (to_q,)).kb
    by_r = defeasible_closure(kb, (to_r,)).kb
    assert by_q.has_fact((), Atom("q")) and not by_q.has_fact((), Atom("r"))
    assert by_r.has_fact((), Atom("r")) and not by_r.has_fact((), Atom("q"))
    # one round fires, the next certifies the fixpoint
    with pytest.raises(StepBoundExceeded):
        defeasible_closure(kb, (to_q,), max_steps=1)
    assert defeasible_closure(kb, (to_q,), max_steps=2).kb.has_fact((), Atom("q"))
    nested = defeasible_closure(kb, (to_q,), ("A",)).kb
    assert nested.has_fact(("A",), Atom("q"))
    assert not nested.has_fact((), Atom("q"))  # the mirror surfaces (B A q) only
    assert len(kb._closures) == 4


def test_a_repeated_closure_replays_its_trace():
    kb = kb_with(["p"], hard=["(-> (and q r) (not s))"])
    rules = (
        make_rule("r1", ["p"], "q"),
        make_rule("r2", ["p"], "r"),
        make_rule("r3", ["p"], "s"),
    )


    def started() -> Trace:
        trace = Trace()
        trace.note("before")
        trace.step("DMP", "earlier", {}, (Atom("p"),))
        return trace

    miss_trace, hit_trace = started(), started()
    miss = defeasible_closure(kb, rules, trace=miss_trace)
    hit = defeasible_closure(kb, rules, trace=hit_trace)
    assert hit.kb is miss.kb
    assert hit_trace.lines() == miss_trace.lines()
    assert any("deferred" in line for line in hit_trace.lines())
    # steps are numbered on from the caller's trace
    assert [s.index for s in hit.steps] == [2, 3]
    assert hit.steps == miss.steps == hit_trace.steps()[1:]
    alone = defeasible_closure(kb, rules)
    assert [s.index for s in alone.steps] == [1, 2]


def test_a_closure_that_fires_nothing_leaves_no_reference_cycle():
    kb = kb_with(["p"])
    assert defeasible_closure(kb, (BIRD,)).kb is kb
    assert defeasible_closure(kb, (BIRD,)).kb is kb
    alive = weakref.ref(kb)
    gc.disable()
    try:
        del kb
        assert alive() is None  # freed by reference counting, not by the cycle collector
    finally:
        gc.enable()


def test_closure_is_order_invariant():
    kb = kb_with(["penguin", "quaker", "republican"], hard=["(-> penguin bird)"])
    rules = [
        BIRD,
        PENGUIN,
        make_rule("QuakersArePacifists", ["quaker"], "pacifist"),
        make_rule("RepublicansAreNot", ["republican"], "(not pacifist)"),
        make_rule("FlightlessSwim", ["(not fly)"], "swim"),
    ]
    want = {print_formula(f) for f in defeasible_closure(kb, rules).kb.facts_at(())}
    rng = random.Random(7)
    for _ in range(10):
        rng.shuffle(rules)
        # a fresh knowledge base each time, so that its closure memo cannot answer
        fresh = replace(kb)
        assert fresh == kb and fresh is not kb
        got = {print_formula(f) for f in defeasible_closure(fresh, rules).kb.facts_at(())}
        assert got == want


def test_closure_matches_reference_on_penguin_kb():
    kb = kb_with(["penguin"], hard=["(-> penguin bird)"])
    res = defeasible_closure(kb, (BIRD, PENGUIN))
    ref = reference.ref_closure(
        [Atom("penguin")],
        [parse_formula("(-> penguin bird)")],
        [
            reference.RefRule("Bird", (Atom("bird"),), Atom("fly")),
            reference.RefRule("Penguin", (Atom("penguin"),), Not(Atom("fly"))),
        ],
    )
    assert {print_formula(f) for f in res.kb.facts_at(())} == {print_formula(f) for f in ref}


def _random_open_rule_system(rng):
    """Facts and hard rules over a few constants, and rules with variables.

    p, q and rel are stated by facts and by hard rules, and the rules conclude
    p and q; h, k and site occur only in hard rules, so a conjunct over them
    matches no stored fact and holds, if at all, through a hard rule.  A
    conjunct over p, q or rel can hold through a hard rule for one grounding
    while a fact fits another.  The slots are the site and rel conjuncts,
    the terms those over p, q, h and k, and half the rules share a variable
    between the two kinds.  The store states random groundings of
    the rules' own conjuncts, some of them negated, so that conjuncts often
    hold.  The constants the groundings draw on are returned with them."""
    consts = ("a", "b", "c")[: rng.randint(2, 3)]
    terms = ["(p ?x)", "(q ?x)", "(p ?y)", "(h ?x)", "(h ?y)", "(k ?x ?y)", "(k ?y ?x)", "(not (h ?x))"]
    slots = ["(rel R ?x ?y)", "(rel R ?y ?x)", "(site ?x ?y ?x)", "(site ?y ?x ?y)", "(not (site ?x ?y ?x))"]
    others = ["(not (p ?y))", "(not (k ?x ?y))"]
    rules = []
    stated = []
    for i in range(rng.randint(1, 4)):
        if rng.random() < 0.5:
            ants = (rng.choice(terms), rng.choice(slots))[:: rng.choice((1, -1))]
        else:
            pool = terms + slots + others
            ants = tuple(dict.fromkeys(rng.choice(pool) for _ in range(rng.randint(1, 2))))
        var = rng.choice(sorted({v for a in ants for v in ("x", "y") if f"?{v}" in a}))
        cons = f"({rng.choice('pq')} ?{var})"
        if rng.random() < 0.3:
            cons = f"(not {cons})"
        rules.append(make_rule(f"R{i}", ants, cons, hard=rng.random() < 0.2))
        x, y = rng.choice(consts), rng.choice(consts)
        stated += [a.replace("?x", x).replace("?y", y) for a in ants if rng.random() < 0.6]
    facts = ["seed"] if rng.random() < 0.8 else []
    hard = []
    for lit in stated:
        if rng.random() < 0.2:
            lit = lit[5:-1] if lit.startswith("(not ") else f"(not {lit})"
        if lit.removeprefix("(not ")[1:].startswith(("h ", "k ", "site ")) or rng.random() < 0.3:
            premise = "seed" if rng.random() < 0.7 else rng.choice(stated)
            hard.append(f"(-> {premise} {lit})")
        else:
            facts.append(lit)
    return kb_with(facts, hard), tuple(rules), consts


def _ground_on_constants(rules, constants):
    """Every instance of the rules over the constants, named so that name
    order is the closure's firing order (rule name, then binding)."""
    out = []
    for rule in rules:
        names = sorted(set().union(*(free_variables(a) | metavariables(a) for a in rule.antecedent)))
        for values in itertools.product(sorted(constants), repeat=len(names)):
            b = {n: Const(v) for n, v in zip(names, values)}
            out.append(
                reference.RefRule(
                    rule.name + render_binding(b),
                    tuple(instantiate(a, b) for a in rule.antecedent),
                    instantiate(rule.consequent, b),
                    hard=rule.hard,
                )
            )
    return out


def test_closure_of_open_rules_matches_reference_over_full_grounding():
    rng = random.Random(1986)
    for _ in range(100):
        kb, rules, consts = _random_open_rule_system(rng)
        store = kb.store_at(())
        got = defeasible_closure(kb, rules).kb.facts_at(())
        want = reference.ref_closure(
            store.facts, store.hard_rules, _ground_on_constants(rules, consts)
        )
        assert {print_formula(f) for f in got} == {print_formula(f) for f in want}


_COMPOUNDS = (
    "(or {ant} (h ?{0}))",
    "(or (p ?{0}) (not (p ?{0})))",
    "(or (p ?{0}) (q ?{1}))",
    "(and (q ?{0}) (not (h ?{1})))",
    "(-> (h ?{0}) (p ?{1}))",
    "(not (and (p ?{0}) (k ?{0} ?{1})))",
)


def test_closure_of_rules_with_compound_conjuncts_matches_reference():
    # each rule of a random open rule system gains, at a random position, a
    # compound conjunct over variables its other conjuncts bind; some hold
    # whenever the rule's other conjuncts do ({ant} is one of them)
    rng = random.Random(1988)
    for _ in range(200):
        kb, rules, consts = _random_open_rule_system(rng)
        widened = []
        for rule in rules:
            names = sorted(set().union(*(a.variables for a in rule.antecedent)))
            ant = print_pattern(rng.choice(rule.antecedent))
            compound = rng.choice(_COMPOUNDS).format(rng.choice(names), rng.choice(names), ant=ant)
            ants = list(rule.antecedent)
            ants.insert(rng.randint(0, len(ants)), parse_formula(compound))
            widened.append(replace(rule, antecedent=tuple(ants)))
        store = kb.store_at(())
        got = defeasible_closure(kb, widened).kb.facts_at(())
        want = reference.ref_closure(
            store.facts, store.hard_rules, _ground_on_constants(widened, consts)
        )
        assert {print_formula(f) for f in got} == {print_formula(f) for f in want}


def _rebuilt(kb: KnowledgeBase) -> KnowledgeBase:
    """An equal knowledge base whose stores are new `Store` objects, with
    nothing built and an empty carry (`dataclasses.replace` would share the
    stores, and so their carries)."""
    return KnowledgeBase(
        stores={p: Store(s.facts, s.hard_rules) for p, s in kb.stores.items()},
        max_depth=kb.max_depth,
        root_consistency_paths=kb.root_consistency_paths,
    )


def _closed_state(kb: KnowledgeBase, rules) -> tuple:
    trace = Trace()
    out = defeasible_closure(kb, rules, trace=trace).kb
    stores = {p: ([print_formula(f) for f in s.facts], [print_formula(f) for f in s.hard_rules]) for p, s in out.walk()}
    return out, stores, trace.lines()


def test_closing_along_a_lineage_matches_closing_afresh(monkeypatch):
    # random open rule systems under random asserted facts, hard rules and
    # retractions (mostly of derived facts), closed between steps under random
    # subsets of the rules: each closure along the lineage, which starts from
    # the carry its ancestors left, writes the same stores and trace as the
    # closure of an equal knowledge base built afresh, and leaves for each
    # rule it ran the instances, settled or not, that a fresh binding finds.
    # Along the lineages, rules that cannot bind are left asleep or return
    # before they bind (see `_count_skips`)
    skips = _count_skips(monkeypatch)
    asleep = unbound = 0
    rng = random.Random(1982)
    retracted = hardened = 0
    for _ in range(60):
        kb, rules, consts = _random_open_rule_system(rng)
        patterns = [print_pattern(p) for r in rules for p in r.antecedent + (r.consequent,)]

        def grounding() -> str:
            return rng.choice(patterns).replace("?x", rng.choice(consts)).replace("?y", rng.choice(consts))

        derived: list = []
        for _ in range(rng.randint(3, 6)):
            lit = grounding()
            move = rng.random()
            if move < 0.35:
                kb = kb.assert_fact((), parse_formula(lit))
            elif move < 0.7:
                premise = "seed" if rng.random() < 0.6 else grounding()
                kb = kb.add_hard_rule((), parse_formula(f"(-> {premise} {lit})"))
                hardened += 1
            elif kb.facts_at(()):
                kb = kb.retract_fact((), rng.choice(derived or list(kb.facts_at(()))))
                retracted += 1
            active = tuple(r for r in rules if rng.random() < 0.7) or rules
            before = skips.copy()
            closed, stores, lines = _closed_state(kb, active)
            asleep += skips["advance"] - before["advance"]
            unbound += skips["rule_instances"] - before["rule_instances"]
            assert (stores, lines) == _closed_state(_rebuilt(kb), active)[1:]
            carry = closed.store_at(()).carry
            for rule in active:
                left = carry[id(rule)]
                assert {i.key for i in left.live} | left.settled == {
                    i.key for i in rule_instances(rule, _rebuilt(closed), ())}
            derived = list(closed.facts_at(())[len(kb.facts_at(())):])
            # go on from the closed knowledge base, or now and then from the unclosed one
            kb = closed if rng.random() < 0.8 else kb
    assert retracted >= 20 and hardened >= 60
    assert asleep >= 10 and unbound >= 40  # 23 and 89


def _count_skips(monkeypatch) -> collections.Counter:
    """Count, by the calling function, the rules that `can_bind` finds
    unable to bind: a rule left asleep by `_Carry.advance`, and a rule
    that joins or wakes and returns from `rule_instances` before it binds."""
    skips = collections.Counter()
    real = engine.can_bind

    def counted(anchored, by_functor):
        ok = real(anchored, by_functor)
        if not ok:
            skips[sys._getframe(1).f_code.co_name] += 1
        return ok

    monkeypatch.setattr(engine, "can_bind", counted)
    return skips


def _settled_blocks(kb: KnowledgeBase, rules) -> collections.Counter:
    """The "blocked" notes of the rules' instances that the carry of kb's
    root store has settled because they were blocked: their consequent is
    inconsistent with the store and not entailed by it."""
    carry = kb.store_at(()).carry or {}
    rebuilt = _rebuilt(kb)
    notes = collections.Counter()
    for rule in rules:
        entry = carry.get(id(rule))
        if entry is None:
            continue
        for inst in rule_instances(rule, rebuilt, ()):
            if (inst.key in entry.settled and not rebuilt.entails((), inst.cons)
                    and not rebuilt.consistent_with((), (inst.cons,))):
                notes[f"closure@root: {rule.name} {inst.key} blocked, consequent conflicts with the store"] += 1
    return notes


def test_closing_along_a_lineage_as_rules_are_appended_matches_closing_afresh(monkeypatch):
    # the rule set grows between closures, as a caller may add rules along a
    # lineage of stores: open rules of another random system and
    # ground instances of them, which may share a name with a rule already
    # there.  Each closure along the lineage adds the rules that join its
    # carry, once each, and extends the anchor index its ancestors left; it
    # writes the same stores as the closure of an equal knowledge base built
    # afresh, and the same trace less the "blocked" notes of the instances
    # that its starting carry had settled as blocked, and leaves each rule it
    # ran the instances that a fresh binding finds.  A sibling closed under
    # rules that the lineage never takes up leaves the lineage's index as it was.
    # Along the lineages, rules that cannot bind are left asleep or return
    # before they bind (see `_count_skips`)
    skips = _count_skips(monkeypatch)
    asleep = unbound = 0
    entered = []
    real_add = engine._Carry.add

    def add(carry, entry):
        entered.append(entry.rule)
        real_add(carry, entry)

    monkeypatch.setattr(engine._Carry, "add", add)
    rng = random.Random(1986)
    appended = strays = resumed = 0
    for _ in range(40):
        kb, rules, consts = _random_open_rule_system(rng)
        patterns = [print_pattern(p) for r in rules for p in r.antecedent + (r.consequent,)]

        def grounding() -> str:
            return rng.choice(patterns).replace("?x", rng.choice(consts)).replace("?y", rng.choice(consts))

        for _ in range(rng.randint(3, 6)):
            lit = grounding()
            if rng.random() < 0.3:
                _closed_state(kb.assert_fact((), parse_formula(grounding())), rules + _random_open_rule_system(rng)[1])
                strays += 1
            if rng.random() < 0.5:
                kb = kb.assert_fact((), parse_formula(lit))
            else:
                kb = kb.add_hard_rule((), parse_formula(f"(-> seed {lit})"))
            extra = _random_open_rule_system(rng)[1]
            for rule in rng.sample(extra, rng.randint(0, len(extra))):
                if rng.random() < 0.5:
                    x, y = rng.choice(consts), rng.choice(consts)

                    def ground(p):
                        return parse_formula(print_pattern(p).replace("?x", x).replace("?y", y))

                    rule = replace(rule, antecedent=tuple(map(ground, rule.antecedent)),
                                   consequent=ground(rule.consequent))
                rules += (rule,)
                appended += 1
            # all the rules so far, or the later ones, as a caller may close
            # under one part of its rules and then another
            active = rules if rng.random() < 0.7 else rules[len(rules) // 2:]
            carried = kb.store_at(()).carry or {}
            joining = sorted(id(r) for r in active if id(r) not in carried)
            blocks = _settled_blocks(kb, active)
            before, skipped = len(entered), skips.copy()
            closed, stores, lines = _closed_state(kb, active)
            asleep += skips["advance"] - skipped["advance"]
            unbound += skips["rule_instances"] - skipped["rule_instances"]
            assert sorted(map(id, entered[before:])) == joining
            fresh_stores, fresh_lines = _closed_state(_rebuilt(kb), active)[1:]
            assert stores == fresh_stores
            remaining = iter(fresh_lines)
            assert all(line in remaining for line in lines)  # in order
            assert collections.Counter(fresh_lines) - collections.Counter(lines) == blocks
            resumed += bool(blocks)
            carry = closed.store_at(()).carry
            for rule in active:
                left = carry[id(rule)]
                assert {i.key for i in left.live} | left.settled == {
                    i.key for i in rule_instances(rule, _rebuilt(closed), ())}
            # go on from the closed knowledge base, or now and then from the unclosed one
            kb = closed if rng.random() < 0.8 else kb
    assert appended >= 200 and strays >= 40 and resumed >= 5
    assert asleep >= 10 and unbound >= 50  # 27 and 104


def test_a_settled_instance_fires_again_once_its_consequent_is_retracted():
    kb = kb_with(["p"])
    rule = make_rule("R", ["p"], "q")
    closed = defeasible_closure(kb, (rule,)).kb
    assert closed.has_fact((), Atom("q"))
    # the closed store's carry settles R {}; the store without q starts afresh
    res = defeasible_closure(closed.retract_fact((), Atom("q")), (rule,))
    assert [(s.rule, print_formula(s.added[0])) for s in res.steps] == [("R", "q")]


def test_an_instance_wakes_through_the_atoms_of_a_new_hard_rule():
    # (q a) is no atom of the first store, so R has no instance there; the
    # hard rule added after the closure brings (q a), and R's instance with it
    rule = make_rule("R", ["(q a)"], "r")
    closed = defeasible_closure(kb_with(["p"]), (rule,)).kb
    assert not closed.has_fact((), Atom("r"))
    grown = closed.add_hard_rule((), parse_formula("(-> p (q a))"))
    assert defeasible_closure(grown, (rule,)).kb.has_fact((), Atom("r"))


def test_a_rule_whose_conjunct_lacks_an_atom_of_its_functor_binds_nothing_until_one_arrives(monkeypatch):
    # R joins and is touched by (p b) while the store has no q atom, so it
    # binds nothing and stays asleep; (q a c) wakes it, and its semi-naive
    # pass joins the old (p a) with the new (q a c) and nothing else
    rule = make_rule("R", ["(p ?x)", "(q ?x ?y)"], "(r ?y)")
    calls = _count_engine_calls(monkeypatch, "bind")
    closed = defeasible_closure(kb_with(["(p a)"]), (rule,)).kb
    assert calls["bind"] == 0
    grown = closed.assert_fact((), parse_formula("(p b)"))
    closed = defeasible_closure(grown, (rule,)).kb
    carry = closed.store_at(()).carry
    assert calls["bind"] == 0 and carry[id(rule)].since is None and id(rule) not in carry.awake
    grown = closed.assert_fact((), parse_formula("(q a c)"))
    closed, stores, lines = _closed_state(grown, (rule,))
    assert calls["bind"] == 1
    assert lines == ["step 1 DMP R {x=a, y=c} => (r c)"]
    assert (stores, lines) == _closed_state(_rebuilt(grown), (rule,))[1:]
    left = closed.store_at(()).carry[id(rule)]
    assert left.settled == {"{x=a, y=c}"} and left.live == ()


def test_an_idle_closure_returns_its_input_without_copying_the_carry(monkeypatch):
    # the store's carry is current, every rule has joined it and none is
    # awake: the closure returns its input, even under a step bound of 1
    closed = defeasible_closure(kb_with(["bird"]), (BIRD, PENGUIN)).kb
    copies = [0]
    init = engine._Carry.__init__

    def counted(carry, other=None):
        copies[0] += 1
        init(carry, other)

    monkeypatch.setattr(engine._Carry, "__init__", counted)
    again = KnowledgeBase(closed.stores, closed.max_depth, closed.root_consistency_paths)  # an empty memo
    res = defeasible_closure(again, (PENGUIN, BIRD), max_steps=1)
    assert res.kb is again and res.steps == () and copies[0] == 0
    # a rule that has not joined the carry makes the closure run its round
    res = defeasible_closure(again, (BIRD, make_rule("Fly", ["fly"], "flies")), max_steps=2)
    assert res.kb.has_fact((), Atom("flies")) and copies[0] > 0


@pytest.mark.parametrize("bound", [0, -5])
def test_a_step_bound_below_1_is_rejected(bound):
    # an idle closure would otherwise return without taking a round
    kb = kb_with(["bird"])
    closed = defeasible_closure(kb, (BIRD,)).kb
    for k in (kb, closed, KnowledgeBase(closed.stores)):
        with pytest.raises(ValidationError, match=f"step bound must be at least 1, not {bound}"):
            defeasible_closure(k, (BIRD,), max_steps=bound)
    with pytest.raises(ValidationError):
        nonmon_yields(kb, (BIRD,), (), Atom("penguin"), Atom("fly"), max_steps=bound)


def test_conjunct_binds_from_hard_rules_beside_a_matching_fact():
    # (p a) is a fact and (p b) holds only through a hard rule: the conjunct
    # binds from the store's atoms as well as from its facts
    kb = kb_with(["seed", "(p a)"], hard=["(-> seed (p b))"])
    res = defeasible_closure(kb, (make_rule("R", ["(p ?x)"], "(q ?x)"),))
    assert [print_formula(f) for f in res.kb.facts_at(())] == ["seed", "(p a)", "(q a)", "(q b)"]


def test_abduction_guesses_no_term_variable():
    # abduction binds ?w from the fact (q c0); no fact fits the
    # abducible conjunct, and its three other variables are term variables
    # that nothing binds, so no hypothesis is made, whatever the number of
    # names the store mentions: none is guessed
    rule = make_rule("R", ["seed", "(r ?w ?x ?y ?z)"], "(q ?w)", abducible=frozenset({1}))
    for n in (2, 22):
        kb = kb_with(["seed", "(q c0)"] + [f"(dom c{i})" for i in range(n)])
        assert abduce(kb, rule, ()) == ()


def test_closure_binds_values_that_are_no_declared_constant():
    # the site token is bound from the hard rule's atom, as it is from a
    # stated fact
    rule = make_rule("S", ["(site ?t ?x ?y)"], "(open ?x)")
    for kb in (kb_with(["seed"], hard=["(-> seed (site t u0 u1))"]), kb_with(["(site t u0 u1)"])):
        assert defeasible_closure(kb, (rule,)).kb.has_fact((), parse_formula("(open u0)"))


# ------------------------------------------------------------------ instantiation


def test_rule_instances_enumerate_stored_facts():
    rule = make_rule("R", ["(p ?x)"], "(q ?x)")
    kb = kb_with(["(p a)", "(p b)"])
    insts = rule_instances(rule, kb, ())
    assert [i.key for i in insts] == ["{x=a}", "{x=b}"]
    assert [print_formula(i.cons) for i in insts] == ["(q a)", "(q b)"]


def test_rule_instances_bind_unmatched_conjuncts_from_the_store_atoms():
    rule = make_rule("R", ["(p ?x)"], "(q ?x)")
    kb = kb_with(["(p a)"])
    assert [i.key for i in rule_instances(rule, kb, ())] == ["{x=a}"]
    # no fact fits: names that other atoms mention give no instance, an
    # atom of a hard rule does
    bare = kb_with(["seed", "(r a)", "(r b)"])
    assert rule_instances(rule, bare, ()) == []
    hard = kb_with(["seed"], hard=["(-> seed (p b))"])
    assert [i.key for i in rule_instances(rule, hard, ())] == ["{x=b}"]
    # a site atom's arguments bind from the atoms as any atom's do
    site = make_rule("S", ["(site ?t ?x ?y)"], "(open ?x)")
    tokens = kb_with(["(not (site t u0 u1))"])
    assert [i.key for i in rule_instances(site, tokens, ())] == ["{t=t, x=u0, y=u1}"]


def test_rule_instances_bind_negated_and_eventual_conjuncts_from_the_store_atoms():
    for ante in ("(not (p ?x))", "(eventually (p ?x))"):
        rule = make_rule("R", [ante], "(q ?x)")
        kb = kb_with([ante.replace("?x", "a")])
        assert [i.key for i in rule_instances(rule, kb, ())] == ["{x=a}"], ante
        bare = kb_with(["seed", "(r a)", "(r b)"])
        assert rule_instances(rule, bare, ()) == [], ante
    negated = make_rule("N", ["(not (p ?x))"], "(q ?x)")
    hard = kb_with(["seed"], hard=["(-> seed (not (p b)))"])
    assert [i.key for i in rule_instances(negated, hard, ())] == ["{x=b}"]
    # an eventuality holds as an atom or through its body
    eventual = make_rule("E", ["(eventually (p ?x))"], "(q ?x)")
    hard = kb_with(["seed"], hard=["(-> seed (p b))", "(-> seed (eventually (p c)))"])
    keys = [i.key for i in rule_instances(eventual, hard, ())]
    assert keys == ["{x=b}", "{x=c}"]


def test_rule_instances_take_their_opaque_antecedents_from_the_store_atoms():
    # an opaque antecedent conjunct (an eventuality too), ground or grounded
    # by the binding, is the store's own atom, found by its key; a negated
    # or compound conjunct is built, and so is an eventuality that holds
    # through its body alone
    ants = ["(site ?t ?x ?y)", "(B A (cause ?x ?y))", "(rel Result ?x ?y)", "seed", "?phi:done",
            "(eventually (q ?y))", "(not (p ?x))", "(or (r ?x) (not (r ?x)))", "(eventually (q ?x))"]
    rule = make_rule("R", ants, "(s ?x ?y)")
    kb = kb_with(["(site t a b)", "(B A (cause a b))", "(rel Result a b)", "seed", "(D (plan go))",
                  "(eventually (q b))", "(not (p a))", "(q a)"])
    atoms = kb.store_at(()).atoms
    [inst] = rule_instances(rule, kb, ())
    assert inst.key == "{phi=(D (plan go)), t=t, x=a, y=b}"
    assert [a.key for a in inst.ants] == [instantiate(p, inst.binding).key for p in rule.antecedent]
    for a in inst.ants[:6]:
        assert a is atoms[a.key], a
    for a in inst.ants[6:]:
        assert not any(a is atom for atom in atoms.values()), a


def test_compound_conjuncts_bind_nothing_in_either_order():
    # a compound conjunct can hold without any atom of the store (this one is
    # a tautology), so it binds nothing: alone it is rejected, and beside an
    # anchored conjunct it is checked once that conjunct has bound ?x
    taut = "(or (r ?x) (not (r ?x)))"
    with pytest.raises(ValidationError):
        make_rule("R", [taut], "(q ?x)")
    kb = kb_with(["(p a)"])
    for ants in (["(p ?x)", taut], [taut, "(p ?x)"]):
        pair = make_rule("P", ants, "(q ?x)")
        assert [i.key for i in rule_instances(pair, kb, ())] == ["{x=a}"], ants


def _random_ground_conjunct(rng, names):
    lit = reference.random_literal(rng, names)
    shape = rng.choice(("literal", "negated", "eventual", "compound"))
    if shape == "negated":
        return Not(Atom(rng.choice(names)))
    if shape == "eventual":
        return Eventually(lit)
    if shape == "compound":  # unanchored: holds with no atom at all, when a tautology
        return Or((lit, reference.random_literal(rng, names)))
    return lit


def test_a_ground_rule_is_its_own_instance_exactly_when_bind_gives_the_empty_binding():
    # over stores that have and lack the anchors of literal, negated,
    # eventual and compound conjuncts, with and without absent premises;
    # the instance agrees with what binding and instantiating make
    rng = random.Random(27)
    seen = collections.Counter()
    for _ in range(300):
        names = tuple(f"p{i}" for i in range(rng.randint(2, 6)))
        kb = KnowledgeBase()
        for _ in range(rng.randint(0, 3)):
            kb = kb.assert_fact((), reference.random_literal(rng, names))
        if rng.random() < 0.4:
            hard = Implies(reference.random_literal(rng, names), Eventually(Atom(rng.choice(names))))
            kb = kb.add_hard_rule((), hard)
        ants = tuple(dict.fromkeys(_random_ground_conjunct(rng, names) for _ in range(rng.randint(1, 3))))
        absent = tuple(reference.random_literal(rng, names) for _ in range(rng.randint(0, 2)))
        cons = And((reference.random_literal(rng, names), Atom("q"))) if rng.random() < 0.3 else Atom("q")
        rule = DefaultRule("G", ants, cons, absent=absent)
        assert rule.ground
        store = kb.store_at(())
        bound = engine.bind(engine.anchored_conjuncts(ants), (store.atoms, store.by_functor))
        insts = rule_instances(rule, kb, ())
        assert bound in ({}, {"{}": {}})
        assert len(insts) == len(bound)
        seen[len(insts), bool(absent)] += 1
        if not insts:
            continue
        (inst,) = insts
        assert (inst.rule, inst.binding, inst.key) == (rule, {}, "{}")
        assert (inst.ants, inst.cons, inst.absent) == (rule.antecedent, rule.consequent, rule.absent)
        general = replace(rule)
        general.__dict__["ground"] = False  # the path of a rule with variables
        (bound_inst,) = rule_instances(general, kb, ())
        assert (bound_inst.binding, bound_inst.key, bound_inst.ants, bound_inst.cons, bound_inst.absent) == (
            inst.binding, inst.key, inst.ants, inst.cons, inst.absent)
    assert all(seen[n, a] for n in (0, 1) for a in (False, True)), seen


def test_a_rule_is_ground_without_a_variable_or_a_builtin():
    assert make_rule("R", ["p", "(not q)"], "r", absent=["s"]).ground
    assert not make_rule("R", ["p", "(q ?x)"], "(r ?x)").ground
    assert not make_rule("R", ["(p ?x)"], "r").ground
    assert not make_rule("R", ["p"], "r", absent=["(s ?x)"]).ground
    assert not DefaultRule("R", (Atom("p"),), Atom("r"), builtin="intention-update").ground


def test_closing_penguin_and_nixon_systems_binds_nothing(monkeypatch):
    # every rule is ground, so each is its own instance: no binding, no instantiation
    calls = collections.Counter()

    def counted(name):
        real = getattr(engine, name)

        def wrapper(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)

        return wrapper

    for name in ("bind", "instantiate"):
        monkeypatch.setattr(engine, name, counted(name))
    bird, penguin, fly = Atom("bird"), Atom("penguin"), Atom("fly")
    quaker, republican, pacifist = Atom("quaker"), Atom("republican"), Atom("pacifist")
    rules = (
        DefaultRule("Bird", (bird,), fly),
        DefaultRule("Penguin", (penguin,), Not(fly)),
        DefaultRule("Quaker", (quaker,), pacifist),
        DefaultRule("Republican", (republican,), Not(pacifist)),
    )
    kb = KnowledgeBase()
    for f in (penguin, quaker, republican):
        kb = kb.assert_fact((), f)
    kb = kb.add_hard_rule((), Implies(penguin, bird))
    closed = defeasible_closure(kb, rules)
    assert closed.kb.entails((), Not(fly))
    assert not closed.kb.entails((), pacifist) and not closed.kb.entails((), Not(pacifist))
    assert nonmon_yields(kb.retract_fact((), quaker), rules, (), Atom("x"), Not(pacifist)) is False
    assert nonmon_yields(kb.retract_fact((), republican), rules, (), Atom("x"), pacifist) is False
    assert nonmon_yields(kb.retract_fact((), penguin), rules, (), penguin, Not(fly))
    assert calls == {}, calls


def test_closure_reach_does_not_depend_on_the_number_of_constants():
    # the store mentions n names beside the ones the rule needs
    for ante, stated in (
        ("(p ?x ?y ?z)", "(p c0 c1 c2)"),
        ("(not (p ?x ?y ?z))", "(not (p c0 c1 c2))"),
        ("(eventually (p ?x ?y ?z))", "(p c0 c1 c2)"),
    ):
        rule = make_rule("R", [ante], "(q ?x ?y ?z)")
        for n in (3, 22, 40):
            kb = kb_with(["seed"] + [f"(dom c{i})" for i in range(n)], hard=[f"(-> seed {stated})"])
            res = defeasible_closure(kb, (rule,))
            assert res.kb.has_fact((), parse_formula("(q c0 c1 c2)")), (ante, n)


def test_closure_binds_variables_shared_by_slots_and_terms():
    # a variable bound by a site or rel argument must still match where p
    # meets it, and the other way round
    kb = kb_with(["seed", "(rel R b c)"], hard=["(-> seed (site t a b))", "(-> seed (p b))"])
    for ants, cons, want in (
        (["(site ?t ?x ?y)", "(rel R ?y ?z)"], "(q ?z)", "(q c)"),
        (["(rel R ?y ?z)", "(site ?t ?x ?y)"], "(q ?z)", "(q c)"),
        (["(site ?t ?x ?y)", "(p ?y)"], "(q ?y)", "(q b)"),
        (["(p ?y)", "(site ?t ?x ?y)"], "(q ?y)", "(q b)"),
        (["(rel R ?z ?y)", "(p ?z)"], "(q ?y)", "(q c)"),
    ):
        rule = make_rule("S", ants, cons)
        res = defeasible_closure(kb, (rule,))
        assert res.kb.has_fact((), parse_formula(want)), ants


def test_a_generic_conjunct_binds_its_free_variables():
    rule = make_rule("R", ["(forall x (> (p x) (q x ?y)))", "(r ?y)"], "(s ?y)")
    kb = kb_with(["(r c)", "(r d)", "(forall x (> (p x) (q x c)))", "(forall z (> (p z) (q z d)))"])
    res = defeasible_closure(kb, (rule,))
    assert res.kb.has_fact((), parse_formula("(s c)"))
    # a generic over another variable is not renamed to match
    assert not res.kb.has_fact((), parse_formula("(s d)"))
    assert [i.key for i in rule_instances(rule, kb, ())] == ["{y=c}"]


def test_intention_update_builtin_advances_plans():
    from dicekit.axioms import standard_axioms

    iu = standard_axioms()["IntentionUpdate"]
    kb = kb_with(["(I A (R (plan a b c)))", "(D (plan a))"])
    res = defeasible_closure(kb, (iu,))
    assert res.kb.has_fact((), parse_formula("(I A (R (plan b c)))"))
    assert res.kb.has_fact((), parse_formula("(not (I A (R (plan a))))"))
    # a non-prefix execution record licenses nothing
    off = defeasible_closure(kb_with(["(I A (R (plan a b)))", "(D (plan x))"]), (iu,))
    assert off.steps == ()
    # a fully executed plan leaves no suffix to intend
    done = defeasible_closure(kb_with(["(I A (R (plan a)))", "(D (plan a))"]), (iu,))
    assert done.steps == ()


def test_a_done_record_entailed_through_a_hard_rule_updates_the_plan():
    # the schema applies when the store entails its antecedents, as every
    # rule does: (D (plan a)) is no fact here, only an atom of a hard rule
    from dicekit.axioms import standard_axioms

    iu = standard_axioms()["IntentionUpdate"]
    kb = kb_with(["x", "(I A (R (plan a b)))"], hard=["(-> x (D (plan a)))"])
    res = defeasible_closure(kb, (iu,))
    assert [s.line() for s in res.steps] == [
        "step 1 Hard IntentionUpdate {done=(D (plan a)), plan=(I A (R (plan a b)))}"
        " => (I A (R (plan b))); (not (I A (R (plan a))))"
    ]


def test_a_descendant_that_gains_an_atom_of_another_functor_calls_no_builtin(monkeypatch):
    # the schema's instances are carried like every rule's: its anchors are
    # (I A ...) and (D ...) formulas, so a new (p q) atom wakes nothing
    from dicekit.axioms import standard_axioms

    iu = standard_axioms()["IntentionUpdate"]
    closed = defeasible_closure(kb_with(["(I A (R (plan a b c)))", "(D (plan a))"]), (iu,)).kb
    calls = collections.Counter()
    real = engine._BUILTINS["intention-update"]

    def counted(*args):
        calls["builtin"] += 1
        return real(*args)

    monkeypatch.setitem(engine._BUILTINS, "intention-update", counted)
    res = defeasible_closure(closed.assert_fact((), parse_formula("(p q)")), (iu,))
    assert res.steps == () and calls["builtin"] == 0


def test_intention_update_reads_no_fact_of_another_functor(monkeypatch):
    # the schema binds through its anchors, by functor, like every rule;
    # with 2,000 unrelated facts beside the plan, the attitude closure fires
    # the same steps with the same matching work, and reads none of them
    from dicekit.axioms import standard_axioms

    rules = standard_axioms().phase("attitude")
    kb = kb_with(["(I A (R (plan a b c)))", "(D (plan a))"])
    calls = _count_engine_calls(monkeypatch, "match", "isinstance")
    outcomes = []
    for store in (kb, _padded(kb)):
        calls.clear()
        res = defeasible_closure(store, rules)
        outcomes.append(([s.line() for s in res.steps], dict(calls)))
    assert outcomes[0] == outcomes[1]
    assert any(line.split()[3] == "IntentionUpdate" for line in outcomes[0][0])


# ------------------------------------------------------------------- specificity


def test_specificity_compares_antecedents_under_hard_rules():
    kb = kb_with([], hard=["(-> penguin bird)"])
    assert specificity((Atom("penguin"),), (Atom("bird"),), kb) == "first"
    assert specificity((Atom("bird"),), (Atom("penguin"),), kb) == "second"
    assert specificity((Atom("p"),), (Atom("p"),), kb) == "incomparable"
    assert specificity((Atom("p"),), (Atom("q"),), kb) == "incomparable"


def test_specificity_of_literal_antecedents_builds_no_negation(monkeypatch):
    # each conjunct goes to satcore as the query's negated part, so literal
    # antecedents under a hard rule are decided with no (not d) node built
    kb = kb_with(["r"], hard=["(-> penguin bird)"])
    kb.store_at(()).hard_compiled
    penguin, bird, not_fly = Atom("penguin"), Atom("bird"), Not(Atom("fly"))
    built = []
    real = Not.__init__

    def counting(self, body):
        built.append(body)
        real(self, body)

    monkeypatch.setattr(Not, "__init__", counting)
    assert specificity((penguin, not_fly), (bird,), kb) == "first"
    assert specificity((bird,), (penguin, not_fly), kb) == "second"
    assert specificity((penguin,), (not_fly,), kb) == "incomparable"
    assert built == []


def _random_antecedent(rng, atoms) -> tuple:
    """Ground conjuncts: mostly literals, now and then a compound formula."""
    return tuple(reference.random_formula(rng, atoms, rng.randint(1, 2)) if rng.random() < 0.25
                 else reference.random_literal(rng, atoms) for _ in range(rng.randint(1, 3)))


def _brute_specificity(a, b, hard) -> str:
    fwd = reference.entails(a + hard, conj(b))
    back = reference.entails(b + hard, conj(a))
    return "first" if fwd and not back else "second" if back and not fwd else "incomparable"


def test_specificity_matches_brute_force_under_random_hard_rules():
    # a store grown one hard rule (and now and then a fact, which specificity
    # ignores) at a time, and the same hard rules in a store made directly
    rng = random.Random(1994)
    seen = dict.fromkeys(("first", "second", "incomparable"), 0)
    for _ in range(30):
        atoms = [f"a{i}" for i in range(rng.randint(4, 6))]
        kb = KnowledgeBase()
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.3:
                kb = kb.assert_fact((), reference.random_literal(rng, atoms))
            left = reference.random_formula(rng, atoms, rng.randint(0, 1))
            right = reference.random_formula(rng, atoms, rng.randint(0, 1))
            kb = kb.add_hard_rule((), (Implies if rng.random() < 0.7 else Iff)(left, right))
            hard = kb.store_at(()).hard_rules
            direct = KnowledgeBase(stores={(): Store(hard_rules=hard)})
            for _ in range(5):
                pool = atoms + ["x0"]
                a, b = _random_antecedent(rng, pool), _random_antecedent(rng, pool)
                expected = _brute_specificity(a, b, hard)
                assert specificity(a, b, kb) == specificity(a, b, direct) == expected
                seen[expected] += 1
            # the next store extends this one's compiled hard rules
            assert "hard_compiled" in kb.store_at(()).__dict__
    assert all(seen.values())


def test_specificity_under_an_over_cap_hard_rule_set_raises_on_every_call():
    # p0 -> p1 -> ... -> p25: one group of MAX_VARS + 1 variables
    kb = KnowledgeBase()
    for i in range(satcore.MAX_VARS):
        kb = kb.add_hard_rule((), parse_formula(f"(-> p{i} p{i + 1})"))
    for k in (kb, kb.assert_fact((), Atom("q")), kb.add_hard_rule((), parse_formula("(-> q r)"))):
        for _ in range(2):
            with pytest.raises(SatTooLarge):
                specificity((Atom("q"),), (Atom("r"),), k)


# ------------------------------------------------------------------- lazy yields


def test_nonmon_yields_requires_novelty():
    kb = kb_with([], hard=["(-> penguin bird)"])
    rules = (BIRD, PENGUIN)
    assert nonmon_yields(kb, rules, (), Atom("bird"), Atom("fly"))
    assert nonmon_yields(kb, rules, (), Atom("penguin"), Not(Atom("fly")))
    assert not nonmon_yields(kb, rules, (), Atom("penguin"), Atom("fly"))
    primed = kb.assert_fact((), Atom("bird"))
    # fly already follows from the base store: no longer news
    assert not nonmon_yields(primed, rules, (), Atom("bird"), Atom("fly"))


def test_nonmon_yields_matches_reference():
    # one knowledge base for the closure and every query: their base
    # closures come from its closure memo
    kb = kb_with([], hard=["(-> penguin bird)"])
    ref_rules = [
        reference.RefRule("Bird", (Atom("bird"),), Atom("fly")),
        reference.RefRule("Penguin", (Atom("penguin"),), Not(Atom("fly"))),
    ]
    hard = [parse_formula("(-> penguin bird)")]
    closed = defeasible_closure(kb, (BIRD, PENGUIN)).kb
    assert set(closed.facts_at(())) == set(reference.ref_closure([], hard, ref_rules))
    for phi, psi in [
        (Atom("bird"), Atom("fly")),
        (Atom("penguin"), Atom("fly")),
        (Atom("penguin"), Not(Atom("fly"))),
        (Atom("fly"), Atom("bird")),
    ]:
        assert nonmon_yields(kb, (BIRD, PENGUIN), (), phi, psi) == reference.ref_nonmon_yields(
            [], hard, ref_rules, phi, psi
        )


def test_holds_discharges_eventualities_and_conjunctions():
    kb = kb_with(["p", "q"])
    assert holds(kb, (), Eventually(Atom("p")))
    assert holds(kb, (), And((Eventually(Atom("p")), Atom("q"))))
    assert not holds(kb, (), Eventually(Atom("r")))


def test_attributed_yields_evaluates_in_the_nested_store():
    rule = make_rule("Bird", ["bird"], "fly", scope="everywhere")
    kb = KnowledgeBase().assert_fact((), Atom("seed"))
    ctx = EvalContext(rules=(rule,))
    clause = Att("B", "A", Yields(Atom("bird"), Atom("fly")))
    assert holds(kb, (), clause, ctx)
    assert not holds(kb, (), clause)  # no context, no hypothetical reasoning


def test_yields_results_are_memoized_per_context():
    rule = make_rule("Bird", ["bird"], "fly", scope="everywhere")
    kb = KnowledgeBase().assert_fact((), Atom("seed"))
    ctx = EvalContext(rules=(rule,))
    query = Yields(Atom("bird"), Atom("fly"))
    assert holds(kb, (), query, ctx)
    # an assert makes a new knowledge base, whose closures are its own:
    # once bird is stored, adding it yields nothing new
    primed = kb.assert_fact((), Atom("bird"))
    assert not holds(primed, (), query, ctx)
    # repeating a query on the same knowledge base gives the same verdict
    assert holds(kb, (), query, ctx)
    assert not holds(primed, (), query, ctx)


def test_yields_raises_again_when_its_closure_exceeds_the_step_bound():
    # p > q > r > s needs three rounds; with one allowed the augmented
    # closure raises, and a repeated query raises again rather than answer
    rules = tuple(make_rule(f"R{i}", [a], b) for i, (a, b) in enumerate(("pq", "qr", "rs")))
    ctx = EvalContext(rules, max_steps=1)
    kb = KnowledgeBase()
    for _ in range(2):
        with pytest.raises(StepBoundExceeded):
            holds(kb, (), Yields(Atom("p"), Atom("s")), ctx)


def test_a_yields_test_closes_the_store_plus_phi_once_and_only_when_needed(monkeypatch):
    calls = _count_engine_calls(monkeypatch, "_fixpoint")
    rules = (make_rule("Bird", ["bird"], "fly"), make_rule("Wings", ["bird"], "wings"))
    kb = kb_with(["seed"])
    assert nonmon_yields(kb, rules, (), Atom("bird"), Atom("fly"))
    assert calls["_fixpoint"] == 2
    # the same phi and another psi: both closures are recorded on kb
    assert nonmon_yields(kb, rules, (), Atom("bird"), Atom("wings"))
    assert calls["_fixpoint"] == 2
    # the closure of the store alone entails psi, so the store plus phi is
    # not closed, and so cannot exceed the step bound
    chain = tuple(make_rule(f"R{i}", [a], b) for i, (a, b) in enumerate(("pq", "qr", "rs")))
    assert not nonmon_yields(kb_with(["s"]), chain, (), Atom("p"), Atom("s"), max_steps=1)
    assert calls["_fixpoint"] == 3


def test_a_yields_test_whose_phi_is_already_a_fact_makes_no_cyclic_garbage():
    # the store plus phi is the store itself, and nothing fires, so the
    # closure of the store plus phi is the knowledge base itself: recording
    # it on that knowledge base would make a cycle that only the collector frees
    rules = (make_rule("R", ["r"], "q"),)
    nonmon_yields(kb_with(["p"]), rules, (), Atom("p"), Atom("q"))  # fill module-level caches
    gc.disable()
    try:
        gc.collect()
        assert not nonmon_yields(kb_with(["p"]), rules, (), Atom("p"), Atom("q"))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_closure_matches_stored_yields_atoms_only():
    rule = make_rule("ry", ["(yields p q)"], "r")
    assert not defeasible_closure(kb_with(["p"]), (rule,)).kb.has_fact((), Atom("r"))
    primed = kb_with(["p", "(yields p q)"])
    assert defeasible_closure(primed, (rule,)).kb.has_fact((), Atom("r"))


# --------------------------------------------------------------------- abduction


def test_abduce_hypothesizes_missing_abducible_antecedents():
    rule = make_rule(
        "PS",
        ["(W A ?phi)", "(B A (not ?phi))", "(done ?x)"],
        "(goal ?x)",
        abducible=frozenset({0, 1}),
    )
    kb = kb_with(["(done d1)", "(goal d1)", "(W A happy)"])
    results = abduce(kb, rule, ())
    assert len(results) == 1
    assert [print_formula(h) for h in results[0].hypothesis] == ["(B A (not happy))"]


def test_abduce_needs_some_evidence_and_something_to_add():
    rule = make_rule("R", ["w", "b"], "c", abducible=frozenset({0, 1}))
    nothing_held = kb_with(["c"])
    assert abduce(nothing_held, rule, ()) == ()
    all_held = kb_with(["c", "w", "b"])
    assert abduce(all_held, rule, ()) == ()


def test_abduce_respects_the_abducible_mask():
    rule = make_rule("R", ["w", "b"], "c", abducible=frozenset({0}))
    kb = kb_with(["c", "w"])  # missing conjunct b is not abducible
    assert abduce(kb, rule, ()) == ()


def test_abduce_rejects_hypotheses_inconsistent_with_any_store():
    rule = make_rule("R", ["e", "(B A (not p))"], "c", abducible=frozenset({1}))
    kb = kb_with(["e", "c"]).assert_fact(("A",), Atom("p"))
    assert abduce(kb, rule, ()) == ()
    ok = kb_with(["e", "c"])
    assert len(abduce(ok, rule, ())) == 1


def test_abduce_pool_supplies_unbound_metavariables():
    rule = make_rule(
        "R", ["(W A ?phi)", "(done ?x)"], "(goal ?x)", abducible=frozenset({0})
    )
    kb = kb_with(["(done d1)", "(goal d1)"])
    assert abduce(kb, rule, ()) == ()  # nothing supplies ?phi
    pool = {"phi": (Atom("p"), Atom("q"))}
    results = abduce(kb, rule, (), pool=pool)
    assert sorted(print_formula(r.hypothesis[0]) for r in results) == ["(W A p)", "(W A q)"]


def test_abduce_pool_confines_bound_metavariables():
    rule = make_rule(
        "R", ["(W A ?phi)", "(done ?x)"], "(goal ?x)", abducible=frozenset({0})
    )
    kb = kb_with(["(done d1)", "(goal d1)", "(W A r)"])
    # ?phi matches the stored want, which the pool does not sanction
    assert abduce(kb, rule, (), pool={"phi": (Atom("p"),)}) == ()


def test_abduce_traces_its_steps():
    rule = make_rule("R", ["w", "b"], "c", abducible=frozenset({1}))
    trace = Trace()
    abduce(kb_with(["w", "c"]), rule, (), trace=trace)
    assert [s.mode for s in trace.steps()] == ["Abduction"]


def test_abduce_matches_no_fact_of_another_functor(monkeypatch):
    # with 2,000 unrelated facts beside the evidence, the practical
    # syllogism abduces the same hypotheses with the same matching work
    from dicekit.axioms import standard_axioms

    rule = standard_axioms()["PracticalSyllogism"]
    kb = kb_with(["(I A (R (plan go)))", "(B A (not happy))"])
    pool = {"phi": (Atom("happy"), Atom("sad")), "psi": (parse_formula("(R (plan go))"),)}
    calls = _count_engine_calls(monkeypatch, "match")
    outcomes = []
    for store in (kb, _padded(kb)):
        calls.clear()
        results = abduce(store, rule, (), pool=pool)
        outcomes.append(([(r.binding, [print_formula(h) for h in r.hypothesis]) for r in results], dict(calls)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == [
        ("{phi=happy, psi=(R (plan go))}", ["(W A happy)", "(B A (yields (R (plan go)) (eventually happy)))"])
    ]


def test_abduce_binds_a_variable_shared_by_a_slot_and_a_term():
    # the relation atom and (q ?y ?z) both bind ?y; the two must match, as
    # the plain atom's do
    for cons, stated in (("(rel Result ?x ?y)", "(rel Result a b)"), ("(r ?x ?y)", "(r a b)")):
        rule = make_rule("R", ["(p ?y)", "(q ?y ?z)"], cons, abducible=frozenset({0}))
        results = abduce(kb_with([stated, "(q b c)"]), rule, ())
        assert [[print_formula(h) for h in r.hypothesis] for r in results] == [["(p b)"]], cons


# ------------------------------------------------------------------ rule hygiene


def test_rule_validation():
    with pytest.raises(ValidationError):
        DefaultRule("R", (Atom("p"),), Atom("q"), scope="nowhere")
    # a scope is a context path or "everywhere"; the root is (), not "root"
    with pytest.raises(ValidationError):
        DefaultRule("R", (Atom("p"),), Atom("q"), scope="root")
    with pytest.raises(ValidationError):
        DefaultRule("R", (Atom("p"),), Atom("q"), scope=["A"])
    with pytest.raises(ValidationError):
        DefaultRule("R", (Atom("p"),), Atom("q"), abducible=frozenset({3}))


def test_trace_rendering():
    t = Trace()
    t.note("hello")
    step = t.step("DMP", "Bird", {}, (Atom("fly"),))
    assert step.line() == "step 1 DMP Bird {} => fly"
    assert t.lines() == ["hello", "step 1 DMP Bird {} => fly"]
    assert render_binding({"y": Atom("q"), "x": Const("a")}) == "{x=a, y=q}"
