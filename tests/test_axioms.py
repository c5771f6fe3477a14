"""The standard rule library: manifest, phases, drivers, intention updates."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from dicekit.axioms import (
    AXIOM_NAMES,
    apply_support_relation,
    collect_generics,
    contrapose_cooperation,
    cooperation_permitted,
    isupport_atom,
    isupport_holds,
    plan_apprehension,
    standard_axioms,
)
from dicekit.engine import EvalContext, Trace, defeasible_closure, make_rule
from dicekit.errors import NotAPrefix, StepBoundExceeded, ValidationError
from dicekit.formulas import (
    Action,
    And,
    Att,
    Atom,
    Content,
    Doing,
    Done,
    Not,
    Plan,
    RelAtom,
    parse_formula,
    print_formula,
    print_pattern,
)
from dicekit.kb import KnowledgeBase
from dicekit.runner import run_scenario
from dicekit.scenario import loads
from dicekit.sdrs import UpdateSite

AX = standard_axioms()


def kb_with(facts=(), hard=(), **kw):
    kb = KnowledgeBase(**kw)
    for f in facts:
        kb = kb.assert_fact((), parse_formula(f))
    for f in hard:
        kb = kb.add_hard_rule((), parse_formula(f))
    return kb


# ----------------------------------------------------------------------- library


def test_axiom_manifest():
    assert AX.names() == AXIOM_NAMES
    assert len(AXIOM_NAMES) == 16
    with pytest.raises(KeyError):
        AX["NoSuchRule"]


def test_phase_partition():
    attitude = {r.name for r in AX.phase("attitude")}
    assert attitude == {
        "Intentionality",
        "SincereOrdering",
        "WantingAndDoing",
        "APS1",
        "PracticalSyllogism",
        "IntentionUpdate",
    }
    assert "Charity" in {r.name for r in AX.phase("attitude", charity=True)}
    assert {r.name for r in AX.phase("relation")} == {
        "Narration",
        "ResultViaCause",
        "BeliefProperty-Result",
        "BeliefProperty-Evidence",
    }
    with pytest.raises(ValidationError):
        AX.phase("nope")


def test_practical_syllogism_shape():
    ps = AX["PracticalSyllogism"]
    assert [print_formula(a) for a in ps.antecedent] == [
        "(W A ?phi)",
        "(B A (not ?phi))",
        "(B A (yields ?psi (eventually ?phi)))",
    ]
    assert print_formula(ps.consequent) == "(I A ?psi)"
    assert ps.abducible == frozenset({0, 1, 2})
    assert not ps.hard


def test_aps1_is_the_converse_schema():
    aps1 = AX["APS1"]
    assert [print_formula(a) for a in aps1.antecedent] == [
        "(W A ?phi)",
        "(B A (not ?phi))",
        "(I A ?psi)",
    ]
    assert print_formula(aps1.consequent) == "(B A (yields ?psi (eventually ?phi)))"


def test_intentionality_and_narration_shapes():
    intent = AX["Intentionality"]
    assert print_pattern(intent.consequent) == "(I A (and (site ?t ?x ?y) (info ?x ?y)))"
    narr = AX["Narration"]
    assert print_pattern(narr.consequent) == "(rel Narration ?x ?y)"
    assert narr.scope == "everywhere"


def test_result_via_cause_shape():
    rvc = AX["ResultViaCause"]
    # print_formula prints a pattern variable bare, print_pattern with its ?
    assert [print_formula(a) for a in rvc.antecedent] == ["(site t x y)", "(cause x y)"]
    assert [print_pattern(a) for a in rvc.antecedent] == ["(site ?t ?x ?y)", "(cause ?x ?y)"]
    assert print_pattern(rvc.consequent) == "(rel Result ?x ?y)"
    assert rvc.scope == "everywhere"


def test_wanting_and_doing_uses_negation_as_absence():
    wad = AX["WantingAndDoing"]
    assert [print_formula(a) for a in wad.absent] == ["(B A (not (eventually ?phi:doing)))"]
    assert print_formula(wad.antecedent[0]) == "(W A ?phi:doing)"


def test_driver_rules_are_marked():
    for name in (
        "IntendsToSupport",
        "Cooperation",
        "ResultRule",
        "EvidenceRule",
        "PlanApprehension",
    ):
        assert AX[name].driver, name
    assert not any(r.driver for r in AX.phase("relation"))
    assert AX["IntendsToSupport"].hard
    assert AX["Cooperation"].hard
    assert AX["IntentionUpdate"].builtin == "intention-update"


def test_standard_axioms_are_built_once_per_names():
    assert standard_axioms() is standard_axioms()
    assert standard_axioms("fred", "ginger") is standard_axioms("fred", "ginger")
    assert standard_axioms("fred", "ginger") is not standard_axioms()


def test_library_is_parameterized_by_agent_names():
    ax = standard_axioms("fred", "ginger")
    assert print_formula(ax["Charity"].consequent) == "(B fred (B ginger ?phi))"
    assert print_formula(ax["SincereOrdering"].consequent) == "(W fred ?phi)"


# ------------------------------------------------------------------ small helpers


def test_isupport_atom_and_update_content():
    assert print_formula(isupport_atom("a", "b")) == "(isupport a b)"
    site = UpdateSite("tau1", "a", "b")
    assert print_formula(site.content) == "(and (site tau1 a b) (info a b))"


def test_collect_generics_sees_inside_hard_rules():
    kb = kb_with(hard=["(<-> supports (forall x (> (bill x) (veto x))))"])
    gens = collect_generics(kb)
    assert [print_formula(g) for g in gens] == ["(forall x (> (bill x) (veto x)))"]
    assert collect_generics(KnowledgeBase()) == ()


# ------------------------------------------------------------- intentional support

SITE = UpdateSite("tau1", "a", "b")
CONTENTS = {"a": Atom("ca"), "b": Atom("cb")}


def test_isupport_requires_want_and_absence():
    kb = kb_with(["(W A (B I cb))"])  # no believe-absent clause
    chk = isupport_holds(kb, AX, SITE, CONTENTS, "a", "b")
    assert not chk.ok
    assert print_formula(chk.want) == "(W A (B I cb))"
    assert print_formula(chk.believe_absent) == "(B A (not (B I cb)))"


def test_isupport_accepts_a_stored_belief_clause():
    clause = "(B A (yields (and (site tau1 a b) (info a b)) (eventually (B I cb))))"
    kb = kb_with(["(W A (B I cb))", "(B A (not (B I cb)))", clause])
    chk = isupport_holds(kb, AX, SITE, CONTENTS, "a", "b")
    assert chk.ok
    assert not chk.lazy_verified


def test_isupport_verifies_the_belief_clause_hypothetically():
    kb = kb_with(["(W A (B I cb))", "(B A (not (B I cb)))"])
    # in the author's view, making this update eventually gets cb believed
    rule = make_rule("g", ["(site tau1 a b)"], "(eventually (B I cb))", scope="everywhere")
    chk = isupport_holds(kb, AX, SITE, CONTENTS, "a", "b", ctx=EvalContext(rules=(rule,)))
    assert chk.ok
    assert chk.lazy_verified
    # without a context there is no hypothetical reasoning
    assert not isupport_holds(kb, AX, SITE, CONTENTS, "a", "b").ok


# ------------------------------------------------------------------- cooperation


def test_cooperation_permitted_depends_on_direction():
    assert cooperation_permitted(SITE, "a", "b") == (
        RelAtom("Result", ("a", "b")),
        RelAtom("Evidence", ("a", "b")),
    )
    assert cooperation_permitted(SITE, "b", "a") == (RelAtom("Evidence", ("b", "a")),)


def test_contrapose_cooperation_retracts_the_support():
    clause = "(B A (yields (and (site tau1 a b) (info a b)) (eventually (B I cb))))"
    kb = kb_with(["(W A (B I cb))", "(B A (not (B I cb)))", clause, "(isupport a b)"])
    chk = isupport_holds(kb, AX, SITE, CONTENTS, "a", "b")
    assert chk.ok
    trace = Trace()
    kb2, diagnostic = contrapose_cooperation(kb, AX, SITE, chk, trace)
    assert not kb2.has_fact((), isupport_atom("a", "b"))
    assert not kb2.has_fact((), parse_formula(clause))
    assert kb2.entails((), Not(isupport_atom("a", "b")))
    assert "contraposing Cooperation" in diagnostic
    assert "Isupport(a,b)" in diagnostic
    assert any("contrapose Cooperation" in line for line in trace.lines())


# ------------------------------------------------------- result/evidence driver


def support_kb(supporter: str, supported: str):
    kb = kb_with(
        ["(bill h)"],
        hard=["(<-> supports (forall x (> (bill x) (veto x))))"],
    )
    return kb.assert_fact((), isupport_atom(supporter, supported))


def test_apply_support_relation_attaches_result_in_textual_order():
    kb = support_kb("a", "b")
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    app = apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext())
    assert app is not None
    assert app.rule == "ResultRule"
    assert app.rel == RelAtom("Result", ("a", "b"))
    assert app.delta is None
    assert app.witness == "h"
    assert print_formula(app.instance) == "(and (bill h) (veto h))"
    assert app.justification == (app.rel,)


def test_apply_support_relation_attaches_evidence_against_textual_order():
    kb = support_kb("b", "a")
    contents = {"a": parse_formula("(veto h)"), "b": Atom("supports")}
    app = apply_support_relation(kb, AX, SITE, contents, "b", "a", (), EvalContext())
    assert app is not None
    assert app.rule == "EvidenceRule"
    assert app.rel == RelAtom("Evidence", ("b", "a"))


def test_apply_support_relation_binds_the_witness_from_the_store_atoms():
    # the supported content contradicts a fact, so the augmented store is
    # unsatisfiable and entails every instance; the witness still binds from
    # its atoms (bill h) and (veto h), not from a name that only other atoms
    # mention (a and b of the isupport atom, aaa of (zz aaa))
    kb = kb_with(
        ["(bill h)", "(not (veto h))", "(zz aaa)"],
        hard=["(<-> supports (forall x (> (bill x) (veto x))))"],
    ).assert_fact((), isupport_atom("a", "b"))
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    app = apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext())
    assert app is not None
    assert app.witness == "h"
    assert print_formula(app.instance) == "(and (bill h) (veto h))"


def test_apply_support_relation_rejects_a_generic_whose_variable_nothing_binds():
    # x occurs only under an or, which can hold with no atom of the store
    kb = kb_with(
        ["(bill h)"],
        hard=["(<-> supports (forall x (> (or (bill x) (law x)) (or (veto x) (sign x)))))"],
    ).assert_fact((), isupport_atom("a", "b"))
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    with pytest.raises(ValidationError, match="nothing binds its witness"):
        apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext())


def test_apply_support_relation_needs_the_isupport_conclusion():
    kb = kb_with(["(bill h)"], hard=["(<-> supports (forall x (> (bill x) (veto x))))"])
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    assert apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext()) is None


def test_apply_support_relation_completes_instances_with_hypotheses():
    kb = kb_with(hard=["(<-> supports (forall x (> (bill x) (veto x))))"])
    kb = kb.assert_fact((), isupport_atom("a", "b"))
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    bare = apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext())
    assert bare is None  # no fact supplies (bill h)
    delta = parse_formula("(bill h)")
    app = apply_support_relation(kb, AX, SITE, contents, "a", "b", (delta,), EvalContext())
    assert app is not None
    assert app.delta == delta
    assert app.justification == (app.rel, delta)


def test_apply_support_relation_rejects_inconsistent_hypotheses():
    kb = kb_with(hard=["(<-> supports (forall x (> (bill x) (veto x))))"],
                 root_consistency_paths=(("A",),))
    kb = kb.assert_fact((), isupport_atom("a", "b"))
    kb = kb.assert_fact(("A",), parse_formula("(not (bill h))"))
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    trace = Trace()
    app = apply_support_relation(
        kb, AX, SITE, contents, "a", "b", (parse_formula("(bill h)"),), EvalContext(), trace=trace
    )
    assert app is None
    assert any("rejected, inconsistent" in line for line in trace.lines())


def test_apply_support_relation_respects_delta_constraints():
    kb = kb_with(hard=["(<-> supports (forall x (> (bill x) (veto x))))"])
    kb = kb.assert_fact((), isupport_atom("a", "b"))
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    app = apply_support_relation(
        kb, AX, SITE, contents, "a", "b",
        (parse_formula("(bill h)"),), EvalContext(),
        delta_constraints=(parse_formula("(not (bill h))"),),
    )
    assert app is None


def test_apply_support_relation_idles_without_a_generic():
    kb = kb_with(["(bill h)"]).assert_fact((), isupport_atom("a", "b"))
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    trace = Trace()
    assert apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext(), trace=trace) is None
    assert any("yields no generic" in line for line in trace.lines())


def test_apply_support_relation_validates_the_supporter():
    with pytest.raises(ValidationError):
        apply_support_relation(KnowledgeBase(), AX, SITE, CONTENTS, "zzz", "b", (), EvalContext())


def test_apply_support_relation_dispatches_on_the_supporter():
    # a supported outside the site's pair is related to the supporter all the same
    contents = {"a": Atom("supports"), "c": parse_formula("(veto h)")}
    app = apply_support_relation(support_kb("a", "c"), AX, SITE, contents, "a", "c", (), EvalContext())
    assert app.rule == "ResultRule"
    assert app.rel == RelAtom("Result", ("a", "c"))
    contents["b"] = Atom("supports")
    app = apply_support_relation(support_kb("b", "c"), AX, SITE, contents, "b", "c", (), EvalContext())
    assert app.rule == "EvidenceRule"
    assert app.rel == RelAtom("Evidence", ("b", "c"))


def test_apply_support_relation_closes_within_the_context_step_bound():
    kb = kb_with(["p"]).assert_fact((), isupport_atom("a", "b"))
    contents = {"a": Atom("supports"), "b": parse_formula("(veto h)")}
    rules = (make_rule("PQ", ["p"], "q"),)  # one round fires, a second finds the fixpoint
    with pytest.raises(StepBoundExceeded, match="no fixpoint within 1 rounds"):
        apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext(rules=rules, max_steps=1))
    assert apply_support_relation(kb, AX, SITE, contents, "a", "b", (), EvalContext(rules=rules, max_steps=2)) is None


def test_result_via_cause_checker():
    # a Result that no driver applied is justified by the cause read in its
    # own direction, and by nothing else when no cause is entailed
    def justifications(context: str) -> dict[str, list[str]]:
        report = run_scenario(loads(f"agents A I context [] {{ {context} }} utterance a assertion p"
                                    " utterance b assertion q"))
        return {str(a.rel): [str(f) for f in a.justification] for a in report.sdrs.attachments}

    assert justifications("fact (cause a b)") == {"(rel Result a b)": ["(rel Result a b)", "(cause a b)"]}
    backward = justifications("fact (cause b a) hard (-> (cause b a) (rel Result b a))")
    assert backward["(rel Result b a)"] == ["(rel Result b a)", "(cause b a)"]
    assert justifications("fact (rel Result a b)") == {"(rel Result a b)": ["(rel Result a b)"]}


# ----------------------------------------------------------- belief transmission


def test_belief_property_rules_cover_both_directions():
    # one schema per relation, over the constituents' content facts; the
    # Evidence schema transmits along either direction of the pair
    for rel in ("Result", "Evidence"):
        rule = AX[f"BeliefProperty-{rel}"]
        assert [print_pattern(a) for a in rule.antecedent] == [
            "(B I ?cx)", f"(rel {rel} ?x ?y)", "(K ?x ?cx)", "(K ?y ?cy)"]
        assert print_pattern(rule.consequent) == "(B I ?cy)"
        assert rule.scope == "everywhere" and not rule.driver and not rule.hard
    contents = kb_with(["(K a ca)", "(K b cb)"])
    for x, y in (("a", "b"), ("b", "a")):
        kb = contents.assert_fact((), RelAtom("Evidence", (x, y))).assert_fact((), Att("B", "I", Atom(f"c{x}")))
        res = defeasible_closure(kb, AX.phase("relation"))
        assert res.kb.has_fact((), Att("B", "I", Atom(f"c{y}")))
        assert [(s.rule, s.binding) for s in res.steps] == [
            ("BeliefProperty-Evidence", f"{{cx=c{x}, cy=c{y}, x={x}, y={y}}}")]


def test_a_sites_relation_atoms_are_built_once_and_shared():
    # the exclusion and the permitted relations take the pair's atoms from
    # the site
    site = UpdateSite("tau1", "a", "b")
    result, evidence, back = site.relation("Result"), site.relation("Evidence"), site.relation("Evidence", True)
    assert (result, evidence, back) == tuple(map(parse_formula, (
        "(rel Result a b)", "(rel Evidence a b)", "(rel Evidence b a)")))
    assert site.exclusion.left is site.relation("Narration")
    assert site.exclusion.right.body is result
    assert all(x is y for x, y in zip(cooperation_permitted(site, "a", "b"), (result, evidence)))
    assert cooperation_permitted(site, "b", "a")[0] is back


def test_belief_property_rules_transmit_in_closure():
    # the Result schema reads each content from its (K x φ) fact: without
    # the facts nothing fires, and a reversed Result transmits backwards
    rules = (AX["BeliefProperty-Result"],)
    assert defeasible_closure(kb_with(["(B I ca)", "(rel Result a b)"]), rules).steps == ()
    for path in ((), ("A",)):
        kb = KnowledgeBase()
        for f in (Att("B", "I", Atom("ca")), Content("a", Atom("ca")), Content("b", Atom("cb")),
                  RelAtom("Result", ("a", "b"))):
            kb = kb.assert_fact(path, f, mirror=False)
        assert defeasible_closure(kb, rules, path).kb.has_fact(path, Att("B", "I", Atom("cb")))
    reversed_kb = kb_with(["(B I cb)", "(K a ca)", "(K b cb)", "(rel Result b a)"])
    assert defeasible_closure(reversed_kb, rules).kb.has_fact((), Att("B", "I", Atom("ca")))


# ------------------------------------------------------------- plan apprehension


def test_plan_apprehension_composes_plans():
    base = Plan((Action("go-home"),))
    kb = kb_with(["(I A (R (plan go-home)))"])
    new_content = parse_formula("(can (R (plan get-nails)))")
    extended = plan_apprehension(kb, AX, RelAtom("Result", ("a", "b")), new_content, base)
    assert extended == Plan((Action("go-home"), Action("get-nails")))


@pytest.mark.parametrize(
    "rel,content,base",
    [
        (RelAtom("Evidence", ("a", "b")), "(can (R (plan x)))", Plan((Action("go"),))),
        (RelAtom("Result", ("a", "b")), "(can (R (plan x)))", None),
        (RelAtom("Result", ("a", "b")), "(can p)", Plan((Action("go"),))),
        (RelAtom("Result", ("a", "b")), "(R (plan x))", Plan((Action("go"),))),
    ],
)
def test_plan_apprehension_preconditions(rel, content, base):
    kb = kb_with(["(I A (R (plan go)))"])
    assert plan_apprehension(kb, AX, rel, parse_formula(content), base) is None


def test_plan_apprehension_needs_the_intention():
    base = Plan((Action("go"),))
    kb = KnowledgeBase()  # nobody intends anything
    content = parse_formula("(can (R (plan x)))")
    assert plan_apprehension(kb, AX, RelAtom("Result", ("a", "b")), content, base) is None


# --------------------------------------------------------------- intention update


def test_intention_state_tracks_progress():
    plan = Plan((Action("a"), Action("b"), Action("c")))
    state = reference.IntentionState("A", plan)
    assert state.intended() == plan
    assert state.dropped_formula() is None
    state = reference.update_intentions(state, Plan((Action("a"), Action("b"))))
    assert state.intended() == Plan((Action("c"),))
    assert print_formula(state.intention_formula()) == "(I A (R (plan c)))"
    assert print_formula(state.dropped_formula()) == "(not (I A (R (plan a b))))"


def test_intention_state_finishes_cleanly():
    plan = Plan((Action("a"),))
    state = reference.update_intentions(reference.IntentionState("A", plan), Plan((Action("a"),)))
    assert state.intended() is None
    assert state.intention_formula() is None


def test_intention_updates_must_continue_the_plan():
    plan = Plan((Action("a"), Action("b")))
    with pytest.raises(NotAPrefix):
        reference.update_intentions(reference.IntentionState("A", plan), Plan((Action("b"),)))
    with pytest.raises(NotAPrefix):
        reference.IntentionState("A", plan, done=(Action("x"),))


def test_intention_updates_are_cumulative():
    plan = Plan((Action("a"), Action("b"), Action("c")))
    one = reference.update_intentions(reference.IntentionState("A", plan), Plan((Action("a"),)))
    two = reference.update_intentions(one, Plan((Action("b"),)))
    at_once = reference.update_intentions(reference.IntentionState("A", plan), Plan((Action("a"), Action("b"))))
    assert two == at_once
    assert two.intended() == Plan((Action("c"),))


PLANS = st.lists(st.sampled_from("abc").map(Action), min_size=1, max_size=4).map(lambda s: Plan(tuple(s)))


@settings(max_examples=200)
@given(PLANS, PLANS)
@example(Plan((Action("a"), Action("a"), Action("b"))), Plan((Action("a"),)))
@example(Plan((Action("a"), Action("a"))), Plan((Action("a"),)))
def test_closing_under_the_schema_agrees_with_update_intentions(plan, done):
    # the progress schema twice: as a closure rule over (I A (R p)) and (D q),
    # and as `update_intentions` over an intention state.  A record is
    # consumed once: (plan a b), what (plan a a b) leaves after (D (plan a)),
    # begins with the record again, and is not updated by it.  When the
    # remainder is the done prefix again, as (plan a a) leaves after
    # (D (plan a)), nothing is dropped, so the store stays satisfiable
    kb = kb_with().assert_fact((), Att("I", "A", Doing(plan))).assert_fact((), Done(done))
    res = defeasible_closure(kb, (AX["IntentionUpdate"],))
    try:
        state = reference.update_intentions(reference.IntentionState("A", plan), done)
    except NotAPrefix:
        state = None
    if state is None or state.intended() is None:  # not a prefix, or the whole plan
        assert res.steps == ()
        return
    added = set(res.kb.facts_at(())) - set(kb.facts_at(()))
    assert added == {state.intention_formula(), state.dropped_formula()} - {None}
    assert res.kb.store_at(()).compiled.sat
