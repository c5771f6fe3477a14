"""Scenario (.scn) format: corpus loading, the full directive set, errors."""

import pytest

from dicekit.errors import DicekitError, ParseError
from dicekit.scenario import Expectation, load, loads

from conftest import CORPUS, scenario_path


# ------------------------------------------------------------------- corpus


@pytest.mark.parametrize("name", CORPUS)
def test_corpus_scenario_loads(name):
    s = load(scenario_path(name))
    assert s.name == name
    assert (s.author, s.interpreter) == ("A", "I")
    assert s.expectations
    assert any(e.kind == "verdict" for e in s.expectations)


def test_textual_order_scenario_structure():
    s = load(scenario_path("bush_context1"))
    assert not s.charity
    assert [(u.id, u.mood) for u in s.utterances] == [
        ("alpha", "assertion"),
        ("beta", "assertion"),
    ]
    assert [str(h) for h in s.hypotheses] == ["(bad hb1711)"]
    (decl,) = s.contexts
    assert decl.path == ()
    assert len(decl.facts) == 3
    assert len(decl.hard_rules) == 1
    kinds = {e.kind for e in s.expectations}
    assert kinds == {"verdict", "entailed", "not-entailed"}
    entailed = {str(e.formula) for e in s.expectations if e.kind == "entailed"}
    assert "(rel Result alpha beta)" in entailed
    missing = {str(e.formula) for e in s.expectations if e.kind == "not-entailed"}
    assert "(rel Narration alpha beta)" in missing


def test_causal_variant_declares_charity_and_nested_context():
    s = load(scenario_path("bush_context3"))
    assert s.charity
    by_path = {decl.path: decl for decl in s.contexts}
    assert set(by_path) == {(), ("A",)}
    assert [str(f) for f in by_path[("A",)].facts] == ["(cause alpha beta)"]


# -------------------------------------------------------------- full grammar


FULL = """
; exercises every directive
agents fred ginger
option charity
option delta-constraint (not boom)
context [] {
  fact (p c1)
  hard (-> (p c1) (q c1))
  default Birdish (> (bird ?x) (fly ?x))
}
context [fred] {
  fact (r c1)
  default (> s t)
}
rule Noisy default abducible(0) everywhere (> (and u v) w)
rule Strict hard (-> u (not w))
hypothesis (bad c1)
utterance a assertion (p c1)
utterance b imperative (R (plan go))
expect coherent
expect (q c1)
expect not (rel Narration a b)
"""


def test_loads_full_scenario():
    s = loads(FULL, name="full")
    assert s.name == "full"
    assert (s.author, s.interpreter) == ("fred", "ginger")
    assert s.charity
    assert [str(f) for f in s.delta_constraints] == ["(not boom)"]

    root, nested = s.contexts
    assert root.path == ()
    assert [str(f) for f in root.facts] == ["(p c1)"]
    assert [str(f) for f in root.hard_rules] == ["(-> (p c1) (q c1))"]

    # a context's defaults are scenario rules scoped to its path, in file order
    birdish, anon, noisy, strict = s.rules
    assert birdish.name == "Birdish"
    assert birdish.scope == ()
    assert not birdish.hard
    # ?-marked pattern variables print bare
    assert [str(f) for f in birdish.antecedent] == ["(bird x)"]
    assert str(birdish.consequent) == "(fly x)"

    assert nested.path == ("fred",)
    assert [str(f) for f in nested.facts] == ["(r c1)"]
    assert anon.name == "context-default-1-0"
    assert anon.scope == ("fred",)

    assert noisy.abducible == frozenset({0})
    assert noisy.scope == "everywhere"
    assert not noisy.hard
    assert [str(f) for f in noisy.antecedent] == ["u", "v"]
    assert str(noisy.consequent) == "w"
    assert strict.hard
    assert strict.abducible == frozenset()
    assert [str(f) for f in strict.antecedent] == ["u"]
    assert str(strict.consequent) == "(not w)"

    assert [str(h) for h in s.hypotheses] == ["(bad c1)"]
    assert [(u.id, u.mood, str(u.content)) for u in s.utterances] == [
        ("a", "assertion", "(p c1)"),
        ("b", "imperative", "(R (plan go))"),
    ]
    assert [e.kind for e in s.expectations] == ["verdict", "entailed", "not-entailed"]
    assert s.expectations[0].verdict == "coherent"


def test_repeated_context_blocks_merge():
    s = loads("agents A I context [] { fact p } context [] { fact q }")
    (decl,) = s.contexts
    assert [str(f) for f in decl.facts] == ["p", "q"]


def test_anonymous_defaults_get_distinct_names():
    s = loads("agents A I context [] { default (> p q) default (> q r) }")
    (decl,) = s.contexts
    assert decl.path == ()
    assert [r.name for r in s.rules] == [
        "context-default-0-0",
        "context-default-0-1",
    ]
    # i counts context blocks, not paths, so a repeated block names its
    # defaults apart from a later path's
    s = loads("agents A I context [] { default (> p q) } context [] { default (> q r) }"
              " context [A] { default (> p s) }")
    assert [(r.name, r.scope) for r in s.rules] == [
        ("context-default-0-0", ()),
        ("context-default-1-0", ()),
        ("context-default-2-0", ("A",)),
    ]


def test_a_context_default_is_scoped_to_its_path_and_takes_no_everywhere_flag():
    s = loads(
        "agents A I\n"
        "context [A] { default Here abducible(0) (> p q) }\n"
        "rule Root default (> p q)\n"
        "rule Anywhere default everywhere (> p q)\n"
    )
    assert [(r.name, r.scope) for r in s.rules] == [
        ("Here", ("A",)),
        ("Root", ()),
        ("Anywhere", "everywhere"),
    ]
    # a context that holds only defaults is still declared
    assert [decl.path for decl in s.contexts] == [("A",)]
    # the flag would change nothing, so it is rejected rather than dropped
    for flags in ("everywhere", "abducible(0) everywhere"):
        with pytest.raises(ParseError, match="default Here takes no everywhere"):
            loads(f"agents A I context [A] {{ default Here {flags} (> p q) }}")
    with pytest.raises(ParseError, match="default context-default-0-0 takes no everywhere"):
        loads("agents A I context [] { default everywhere (> p q) }")


def test_abducible_indices_accept_bare_and_spread_forms():
    one = loads("agents A I rule R default abducible 1 (> (and p q) r)")
    assert one.rules[0].abducible == frozenset({1})
    spread = loads("agents A I rule R default abducible(0, 1) (> (and p q) r)")
    assert spread.rules[0].abducible == frozenset({0, 1})


def test_expectation_describe():
    s = loads("agents A I expect coherent expect p expect not q")
    assert [e.describe() for e in s.expectations] == [
        "expect coherent",
        "expect p",
        "expect not q",
    ]
    assert Expectation("verdict", verdict="incoherent").describe() == "expect incoherent"


# ------------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "text, message",
    [
        ("expect coherent", "must declare agents"),
        ("agents A I utterance a assertion p utterance a assertion q", "duplicate utterance id"),
        ("agents A I utterance a question p", "unknown mood"),
        ("agents A I context [A { fact p }", "bad context path"),
        ("agents A I context [] fact p", "expected '{' after context path"),
        ("agents A I context [] { default (-> p q) }", r"must be \(> ant cons\)"),
        ("agents A I context [] { frob p }", "unknown context directive"),
        ("agents A I rule X hard (> p q)", r"must be \(-> ant cons\)"),
        ("agents A I rule X soft (> p q)", "rule kind must be default or hard"),
        ("agents A I rule X hard abducible(0) (-> p q)", "hard rules cannot have abducible"),
        ("agents A I rule X default abducible(5) (> p q)", "out of range"),
        ("agents A I rule X default abducible(zero) (> p q)", "bad abducible indices"),
        ("agents A I context [] { fact (p ?x) }", "must be ground"),
        ("agents A I expect (p ?x)", "must be ground"),
        ("agents A I hypothesis (p ?x)", "must be ground"),
        ("agents A I option verbose", "unknown option"),
        ("agents A I frobnicate p", "unknown directive"),
        ("agents (A) I", "expected author"),
        ("agents A I utterance a assertion", "unexpected end of scenario"),
    ],
)
def test_malformed_scenarios_raise(text, message):
    with pytest.raises(ParseError, match=message):
        loads(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("context [] { fact (B I (p ?x)) }", "context formulas must be ground: (B I (p ?x))"),
        ("context [A] { hard (-> (site ?t a b) q) }", "context formulas must be ground: (-> (site ?t a b) q)"),
        ("expect (q ?x)", "expectations must be ground: (q ?x)"),
        ("expect not (rel Result ?x b)", "expectations must be ground: (rel Result ?x b)"),
        ("hypothesis (and p (q ?y))", "hypotheses must be ground: (and p (q ?y))"),
        ("option delta-constraint (not (bad ?x))", "delta constraints must be ground: (not (bad ?x))"),
        ("utterance a assertion (p ?x)", "utterance a's content must be ground: (p ?x)"),
        ("utterance b imperative (R (plan go)) utterance c assertion (W A ?phi)",
         "utterance c's content must be ground: (W A ?phi)"),
    ],
)
def test_groundness_errors_show_their_pattern_variables(text, message):
    # a pattern variable prints with its ?, so the formula does not look
    # ground; a non-ground utterance is rejected as the scenario loads
    with pytest.raises(ParseError) as err:
        loads("agents A I " + text)
    assert str(err.value) == message


def test_an_unknown_metavariable_shape_is_rejected_when_the_scenario_loads():
    # only ?f:doing and ?f:done exist; the rule is rejected as it loads, not when a
    # closure first matches it, which a store with no atoms never does
    with pytest.raises(DicekitError, match="'weird'"):
        loads("agents A I rule R default (> (W A ?x:weird) (q))")
