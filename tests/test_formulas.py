"""Formula layer: parsing, printing, walks, substitution, pattern matching."""

from __future__ import annotations

import collections
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dicekit import formulas as formulas_module
from dicekit.errors import ParseError, ValidationError
from dicekit.formulas import (
    Action,
    And,
    Att,
    Atom,
    Can,
    Const,
    Content,
    Default,
    Doing,
    Done,
    Eventually,
    FVar,
    Formula,
    Generic,
    Iff,
    Imp,
    Implies,
    Not,
    Or,
    Plan,
    RelAtom,
    Var,
    Yields,
    conj,
    conjuncts,
    free_variables,
    ground_key,
    instantiate,
    is_ground,
    match,
    metavariables,
    parse_formula,
    print_formula,
    print_pattern,
    subformulas,
    substitute,
)

# --------------------------------------------------------------------- strategies

NAMES = st.sampled_from(("p", "q", "r0", "bill", "veto-it", "s1"))
AGENTS = st.sampled_from(("A", "I", "jones"))
RELS = st.sampled_from(("Result", "Evidence", "Narration"))

atoms = st.builds(
    lambda pred, args: Atom(pred, tuple(Const(a) for a in args)),
    NAMES,
    st.lists(NAMES, max_size=3),
)
actions = st.builds(lambda n, args: Action(n, tuple(args)), NAMES, st.lists(NAMES, max_size=2))
plans = st.builds(lambda steps: Plan(tuple(steps)), st.lists(actions, min_size=1, max_size=3))
generics = st.one_of(
    st.builds(
        lambda p, q, c: Generic("x", Atom(p, (Var("x"),)), Atom(q, (Var("x"), Const(c)))),
        NAMES,
        NAMES,
        NAMES,
    ),
    # the generic's own variable as a relation atom's argument
    st.builds(lambda r, c, q: Generic("x", RelAtom(r, (Var("x"), c)), Atom(q, (Var("x"),))), RELS, NAMES, NAMES),
)
leaves = st.one_of(
    atoms,
    generics,
    st.builds(Doing, plans),
    st.builds(Done, plans),
    st.builds(lambda t, a, b: Atom("site", (Const(t), Const(a), Const(b))), NAMES, NAMES, NAMES),
    st.builds(lambda a, b: Atom("info", (Const(a), Const(b))), NAMES, NAMES),
    st.builds(lambda r, a, b: RelAtom(r, (a, b)), RELS, NAMES, NAMES),
    st.builds(Content, NAMES, atoms),
)


def compounds(kids):
    return st.one_of(
        st.builds(Not, kids),
        st.builds(lambda a, b: And((a, b)), kids, kids),
        st.builds(lambda a, b: Or((a, b)), kids, kids),
        st.builds(Implies, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(Default, kids, kids),
        st.builds(Eventually, kids),
        st.builds(Can, kids),
        st.builds(Imp, kids),
        st.builds(Yields, kids, kids),
        st.builds(Att, st.sampled_from(("B", "W", "I")), AGENTS, kids),
    )


formulas = st.recursive(leaves, compounds, max_leaves=10)

# rule patterns: ?-variables in atom and relation arguments, formula
# metavariables, and generics with or without a free variable
TERMS = st.one_of(NAMES.map(Const), st.sampled_from(("x", "y")).map(Var))
REL_ARGS = st.one_of(NAMES, st.sampled_from(("x", "y")).map(Var))
open_generics = st.builds(
    lambda ante, q, phi: Generic(
        "x",
        ante,
        Atom(q, (Var("x"),)) if phi is None else And((Atom(q, (Var("x"),)), phi)),
    ),
    st.one_of(
        st.builds(lambda p, t: Atom(p, (Var("x"), t)), NAMES, TERMS),
        st.builds(lambda r, a: RelAtom(r, (Var("x"), a)), RELS, REL_ARGS),
    ),
    NAMES,
    st.one_of(st.none(), st.builds(FVar, st.sampled_from(("phi", "psi")))),
)
pattern_leaves = st.one_of(
    leaves,
    open_generics,
    st.builds(lambda pred, args: Atom(pred, tuple(args)), NAMES, st.lists(TERMS, max_size=3)),
    st.builds(FVar, st.sampled_from(("phi", "psi")), st.sampled_from((None, "doing", "done"))),
    st.builds(lambda t, a, b: Atom("site", (t, a, b)), TERMS, TERMS, TERMS),
    st.builds(lambda a, b: Atom("info", (a, b)), TERMS, TERMS),
    st.builds(lambda r, a, b: RelAtom(r, (a, b)), RELS, REL_ARGS, REL_ARGS),
    st.builds(Content, REL_ARGS, st.one_of(atoms, st.builds(FVar, st.sampled_from(("phi", "psi"))))),
)
patterns = st.recursive(pattern_leaves, compounds, max_leaves=10)

# ---------------------------------------------------------------------- printing


@settings(max_examples=300)
@given(formulas)
def test_print_parse_round_trip(f):
    assert parse_formula(print_formula(f)) == f


@given(formulas)
def test_str_is_canonical_print(f):
    assert str(f) == print_formula(f)


@given(formulas)
def test_generated_formulas_are_ground(f):
    assert is_ground(f)


# ------------------------------------------------------------------------ keying


@settings(max_examples=300)
@given(patterns)
def test_cached_groundness_agrees_with_the_full_walk(f):
    assert is_ground(f) == (not free_variables(f) and not metavariables(f))
    for g in subformulas(f):
        assert g.ground == (not free_variables(g) and not metavariables(g))


@settings(max_examples=300)
@given(patterns)
def test_cached_variables_agree_with_the_full_walk(f):
    for g in subformulas(f):
        fvars = frozenset(h.name for h in subformulas(g) if isinstance(h, FVar))
        assert g.fvar_names == metavariables(g) == fvars
        assert g.variables == free_variables(g) | fvars


def test_a_new_nodes_variables_read_only_its_childrens_cached_sets(monkeypatch):
    parts = [parse_formula(t) for t in ("(p ?x)", "(B A (not ?phi))", "(forall x (> (rel R x ?y) (q x)))")]
    for part in parts:
        part.variables, part.fvar_names

    def no_walk(f):
        raise AssertionError(f"walked {f}")

    monkeypatch.setattr(formulas_module, "children", no_walk)
    monkeypatch.setattr(formulas_module, "subformulas", no_walk)
    f = Not(And(tuple(parts)))
    assert f.variables == {"x", "phi", "y"}
    assert f.fvar_names == {"phi"}
    assert not f.ground


def test_a_metavariable_named_like_a_generics_variable_stays_a_variable():
    # the generic binds its term variable x, not the formula metavariable ?x
    g = parse_formula("(forall x (> (and (p x) ?x) (q x)))")
    assert free_variables(g) == frozenset()
    assert g.fvar_names == g.variables == {"x"}
    assert not g.ground


@given(patterns)
def test_each_node_is_rendered_once(f):
    rendered = collections.Counter()
    render = formulas_module._render

    def counting(g):
        rendered[id(g)] += 1
        return render(g)

    parents = []
    with mock.patch.object(formulas_module, "_render", counting):
        for _ in range(3):
            for g in subformulas(f):
                print_formula(g)
                is_ground(g)
            parents.append(Not(f))
            assert print_formula(parents[-1]) == f"(not {print_formula(f)})"
            assert is_ground(parents[-1]) == is_ground(f)
            assert str(f) == print_formula(f)
    assert set(rendered.values()) == {1}
    assert {id(g) for g in subformulas(f)} <= set(rendered)


def test_key_is_the_canonical_print():
    f = parse_formula("(B A (and (p a) (not (q b))))")
    assert f.key == print_formula(f) == "(B A (and (p a) (not (q b))))"
    assert f.body.parts[1].key == "(not (q b))"


def test_print_formula_rejects_a_non_formula():
    with pytest.raises(TypeError):
        print_formula(3)


def test_a_pattern_and_a_fact_may_share_a_key():
    # (p ?x) and (p x) print alike but are different formulas
    pattern, fact = parse_formula("(p ?x)"), parse_formula("(p x)")
    assert pattern.key == fact.key
    assert pattern != fact
    assert not pattern.ground and fact.ground


def test_zero_ary_atom_prints_bare():
    assert print_formula(Atom("p")) == "p"
    assert parse_formula("p") == Atom("p")


def test_plan_and_action_printing():
    p = Plan((Action("go-home"), Action("buy", ("nails",))))
    assert str(p) == "(plan go-home (buy nails))"
    assert parse_formula("(R (plan go-home (buy nails)))") == Doing(p)


# ----------------------------------------------------------------------- parsing


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as e:
        parse_formula("(and p\n  (q")
    assert e.value.line == 2
    assert "line 2" in str(e.value)


def test_unexpected_close_paren():
    with pytest.raises(ParseError):
        parse_formula(")")


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_formula("p q")


@pytest.mark.parametrize(
    "text",
    [
        "(not p q)",
        "(and p)",
        "(-> p)",
        "(B p)",
        "(R p)",
        "(plan go)",
        "(site tau a)",
        "(rel Result a)",
        "(K a)",
        "(K a p q)",
        "(K (a) p)",
        "(forall x (and p q))",
        "()",
    ],
)
def test_malformed_forms_rejected(text):
    with pytest.raises(ParseError):
        parse_formula(text)


def test_site_and_info_atoms_keep_their_arity_errors():
    for text, n in (("(site tau a)", 3), ("(site tau a (b))", 3), ("(info a b c)", 2)):
        with pytest.raises(ParseError) as e:
            parse_formula(text)
        assert str(e.value) == f"{text[1:5]} takes {n} symbols, got {text}"


@pytest.mark.parametrize("text", ["(forall x (> (rel R x y) (q x)))", "(forall x (> (site t x y) (q x)))"])
def test_a_generic_binds_its_variable_in_relation_and_site_atoms(text):
    f = parse_formula(text)
    assert print_formula(f) == text
    assert parse_formula(print_formula(f)) == f
    assert Var("x") in f.antecedent.args
    assert f.ground and not f.variables
    # a pattern over the generic binds its free variable, and its own
    # variable meets only itself
    pattern = parse_formula(text.replace(" y)", " ?y)"))
    assert print_pattern(pattern) == text.replace(" y)", " ?y)")
    assert match(pattern, f) == {"y": Const("y")}
    assert instantiate(pattern, {"y": Const("y")}) == f
    assert ground_key(pattern, {"y": Const("y")}) == text
    assert match(pattern, parse_formula(text.replace(" y)", " x)"))) is None
    assert match(pattern, parse_formula(text.replace("x", "z"))) is None


def test_generic_variable_must_be_free_on_both_sides():
    with pytest.raises(ValidationError):
        parse_formula("(forall x (> p q))")


def test_comments_are_skipped():
    assert parse_formula("(and p ; a comment\n q)") == And((Atom("p"), Atom("q")))


def test_metavariable_parsing():
    assert parse_formula("(W A ?phi)") == Att("W", "A", FVar("phi"))
    assert parse_formula("?f:doing") == FVar("f", "doing")
    assert parse_formula("(site ?t ?x ?y)") == Atom("site", (Var("t"), Var("x"), Var("y")))
    assert parse_formula("(info ?x b)") == Atom("info", (Var("x"), Const("b")))
    assert parse_formula("(rel Result ?x b)") == RelAtom("Result", (Var("x"), "b"))
    assert parse_formula("(K ?x ?cx)") == Content(Var("x"), FVar("cx"))
    assert parse_formula("(p ?x bill)") == Atom("p", (Var("x"), Const("bill")))


def test_attitude_kinds_validated():
    with pytest.raises(ValidationError):
        Att("K", "A", Atom("p"))


def test_plan_needs_a_step_and_connectives_need_parts():
    with pytest.raises(ValidationError):
        Plan(())
    with pytest.raises(ValidationError):
        And((Atom("p"),))
    with pytest.raises(ValidationError):
        RelAtom("Result", ("a", "b", "c"))


def test_plan_then_concatenates():
    a = Plan((Action("x"),))
    b = Plan((Action("y"), Action("z")))
    assert a.then(b) == Plan((Action("x"), Action("y"), Action("z")))


# ------------------------------------------------------------------------- walks


def test_conjuncts_flatten_nested_conjunctions():
    f = parse_formula("(and p (and q r0) s1)")
    assert conjuncts(f) == (Atom("p"), Atom("q"), Atom("r0"), Atom("s1"))


def test_literals_decompose_literals_and_conjunctions_of_literals():
    p, q = Atom("p"), Atom("q", (Const("a"),))
    # an opaque atom under 0 to 3 nested `not`s, whatever its class
    for nots in range(4):
        for atom in (p, Att("B", "A", Or((p, q))), Eventually(p)):
            f = atom
            for _ in range(nots):
                f = Not(f)
            assert f.literals == ((atom.key, nots),)
    # `and`s nested in any way under an even number of `not`s
    pq = And((p, Not(q)))
    assert pq.literals == (("p", 0), ("(q a)", 1))
    assert Not(Not(pq)).literals == pq.literals
    nested = And((Not(Not(pq)), Not(Not(Not(p))), And((q, Not(Not(And((p, q))))))))
    assert nested.literals == (("p", 0), ("(q a)", 1), ("p", 3), ("(q a)", 0), ("p", 0), ("(q a)", 0))
    # an `and` under an odd number of `not`s, or any other connective, is none
    for f in (Not(pq), Not(Not(Not(pq))), And((p, Not(pq))), Or((p, q)), Not(Or((p, q))),
              Implies(p, q), Iff(p, q), And((p, Implies(p, q))), Not(Not(Iff(p, q)))):
        assert f.literals is None


def test_conj_inverts_conjuncts():
    assert conj((Atom("p"),)) == Atom("p")
    assert conj((Atom("p"), Atom("q"))) == And((Atom("p"), Atom("q")))
    with pytest.raises(ValidationError):
        conj(())


def test_free_variables_respect_generic_binding():
    g = parse_formula("(forall x (> (p x) (q x)))")
    assert free_variables(g) == frozenset()
    assert free_variables(parse_formula("(p ?x)")) == frozenset({"x"})


def test_metavariables_cover_tokens_and_relations():
    # a ? argument of a site, info or relation atom is a free term variable,
    # which a match must bind
    for text, names in (("(site ?t ?x ?y)", {"t", "x", "y"}), ("(info ?x b)", {"x"}),
                        ("(rel Result ?x ?y)", {"x", "y"})):
        f = parse_formula(text)
        assert metavariables(f) == frozenset()
        assert free_variables(f) == f.variables == frozenset(names)
        assert not f.ground
    assert metavariables(parse_formula("(W A ?phi)")) == frozenset({"phi"})
    assert metavariables(parse_formula("(p a)")) == frozenset()


def test_subformulas_walks_every_node():
    f = parse_formula("(-> (not p) (B A q))")
    prints = {print_formula(g) for g in subformulas(f)}
    assert prints == {"(-> (not p) (B A q))", "(not p)", "p", "(B A q)", "q"}


# ------------------------------------------------------------------ substitution


def test_substitute_replaces_free_variables():
    f = parse_formula("(p ?x ?y)")
    assert substitute(f, {"x": "a"}) == Atom("p", (Const("a"), Var("y")))
    # a relation atom's argument is a name, not a constant
    rel = parse_formula("(rel Result ?x ?y)")
    assert substitute(rel, {"x": "a"}) == RelAtom("Result", ("a", Var("y")))


def test_print_pattern_marks_every_pattern_variable():
    for text in ("(p ?x bill)", "(site ?t ?x ?y)", "(info ?x ?y)", "(rel Result ?x beta)",
                 "(B A (and (q ?x) ?phi))", "(I A ?f:doing)", "(forall x (> (p x) (q x ?y)))"):
        assert print_pattern(parse_formula(text)) == text
    # a ground formula prints as print_formula prints it
    ground = parse_formula("(and (site t a b) (rel Result a b))")
    assert print_pattern(ground) == print_formula(ground)


def test_substitute_respects_generic_shadowing():
    g = parse_formula("(forall x (> (p x) (q x)))")
    assert substitute(g, {"x": "a"}) == g


# ---------------------------------------------------------------------- matching


def test_match_binds_formula_metavariables():
    pattern = parse_formula("(W A ?phi)")
    fact = parse_formula("(W A (veto h))")
    b = match(pattern, fact)
    assert b == {"phi": parse_formula("(veto h)")}
    assert instantiate(pattern, b) == fact


def test_match_binds_slots_and_terms():
    # site and relation arguments bind constants, as an atom's arguments do
    b = match(parse_formula("(site ?t ?x ?y)"), parse_formula("(site tau1 alpha beta)"))
    assert b == {"t": Const("tau1"), "x": Const("alpha"), "y": Const("beta")}
    b2 = match(parse_formula("(p ?x)"), parse_formula("(p bill)"))
    assert b2 == {"x": Const("bill")}
    b3 = match(parse_formula("(rel Result ?x ?y)"), parse_formula("(rel Result alpha beta)"))
    assert b3 == {"x": Const("alpha"), "y": Const("beta")}


def test_match_rejects_conflicting_rebinding():
    pattern = parse_formula("(and (p ?x) (q ?x))")
    assert match(pattern, parse_formula("(and (p a) (q a))")) == {"x": Const("a")}
    assert match(pattern, parse_formula("(and (p a) (q b))")) is None


def test_match_respects_doing_shape():
    pattern = Att("W", "A", FVar("f", "doing"))
    doing = Att("W", "A", parse_formula("(R (plan go))"))
    other = Att("W", "A", Atom("p"))
    assert match(pattern, doing) == {"f": parse_formula("(R (plan go))")}
    assert match(pattern, other) is None


def test_a_done_metavariable_parses_prints_back_and_matches_only_a_done_record():
    d = parse_formula("?d:done")
    assert d == FVar("d", "done")
    assert print_formula(d) == "?d:done" and parse_formula(print_formula(d)) == d
    assert d.functor == ("Done",)
    record = parse_formula("(D (plan a b))")
    assert match(d, record) == {"d": record}
    for other in ("(R (plan a b))", "(p a)", "(not (D (plan a)))", "(I A (R (plan a)))"):
        assert match(d, parse_formula(other)) is None, other


def test_unknown_shape_raises():
    with pytest.raises(ValidationError):
        match(FVar("f", "weird"), Atom("p"))


def test_match_is_structural_on_types():
    assert match(parse_formula("(p a)"), parse_formula("(q a)")) is None
    assert match(parse_formula("(not p)"), Atom("p")) is None


def test_instantiate_requires_bindings():
    with pytest.raises(ValidationError):
        instantiate(parse_formula("(W A ?phi)"), {})
    with pytest.raises(ValidationError):
        instantiate(parse_formula("(W A ?phi)"), {"phi": "not-a-formula"})


@pytest.mark.parametrize(
    "pattern,fact",
    [
        ("(B A (not ?phi))", "(B A (not (veto h)))"),
        ("(rel Result ?x ?y)", "(rel Result alpha beta)"),
        ("(and (site ?t ?x ?y) (info ?x ?y))", "(and (site tau1 a b) (info a b))"),
        ("(yields ?u (eventually ?phi))", "(yields (p a) (eventually (q b)))"),
        ("(forall x (> (p x) (q x ?y)))", "(forall x (> (p x) (q x c)))"),
        ("(and (r ?x) (forall x (> (p x) (q x ?x))))", "(and (r a) (forall x (> (p x) (q x x))))"),
    ],
)
def test_match_instantiate_round_trip(pattern, fact):
    p, f = parse_formula(pattern), parse_formula(fact)
    b = match(p, f)
    assert b is not None
    assert instantiate(p, b) == f


def _shapes(p: Formula) -> dict[str, set[str]]:
    """The shapes each formula metavariable of a pattern is written with."""
    out: dict[str, set[str]] = {}
    for g in subformulas(p):
        if isinstance(g, FVar) and g.shape:
            out.setdefault(g.name, set()).add(g.shape)
    return out


def _shaped(shapes: set[str] | None):
    """Formulas that a metavariable of these shapes (one at most) binds."""
    if not shapes:
        return formulas
    return st.builds({"doing": Doing, "done": Done}[min(shapes)], plans)


@settings(max_examples=300)
@given(patterns, st.data())
def test_a_pattern_matches_each_grounding_back_to_its_binding(p, data):
    # a term variable binds a constant in every argument position
    shapes = _shapes(p)
    assume(all(len(s) == 1 for s in shapes.values()))  # no formula has two shapes
    b: dict = {name: Const(data.draw(NAMES)) for name in sorted(free_variables(p))}
    for name in sorted(p.fvar_names):
        b[name] = data.draw(_shaped(shapes.get(name)))
    fact = instantiate(p, b)
    assert is_ground(fact)
    m = match(p, fact)
    assert m == b
    assert instantiate(p, m) == fact


def test_a_bound_slot_name_matches_a_term_of_that_name():
    # (rel Result ?x ?y) binds its names as constants, and (cause ?x ?y)
    # meets them in term positions, as (site ?t ?x ?y)'s bindings meet them
    b = match(parse_formula("(rel Result ?x ?y)"), parse_formula("(rel Result a b)"))
    assert b == {"x": Const("a"), "y": Const("b")}
    assert match(parse_formula("(site ?t ?x ?y)"), parse_formula("(site t a b)"), b) == {**b, "t": Const("t")}
    cause = parse_formula("(cause ?x ?y)")
    assert match(cause, parse_formula("(cause a b)"), b) == b
    assert match(cause, parse_formula("(cause b a)"), b) is None


def test_a_bound_name_never_matches_a_generics_own_variable():
    # x is a constant in (r x) and the generic's own variable inside it
    pattern = parse_formula("(and (r ?y) (forall x (> (p x) (q x ?y))))")
    assert match(pattern, parse_formula("(and (r x) (forall x (> (p x) (q x x))))")) is None
    generic = parse_formula("(forall x (> (p x) (q x ?y)))")
    for y in _renderings(Const("x")):
        assert match(generic, parse_formula("(forall x (> (p x) (q x x)))"), {"y": y}) is None
        assert match(generic, parse_formula("(forall x (> (p x) (q x c)))"), {"y": y}) is None


def _match_rendered(pat: Formula, f: Formula, b: dict) -> dict | None:
    """The reference for `match` under a binding: match afresh, then keep
    the match only when each variable it shares with the binding has the
    same printed name in both."""
    m = match(pat, f)
    if m is None or any(str(b[k]) != str(v) for k, v in m.items() if k in b):
        return None
    return {**m, **b}


def _renderings(value) -> tuple:
    """Values of the same printed name, as a caller's bare name, a term or a
    metavariable would bind it."""
    if isinstance(value, Formula):
        return value, value.key, Const(value.key)
    return str(value), Const(str(value)), Atom(str(value))


@settings(max_examples=300)
@given(patterns, st.data())
def test_match_under_a_binding_agrees_with_matching_afresh_and_comparing_names(p, data):
    # the fact is a grounding of the pattern or any formula; the binding
    # holds some of the grounding's values, as any position would bind them,
    # and some other names
    shapes = _shapes(p)
    g: dict = {name: Const(data.draw(NAMES)) for name in sorted(free_variables(p))}
    for name in sorted(p.fvar_names):
        g[name] = data.draw(_shaped(shapes.get(name)))
    fact = instantiate(p, g) if data.draw(st.booleans()) else data.draw(formulas)
    b: dict = {}
    for name in sorted(g):
        how = data.draw(st.sampled_from(("unbound", "same", "other")))
        if how != "unbound":
            value = g[name] if how == "same" else data.draw(st.one_of(NAMES, st.just("x")))
            b[name] = data.draw(st.sampled_from(_renderings(value)))
    assert match(p, fact, b) == _match_rendered(p, fact, b)


#: what a test binding may bind a variable to, whatever its kind: a constant,
#: a bare name (as a caller may bind one) or a formula
BOUND_VALUES = st.one_of(NAMES.map(Const), NAMES, formulas)


@settings(max_examples=500)
@given(patterns, st.data())
def test_ground_key_is_the_key_of_the_instance(p, data):
    # each variable is left unbound now and then, and may be bound to a value
    # of the wrong kind, so that instantiate raises for some bindings
    b: dict = {}
    shapes = _shapes(p)
    for name in sorted(p.variables):
        how = data.draw(st.sampled_from(("unbound", "any", "kind", "kind", "kind")))
        if how == "any":
            b[name] = data.draw(BOUND_VALUES)
        elif how == "kind":
            fvar = name in p.fvar_names
            b[name] = data.draw(_shaped(shapes.get(name)) if fvar else NAMES.map(Const))
    try:
        want = instantiate(p, b).key
    except ValidationError:
        with pytest.raises(ValidationError):
            ground_key(p, b)
        return
    assert ground_key(p, b) == want


def test_ground_key_raises_where_instantiate_does():
    for text, b in [("(W A ?phi)", {}), ("(W A ?phi)", {"phi": Const("a")}), ("(p ?x)", {}),
                    ("(rel Result ?x b)", {"y": Const("a")}), ("(forall x (> (p x) (q x ?y)))", {})]:
        p = parse_formula(text)
        for fn in (instantiate, ground_key):
            with pytest.raises(ValidationError):
                fn(p, b)
    # a pattern without variables is its own key, whatever the binding
    assert ground_key(parse_formula("(forall x (> (p x) (q x)))"), {}) == "(forall x (> (p x) (q x)))"


def test_a_generic_pattern_binds_its_free_variables_and_keeps_its_own():
    pattern = parse_formula("(forall x (> (p x) (q x ?y)))")
    fact = parse_formula("(forall x (> (p x) (q x c)))")
    assert match(pattern, fact) == {"y": Const("c")}
    # a binding of x from outside the generic is neither used nor lost
    assert match(pattern, fact, {"x": Const("a")}) == {"x": Const("a"), "y": Const("c")}
    assert instantiate(pattern, {"y": Const("c")}) == fact
    assert instantiate(pattern, {"x": Const("a"), "y": Const("c")}) == fact
    # the generic's own variable matches only itself: no alpha-renaming, and
    # a free variable never binds it
    assert match(pattern, parse_formula("(forall z (> (p z) (q z c)))")) is None
    assert match(pattern, parse_formula("(forall x (> (p x) (q x x)))")) is None
    assert match(pattern, parse_formula("(forall x (> (p x) (q c x)))")) is None
    assert match(parse_formula("(forall x (> (p x) (q x c)))"), fact) == {}
    with pytest.raises(ValidationError):
        instantiate(pattern, {})


# ---------------------------------------------------------------------- dispatch

#: one instance of each node class
SAMPLES = (
    Atom("p", (Const("a"),)), FVar("phi"), Not(Atom("p")), And((Atom("p"), Atom("q"))),
    Or((Atom("p"), Atom("q"))), Implies(Atom("p"), Atom("q")), Iff(Atom("p"), Atom("q")),
    Default(Atom("p"), Atom("q")), parse_formula("(forall x (> (p x) (q x)))"), Att("B", "A", Atom("p")),
    Doing(Plan((Action("go"),))), Done(Plan((Action("go"),))), Eventually(Atom("p")), Can(Atom("p")),
    Imp(Atom("p")), RelAtom("Result", ("a", "b")),
    Yields(Atom("p"), Atom("q")), Content("a", Atom("p")),
)

#: every walk over a node, each of which dispatches on the node's class
WALKS = {
    "children": formulas_module.children,
    "key": lambda f: f.key,
    "ground": lambda f: f.ground,
    "free_variables": free_variables,
    "metavariables": metavariables,
    "substitute": lambda f: substitute(f, {"x": "a"}),
    "match": lambda f: match(f, f),
    "instantiate": lambda f: instantiate(f, {"phi": Atom("p")}),
    "ground_key": lambda f: ground_key(f, {"phi": Atom("p")}),
    "functor": lambda f: f.functor,
}


def _node_classes():
    return {c for c in Formula.__subclasses__() if c.__module__ == formulas_module.__name__}


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_every_walk_handles_every_node_class(walk):
    assert {type(s) for s in SAMPLES} == _node_classes()
    for s in SAMPLES:
        WALKS[walk](s)


def test_every_node_class_matches_and_instantiates_to_itself():
    for s in SAMPLES:
        assert match(s, s) == ({"phi": s} if isinstance(s, FVar) else {})
        assert instantiate(s, {"phi": s}) == s


def test_every_node_class_hashes_by_its_key():
    for s in SAMPLES:
        assert hash(s) == hash(s.key)


def test_a_variable_and_a_constant_hash_alike_and_stay_apart():
    # (p x) over a term variable and over a constant print alike, so they
    # hash alike, as their key; equality is structural, so a set keeps both
    var, const = Atom("p", (Var("x"),)), Atom("p", (Const("x"),))
    assert hash(var) == hash(const) == hash("(p x)")
    assert var != const
    assert len({var, const}) == 2
    assert {var, const} - {const} == {var}


def test_hashing_a_keyed_formula_hashes_no_child(monkeypatch):
    f = parse_formula("(and (B A (not (p a))) (or q (yields r s)))")
    f.key
    hashed = []
    for cls in {type(g) for g in subformulas(f)} - {And}:
        monkeypatch.setattr(cls, "__hash__", lambda self: hashed.append(self) or 0)
    assert hash(f) == hash(f.key)
    assert {f, f} == {f}
    assert hashed == []


@dataclass(frozen=True)
class _Unknown(Formula):
    body: Formula


@pytest.mark.parametrize("walk", sorted(WALKS))
def test_a_node_class_no_walk_knows_fails_loudly(walk):
    with pytest.raises(KeyError):
        WALKS[walk](_Unknown(Atom("p")))
