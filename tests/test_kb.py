"""Nested belief stores: mirroring, locality, consistency views."""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from dicekit import satcore
from dicekit.errors import DepthExceeded, SatTooLarge, ValidationError
from dicekit.formulas import And, Att, Atom, Const, Iff, Implies, Not, Or, conj, parse_formula, print_formula
from dicekit.kb import KnowledgeBase, Store


def kb0(**kw) -> KnowledgeBase:
    return KnowledgeBase(**kw)


def test_assert_fact_requires_ground_literals():
    kb = kb0()
    with pytest.raises(ValidationError):
        kb.assert_fact((), parse_formula("(p ?x)"))
    with pytest.raises(ValidationError):
        kb.assert_fact((), parse_formula("(or p q)"))
    with pytest.raises(ValidationError):
        kb.assert_fact((), parse_formula("(-> p q)"))


def test_groundness_errors_show_their_pattern_variables():
    with pytest.raises(ValidationError, match=r"^facts must be ground: \(B I \(p \?x\)\)$"):
        kb0().assert_fact((), parse_formula("(B I (p ?x))"))
    with pytest.raises(ValidationError, match=r"^facts must be ground: \(rel Result a \?y\)$"):
        kb0().assert_fact((), parse_formula("(rel Result a ?y)"))
    with pytest.raises(ValidationError, match=r"^hard rules must be ground: \(-> \(site \?t a b\) q\)$"):
        kb0().add_hard_rule((), parse_formula("(-> (site ?t a b) q)"))


def test_assert_fact_splits_conjunctions():
    kb = kb0().assert_fact((), parse_formula("(and p (not q))"))
    assert kb.facts_at(()) == (Atom("p"), Not(Atom("q")))


def test_assert_fact_is_idempotent():
    kb = kb0().assert_fact((), Atom("p"))
    assert kb.assert_fact((), Atom("p")) is kb


def test_belief_facts_mirror_downward():
    kb = kb0().assert_fact((), parse_formula("(B A (and p q))"))
    assert kb.has_fact(("A",), Atom("p"))
    assert kb.has_fact(("A",), Atom("q"))
    assert kb.has_fact((), parse_formula("(B A (and p q))"))


def test_nested_facts_mirror_upward():
    kb = kb0().assert_fact(("A",), Atom("p"))
    assert kb.has_fact((), Att("B", "A", Atom("p")))


def test_deep_belief_chains_mirror_through():
    kb = kb0().assert_fact((), parse_formula("(B A (B I p))"))
    assert kb.has_fact(("A",), parse_formula("(B I p)"))
    assert kb.has_fact(("A", "I"), Atom("p"))


def test_mirrors_beyond_depth_bound_are_dropped():
    kb = kb0(max_depth=1).assert_fact((), parse_formula("(B A (B I p))"))
    assert kb.has_fact(("A",), parse_formula("(B I p)"))
    assert kb.facts_at(("A", "I")) == ()


def test_direct_assert_beyond_depth_bound_raises():
    with pytest.raises(DepthExceeded):
        kb0(max_depth=1).assert_fact(("A", "I"), Atom("p"))


def test_mirror_can_be_disabled():
    kb = kb0().assert_fact((), parse_formula("(B A p)"), mirror=False)
    assert kb.facts_at(("A",)) == ()


def test_non_literal_belief_bodies_do_not_mirror():
    kb = kb0().assert_fact((), parse_formula("(B A (or p q))"))
    assert kb.has_fact((), parse_formula("(B A (or p q))"))
    assert kb.facts_at(("A",)) == ()


def test_retraction_is_local():
    kb = kb0().assert_fact((), parse_formula("(B A p)"))
    kb = kb.retract_fact((), parse_formula("(B A p)"))
    assert not kb.has_fact((), parse_formula("(B A p)"))
    assert kb.has_fact(("A",), Atom("p"))  # the nested mirror stays


def test_hard_rules_must_be_ground_conditionals():
    kb = kb0()
    with pytest.raises(ValidationError):
        kb.add_hard_rule((), Atom("p"))
    with pytest.raises(ValidationError):
        kb.add_hard_rule((), parse_formula("(-> (p ?x) q)"))
    kb = kb.add_hard_rule((), parse_formula("(-> p q)"))
    kb = kb.add_hard_rule((), parse_formula("(<-> q r)"))
    assert len(kb.store_at(()).hard_rules) == 2


def test_entails_uses_hard_rules():
    kb = kb0().assert_fact((), Atom("p")).add_hard_rule((), parse_formula("(-> p q)"))
    assert kb.entails((), Atom("q"))
    assert not kb.entails((), Atom("r"))


def test_consistent_with_is_local_to_one_store():
    kb = kb0(root_consistency_paths=(("A",),))
    kb = kb.assert_fact(("A",), Not(Atom("p")))
    assert kb.consistent_with((), (Atom("p"),))
    assert not kb.jointly_consistent_with((Atom("p"),))
    assert kb.jointly_consistent_with((Atom("q"),))


def test_jointly_consistent_with_checks_the_root_too():
    kb = kb0(root_consistency_paths=(("A",),)).assert_fact((), Not(Atom("p")))
    assert not kb.jointly_consistent_with((Atom("p"),))


def test_store_formulas_concatenates_facts_and_rules():
    s = Store(facts=(Atom("p"),), hard_rules=(parse_formula("(-> p q)"),))
    assert s.formulas() == (Atom("p"), parse_formula("(-> p q)"))


def test_store_keeps_a_fact_set():
    kb = kb0().assert_fact((), parse_formula("(and (q b) (p a) (not r))"))
    store = kb.store_at(())
    assert store.fact_set == frozenset(store.facts)
    assert kb.has_fact((), parse_formula("(p a)"))
    assert kb.retract_fact((), parse_formula("(q b)")).facts_at(()) == (Atom("p", (Const("a"),)), Not(Atom("r")))
    # membership is structural: a pattern that prints like a fact is not it
    kb = kb0().assert_fact((), parse_formula("(p x)"))
    assert kb.has_fact((), parse_formula("(p x)"))
    assert not kb.has_fact((), parse_formula("(p ?x)"))


def test_walk_and_paths_are_sorted():
    kb = kb0().assert_fact(("B",), Atom("p")).assert_fact(("A",), Atom("q"))
    assert kb.paths() == ((), ("A",), ("B",))
    assert [p for p, _ in kb.walk()] == [(), ("A",), ("B",)]


# ------------------------------------------------- queries on a compiled store


def _random_store(rng, atoms) -> Store:
    """Literal facts and conditionals over atoms split into two parts that
    share no formula, so the store compiles to several groups."""
    cut = rng.randint(2, len(atoms) - 2)
    parts = [atoms[:cut], atoms[cut:]]
    facts, rules = [], []
    for part in parts:
        facts += [reference.random_literal(rng, part) for _ in range(rng.randint(0, 2))]
        for _ in range(rng.randint(1, 3)):
            left = reference.random_formula(rng, part, rng.randint(0, 2))
            right = reference.random_formula(rng, part, rng.randint(0, 2))
            rules.append(Implies(left, right) if rng.random() < 0.7 else Iff(left, right))
    return Store(facts=tuple(facts), hard_rules=tuple(rules))


def _check_queries(rng, kb, atoms, n_queries) -> None:
    """Entailment and consistency queries at the root, against the oracle."""
    fs, nested_fs = kb.store_at(()).formulas(), kb.store_at(("A",)).formulas()
    lacking = ["x0", "x1"]
    for _ in range(n_queries):
        pool = rng.choice((atoms[:3], atoms[-3:], atoms, lacking, atoms[:2] + lacking))
        q = reference.random_formula(rng, pool, rng.randint(0, 2))
        r = reference.random_formula(rng, atoms + lacking, rng.randint(0, 2))
        for _ in range(2):  # an answer does not depend on the queries before it
            assert kb.entails((), q) == reference.entails(fs, q)
            assert kb.consistent_with((), (q,)) == reference.satisfiable(fs + (q,))
            assert kb.consistent_with((), (q, r)) == reference.satisfiable(fs + (q, r))
            assert kb.jointly_consistent_with((q,)) == (
                reference.satisfiable(fs + (q,)) and reference.satisfiable(nested_fs + (q,)))


def test_compiled_store_queries_match_enumeration_oracle():
    rng = random.Random(4711)
    seen_unsat = seen_sat = 0
    for _ in range(40):
        atoms = [f"a{i}" for i in range(rng.randint(6, 10))]
        root, nested = _random_store(rng, atoms), _random_store(rng, atoms)
        kb = KnowledgeBase(stores={(): root, ("A",): nested}, root_consistency_paths=(("A",),))
        fs = root.formulas()
        if reference.satisfiable(fs):
            seen_sat += 1
        else:
            seen_unsat += 1
        compiled = root.compiled
        _check_queries(rng, kb, atoms, 15)
        # every query above ran against the one compiled form of the store
        assert kb.store_at(()) is root and root.compiled is compiled
        assert compiled.sat == reference.satisfiable(fs)
    assert seen_sat and seen_unsat


def test_stores_grown_literal_by_literal_match_enumeration_oracle():
    # each child extends its parent's compiled form with its one new literal;
    # the literals name atoms the root lacks too, and take both signs of one
    rng = random.Random(1986)
    seen_unsat = seen_sat = 0
    for _ in range(20):
        atoms = [f"a{i}" for i in range(rng.randint(6, 8))]
        kb = KnowledgeBase(stores={(): _random_store(rng, atoms), ("A",): _random_store(rng, atoms)},
                           root_consistency_paths=(("A",),))
        kb.store_at(()).compiled
        both = Atom(rng.choice(atoms + ["x0"]))
        literals = [reference.random_literal(rng, atoms + ["x0", "x1"]) for _ in range(rng.randint(1, 4))]
        at = rng.randrange(len(literals) + 1)
        literals[at:at] = [both, Not(both)][:: rng.choice((1, -1))]
        for lit in literals:
            kb = kb.assert_fact((), lit)
            store = kb.store_at(())
            assert "compiled" in store.__dict__  # built from the parent's, not on first use
            fs = store.formulas()
            assert store.compiled.sat == reference.satisfiable(fs)
            seen_sat += store.compiled.sat
            seen_unsat += not store.compiled.sat
            _check_queries(rng, kb, atoms, 3)
    assert seen_sat and seen_unsat


def _functor_keys(store: Store) -> dict:
    return {k: {a.key for a in group} for k, group in store.by_functor.items()}


def _lineage_literal(rng, pool):
    """A literal over the pool's atoms, over (p c0) to (p c2), one functor's
    group, or a belief that the root mirrors into A's store."""
    pick = rng.random()
    if pick < 0.5:
        return reference.random_literal(rng, pool)
    atom = Atom("p", (Const(rng.choice(("c0", "c1", "c2"))),))
    if pick < 0.85:
        return atom if rng.random() < 0.5 else Not(atom)
    return Att("B", "A", atom)


def _assert_extends(child: Store, parent: Store) -> None:
    """The child's atoms, and each of its functor groups, begin with the
    parent's in the same order: what `Store.atoms_since` relies on."""
    assert [a.key for a in child.atoms.values()][:len(parent.atoms)] == [a.key for a in parent.atoms.values()]
    for functor, group in parent.by_functor.items():
        assert [a.key for a in child.by_functor[functor][:len(group)]] == [a.key for a in group]


def test_stores_grown_along_a_lineage_extend_what_their_parents_built():
    # literals, most of the steps (a belief is mirrored into A's store), and
    # hard rules, over atoms the root lacks too, one at a time: each child
    # extends its parent's compiled forms (merging the groups a rule touches;
    # a literal leaves the compiled hard rules as they are), fact set,
    # hard-rule set and atoms, appending to its atoms and functor groups in
    # order, and agrees with a store built afresh and the oracle
    rng = random.Random(1982)
    seen_unsat = seen_sat = 0
    steps = {"literal": 0, "hard": 0}
    for _ in range(12):
        atoms = [f"a{i}" for i in range(rng.randint(6, 8))]
        kb = KnowledgeBase(stores={(): _random_store(rng, atoms), ("A",): _random_store(rng, atoms)},
                           root_consistency_paths=(("A",),))
        for path in ((), ("A",)):
            store = kb.store_at(path)
            store.compiled, store.hard_compiled, store.by_functor, store.fact_set, store.hard_rule_set
        for _ in range(rng.randint(4, 10)):
            pool = atoms + ["x0", "x1"]
            parents = {path: kb.store_at(path) for path in ((), ("A",))}
            if rng.random() < 0.75:
                kb = kb.assert_fact((), _lineage_literal(rng, pool))
                steps["literal"] += 1
            else:
                left = reference.random_formula(rng, pool, rng.randint(0, 2))
                right = reference.random_formula(rng, pool, rng.randint(0, 2))
                kb = kb.add_hard_rule((), (Implies if rng.random() < 0.7 else Iff)(left, right))
                steps["hard"] += 1
            for path, parent in parents.items():
                _assert_extends(kb.store_at(path), parent)
            store = kb.store_at(())
            assert {"fact_set", "hard_rule_set", "compiled", "hard_compiled", "atoms",
                    "by_functor"} <= store.__dict__.keys()
            fresh = Store(store.facts, store.hard_rules)
            assert store.fact_set == fresh.fact_set
            assert store.hard_rule_set == fresh.hard_rule_set
            assert store.atoms == fresh.atoms and _functor_keys(store) == _functor_keys(fresh)
            assert store.compiled.sat == fresh.compiled.sat == reference.satisfiable_pinned(store.formulas())
            assert store.hard_compiled.index.keys() == fresh.hard_compiled.index.keys()
            assert store.hard_compiled.sat == fresh.hard_compiled.sat == reference.satisfiable(store.hard_rules)
            seen_sat += store.compiled.sat
            seen_unsat += not store.compiled.sat
            _check_queries(rng, kb, atoms, 2)
    assert seen_sat and seen_unsat
    assert steps["literal"] > steps["hard"], steps


def test_a_store_is_compiled_once_for_many_queries(monkeypatch):
    compiled = []
    real = satcore.compile_program

    def counting(f, *args):
        compiled.append(f)
        return real(f, *args)

    monkeypatch.setattr(satcore, "compile_program", counting)
    kb = kb0().assert_fact((), parse_formula("(and p (not r) (B A s))"))
    kb = kb.add_hard_rule((), parse_formula("(-> p q)")).add_hard_rule((), parse_formula("(<-> r t)"))
    queries = [parse_formula(text) for text in ("q", "t", "(or q u)", "(and p (not t))", "v")]
    kb.entails((), queries[0])
    store = kb.store_at(())
    assert len(compiled) == len(store.formulas())
    # then, on every pass, a literal-shaped query (q, t, v, (and p (not t))
    # and their negations) is decided from the groups' tables without
    # compiling, and the compound one compiles itself alone on each ask
    compound = [q for q in queries if q.literals is None]
    assert [q.key for q in compound] == ["(or q u)"]
    for _ in range(2):
        compiled.clear()
        for q in queries:
            kb.entails((), q)
            kb.consistent_with((), (q,))
            kb.jointly_consistent_with((q,))
        assert compiled == [Not(q) for q in compound] + 2 * compound
        assert kb.store_at(()) is store


def test_literal_shaped_queries_compile_nothing_and_match_enumeration_oracle(monkeypatch):
    # entails of a literal or an `and` of literals (a negated conjunction),
    # and consistency with literal extras or with a conjunction and its
    # negation, are decided from the store's tables
    rng = random.Random(2718)
    seen_entailed = seen_sat = seen_unsat = 0
    for _ in range(20):
        atoms = [f"a{i}" for i in range(rng.randint(6, 8))]
        store = _random_store(rng, atoms)
        kb = kb0(stores={(): store})
        fs = store.formulas()
        store.compiled
        with monkeypatch.context() as m:
            m.setattr(satcore, "compile_program", None)
            for _ in range(10):
                lits = tuple(reference.random_literal(rng, atoms + ["x0"]) for _ in range(rng.randint(1, 3)))
                q = lits[0] if len(lits) == 1 else And(lits)
                expected = reference.entails(fs, q)
                sat = reference.satisfiable(fs + lits)
                for _ in range(2):  # an answer does not depend on the queries before it
                    assert kb.entails((), q) == expected
                    assert kb.consistent_with((), lits) == sat
                    assert kb.consistent_with((), (q, Not(q))) is False
                seen_entailed += expected
                seen_sat += sat
                seen_unsat += not sat
    assert seen_entailed and seen_sat and seen_unsat


def test_literal_shaped_queries_along_a_lineage_match_enumeration_oracle(monkeypatch):
    # stores grown one literal or hard rule at a time from a base
    # that may be unsatisfiable; each literal-shaped query, over atoms the
    # store lacks too, with complementary extras or a negated conjunction,
    # is asked twice, compiles nothing, and agrees with the oracle both times
    rng = random.Random(1994)
    seen = dict.fromkeys(("sat", "unsat", "unsat_base", "lacking", "complementary", "negated"), 0)
    for _ in range(16):
        atoms = [f"a{i}" for i in range(rng.randint(5, 7))]
        pool = atoms + ["x0", "x1"]
        kb = kb0(stores={(): _random_store(rng, atoms)})
        kb.store_at(()).compiled
        for _ in range(rng.randint(2, 5)):
            if rng.random() < 0.5:
                kb = kb.assert_fact((), reference.random_literal(rng, atoms + ["x0"]))
            else:
                left = reference.random_formula(rng, pool, rng.randint(0, 1))
                right = reference.random_formula(rng, pool, rng.randint(0, 1))
                kb = kb.add_hard_rule((), Implies(left, right))
            store = kb.store_at(())
            assert "compiled" in store.__dict__  # extended from the parent's
            fs = store.formulas()
            seen["unsat_base"] += not store.compiled.sat
            with monkeypatch.context() as m:
                m.setattr(satcore, "compile_program", None)
                for _ in range(6):
                    lits = [reference.random_literal(rng, pool) for _ in range(rng.randint(1, 3))]
                    if rng.random() < 0.25:
                        lits.append(Not(lits[0]))
                        seen["complementary"] += 1
                    q = lits[0] if len(lits) == 1 else And(tuple(lits))
                    extras = tuple(lits)
                    if len(lits) > 1 and rng.random() < 0.5:
                        extras = (lits[0], Not(conj(lits[1:])))
                        seen["negated"] += len(lits) > 2
                    expected = reference.entails(fs, q), reference.satisfiable(fs + extras)
                    for _ in range(2):
                        assert (kb.entails((), q), kb.consistent_with((), extras)) == expected
                    seen["sat"] += expected[1]
                    seen["unsat"] += not expected[1]
                    seen["lacking"] += any(key in ("x0", "x1") for f in lits for key, _ in f.literals)
    assert all(seen.values()), seen


def test_a_queried_formula_is_freed_with_its_last_reference():
    # what a query caches on its nodes holds keys and flags, never a node,
    # so no reference cycle keeps a query alive: with the garbage collector
    # off, reference counting alone frees it
    kb = kb0().assert_fact((), parse_formula("(and p (not r))")).add_hard_rule((), parse_formula("(-> p q)"))
    gc.disable()
    try:
        for text, entailed in (("q", True), ("(not (not r))", False), ("(and p (not s))", False), ("(or q s)", True)):
            q = parse_formula(text)
            assert kb.entails((), q) == entailed
            assert "ground" in q.__dict__
            freed = weakref.ref(q)
            del q
            assert freed() is None
    finally:
        gc.enable()


def test_entails_raises_on_an_over_cap_store_group():
    # p0 -> p1 -> ... -> p25: one group of MAX_VARS + 1 variables
    kb = kb0()
    for i in range(satcore.MAX_VARS):
        kb = kb.add_hard_rule((), parse_formula(f"(-> p{i} p{i + 1})"))
    kb = kb.assert_fact((), Atom("q")).assert_fact((), Not(Atom("q")))

    def raises_on_every_query(k: KnowledgeBase) -> None:
        for _ in range(2):  # an error is raised again on every query
            with pytest.raises(SatTooLarge):
                k.entails((), Atom("q"))
            with pytest.raises(SatTooLarge):
                k.consistent_with((), (Atom("r"),))
            with pytest.raises(SatTooLarge):
                k.jointly_consistent_with((Atom("r"),))

    raises_on_every_query(kb)
    # a child of a store whose compile raised compiles from scratch, and raises too
    raises_on_every_query(kb.assert_fact((), Atom("r")))
    # so does a child whose hard rule joins two compiled groups over the cap
    half = satcore.MAX_VARS // 2 + 1
    grown = kb0()
    for chain in ("p", "r"):
        for i in range(half - 1):
            grown = grown.add_hard_rule((), parse_formula(f"(-> {chain}{i} {chain}{i + 1})"))
    assert len(grown.store_at(()).compiled.groups) == 2
    grown = grown.add_hard_rule((), parse_formula(f"(-> p{half - 1} r0)"))
    assert "compiled" not in grown.store_at(()).__dict__
    raises_on_every_query(grown.assert_fact((), Atom("q")).assert_fact((), Not(Atom("q"))))


def test_a_literal_shaped_entailment_builds_no_negation(monkeypatch):
    # a literal or a conjunction of literals is decided from the store's
    # tables with each literal's parity flipped, so no (not f) node is built;
    # a compound query still compiles its negation
    kb = kb0().assert_fact((), parse_formula("(and p (not r))")).add_hard_rule((), parse_formula("(-> p q)"))
    kb.store_at(()).compiled
    queries = [parse_formula(q) for q in ("q", "(not r)", "(and p q (not r))", "s", "(not q)", "(and q r)")]
    compound = parse_formula("(or q s)")
    built = []
    real = Not.__init__

    def counting(self, body):
        built.append(body)
        real(self, body)

    monkeypatch.setattr(Not, "__init__", counting)
    assert [kb.entails((), q) for q in queries] == [True, True, True, False, False, False]
    assert built == []
    assert kb.entails((), compound)
    assert built == [compound]


def test_entails_rejects_a_non_ground_query():
    query = parse_formula("(p ?x)")
    kb = kb0().assert_fact((), Atom("p"))
    kb.store_at(()).compiled
    # the second store extends the first's compiled form, and is unsatisfiable:
    # there every literal query would otherwise answer False
    for sat, kb in ((True, kb), (False, kb.assert_fact((), Not(Atom("p"))))):
        # the ground (p x) prints like the query, and is asked first
        assert kb.entails((), parse_formula("(p x)")) == (not sat)
        assert kb.consistent_with((), (parse_formula("(p x)"),)) == sat
        for _ in range(2):
            with pytest.raises(ValidationError) as err:
                kb.entails((), query)
            assert str(err.value) == f"satisfiability needs ground formulas, got {print_formula(Not(query))}"
            for extra in ((query,), (Not(Not(query)),), (Not(query), Atom("q"))):
                with pytest.raises(ValidationError):
                    kb.consistent_with((), extra)
                with pytest.raises(ValidationError):
                    kb.jointly_consistent_with(extra)


# ------------------------------------------------------------ one verdict


#: atoms a0..a3, and x0, which no fact states (a hard rule may name it)
_VERDICT_ATOMS = st.sampled_from(("a0", "a1", "a2", "a3", "x0")).map(Atom)


def _under_nots(f, nots: int):
    for _ in range(nots):
        f = Not(f)
    return f


_verdict_literals = st.builds(_under_nots, _VERDICT_ATOMS, st.integers(0, 2))
_verdict_formulas = st.recursive(_verdict_literals, lambda kids: st.one_of(
    st.builds(Not, kids),
    st.builds(lambda a, b: And((a, b)), kids, kids),
    st.builds(lambda a, b: Or((a, b)), kids, kids),
    st.builds(Implies, kids, kids),
    st.builds(Iff, kids, kids),
), max_leaves=4)
#: a literal, a conjunction of literals, one under two `not`s, or any formula
_verdict_queries = st.one_of(
    _verdict_literals,
    st.lists(_verdict_literals, min_size=2, max_size=3).map(lambda ls: And(tuple(ls))),
    st.lists(_verdict_literals, min_size=2, max_size=3).map(lambda ls: Not(Not(And(tuple(ls))))),
    _verdict_formulas,
)


@settings(max_examples=200)
@pytest.mark.parametrize("contradiction", [False, True], ids=["any", "unsatisfiable"])
@given(
    facts=st.lists(_verdict_literals.filter(lambda f: "x0" not in f.key), max_size=3),
    rules=st.lists(st.builds(Implies, _verdict_formulas, _verdict_formulas), max_size=3),
    query=_verdict_queries,
)
def test_verdict_is_entailment_and_consistency_in_one(contradiction, facts, rules, query):
    # literal and literal-conjunction queries are decided from the tables in
    # one pass, any other formula by the two queries; both agree with
    # `entails` and `satisfiable_with` and with the enumeration oracle, at
    # satisfiable and unsatisfiable stores, grown along a lineage or not
    if contradiction:
        facts = facts + [Atom("a0"), Not(Atom("a0"))]
    store = Store(tuple(dict.fromkeys(facts)), tuple(dict.fromkeys(rules)))
    grown = Store()
    for f in store.facts:
        grown.compiled
        grown = grown.with_literal(f)
    for r in store.hard_rules:
        grown.compiled
        grown = grown.with_hard_rule(r)
    fs = store.formulas()
    expected = (reference.entails(fs, query), reference.satisfiable(fs + (query,)))
    for s in (store, grown):
        assert s.verdict(query) == (s.entails(query), s.satisfiable_with((query,))) == expected
