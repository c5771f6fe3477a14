"""Satisfiability, split by shared atoms, against assignment-at-a-time
enumeration."""

from __future__ import annotations

import gc
import random

import pytest

import reference
from dicekit import satcore
from dicekit.errors import SatTooLarge, ValidationError
from dicekit.formulas import And, Atom, Att, Iff, Not, Or, Yields, parse_formula


def test_empty_store_is_satisfiable():
    assert satcore.satisfiable(())


def test_direct_contradiction_is_unsatisfiable():
    p = Atom("p")
    assert not satcore.satisfiable((p, Not(p)))


def test_implies_and_iff_encodings():
    p, q = Atom("p"), Atom("q")
    assert not satcore.satisfiable((Iff(p, q), p, Not(q)))
    assert satcore.satisfiable((Iff(p, q), Not(p), Not(q)))
    assert not satcore.satisfiable((parse_formula("(-> p q)"), p), negated=q)
    assert satcore.satisfiable((parse_formula("(-> p q)"),), negated=q)


def test_opaque_atoms_are_keyed_by_canonical_print():
    b = Att("B", "I", Atom("p"))
    assert not satcore.satisfiable((b, Not(Att("B", "I", Atom("p")))))
    y = Yields(Atom("p"), Atom("q"))
    # a yields-atom is one variable, unrelated to its parts
    assert satcore.satisfiable((y, Not(Atom("p")), Not(Atom("q"))))


def test_compile_program_numbers_atoms_first_seen():
    index: dict[str, int] = {}
    assert satcore.compile_program(parse_formula("(and q p)"), index) == [0, 1, satcore.OP_AND]
    assert satcore.compile_program(parse_formula("(or r0 (not q))"), index) == [
        2, 0, satcore.OP_NOT, satcore.OP_OR,
    ]
    assert index == {"q": 0, "p": 1, "r0": 2}


def test_compiling_leaves_no_reference_cycle():
    fs = tuple(parse_formula(t) for t in ("(-> p (and q (not r)))", "(<-> q (or r s))"))
    gc.disable()
    try:
        gc.collect()
        base = satcore.compile_formulas(fs)
        assert satcore.satisfiable((parse_formula("(or p s)"),), base=base)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_variable_cap_enforced():
    # one connected group of MAX_VARS + 1 variables: p0 -> p1 -> ... -> p25
    n = satcore.MAX_VARS + 1
    fs = tuple(parse_formula(f"(-> p{i} p{i + 1})") for i in range(n - 1))
    with pytest.raises(SatTooLarge):
        satcore.satisfiable(fs)


def test_variable_cap_does_not_depend_on_formula_order():
    # an unsatisfiable group and an over-cap group: the cap is checked first
    q = Atom("q")
    chain = [parse_formula(f"(-> p{i} p{i + 1})") for i in range(satcore.MAX_VARS)]
    for fs in ([q, Not(q)] + chain, chain + [q, Not(q)]):
        with pytest.raises(SatTooLarge):
            satcore.satisfiable(fs)
        with pytest.raises(SatTooLarge):
            satcore.compile_formulas(fs)
    # through a compiled base: an unsatisfiable base does not hide the extras' group
    with pytest.raises(SatTooLarge):
        satcore.satisfiable(chain, base=satcore.compile_formulas([q, Not(q)]))


def test_query_that_bridges_two_base_groups_over_the_cap_raises():
    half = satcore.MAX_VARS // 2 + 1
    left = [parse_formula(f"(-> p{i} p{i + 1})") for i in range(half - 1)]
    right = [parse_formula(f"(-> r{i} r{i + 1})") for i in range(half - 1)]
    base = satcore.compile_formulas(left + right)
    assert base.sat and len(base.groups) == 2
    assert satcore.satisfiable([Atom("p0")], base=base)
    with pytest.raises(SatTooLarge):
        satcore.satisfiable([parse_formula(f"(-> p{half - 1} r0)")], base=base)
    with pytest.raises(SatTooLarge):
        satcore.add_formula(base, parse_formula(f"(-> p{half - 1} r0)"))


def test_compiled_base_numbers_new_atoms_after_its_own():
    base = satcore.compile_formulas([parse_formula("(-> p q)"), Atom("r")])
    assert base.index == {"p": 0, "q": 1, "r": 2}
    new: dict[str, int] = {}
    prog = satcore.compile_program(parse_formula("(and s q)"), new, base.index)
    assert prog == [3, 1, satcore.OP_AND] and new == {"s": 3}
    assert base.index == {"p": 0, "q": 1, "r": 2}  # the base index is not copied or grown
    assert not satcore.satisfiable([Atom("p"), Not(Atom("q"))], base=base)
    assert satcore.satisfiable([Atom("s"), Not(Atom("p"))], base=base)
    unsat = satcore.compile_formulas([Atom("r"), Not(Atom("r"))])
    assert not unsat.sat and not satcore.satisfiable([Atom("s")], base=unsat)


def test_add_literal_extends_a_base_without_compiling(monkeypatch):
    base = satcore.compile_formulas([parse_formula("(-> p q)"), Atom("r")])
    before = (dict(base.index), [(list(vs), [list(p) for p in ps]) for vs, ps in base.groups], base.tables)
    monkeypatch.setattr(satcore, "compile_program", None)  # neither a child nor a literal query compiles
    not_q = satcore.add_literal(base, Not(Atom("q")))
    assert not_q.index is base.index and not_q.sat
    assert not satcore.satisfiable([Atom("p")], base=not_q)
    assert satcore.satisfiable([Not(Not(Atom("r")))], base=not_q)
    s = satcore.add_literal(not_q, Not(Not(Atom("s"))))  # a new atom: a group of its own
    assert s.index == {"p": 0, "q": 1, "r": 2, "s": 3} and s.groups[-1] == ([3], [[3, satcore.OP_NOT, satcore.OP_NOT]])
    assert not satcore.satisfiable([Not(Atom("s"))], base=s)
    both = satcore.add_literal(s, Not(Atom("s")))
    assert s.sat and not both.sat and not satcore.satisfiable([Atom("t")], base=both)
    # the bases are read-only: each child shares what it did not change
    assert (base.index, [(vs, ps) for vs, ps in base.groups], base.tables) == before


def test_non_ground_formulas_rejected():
    literal = parse_formula("(p ?x)")
    q = Atom("q")
    # a literal set is checked before any table is read, before an
    # unsatisfiable base answers False, and before a complementary pair does
    for base in (None, satcore.compile_formulas([parse_formula("(p x)")]),
                 satcore.compile_formulas([q, Not(q)])):
        for fs in ((literal,), (Not(Not(literal)),), (literal, q), (Or((literal, q)),),
                   (And((q, literal)),), (Not(And((q, literal))),), (q, Not(q), literal),
                   (Not(And((q, Not(q)))), Not(And((q, literal))))):
            with pytest.raises(ValidationError):
                satcore.satisfiable(fs, base=base)


def _literal_shaped(rng, atoms) -> list:
    """Extras that form a literal set: literals (double negations, repeats
    and complementary pairs among them), `and`s of literals, nested or not,
    and at most one negated conjunction of literals."""

    def literal():
        f = reference.random_literal(rng, atoms)
        return Not(Not(f)) if rng.random() < 0.2 else f

    def conjunction(depth=0):
        return And(tuple(conjunction(depth + 1) if depth == 0 and rng.random() < 0.2 else literal()
                         for _ in range(rng.randint(2, 3))))

    extras = [literal() for _ in range(rng.randint(0, 3))]
    if extras and rng.random() < 0.3:
        extras.append(rng.choice(extras))
    if extras and rng.random() < 0.3:
        extras.append(Not(rng.choice(extras)))
    extras += [conjunction() for _ in range(rng.choice((0, 0, 1, 2)))]
    if rng.random() < 0.5:
        negated = Not(conjunction())
        extras.append(Not(Not(negated)) if rng.random() < 0.2 else negated)
    rng.shuffle(extras)
    return extras


def _negated_conjunction(f) -> bool:
    nots = 0
    while isinstance(f, Not):
        f, nots = f.body, nots + 1
    return nots % 2 == 1 and isinstance(f, And)


def test_literal_sets_are_decided_from_the_tables_and_match_enumeration_oracle(monkeypatch):
    # bases of several groups, satisfiable or not; literal-shaped extras over
    # their atoms and atoms they lack, decided with nothing compiled, alone
    # and beside a literal or conjunction passed as `negated`
    rng, queries = random.Random(1995), random.Random(1996)
    seen_sat = seen_unsat = seen_unsat_base = seen_negated = 0
    for _ in range(40):
        atoms = [f"a{i}" for i in range(rng.randint(6, 9))]
        groups = _split(rng, atoms, rng.randint(2, 3))
        fs = [f for g in groups for f in _group_formulas(rng, g, rng.randint(0, 2))]
        base = satcore.compile_formulas(fs)
        seen_unsat_base += not base.sat
        with monkeypatch.context() as m:
            m.setattr(satcore, "compile_program", None)
            for _ in range(12):
                extras = _literal_shaped(rng, atoms + ["x0", "x1"])
                expected = reference.satisfiable(fs + extras)
                assert satcore.satisfiable(extras, base=base) == expected
                assert satcore.satisfiable(extras) == reference.satisfiable(extras)
                seen_sat += expected
                seen_unsat += not expected
                seen_negated += any(_negated_conjunction(f) for f in extras)
                pool = atoms + ["x0", "x1"]
                query = reference.random_literal(queries, pool)
                if queries.random() < 0.5:
                    query = And((query, reference.random_literal(queries, pool)))
                rest = [f for f in extras if not _negated_conjunction(f)]
                expected = reference.satisfiable(fs + rest + [Not(query)])
                assert satcore.satisfiable(rest, base=base, negated=query) == expected
    assert seen_sat and seen_unsat and seen_unsat_base and seen_negated


def test_formulas_beyond_a_literal_set_are_compiled():
    # two negated conjunctions, a negated conjunction inside a conjunction,
    # or an `or` beside a negated conjunction are no literal set: they are
    # compiled, and agree with the oracle
    rule = parse_formula("(-> p q)")
    base = satcore.compile_formulas([rule])
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    for extras in ([q, Not(And((p, q))), Not(And((Not(p), q)))],
                   [p, Not(And((q, Not(And((r, q))))))],
                   [Not(Not(Not(And((p, q))))), p, Not(Or((r, q)))]):
        assert satcore.satisfiable(extras, base=base) == reference.satisfiable([rule] + extras)


def test_kernels_match_enumeration_oracle():
    rng = random.Random(1234)
    atoms = [f"p{i}" for i in range(8)]
    for _ in range(150):
        fs = [
            reference.random_formula(rng, atoms, rng.randint(0, 3))
            for _ in range(rng.randint(1, 6))
        ]
        assert satcore.satisfiable(fs) == reference.satisfiable(fs)
        query = reference.random_formula(rng, atoms, rng.randint(0, 2))
        assert satcore.satisfiable(fs, negated=query) != reference.entails(fs, query)


def test_kernels_handle_wide_instances():
    # 18 variables: wide enough to exercise multi-block enumeration
    fs = [parse_formula(f"(-> p{i} p{i + 1})") for i in range(18)]
    assert satcore.satisfiable(fs)
    assert not satcore.satisfiable(fs + [Atom("p0")], negated=Atom("p18"))
    assert not satcore.satisfiable(fs + [Atom("p0"), Not(Atom("p18"))])


def _split(rng, atoms, n_groups):
    atoms = list(atoms)
    rng.shuffle(atoms)
    cuts = sorted(rng.sample(range(1, len(atoms)), n_groups - 1))
    return [atoms[i:j] for i, j in zip([0] + cuts, cuts + [len(atoms)])]


def _group_formulas(rng, group, n_extra):
    """A clause over every atom of the group (so all of them occur and the
    group is connected), plus random formulas over the group's atoms."""
    clause = [reference.random_literal(rng, [a]) for a in group]
    fs = [Or(tuple(clause)) if len(clause) > 1 else clause[0]]
    fs += [reference.random_formula(rng, group, rng.randint(0, 3)) for _ in range(n_extra)]
    return fs


def test_disjoint_groups_match_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(12):
        atoms = [f"a{i}" for i in range(rng.randint(12, 14))]
        groups = _split(rng, atoms, rng.randint(3, 5))
        fs = [f for g in groups for f in _group_formulas(rng, g, rng.randint(0, 2))]
        rng.shuffle(fs)
        assert satcore.satisfiable(fs) == reference.satisfiable(fs)
        # a query inside one group, and one that bridges two groups
        g1, g2 = rng.sample(groups, 2)
        for query in (reference.random_formula(rng, g1, 2),
                      reference.random_formula(rng, g1 + g2, 2)):
            assert satcore.satisfiable(fs, negated=query) != reference.entails(fs, query)


def _partition(compiled: satcore.Compiled) -> set[frozenset[str]]:
    key_of = {v: k for k, v in compiled.index.items()}
    return {frozenset(key_of[v] for v in vs) for vs, _ in compiled.groups}


def test_add_formula_merges_the_groups_it_touches():
    # one formula at a time over disjoint groups, some over a new atom, some
    # bridging two groups: the extended form agrees with compiling everything
    rng = random.Random(1987)
    seen_unsat = 0
    for _ in range(30):
        atoms = [f"c{i}" for i in range(rng.randint(8, 10))]
        groups = _split(rng, atoms, rng.randint(2, 4))
        fs = [f for g in groups for f in _group_formulas(rng, g, 0)]
        compiled = satcore.compile_formulas(fs)
        for _ in range(rng.randint(1, 4)):
            over = rng.choice(groups) + rng.choice(([], ["x0"], rng.choice(groups)))
            f = reference.random_formula(rng, over, rng.randint(1, 2))
            compiled = satcore.add_formula(compiled, f)
            fs.append(f)
            whole = satcore.compile_formulas(fs)
            assert compiled.sat == whole.sat == reference.satisfiable(fs)
            assert _partition(compiled) == _partition(whole)
            for v, k in enumerate(sorted(compiled.index, key=compiled.index.get)):
                vs = compiled.groups[compiled.group_of[v]][0]
                assert compiled.index[k] == v and vs[compiled.position[v]] == v
            query = reference.random_formula(rng, atoms + ["x0", "x1"], 2)
            assert satcore.satisfiable([query], base=compiled) == reference.satisfiable(fs + [query])
            seen_unsat += not compiled.sat
    assert seen_unsat


def test_add_formula_numbers_again_only_the_groups_it_merges_or_moves():
    # eight groups of one atom each; a rule over c1, c3, c5 and a new atom
    # merges their groups into c1's place, the last two groups fill the places
    # it frees, and the variables of the other groups keep their numbers.
    # The base is left as it was
    base = satcore.compile_formulas([Atom(f"c{i}") for i in range(8)])
    before = (dict(base.index), base.groups, base.tables, list(base.group_of), list(base.position))
    grown = satcore.add_formula(base, parse_formula("(-> c1 (or c3 (and c5 x)))"))
    assert (base.index, base.groups, base.tables, base.group_of, base.position) == before
    key_of = {v: k for k, v in grown.index.items()}
    assert [sorted(key_of[v] for v in vs) for vs, _ in grown.groups] == [
        ["c0"], ["c1", "c3", "c5", "x"], ["c2"], ["c6"], ["c4"], ["c7"]]
    for v in (0, 2, 4):
        assert (grown.group_of[v], grown.position[v]) == (base.group_of[v], base.position[v])
    for v in key_of:
        assert grown.groups[grown.group_of[v]][0][grown.position[v]] == v
    assert grown.sat and satcore.satisfiable([Atom("x")], base=grown)
    assert not satcore.satisfiable([Not(Atom("x")), Not(Atom("c3"))], base=grown)


def test_one_unsatisfiable_group_decides_the_instance():
    rng = random.Random(77)
    checked = 0
    while checked < 25:
        groups = _split(rng, [f"b{i}" for i in range(12)], 4)
        parts = [_group_formulas(rng, g, 3) for g in groups]
        unsat = [k for k, fs in enumerate(parts) if not reference.satisfiable(fs)]
        if len(unsat) != 1:
            continue
        fs = [f for part in parts for f in part]
        rng.shuffle(fs)
        assert not satcore.satisfiable(fs)
        rest = [f for k, part in enumerate(parts) if k != unsat[0] for f in part]
        assert satcore.satisfiable(rest)
        checked += 1


def test_queries_over_atoms_disjoint_from_the_store():
    rng = random.Random(99)
    store_atoms = [f"s{i}" for i in range(6)]
    query_atoms = [f"q{i}" for i in range(3)]
    for _ in range(100):
        fs = [reference.random_formula(rng, store_atoms, rng.randint(0, 3))
              for _ in range(rng.randint(1, 5))]
        query = reference.random_formula(rng, query_atoms, rng.randint(0, 3))
        expected = reference.entails(fs, query)
        # only an inconsistent store or a valid query gives an entailment
        assert expected == (not reference.satisfiable(fs) or reference.entails((), query))
        assert satcore.satisfiable(fs, negated=query) != expected


def test_many_small_groups_stay_under_the_cap():
    # 40 atoms as 20 pairs, each pair "exactly one of x, y": satisfiable,
    # although 40 variables in one table would exceed the cap
    fs = []
    for i in range(20):
        fs.append(parse_formula(f"(or x{i} y{i})"))
        fs.append(parse_formula(f"(not (and x{i} y{i}))"))
    assert satcore.satisfiable(fs)
    assert not satcore.satisfiable(fs + [Atom("x7")], negated=Not(Atom("y7")))
    assert satcore.satisfiable(fs + [Atom("x7")], negated=Atom("x8"))
    assert not satcore.satisfiable(fs + [Not(Atom("x19")), Not(Atom("y19"))])
