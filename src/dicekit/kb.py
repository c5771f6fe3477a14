"""Knowledge bases indexed by nested belief contexts.

A context path names whose viewpoint a store models: () is the interpreter's
own knowledge, ("A",) is the interpreter's model of A's knowledge, ("A", "I")
is the model of A's model of the interpreter, and so on up to a nesting bound.

Asserted Believes-facts are kept in sync with the nested stores in both
directions: (B a f) at path p also places f at p + (a,), and a fact landing at
a nested path surfaces one level up wrapped in (B a ...).  Mirrors that would
exceed the nesting bound are dropped silently; direct asserts beyond it raise.

Joint consistency can be configured to range over selected nested stores as
well as the root (the author's store, in discourse use): a hypothesis the
interpreter entertains must square both with what I believes and with what I
takes A to believe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from . import satcore
from .errors import DepthExceeded, SatTooLarge, ValidationError
from .formulas import (
    Att,
    Formula,
    Iff,
    Implies,
    Not,
    cached_attr,
    children,
    conjuncts,
    is_ground,
    print_formula,
    print_pattern,
    sat_atomic,
)

ContextPath = tuple[str, ...]


def _is_literal(f: Formula) -> bool:
    if isinstance(f, Not):
        return sat_atomic(f.body)
    return sat_atomic(f)


def _literal_conjunction(f: Formula) -> bool:
    return all(_is_literal(c) for c in conjuncts(f))


#: atoms by canonical key, and the same atoms by functor (see `Formula.functor`)
Atoms = tuple[Mapping[str, Formula], Mapping[tuple, tuple[Formula, ...]]]


def _atoms_of(formulas: Iterable[Formula]) -> dict[str, Formula]:
    """The opaque atoms of the formulas by canonical key, in first-seen order."""
    found: dict[str, Formula] = {}
    for f in formulas:
        todo = [f]
        while todo:
            g = todo.pop()
            if sat_atomic(g):
                found.setdefault(g.key, g)
            else:
                todo.extend(reversed(children(g)))
    return found


def _by_functor(atoms: Iterable[Formula]) -> dict[tuple, tuple[Formula, ...]]:
    """The atoms grouped by `Formula.functor`, each group in the given order."""
    out: dict[tuple, list[Formula]] = {}
    for a in atoms:
        out.setdefault(a.functor, []).append(a)
    return {k: tuple(v) for k, v in out.items()}


def indexed(keyed: Mapping[str, Formula]) -> Atoms:
    """Formulas by key, and the same formulas by functor."""
    return keyed, _by_functor(keyed.values())


@dataclass(frozen=True)
class Store:
    """One context's contents, formulas alone: its facts and its hard rules.
    Tuples, not sets: iteration order is load order, which keeps closure
    traces and SAT variable numbering reproducible.

    A store is never changed, only replaced, so what is derived from it is
    built once, on first use, and lives and dies with the store: the
    compiled form for satisfiability (every query against it compiles only
    itself, and a literal-shaped one compiles nothing), the compiled form of
    the hard rules alone for `engine.specificity`, the fact set and the
    hard-rule set for membership, and the opaque atoms by key and by
    functor for rule matching.  Each formula is keyed once (see
    `formulas`), so none of these re-prints a fact.

    A store made from a parent by `with_literal` or `with_hard_rule`
    extends what the parent has built instead of building it again: the
    compiled form by the new literal (`satcore.add_literal`) or hard rule
    (`satcore.add_formula`, which merges the groups the rule touches), the
    compiled hard rules by a new hard rule alone (a literal passes them on
    as they are), the fact set by the new fact, the hard-rule set by the
    new hard rule, and the atoms by the new formula's (a literal's one
    atom, read off without a walk, appended to its functor's group).  It
    also takes over the parent's `carry`, what the engine's last closure
    along this line of stores left for the next (see `engine._fixpoint`).
    Those three only
    append, so a descendant's facts and hard rules begin with its
    ancestor's, and so do its atoms, in first-seen order, once the ancestor
    has built them (see `atoms_since`).
    `KnowledgeBase.retract_fact`, which removes a fact, makes its store
    afresh: it starts a new lineage, with nothing built and no carry, as
    does every store made directly."""

    facts: tuple[Formula, ...] = ()
    hard_rules: tuple[Formula, ...] = ()

    def formulas(self) -> tuple[Formula, ...]:
        return self.facts + self.hard_rules

    def with_literal(self, f: Formula) -> "Store":
        """The store with one more fact, a ground literal, whose one atom is
        the child's atoms' only possible gain."""
        child = Store(self.facts + (f,), self.hard_rules)
        built, grown = self.__dict__, child.__dict__
        if "fact_set" in built:
            grown["fact_set"] = built["fact_set"] | {f}
        if "hard_rule_set" in built:  # a fact leaves the hard rules as they are
            grown["hard_rule_set"] = built["hard_rule_set"]
        if "hard_compiled" in built:
            grown["hard_compiled"] = built["hard_compiled"]
        if "compiled" in built:  # built, and did not raise
            try:
                grown["compiled"] = satcore.add_literal(built["compiled"], f)
            except SatTooLarge:
                pass  # the child's own compile raises on each query
        if "atoms" in built:
            atoms, index = built["atoms"], self.by_functor
            atom = f.body if isinstance(f, Not) else f
            if atom.key not in atoms:
                atoms = {**atoms, atom.key: atom}
                index = {**index, atom.functor: index.get(atom.functor, ()) + (atom,)}
            grown["atoms"], grown["by_functor"] = atoms, index
        if "carry" in built:
            grown["carry"] = built["carry"]
        return child

    def with_hard_rule(self, f: Formula) -> "Store":
        """The store with one more hard rule, a ground formula."""
        child = Store(self.facts, self.hard_rules + (f,))
        built, grown = self.__dict__, child.__dict__
        if "fact_set" in built:
            grown["fact_set"] = built["fact_set"]
        if "hard_rule_set" in built:
            grown["hard_rule_set"] = built["hard_rule_set"] | {f}
        for name in ("compiled", "hard_compiled"):
            if name in built:  # built, and did not raise
                try:
                    grown[name] = satcore.add_formula(built[name], f)
                except SatTooLarge:
                    pass  # the child's own compile raises on each query
        if "atoms" in built:
            atoms, index = built["atoms"], self.by_functor
            new = [a for k, a in _atoms_of((f,)).items() if k not in atoms]
            if new:
                atoms = {**atoms, **{a.key: a for a in new}}
                index = dict(index)
                for k, group in _by_functor(new).items():
                    index[k] = index.get(k, ()) + group
            grown["atoms"], grown["by_functor"] = atoms, index
        if "carry" in built:
            grown["carry"] = built["carry"]
        return child

    @cached_attr
    def fact_set(self) -> frozenset[Formula]:
        return frozenset(self.facts)

    @cached_attr
    def hard_rule_set(self) -> frozenset[Formula]:
        return frozenset(self.hard_rules)

    @cached_attr
    def compiled(self) -> satcore.Compiled:
        return satcore.compile_formulas(self.formulas())

    @cached_attr
    def hard_compiled(self) -> satcore.Compiled:
        """The compiled form of the hard rules alone, the base against which
        `engine.specificity` compares antecedents."""
        return satcore.compile_formulas(self.hard_rules)

    @cached_attr
    def atoms(self) -> dict[str, Formula]:
        """The opaque atoms of the store's facts and hard rules by canonical
        key.  Built apart from `compiled`, so asking for them never raises
        `SatTooLarge`."""
        return _atoms_of(self.formulas())

    @cached_attr
    def by_functor(self) -> dict[tuple, tuple[Formula, ...]]:
        """The store's atoms by `Formula.functor`: the atoms a pattern can match."""
        return _by_functor(self.atoms.values())

    def atoms_since(self, n: int) -> Atoms:
        """The store's atoms after its first n, in first-seen order.  Along a
        lineage the atoms only append, so once an ancestor has built its
        atoms, these are the atoms the store has gained since that ancestor
        had n, and no others."""
        return indexed(dict(itertools.islice(self.atoms.items(), n, None)))

    @cached_attr
    def carry(self):
        """What the engine's last closure of this store, or of its nearest
        closed ancestor, left for the next closure (see `engine._fixpoint`);
        opaque here, and never changed in place.  None when nothing did."""
        return None

    def keep_carry(self, carry) -> None:
        """Record what a closure that ended at this store leaves for the
        closures of the store and its descendants."""
        self.__dict__["carry"] = carry

    def entails(self, f: Formula) -> bool:
        return not satcore.satisfiable((), base=self.compiled, negated=f)

    def satisfiable_with(self, extra: tuple[Formula, ...]) -> bool:
        """Satisfiability of the store together with the extra formulas."""
        return satcore.satisfiable(extra, base=self.compiled)

    def verdict(self, f: Formula) -> tuple[bool, bool]:
        """Whether the store entails f, and whether f is consistent with it:
        `entails(f)` and `satisfiable_with((f,))`.  A literal or a
        conjunction of literals is decided from the compiled tables by one
        `satcore.verdict`; any other formula by the two queries.  Nothing is kept: a caller that asks
        again decides again."""
        if f.ground and f.literals is not None:
            return satcore.verdict(self.compiled, f.literals)
        return self.entails(f), self.satisfiable_with((f,))


@dataclass(frozen=True)
class KnowledgeBase:
    """Stores by context path, the nesting bound and the viewpoints that root
    consistency also checks.

    A knowledge base is never changed, only replaced (every assert returns a
    new one), so it carries a closure memo that lives and dies with it:
    `engine.defeasible_closure` records there the result of closing it at a
    path under a rule set and step bound, and answers the same closure again
    from the record.  Each query is decided against the store's compiled
    form (see `Store`)."""

    stores: dict[ContextPath, Store] = field(default_factory=dict)
    max_depth: int = 3
    #: nested paths whose stores must also be satisfiable for root consistency
    root_consistency_paths: tuple[ContextPath, ...] = ()

    # -- access ------------------------------------------------------------

    @cached_attr
    def _closures(self) -> dict:
        """The engine's closure memo (see `engine.defeasible_closure`)."""
        return {}

    def store_at(self, path: ContextPath) -> Store:
        store = self.stores.get(tuple(path))
        return Store() if store is None else store

    def paths(self) -> tuple[ContextPath, ...]:
        return tuple(sorted(self.stores))

    def facts_at(self, path: ContextPath) -> tuple[Formula, ...]:
        return self.store_at(path).facts

    def has_fact(self, path: ContextPath, f: Formula) -> bool:
        return f in self.store_at(path).fact_set

    # -- construction ------------------------------------------------------

    def _with_store(self, path: ContextPath, store: Store) -> "KnowledgeBase":
        stores = dict(self.stores)
        stores[tuple(path)] = store
        return KnowledgeBase(stores, self.max_depth, self.root_consistency_paths)

    def assert_fact(self, path: ContextPath, f: Formula, *, mirror: bool = True) -> "KnowledgeBase":
        """Add a ground literal (or conjunction of literals) at a path.

        With mirror=True (the default) Believes-facts propagate into the
        nested store and nested facts surface as wrapped beliefs above.
        """
        path = tuple(path)
        if not is_ground(f):
            raise ValidationError(f"facts must be ground: {print_pattern(f)}")
        kb = self
        for lit in conjuncts(f):
            kb = kb._assert_literal(path, lit, mirror)
        return kb

    def _assert_literal(self, path: ContextPath, f: Formula, mirror: bool) -> "KnowledgeBase":
        if not _is_literal(f):
            raise ValidationError(f"not a literal: {print_formula(f)}")
        if len(path) > self.max_depth:
            raise DepthExceeded(f"path {path} exceeds nesting bound {self.max_depth}")
        store = self.stores.get(path) or Store()
        if f in store.fact_set:
            return self  # idempotent; also terminates mirror ping-pong
        kb = KnowledgeBase({**self.stores, path: store.with_literal(f)}, self.max_depth, self.root_consistency_paths)
        if not mirror:
            return kb
        # downward: (B a body) at p puts body at p + (a,)
        if isinstance(f, Att) and f.kind == "B" and _literal_conjunction(f.body):
            inner = path + (f.agent,)
            if len(inner) <= self.max_depth:
                kb = kb.assert_fact(inner, f.body, mirror=True)
        # upward: a fact of agent a's store is a belief of a's one level up
        if path:
            kb = kb._assert_literal(path[:-1], Att("B", path[-1], f), mirror=True)
        return kb

    def retract_fact(self, path: ContextPath, f: Formula) -> "KnowledgeBase":
        """Remove a literal from one store (no mirror propagation: retraction
        is a deliberate, local act).  The store is made afresh, so it starts a
        new lineage (see `Store`)."""
        path = tuple(path)
        store = self.store_at(path)
        if f not in store.fact_set:
            return self
        return self._with_store(path, Store(tuple(x for x in store.facts if x != f), store.hard_rules))

    def add_hard_rule(self, path: ContextPath, f: Formula) -> "KnowledgeBase":
        path = tuple(path)
        if not is_ground(f):
            raise ValidationError(f"hard rules must be ground: {print_pattern(f)}")
        if not isinstance(f, (Implies, Iff)):
            raise ValidationError(f"hard rules are -> or <-> formulas: {print_formula(f)}")
        if len(path) > self.max_depth:
            raise DepthExceeded(f"path {path} exceeds nesting bound {self.max_depth}")
        store = self.store_at(path)
        if f in store.hard_rule_set:
            return self
        return self._with_store(path, store.with_hard_rule(f))

    # -- queries -----------------------------------------------------------

    def entails(self, path: ContextPath, f: Formula) -> bool:
        return self.store_at(path).entails(f)

    def consistent_with(self, path: ContextPath, extra: Iterable[Formula] = ()) -> bool:
        """Satisfiability of one store together with extra formulas."""
        return self.store_at(path).satisfiable_with(tuple(extra))

    def jointly_consistent_with(self, extra: Iterable[Formula] = ()) -> bool:
        """Satisfiability of the extras against the root store and each
        configured viewpoint store.  Hypotheses the interpreter entertains
        must square both with what I believes and with what I takes the
        author to believe; ordinary conclusions at the root need only local
        consistency (the author's picture may lag the interpreter's uptake).
        """
        extra = tuple(extra)
        for p in ((),) + tuple(self.root_consistency_paths):
            if not self.store_at(p).satisfiable_with(extra):
                return False
        return True

    def walk(self) -> Iterator[tuple[ContextPath, Store]]:
        for p in sorted(self.stores):
            yield p, self.stores[p]
