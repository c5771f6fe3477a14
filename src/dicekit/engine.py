"""Defeasible inference: closure, specificity, nonmonotonic consequence, abduction.

The closure operator repeatedly fires rules whose instantiated antecedents are
entailed at a context path.  Hard rules fire unconditionally; a default fires
only when its consequent is consistent with the store and the instance is not
defeated.  Two applicable defaults conflict when their consequents are jointly
unsatisfiable with the store; the one whose antecedent strictly entails the
other's (under the path's hard rules) wins and fires in Penguin mode, and when
neither antecedent is strictly stronger both stay silent -- sceptical
resolution.  The result does not depend on the order of the rules: a round
collects its candidate instances and fires them in one canonical order.

Patterns bind against a store in one place, `bind`, for the closure's rules
and the Result/Evidence driver's witness alike.  A conjunct that is opaque to
the SAT layer, or the negation or eventuality of such a formula, is anchored
(see `_anchors`): a satisfiable store entails it only if an instance of it is
among the store's atoms, so binding it from the atoms is exact, and finds the
groundings that hold through a hard rule alone.  Other conjuncts (an `or`,
say) can hold with no atom at all, so they bind nothing: a rule is
range-restricted, every variable of such a conjunct occurring in an anchored
one (Datalog's safety condition, checked by `DefaultRule`), and `holds` checks
them once the anchored conjuncts have bound them.  A grounded pattern that is
only looked up among the atoms is not built: its key comes from
`formulas.ground_key`, and an instance's opaque antecedent conjuncts are the
store's own atoms (see `rule_instances` and `entailed_instance`).  A ground
rule binds nothing: it is its own one instance once each anchored conjunct
has an anchor among the atoms (see `rule_instances`).  Abduction, whose
hypotheses need not hold, binds from the facts and, for a formula
metavariable that no fact binds, from the candidate pool; a variable that
nothing binds yields no hypothesis, whatever the number of constants.  A
pattern meets only the atoms or facts of its functor (see `_candidates`).

`yields` atoms are evaluated lazily: when a driver or abduction needs
(yields f g) at a path, the engine closes the store there with and without f
and compares -- g must follow from the augmented store but not from the store
alone.  The store alone is closed first, and when its closure entails g the
augmented store is not closed at all.  Inside closure itself, yields-atoms in
rule antecedents hold only if the store entails them (as a verified fact,
say), never by nested closure, which keeps hypothetical reasoning from
recursing without bound.

Knowledge bases and stores are immutable, so work on them is done once.  A
closure is recorded on the knowledge base it closes, keyed by path, the
set of active rules and step bound (see `defeasible_closure`), and the
closure of the store plus f on the knowledge base without f, keyed by f
too (see `closed_pair`), since asserting f makes a new knowledge base every
time: each closure a `yields` test needs is computed once per knowledge
base, and a repeated test, or another g for the same f, is a lookup.

Closures follow the lineage of the store they close (see `kb.Store`): a
store made from another by asserting facts or adding hard rules only
grows, and so does the store inside one closure.  Each closure leaves a
carry on the store it ends at, and on the store it started from as that
store stood after the first round (see `_fixpoint`): for each rule, by
identity, its instances and those whose consequent has held, is blocked
(inconsistent with the store) or is barred by a negation-as-absence premise
that holds, which are settled for good, so a block is noted once along a
lineage; the rules that are awake, with instances not
yet settled or atoms to bind; and an index of the rules' anchors, which is
extended as rules join the lineage and never rebuilt.  A later closure of
a descendant starts from that carry, round by round alike.  A rule binds
once as it joins the lineage, the intention-update schema too, whose
builtin builds each instance from a binding (see `rule_instances`): a round
has no other source of instances.  The index maps the atoms gained since the
last round, by key or by functor, to the rules they may touch, which wake
and bind again, from the new atoms first (a semi-naive delta, see
`bind`).  A round reads the awake rules alone, so it costs what its new
atoms touch, not what the rule set holds, and an instance that cannot
apply, since no grounded anchor of one of its conjuncts is among the
store's atoms, is not built until such an atom arrives.  A rule one of
whose anchored conjuncts has no atom of an anchor's functor in the store
binds nothing at all (see `can_bind`): it returns before `bind` when it
joins or wakes, and a new atom that touches it leaves it asleep.  The atom
that later fills the conjunct wakes it, and the semi-naive pass joins that
atom with the old ones, so nothing is lost.  A closure whose store's carry
is current, with every active rule carried and none awake, is idle: it
returns its input without a round.  A store that `retract_fact` makes,
and any store made directly, starts a new lineage with no carry: the same
code with nothing carried.  Within a closure, each pair of antecedents is
compared by `specificity` once, and within a round, each pair of
applicable instances is checked for joint consistency once, and each
instance's consequent is decided once, whether it holds and whether it is
consistent with the store, by one `Store.verdict`, which the round's
firing reuses until its first assert.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Container, NamedTuple

from . import satcore
from .errors import StepBoundExceeded, ValidationError
from .formulas import (
    And,
    Att,
    Binding,
    Doing,
    Eventually,
    FVar,
    Formula,
    Not,
    Plan,
    Yields,
    cached_attr,
    conjuncts,
    ground_key,
    instantiate,
    is_ground,
    match,
    parse_formula,
    print_formula,
    print_pattern,
    sat_atomic,
)
from .kb import Atoms, ContextPath, KnowledgeBase, indexed


# ----------------------------------------------------------------------- rules


@dataclass(frozen=True)
class DefaultRule:
    """A named rule `antecedent > consequent` (hard=True makes it monotonic).

    abducible lists antecedent positions that abduction may hypothesize.
    absent lists negation-as-absence premises: the rule fires only when none
    of them holds (flagged in the trace when used).  scope is the context
    path whose closures the rule joins, the root by default, or "everywhere"
    for closures at every path.  driver=True marks rules applied by a
    dedicated procedure rather than the closure loop; builtin names a
    procedure (in `_BUILTINS`) that builds the rule's instances from each
    binding of its antecedent, in place of instantiating its consequent.

    Rules are range-restricted: each variable of a conjunct without
    `_anchors` occurs in an anchored one, the only ones `bind` binds.
    """

    name: str
    antecedent: tuple[Formula, ...]
    consequent: Formula
    hard: bool = False
    abducible: frozenset[int] = frozenset()
    absent: tuple[Formula, ...] = ()
    scope: ContextPath | str = ()
    driver: bool = False
    builtin: str | None = None
    note: str = ""

    @cached_attr
    def ground(self) -> bool:
        """No variable in the antecedent, the consequent or `absent`, and no
        builtin: the rule has one instance, itself (see `rule_instances`)."""
        return not self.builtin and not any(
            f.variables for f in (*self.antecedent, self.consequent, *self.absent)
        )

    def __post_init__(self):
        if self.scope != "everywhere" and not isinstance(self.scope, tuple):
            raise ValidationError(f"bad rule scope {self.scope!r}")
        if not self.antecedent:
            raise ValidationError(f"rule {self.name} has an empty antecedent")
        for i in self.abducible:
            if not 0 <= i < len(self.antecedent):
                raise ValidationError(f"abducible index {i} out of range in rule {self.name}")
        bound = frozenset().union(*(p.variables for p, _ in anchored_conjuncts(self.antecedent)))
        for p in self.antecedent:
            unbound = p.variables - bound
            if unbound:
                raise ValidationError(
                    f"rule {self.name}: conjunct {print_pattern(p)} leaves"
                    f" {', '.join('?' + v for v in sorted(unbound))} unbound; each variable of"
                    " a compound conjunct must occur in an atomic, negated or eventual one"
                )


Anchored = tuple[tuple[Formula, tuple[Formula, ...]], ...]


def anchored_conjuncts(patterns) -> Anchored:
    """The anchored ones among the conjuncts, in order, each with its
    `_anchors`: the conjuncts that `bind` binds."""
    return tuple((p, a) for p in patterns if (a := _anchors(p)) is not None)


def _anchors(pat: Formula) -> tuple[Formula, ...] | None:
    """The opaque patterns of which a ground instance of the conjunct must
    match one among a satisfiable store's atoms to hold there under the
    closure's context-free `holds`; None when it can hold otherwise.

    A satisfiable store entails an opaque formula, or its negation, only if
    the formula is one of its atoms; an eventuality holds also through its
    body.  A formula metavariable of no shape can stand for a compound
    formula, so it is no anchor, and every anchor has a functor."""
    if isinstance(pat, Eventually):
        inner = _anchors(pat.body)
        return None if inner is None else (pat,) + inner
    body = pat.body if isinstance(pat, Not) else pat
    opaque = body.shape is not None if isinstance(body, FVar) else sat_atomic(body)
    return (body,) if opaque else None


def _as_formula(x) -> Formula:
    return x if isinstance(x, Formula) else parse_formula(x)


def make_rule(name: str, antecedent, consequent, **kw) -> DefaultRule:
    if "absent" in kw:
        kw["absent"] = tuple(_as_formula(a) for a in kw["absent"])
    return DefaultRule(
        name=name,
        antecedent=tuple(_as_formula(a) for a in antecedent),
        consequent=_as_formula(consequent),
        **kw,
    )


# ----------------------------------------------------------------------- trace


def render_binding(b: Binding) -> str:
    if not b:
        return "{}"
    return "{" + ", ".join(f"{k}={b[k]}" for k in sorted(b)) + "}"


@dataclass(frozen=True)
class InferenceStep:
    index: int
    mode: str  # DMP | Penguin | Hard | Abduction
    rule: str
    binding: str
    added: tuple[Formula, ...]

    def line(self) -> str:
        added = "; ".join(print_formula(f) for f in self.added)
        return f"step {self.index} {self.mode} {self.rule} {self.binding} => {added}"


class Trace:
    def __init__(self):
        self.entries: list = []
        self._n = 0

    def step(self, mode: str, rule: str, binding, added) -> InferenceStep:
        self._n += 1
        rendered = binding if isinstance(binding, str) else render_binding(binding)
        st = InferenceStep(self._n, mode, rule, rendered, tuple(added))
        self.entries.append(st)
        return st

    def note(self, text: str) -> None:
        self.entries.append(text)

    def steps(self) -> tuple[InferenceStep, ...]:
        return tuple(e for e in self.entries if isinstance(e, InferenceStep))

    def lines(self) -> list[str]:
        return [e.line() if isinstance(e, InferenceStep) else e for e in self.entries]

    def __str__(self) -> str:
        return "\n".join(self.lines())


# ----------------------------------------------------------- lazy entailment


@dataclass(frozen=True)
class EvalContext:
    """The rule set and step bound under which `holds` evaluates yields-atoms
    by nested closure; the closures are recorded on the knowledge bases they
    close (see `defeasible_closure`), not here."""

    rules: tuple[DefaultRule, ...] = ()
    max_steps: int = 1000


def holds(kb: KnowledgeBase, path: ContextPath, f: Formula, ctx: EvalContext | None = None) -> bool:
    """Entailment at a path, with eventuality discharge and (when a context is
    supplied) lazy evaluation of yields-atoms by nested closure."""
    if kb.entails(path, f):
        return True
    match f:
        case Eventually(body):
            return holds(kb, path, body, ctx)
        case And(parts):
            return all(holds(kb, path, p, ctx) for p in parts)
        case Yields(left, right) if ctx is not None:
            return nonmon_yields(kb, ctx.rules, path, left, right, max_steps=ctx.max_steps)
        case Att("B", agent, Yields(left, right)) if ctx is not None:
            inner = tuple(path) + (agent,)
            if len(inner) <= kb.max_depth:
                return nonmon_yields(kb, ctx.rules, inner, left, right, max_steps=ctx.max_steps)
            return False
        case _:
            return False


def entailed_instance(kb: KnowledgeBase, path: ContextPath, pattern: Formula, b: Binding) -> Formula | None:
    """The instance of an opaque pattern (see `formulas.sat_atomic`) under a
    binding when the store at path entails it, else None.  A satisfiable
    store entails an opaque formula only if it is one of the store's atoms
    (the argument of `_anchors`), so the instance is looked up among them
    by its `ground_key`, nothing is built, and what is returned is the
    store's own atom.  An unsatisfiable store entails every formula, so
    there the instance is built and asked."""
    store = kb.store_at(path)
    if store.compiled.sat:
        atom = store.atoms.get(ground_key(pattern, b))
        return atom if atom is not None and store.entails(atom) else None
    f = instantiate(pattern, b)
    return f if store.entails(f) else None


def closed_pair(
    kb: KnowledgeBase, path: ContextPath, added: Formula, ctx: EvalContext
) -> tuple[KnowledgeBase, KnowledgeBase]:
    """The closures at path of the store alone and of the store plus `added`,
    under the context's rules and step bound.  One pair answers every
    yields-question about `added` there, and each is computed once per
    knowledge base: the first by `defeasible_closure`'s memo, the second
    by `_closed_with`'s, also on `kb`."""
    base = defeasible_closure(kb, ctx.rules, path, max_steps=ctx.max_steps).kb
    return base, _closed_with(kb, path, added, ctx)


def _closed_with(kb: KnowledgeBase, path: ContextPath, added: Formula, ctx: EvalContext) -> KnowledgeBase:
    """The closure at path of the store plus `added`, recorded on `kb`,
    whose every assert makes a new knowledge base with an empty memo.  The
    record is keyed by the path, `added`'s key, the set of the rules'
    identities (the record keeps them alive) and the step bound, and holds
    None when the closure is `kb` itself, so that a knowledge base never
    refers to itself.  A closure that raises records nothing."""
    key = (tuple(path), added.key, frozenset(map(id, ctx.rules)), ctx.max_steps)
    record = kb._closures.get(key)
    if record is None:
        out = defeasible_closure(kb.assert_fact(path, added), ctx.rules, path, max_steps=ctx.max_steps).kb
        kb._closures[key] = record = (ctx.rules, None if out is kb else out)
    return kb if record[1] is None else record[1]


def nonmon_yields(
    kb: KnowledgeBase,
    rules,
    path: ContextPath,
    phi: Formula,
    psi: Formula,
    *,
    max_steps: int = 1000,
) -> bool:
    """phi defeasibly yields psi against the store at path: the closure of the
    store plus phi entails psi, while the closure of the store alone does not,
    under the rules and the step bound.

    The closure of the store alone is decided first, and when it entails
    psi the answer is no and the store plus phi is not closed at all, so
    that closure cannot raise `StepBoundExceeded`.  Both closures are
    recorded on `kb` (see `closed_pair`), so a repeated query, or another
    psi for the same phi, closes nothing anew, and a closure that raises
    raises again."""
    ctx = EvalContext(tuple(rules), max_steps)
    base = defeasible_closure(kb, ctx.rules, path, max_steps=max_steps).kb
    return not holds(base, path, psi, ctx) and holds(_closed_with(kb, path, phi, ctx), path, psi, ctx)


# ------------------------------------------------------------------ specificity


def specificity(a: tuple[Formula, ...], b: tuple[Formula, ...], kb: KnowledgeBase, path: ContextPath = ()) -> str:
    """Compare two ground antecedents, tuples of conjuncts, under the path's
    hard rules alone.

    Returns "first" when the first antecedent strictly entails the second,
    "second" for the converse, else "incomparable" (including mutual
    entailment -- neither is more specific).

    `a` entails `b` under the hard rules H when, for each conjunct d of b,
    a plus (not d) is unsatisfiable against the store's compiled form of H
    (`Store.hard_compiled`, extended along the store's lineage).  d goes to
    `satcore.satisfiable` as `negated`, so no (not d) node is built.  So
    only the antecedents are ever decided, and literal ones compile nothing.
    """
    hard = kb.store_at(path).hard_compiled

    def entails(src, dst) -> bool:
        return not any(satcore.satisfiable(src, base=hard, negated=d) for d in dst)

    fwd = entails(a, b)
    back = entails(b, a)
    if fwd and not back:
        return "first"
    if back and not fwd:
        return "second"
    return "incomparable"


# ---------------------------------------------------------------------- closure


@dataclass(frozen=True)
class _Inst:
    rule: DefaultRule
    binding: Binding
    ants: tuple[Formula, ...]
    cons: Formula
    key: str
    absent: tuple[Formula, ...]  # negation-as-absence premises, grounded


@dataclass(frozen=True)
class ClosureResult:
    kb: KnowledgeBase
    steps: tuple[InferenceStep, ...]


def _extend_bindings(pat: Formula, bindings, facts: Atoms, fvar_pool=None):
    """Abduction's binding extension by one conjunct: match the facts of its
    functor under each binding, and failing them bind formula metavariables
    from the candidate pool (when given), since a hypothesis need not hold.
    A variable that neither binds (a term variable no fact matches, say)
    drops the binding: no constant is guessed."""
    out: dict[str, Binding] = {}
    for b in bindings:
        unbound = pat.variables - b.keys()
        if not unbound:
            out.setdefault(render_binding(b), b)
            continue
        matched = [m for f in _candidates(pat, facts) if (m := match(pat, f, b)) is not None]
        if not matched and fvar_pool and unbound <= pat.fvar_names and all(n in fvar_pool for n in unbound):
            names = sorted(unbound)
            for combo in itertools.product(*(tuple(fvar_pool[n]) for n in names)):
                matched.append({**b, **dict(zip(names, combo))})
        for m in matched:
            out.setdefault(render_binding(m), m)
    return list(out.values())


def _candidates(pat: Formula, atoms: Atoms):
    """The formulas a pattern can match: those of its functor, or all."""
    keys, index = atoms
    head = pat.functor
    return keys.values() if head is None else index.get(head, ())


def _bind_conjunct(bindings, pat: Formula, anchors, atoms: Atoms, old: Container[str] = ()) -> list[Binding]:
    """Extend each binding by one anchored conjunct from the atoms, less any
    whose key is in `old`.  A conjunct the binding already grounds binds
    nothing, and the binding stays only if one of the grounded anchors is
    among the atoms, looked up by its `ground_key`: otherwise the conjunct
    cannot hold.  The bindings bind the same variables, so a binding is
    told from another by its values, in one order of its variables."""
    out: dict[tuple, Binding] = {}
    names = None
    for b in bindings:
        if pat.variables <= b.keys():
            for anchor in anchors:
                try:
                    key = ground_key(anchor, b)
                except ValidationError:  # a formula metavariable bound to a constant
                    continue
                if key in atoms[0] and key not in old:
                    names = names or sorted(b)
                    out.setdefault(tuple([b[n] for n in names]), b)
                    break
            continue
        for anchor in anchors:
            for atom in _candidates(anchor, atoms):
                if atom.key in old:
                    continue
                m = match(anchor, atom, b)
                if m is not None:
                    names = names or sorted(m)
                    out.setdefault(tuple([m[n] for n in names]), m)
    return list(out.values())


def bind(anchored: Anchored, atoms: Atoms, new: Atoms | None = None) -> dict[str, Binding]:
    """The bindings, by rendered key, under which each anchored conjunct (see
    `anchored_conjuncts`) has one of its grounded `_anchors` among the
    atoms: at a satisfiable store, an instance of the conjuncts holds only
    under one of them.

    `new` is some of the atoms, which must include every atom gained since
    the bindings were last made (by default, all of them).  Only the
    bindings that ground an anchor among them are made (semi-naive, after
    Bancilhon & Ramakrishnan 1986), delta first: each conjunct in turn binds
    from the new atoms alone, and then, under each binding it makes, the
    conjuncts before it bind from the old atoms and those after it from
    all.  So a new binding is made from the first of its conjuncts that no
    old atom grounds, and only from that one.  When every atom is new, no
    atom is old, so only the first conjunct's pass runs: the plain join.
    No conjunct at all has the one empty binding, whatever the atoms."""
    new = atoms if new is None else new
    fresh = len(new[0]) == len(atoms[0])  # no atom is old
    found: dict[str, Binding] = {} if anchored else {"{}": {}}
    for i, (pat, anchors) in enumerate(anchored):
        if i and fresh:
            break
        out = _bind_conjunct([{}], pat, anchors, new)
        for j, (other, other_anchors) in enumerate(anchored):
            if not out:
                break
            if j != i:
                out = _bind_conjunct(out, other, other_anchors, atoms, new[0] if j < i else ())
        for b in out:
            found.setdefault(render_binding(b), b)
    return found


def can_bind(anchored: Anchored, by_functor: Container[tuple]) -> bool:
    """Whether each anchored conjunct has an anchor of a functor among the
    store's atoms' (`Store.by_functor`).  When one has none, no atom grounds
    that conjunct, so `bind` binds nothing: the rule has no instance until
    an atom of such a functor arrives."""
    for _, anchors in anchored:
        for anchor in anchors:
            if anchor.functor in by_functor:
                break
        else:
            return False
    return True


def rule_instances(
    rule: DefaultRule, kb: KnowledgeBase, path: ContextPath, new: Atoms | None = None, *, anchored=None
) -> list[_Inst]:
    """Ground instances of a rule against the store at a path, canonical order.

    Its anchored conjuncts bind by `bind`, from the store's atoms or,
    given `new`, from the new ones among them: at a satisfiable store no
    other instance holds, and at an unsatisfiable one every consequent
    holds already, so no instance applies.  A rule one of whose anchored
    conjuncts no atom can ground (see `can_bind`) has no instance, and
    returns before it binds.  A rule with a builtin hands
    each binding to it, which builds the instance.  Any other instance
    takes each opaque antecedent conjunct from the store's atoms, by its
    `ground_key`, and builds only its other conjuncts, its consequent and
    its negation-as-absence premises.  `anchored` is the rule's
    `anchored_conjuncts`, when the caller keeps them.

    A ground rule (see `DefaultRule.ground`) is its own one instance, with
    the empty binding, when each anchored conjunct has an anchor among the
    store's atoms: what `bind` decides from the atoms, without binding.
    It ignores `new`, so it may return the instance a caller already has
    from an earlier binding, which the closure skips by its key."""
    store = kb.store_at(path)
    atoms = store.atoms
    anchored = anchored_conjuncts(rule.antecedent) if anchored is None else anchored
    if rule.ground:
        for _, anchors in anchored:
            for anchor in anchors:
                if anchor.key in atoms:
                    break
            else:
                return []
        return [_Inst(rule, {}, rule.antecedent, rule.consequent, "{}", rule.absent)]
    if not can_bind(anchored, store.by_functor):
        return []
    insts = []
    for key, b in sorted(bind(anchored, (atoms, store.by_functor), new).items()):
        if rule.builtin:
            insts.extend(_BUILTINS[rule.builtin](rule, b))
            continue
        try:
            ants = tuple(_ground_antecedent(p, b, atoms) for p in rule.antecedent)
            cons = rule.consequent if not rule.consequent.variables else instantiate(rule.consequent, b)
            absent = tuple(instantiate(p, b) for p in rule.absent)
        except ValidationError:
            continue
        if not all(is_ground(a) for a in ants) or not is_ground(cons):
            continue
        insts.append(_Inst(rule, b, ants, cons, key, absent))
    return insts


def _ground_antecedent(p: Formula, b: Binding, atoms) -> Formula:
    """An antecedent conjunct grounded by a binding: an opaque one is the
    store's own atom of its `ground_key` (`bind` found each anchored one
    among the atoms, unless it is an eventuality that holds through its
    body), and any other is built."""
    if sat_atomic(p):
        atom = atoms.get(ground_key(p, b))
        if atom is not None:
            return atom
    return p if not p.variables else instantiate(p, b)


def _intention_update(rule: DefaultRule, b: Binding) -> tuple[_Inst, ...]:
    """Progress-update schema, under a binding of its antecedent `(I A
    ?plan:doing)`, `?done:done`: when the done plan is a proper prefix of the
    intended one, intend the remaining suffix and drop the intention for the
    done prefix.  `plan` is bound to the whole intention.  When the remainder
    is the done prefix again, as (plan a a) leaves after (D (plan a)), the
    two intentions are one formula, so nothing is dropped: the new
    intention stands and the store stays consistent.

    A done record is consumed once along a plan: the instance does not
    apply while the done prefix followed by the plan is intended, since
    then the plan is the remainder that this record left (a plan whose
    actions repeat, such as (plan a a b) with (D (plan a)), leaves a
    remainder that begins with the record again)."""
    intended, done = instantiate(rule.antecedent[0], b), b["done"]
    p, q = intended.body.plan, done.plan
    k = len(q.steps)
    if k >= len(p.steps) or p.steps[:k] != q.steps:
        return ()
    agent, rest = intended.agent, Plan(p.steps[k:])
    cons = Att("I", agent, Doing(rest))
    if rest != q:
        cons = And((cons, Not(Att("I", agent, Doing(q)))))
    named: Binding = {"done": done, "plan": intended}
    consumed = Att("I", agent, Doing(q.then(p)))
    return (_Inst(rule, named, (intended, done), cons, render_binding(named), (consumed,)),)


_BUILTINS = {"intention-update": _intention_update}


def defeasible_closure(
    kb: KnowledgeBase,
    rules,
    path: ContextPath = (),
    *,
    trace: Trace | None = None,
    max_steps: int = 1000,
) -> ClosureResult:
    """Fire rules to a fixpoint at one path.  See the module docstring for the
    conflict regime.  A rule joins the closure when its scope is the path
    or "everywhere" (see `DefaultRule`); the order of the rules is no input.

    Each closure is computed once per knowledge base, path, active rule set
    and step bound, and recorded in the knowledge base's closure memo
    (`KnowledgeBase._closures`), which lives and dies with it.  The memo is
    keyed by the path, the set of the active rules' identities (the record
    keeps the rules alive, so an identity is never reused) and `max_steps`.
    A record holds the closed knowledge base (None when nothing fired, so
    that a knowledge base never refers to itself) and the trace entries the
    closure wrote; a repeated closure appends the same entries to the
    caller's trace, numbering its steps on from the caller's.  A closure
    that raises records nothing, so it raises again on every call.  A step
    bound below 1 raises `ValidationError`: a closure takes a round at
    least, to find that nothing fires."""
    if max_steps < 1:
        raise ValidationError(f"the step bound must be at least 1, not {max_steps}")
    path = tuple(path)
    trace = trace if trace is not None else Trace()
    active = {id(r): r for r in rules if not r.driver and r.scope in ("everywhere", path)}
    key = (path, frozenset(active), max_steps)
    record = kb._closures.get(key)
    if record is None:
        start = len(trace.entries)
        result = _fixpoint(kb, active, path, trace, max_steps)
        entries = tuple(trace.entries[start:])
        kb._closures[key] = (active, None if result.kb is kb else result.kb, entries)
        return result
    _, out, entries = record
    steps = []
    for e in entries:
        if isinstance(e, InferenceStep):
            steps.append(trace.step(e.mode, e.rule, e.binding, e.added))
        else:
            trace.note(e)
    return ClosureResult(kb if out is None else out, tuple(steps))


_MIRRORED = {"first": "second", "second": "first", "incomparable": "incomparable"}


class _Carried(NamedTuple):
    """One rule's matching state along a lineage of stores: the rule itself
    (so that its identity, the carry's key, is never reused), its
    `anchored_conjuncts`, the count of the store's atoms its instances were
    bound at when an atom gained since may touch them (None when they are
    bound at the carry's count), its instances not yet settled, and the keys
    of the settled ones.  The anchored conjuncts are kept here, not on the
    rule: kept there, they added about 1,000 tracked objects to rulesys's
    long-lived rules, and its tail latency rose 25%."""

    rule: DefaultRule
    anchored: Anchored
    since: int | None
    live: tuple[_Inst, ...]
    settled: frozenset[str]


class _Carry(dict):
    """What the closures along a lineage of stores leave for the next (see
    `_fixpoint`): a `_Carried` record by rule identity, the awake rules'
    identities, those whose record has live instances or a pending `since`
    (kept as each record is written), the count of the store's atoms the
    records are bound at, and the anchor index of the carried rules: the key
    of each ground anchor, and the functor of each anchor with variables
    (every anchor has one), to the rules with such an anchor.  A copy shares
    the index until it extends it, so no carry changes another."""

    __slots__ = ("count", "awake", "_index", "_own")

    def __init__(self, other: _Carry | None = None):
        super().__init__(other or ())
        self.count = 0 if other is None else other.count
        self.awake = set() if other is None else set(other.awake)
        self._index = ({}, {}) if other is None else other._index
        self._own = False

    def __setitem__(self, ident: int, entry: _Carried) -> None:
        super().__setitem__(ident, entry)
        if entry.live or entry.since is not None:
            self.awake.add(ident)
        else:
            self.awake.discard(ident)

    def add(self, entry: _Carried) -> None:
        """Record a rule that enters the lineage, and index its anchors."""
        ident = id(entry.rule)
        self[ident] = entry
        by_key, by_functor = self._index
        if not self._own:
            by_key, by_functor, self._own = dict(by_key), dict(by_functor), True
        for _, anchors in entry.anchored:
            for anchor in anchors:
                if not anchor.variables:
                    by_key[anchor.key] = by_key.get(anchor.key, ()) + (ident,)
                else:
                    by_functor[anchor.functor] = by_functor.get(anchor.functor, ()) + (ident,)
        self._index = by_key, by_functor

    def advance(self, store) -> dict[int, Atoms]:
        """Bring the carry to the store's atoms, a descendant's of those it
        was bound at, and return the atoms gained, under the count they were
        gained since.  A rule that one of them may touch, by the index (an
        anchor of the atom's key or of its functor), has its record marked
        with the count its instances were bound at, and wakes, for the
        closure to bind it again when it is active, unless one of its
        anchored conjuncts has no atom of an anchor's functor in the store
        (see `can_bind`): such a rule has no instance, and stays asleep.
        No other record changes: only anchored conjuncts bind, a binding
        only narrows a match, and a grounded anchor is an instance of its
        pattern.  A rule left asleep loses nothing: each of its instances
        needs an atom that is not yet in the store, and the atom that
        arrives wakes the rule, whose semi-naive pass (see `bind`) joins it
        with the atoms gained before it."""
        n = len(store.atoms)
        added: dict[int, Atoms] = {}
        if n != self.count and self:
            keys, index = added[self.count] = store.atoms_since(self.count)
            by_key, by_functor = self._index
            touched = set()
            for key in keys:
                touched.update(by_key.get(key, ()))
            for functor in index:
                touched.update(by_functor.get(functor, ()))
            functors = store.by_functor
            for ident in touched:
                entry = self[ident]
                if entry.since is None and can_bind(entry.anchored, functors):
                    self[ident] = _Carried(entry.rule, entry.anchored, self.count, entry.live, entry.settled)
        self.count = n
        return added


def _verdict(kb: KnowledgeBase, path: ContextPath, cons: Formula) -> tuple[bool, bool | None]:
    """Whether a consequent holds at the path, and whether it is consistent
    with the store there: both from one `Store.verdict`.  A conjunction or
    an eventuality can hold by its parts or its body (see `holds`), so it
    is asked by `holds`, and its consistency is None, for the caller to
    ask `consistent_with` only when it needs the answer."""
    if isinstance(cons, (And, Eventually)):
        return holds(kb, path, cons), None
    return kb.store_at(path).verdict(cons)


def _canonical(i: _Inst):
    """A round's order of instances, the same whatever the order of the rules."""
    r = i.rule
    return (r.name, i.key, i.cons.key, tuple(a.key for a in i.ants), r.hard, tuple(a.key for a in r.absent))


def _fixpoint(kb: KnowledgeBase, active, path: ContextPath, trace: Trace, max_steps: int) -> ClosureResult:
    """The closure itself: rounds of instances, arbitration and firing.

    `active` maps the identity of each rule that runs to the rule.  A
    closure starts from the carry of the store at the path (`Store.carry`),
    and leaves its carry on that store after the first round and on the
    store it ends at, for the closures of either store's descendants (a
    `yields` test closes a store and that store plus a formula, say).  The
    carry (`_Carry`) holds rules, instances, keys and counts, never a store
    or a knowledge base, so no store keeps its ancestors alive.  Along a
    lineage (see `kb.Store`) a store only gains facts and hard rules, so its
    atoms only grow, and so do the store's inside a closure, which makes
    both of these sound:
    - A rule's instances stay instances.  A rule binds once as it joins the
      lineage.  Then a round looks up the atoms gained since the last in
      the carry's anchor index, and only the rules whose anchors they hit
      bind again, from those atoms (see `rule_instances`); every other
      rule's unsettled instances are carried as they are.  A rule the atoms
      hit while it was not active binds when it is next active, from every
      atom gained since.  A rule with a builtin is carried like any other:
      the builtin builds its instances from the bindings alone.
    - An instance whose consequent held is settled: it holds in every
      larger store, so no later round or closure checks it again.  So is
      a default's applicable instance whose consequent is inconsistent
      with the store (blocked): it is inconsistent with every larger store.
      It is settled before the input store keeps its first-round carry, so
      its "blocked" note is written once along the lineage, by the first
      closure that finds it.  So is an instance one of whose
      negation-as-absence premises holds.
    So a round reads the awake active rules alone: a rule
    whose instances are settled, or wait for an atom, costs nothing until
    an atom touches it, and a rule that cannot bind (see `can_bind`)
    costs nothing until an atom fills its empty conjunct.  A closure with
    nothing to do, its store's carry current, every active rule carried
    and none of them awake, returns its input before it copies the carry:
    its round would find no instance.  A step bound of 1 or more lets that
    round run (`defeasible_closure` rejects a smaller one), so the
    shortcut never hides a `StepBoundExceeded`.

    A round arbitrates and fires its instances in one order (`_canonical`),
    and keys every table by rule identity, so rules that share a name never
    meet.  `specificity` depends on the antecedents and the hard rules
    alone, so within a closure each pair of antecedents is compared once,
    and the mirrored pair is answered from the same comparison.  The store
    is fixed while a round arbitrates, so two instances' joint consistency
    is asked once a round for both orders, and each instance's consequent
    is decided once, whether the store entails it (it is settled) and
    whether it is consistent with the store (else it is blocked), by one
    `Store.verdict` (see `_verdict`).  Firing reuses those verdicts until
    the round's first assert: before it, a winner is neither entailed nor
    blocked, and after it, each winner is decided again against the grown
    store.  The verdicts live for the round alone; nothing is memoized."""
    store = kb.store_at(path)
    carried = store.carry
    if (carried is not None and carried.count == len(store.atoms) and carried.awake.isdisjoint(active)
            and active.keys() <= carried.keys()):
        return ClosureResult(kb, ())  # idle: no rule joins, wakes or waits, so no round fires
    fired: list[InferenceStep] = []
    out = kb
    carry = _Carry(carried)
    joining = [active[ident] for ident in active.keys() - carry.keys()]
    compared: dict[tuple, str] = {}

    def compare(i: _Inst, j: _Inst) -> str:
        pair = (tuple(a.key for a in i.ants), tuple(a.key for a in j.ants))
        cmp = compared.get(pair)
        if cmp is None:
            cmp = compared[pair] = specificity(i.ants, j.ants, out, path)
            compared[pair[::-1]] = _MIRRORED[cmp]
        return cmp

    def may_fire(i: _Inst, consistent: bool | None) -> bool:
        """A hard rule's instance always may; a default's when its
        consequent is consistent with the store (see `_verdict`)."""
        if i.rule.hard:
            return True
        return consistent if consistent is not None else out.consistent_with(path, (i.cons,))

    for _ in range(max_steps):
        store = out.store_at(path)
        added = carry.advance(store)  # since -> the atoms gained since then
        while joining:  # a rule that joins the lineage binds once, from every atom
            rule = joining.pop()
            anchored = anchored_conjuncts(rule.antecedent)
            live = tuple(rule_instances(rule, out, path, anchored=anchored))
            carry.add(_Carried(rule, anchored, None, live, frozenset()))
        insts = []
        for ident in [ident for ident in carry.awake if ident in active]:
            entry = carry[ident]
            if entry.since is not None:
                if entry.since not in added:
                    added[entry.since] = store.atoms_since(entry.since)
                known = entry.settled.union(i.key for i in entry.live)
                found = rule_instances(entry.rule, out, path, added[entry.since], anchored=entry.anchored)
                live = entry.live + tuple(i for i in found if i.key not in known)
                entry = carry[ident] = _Carried(entry.rule, entry.anchored, None, live, entry.settled)
            insts.extend(entry.live)
        insts.sort(key=lambda i: (i.rule.name, i.key))
        if any(a.rule.name == b.rule.name and a.key == b.key for a, b in zip(insts, insts[1:])):
            insts.sort(key=_canonical)  # the full key only on a tie
        # applicability against the current store
        applicable = []
        ok_alone: dict[tuple[int, str], bool] = {}
        settled: dict[int, set[str]] = {}  # id(rule) -> keys settled this round
        for i in insts:
            entailed, consistent = _verdict(out, path, i.cons)
            if entailed:
                settled.setdefault(id(i.rule), set()).add(i.key)
                continue
            if not all(holds(out, path, a) for a in i.ants):
                continue
            if any(holds(out, path, a) for a in i.absent):  # so in every larger store
                settled.setdefault(id(i.rule), set()).add(i.key)
                continue
            applicable.append(i)
            ok = ok_alone[id(i.rule), i.key] = may_fire(i, consistent)
            if not ok:  # blocked: inconsistent with this store, so with every larger one
                settled.setdefault(id(i.rule), set()).add(i.key)
        for ident, keys in settled.items():
            e = carry[ident]
            live = tuple(i for i in e.live if i.key not in keys)
            carry[ident] = _Carried(e.rule, e.anchored, e.since, live, e.settled | keys)
        if not applicable:
            break
        if out is kb:  # the first round's carry is the input store's, for its other descendants
            kb.store_at(path).keep_carry(carry)
            carry = _Carry(carry)
        winners: list[tuple[_Inst, str]] = []
        jointly: dict[frozenset, bool] = {}  # unordered pair -> joint consistency
        noted_standoffs = set()
        for i in applicable:
            if i.rule.hard:
                winners.append((i, "Hard"))
                continue
            if not ok_alone[id(i.rule), i.key]:
                trace.note(
                    f"closure@{'/'.join(path) or 'root'}: {i.rule.name} {i.key} blocked,"
                    " consequent conflicts with the store"
                )
                continue
            contested = False
            defeated = False
            for j in applicable:
                if j is i or j.rule.hard or not ok_alone[id(j.rule), j.key]:
                    continue
                pair = frozenset(((id(i.rule), i.key), (id(j.rule), j.key)))
                consistent = jointly.get(pair)
                if consistent is None:
                    consistent = jointly[pair] = out.consistent_with(path, (i.cons, j.cons))
                if consistent:
                    continue
                cmp = compare(i, j)
                if cmp == "first":
                    contested = True
                elif cmp == "second":
                    defeated = True
                    trace.note(
                        f"closure@{'/'.join(path) or 'root'}: {i.rule.name} {i.key}"
                        f" defeated by more specific {j.rule.name} {j.key}"
                    )
                else:
                    defeated = True
                    if pair not in noted_standoffs:
                        noted_standoffs.add(pair)
                        trace.note(
                            f"closure@{'/'.join(path) or 'root'}: sceptical stand-off between"
                            f" {i.rule.name} {i.key} and {j.rule.name} {j.key}; neither fires"
                        )
            if not defeated:
                winners.append((i, "Penguin" if contested else "DMP"))
        progressed = False  # whether the store has changed since the verdicts
        for i, mode in winners:
            if progressed:
                entailed, consistent = _verdict(out, path, i.cons)
                if entailed:
                    continue
                if not may_fire(i, consistent):
                    trace.note(
                        f"closure@{'/'.join(path) or 'root'}: {i.rule.name} {i.key} deferred,"
                        " conflicts with facts added earlier this round"
                    )
                    continue
            before = len(out.store_at(path).facts)
            out = out.assert_fact(path, i.cons)
            added = out.store_at(path).facts[before:]  # facts are only appended
            step = trace.step(mode, i.rule.name, i.binding, added or conjuncts(i.cons))
            fired.append(step)
            if i.rule.absent:
                trace.note(
                    f"closure@{'/'.join(path) or 'root'}: {i.rule.name} fired with its negative"
                    " premise absent from the store (negation as absence)"
                )
            progressed = True
        if not progressed:
            break
    else:
        raise StepBoundExceeded(f"no fixpoint within {max_steps} rounds at path {path}")
    out.store_at(path).keep_carry(carry)
    return ClosureResult(out, tuple(fired))


# -------------------------------------------------------------------- abduction


@dataclass(frozen=True)
class AbductionResult:
    rule: str
    binding: str
    hypothesis: tuple[Formula, ...]


def abduce(
    kb: KnowledgeBase,
    rule: DefaultRule,
    path: ContextPath = (),
    *,
    pool=None,
    ctx: EvalContext | None = None,
    trace: Trace | None = None,
) -> tuple[AbductionResult, ...]:
    """Hypothesize missing abducible antecedent conjuncts of rule instances
    whose consequent already holds.

    An instance qualifies when at least one antecedent conjunct already holds
    (abduction needs some supporting evidence), every missing conjunct is
    abducible, and the hypothesis set is consistent with every store it would
    touch (hypotheses are mirrored into nested contexts for the check, so
    attributing not-B to an agent whose store contains B is rejected).

    Variables bind from the facts and, for formula metavariables alone,
    from `pool`.  A variable that nothing binds yields no hypothesis,
    whatever the number of constants: no constant is guessed.
    A pattern meets the facts of its functor alone, in printed order; not
    the atoms, where one found only in a hard rule could add a hypothesis.
    """
    path = tuple(path)
    ctx = ctx or EvalContext()
    trace = trace if trace is not None else Trace()
    store = kb.store_at(path)
    facts = indexed(dict(sorted({f.key: f for f in store.facts}.items())))

    found: dict[str, Binding] = {}
    for f in _candidates(rule.consequent, facts):
        if (m := match(rule.consequent, f)) is not None:
            found.setdefault(render_binding(m), m)
    bindings = list(found.values())
    for pat in rule.antecedent:
        bindings = _extend_bindings(pat, bindings, facts, fvar_pool=pool)
        if not bindings:
            return ()

    # a pool both supplies unbound metavariables and confines bound ones: a
    # binding whose pooled variable landed outside the pool is rejected
    confined = {name: frozenset(allowed) for name, allowed in (pool or {}).items()}
    results: list[AbductionResult] = []
    seen_hyp = set()
    for b in bindings:
        if any(name in b and b[name] not in allowed for name, allowed in confined.items()):
            continue
        try:
            ants = tuple(instantiate(p, b) for p in rule.antecedent)
            cons = instantiate(rule.consequent, b)
        except ValidationError:
            continue
        if not all(is_ground(a) for a in ants) or not is_ground(cons):
            continue
        if not holds(kb, path, cons, ctx):
            continue
        missing = [i for i, a in enumerate(ants) if not holds(kb, path, a, ctx)]
        if not missing or len(missing) == len(ants):
            continue
        if not set(missing) <= rule.abducible:
            continue
        hyp = tuple(ants[i] for i in missing)
        hyp_key = tuple(print_formula(h) for h in hyp)
        if hyp_key in seen_hyp:
            continue
        try:
            scratch = kb
            for h in hyp:
                scratch = scratch.assert_fact(path, h)
        except ValidationError:
            continue
        if not all(s.compiled.sat for s in scratch.stores.values()):
            continue
        seen_hyp.add(hyp_key)
        results.append(AbductionResult(rule.name, render_binding(b), hyp))
        trace.step("Abduction", rule.name, b, hyp)
    return tuple(results)
