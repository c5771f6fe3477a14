"""The standard rule library and its drivers.

Rules fall into two operational classes:

* closure rules -- fired by the defeasible-closure loop (Narration,
  Intentionality, the practical syllogism and its converse APS1, sincerity,
  wanting-and-doing, charity, result-via-cause, the intention-update schema,
  and belief-property transmission, which reads each constituent's content
  from its `(K x φ)` fact);
* drivers -- rules whose side conditions need content lookups or hypothetical
  reasoning, applied by dedicated procedures (intends-to-support, cooperation,
  the result/evidence rules, plan apprehension).

The library is instantiated with the discourse's author and interpreter names.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

from .engine import (
    DefaultRule,
    EvalContext,
    Trace,
    anchored_conjuncts,
    bind,
    can_bind,
    closed_pair,
    entailed_instance,
    holds,
    make_rule,
)
from .errors import ValidationError
from .formulas import (
    Atom,
    Att,
    Can,
    Const,
    Doing,
    Formula,
    Generic,
    Not,
    Plan,
    RelAtom,
    cached_attr,
    conj,
    conjuncts,
    instantiate,
    print_formula,
    subformulas,
)
from .kb import ContextPath, KnowledgeBase
from .sdrs import UpdateSite

AXIOM_NAMES = (
    "Narration",
    "PracticalSyllogism",
    "APS1",
    "Intentionality",
    "IntendsToSupport",
    "Cooperation",
    "BeliefProperty-Result",
    "BeliefProperty-Evidence",
    "ResultRule",
    "EvidenceRule",
    "ResultViaCause",
    "Charity",
    "SincereOrdering",
    "WantingAndDoing",
    "PlanApprehension",
    "IntentionUpdate",
)


@dataclass(frozen=True)
class AxiomSet:
    author: str
    interpreter: str
    rules: tuple[DefaultRule, ...]

    def names(self) -> tuple[str, ...]:
        return tuple(r.name for r in self.rules)

    def __getitem__(self, name: str) -> DefaultRule:
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def phase(self, which: str, *, charity: bool = False) -> tuple[DefaultRule, ...]:
        """Closure rules for one pipeline phase.  Attitude rules run before
        support/relation reasoning; relation rules afterwards.  Charity only
        joins the attitude phase when asked for (it is a strong assumption).
        """
        attitude = [
            "Intentionality",
            "SincereOrdering",
            "WantingAndDoing",
            "APS1",
            "PracticalSyllogism",
            "IntentionUpdate",
        ]
        if charity:
            attitude.append("Charity")
        relation = ["Narration", "ResultViaCause", "BeliefProperty-Result", "BeliefProperty-Evidence"]
        try:
            names = {"attitude": attitude, "relation": relation}[which]
        except KeyError:
            raise ValidationError(f"unknown phase {which!r}") from None
        return tuple(self[n] for n in names)


@functools.cache
def standard_axioms(author: str = "A", interpreter: str = "I") -> AxiomSet:
    A, I = author, interpreter

    def r(name, ants, cons, **kw):
        ants = [a.format(A=A, I=I) for a in ants]
        return make_rule(name, ants, cons.format(A=A, I=I), **kw)

    rules = (
        r(
            "Narration",
            ["(site ?t ?x ?y)"],
            "(rel Narration ?x ?y)",
            scope="everywhere",
            note="an update is, by default, narrative continuation",
        ),
        r(
            "PracticalSyllogism",
            ["(W {A} ?phi)", "(B {A} (not ?phi))", "(B {A} (yields ?psi (eventually ?phi)))"],
            "(I {A} ?psi)",
            abducible=frozenset({0, 1, 2}),
            note="wanting an unrealized state and believing an act would bring it about"
            " defaults to intending the act",
        ),
        r(
            "APS1",
            ["(W {A} ?phi)", "(B {A} (not ?phi))", "(I {A} ?psi)"],
            "(B {A} (yields ?psi (eventually ?phi)))",
            note="an intended act in the face of an unrealized want is, by default,"
            " believed instrumental to it",
        ),
        r(
            "Intentionality",
            ["(site ?t ?x ?y)"],
            "(I {A} (and (site ?t ?x ?y) (info ?x ?y)))",
            note="the author intends each update he makes",
        ),
        r(
            "IntendsToSupport",
            [
                "(W {A} (B {I} ?target))",
                "(B {A} (not (B {I} ?target)))",
                "(B {A} (yields ?update (eventually (B {I} ?target))))",
            ],
            "(isupport ?x ?y)",
            hard=True,
            driver=True,
            note="definitional: the author supports a constituent when he wants the"
            " interpreter to believe its content, takes that belief to be absent,"
            " and takes the update to bring it about (applied by isupport_holds)",
        ),
        r(
            "Cooperation",
            ["(isupport ?x ?y)"],
            "(or (rel Result ?x ?y) (rel Evidence ?x ?y))",
            hard=True,
            driver=True,
            note="monotonic and contraposable: intentional support must be realized by"
            " a belief-transmitting relation (applied by the cooperation driver)",
        ),
        r(
            "BeliefProperty-Result",
            ["(B {I} ?cx)", "(rel Result ?x ?y)", "(K ?x ?cx)", "(K ?y ?cy)"],
            "(B {I} ?cy)",
            scope="everywhere",
            note="believing the content of a constituent defaults to believing the"
            " content of one it is related to by Result",
        ),
        r(
            "BeliefProperty-Evidence",
            ["(B {I} ?cx)", "(rel Evidence ?x ?y)", "(K ?x ?cx)", "(K ?y ?cy)"],
            "(B {I} ?cy)",
            scope="everywhere",
            note="as BeliefProperty-Result, for Evidence",
        ),
        r(
            "ResultRule",
            ["(site ?t ?x ?y)", "(isupport ?x ?y)"],
            "(rel Result ?x ?y)",
            driver=True,
            note="supported update in textual order: attach with Result given a generic"
            " the open constituent yields and a hypothesis completing an instance"
            " (applied by apply_support_relation)",
        ),
        r(
            "EvidenceRule",
            ["(site ?t ?x ?y)", "(isupport ?y ?x)"],
            "(rel Evidence ?y ?x)",
            driver=True,
            note="supported update against textual order: as ResultRule with the"
            " content roles swapped, attaching with Evidence",
        ),
        r(
            "ResultViaCause",
            ["(site ?t ?x ?y)", "(cause ?x ?y)"],
            "(rel Result ?x ?y)",
            scope="everywhere",
            note="a known causal link between the constituents defaults the update"
            " to Result; strictly more specific than Narration",
        ),
        r(
            "Charity",
            ["(B {I} ?phi)"],
            "(B {A} (B {I} ?phi))",
            note="opt-in: the author is assumed aware of the interpreter's beliefs",
        ),
        r(
            "SincereOrdering",
            ["(imp ?phi)"],
            "(W {A} ?phi)",
            note="an imperative is, by default, a sincere order: the author wants it done",
        ),
        r(
            "WantingAndDoing",
            ["(W {A} ?phi:doing)"],
            "(I {A} ?phi:doing)",
            absent=("(B {A} (not (eventually ?phi:doing)))".format(A=A),),
            note="wanting an action performed defaults to intending it, absent the"
            " belief that it will never happen (negation as absence)",
        ),
        r(
            "PlanApprehension",
            ["(rel Result ?x ?y)", "(I {A} ?phi:doing)"],
            "(I {A} ?psi:doing)",
            driver=True,
            note="a Result-attached 'you can ...' extends the author's intended plan"
            " with the enabled action (applied by plan_apprehension)",
        ),
        r(
            "IntentionUpdate",
            ["(I {A} ?plan:doing)", "?done:done"],
            "(I {A} ?p:doing)",
            hard=True,
            builtin="intention-update",
            note="progress schema: an intended plan with a done prefix yields the"
            " intention for the suffix and drops the intention for the prefix",
        ),
    )
    return AxiomSet(author=A, interpreter=I, rules=rules)


# ------------------------------------------------------------------ small helpers


def isupport_atom(x: str, y: str) -> Formula:
    return Atom("isupport", (Const(x), Const(y)))


def collect_generics(kb: KnowledgeBase, path: ContextPath = ()) -> tuple[Generic, ...]:
    store = kb.store_at(path)
    out: dict[str, Generic] = {}
    for f in store.formulas():
        for g in subformulas(f):
            if isinstance(g, Generic):
                out.setdefault(print_formula(g), g)
    return tuple(out[k] for k in sorted(out))


# -------------------------------------------------------------- intends-to-support


@dataclass(frozen=True)
class SupportCheck:
    """The outcome of `isupport_holds`.  Its three clauses are the antecedent
    of IntendsToSupport under `binding`, each built on first read: the
    pipeline reads only the belief clause of a check that holds."""

    supporter: str
    supported: str
    ok: bool
    lazy_verified: bool  # belief clause held only via nested hypothetical closure
    antecedent: tuple[Formula, ...]
    binding: Mapping[str, Formula]

    @cached_attr
    def want(self) -> Formula:
        return instantiate(self.antecedent[0], self.binding)

    @cached_attr
    def believe_absent(self) -> Formula:
        return instantiate(self.antecedent[1], self.binding)

    @cached_attr
    def belief_clause(self) -> Formula:
        return instantiate(self.antecedent[2], self.binding)


def isupport_holds(
    kb: KnowledgeBase,
    axioms: AxiomSet,
    site: UpdateSite,
    contents: Mapping[str, Formula],
    supporter: str,
    supported: str,
    *,
    ctx: EvalContext | None = None,
) -> SupportCheck:
    """Check the three definitional clauses of intentional support: the
    antecedent of IntendsToSupport, its target bound to the supported
    content and its update to the site's content.  Each clause is opaque,
    so the root entails it only as one of its atoms, looked up without
    building it (`entailed_instance`); the belief clause is built to be
    verified by nested closure when it is not entailed."""
    b = {"target": contents[supported], "update": site.content}
    antecedent = axioms["IntendsToSupport"].antecedent
    want, absent, clause = antecedent
    if entailed_instance(kb, (), want, b) is None or entailed_instance(kb, (), absent, b) is None:
        ok = lazy = False
    elif entailed_instance(kb, (), clause, b) is not None:
        ok, lazy = True, False
    else:
        ok = lazy = ctx is not None and holds(kb, (), instantiate(clause, b), ctx)
    return SupportCheck(supporter, supported, ok, lazy, antecedent, b)


# ------------------------------------------------------------------- cooperation


def cooperation_permitted(site: UpdateSite, supporter: str, supported: str) -> tuple[RelAtom, ...]:
    """Relations that may realize an intentional support, per direction.
    Textual order permits Result or Evidence; against textual order only
    Evidence may run.  The atoms are the site's (`UpdateSite.relation`)."""
    if supporter == site.attach_to:
        return site.relation("Result"), site.relation("Evidence")
    return (site.relation("Evidence", backward=True),)


def contrapose_cooperation(
    kb: KnowledgeBase,
    axioms: AxiomSet,
    site: UpdateSite,
    check: SupportCheck,
    trace: Trace,
) -> tuple[KnowledgeBase, str]:
    """No permitted relation was derivable: Cooperation (hard, contraposable)
    forces retraction of the Isupport conclusion and of the defeasibly-derived
    belief clause that licensed it."""
    sup_atom = isupport_atom(check.supporter, check.supported)
    kb = kb.retract_fact((), sup_atom)
    kb = kb.retract_fact((), check.belief_clause)
    kb = kb.assert_fact((), Not(sup_atom), mirror=False)
    diagnostic = (
        f"incoherent at site {site.tau}: no permitted relation between {site.attach_to}"
        f" and {site.new}; contraposing Cooperation retracts"
        f" Isupport({check.supporter},{check.supported}) and the belief"
        f" {print_formula(check.belief_clause)}"
    )
    trace.note(f"contrapose Cooperation => (not {print_formula(sup_atom)})")
    trace.note(f"retract {print_formula(check.belief_clause)}")
    return kb, diagnostic


# -------------------------------------------------- result / evidence attachment


@dataclass(frozen=True)
class SupportApplication:
    rule: str  # ResultRule | EvidenceRule
    rel: RelAtom
    delta: Formula | None
    generic: Generic
    instance: Formula
    witness: str
    justification: tuple[Formula, ...]


def apply_support_relation(
    kb: KnowledgeBase,
    axioms: AxiomSet,
    site: UpdateSite,
    contents: Mapping[str, Formula],
    supporter: str,
    supported: str,
    hypotheses: Sequence[Formula],
    ctx: EvalContext,
    *,
    delta_constraints: Sequence[Formula] = (),
    trace: Trace | None = None,
) -> SupportApplication | None:
    """Attach a supported update: find a generic the supporter's content yields
    and a hypothesis delta under which the supported content completes a ground
    instance of it, with delta consistent with the interpreter's and the
    author's stores, closing under the context's rules and step bound.  The
    witness binds from the augmented store's atoms through `engine.bind`,
    the binder of the closure's rules, and is tried in sorted order, so the
    generic's variable must occur in an anchored (atomic, negated or
    eventual) conjunct; a viable generic whose variable does not raises
    `ValidationError`.  A generic one of whose anchored conjuncts no atom
    can ground (`engine.can_bind`) has no witness, and binds nothing."""
    trace = trace if trace is not None else Trace()
    if supporter == site.attach_to:
        rule_name, rel = "ResultRule", RelAtom("Result", (supporter, supported))
    elif supporter == site.new:
        rule_name, rel = "EvidenceRule", RelAtom("Evidence", (supporter, supported))
    else:
        raise ValidationError(f"supporter {supporter!r} is not part of site {site}")
    if not kb.entails((), isupport_atom(supporter, supported)):
        return None
    sup_content = contents[supporter]
    spd_content = contents[supported]

    # one closure pair answers the yields-question for every candidate at
    # once; only the final holds-check varies
    base_kb, sup_kb = closed_pair(kb, (), sup_content, ctx)
    viable = [g for g in collect_generics(kb) if holds(sup_kb, (), g) and not holds(base_kb, (), g)]
    if not viable:
        trace.note(f"{rule_name}: the content of {supporter} yields no generic; rule idle")
        return None
    deltas: tuple[Formula | None, ...] = (None,) + tuple(hypotheses)
    for delta in deltas:
        if delta is not None:
            if not kb.jointly_consistent_with((delta,) + tuple(delta_constraints)):
                trace.note(
                    f"{rule_name}: hypothesis {print_formula(delta)} rejected, inconsistent"
                    " with the interpreter's or the author's store"
                )
                continue
            kbd = kb.assert_fact((), delta)
        else:
            kbd = kb
        base_d, aug_d = closed_pair(kbd, (), spd_content, ctx)
        store = aug_d.store_at(())
        for gen in viable:
            parts = conjuncts(gen.antecedent) + conjuncts(gen.consequent)
            anchored = anchored_conjuncts(parts)
            if not any(gen.var in p.variables for p, _ in anchored):
                raise ValidationError(f"generic {print_formula(gen)}: {gen.var} occurs in no atomic,"
                                      " negated or eventual conjunct, so nothing binds its witness")
            if not can_bind(anchored, store.by_functor):
                continue  # a conjunct that no atom grounds: no witness
            witnesses = {str(b[gen.var]) for b in bind(anchored, (store.atoms, store.by_functor)).values()}
            for d in sorted(witnesses):
                psi = conj([instantiate(p, {gen.var: Const(d)}) for p in parts])
                if holds(aug_d, (), psi) and not holds(base_d, (), psi):
                    justification = (rel,) + (() if delta is None else (delta,))
                    return SupportApplication(
                        rule=rule_name,
                        rel=rel,
                        delta=delta,
                        generic=gen,
                        instance=psi,
                        witness=d,
                        justification=justification,
                    )
    return None


# -------------------------------------------------------------- plan apprehension


def plan_apprehension(
    kb: KnowledgeBase,
    axioms: AxiomSet,
    rel: RelAtom,
    new_content: Formula,
    base_plan: Plan | None,
) -> Plan | None:
    """From Result(x,y), an intended plan for x, and y of the form
    can(R(q)): the author's plan extends to the composition."""
    if rel.rel != "Result" or base_plan is None:
        return None
    if not isinstance(new_content, Can) or not isinstance(new_content.body, Doing):
        return None
    if not kb.entails((), Att("I", axioms.author, Doing(base_plan))):
        return None
    return base_plan.then(new_content.body.plan)

