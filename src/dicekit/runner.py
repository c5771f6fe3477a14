"""Scenario execution: the per-utterance interpretation pipeline.

`run_scenario` takes up each utterance (`_take_up`) over one run state.  The
first is taken up directly (the interpreter believes an assertion; an
imperative registers as an order) and goes through phase 2 only; each later one
  1. mints an update site against the right frontier, asserts its site and
     info atoms and adds the pair's belief-property rules (`_open_site`),
     then resolves a plan anaphor in a cause clue (`_resolve_anaphor`),
  2. closes the root store over attitude rules (intentionality, sincerity,
     wanting-and-doing, the practical syllogism and APS1, intention update,
     optionally charity) (`_close_attitudes`),
  3. evaluates intentional support in both directions, caching a lazily
     verified instrumental belief as an opaque fact (`_check_support`),
  4. applies Cooperation: any live support blocks Narration (`_cooperate`),
  5. closes over relation rules (narration vs cause-based result, with the
     specificity principle arbitrating) and runs the result/evidence drivers
     (`_derive_relations`),
  6. checks Cooperation's permission: support with no permitted relation
     derived contraposes -- the support conclusion and its instrumental belief
     are retracted and the discourse is incoherent, as it is when no relation
     is derived at all (`_check_permission`),
  7. attaches derived relations, extends intended plans (plan apprehension),
     and closes over the relation rules again, among them every pair's
     belief-property rules (`_attach`).

After a coherent discourse, one abduction pass over the practical syllogism
absorbs the author's reconstructed communicative goals (`_reconstruct_goals`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .axioms import (
    AxiomSet,
    SupportCheck,
    apply_support_relation,
    belief_property_rules,
    contrapose_cooperation,
    cooperation_permitted,
    isupport_atom,
    isupport_holds,
    plan_apprehension,
    result_via_cause,
    standard_axioms,
)
from .engine import DefaultRule, EvalContext, Trace, abduce, defeasible_closure, entailed_instance
from .errors import AmbiguousAntecedent, DepthExceeded, NoAntecedent
from .formulas import (
    Atom,
    Att,
    Const,
    Doing,
    Formula,
    Imp,
    Not,
    Plan,
    RelAtom,
    Var,
    print_formula,
)
from .kb import KnowledgeBase
from .scenario import Expectation, Scenario, Utterance
from .sdrs import Constituent, Sdrs, UpdateSite, attach, coherent, open_attachment_sites, resolve_plan_anaphor

#: reserved constant for plan-valued anaphors in cause clues
THAT_WAY = "that-way"
#: the cause clue of a plan anaphor, for the site's new constituent y
_CLUE = Atom("cause", (Const(THAT_WAY), Var("y")))

#: the relations a site's pair (x, y) may acquire, either way round
_RELATION_PATTERNS = tuple(
    RelAtom(r, args)
    for r in ("Narration", "Result", "Evidence")
    for args in ((Var("x"), Var("y")), (Var("y"), Var("x")))
)


@dataclass(frozen=True)
class ExpectationResult:
    expectation: Expectation
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        tail = f" ({self.detail})" if self.detail else ""
        return f"{status}: {self.expectation.describe()}{tail}"


@dataclass(frozen=True)
class RunReport:
    scenario: Scenario
    kb: KnowledgeBase
    sdrs: Sdrs
    verdict: str  # "coherent" | "incoherent"
    diagnostics: tuple[str, ...]
    trace: Trace
    expectations: tuple[ExpectationResult, ...]
    elapsed: float

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.expectations)

    def exit_code(self) -> int:
        if self.ok:
            return 0
        verdict_failed = any(
            not e.ok and e.expectation.kind == "verdict" for e in self.expectations
        )
        return 1 if verdict_failed else 2


def build(scenario: Scenario, *, max_depth: int = 3) -> tuple[KnowledgeBase, AxiomSet]:
    """Knowledge base and axiom library for a scenario: the declared stores
    and the standard axioms.  Raises DepthExceeded for a declared context
    deeper than max_depth, whatever it holds."""
    axioms = standard_axioms(scenario.author, scenario.interpreter)
    kb = KnowledgeBase(
        max_depth=max_depth,
        root_consistency_paths=((scenario.author,),),
    )
    for decl in scenario.contexts:
        if len(decl.path) > max_depth:
            raise DepthExceeded(f"path {decl.path} exceeds nesting bound {max_depth}")
        for f in decl.facts:
            kb = kb.assert_fact(decl.path, f)
        for f in decl.hard_rules:
            kb = kb.add_hard_rule(decl.path, f)
    return kb, axioms


@dataclass
class _Run:
    """The state one run threads through the pipeline phases."""

    scenario: Scenario
    axioms: AxiomSet
    kb: KnowledgeBase
    max_steps: int
    attitude_rules: tuple[DefaultRule, ...]
    # the relation phase's rules and the scenario's, then every pair's belief-property rules
    relation_rules: tuple[DefaultRule, ...]
    trace: Trace = field(default_factory=Trace)
    sdrs: Sdrs = field(default_factory=Sdrs)
    contents: dict[str, Formula] = field(default_factory=dict)
    provenance: dict[Plan, str] = field(default_factory=dict)  # plan -> constituent it is intended since
    sites: list[UpdateSite] = field(default_factory=list)
    traced: tuple[int, int] = (0, 0)  # root facts and author intention atoms read by `_trace_intentions`

    def close(self, rules) -> None:
        self.kb = defeasible_closure(self.kb, rules, (), trace=self.trace, max_steps=self.max_steps).kb


def run_scenario(scenario: Scenario, *, max_steps: int = 1000, max_depth: int = 3) -> RunReport:
    t0 = time.perf_counter()
    kb, axioms = build(scenario, max_depth=max_depth)
    attitude_rules = axioms.phase("attitude", charity=scenario.charity) + scenario.rules
    run = _Run(scenario, axioms, kb, max_steps, attitude_rules, axioms.phase("relation") + scenario.rules)
    diagnostics = _interpret(run)
    if not diagnostics:
        if run.sites:
            _reconstruct_goals(run)
        diagnostics = coherent(run.sdrs, run.kb).diagnostics
    verdict = "incoherent" if diagnostics else "coherent"
    return RunReport(
        scenario=scenario,
        kb=run.kb,
        sdrs=run.sdrs,
        verdict=verdict,
        diagnostics=diagnostics,
        trace=run.trace,
        expectations=_check_expectations(scenario, verdict, run.kb),
        elapsed=time.perf_counter() - t0,
    )


def _interpret(run: _Run) -> tuple[str, ...]:
    """Take up the utterances in order.  Returns the diagnostics of the first
    one that leaves the discourse incoherent, else ()."""
    _close_attitudes(run)  # the declared stores may already support inference
    for utt in run.scenario.utterances:
        diagnostics = _take_up(run, utt)
        if diagnostics:
            return diagnostics
    return ()


def _take_up(run: _Run, utt: Utterance) -> tuple[str, ...]:
    """The pipeline for one utterance; the module docstring lists the phases."""
    prior = run.sdrs  # the discourse so far; frontiers are computed against it
    run.contents[utt.id] = utt.content
    run.sdrs = prior.with_constituent(Constituent(utt.id, utt.content, utt.mood))
    heard = f"utterance {utt.id} ({utt.mood}): {print_formula(utt.content)}"
    site = resolved = None
    if prior.order:
        site, frontier = _open_site(run, utt.id, prior)
        heard += f"; site {site.tau} attaches to {site.attach_to} (right frontier: {', '.join(frontier)})"
    run.trace.note(heard)
    if utt.mood == "imperative":
        run.kb = run.kb.assert_fact((), Imp(utt.content))
    elif site is None:
        run.kb = run.kb.assert_fact((), Att("B", run.scenario.interpreter, utt.content))
    if site is not None:
        try:
            resolved = _resolve_anaphor(run, site, prior)
        except (NoAntecedent, AmbiguousAntecedent) as exc:
            return (f"plan anaphor at {utt.id}: {exc}",)
    _close_attitudes(run)
    if site is not None:
        ctx = EvalContext(rules=run.relation_rules, max_steps=run.max_steps)
        checks = _check_support(run, site, ctx)
        _cooperate(run, site, checks)
        derived, applied = _derive_relations(run, site, checks, ctx)
        diagnostics = _check_permission(run, site, checks, derived)
        if diagnostics:
            return diagnostics
        _attach(run, site, derived, applied, resolved)
    _trace_intentions(run, utt.id)
    return ()


def _trace_intentions(run: _Run, cid: str) -> None:
    """Trace each plan that the author came to intend at the root since the
    last utterance to `cid`, in the order of the author's intention atoms,
    as a read of them all would: one that was already an atom (of a hard
    rule or a negated fact) before it became a fact comes first.  Reads
    only the root facts and the intention atoms gained since: along a
    coherent run the root store only grows, so both only append."""
    root = run.kb.store_at(())
    author = ("Att", "I", run.scenario.author)
    group = root.by_functor.get(author, ())
    facts, atoms = run.traced
    new = {f for f in root.facts[facts:] if f.functor == author and isinstance(f.body, Doing)}
    if new:
        gained = group[atoms:]
        earlier = new.difference(gained)
        ordered = [g for g in group[:atoms] if g in earlier] if earlier else []
        for f in ordered + [g for g in gained if g in new]:
            run.provenance.setdefault(f.body.plan, cid)
    run.traced = len(root.facts), len(group)


def _open_site(run: _Run, new: str, prior: Sdrs) -> tuple[UpdateSite, tuple[str, ...]]:
    """Phase 1: `new` attaches to the most recent open constituent.  Returns
    the site and the right frontier it was chosen from."""
    frontier = open_attachment_sites(prior)
    site = UpdateSite(f"tau{len(prior.order)}", frontier[0], new)
    run.sites.append(site)
    # Narration and Result exclude one another over the pair; installed per
    # minted site (not for every conceivable pair) to keep stores small
    for path in sorted({(), (run.scenario.author,)} | {decl.path for decl in run.scenario.contexts}):
        if len(path) <= run.kb.max_depth:
            run.kb = run.kb.add_hard_rule(path, site.exclusion)
    run.kb = run.kb.assert_fact((), site.token)
    run.kb = run.kb.assert_fact((), site.info)
    run.relation_rules += belief_property_rules(run.axioms, site, run.contents)
    return site, frontier


def _resolve_anaphor(run: _Run, site: UpdateSite, prior: Sdrs) -> Plan | None:
    """Phase 1: a clue (cause that-way new) names the plan intended at the
    right frontier, whose constituent then causes `new`.  Raises
    NoAntecedent or AmbiguousAntecedent when no unique plan is accessible."""
    if entailed_instance(run.kb, (), _CLUE, {"y": Const(site.new)}) is None:
        return None
    resolved, from_cid = resolve_plan_anaphor(prior, run.provenance)
    run.trace.note(f"plan anaphor resolved: that-way => {resolved} (intended since {from_cid})")
    run.kb = run.kb.assert_fact((), Atom("cause", (Const(site.attach_to), Const(site.new))))
    return resolved


def _close_attitudes(run: _Run) -> None:
    """Phase 2."""
    run.close(run.attitude_rules)


def _check_support(run: _Run, site: UpdateSite, ctx: EvalContext) -> list[SupportCheck]:
    """Phase 3: intentional support in textual order, then against it."""
    checks = []
    for supporter, supported in ((site.attach_to, site.new), (site.new, site.attach_to)):
        chk = isupport_holds(run.kb, run.axioms, site, run.contents, supporter, supported, ctx=ctx)
        checks.append(chk)
        if not chk.ok:
            run.trace.note(f"Isupport({supporter},{supported}) does not hold")
            continue
        run.kb = run.kb.assert_fact((), isupport_atom(supporter, supported))
        run.trace.note(f"Isupport({supporter},{supported}) holds")
        if chk.lazy_verified and not run.kb.has_fact((), chk.belief_clause):
            run.kb = run.kb.assert_fact((), chk.belief_clause)
            run.trace.note(
                f"verified by closure at [{run.scenario.author}] and cached:"
                f" {print_formula(chk.belief_clause)}"
            )
    return checks


def _cooperate(run: _Run, site: UpdateSite, checks: list[SupportCheck]) -> None:
    """Phase 4."""
    if any(c.ok for c in checks):
        block = Not(site.relation("Narration"))
        run.kb = run.kb.assert_fact((), block)
        run.trace.note(f"Cooperation restricts the update: {print_formula(block)}")


def _derive_relations(run: _Run, site: UpdateSite, checks: list[SupportCheck], ctx: EvalContext):
    """Phase 5.  Returns the relations now entailed between the site's pair,
    either way round, and the justification of each the drivers applied.
    Each candidate relation is looked up among the root's atoms
    (`entailed_instance`), so a derived relation is the root's own atom."""
    run.close(ctx.rules)
    applied: dict[RelAtom, tuple[Formula, ...]] = {}
    for chk in (c for c in checks if c.ok):
        app = apply_support_relation(
            run.kb, run.axioms, site, run.contents, chk.supporter, chk.supported, run.scenario.hypotheses,
            ctx, delta_constraints=run.scenario.delta_constraints, trace=run.trace,
        )
        if app is None:
            continue
        applied[app.rel] = app.justification
        added: list[Formula] = [app.rel]
        run.kb = run.kb.assert_fact((), app.rel)
        if app.delta is not None and not run.kb.entails((), app.delta):
            run.kb = run.kb.assert_fact((), app.delta)
            added.append(app.delta)
        binding = {"x": chk.supporter, "y": chk.supported, "witness": Const(app.witness)}
        if app.delta is not None:
            binding["delta"] = app.delta
        run.trace.step("DMP", app.rule, binding, tuple(added))
    pair = {"x": Const(site.attach_to), "y": Const(site.new)}
    derived = [entailed_instance(run.kb, (), p, pair) for p in _RELATION_PATTERNS]
    return [rel for rel in derived if rel is not None], applied


def _check_permission(run: _Run, site: UpdateSite, checks: list[SupportCheck], derived) -> tuple[str, ...]:
    """Phase 6.  Returns the diagnostics when the update is incoherent, else ()."""
    diagnostics = []
    for chk in checks:
        if chk.ok and not any(p in derived for p in cooperation_permitted(site, chk.supporter, chk.supported)):
            run.kb, diag = contrapose_cooperation(run.kb, run.axioms, site, chk, run.trace)
            diagnostics.append(diag)
    if not diagnostics and not derived:
        diagnostics.append(f"no discourse relation derivable for {site.new} at site {site.tau}")
    return tuple(diagnostics)


def _attach(run: _Run, site: UpdateSite, derived, applied, resolved: Plan | None) -> None:
    """Phase 7."""
    for rel in derived:
        run.sdrs = attach(run.sdrs, site, rel, _justification_for(rel, applied, run.kb, site))
        run.trace.note(f"attach {print_formula(rel)}")
    open_content = run.contents[site.attach_to]
    base = resolved or (open_content.plan if isinstance(open_content, Doing) else None)
    for rel in derived:
        extended = plan_apprehension(run.kb, run.axioms, rel, run.contents[site.new], base)
        if extended is None:
            continue
        intent = Att("I", run.scenario.author, Doing(extended))
        if not run.kb.entails((), intent):
            run.kb = run.kb.assert_fact((), intent)
            run.trace.step("DMP", "PlanApprehension", {"x": site.attach_to, "y": site.new}, (intent,))
        run.provenance[extended] = site.new
    run.close(run.relation_rules)


def _justification_for(rel: RelAtom, applied, kb: KnowledgeBase, site: UpdateSite) -> tuple[Formula, ...]:
    if rel in applied:
        return applied[rel]
    # a Result without a driver is justified by a cause read in its own direction
    if rel.args != (site.attach_to, site.new):
        site = UpdateSite(site.tau, *rel.args)
    by_cause = result_via_cause(kb, site) if rel.rel == "Result" else None
    return by_cause or (rel,)


def _reconstruct_goals(run: _Run) -> None:
    """Absorb the author's communicative goals, abduced over the practical
    syllogism once the discourse stands."""
    pool = {
        "phi": tuple(Att("B", run.scenario.interpreter, run.contents[cid]) for cid in run.sdrs.order),
        "psi": tuple(s.content for s in run.sites),
    }
    ctx = EvalContext(rules=run.relation_rules, max_steps=run.max_steps)
    results = abduce(run.kb, run.axioms["PracticalSyllogism"], (), pool=pool, ctx=ctx, trace=run.trace)
    for res in results:
        for h in res.hypothesis:
            if not run.kb.entails((), h):
                run.kb = run.kb.assert_fact((), h, mirror=False)
    if results:
        run.trace.note(
            "absorbed abduced hypotheses: "
            + "; ".join(print_formula(h) for r in results for h in r.hypothesis)
        )


def _check_expectations(scenario: Scenario, verdict: str, kb: KnowledgeBase) -> tuple[ExpectationResult, ...]:
    outcomes = []
    for e in scenario.expectations:
        if e.kind == "verdict":
            ok = verdict == e.verdict
            detail = f"verdict was {verdict}" if not ok else ""
        elif e.kind == "entailed":
            ok = kb.entails((), e.formula)
            detail = "" if ok else "not entailed at the root"
        else:
            ok = not kb.entails((), e.formula)
            detail = "" if ok else "unexpectedly entailed at the root"
        outcomes.append(ExpectationResult(e, ok, detail))
    return tuple(outcomes)


def explain(report: RunReport) -> str:
    lines = [
        f"scenario {report.scenario.name}: {report.verdict}"
        f" ({report.elapsed:.3f}s)"
    ]
    if report.sdrs.attachments:
        lines.append("relations:")
        for a in report.sdrs.attachments:
            just = ", ".join(print_formula(f) for f in a.justification)
            lines.append(f"  {print_formula(a.rel)}" + (f"  [{just}]" if just else ""))
    for d in report.diagnostics:
        lines.append(f"diagnostic: {d}")
    lines.append("trace:")
    for entry in report.trace.lines():
        lines.append(f"  {entry}")
    lines.append("expectations:")
    for e in report.expectations:
        lines.append(f"  {e.line()}")
    return "\n".join(lines)


def report_dict(report: RunReport) -> dict:
    return {
        "scenario": report.scenario.name,
        "verdict": report.verdict,
        "elapsed": report.elapsed,
        "relations": [print_formula(a.rel) for a in report.sdrs.attachments],
        "diagnostics": list(report.diagnostics),
        "trace": report.trace.lines(),
        "expectations": [
            {"expectation": e.expectation.describe(), "ok": e.ok, "detail": e.detail}
            for e in report.expectations
        ],
        "exit_code": report.exit_code(),
    }


def write_report(report: RunReport, path: str) -> None:
    if path.endswith(".json"):
        payload = json.dumps(report_dict(report), indent=2)
    else:
        payload = explain(report)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload + "\n")
