"""Scenario execution: the per-utterance interpretation pipeline.

For each utterance after the first, the pipeline
  1. mints an update site against the right frontier and asserts its tokens,
  2. closes the root store over attitude rules (intentionality, sincerity,
     wanting-and-doing, the practical syllogism and APS1, intention update,
     optionally charity),
  3. evaluates intentional support in both directions, caching a lazily
     verified instrumental belief as an opaque fact,
  4. applies Cooperation: any live support blocks Narration outright,
  5. closes over relation rules (narration vs cause-based result, with the
     specificity principle arbitrating) and runs the result/evidence drivers,
  6. checks Cooperation's permission: support with no permitted relation
     derived contraposes -- the support conclusion and its instrumental belief
     are retracted and the discourse is incoherent,
  7. attaches derived relations, extends intended plans (plan apprehension,
     with plan-anaphor resolution against the right frontier), and closes over
     the pair's belief-property instances.

After a coherent discourse, one abduction pass over the practical syllogism
absorbs the author's reconstructed communicative goals.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

from .axioms import (
    AxiomSet,
    SupportApplication,
    apply_support_relation,
    belief_property_rules,
    contrapose_cooperation,
    cooperation_permitted,
    isupport_atom,
    isupport_holds,
    plan_apprehension,
    standard_axioms,
    update_content,
)
from .engine import DefaultRule, EvalContext, Trace, abduce, defeasible_closure
from .errors import AmbiguousAntecedent, NoAntecedent
from .formulas import (
    Atom,
    Att,
    Const,
    Doing,
    Formula,
    Imp,
    Implies,
    InfoToken,
    Not,
    Plan,
    RelAtom,
    print_formula,
)
from .kb import KnowledgeBase
from .scenario import Expectation, Scenario
from .sdrs import Constituent, Sdrs, UpdateSite, attach, coherent, open_attachment_sites, resolve_plan_anaphor

#: reserved constant for plan-valued anaphors in cause clues
THAT_WAY = "that-way"

_RELATION_NAMES = ("Narration", "Result", "Evidence")


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
    """Knowledge base and axiom library for a scenario: declared stores,
    scenario rules, and the ground narration/result exclusion constraints."""
    axioms = standard_axioms(scenario.author, scenario.interpreter)
    kb = KnowledgeBase(
        max_depth=max_depth,
        root_consistency_paths=((scenario.author,),),
    )
    kb = kb.with_constants(scenario.constants)
    kb = kb.with_constants(u.id for u in scenario.utterances)
    for decl in scenario.contexts:
        for f in decl.facts:
            kb = kb.assert_fact(decl.path, f)
        for f in decl.hard_rules:
            kb = kb.add_hard_rule(decl.path, f)
        for r in decl.defaults:
            kb = kb.with_default(decl.path, r)
    return kb, axioms


def _install_exclusion(kb: KnowledgeBase, scenario: Scenario, pair: tuple[str, str]) -> KnowledgeBase:
    """Narration and Result exclude one another over a site's pair.  Installed
    per minted site (not for every conceivable pair) to keep stores small."""
    excl = Implies(RelAtom("Narration", pair), Not(RelAtom("Result", pair)))
    paths = {(), (scenario.author,)} | {decl.path for decl in scenario.contexts}
    for path in sorted(paths):
        if len(path) <= kb.max_depth:
            kb = kb.add_hard_rule(path, excl)
    return kb


def _justification_for(
    rel: RelAtom,
    applications: list[SupportApplication],
    kb: KnowledgeBase,
) -> tuple[Formula, ...]:
    for app in applications:
        if app.rel == rel:
            return app.justification
    if rel.rel == "Result":
        cause = Atom("cause", (Const(rel.args[0]), Const(rel.args[1])))
        if kb.entails((), cause):
            return (rel, cause)
    return (rel,)


def run_scenario(scenario: Scenario, *, max_steps: int = 1000, max_depth: int = 3) -> RunReport:
    t0 = time.perf_counter()
    kb, axioms = build(scenario, max_depth=max_depth)
    trace = Trace()
    sdrs = Sdrs()
    contents: dict[str, Formula] = {}
    provenance: dict[Plan, str] = {}
    diagnostics: list[str] = []
    incoherent = False

    extra = scenario.rules
    attitude_rules = axioms.phase("attitude", charity=scenario.charity) + extra
    relation_base = axioms.phase("relation") + extra
    all_bp_rules: tuple[DefaultRule, ...] = ()
    sites: list[UpdateSite] = []

    def close_root(rules) -> None:
        nonlocal kb
        kb = defeasible_closure(kb, rules, (), trace=trace, max_steps=max_steps).kb

    def scan_intentions(cid: str) -> None:
        for f in kb.facts_at(()):
            if (
                isinstance(f, Att)
                and f.kind == "I"
                and f.agent == scenario.author
                and isinstance(f.body, Doing)
            ):
                provenance.setdefault(f.body.plan, cid)

    # the declared stores may already support inference (intention update etc.)
    close_root(attitude_rules)

    for k, utt in enumerate(scenario.utterances):
        contents[utt.id] = utt.content
        prior = sdrs  # the discourse so far; frontiers are computed against it
        sdrs = sdrs.with_constituent(Constituent(utt.id, utt.content, utt.mood))
        kb = kb.with_constants((utt.id,))

        if k == 0:
            # discourse-initial content is taken up directly: the interpreter
            # believes an assertion; an imperative registers as an order
            if utt.mood == "assertion":
                kb = kb.assert_fact((), Att("B", scenario.interpreter, utt.content))
            else:
                kb = kb.assert_fact((), Imp(utt.content))
            trace.note(f"utterance {utt.id} ({utt.mood}): {print_formula(utt.content)}")
            close_root(attitude_rules)
            scan_intentions(utt.id)
            continue

        frontier = open_attachment_sites(prior, axioms.registry)
        site = UpdateSite(f"tau{k}", frontier[0], utt.id)
        sites.append(site)
        kb = _install_exclusion(kb, scenario, (site.attach_to, site.new))
        trace.note(
            f"utterance {utt.id} ({utt.mood}): {print_formula(utt.content)};"
            f" site {site.tau} attaches to {site.attach_to}"
            f" (right frontier: {', '.join(frontier)})"
        )
        kb = kb.assert_fact((), site.token())
        kb = kb.assert_fact((), InfoToken(site.attach_to, site.new))
        if utt.mood == "imperative":
            kb = kb.assert_fact((), Imp(utt.content))

        # plan-anaphor clue: cause(that-way, new) resolves against the frontier
        resolved: Plan | None = None
        if kb.entails((), Atom("cause", (Const(THAT_WAY), Const(utt.id)))):
            try:
                resolved, from_cid = resolve_plan_anaphor(prior, axioms.registry, provenance)
            except (NoAntecedent, AmbiguousAntecedent) as exc:
                diagnostics.append(f"plan anaphor at {utt.id}: {exc}")
                incoherent = True
                break
            trace.note(f"plan anaphor resolved: that-way => {resolved} (intended since {from_cid})")
            kb = kb.assert_fact((), Atom("cause", (Const(site.attach_to), Const(utt.id))))

        close_root(attitude_rules)

        bp_rules = belief_property_rules(axioms, site.attach_to, utt.id, contents)
        all_bp_rules += bp_rules
        lazy_rules = relation_base + all_bp_rules
        ctx = EvalContext(rules=lazy_rules, max_steps=max_steps)

        checks = []
        for supporter, supported in ((site.attach_to, utt.id), (utt.id, site.attach_to)):
            chk = isupport_holds(kb, axioms, site, contents, supporter, supported, ctx=ctx)
            checks.append(chk)
            if chk.ok:
                kb = kb.assert_fact((), isupport_atom(supporter, supported))
                trace.note(f"Isupport({supporter},{supported}) holds")
                if chk.lazy_verified and not kb.has_fact((), chk.belief_clause):
                    kb = kb.assert_fact((), chk.belief_clause)
                    trace.note(
                        f"verified by closure at [{scenario.author}] and cached:"
                        f" {print_formula(chk.belief_clause)}"
                    )
            else:
                trace.note(f"Isupport({supporter},{supported}) does not hold")

        if any(c.ok for c in checks):
            block = Not(RelAtom("Narration", (site.attach_to, utt.id)))
            kb = kb.assert_fact((), block)
            trace.note(f"Cooperation restricts the update: {print_formula(block)}")

        close_root(lazy_rules)

        applications: list[SupportApplication] = []
        for chk in checks:
            if not chk.ok:
                continue
            app = apply_support_relation(
                kb,
                axioms,
                site,
                contents,
                chk.supporter,
                chk.supported,
                scenario.hypotheses,
                lazy_rules,
                delta_constraints=scenario.delta_constraints,
                trace=trace,
            )
            if app is None:
                continue
            applications.append(app)
            added: list[Formula] = [app.rel]
            kb = kb.assert_fact((), app.rel)
            if app.delta is not None and not kb.entails((), app.delta):
                kb = kb.assert_fact((), app.delta)
                added.append(app.delta)
            binding = {"x": chk.supporter, "y": chk.supported, "witness": Const(app.witness)}
            if app.delta is not None:
                binding["delta"] = app.delta
            trace.step("DMP", app.rule, binding, tuple(added))

        pair = (site.attach_to, utt.id)
        derived = [
            RelAtom(r, args)
            for r in _RELATION_NAMES
            for args in (pair, pair[::-1])
            if kb.entails((), RelAtom(r, args))
        ]

        violated = [
            chk
            for chk in checks
            if chk.ok
            and not any(p in derived for p in cooperation_permitted(site, chk.supporter, chk.supported))
        ]
        if violated:
            for chk in violated:
                kb, diag = contrapose_cooperation(kb, axioms, site, chk, trace)
                diagnostics.append(diag)
            incoherent = True
            break
        if not derived:
            diagnostics.append(f"no discourse relation derivable for {utt.id} at site {site.tau}")
            incoherent = True
            break

        for rel in derived:
            sdrs = attach(sdrs, site, rel, _justification_for(rel, applications, kb))
            trace.note(f"attach {print_formula(rel)}")

        for rel in derived:
            if rel.rel != "Result":
                continue
            open_content = contents[site.attach_to]
            base = resolved or (open_content.plan if isinstance(open_content, Doing) else None)
            extended = plan_apprehension(kb, axioms, rel, contents[utt.id], base)
            if extended is not None:
                intent = Att("I", scenario.author, Doing(extended))
                if not kb.entails((), intent):
                    kb = kb.assert_fact((), intent)
                    trace.step(
                        "DMP",
                        "PlanApprehension",
                        {"x": site.attach_to, "y": utt.id},
                        (intent,),
                    )
                provenance[extended] = utt.id

        close_root(all_bp_rules + extra)
        scan_intentions(utt.id)

    # reconstruct the author's communicative goals once the discourse stands
    if not incoherent and sites:
        pool = {
            "phi": tuple(Att("B", scenario.interpreter, contents[cid]) for cid in sdrs.order),
            "psi": tuple(update_content(s) for s in sites),
        }
        ctx = EvalContext(rules=relation_base + all_bp_rules, max_steps=max_steps)
        results = abduce(
            kb,
            axioms["PracticalSyllogism"],
            (),
            pool=pool,
            ctx=ctx,
            trace=trace,
        )
        for res in results:
            for h in res.hypothesis:
                if not kb.entails((), h):
                    kb = kb.assert_fact((), h, mirror=False)
        if results:
            trace.note(
                "absorbed abduced hypotheses: "
                + "; ".join(print_formula(h) for r in results for h in r.hypothesis)
            )

    if not incoherent:
        check = coherent(sdrs, kb, axioms.registry)
        if not check.ok:
            incoherent = True
            diagnostics.extend(check.diagnostics)

    verdict = "incoherent" if incoherent else "coherent"
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

    return RunReport(
        scenario=scenario,
        kb=kb,
        sdrs=sdrs,
        verdict=verdict,
        diagnostics=tuple(diagnostics),
        trace=trace,
        expectations=tuple(outcomes),
        elapsed=time.perf_counter() - t0,
    )


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
