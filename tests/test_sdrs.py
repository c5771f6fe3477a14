"""Discourse structures: frontier computation, attachment, coherence, anaphora."""

from __future__ import annotations

import pytest

from dicekit.errors import AmbiguousAntecedent, NoAntecedent, ValidationError
from dicekit.formulas import Action, Atom, Not, Plan, RelAtom, parse_formula
from dicekit.kb import KnowledgeBase
from dicekit.sdrs import (
    Attachment,
    Constituent,
    SUBORDINATING,
    Sdrs,
    UpdateSite,
    attach,
    coherent,
    open_attachment_sites,
    resolve_plan_anaphor,
)


def discourse(*ids: str) -> Sdrs:
    s = Sdrs()
    for cid in ids:
        s = s.with_constituent(Constituent(cid, Atom(f"c-{cid}")))
    return s


def test_registry_defaults():
    assert "Evidence" in SUBORDINATING
    assert "Result" not in SUBORDINATING
    assert "Narration" not in SUBORDINATING


def test_constituent_mood_is_validated():
    with pytest.raises(ValidationError):
        Constituent("a", Atom("p"), mood="interrogative")


def test_duplicate_constituent_ids_rejected():
    s = discourse("a")
    with pytest.raises(ValidationError):
        s.with_constituent(Constituent("a", Atom("q")))


def test_update_site_token():
    site = UpdateSite("tau1", "a", "b")
    assert site.token == parse_formula("(site tau1 a b)")
    assert site.info == parse_formula("(info a b)")
    assert site.content == parse_formula("(and (site tau1 a b) (info a b))")
    assert site.exclusion == parse_formula("(-> (rel Narration a b) (not (rel Result a b)))")
    # each is built once and kept on the site
    assert site.content.parts == (site.token, site.info)
    for name in ("token", "info", "content", "exclusion"):
        assert getattr(site, name) is getattr(site, name)
    assert site == UpdateSite("tau1", "a", "b")


def test_attach_requires_the_site_pair():
    s = discourse("a", "b")
    site = UpdateSite("tau1", "a", "b")
    with pytest.raises(ValidationError):
        attach(s, site, RelAtom("Result", ("a", "c")))
    forward = attach(s, site, RelAtom("Result", ("a", "b")))
    assert forward.relations() == (RelAtom("Result", ("a", "b")),)
    reverse = attach(s, site, RelAtom("Evidence", ("b", "a")))
    assert reverse.relations() == (RelAtom("Evidence", ("b", "a")),)


def test_attach_requires_known_constituents():
    s = discourse("a")
    with pytest.raises(ValidationError):
        attach(s, UpdateSite("tau1", "a", "b"), RelAtom("Result", ("a", "b")))


def test_frontier_of_empty_discourse_is_empty():
    assert open_attachment_sites(Sdrs()) == ()


def test_coordinating_attachment_closes_the_parent():
    s = attach(discourse("a", "b"), UpdateSite("tau1", "a", "b"), RelAtom("Result", ("a", "b")))
    assert open_attachment_sites(s) == ("b",)


def test_subordinating_attachment_keeps_the_parent_open():
    s = attach(discourse("a", "b"), UpdateSite("tau1", "a", "b"), RelAtom("Evidence", ("b", "a")))
    assert open_attachment_sites(s) == ("b", "a")


def test_frontier_walks_subordination_chains():
    s = discourse("a", "b", "c")
    s = attach(s, UpdateSite("tau1", "a", "b"), RelAtom("Evidence", ("b", "a")))
    s = attach(s, UpdateSite("tau2", "b", "c"), RelAtom("Evidence", ("c", "b")))
    assert open_attachment_sites(s) == ("c", "b", "a")
    # a coordinating step at the top cuts the chain below it
    s2 = discourse("a", "b", "c")
    s2 = attach(s2, UpdateSite("tau1", "a", "b"), RelAtom("Result", ("a", "b")))
    s2 = attach(s2, UpdateSite("tau2", "b", "c"), RelAtom("Evidence", ("c", "b")))
    assert open_attachment_sites(s2) == ("c", "b")


def test_frontier_starts_at_the_latest_constituent():
    s = discourse("a", "b")
    s = attach(s, UpdateSite("tau1", "a", "b"), RelAtom("Evidence", ("b", "a")))
    s = s.with_constituent(Constituent("c", Atom("p")))
    # c is unattached: the frontier is just c until a relation lands
    assert open_attachment_sites(s) == ("c",)


def test_coherence_requires_every_later_constituent_attached():
    s = discourse("a", "b")
    verdict = coherent(s, KnowledgeBase())
    assert not verdict
    assert any("no discourse relation" in d for d in verdict.diagnostics)
    attached = attach(s, UpdateSite("tau1", "a", "b"), RelAtom("Result", ("a", "b")))
    assert coherent(attached, KnowledgeBase())


def test_coherence_checks_relations_against_the_store():
    s = attach(discourse("a", "b"), UpdateSite("tau1", "a", "b"), RelAtom("Result", ("a", "b")))
    kb = KnowledgeBase().assert_fact((), Not(RelAtom("Result", ("a", "b"))))
    verdict = coherent(s, kb)
    assert not verdict
    assert any("contradict" in d for d in verdict.diagnostics)


def test_coherence_payload_spans_configured_viewpoints():
    s = attach(discourse("a", "b"), UpdateSite("tau1", "a", "b"), RelAtom("Result", ("a", "b")))
    kb = KnowledgeBase(root_consistency_paths=(("A",),))
    kb = kb.assert_fact(("A",), Not(RelAtom("Result", ("a", "b"))))
    assert not coherent(s, kb)


def test_plan_anaphor_resolves_to_the_unique_frontier_plan():
    plan = Plan((Action("go"),))
    s = attach(discourse("a", "b"), UpdateSite("tau1", "a", "b"), RelAtom("Evidence", ("b", "a")))
    got = resolve_plan_anaphor(s, {plan: "a"})
    assert got == (plan, "a")


def test_plan_anaphor_requires_an_accessible_antecedent():
    plan = Plan((Action("go"),))
    s = attach(discourse("a", "b"), UpdateSite("tau1", "a", "b"), RelAtom("Result", ("a", "b")))
    # a is closed off by the coordinating attachment
    with pytest.raises(NoAntecedent):
        resolve_plan_anaphor(s, {plan: "a"})


def test_plan_anaphor_rejects_ambiguity():
    p1, p2 = Plan((Action("go"),)), Plan((Action("stay"),))
    s = attach(discourse("a", "b"), UpdateSite("tau1", "a", "b"), RelAtom("Evidence", ("b", "a")))
    with pytest.raises(AmbiguousAntecedent):
        resolve_plan_anaphor(s, {p1: "a", p2: "b"})


def test_sdrs_accessors():
    s = discourse("a", "b")
    assert s.ids() == ("a", "b")
    assert s.content("a") == Atom("c-a")
    with pytest.raises(ValidationError):
        s.constituent("zzz")
    a = Attachment("a", "b", RelAtom("Result", ("a", "b")))
    assert a.justification == ()
