"""Segmented discourse structures: constituents, attachments, the right
frontier, coherence verdicts, and plan-anaphor resolution.

Attachment is always of a new constituent to an open one; relations are
recorded as directed atoms together with the formulas that justified them.
Coordinating relations close the node they attach to; subordinating relations
keep the parent on the right frontier, so later utterances may attach above.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import AmbiguousAntecedent, NoAntecedent, ValidationError
from .formulas import And, Atom, Const, Formula, Implies, Not, Plan, RelAtom, cached_attr
from .kb import KnowledgeBase

MOODS = ("assertion", "imperative")

#: relations that subordinate, keeping their parent on the right frontier
SUBORDINATING = frozenset({"Evidence"})


@dataclass(frozen=True)
class Constituent:
    id: str
    content: Formula
    mood: str = "assertion"

    def __post_init__(self):
        if self.mood not in MOODS:
            raise ValidationError(f"unknown mood {self.mood!r}")


@dataclass(frozen=True)
class UpdateSite:
    """One update event: while tau holds, attach constituent `new` to the open
    constituent `attach_to`.  Its formulas are built once, on first use, and
    kept on the site, which every phase of its utterance reads."""

    tau: str
    attach_to: str
    new: str

    @cached_attr
    def token(self) -> Atom:
        """The site atom `(site tau attach_to new)`."""
        return Atom("site", (Const(self.tau), Const(self.attach_to), Const(self.new)))

    @cached_attr
    def info(self) -> Atom:
        """The site's content-summary atom `(info attach_to new)`."""
        return Atom("info", (Const(self.attach_to), Const(self.new)))

    @cached_attr
    def content(self) -> And:
        """The update content, `(and token info)`."""
        return And((self.token, self.info))

    @cached_attr
    def exclusion(self) -> Implies:
        """Narration and Result exclude one another over the pair:
        `(-> (rel Narration attach_to new) (not (rel Result attach_to new)))`."""
        pair = (self.attach_to, self.new)
        return Implies(RelAtom("Narration", pair), Not(RelAtom("Result", pair)))


@dataclass(frozen=True)
class Attachment:
    parent: str
    child: str
    rel: RelAtom
    justification: tuple[Formula, ...] = ()


@dataclass(frozen=True)
class Sdrs:
    constituents: tuple[Constituent, ...] = ()
    attachments: tuple[Attachment, ...] = ()
    order: tuple[str, ...] = ()  # constituent ids, arrival order

    def ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.constituents)

    def constituent(self, cid: str) -> Constituent:
        for c in self.constituents:
            if c.id == cid:
                return c
        raise ValidationError(f"no constituent {cid!r}")

    def content(self, cid: str) -> Formula:
        return self.constituent(cid).content

    def relations(self) -> tuple[RelAtom, ...]:
        return tuple(a.rel for a in self.attachments)

    def with_constituent(self, c: Constituent) -> "Sdrs":
        if any(x.id == c.id for x in self.constituents):
            raise ValidationError(f"duplicate constituent id {c.id!r}")
        return replace(self, constituents=self.constituents + (c,), order=self.order + (c.id,))


def attach(
    s: Sdrs,
    site: UpdateSite,
    rel: RelAtom,
    justification: tuple[Formula, ...] = (),
) -> Sdrs:
    """Record a relation for a site.  The relation's arguments must be the
    site's two constituents (either direction)."""
    pair = {site.attach_to, site.new}
    if set(rel.args) != pair:
        raise ValidationError(
            f"relation {rel} does not connect site constituents {site.attach_to}, {site.new}"
        )
    for cid in pair:
        s.constituent(cid)  # must exist
    a = Attachment(site.attach_to, site.new, rel, tuple(justification))
    return replace(s, attachments=s.attachments + (a,))


def open_attachment_sites(s: Sdrs) -> tuple[str, ...]:
    """The right frontier, most recent first: the last-arrived constituent,
    plus every constituent reachable from it upward through subordinating
    attachments."""
    if not s.order:
        return ()
    frontier = [s.order[-1]]
    cursor = 0
    while cursor < len(frontier):
        node = frontier[cursor]
        cursor += 1
        for a in s.attachments:
            if a.child == node and a.rel.rel in SUBORDINATING and a.parent not in frontier:
                frontier.append(a.parent)
    return tuple(frontier)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    diagnostics: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def coherent(s: Sdrs, kb: KnowledgeBase) -> Verdict:
    """Every non-initial constituent must be attached by at least one relation,
    and all recorded relations and their justifications must be jointly
    satisfiable with the interpreter's store."""
    problems: list[str] = []
    attached = {a.child for a in s.attachments} | {a.parent for a in s.attachments}
    for cid in s.order[1:]:
        if cid not in attached:
            problems.append(f"constituent {cid} has no discourse relation")
    payload: list[Formula] = []
    for a in s.attachments:
        payload.append(a.rel)
        payload.extend(a.justification)
    if payload and not kb.jointly_consistent_with(payload):
        problems.append("recorded relations and their justifications contradict the store")
    return Verdict(not problems, tuple(problems))


def resolve_plan_anaphor(
    s: Sdrs,
    provenance: dict[Plan, str],
) -> tuple[Plan, str]:
    """Resolve a plan-valued anaphor ("that way") to the unique intended plan
    whose provenance constituent sits on the right frontier.  Returns the plan
    and its provenance constituent."""
    frontier = open_attachment_sites(s)
    candidates = [(p, cid) for p, cid in provenance.items() if cid in frontier]
    if not candidates:
        raise NoAntecedent("no intended plan is accessible from the right frontier")
    if len(candidates) > 1:
        names = ", ".join(f"{p} (from {cid})" for p, cid in candidates)
        raise AmbiguousAntecedent(f"more than one accessible plan: {names}")
    return candidates[0]
