"""Scenario files (.scn): declarative inputs for the discourse pipeline.

The format is a flat stream of s-expression tokens; `;` comments run to end
of line.  Directives:

    agents A I                        author first, interpreter second
    option charity                    enable the Charity rule
    option delta-constraint <formula> hypotheses must stay consistent with it
    context [] { ... }                store declarations; paths are [], [A],
    context [A] { ... }               [A,I] (comma-separated, no spaces)
        fact <formula>
        hard <formula>                an -> or <-> formula
        default [Name] [abducible(0,1)] (> <ant> <cons>)
    rule Name default|hard [abducible(0,1)] [everywhere] <formula>
    hypothesis <formula>              candidate deltas, tried in order
    utterance alpha assertion <formula>
    utterance beta imperative <formula>
    expect <formula>                  entailed at the root after the run
    expect not <formula>              not entailed
    expect coherent | incoherent      final verdict

A rule's formula is (> ant cons) for defaults and (-> ant cons) for hard
rules; a conjunctive antecedent contributes one conjunct per clause.  A
`rule` runs in root closures, or with `everywhere` in closures at every path;
a context's `default` becomes a rule that runs in the closures at that
context's path alone (see `engine.DefaultRule.scope`), so it takes no
`everywhere` flag.  An unnamed one is named `context-default-i-j`, the j-th
default of the file's i-th context block, both from 0.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

from . import sexp
from .engine import DefaultRule
from .errors import ParseError, ValidationError
from .formulas import Default, Formula, Implies, conjuncts, from_sexp, is_ground, print_pattern
from .kb import ContextPath
from .sdrs import MOODS

_KEYWORDS = {
    "agents",
    "option",
    "context",
    "rule",
    "hypothesis",
    "utterance",
    "expect",
    "fact",
    "hard",
    "default",
}


@dataclass(frozen=True)
class ContextDecl:
    path: ContextPath
    facts: tuple[Formula, ...] = ()
    hard_rules: tuple[Formula, ...] = ()


@dataclass(frozen=True)
class Utterance:
    id: str
    mood: str
    content: Formula


@dataclass(frozen=True)
class Expectation:
    kind: str  # "entailed" | "not-entailed" | "verdict"
    formula: Formula | None = None
    verdict: str | None = None

    def describe(self) -> str:
        if self.kind == "verdict":
            return f"expect {self.verdict}"
        if self.kind == "not-entailed":
            return f"expect not {self.formula}"
        return f"expect {self.formula}"


@dataclass(frozen=True)
class Scenario:
    name: str
    author: str = "A"
    interpreter: str = "I"
    charity: bool = False
    delta_constraints: tuple[Formula, ...] = ()
    contexts: tuple[ContextDecl, ...] = ()
    rules: tuple[DefaultRule, ...] = ()
    hypotheses: tuple[Formula, ...] = ()
    utterances: tuple[Utterance, ...] = ()
    expectations: tuple[Expectation, ...] = ()


class _Stream:
    def __init__(self, forms: list):
        self.forms = forms
        self.i = 0

    def done(self) -> bool:
        return self.i >= len(self.forms)

    def peek(self):
        return self.forms[self.i] if not self.done() else None

    def next(self):
        if self.done():
            raise ParseError("unexpected end of scenario")
        v = self.forms[self.i]
        self.i += 1
        return v

    def symbol(self, what: str) -> str:
        v = self.next()
        if not isinstance(v, str):
            raise ParseError(f"expected {what}, got {sexp.write(v)}")
        return v

    def formula(self, what: str) -> Formula:
        v = self.next()
        try:
            return from_sexp(v)
        except ParseError as e:
            raise ParseError(f"bad {what}: {e}") from None


def _parse_path(spec: str) -> ContextPath:
    m = re.fullmatch(r"\[([^\[\]]*)\]", spec)
    if m is None:
        raise ParseError(f"bad context path {spec!r}; write [], [A] or [A,I]")
    inner = m.group(1).strip()
    if not inner:
        return ()
    return tuple(part for part in inner.split(",") if part)


def _parse_abducible(form) -> frozenset[int]:
    items: list[str] = []
    if isinstance(form, str):
        items = form.split(",")
    else:
        for x in form:
            items.extend(str(x).split(","))
    try:
        return frozenset(int(x) for x in items if x != "")
    except ValueError:
        raise ParseError(f"bad abducible indices {sexp.write(form)}") from None


def _parse_rule(stream: _Stream, *, name: str, in_context: ContextPath | None) -> DefaultRule:
    """Shared tail of `rule` and context `default` directives: optional
    abducible(...) and everywhere flags, then the rule formula.  A context's
    default is scoped to its path, so it takes no everywhere flag."""
    kind = "default" if in_context is not None else stream.symbol("rule kind")
    if kind not in ("default", "hard"):
        raise ParseError(f"rule kind must be default or hard, got {kind!r}")
    abducible: frozenset[int] = frozenset()
    scope = in_context if in_context is not None else ()
    while isinstance(stream.peek(), str) and stream.peek() in ("abducible", "everywhere"):
        flag = stream.next()
        if flag == "abducible":
            abducible = _parse_abducible(stream.next())
        elif in_context is None:
            scope = "everywhere"
        else:
            raise ParseError(f"default {name} takes no everywhere: a context's default runs at its path alone")
    f = stream.formula("rule body")
    if kind == "default":
        if not isinstance(f, Default):
            raise ParseError(f"a default rule body must be (> ant cons): {f}")
        ant, cons = f.left, f.right
        hard = False
    else:
        if not isinstance(f, Implies):
            raise ParseError(f"a hard rule body must be (-> ant cons): {f}")
        ant, cons = f.left, f.right
        hard = True
        if abducible:
            raise ParseError("hard rules cannot have abducible clauses")
    try:
        return DefaultRule(
            name=name,
            antecedent=conjuncts(ant),
            consequent=cons,
            hard=hard,
            abducible=abducible,
            scope=scope,
        )
    except ValidationError as e:
        raise ParseError(f"bad rule {name}: {e}") from None


def _parse_context(stream: _Stream, decls: dict, rules: list[DefaultRule], block: int) -> None:
    """A context block, the file's `block`-th from 0: its facts and hard
    rules join the path's declaration, its defaults join `rules`, scoped to
    the path."""
    path = _parse_path(stream.symbol("context path"))
    if stream.next() != "{":
        raise ParseError("expected '{' after context path")
    facts: list[Formula] = []
    hard: list[Formula] = []
    n_defaults = 0
    while True:
        head = stream.symbol("context directive")
        if head == "}":
            break
        if head == "fact":
            facts.append(stream.formula("fact"))
        elif head == "hard":
            hard.append(stream.formula("hard rule"))
        elif head == "default":
            name = None
            if isinstance(stream.peek(), str) and stream.peek() not in _KEYWORDS | {"abducible", "everywhere"}:
                name = stream.next()
            if name is None:
                name = f"context-default-{block}-{n_defaults}"
            rules.append(_parse_rule(stream, name=name, in_context=path))
            n_defaults += 1
        else:
            raise ParseError(f"unknown context directive {head!r}")
    prev = decls.get(path, ContextDecl(path))
    decls[path] = ContextDecl(path, prev.facts + tuple(facts), prev.hard_rules + tuple(hard))


def loads(text: str, name: str = "<scenario>") -> Scenario:
    forms = sexp.read_all(text)
    stream = _Stream(forms)
    agents: tuple[str, str] | None = None
    charity = False
    delta_constraints: list[Formula] = []
    decls: dict[ContextPath, ContextDecl] = {}
    rules: list[DefaultRule] = []
    blocks = 0
    hypotheses: list[Formula] = []
    utterances: list[Utterance] = []
    expectations: list[Expectation] = []

    while not stream.done():
        head = stream.symbol("directive")
        if head == "agents":
            agents = (stream.symbol("author"), stream.symbol("interpreter"))
        elif head == "option":
            opt = stream.symbol("option name")
            if opt == "charity":
                charity = True
            elif opt == "delta-constraint":
                delta_constraints.append(stream.formula("delta constraint"))
            else:
                raise ParseError(f"unknown option {opt!r}")
        elif head == "context":
            _parse_context(stream, decls, rules, blocks)
            blocks += 1
        elif head == "rule":
            rname = stream.symbol("rule name")
            rules.append(_parse_rule(stream, name=rname, in_context=None))
        elif head == "hypothesis":
            hypotheses.append(stream.formula("hypothesis"))
        elif head == "utterance":
            uid = stream.symbol("utterance id")
            mood = stream.symbol("utterance mood")
            if mood not in MOODS:
                raise ParseError(f"unknown mood {mood!r} for utterance {uid}")
            if any(u.id == uid for u in utterances):
                raise ParseError(f"duplicate utterance id {uid!r}")
            utterances.append(Utterance(uid, mood, stream.formula("utterance content")))
        elif head == "expect":
            nxt = stream.peek()
            if nxt in ("coherent", "incoherent"):
                stream.next()
                expectations.append(Expectation("verdict", verdict=nxt))
            elif nxt == "not":
                stream.next()
                expectations.append(Expectation("not-entailed", formula=stream.formula("expectation")))
            else:
                expectations.append(Expectation("entailed", formula=stream.formula("expectation")))
        else:
            raise ParseError(f"unknown directive {head!r}")

    if agents is None:
        raise ParseError("scenario must declare agents")
    for what, formulas in (
        ("context formulas", [f for d in decls.values() for f in d.facts + d.hard_rules]),
        ("expectations", [e.formula for e in expectations if e.formula is not None]),
        ("hypotheses", hypotheses),
        ("delta constraints", delta_constraints),
        *((f"utterance {u.id}'s content", [u.content]) for u in utterances),
    ):
        for f in formulas:
            if not is_ground(f):
                raise ParseError(f"{what} must be ground: {print_pattern(f)}")
    return Scenario(
        name=name,
        author=agents[0],
        interpreter=agents[1],
        charity=charity,
        delta_constraints=tuple(delta_constraints),
        contexts=tuple(decls.values()),
        rules=tuple(rules),
        hypotheses=tuple(hypotheses),
        utterances=tuple(utterances),
        expectations=tuple(expectations),
    )


def load(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text, name=os.path.splitext(os.path.basename(path))[0])
