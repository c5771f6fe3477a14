"""Formula language: AST, parser, printer, substitution, pattern matching.

Surface syntax (s-expressions, one form per formula):

    (pred a b)            atom over constant terms; 0-ary atoms may be bare: p
    (not f)  (and f g ...)  (or f g ...)  (-> f g)  (<-> f g)
    (> f g)               defeasible conditional
    (forall x (> A B))    variable-binding generic; x is free in A and B
    (B ag f) (W ag f) (I ag f)   belief / want / intend
    (R (plan a1 a2 ...))  the agent is doing/executing the plan
    (D (plan a1 a2 ...))  the plan's actions have been done
    (eventually f) (can f) (imp f)
    (site tau alpha beta) update-site token: attach new beta to open alpha
    (info alpha beta)     opaque content-summary token for a site
    (rel Result alpha beta)   discourse-relation atom over constituent ids
    (yields f g)          nonmonotonic-consequence atom: f defeasibly yields g

Plan steps are action symbols or (name arg ...) lists.  Symbols beginning with
``?`` are metavariables and only legal in rule patterns, never in ground
formulas; ``?f:doing`` restricts the metavariable to R-shaped bodies.

Formulas are immutable, so each node is keyed once: its canonical printed
form (`Formula.key`, what `print_formula` returns) and its groundness
(`Formula.ground`, what `is_ground` returns) are computed on first use from
its children's cached values and kept on the node.  So are a pattern's
variables (`Formula.variables` and `Formula.fvar_names`) and its functor
(`Formula.functor`), which rule matching reads on every round.  Equality
stays structural.  `(p ?x)` and `(p x)` print alike, so a key stands in for
equality only between ground formulas.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from . import sexp
from .errors import ParseError, ValidationError

# --------------------------------------------------------------------------- terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Var | Const


@dataclass(frozen=True)
class Action:
    name: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return "(" + " ".join((self.name,) + self.args) + ")"


@dataclass(frozen=True)
class Plan:
    steps: tuple[Action, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValidationError("a plan needs at least one action")

    def __str__(self) -> str:
        return "(plan " + " ".join(str(a) for a in self.steps) + ")"

    def then(self, other: "Plan") -> "Plan":
        return Plan(self.steps + other.steps)


# ------------------------------------------------------------------------- formulas


class Formula:
    def __str__(self) -> str:
        return self.key

    @functools.cached_property
    def key(self) -> str:
        """Canonical printed form, built from the children's keys."""
        return _render(self)

    @functools.cached_property
    def ground(self) -> bool:
        """No term variable is free and no metavariable occurs."""
        return _ground(self)

    @functools.cached_property
    def variables(self) -> frozenset[str]:
        """What a match must bind: the free term variables, the formula
        metavariables and the ?-slots."""
        return metavariables(self) | free_variables(self)

    @functools.cached_property
    def functor(self) -> tuple | None:
        """What `match` compares literally at the head of the formula: its
        class name and, for an atom or relation atom, the predicate and
        arity, for an attitude its kind and agent.  A pattern matches only
        formulas of its own functor.  A `doing` metavariable has the functor
        of `Doing`, and any other metavariable has None: it may match a
        formula of any functor (or, of an unknown shape, raise)."""
        return _functor(self)

    @functools.cached_property
    def fvar_names(self) -> frozenset[str]:
        """The names of the formula metavariables."""
        return frozenset(g.name for g in subformulas(self) if isinstance(g, FVar))


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class FVar(Formula):
    """Formula metavariable for rule patterns; shape='doing' restricts matches."""

    name: str
    shape: str | None = field(default=None, compare=True)


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValidationError("and needs at least two parts")


@dataclass(frozen=True)
class Or(Formula):
    parts: tuple[Formula, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValidationError("or needs at least two parts")


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Default(Formula):
    """Defeasible conditional `left > right` (as a formula object)."""

    left: Formula
    right: Formula


@dataclass(frozen=True)
class Generic(Formula):
    """(forall x (> ant cons)) with x free in both sides."""

    var: str
    antecedent: Formula
    consequent: Formula

    def __post_init__(self):
        for side, name in ((self.antecedent, "antecedent"), (self.consequent, "consequent")):
            if self.var not in free_variables(side):
                raise ValidationError(f"generic variable {self.var} must be free in the {name}")


_ATT_KINDS = ("B", "W", "I")


@dataclass(frozen=True)
class Att(Formula):
    """Propositional attitude: kind is B (believes), W (wants) or I (intends)."""

    kind: str
    agent: str
    body: Formula

    def __post_init__(self):
        if self.kind not in _ATT_KINDS:
            raise ValidationError(f"unknown attitude kind {self.kind!r}")


@dataclass(frozen=True)
class Doing(Formula):
    plan: Plan


@dataclass(frozen=True)
class Done(Formula):
    plan: Plan


@dataclass(frozen=True)
class Eventually(Formula):
    body: Formula


@dataclass(frozen=True)
class Can(Formula):
    body: Formula


@dataclass(frozen=True)
class Imp(Formula):
    """Imperative-mood marker around an utterance content."""

    body: Formula


@dataclass(frozen=True)
class SiteToken(Formula):
    """Update context: while tau holds, attach new constituent to the open one."""

    tau: str
    attach_to: str
    new: str


@dataclass(frozen=True)
class InfoToken(Formula):
    attach_to: str
    new: str


@dataclass(frozen=True)
class RelAtom(Formula):
    rel: str
    args: tuple[str, ...]

    def __post_init__(self):
        if len(self.args) != 2:
            raise ValidationError("discourse relations are binary")


@dataclass(frozen=True)
class Yields(Formula):
    """`(yields f g)`: adding f to the ambient store defeasibly yields g,
    while the store alone does not."""

    left: Formula
    right: Formula


# --------------------------------------------------------------------------- parser


def _is_metavar(sym: str) -> bool:
    return sym.startswith("?")


def _parse_term(form, bound: frozenset[str]) -> Term:
    if not isinstance(form, str):
        raise ParseError(f"atom arguments must be symbols, got {sexp.write(form)}")
    if _is_metavar(form):
        return Var(form[1:])
    if form in bound:
        return Var(form)
    return Const(form)


def _parse_action(form) -> Action:
    if isinstance(form, str):
        return Action(form)
    if not form or not all(isinstance(x, str) for x in form):
        raise ParseError(f"bad action {sexp.write(form)}")
    return Action(form[0], tuple(form[1:]))


def _parse_plan(form) -> Plan:
    if not isinstance(form, list) or not form or form[0] != "plan":
        raise ParseError(f"expected (plan ...), got {sexp.write(form)}")
    if len(form) < 2:
        raise ParseError("a plan needs at least one action")
    return Plan(tuple(_parse_action(a) for a in form[1:]))


def _expect_symbols(form: list, n: int, what: str) -> list[str]:
    args = form[1:]
    if len(args) != n or not all(isinstance(a, str) for a in args):
        raise ParseError(f"{what} takes {n} symbols, got {sexp.write(form)}")
    return args


def from_sexp(form, bound: frozenset[str] = frozenset()) -> Formula:
    if isinstance(form, str):
        if _is_metavar(form):
            name, _, shape = form[1:].partition(":")
            return FVar(name, shape or None)
        if form in bound:
            raise ParseError(f"bound variable {form} used in formula position")
        return Atom(form)
    if not form:
        raise ParseError("empty form")
    head = form[0]
    if not isinstance(head, str):
        raise ParseError(f"bad operator position in {sexp.write(form)}")
    rest = form[1:]

    if head == "not":
        if len(rest) != 1:
            raise ParseError("not takes one argument")
        return Not(from_sexp(rest[0], bound))
    if head in ("and", "or"):
        if len(rest) < 2:
            raise ParseError(f"{head} needs at least two arguments")
        parts = tuple(from_sexp(f, bound) for f in rest)
        return And(parts) if head == "and" else Or(parts)
    if head in ("->", "<->", ">"):
        if len(rest) != 2:
            raise ParseError(f"{head} takes two arguments")
        cls = {"->": Implies, "<->": Iff, ">": Default}[head]
        return cls(from_sexp(rest[0], bound), from_sexp(rest[1], bound))
    if head == "forall":
        if len(rest) != 2 or not isinstance(rest[0], str):
            raise ParseError("forall takes a variable and a body")
        var = rest[0]
        body = rest[1]
        if not (isinstance(body, list) and body and body[0] == ">"):
            raise ParseError("a generic's body must be a defeasible conditional (> A B)")
        if len(body) != 3:
            raise ParseError("> takes two arguments")
        inner = bound | {var}
        return Generic(var, from_sexp(body[1], inner), from_sexp(body[2], inner))
    if head in _ATT_KINDS:
        if len(rest) != 2 or not isinstance(rest[0], str):
            raise ParseError(f"({head} agent formula) expected, got {sexp.write(form)}")
        return Att(head, rest[0], from_sexp(rest[1], bound))
    if head in ("R", "D"):
        if len(rest) != 1:
            raise ParseError(f"{head} takes one plan")
        plan = _parse_plan(rest[0])
        return Doing(plan) if head == "R" else Done(plan)
    if head in ("eventually", "can", "imp"):
        if len(rest) != 1:
            raise ParseError(f"{head} takes one argument")
        cls = {"eventually": Eventually, "can": Can, "imp": Imp}[head]
        return cls(from_sexp(rest[0], bound))
    if head == "site":
        t, a, b = _expect_symbols(form, 3, "site")
        return SiteToken(t, a, b)
    if head == "info":
        a, b = _expect_symbols(form, 2, "info")
        return InfoToken(a, b)
    if head == "rel":
        if len(rest) != 3 or not all(isinstance(x, str) for x in rest):
            raise ParseError(f"(rel Name alpha beta) expected, got {sexp.write(form)}")
        return RelAtom(rest[0], (rest[1], rest[2]))
    if head == "yields":
        if len(rest) != 2:
            raise ParseError("yields takes two formulas")
        return Yields(from_sexp(rest[0], bound), from_sexp(rest[1], bound))
    if head == "plan":
        raise ParseError("a plan is not a formula; wrap it in (R ...), (D ...) or an action context")
    # anything else is an atom
    return Atom(head, tuple(_parse_term(a, bound) for a in rest))


def parse_formula(text: str) -> Formula:
    return from_sexp(sexp.read(text))


# -------------------------------------------------------------------------- printer


def _term_str(t: Term) -> str:
    return t.name


def print_formula(f: Formula) -> str:
    """Canonical printed form; parse(print(f)) == f for closed formulas."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return f.key


def _render(f: Formula) -> str:
    """One node's printed form, from its children's keys."""
    match f:
        case Atom(pred, args):
            if not args:
                return pred
            return "(" + " ".join([pred] + [_term_str(a) for a in args]) + ")"
        case FVar(name, shape):
            return f"?{name}:{shape}" if shape else f"?{name}"
        case Not(body):
            return f"(not {body.key})"
        case And(parts):
            return "(and " + " ".join(p.key for p in parts) + ")"
        case Or(parts):
            return "(or " + " ".join(p.key for p in parts) + ")"
        case Implies(l, r):
            return f"(-> {l.key} {r.key})"
        case Iff(l, r):
            return f"(<-> {l.key} {r.key})"
        case Default(l, r):
            return f"(> {l.key} {r.key})"
        case Generic(var, ant, cons):
            return f"(forall {var} (> {ant.key} {cons.key}))"
        case Att(kind, agent, body):
            return f"({kind} {agent} {body.key})"
        case Doing(plan):
            return f"(R {plan})"
        case Done(plan):
            return f"(D {plan})"
        case Eventually(body):
            return f"(eventually {body.key})"
        case Can(body):
            return f"(can {body.key})"
        case Imp(body):
            return f"(imp {body.key})"
        case SiteToken(t, a, b):
            return f"(site {t} {a} {b})"
        case InfoToken(a, b):
            return f"(info {a} {b})"
        case RelAtom(rel, args):
            return "(rel " + " ".join((rel,) + args) + ")"
        case Yields(l, r):
            return f"(yields {l.key} {r.key})"
    raise TypeError(f"not a formula: {f!r}")


# ------------------------------------------------------------------- structure walks


def children(f: Formula) -> tuple[Formula, ...]:
    match f:
        case Not(b) | Eventually(b) | Can(b) | Imp(b):
            return (b,)
        case And(parts) | Or(parts):
            return parts
        case Implies(l, r) | Iff(l, r) | Default(l, r) | Yields(l, r):
            return (l, r)
        case Generic(_, ant, cons):
            return (ant, cons)
        case Att(_, _, body):
            return (body,)
        case _:
            return ()


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from subformulas(c)


def free_variables(f: Formula) -> frozenset[str]:
    """Free term variables (generic-bound occurrences excluded)."""
    match f:
        case Atom(_, args):
            return frozenset(t.name for t in args if isinstance(t, Var))
        case Generic(var, ant, cons):
            return (free_variables(ant) | free_variables(cons)) - {var}
        case _:
            out: frozenset[str] = frozenset()
            for c in children(f):
                out |= free_variables(c)
            return out


def metavariables(f: Formula) -> frozenset[str]:
    """Names of formula metavariables and ?-slots in token/relation positions."""
    out = set()
    for g in subformulas(f):
        match g:
            case FVar(name, _):
                out.add(name)
            case SiteToken(t, a, b):
                out.update(x[1:] for x in (t, a, b) if _is_metavar(x))
            case InfoToken(a, b):
                out.update(x[1:] for x in (a, b) if _is_metavar(x))
            case RelAtom(_, args):
                out.update(x[1:] for x in args if _is_metavar(x))
    return frozenset(out)


def is_ground(f: Formula) -> bool:
    return f.ground


def _ground(f: Formula) -> bool:
    """One node's groundness, from its own slots and terms and its children's
    cached groundness.  A generic's variable is free in its children, so a
    generic is checked in full."""
    match f:
        case Atom(_, args):
            return not any(isinstance(t, Var) for t in args)
        case FVar():
            return False
        case SiteToken(t, a, b):
            return not any(_is_metavar(x) for x in (t, a, b))
        case InfoToken(a, b):
            return not any(_is_metavar(x) for x in (a, b))
        case RelAtom(_, args):
            return not any(_is_metavar(x) for x in args)
        case Generic():
            return not free_variables(f) and not metavariables(f)
        case _:
            return all(c.ground for c in children(f))


def conjuncts(f: Formula) -> tuple[Formula, ...]:
    """Flatten nested conjunctions into a tuple of non-And conjuncts."""
    if isinstance(f, And):
        out: list[Formula] = []
        for p in f.parts:
            out.extend(conjuncts(p))
        return tuple(out)
    return (f,)


def conj(parts) -> Formula:
    parts = tuple(parts)
    if not parts:
        raise ValidationError("empty conjunction")
    return parts[0] if len(parts) == 1 else And(parts)


def sat_atomic(f: Formula) -> bool:
    """True when the ground-satisfiability layer treats f as one opaque variable."""
    return not isinstance(f, (Not, And, Or, Implies, Iff))


def collect_constants(f: Formula) -> frozenset[str]:
    out = set()
    for g in subformulas(f):
        if isinstance(g, Atom):
            out.update(t.name for t in g.args if isinstance(t, Const))
    return frozenset(out)


# ----------------------------------------------------------------- substitution


def substitute(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Replace free term variables by constants; generic binders shadow."""
    match f:
        case Atom(pred, args):
            return Atom(
                pred,
                tuple(
                    Const(mapping[t.name]) if isinstance(t, Var) and t.name in mapping else t
                    for t in args
                ),
            )
        case Generic(var, ant, cons):
            inner = {k: v for k, v in mapping.items() if k != var}
            if not inner:
                return f
            return Generic(var, substitute(ant, inner), substitute(cons, inner))
        case Not(b):
            return Not(substitute(b, mapping))
        case And(parts):
            return And(tuple(substitute(p, mapping) for p in parts))
        case Or(parts):
            return Or(tuple(substitute(p, mapping) for p in parts))
        case Implies(l, r):
            return Implies(substitute(l, mapping), substitute(r, mapping))
        case Iff(l, r):
            return Iff(substitute(l, mapping), substitute(r, mapping))
        case Default(l, r):
            return Default(substitute(l, mapping), substitute(r, mapping))
        case Att(kind, agent, body):
            return Att(kind, agent, substitute(body, mapping))
        case Eventually(b):
            return Eventually(substitute(b, mapping))
        case Can(b):
            return Can(substitute(b, mapping))
        case Imp(b):
            return Imp(substitute(b, mapping))
        case Yields(l, r):
            return Yields(substitute(l, mapping), substitute(r, mapping))
        case _:
            return f


# ------------------------------------------------------------------ pattern matching

Binding = dict[str, "Formula | str | Const"]


def _match_slot(pat: str, got: str, b: Binding) -> Binding | None:
    if _is_metavar(pat):
        name = pat[1:]
        if name in b:
            return b if b[name] == got else None
        b = dict(b)
        b[name] = got
        return b
    return b if pat == got else None


def _match_term(pat: Term, got: Term, b: Binding) -> Binding | None:
    if isinstance(pat, Var):
        if pat.name in b:
            return b if b[pat.name] == got else None
        b = dict(b)
        b[pat.name] = got
        return b
    return b if pat == got else None


def _shape_ok(shape: str | None, f: Formula) -> bool:
    if shape is None:
        return True
    if shape == "doing":
        return isinstance(f, Doing)
    raise ValidationError(f"unknown metavariable shape {shape!r}")


def match(pattern: Formula, fact: Formula, binding: Binding | None = None) -> Binding | None:
    """Structurally match a pattern against a ground formula; None on failure."""
    b: Binding | None = dict(binding) if binding else {}
    if isinstance(pattern, FVar):
        if not _shape_ok(pattern.shape, fact):
            return None
        if pattern.name in b:
            return b if b[pattern.name] == fact else None
        b[pattern.name] = fact
        return b
    if type(pattern) is not type(fact):
        return None
    match pattern:
        case Atom(pred, args):
            assert isinstance(fact, Atom)
            if pred != fact.pred or len(args) != len(fact.args):
                return None
            for p, g in zip(args, fact.args):
                b = _match_term(p, g, b)
                if b is None:
                    return None
            return b
        case SiteToken(t, a, n):
            assert isinstance(fact, SiteToken)
            for p, g in ((t, fact.tau), (a, fact.attach_to), (n, fact.new)):
                b = _match_slot(p, g, b)
                if b is None:
                    return None
            return b
        case InfoToken(a, n):
            assert isinstance(fact, InfoToken)
            for p, g in ((a, fact.attach_to), (n, fact.new)):
                b = _match_slot(p, g, b)
                if b is None:
                    return None
            return b
        case RelAtom(rel, args):
            assert isinstance(fact, RelAtom)
            if rel != fact.rel or len(args) != len(fact.args):
                return None
            for p, g in zip(args, fact.args):
                b = _match_slot(p, g, b)
                if b is None:
                    return None
            return b
        case Att(kind, agent, body):
            assert isinstance(fact, Att)
            if kind != fact.kind or agent != fact.agent:
                return None
            return match(body, fact.body, b)
        case Doing(plan) | Done(plan):
            return b if plan == fact.plan else None  # type: ignore[union-attr]
        case Generic(var, _, _):
            return b if pattern == fact else None
        case _:
            pc, fc = children(pattern), children(fact)
            if len(pc) != len(fc):
                return None
            for p, g in zip(pc, fc):
                b = match(p, g, b)
                if b is None:
                    return None
            return b


def _functor(f: Formula) -> tuple | None:
    # the class by name: a tuple of strings and ints is one the cycle
    # collector stops tracking, and every formula node keeps one
    match f:
        case FVar(_, shape):
            return ("Doing",) if shape == "doing" else None
        case Atom(pred, args):
            return ("Atom", pred, len(args))
        case RelAtom(rel, args):
            return ("RelAtom", rel, len(args))
        case Att(kind, agent, _):
            return ("Att", kind, agent)
        case _:
            return (type(f).__name__,)


def _slot_value(pat: str, b: Binding) -> str:
    if _is_metavar(pat):
        name = pat[1:]
        if name not in b:
            raise ValidationError(f"unbound metavariable ?{name}")
        v = b[name]
        return v.name if isinstance(v, Const) else str(v)
    return pat


def instantiate(pattern: Formula, b: Binding) -> Formula:
    """Ground a rule pattern with a binding produced by match()."""
    match pattern:
        case FVar(name, _):
            if name not in b:
                raise ValidationError(f"unbound metavariable ?{name}")
            v = b[name]
            if not isinstance(v, Formula):
                raise ValidationError(f"metavariable ?{name} is not bound to a formula")
            return v
        case Atom(pred, args):
            out = []
            for t in args:
                if isinstance(t, Var):
                    if t.name not in b:
                        raise ValidationError(f"unbound metavariable ?{t.name}")
                    v = b[t.name]
                    out.append(v if isinstance(v, Const) else Const(str(v)))
                else:
                    out.append(t)
            return Atom(pred, tuple(out))
        case SiteToken(t, a, n):
            return SiteToken(_slot_value(t, b), _slot_value(a, b), _slot_value(n, b))
        case InfoToken(a, n):
            return InfoToken(_slot_value(a, b), _slot_value(n, b))
        case RelAtom(rel, args):
            return RelAtom(rel, tuple(_slot_value(x, b) for x in args))
        case Att(kind, agent, body):
            return Att(kind, agent, instantiate(body, b))
        case Not(x):
            return Not(instantiate(x, b))
        case And(parts):
            return And(tuple(instantiate(p, b) for p in parts))
        case Or(parts):
            return Or(tuple(instantiate(p, b) for p in parts))
        case Implies(l, r):
            return Implies(instantiate(l, b), instantiate(r, b))
        case Iff(l, r):
            return Iff(instantiate(l, b), instantiate(r, b))
        case Default(l, r):
            return Default(instantiate(l, b), instantiate(r, b))
        case Eventually(x):
            return Eventually(instantiate(x, b))
        case Can(x):
            return Can(instantiate(x, b))
        case Imp(x):
            return Imp(instantiate(x, b))
        case Yields(l, r):
            return Yields(instantiate(l, b), instantiate(r, b))
        case _:
            return pattern
