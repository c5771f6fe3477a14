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
    (site tau alpha beta) update-site atom: attach new beta to open alpha
    (info alpha beta)     content-summary atom for a site
    (rel Result alpha beta)   discourse-relation atom over constituent ids
    (K alpha f)           content atom: f is the content of constituent alpha
    (yields f g)          nonmonotonic-consequence atom: f defeasibly yields g

Plan steps are action symbols or (name arg ...) lists.  `site` and `info`
are plain atoms whose parser checks their arity.  Symbols beginning with
``?`` are pattern variables and only legal in rule patterns, never in ground
formulas: in an atom's argument (a site or info atom's too), a relation
atom's argument or a content atom's constituent one is a term variable
(`Var`), which binds a constant, and in formula position a formula
metavariable (`FVar`).  A shape restricts what a metavariable binds,
``?f:doing`` to an (R ...) formula and ``?f:done`` to a (D ...) one (the
table `_SHAPES`).

Formulas are immutable, so each node is keyed once: its canonical printed
form (`Formula.key`, what `print_formula` returns) and its groundness
(`Formula.ground`, what `is_ground` returns) are computed on first use from
its children's cached values and kept on the node.  So are a pattern's
variables (`Formula.variables` and `Formula.fvar_names`) and its functor
(`Formula.functor`), which rule matching reads on every round, and its
literals (`Formula.literals`), which `satcore` reads.  The key also gives
the node's hash, so a set or dict lookup reads no child.  Equality stays
structural: `(p ?x)` and `(p x)` print alike and so hash alike, but differ,
so a key stands in for equality only between ground formulas.  `ground_key`
prints, with the same per-class printer, the key a pattern would have once
instantiated, so that a grounded pattern is looked up among a store's atoms
without being built.

Every walk over a node (`children`, printing, groundness, the variables,
`free_variables`, `substitute`, `match`, `instantiate`, `ground_key` and the
functor)
dispatches once on `type(node)` through a table with one entry per node
class, instead of trying a cascade of structural `match` cases in turn.  A
node class missing from a table raises `KeyError` rather than falling
through to a default.  The cached values are kept by `cached_attr`, a
non-data descriptor like `functools.cached_property` without its lock:
CPython 3.10 and 3.11 take that lock on every first read (3.12 dropped it,
gh-87634), and the values are pure and dicekit single-threaded, so the lock
guards nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
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


class cached_attr:
    """An attribute computed by its function on first read and then kept in
    the instance's `__dict__`, where later reads find it without a call.
    Storing into `__dict__` also works on a frozen dataclass."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Formula:
    def __init_subclass__(cls, **kwargs):
        # a node class's own __hash__ keeps @dataclass from generating one
        # that hashes the fields, walking the whole tree on every lookup
        super().__init_subclass__(**kwargs)
        cls.__hash__ = Formula.__hash__

    def __hash__(self) -> int:
        """The hash of the cached key, so a set lookup reads no child.
        Equality stays structural: formulas that print alike hash alike."""
        return hash(self.key)

    def __str__(self) -> str:
        return self.key

    @cached_attr
    def key(self) -> str:
        """Canonical printed form, built from the children's keys."""
        return _render(self)

    @cached_attr
    def ground(self) -> bool:
        """No term variable is free and no metavariable occurs."""
        return _ground(self)

    @cached_attr
    def variables(self) -> frozenset[str]:
        """What a match must bind: the free term variables and the formula
        metavariables, from the children's cached sets."""
        return _VARIABLES[type(self)](self)

    @cached_attr
    def functor(self) -> tuple | None:
        """What `match` compares literally at the head of the formula: its
        class name and, for an atom or relation atom, the predicate and
        arity, for an attitude its kind and agent.  A pattern matches only
        formulas of its own functor.  A shaped metavariable has the functor
        of its shape's class, and one of no shape has None: it may match a
        formula of any functor."""
        return _functor(self)

    @cached_attr
    def fvar_names(self) -> frozenset[str]:
        """The names of the formula metavariables, from the children's
        cached sets."""
        return _FVAR_NAMES[type(self)](self)

    @cached_attr
    def literals(self) -> tuple[tuple[str, int], ...] | None:
        """(atom key, nots) pairs when the formula is a literal (an opaque
        atom under any number of `not`s) or a conjunction of literals (`and`s
        under an even number of `not`s), else None.  Keys, not nodes, so that
        no node refers to itself."""
        return _literals(self)


@dataclass(frozen=True)
class Atom(Formula):
    pred: str
    args: tuple[Term, ...] = ()


@dataclass(frozen=True)
class FVar(Formula):
    """Formula metavariable for rule patterns; a shape, a key of `_SHAPES`,
    restricts matches to formulas of its class."""

    name: str
    shape: str | None = field(default=None, compare=True)

    def __post_init__(self):
        if self.shape is not None and self.shape not in _SHAPES:
            raise ValidationError(f"unknown metavariable shape {self.shape!r}")


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


_SHAPES = {"doing": Doing, "done": Done}  # metavariable shape -> the class it binds


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
class RelAtom(Formula):
    """A discourse relation between two constituents: names in a ground
    atom, a `Var` where a pattern has a `?` argument or a generic its own
    variable."""

    rel: str
    args: tuple[str | Var, ...]

    def __post_init__(self):
        if len(self.args) != 2:
            raise ValidationError("discourse relations are binary")


@dataclass(frozen=True)
class Content(Formula):
    """`(K cid body)`: body is the content of constituent cid, a name in a
    ground atom and a `Var` where a pattern has a `?` argument.  Opaque, as
    an attitude is: the satisfiability layer sees one variable."""

    cid: str | Var
    body: Formula


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


def _parse_name(form: str, bound: frozenset[str]) -> str | Var:
    """A constituent argument, of a relation or content atom: a name, or a
    `Var` as `_parse_term` reads one."""
    t = _parse_term(form, bound)
    return t if type(t) is Var else t.name


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


_ARITY = {"site": 3, "info": 2}  # atoms whose parser checks their arity


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
    if head in _ARITY:
        n = _ARITY[head]
        if len(rest) != n or not all(isinstance(x, str) for x in rest):
            raise ParseError(f"{head} takes {n} symbols, got {sexp.write(form)}")
    if head == "rel":
        if len(rest) != 3 or not all(isinstance(x, str) for x in rest):
            raise ParseError(f"(rel Name alpha beta) expected, got {sexp.write(form)}")
        return RelAtom(rest[0], tuple([_parse_name(x, bound) for x in rest[1:]]))
    if head == "K":
        if len(rest) != 2 or not isinstance(rest[0], str):
            raise ParseError(f"(K alpha formula) expected, got {sexp.write(form)}")
        return Content(_parse_name(rest[0], bound), from_sexp(rest[1], bound))
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


# ------------------------------------------------------------------------ dispatch

# Node classes grouped by the fields a walk descends through: each table below
# maps every node class to its case, the classes of a group sharing one.
_UNARY = (Not, Eventually, Can, Imp)  # body
_BINARY = (Implies, Iff, Default, Yields)  # left, right
_NARY = (And, Or)  # parts
_PLANS = (Doing, Done)  # plan


def _cases(unary, binary, nary, plans, singles: dict) -> dict:
    """A dispatch table: the case of each group, then those of the other
    classes (atoms, metavariables, generics, attitudes, relation atoms and
    content atoms)."""
    return {**dict.fromkeys(_UNARY, unary), **dict.fromkeys(_BINARY, binary),
            **dict.fromkeys(_NARY, nary), **dict.fromkeys(_PLANS, plans), **singles}


# -------------------------------------------------------------------------- printer


def print_formula(f: Formula) -> str:
    """Canonical printed form; parse(print(f)) == f for closed formulas."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    return f.key


def _render(f: Formula) -> str:
    """One node's printed form, from its children's keys."""
    return _RENDER[type(f)](f, str)


# Each case prints a node from the printed form `key` gives each child, a
# sub-formula or an argument: `str` for a node's own key (a formula prints as
# its key, a term or a relation argument as its name), and the printed form
# under a binding for `ground_key`.
_HEADS = {Not: "not", Eventually: "eventually", Can: "can", Imp: "imp", And: "and", Or: "or",
          Implies: "->", Iff: "<->", Default: ">", Yields: "yields", Doing: "R", Done: "D"}
_RENDER = _cases(
    lambda f, key: f"({_HEADS[type(f)]} {key(f.body)})",
    lambda f, key: f"({_HEADS[type(f)]} {key(f.left)} {key(f.right)})",
    lambda f, key: f"({_HEADS[type(f)]} " + " ".join([key(p) for p in f.parts]) + ")",
    lambda f, key: f"({_HEADS[type(f)]} {f.plan})", {
        Atom: lambda f, key: "(" + " ".join([f.pred, *[key(t) for t in f.args]]) + ")" if f.args else f.pred,
        FVar: lambda f, key: f"?{f.name}:{f.shape}" if f.shape else f"?{f.name}",
        Generic: lambda f, key: f"(forall {f.var} (> {key(f.antecedent)} {key(f.consequent)}))",
        Att: lambda f, key: f"({f.kind} {f.agent} {key(f.body)})",
        RelAtom: lambda f, key: f"(rel {f.rel} {key(f.args[0])} {key(f.args[1])})",
        Content: lambda f, key: f"(K {key(f.cid)} {key(f.body)})"})


# ------------------------------------------------------------------- structure walks

def children(f: Formula) -> tuple[Formula, ...]:
    return _CHILDREN[type(f)](f)


_leaf = lambda f: ()
_CHILDREN = _cases(lambda f: (f.body,), attrgetter("left", "right"), attrgetter("parts"), _leaf, {
    Atom: _leaf, FVar: _leaf, Generic: attrgetter("antecedent", "consequent"), Att: lambda f: (f.body,),
    RelAtom: _leaf, Content: lambda f: (f.body,)})


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    for c in children(f):
        yield from subformulas(c)


_NONE: frozenset[str] = frozenset()


def free_variables(f: Formula) -> frozenset[str]:
    """Free term variables (generic-bound occurrences excluded)."""
    return _FREE[type(f)](f)


def _free_in_children(f: Formula) -> frozenset[str]:
    return _NONE.union(*[_FREE[type(c)](c) for c in children(f)])


_no_names = lambda f: _NONE
_vars_in_args = lambda f: frozenset([t.name for t in f.args if type(t) is Var])
_var_in_cid = lambda f: frozenset([f.cid.name]) if type(f.cid) is Var else _NONE
_FREE = _cases(_free_in_children, _free_in_children, _free_in_children, _no_names, {
    Atom: _vars_in_args, FVar: _no_names, Generic: lambda f: _free_in_children(f) - {f.var},
    Att: _free_in_children, RelAtom: _vars_in_args, Content: lambda f: _var_in_cid(f) | _free_in_children(f)})


def metavariables(f: Formula) -> frozenset[str]:
    """Names of the formula metavariables."""
    return f.fvar_names


def _cached_union(attr: str, singles: dict) -> dict:
    """A table of one node's `attr`, a set of names, as the union of its
    children's cached sets (`singles` gives the other classes' cases)."""
    get = attrgetter(attr)
    return _cases(lambda f: get(f.body), lambda f: get(f.left) | get(f.right),
                  lambda f: _NONE.union(*map(get, f.parts)), _no_names, singles)


_FVAR_NAMES = _cached_union("fvar_names", {
    Atom: _no_names, FVar: lambda f: frozenset([f.name]), RelAtom: _no_names,
    Generic: lambda f: f.antecedent.fvar_names | f.consequent.fvar_names, Att: lambda f: f.body.fvar_names,
    Content: lambda f: f.body.fvar_names})
# a generic's own variable is not one of its variables, unless it also names
# a formula metavariable inside it
_VARIABLES = _cached_union("variables", {
    Atom: _vars_in_args, FVar: lambda f: frozenset([f.name]), RelAtom: _vars_in_args,
    Generic: lambda f: (f.antecedent.variables | f.consequent.variables) - {f.var} | f.fvar_names,
    Att: lambda f: f.body.variables, Content: lambda f: _var_in_cid(f) | f.body.variables})


def is_ground(f: Formula) -> bool:
    return f.ground


def _ground(f: Formula) -> bool:
    """One node's groundness, from its own arguments and its children's
    cached groundness.  A generic's variable is free in its children, so a
    generic is ground when it has no variables."""
    return _GROUND[type(f)](f)


_args_ground = lambda f: Var not in map(type, f.args)
_GROUND = _cases(
    lambda f: f.body.ground,
    lambda f: f.left.ground and f.right.ground,
    lambda f: all([p.ground for p in f.parts]),
    lambda f: True, {
        Atom: _args_ground,
        FVar: lambda f: False,
        Generic: lambda f: not f.variables,
        Att: lambda f: f.body.ground,
        RelAtom: _args_ground,
        Content: lambda f: type(f.cid) is not Var and f.body.ground})


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


_CONNECTIVES = frozenset((Not, And, Or, Implies, Iff))


def sat_atomic(f: Formula) -> bool:
    """True when the ground-satisfiability layer treats f as one opaque variable."""
    return type(f) not in _CONNECTIVES


def _literals(f: Formula) -> tuple[tuple[str, int], ...] | None:
    """One node's `Formula.literals`, from its conjuncts' cached ones."""
    nots = 0
    while type(f) is Not:
        f, nots = f.body, nots + 1
    if type(f) not in _CONNECTIVES:
        return ((f.key, nots),)
    if type(f) is not And or nots % 2:
        return None
    parts = [p.literals for p in f.parts]
    return None if None in parts else sum(parts, ())


# ----------------------------------------------------------------- substitution


def substitute(f: Formula, mapping: Mapping[str, str]) -> Formula:
    """Replace free term variables by constants, or a relation atom's by
    names; generic binders shadow."""
    return _SUBSTITUTE[type(f)](f, mapping)


def print_pattern(f: Formula) -> str:
    """A formula printed with its `?` variables (`print_formula` prints a
    term variable by its bare name)."""
    return print_formula(substitute(f, {v: f"?{v}" for v in free_variables(f)}))


def _substitute_generic(f: Generic, mapping: Mapping[str, str]) -> Formula:
    inner = {k: v for k, v in mapping.items() if k != f.var}
    if not inner:
        return f
    return Generic(f.var, substitute(f.antecedent, inner), substitute(f.consequent, inner))


_unchanged = lambda f, _: f
_substitute_name = lambda t, m: m[t.name] if type(t) is Var and t.name in m else t
_SUBSTITUTE = _cases(
    lambda f, m: type(f)(substitute(f.body, m)),
    lambda f, m: type(f)(substitute(f.left, m), substitute(f.right, m)),
    lambda f, m: type(f)(tuple([substitute(p, m) for p in f.parts])),
    _unchanged, {
        Atom: lambda f, m: Atom(f.pred, tuple(
            [Const(m[t.name]) if type(t) is Var and t.name in m else t for t in f.args])),
        Generic: _substitute_generic,
        Att: lambda f, m: Att(f.kind, f.agent, substitute(f.body, m)),
        FVar: _unchanged,
        RelAtom: lambda f, m: RelAtom(f.rel, tuple([_substitute_name(t, m) for t in f.args])),
        Content: lambda f, m: Content(_substitute_name(f.cid, m), substitute(f.body, m))})


# ------------------------------------------------------------------ pattern matching

Binding = dict[str, "Formula | Term"]


def match(pattern: Formula, fact: Formula, binding: Binding | None = None) -> Binding | None:
    """Structurally match a pattern against a ground formula, extending a
    binding; None on failure.

    A term variable binds a `Const`, in an atom's argument and a relation
    atom's alike, and a formula metavariable a formula.  A variable already
    bound compares by printed name, whichever position bound it, so
    `(cause ?x ?y)` under the binding of `(rel Result ?x ?y)` matches
    `(cause a b)`, and `?x` bound to the atom `a` matches the constant `a`.
    A generic pattern matches a generic of the same variable, which matches
    itself and nothing else, while its free variables bind as anywhere."""
    b: Binding = dict(binding) if binding else {}
    return b if _match(pattern, fact, b) else None


def _match(p: Formula, f: Formula, b: Binding) -> bool:
    """Whether p matches f, extending b in place (a failed match leaves b
    partly extended, for the caller to drop)."""
    if type(p) is not type(f):
        return type(p) is FVar and _match_fvar(p, f, b)
    return _MATCH[type(p)](p, f, b)


def _bind(name: str, got, b: Binding) -> bool:
    """Bind a variable to what it meets or, bound already, compare the two
    by printed name; a generic's own variable (a `Var`) is only itself."""
    bound = b.setdefault(name, got)
    if bound is got:
        return True
    if type(bound) is Var or type(got) is Var:
        return bound == got
    return str(bound) == str(got)


def _match_fvar(p: FVar, f: Formula, b: Binding) -> bool:
    return (p.shape is None or type(f) is _SHAPES[p.shape]) and _bind(p.name, f, b)


def _match_term(p: Term, got: Term, b: Binding) -> bool:
    if type(p) is Const:
        return p == got
    # a generic's own variable binds nothing outside it
    return (type(got) is not Var or p.name in b) and _bind(p.name, got, b)


def _match_name(p: str | Var, got: str | Var, b: Binding) -> bool:
    """A relation or content atom's constituent argument: a variable binds
    the name as a constant, and meets a generic's own variable as
    `_match_term` does."""
    if type(p) is not Var:
        return p == got
    return _match_term(p, got, b) if type(got) is Var else _bind(p.name, Const(got), b)


def _match_generic(p: Generic, f: Generic, b: Binding) -> bool:
    # the generic's own variable, free on both sides, matches only itself: a
    # generic over another variable matches nothing (no alpha-renaming)
    outer = b.get(p.var)
    b[p.var] = Var(p.var)
    ok = _match(p.antecedent, f.antecedent, b) and _match(p.consequent, f.consequent, b)
    if outer is None:
        del b[p.var]
    else:
        b[p.var] = outer
    return ok


_MATCH = _cases(
    lambda p, f, b: _match(p.body, f.body, b),
    lambda p, f, b: _match(p.left, f.left, b) and _match(p.right, f.right, b),
    lambda p, f, b: len(p.parts) == len(f.parts) and all(map(_match, p.parts, f.parts, repeat(b))),
    lambda p, f, b: p.plan == f.plan, {
        Atom: lambda p, f, b: (p.pred == f.pred and len(p.args) == len(f.args)
                               and all(map(_match_term, p.args, f.args, repeat(b)))),
        FVar: _match_fvar,
        Generic: _match_generic,
        Att: lambda p, f, b: p.kind == f.kind and p.agent == f.agent and _match(p.body, f.body, b),
        RelAtom: lambda p, f, b: p.rel == f.rel and all(map(_match_name, p.args, f.args, repeat(b))),
        Content: lambda p, f, b: _match_name(p.cid, f.cid, b) and _match(p.body, f.body, b)})


def _functor(f: Formula) -> tuple | None:
    # the class by name: a tuple of strings and ints is one the cycle
    # collector stops tracking, and every formula node keeps one
    return _FUNCTOR[type(f)](f)


_by_class = lambda f: (type(f).__name__,)
_FUNCTOR = _cases(_by_class, _by_class, _by_class, _by_class, {
    Atom: lambda f: ("Atom", f.pred, len(f.args)),
    FVar: lambda f: (_SHAPES[f.shape].__name__,) if f.shape else None,
    Att: lambda f: ("Att", f.kind, f.agent),
    RelAtom: lambda f: ("RelAtom", f.rel, len(f.args)),
    Generic: _by_class, Content: _by_class})


def _bound(name: str, b: Binding):
    if name not in b:
        raise ValidationError(f"unbound metavariable ?{name}")
    return b[name]


def instantiate(pattern: Formula, b: Binding) -> Formula:
    """Ground a rule pattern with a binding produced by match().  A generic
    keeps its own variable."""
    return _INSTANTIATE[type(pattern)](pattern, b)


def _instantiate_fvar(p: FVar, b: Binding) -> Formula:
    v = _bound(p.name, b)
    if not isinstance(v, Formula):
        raise ValidationError(f"metavariable ?{p.name} is not bound to a formula")
    return v


def _instantiate_term(t: Term, b: Binding) -> Term:
    if type(t) is Const:
        return t
    v = _bound(t.name, b)
    return v if type(v) in (Const, Var) else Const(str(v))


def _instantiate_name(t: str | Var, b: Binding) -> str | Var:
    """A relation or content atom's constituent argument: a name, or a
    generic's own variable."""
    if type(t) is str:
        return t
    v = _instantiate_term(t, b)
    return v if type(v) is Var else v.name


def _instantiate_generic(p: Generic, b: Binding) -> Formula:
    inner = {**b, p.var: Var(p.var)}
    return Generic(p.var, instantiate(p.antecedent, inner), instantiate(p.consequent, inner))


_INSTANTIATE = _cases(
    lambda p, b: type(p)(instantiate(p.body, b)),
    lambda p, b: type(p)(instantiate(p.left, b), instantiate(p.right, b)),
    lambda p, b: type(p)(tuple([instantiate(x, b) for x in p.parts])),
    _unchanged, {
        Atom: lambda p, b: Atom(p.pred, tuple([_instantiate_term(t, b) for t in p.args])),
        FVar: _instantiate_fvar,
        Generic: _instantiate_generic,
        Att: lambda p, b: Att(p.kind, p.agent, instantiate(p.body, b)),
        RelAtom: lambda p, b: RelAtom(p.rel, tuple([_instantiate_name(t, b) for t in p.args])),
        Content: lambda p, b: Content(_instantiate_name(p.cid, b), instantiate(p.body, b))})


def ground_key(pattern: Formula, b: Binding) -> str:
    """The key `instantiate(pattern, b)` would have, printed by the same
    per-class printer (`_RENDER`) without building a node, so that a
    grounded pattern can be looked up among a store's atoms.  Raises
    `ValidationError` where `instantiate` does."""
    if not pattern.variables:
        return pattern.key
    if type(pattern) is FVar:
        return _instantiate_fvar(pattern, b).key
    if type(pattern) is Generic:
        b = {**b, pattern.var: Var(pattern.var)}
    return _RENDER[type(pattern)](pattern, lambda x: _ground_child_key(x, b))


def _ground_child_key(x, b: Binding) -> str:
    """A child's printed form in `ground_key`: a sub-formula's grounded key,
    or an argument's name under the binding, as `instantiate` grounds it."""
    kind = type(x)
    if kind is Var:
        return str(_bound(x.name, b))
    if kind is Const:
        return x.name
    return x if kind is str else ground_key(x, b)
