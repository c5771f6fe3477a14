"""Brute-force reference implementations used as test oracles.

Everything here trades efficiency for obviousness, and shares no code with
the real implementations beyond the formula types themselves:

* satisfiability checks candidate assignments one at a time with a recursive
  evaluator (the satcore kernels compile to RPN and sweep all assignments as
  bit-vectors);
* the closure re-derives the documented conflict regime from scratch over
  ground rules (applicable defaults fire unless blocked by inconsistency or
  defeated by a conflicting default that is not strictly less specific, in
  rule-name order, rechecking as the store grows);
* an intention state tracks a plan's executed prefix as a record (the
  engine's progress schema is a closure rule over `(I A (R p))` and
  `(D q)` atoms);
* the s-expression reader walks the text one character at a time, keeping
  the line and column as it goes (`dicekit.sexp` tokenizes with one regular
  expression and works a position out only when it raises).

Agreement between these and the real implementations is what the randomized
suites assert.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

from dicekit.errors import NotAPrefix, ParseError
from dicekit.formulas import (
    Action,
    And,
    Att,
    Doing,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Plan,
    conjuncts,
    print_formula,
    sat_atomic,
)

# ------------------------------------------------------------------- naive SAT


def formula_atoms(f: Formula, out: dict) -> None:
    """Collect opaque-atom keys (canonical prints), first-seen order."""
    if sat_atomic(f):
        out.setdefault(print_formula(f))
        return
    if isinstance(f, Not):
        formula_atoms(f.body, out)
    elif isinstance(f, (And, Or)):
        for p in f.parts:
            formula_atoms(p, out)
    else:  # Implies | Iff
        formula_atoms(f.left, out)
        formula_atoms(f.right, out)


def eval_formula(f: Formula, assignment: dict) -> bool:
    if sat_atomic(f):
        return assignment[print_formula(f)]
    if isinstance(f, Not):
        return not eval_formula(f.body, assignment)
    if isinstance(f, And):
        return all(eval_formula(p, assignment) for p in f.parts)
    if isinstance(f, Or):
        return any(eval_formula(p, assignment) for p in f.parts)
    if isinstance(f, Implies):
        return (not eval_formula(f.left, assignment)) or eval_formula(f.right, assignment)
    if isinstance(f, Iff):
        return eval_formula(f.left, assignment) == eval_formula(f.right, assignment)
    raise TypeError(f"not a formula: {f!r}")


def assignments(formulas):
    """Every truth assignment over the formulas' atoms, one dict at a time."""
    atoms: dict = {}
    for f in formulas:
        formula_atoms(f, atoms)
    names = list(atoms)
    for values in itertools.product((False, True), repeat=len(names)):
        yield dict(zip(names, values))


def satisfiable(formulas) -> bool:
    fs = tuple(formulas)
    return any(all(eval_formula(f, a) for f in fs) for a in assignments(fs))


def entails(premises, conclusion: Formula) -> bool:
    return not satisfiable(tuple(premises) + (Not(conclusion),))


def satisfiable_pinned(formulas) -> bool:
    """`satisfiable`, but literal formulas pin their atom before the sweep.

    A literal admits exactly one value for its atom, so every model extends
    the pinned partial assignment and the enumeration only needs to range
    over the remaining atoms.  Same answer as `satisfiable`, smaller product;
    knowledge-base stores are mostly literals, which keeps full-store checks
    tractable."""
    pins: dict = {}
    rest = []
    for f in formulas:
        if sat_atomic(f):
            key, val = print_formula(f), True
        elif isinstance(f, Not) and sat_atomic(f.body):
            key, val = print_formula(f.body), False
        else:
            rest.append(f)
            continue
        if pins.setdefault(key, val) != val:
            return False
    atoms: dict = {}
    for f in rest:
        formula_atoms(f, atoms)
    free = [a for a in atoms if a not in pins]
    for values in itertools.product((False, True), repeat=len(free)):
        assignment = dict(pins)
        assignment.update(zip(free, values))
        if all(eval_formula(f, assignment) for f in rest):
            return True
    return False


def entails_pinned(premises, conclusion: Formula) -> bool:
    return not satisfiable_pinned(tuple(premises) + (Not(conclusion),))


# ------------------------------------------------------------ reference closure


@dataclass(frozen=True)
class RefRule:
    """A ground rule for the reference closure."""

    name: str
    antecedent: tuple[Formula, ...]
    consequent: Formula
    hard: bool = False


def _conj(parts) -> Formula:
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else And(parts)


def ref_closure(facts, hard_rules, rules, *, max_rounds: int = 200) -> tuple[Formula, ...]:
    """Fixpoint over ground rules under the documented regime.

    Per round: a rule is a candidate when its antecedents are all entailed
    and its consequent is not yet entailed.  Hard candidates always fire.  A
    default is blocked when its consequent contradicts the store; of two
    consistent candidates with jointly contradictory consequents, only one
    whose antecedent strictly entails the other's (given the hard rules) may
    fire -- otherwise both stay silent.  Winners fire in rule-name order,
    rechecking consistency against facts added earlier in the round.
    """
    facts = list(dict.fromkeys(facts))
    hard_rules = tuple(hard_rules)
    ordered = sorted(rules, key=lambda r: r.name)

    def store() -> tuple[Formula, ...]:
        return tuple(facts) + hard_rules

    def add(f: Formula) -> None:
        for c in conjuncts(f):
            if c not in facts:
                facts.append(c)

    for _ in range(max_rounds):
        cands = [
            r
            for r in ordered
            if not entails(store(), r.consequent)
            and all(entails(store(), a) for a in r.antecedent)
        ]
        if not cands:
            break
        ok = {r.name: r.hard or satisfiable(store() + (r.consequent,)) for r in cands}
        winners = []
        for r in cands:
            if r.hard:
                winners.append(r)
                continue
            if not ok[r.name]:
                continue
            defeated = False
            for s in cands:
                if s is r or s.hard or not ok[s.name]:
                    continue
                if satisfiable(store() + (r.consequent, s.consequent)):
                    continue
                stronger = entails(r.antecedent + hard_rules, _conj(s.antecedent))
                weaker = entails(s.antecedent + hard_rules, _conj(r.antecedent))
                if not (stronger and not weaker):
                    defeated = True
            if not defeated:
                winners.append(r)
        progressed = False
        for r in winners:
            if entails(store(), r.consequent):
                continue
            if not r.hard and not satisfiable(store() + (r.consequent,)):
                continue
            add(r.consequent)
            progressed = True
        if not progressed:
            break
    return tuple(facts)


def ref_nonmon_yields(facts, hard_rules, rules, phi: Formula, psi: Formula) -> bool:
    """phi defeasibly yields psi: psi follows from the closure with phi added
    but not from the closure of the store alone."""
    hard_rules = tuple(hard_rules)
    base = ref_closure(facts, hard_rules, rules)
    augmented = ref_closure(tuple(facts) + (phi,), hard_rules, rules)
    return entails(augmented + hard_rules, psi) and not entails(base + hard_rules, psi)


# ------------------------------------------------------------ random instances


def random_formula(rng, atom_names, depth: int) -> Formula:
    """A random ground boolean formula over named 0-ary atoms."""
    from dicekit.formulas import Atom

    if depth <= 0 or rng.random() < 0.35:
        return Atom(rng.choice(atom_names))
    shape = rng.choice(("not", "and", "or", "->", "<->"))
    if shape == "not":
        return Not(random_formula(rng, atom_names, depth - 1))
    if shape in ("and", "or"):
        parts = tuple(
            random_formula(rng, atom_names, depth - 1) for _ in range(rng.randint(2, 3))
        )
        return And(parts) if shape == "and" else Or(parts)
    left = random_formula(rng, atom_names, depth - 1)
    right = random_formula(rng, atom_names, depth - 1)
    return Implies(left, right) if shape == "->" else Iff(left, right)


def random_literal(rng, atom_names) -> Formula:
    from dicekit.formulas import Atom

    atom = Atom(rng.choice(atom_names))
    return Not(atom) if rng.random() < 0.5 else atom


# ------------------------------------------------------------ intention update


@dataclass(frozen=True)
class IntentionState:
    """An intended plan together with executed progress (a prefix)."""

    agent: str
    plan: Plan
    done: tuple[Action, ...] = ()

    def __post_init__(self):
        if self.plan.steps[: len(self.done)] != self.done:
            raise NotAPrefix(f"done actions {self.done} are not a prefix of {self.plan}")

    def intended(self) -> Plan | None:
        rest = self.plan.steps[len(self.done) :]
        return Plan(rest) if rest else None

    def intention_formula(self) -> Formula | None:
        rest = self.intended()
        return Att("I", self.agent, Doing(rest)) if rest else None

    def dropped_formula(self) -> Formula | None:
        """The intention the done prefix no longer is; None when nothing is
        done, or when the remainder is the done prefix again (the two
        intentions are one formula, which stays intended)."""
        if not self.done or self.intended() == Plan(self.done):
            return None
        return Not(Att("I", self.agent, Doing(Plan(self.done))))


def update_intentions(state: IntentionState, done) -> IntentionState:
    """Advance progress by newly done actions (they must continue the plan)."""
    steps = done.steps if isinstance(done, Plan) else tuple(done)
    new_done = state.done + steps
    if state.plan.steps[: len(new_done)] != new_done:
        raise NotAPrefix(
            f"done actions {tuple(str(a) for a in steps)} do not continue {state.plan}"
            f" at position {len(state.done)}"
        )
    return replace(state, done=new_done)


# ---------------------------------------------------------- s-expression reader


class SexpReader:
    """Reads forms one character at a time, tracking line and column."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def skip_blank(self) -> None:
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == ";":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self._advance()
            elif c.isspace():
                self._advance()
            else:
                return

    def at_end(self) -> bool:
        self.skip_blank()
        return self.pos >= len(self.text)

    def read(self):
        self.skip_blank()
        if self.pos >= len(self.text):
            raise self.error("unexpected end of input")
        c = self.text[self.pos]
        if c == "(":
            self._advance()
            items = []
            while True:
                self.skip_blank()
                if self.pos >= len(self.text):
                    raise self.error("unclosed '('")
                if self.text[self.pos] == ")":
                    self._advance()
                    return items
                items.append(self.read())
        if c == ")":
            raise self.error("unexpected ')'")
        return self._read_symbol()

    def _read_symbol(self) -> str:
        start = self.pos
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c.isspace() or c in "()" or c == ";":
                break
            self._advance()
        if self.pos == start:
            raise self.error("expected a symbol")
        return self.text[start : self.pos]


def read_sexp(text: str):
    """Read exactly one form; trailing non-blank input is an error."""
    r = SexpReader(text)
    form = r.read()
    if not r.at_end():
        raise r.error("trailing input after form")
    return form


def read_all_sexp(text: str) -> list:
    r = SexpReader(text)
    forms = []
    while not r.at_end():
        forms.append(r.read())
    return forms
