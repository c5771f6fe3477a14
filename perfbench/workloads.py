"""The benchmark's three workloads: inputs made from a seed, one operation,
and the check of each operation's output.

The seed chooses names and orders; the shape of the work is fixed per
workload, so two seeds give the same amount of engine work under different
constants (see README.md for why each workload exists).

* ``corpus``  -- one pass over the six paper scenarios in a seeded order.
* ``chain``   -- one generated imperative-plus-enablements discourse of
  `CHAIN_N` utterances, fresh names for every operation.
* ``rulesys`` -- one ground default-rule system: closure at the root plus a
  few two-closure ``yields`` queries, checked against the brute-force oracle.

Nothing here imports ``dicekit`` at module level: `setup` does, so that the
set-up time covers the import.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("corpus", "chain", "rulesys")

#: utterances per chain operation; the longest chain the engine interprets today
CHAIN_N = 4
#: distinct chain discourses made at set-up; more than one run can consume
CHAIN_POOL = 64
#: seeded scenario orders for corpus passes, cycled
CORPUS_ORDERS = 16
#: ground rule systems per seed, cycled by the timed loop
RULESYS_POOL = 24
#: the rule systems' structure comes from this fixed stream; the seed only names
RULESYS_SHAPE_SEED = 1994
RULESYS_ATOMS = 8
RULESYS_MOTIFS = 5
RULESYS_QUERIES = 2

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def seeded_names(rng: random.Random, count: int, taken: set[str]) -> list[str]:
    """count distinct five-letter consonant-vowel symbols not in taken."""
    out = []
    while len(out) < count:
        word = "".join(
            rng.choice(_CONSONANTS if i % 2 == 0 else _VOWELS) for i in range(5)
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


# ---------------------------------------------------------------------- chain


def chain_text(utterances: list[str], steps: list[str]) -> str:
    """A .scn discourse: an imperative, then enablements, each pair linked by
    a cause fact; the expectations follow from the construction."""
    n = len(utterances)
    pairs = list(zip(utterances, utterances[1:]))
    lines = ["agents A I", "context [] {"]
    lines += [f"  fact (cause {a} {b})" for a, b in pairs]
    lines += ["}"]
    lines.append(f"utterance {utterances[0]} imperative (R (plan {steps[0]}))")
    lines += [
        f"utterance {utterances[k]} assertion (can (R (plan {steps[k]})))" for k in range(1, n)
    ]
    lines.append("expect coherent")
    lines += [f"expect (rel Result {a} {b})" for a, b in pairs]
    lines += [f"expect not (rel Narration {a} {b})" for a, b in pairs]
    lines.append(f"expect (I A (R (plan {steps[0]})))")
    if n > 1:
        lines.append(f"expect (I A (R (plan {steps[0]} {steps[1]})))")
    return "\n".join(lines) + "\n"


def chain_texts(seed: int, count: int, n: int = CHAIN_N) -> list[str]:
    rng = random.Random(f"chain/{seed}")
    taken = {"that-way"}
    return [
        chain_text(seeded_names(rng, n, taken), seeded_names(rng, n, taken))
        for _ in range(count)
    ]


# -------------------------------------------------------------------- rulesys


@dataclass(frozen=True)
class RuleSystemShape:
    """A ground rule system over atom numbers: literals are (atom, positive)."""

    facts: tuple
    hard: tuple  # ((atom, positive), (atom, positive)): left -> right
    rules: tuple  # (name, antecedent literals, consequent literal)
    queries: tuple  # (phi literal, psi literal)


def rulesys_shapes(count: int = RULESYS_POOL) -> list[RuleSystemShape]:
    """Seed-independent structures.  Each motif is a default plus a
    conflicting twin: a Penguin twin has a strictly stronger antecedent (a
    conjunction, or an atom that hard-implies the base antecedent) and wins
    on specificity; a Nixon twin has an incomparable antecedent and stands
    off.  Motifs share atoms, so one motif's conclusion can trigger or block
    another's and closures take several rounds.  Most queries add the
    antecedent of a motif whose triggers were withheld from the facts."""
    rng = random.Random(RULESYS_SHAPE_SEED)
    shapes = []
    for _ in range(count):
        facts, hard, rules, withheld = [], [], [], []
        for m in range(RULESYS_MOTIFS):
            a, b, c = rng.sample(range(RULESYS_ATOMS), 3)
            sign = rng.random() < 0.5
            rules.append((f"M{m}a", ((a, True),), (c, sign)))
            if rng.random() < 0.5:  # Penguin
                if rng.random() < 0.5:
                    hard.append(((b, True), (a, True)))
                    rules.append((f"M{m}b", ((b, True),), (c, not sign)))
                    triggers = [(b, True)]
                else:
                    rules.append((f"M{m}b", ((a, True), (b, True)), (c, not sign)))
                    triggers = [(a, True), (b, True)]
            else:  # Nixon
                rules.append((f"M{m}b", ((b, True),), (c, not sign)))
                triggers = [(a, True), (b, True)]
            if rng.random() < 0.7:
                facts.extend(triggers)
            else:
                withheld.append((triggers[0], (c, sign)))
        queries = []
        for _ in range(RULESYS_QUERIES):
            if withheld and rng.random() < 0.7:
                queries.append(rng.choice(withheld))
            else:
                queries.append(tuple((rng.randrange(RULESYS_ATOMS), rng.random() < 0.5) for _ in "pq"))
        shapes.append(RuleSystemShape(
            tuple(dict.fromkeys(facts)), tuple(hard), tuple(rules), tuple(queries)))
    return shapes


def rulesys_names(seed: int) -> list[str]:
    return seeded_names(random.Random(f"rulesys/{seed}"), RULESYS_ATOMS, set())


# ---------------------------------------------------------------------- setup


@dataclass
class Workload:
    name: str
    inputs: list  # one entry per operation input, cycled in order
    run: object  # input -> output
    checker: object  # () -> check(input index, output) -> bool; may be slow


def setup(name: str, seed: int, root: str, *, tracer_hook=None) -> Workload:
    """Import dicekit and make the workload's inputs.  tracer_hook(dicekit)
    runs right after the import, so parsing can be traced."""
    import dicekit

    if tracer_hook is not None:
        tracer_hook(dicekit)
    if name == "corpus":
        return _corpus(seed, root, dicekit)
    if name == "chain":
        return _chain(seed, dicekit)
    if name == "rulesys":
        return _rulesys(seed, root, dicekit)
    raise ValueError(f"unknown workload {name!r}")


def _corpus(seed, root, dicekit) -> Workload:
    folder = os.path.join(root, "scenarios")
    files = sorted(f for f in os.listdir(folder) if f.endswith(".scn"))
    scenarios = []
    for f in files:
        with open(os.path.join(folder, f), encoding="utf-8") as fh:
            scenarios.append(dicekit.loads(fh.read(), f[:-4]))
    rng = random.Random(f"corpus/{seed}")
    orders = [rng.sample(range(len(scenarios)), len(scenarios)) for _ in range(CORPUS_ORDERS)]

    def run(order):
        return [dicekit.run_scenario(scenarios[i]) for i in order]

    def check(_, reports):
        return len(reports) == len(scenarios) and all(r.ok for r in reports)

    return Workload("corpus", orders, run, lambda: check)


def _chain(seed, dicekit) -> Workload:
    scenarios = [dicekit.loads(t, f"chain{k}") for k, t in enumerate(chain_texts(seed, CHAIN_POOL))]

    def check(k, report):
        return check_chain(scenarios[k], report)

    def run(scn):
        return dicekit.run_scenario(scn)  # looked up per call, so a tracer sees it

    return Workload("chain", scenarios, run, lambda: check)


def check_chain(scn, report) -> bool:
    """Coherent, every expectation in the text holds, and the attachments are
    exactly Result over each consecutive pair."""
    ids = [u.id for u in scn.utterances]
    want = {("Result", a, b) for a, b in zip(ids, ids[1:])}
    got = {(a.rel.rel,) + tuple(a.rel.args) for a in report.sdrs.attachments}
    return report.verdict == "coherent" and report.ok and got == want


def rulesys_inputs(seed: int, dicekit) -> list:
    """(facts, hard rules, rules, queries) per system, named from the seed."""
    names = rulesys_names(seed)
    Atom, Not, Implies, DefaultRule = dicekit.Atom, dicekit.Not, dicekit.Implies, dicekit.DefaultRule

    def lit(pair):
        atom = Atom(names[pair[0]])
        return atom if pair[1] else Not(atom)

    out = []
    for shape in rulesys_shapes():
        facts = tuple(lit(p) for p in shape.facts)
        hard = tuple(Implies(lit(l), lit(r)) for l, r in shape.hard)
        rules = tuple(
            DefaultRule(name, tuple(lit(p) for p in ants), lit(cons))
            for name, ants, cons in shape.rules
        )
        queries = tuple((lit(p), lit(q)) for p, q in shape.queries)
        out.append((facts, hard, rules, queries))
    return out


def _rulesys(seed, root, dicekit) -> Workload:
    inputs = rulesys_inputs(seed, dicekit)

    def run(system):
        facts, hard, rules, queries = system
        kb = dicekit.KnowledgeBase()
        for f in facts:
            kb = kb.assert_fact((), f)
        for h in hard:
            kb = kb.add_hard_rule((), h)
        closed = dicekit.defeasible_closure(kb, rules, ())
        verdicts = tuple(dicekit.nonmon_yields(kb, rules, (), phi, psi) for phi, psi in queries)
        return frozenset(closed.kb.facts_at(())), verdicts

    def checker():
        expected = rulesys_oracle(inputs, _reference(root))
        return lambda k, output: output == expected[k]

    return Workload("rulesys", inputs, run, checker)


def _reference(root: str):
    """The repository's brute-force oracles (tests/reference.py)."""
    import importlib.util
    import sys

    name = "dicekit_reference_oracles"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, os.path.join(root, "tests", "reference.py"))
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up while it loads
        spec.loader.exec_module(module)
    return sys.modules[name]


def rulesys_oracle(inputs, reference) -> list:
    """Expected output per system: the reference closure's facts and the
    reference two-closure yields verdicts."""
    expected = []
    for facts, hard, rules, queries in inputs:
        closure = frozenset(reference.ref_closure(facts, hard, rules))
        verdicts = tuple(
            reference.ref_nonmon_yields(facts, hard, rules, phi, psi) for phi, psi in queries
        )
        expected.append((closure, verdicts))
    return expected
