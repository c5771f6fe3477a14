"""Ground propositional satisfiability, split by shared atoms.

Every formula the rest of the package deals in is ground; anything that is
not a boolean connective (attitudes, generics, defeasible conditionals,
site/info/relation tokens, yields-atoms, plain atoms) is one opaque boolean
variable, keyed by its canonical printed form.

`satisfiable` walks each formula once: `compile_program` numbers the opaque
atoms in first-seen order and emits the formula's RPN program.  The programs
are then grouped so that no two groups share a variable.  A conjunction of
formulas over disjoint variables is satisfiable iff each group is, so each
group gets its own truth table, and the check stops at the first
unsatisfiable group.

A truth table over n variables is a single bignum of 2**n bits: bit j holds a
formula's value under assignment j (the group's k-th variable is true in
assignment j iff bit k of j is set).  Evaluating one program is a handful of
bignum operations however many assignments there are.
"""

from __future__ import annotations

import functools
from typing import Iterable

from .errors import SatTooLarge, ValidationError
from .formulas import And, Formula, Iff, Implies, Not, Or, is_ground, print_formula, sat_atomic

# An RPN program is a list of ints: a variable number (>= 0) pushes that
# variable's truth table, a negative opcode combines the top of the stack.
OP_NOT = -1
OP_AND = -2
OP_OR = -3

#: truth-table cap on one group of atoms that share formulas
MAX_VARS = 25


def compile_program(f: Formula, index: dict[str, int]) -> list[int]:
    """RPN program for f.  Opaque atoms not yet in index are added to it,
    numbered in first-seen order."""
    prog: list[int] = []

    def emit(g: Formula) -> None:
        if sat_atomic(g):
            key = print_formula(g)
            var = index.get(key)
            if var is None:
                var = index[key] = len(index)
            prog.append(var)
        elif isinstance(g, Not):
            emit(g.body)
            prog.append(OP_NOT)
        elif isinstance(g, (And, Or)):
            op = OP_AND if isinstance(g, And) else OP_OR
            emit(g.parts[0])
            for p in g.parts[1:]:
                emit(p)
                prog.append(op)
        elif isinstance(g, Implies):
            emit(g.left)
            prog.append(OP_NOT)
            emit(g.right)
            prog.append(OP_OR)
        elif isinstance(g, Iff):
            emit(g.left)
            emit(g.right)
            prog.append(OP_AND)
            emit(g.left)
            prog.append(OP_NOT)
            emit(g.right)
            prog.append(OP_NOT)
            prog.append(OP_AND)
            prog.append(OP_OR)
        else:
            raise ValidationError(f"cannot compile {g!r}")

    emit(f)
    return prog


def _groups(programs: list[list[int]], n_vars: int) -> list[tuple[list[int], list[list[int]]]]:
    """Split programs into (variables, programs) groups that share no
    variable, by union-find over variable numbers."""
    parent = list(range(n_vars))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]  # path halving
            v = parent[v]
        return v

    for prog in programs:
        root = find(prog[0])  # a program always starts by pushing a variable
        for x in prog:
            if x >= 0:
                r = find(x)
                if r != root:
                    parent[r] = root
    groups: dict[int, tuple[list[int], list[list[int]]]] = {}
    for v in range(n_vars):
        groups.setdefault(find(v), ([], []))[0].append(v)
    for prog in programs:
        groups[find(prog[0])][1].append(prog)
    return list(groups.values())


@functools.cache
def _var_mask(k: int, n_vars: int) -> int:
    """Bignum whose bit j is the value of a group's k-th variable in assignment j."""
    width = 1 << n_vars
    unit = 1 << k  # run length of equal bits
    m = ((1 << unit) - 1) << unit  # one period: `unit` zeros then `unit` ones
    span = unit << 1
    while span < width:  # replicate by doubling
        m |= m << span
        span <<= 1
    return m


def _eval(prog: list[int], masks: dict[int, int], full: int) -> int:
    stack: list[int] = []
    for op in prog:
        if op >= 0:
            stack.append(masks[op])
        elif op == OP_NOT:
            stack[-1] ^= full
        elif op == OP_AND:
            r = stack.pop()
            stack[-1] &= r
        else:  # OP_OR
            r = stack.pop()
            stack[-1] |= r
    return stack[-1]


def _group_satisfiable(variables: list[int], programs: list[list[int]]) -> bool:
    n = len(variables)
    if n > MAX_VARS:
        raise SatTooLarge(f"a group of {n} variables exceeds the cap of {MAX_VARS}")
    full = (1 << (1 << n)) - 1
    masks = {v: _var_mask(k, n) for k, v in enumerate(variables)}
    acc = full
    for prog in programs:
        acc &= _eval(prog, masks, full)
        if not acc:
            return False
    return True


def satisfiable(formulas: Iterable[Formula]) -> bool:
    fs = tuple(formulas)
    for f in fs:
        if not is_ground(f):
            raise ValidationError(f"satisfiability needs ground formulas, got {print_formula(f)}")
    index: dict[str, int] = {}
    programs = [compile_program(f, index) for f in fs]
    return all(_group_satisfiable(vs, ps) for vs, ps in _groups(programs, len(index)))


def entailed_by(store: Iterable[Formula], query: Formula) -> bool:
    """Classical entailment: store plus the query's negation is unsatisfiable."""
    return not satisfiable(tuple(store) + (Not(query),))
