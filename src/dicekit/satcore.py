"""Ground propositional satisfiability, split by shared atoms.

Every formula the rest of the package deals in is ground; anything that is
not a boolean connective (attitudes, generics, defeasible conditionals,
relation atoms, yields-atoms, plain atoms, site and info atoms among them)
is one opaque boolean variable, keyed by its canonical printed form
(`Formula.key`, cached on the node).

`compile_program` walks a formula once: it numbers the opaque atoms in
first-seen order and emits the formula's RPN program.  The programs are then
grouped so that no two groups share a variable.  A conjunction of formulas
over disjoint variables is satisfiable iff each group is, so each group gets
its own truth table.  Every group is checked against `MAX_VARS` before any is
decided, so whether `SatTooLarge` is raised does not depend on formula order.

A store answers many queries, so `compile_formulas` compiles its formulas
once into a `Compiled` form: the atom index, the groups with their programs
and truth tables, each variable's group and its position there, and the
verdict.  `satisfiable(extra, base=compiled)` then compiles only the extra
formulas, numbering their new atoms after the base's.  It merges the base
groups the extras touch with the extras, and decides only those merged
groups: an untouched base group is satisfiable whenever the base is.  A call
without a base runs the same routine over an empty base.

Most queries are literal-shaped: a set of literals (opaque atoms under any
number of `not`s, given as several extras or as an `and` of them), perhaps
with the negation of one such conjunction (`entails` of a literal or an
`and`, and `engine.specificity`'s test of each conjunct, which pass it as
`negated` rather than build its negation).
`satisfiable` sorts a query in one pass that checks each formula is ground
and reads its (atom key, nots) pairs (`Formula.literals`, cached on the
node; a lone formula's pairs are read as they are, not copied).  A literal
set, of one member or more, is then decided from the stored tables alone,
in one plain loop (`_literals_fit`): each touched group's table is narrowed
by the mask of each literal's atom key, and a literal on an atom the base
lacks is free unless the set also holds its complement.  A negated
conjunction is satisfiable iff one negated conjunct is, together with the
other literals, so each conjunct, its parity flipped, costs one mask test
against the narrowed tables; a lone literal query is one such test.  So
only a compound query compiles.  `verdict` answers both questions
about one literal set, whether the base entails it and whether it is
consistent with the base, by one such loop each, without compiling: the
closure asks both of each rule instance's consequent.  A store one
literal larger than a compiled one is compiled by `add_literal`: an atom
the base numbers narrows its group's table by the atom's mask, and a new
atom becomes a group of its own, so no other group is touched.  A store one hard rule larger is
compiled by `add_formula`, which merges the groups the rule touches with its
new atoms, builds that one group's table and numbers again only the
variables of the groups it merged or moved.

A truth table over n variables is a single bignum of 2**n bits: bit j holds a
formula's value under assignment j (the group's k-th variable is true in
assignment j iff bit k of j is set).  Evaluating one program is a handful of
bignum operations however many assignments there are.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import SatTooLarge, ValidationError
from .formulas import And, Formula, Iff, Implies, Not, Or, print_formula, sat_atomic

# An RPN program is a list of ints: a variable number (>= 0) pushes that
# variable's truth table, a negative opcode combines the top of the stack.
OP_NOT = -1
OP_AND = -2
OP_OR = -3

#: truth-table cap on one group of atoms that share formulas
MAX_VARS = 25

#: (variables, programs): formulas that share atoms, and the atoms they use
Group = tuple[list[int], list[list[int]]]


def compile_program(f: Formula, index: dict[str, int], known: Mapping[str, int] = {}) -> list[int]:
    """RPN program for f.  An opaque atom in known keeps its number there;
    any other atom not yet in index is added to it, numbered after known's
    atoms in first-seen order."""
    prog: list[int] = []
    _emit(f, prog, index, known, len(known))
    return prog


def _emit(g: Formula, prog: list[int], index: dict[str, int], known: Mapping[str, int], offset: int) -> None:
    """Append g's program to prog (see `compile_program`).  Not nested in
    `compile_program`: a nested function that calls itself holds itself
    through its closure, a reference cycle per compile that only the cycle
    collector frees."""
    if sat_atomic(g):
        key = g.key
        var = known.get(key)
        if var is None:
            var = index.get(key)
            if var is None:
                var = index[key] = offset + len(index)
        prog.append(var)
    elif isinstance(g, Not):
        _emit(g.body, prog, index, known, offset)
        prog.append(OP_NOT)
    elif isinstance(g, (And, Or)):
        op = OP_AND if isinstance(g, And) else OP_OR
        _emit(g.parts[0], prog, index, known, offset)
        for p in g.parts[1:]:
            _emit(p, prog, index, known, offset)
            prog.append(op)
    elif isinstance(g, Implies):
        _emit(g.left, prog, index, known, offset)
        prog.append(OP_NOT)
        _emit(g.right, prog, index, known, offset)
        prog.append(OP_OR)
    elif isinstance(g, Iff):
        _emit(g.left, prog, index, known, offset)
        _emit(g.right, prog, index, known, offset)
        prog.append(OP_AND)
        _emit(g.left, prog, index, known, offset)
        prog.append(OP_NOT)
        _emit(g.right, prog, index, known, offset)
        prog.append(OP_NOT)
        prog.append(OP_AND)
        prog.append(OP_OR)
    else:
        raise ValidationError(f"cannot compile {g!r}")


@dataclass(frozen=True, eq=False)
class Compiled:
    """A formula set compiled once: its atom index, its groups (no two share a
    variable), each group's truth table (0 when the group is unsatisfiable),
    each variable's group number and its position among the group's
    variables, and whether the set is satisfiable.  Read-only once built; a
    `Compiled` made by `add_literal` shares what it did not change with its
    base."""

    index: dict[str, int]
    groups: tuple[Group, ...]
    tables: tuple[int, ...]
    group_of: list[int]
    position: list[int]
    sat: bool


_EMPTY = Compiled({}, (), (), [], [], True)


def _extend(base: Compiled, fs: tuple[Formula, ...]) -> tuple[dict[str, int], list[Group]]:
    """Compile ground formulas against base.  Returns their atoms that base
    lacks, and the groups they form together with the base groups they touch
    (union-find over base group numbers and new variables).  Raises before
    any group is decided if one exceeds MAX_VARS."""
    new: dict[str, int] = {}
    programs = [compile_program(f, new, base.index) for f in fs]
    n_base, n_groups, group_of = len(base.index), len(base.groups), base.group_of
    # node g < n_groups is base group g; node n_groups + k is new variable n_base + k
    shift = n_groups - n_base
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    def node(v: int) -> int:
        return v + shift if v >= n_base else group_of[v]

    for prog in programs:
        root = find(node(prog[0]))  # a program always starts by pushing a variable
        for x in prog:
            if x >= 0:
                r = find(node(x))
                if r != root:
                    parent[r] = root
    merged: dict[int, Group] = {}
    for x in parent:
        vs, ps = merged.setdefault(find(x), ([], []))
        if x < n_groups:
            vs.extend(base.groups[x][0])
            ps.extend(base.groups[x][1])
        else:
            vs.append(x - shift)
    for prog in programs:
        merged[find(node(prog[0]))][1].append(prog)
    groups = list(merged.values())
    for vs, _ in groups:
        if len(vs) > MAX_VARS:
            raise SatTooLarge(f"a group of {len(vs)} variables exceeds the cap of {MAX_VARS}")
    return new, groups


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


def _table(variables: list[int], programs: list[list[int]]) -> int:
    """The group's truth table: bit j is set iff assignment j satisfies every
    program (0 when none does)."""
    n = len(variables)
    full = (1 << (1 << n)) - 1
    masks = {v: _var_mask(k, n) for k, v in enumerate(variables)}
    acc = full
    for prog in programs:
        acc &= _eval(prog, masks, full)
        if not acc:
            break
    return acc


def _literals_fit(base: Compiled, lits: Iterable[tuple[str, int]], negation: tuple[tuple[str, int], ...] = ()) -> bool:
    """Whether the literals, (atom key, nots) pairs, fit some assignment the
    base's tables allow, together with the negation of the conjunction of
    `negation`'s literals when that is not empty.  The literals fit when each
    touched group's table stays nonzero once narrowed by its literals, and
    no atom the base lacks is wanted both true and false.  A negated
    conjunction holds iff one of its conjuncts fails, so it fits when some
    conjunct, its parity flipped, fits the narrowed tables: one mask test
    each.  Assumes base.sat.  Each dict is made when first written."""
    tables = None  # touched group -> its narrowed table
    free = None  # atom the base lacks -> the parity of its nots
    for key, nots in lits:
        var = base.index.get(key)
        if var is None:
            if free is None:
                free = {}
            if free.setdefault(key, nots % 2) != nots % 2:
                return False
            continue
        g = base.group_of[var]
        table = tables.get(g, base.tables[g]) if tables else base.tables[g]
        mask = _var_mask(base.position[var], len(base.groups[g][0]))
        table = table & ~mask if nots % 2 else table & mask
        if not table:
            return False
        if tables is None:
            tables = {}
        tables[g] = table
    if not negation:
        return True
    for key, nots in negation:
        flipped = (nots + 1) % 2
        var = base.index.get(key)
        if var is None:
            if free is None or free.get(key, flipped) == flipped:
                return True
            continue
        g = base.group_of[var]
        table = tables.get(g, base.tables[g]) if tables else base.tables[g]
        mask = _var_mask(base.position[var], len(base.groups[g][0]))
        if table & ~mask if flipped else table & mask:
            return True
    return False


def verdict(base: Compiled, lits: tuple[tuple[str, int], ...]) -> tuple[bool, bool]:
    """Whether base entails the conjunction of the literals, (atom key,
    nots) pairs, and whether the conjunction is consistent with base: the
    negation of `satisfiable((), base, negated=f)` and `satisfiable((f,),
    base)` for a formula f with those literals, read from the stored
    tables without compiling."""
    if not base.sat:
        return True, False
    return not _literals_fit(base, (), lits), _literals_fit(base, lits)


def _require_ground(fs: tuple[Formula, ...]) -> None:
    for f in fs:
        if not f.ground:
            raise ValidationError(f"satisfiability needs ground formulas, got {print_formula(f)}")


def _numbering(groups: list[Group], n_vars: int) -> tuple[list[int], list[int]]:
    """Each variable's group number and its position among the group's variables."""
    group_of = [0] * n_vars
    position = [0] * n_vars
    for g, (vs, _) in enumerate(groups):
        for k, v in enumerate(vs):
            group_of[v] = g
            position[v] = k
    return group_of, position


def compile_formulas(formulas: Iterable[Formula]) -> Compiled:
    """Compile a formula set once, for `satisfiable(..., base=...)`."""
    fs = tuple(formulas)
    _require_ground(fs)
    index, groups = _extend(_EMPTY, fs)
    tables = tuple(_table(vs, ps) for vs, ps in groups)
    return Compiled(index, tuple(groups), tables, *_numbering(groups, len(index)), all(tables))


def add_literal(base: Compiled, literal: Formula) -> Compiled:
    """The compiled form of base's formulas plus one ground literal (an opaque
    atom under some number of `not`s), built from base without compiling
    anything: an atom base numbers narrows its group's table, and a new atom
    becomes a group of one variable."""
    [(key, nots)] = literal.literals
    var = base.index.get(key)
    if var is None:
        var = len(base.index)
        # a group of one variable: assignment 1 makes it true, assignment 0 false
        return Compiled(
            {**base.index, key: var},
            base.groups + (([var], [[var] + [OP_NOT] * nots]),),
            base.tables + (0b01 if nots % 2 else 0b10,),
            base.group_of + [len(base.groups)],
            base.position + [0],
            base.sat,
        )
    g = base.group_of[var]
    vs, ps = base.groups[g]
    mask = _var_mask(base.position[var], len(vs))
    table = base.tables[g] & ~mask if nots % 2 else base.tables[g] & mask
    return Compiled(
        base.index,
        base.groups[:g] + ((vs, ps + [[var] + [OP_NOT] * nots]),) + base.groups[g + 1:],
        base.tables[:g] + (table,) + base.tables[g + 1:],
        base.group_of,
        base.position,
        base.sat and table != 0,
    )


def add_formula(base: Compiled, f: Formula) -> Compiled:
    """The compiled form of base's formulas plus one ground formula (a hard
    rule, say), built from base: the base groups that share an atom with f
    merge with f's new atoms into one group, whose table alone is built, and
    every other group is kept as it is.  The merged group takes the place of
    the first group it absorbs (or a new place), and the last group fills
    each other place it frees, so only the variables of the merged group and
    of the moved ones are numbered again.  Raises `SatTooLarge` when the
    merged group exceeds MAX_VARS, as compiling the whole set would."""
    _require_ground((f,))
    new, (merged,) = _extend(base, (f,))  # one formula's atoms form one group
    touched = sorted({base.group_of[v] for v in merged[0] if v < len(base.index)})
    groups, tables = list(base.groups), list(base.tables)
    group_of, position = base.group_of + [0] * len(new), base.position + [0] * len(new)

    def place(g: int, group: Group, table: int) -> None:
        groups[g], tables[g] = group, table
        for k, v in enumerate(group[0]):
            group_of[v], position[v] = g, k

    for g in reversed(touched[1:]):
        last, last_table = groups.pop(), tables.pop()
        if g < len(groups):
            place(g, last, last_table)
    table = _table(*merged)
    if not touched:  # every atom of f is new: the merged group takes a new place
        groups.append(merged)
        tables.append(table)
    place(touched[0] if touched else len(groups) - 1, merged, table)
    return Compiled({**base.index, **new}, tuple(groups), tuple(tables), group_of, position, base.sat and table != 0)


def satisfiable(formulas: Iterable[Formula], base: Compiled | None = None, negated: Formula | None = None) -> bool:
    """Satisfiability of the formulas, and of the negation of `negated` when
    given, together with a compiled base (none by default).  One pass over
    the formulas checks that each is ground and reads its
    `Formula.literals`.  A literal set, or a literal set and one negated
    conjunction of literals (`negated`, when it is one, needs no `not` node),
    is then decided from the base's stored tables and compiles nothing (see
    the module docstring); other formulas are compiled, and only the base
    groups they touch are decided again."""
    base = _EMPTY if base is None else base
    fs = tuple(formulas)
    negation = ()  # the literals of the one negated conjunction, if any
    if negated is not None:
        if negated.ground and negated.literals is not None:
            negation = negated.literals
        else:
            fs, negated = fs + (Not(negated),), None
    lits: tuple[tuple[str, int], ...] = ()
    compound = False
    for f in fs:
        if not f.ground:
            _require_ground((f,))  # raises
        conjunction = f.literals
        if conjunction is not None:
            lits = lits + conjunction if lits else conjunction
        elif not negation and type(f) is Not and f.body.literals is not None:
            negation = f.body.literals
        else:
            compound = True
    if not compound:
        return base.sat and _literals_fit(base, lits, negation)
    if negated is not None:
        fs += (Not(negated),)
    _, groups = _extend(base, fs)
    if not base.sat:
        return False
    return all(_table(vs, ps) for vs, ps in groups)

