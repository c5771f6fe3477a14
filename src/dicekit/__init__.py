"""Defeasible reasoning over a discourse: attitude contexts, commonsense
entailment with specificity, and rhetorical-relation attachment.

The public surface:

- :mod:`dicekit.formulas` -- the formula language and pattern operations
- :mod:`dicekit.satcore` -- ground satisfiability and entailment
- :mod:`dicekit.kb` -- nested belief stores with mirroring
- :mod:`dicekit.engine` -- default rules, defeasible closure, abduction
- :mod:`dicekit.sdrs` -- discourse structure and the right frontier
- :mod:`dicekit.axioms` -- the standard rule library and its drivers
- :mod:`dicekit.scenario` -- the .scn file format
- :mod:`dicekit.runner` -- the interpretation pipeline
"""

from .engine import (
    AbductionResult,
    DefaultRule,
    EvalContext,
    InferenceStep,
    Trace,
    abduce,
    defeasible_closure,
    holds,
    make_rule,
    nonmon_yields,
    specificity,
)
from .errors import (
    AmbiguousAntecedent,
    DepthExceeded,
    DicekitError,
    NoAntecedent,
    NotAPrefix,
    ParseError,
    SatTooLarge,
    StepBoundExceeded,
    ValidationError,
)
from .formulas import (
    Action,
    And,
    Atom,
    Att,
    Can,
    Const,
    Content,
    Default,
    Doing,
    Done,
    Eventually,
    Formula,
    FVar,
    Generic,
    Iff,
    Imp,
    Implies,
    Not,
    Or,
    Plan,
    RelAtom,
    Var,
    Yields,
    instantiate,
    match,
    parse_formula,
    print_formula,
    substitute,
)
from .kb import KnowledgeBase, Store
from .axioms import AxiomSet, standard_axioms
from .runner import RunReport, build, explain, run_scenario
from .satcore import satisfiable
from .scenario import Scenario, load, loads
from .sdrs import (
    Attachment,
    Constituent,
    Sdrs,
    UpdateSite,
    Verdict,
    attach,
    coherent,
    open_attachment_sites,
    resolve_plan_anaphor,
)

__version__ = "0.1.0"

__all__ = [
    "AbductionResult",
    "Action",
    "AmbiguousAntecedent",
    "And",
    "Atom",
    "Att",
    "Attachment",
    "AxiomSet",
    "Can",
    "Const",
    "Constituent",
    "Content",
    "Default",
    "DefaultRule",
    "DepthExceeded",
    "DicekitError",
    "Doing",
    "Done",
    "EvalContext",
    "Eventually",
    "FVar",
    "Formula",
    "Generic",
    "Iff",
    "Imp",
    "Implies",
    "InferenceStep",
    "KnowledgeBase",
    "NoAntecedent",
    "Not",
    "NotAPrefix",
    "Or",
    "ParseError",
    "Plan",
    "RelAtom",
    "RunReport",
    "SatTooLarge",
    "Scenario",
    "Sdrs",
    "StepBoundExceeded",
    "Store",
    "Trace",
    "UpdateSite",
    "ValidationError",
    "Var",
    "Verdict",
    "Yields",
    "abduce",
    "attach",
    "build",
    "coherent",
    "defeasible_closure",
    "explain",
    "holds",
    "instantiate",
    "load",
    "loads",
    "make_rule",
    "match",
    "nonmon_yields",
    "open_attachment_sites",
    "parse_formula",
    "print_formula",
    "resolve_plan_anaphor",
    "run_scenario",
    "satisfiable",
    "specificity",
    "standard_axioms",
    "substitute",
]
