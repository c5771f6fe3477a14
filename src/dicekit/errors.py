"""Exception types shared across the package."""


class DicekitError(Exception):
    """Base class for all package errors."""


class ParseError(DicekitError):
    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(DicekitError):
    """A well-formed input violates a semantic constraint (arity, ground-ness, ...)."""


class DepthExceeded(DicekitError):
    """A context path would exceed the knowledge base's nesting bound."""


class StepBoundExceeded(DicekitError):
    """Defeasible closure failed to reach a fixpoint within the step bound."""


class SatTooLarge(DicekitError):
    """One group of atoms that share formulas exceeds the truth-table cap
    (the cap is per group, not per instance)."""


class NoAntecedent(DicekitError):
    """Plan anaphor resolution found no accessible candidate."""


class AmbiguousAntecedent(DicekitError):
    """Plan anaphor resolution found more than one accessible candidate."""


class NotAPrefix(DicekitError):
    """An executed-action record does not extend the intended plan's progress."""
