"""Exception hierarchy shared across the package.

Structural errors (bad construction input) and semantic errors (operations
whose mathematical preconditions fail) are kept distinct so the CLI can map
them to stable exit codes.
"""

from __future__ import annotations


class EmckError(Exception):
    """Base class for every error raised by this package."""


class InvariantError(EmckError):
    """A structural invariant of a value type is violated."""


class DuplicateState(InvariantError):
    """A state name occurs more than once in a state space."""


class InvalidStateName(InvariantError):
    """A state, agent or event name is empty or holds a character that the
    model text cannot carry."""


class InvalidAtoms(InvariantError):
    """Atom blocks do not form a partition of the state space."""


class AlgebraMismatch(InvariantError):
    """Two operands were built over different sigma-algebras."""


class PriorNotNormalized(InvariantError):
    """Prior weights are negative or do not sum to one."""


class IncompleteCapacity(InvariantError):
    """A set-function table does not cover every event of the algebra."""


class RationalOutOfRange(InvariantError):
    """A rational value lies outside its required range (e.g. [0, 1])."""


class NotMeasurable(EmckError):
    """A set that must belong to the sigma-algebra does not."""


class ConditioningOnNull(EmckError):
    """Conditional probability requested on a measure-zero event."""


class NotInducible(EmckError):
    """An operator table violates monotonicity, conjunction, or necessitation.

    Carries a human-readable witness of the first violation found.
    """

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class AssumptionViolated(EmckError):
    """A claim's hypothesis (e.g. positive-measure cells) fails for the input."""


class HypothesisNotMet(AssumptionViolated):
    """A hypothesis of a two-model comparison fails; like any
    AssumptionViolated, it puts the input outside the claim."""


class ResourceLimit(EmckError):
    """An enumeration exceeded its configured budget."""


class TooManyAtoms(ResourceLimit):
    """An exhaustive enumeration over events would exceed the atom cap (16,
    or ``EMCK_MAX_ATOMS``); the model itself may be valid."""


class ParseError(EmckError):
    """Source text is not a valid model document or expression.

    ``line`` and ``col`` are 1-based; ``col`` is None when the whole line is
    at fault, and ``line`` is None in a one-line expression.  The message
    ends in the location that is known.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        suffix = ""
        if line is not None:
            suffix = f" (line {line})" if col is None else f" (line {line}, col {col})"
        elif col is not None:
            suffix = f" (col {col})"
        super().__init__(message + suffix)
        self.line = line
        self.col = col


class PriorParseError(ParseError, PriorNotNormalized):
    """A prior line has bad weights or a sum different from one."""


class CapacityParseError(ParseError, IncompleteCapacity):
    """A type table block is missing entries or keys them badly."""
