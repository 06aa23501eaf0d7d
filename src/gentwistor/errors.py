"""Exception hierarchy shared across the package.

Numerical geometry code fails in qualitatively different ways: the caller
passed something malformed (UsageError), the data violates a mathematical
precondition (InvalidInputError), two redundant computation paths disagree
(ConsistencyError), or an evaluation left its region of validity
(DomainError).  Keeping them distinct lets the CLI map them to exit codes
and lets tests assert on the failure mode rather than on message text.
"""


class GentwistorError(Exception):
    """Base class for all package-specific errors."""


class UsageError(GentwistorError):
    """The call itself is malformed (wrong basis, wrong component kind, ...)."""


class InvalidInputError(GentwistorError):
    """Input data violates a mathematical precondition (not a unit vector,
    not antisymmetric, not positive definite, ...)."""


class ConsistencyError(GentwistorError):
    """Two redundant computation paths disagreed beyond tolerance.

    Raised instead of silently preferring one path; a disagreement here
    means a convention bug, not a numerical accident.
    """


class DomainError(GentwistorError):
    """A point left the coordinate box (or sits too close to its boundary
    for the finite-difference stencil)."""


class DecompositionError(GentwistorError):
    """A curvature operator failed the symmetry or trace checks needed for
    its block decomposition."""


class ParseError(GentwistorError):
    """Syntax error in a metric expression.

    Carries the byte offset of the failure and the set of token kinds that
    would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        super().__init__(message)
        self.offset = offset
        self.expected = expected


class EvalError(GentwistorError):
    """Runtime error while evaluating a metric expression (division by
    zero, log of a non-positive number, ...).  Carries the source span of
    the offending subexpression and, for a batch of points, the index of
    the first failing point."""

    def __init__(self, message: str, span: tuple[int, int] | None = None, index: int = 0):
        super().__init__(message)
        self.span = span
        self.index = index


class ConfigError(GentwistorError):
    """A metric definition file is malformed or defines a degenerate
    metric."""
