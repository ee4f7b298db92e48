"""Exception hierarchy shared across the package.

Every error raised by the library derives from :class:`AmrError`, so callers
can catch one type at an API boundary (the CLI maps them to exit code 2).
"""

from __future__ import annotations


class AmrError(Exception):
    """Base class for all library errors."""


class PenmanSyntaxError(AmrError):
    """Malformed Penman text. Carries the character offset of the problem."""

    def __init__(self, message: str, offset: int, origin: str | None = None):
        self.offset = offset
        self.origin = origin
        where = f"{origin}: " if origin else ""
        super().__init__(f"{where}{message} (at offset {offset})")


class DanglingReferenceError(PenmanSyntaxError):
    """A variable was referenced but never defined with ``/ concept``."""


class GraphInvariantError(AmrError):
    """A graph violates the well-formedness invariants."""


class InvalidSiteError(AmrError):
    """A site that is not a node of the graph, a walk from its own cut, or
    a substitution at the root, where the replacement graph is the answer."""


class DuplicateRoleError(AmrError):
    """An insertion would duplicate an existing role/target on a node."""


class UnknownTypeError(AmrError):
    """Name does not match any inference type abbreviation or display name."""


class MalformedTripleError(AmrError):
    """An entailment triple with an empty text."""


class TransformError(AmrError):
    """Base class for forward-transformation failures."""


class NoBridgeError(TransformError):
    """Substitution or insertion requested but the premises share no usable
    bridge concept."""


class NoConditionalError(TransformError):
    """Conditional transformation requested but neither premise carries a
    ``:condition`` edge at its root."""


class NotSingleDifferenceError(TransformError):
    """Generalisation requires the premises to differ by exactly one
    concept."""


class UnsupportedTypeError(TransformError):
    """The requested inference type has no forward transformation."""


class MissingTypeError(AmrError):
    """Prompt emission needs a type but the record carries none."""


class RecordError(AmrError):
    """A corpus line that could not be loaded. Carries the 1-based line
    number and the underlying cause."""

    def __init__(self, line: int, cause: Exception | str):
        self.line = line
        self.cause = cause
        super().__init__(f"line {line}: {cause}")
