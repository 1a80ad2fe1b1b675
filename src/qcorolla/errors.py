"""Exception hierarchy shared across the package, and the ``__setattr__`` of its
read-only classes.

Every failure mode named in an operation contract gets its own class so
callers can discriminate without string matching.
"""


class QcorollaError(Exception):
    """Base class for all package errors.

    An error found in a source file carries the ``line`` and ``column`` of
    the fault, and its message starts with them; elsewhere both are None.
    A fault in a source without columns carries only its line.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            at = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{at}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column


# --- linear algebra -------------------------------------------------------

class EmptyVectorError(QcorollaError, ValueError):
    """Amplitude sequence of length zero."""


class ZeroVectorError(QcorollaError, ValueError):
    """Vector with zero Euclidean norm cannot be normalized."""


class DimensionMismatchError(QcorollaError, ValueError):
    """Operand dimensions are incompatible."""


class ProbabilityMismatchError(QcorollaError, ValueError):
    """Probabilities are negative or do not sum to one."""


# --- vocabularies ---------------------------------------------------------

class DuplicateSymbolError(QcorollaError, ValueError):
    """Symbol listed more than once in a vocabulary."""


class EmptyVocabularyError(QcorollaError, ValueError):
    """Vocabulary must contain at least one symbol."""


class UnknownSymbolError(QcorollaError, LookupError):
    """Symbol not present in the vocabulary."""


# --- converse registry and graph ------------------------------------------

class AlreadyRegisteredError(QcorollaError, ValueError):
    """Predicate name already bound in the converse registry."""


class WeightOutOfRangeError(QcorollaError, ValueError):
    """Entanglement weight outside [0, 1] bits."""


class SelfConverseError(QcorollaError, ValueError):
    """A predicate cannot be its own converse."""


class UnknownNodeSymbolError(QcorollaError, LookupError):
    """Node symbol absent from the node vocabulary."""


class UnknownPredicateError(QcorollaError, LookupError):
    """Predicate name absent from the converse registry."""


class UnknownNodeError(QcorollaError, LookupError):
    """Node never added to the graph."""


class UnknownTripleError(QcorollaError, LookupError):
    """Triple id not present in the graph."""


class NotConverseError(QcorollaError, ValueError):
    """Joined predicates are not a registered converse pair."""


class AlreadyPairedError(QcorollaError, ValueError):
    """Half-edge already participates in an edge, or the triple exists."""


class SelfJoinError(QcorollaError, ValueError):
    """A corolla cannot be joined with itself."""


class WrongOrientationError(QcorollaError, ValueError):
    """Forward/backward corollas supplied in swapped positions."""


# --- entanglement layer ---------------------------------------------------

class UnknownPatternError(QcorollaError, LookupError):
    """Metapattern tag not declared in the pattern configuration."""


class DegenerateBasisError(QcorollaError, ValueError):
    """Joint-state basis indices coincide on one side."""


# --- parsing --------------------------------------------------------------

class ParseError(QcorollaError, ValueError):
    """Source text rejected; always carries the line and column of the fault."""


class MalformedTokenError(ParseError):
    """Token does not match the namespaced-symbol grammar."""


class MissingTerminatorError(ParseError):
    """Statement lacks the closing '.' terminator."""


class SourceEncodingError(ParseError):
    """Source bytes are not valid UTF-8."""


class BackwardPredicateInSubjectPositionError(QcorollaError, ValueError):
    """Backward predicate used in a statement with no forward edge to fold onto."""


# --- snapshots --------------------------------------------------------------

class SnapshotError(QcorollaError, ValueError):
    """Snapshot of another format version, or a file that fails its check."""


# --- read-only values -------------------------------------------------------

def read_only(instance, name: str, value) -> None:
    """``__setattr__`` of a class whose ``__init__`` checks its fields or derives
    state from them. ``__init__`` bypasses it, writing into ``__dict__`` or
    through ``object.__setattr__``; any later assignment raises, with a frozen
    dataclass's message."""
    raise AttributeError(f"cannot assign to field {name!r}")
