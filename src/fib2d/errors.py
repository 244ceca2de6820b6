"""Error types shared across the package.

Every condition a caller can provoke with well-typed but wrong data gets its
own class, so the CLI can map each to a distinct exit code.  InternalError
is the exception: it reports a broken invariant of the package itself.
"""


class Fib2DError(Exception):
    """Base class for all data errors raised by this package."""


class NotAFactor(Fib2DError):
    """The given word never occurs in the infinite word."""


class EmptyWord(Fib2DError):
    """Operation requires a non-empty word."""


class TooShort(Fib2DError):
    """Index too small for the requested truncation."""


class ShapeMismatch(Fib2DError):
    """A ragged grid, or one with empty rows."""


class OutOfDomain(Fib2DError):
    """Requested region falls outside the grid."""


class NotFibStructured(Fib2DError):
    """A row or column mixes letters from different line alphabets."""


class InconsistentJoint(Fib2DError):
    """First row and anchoring column disagree on their shared corner letter."""


class IncompleteInput(Fib2DError):
    """Extension needs the complete factor set of the smaller size."""


class OutOfRange(Fib2DError):
    """Argument outside the range where the operation is defined."""


class BadBounds(Fib2DError):
    """Scan bounds are negative or smaller than the pattern."""


class InternalError(Fib2DError):
    """A paper invariant failed, such as the (k+1)(l+1) count law: a bug."""


# stable CLI exit code per error class; 0 = ok, 1 = failed verify, 2 = usage
EXIT_CODES = {
    NotAFactor: 3,
    EmptyWord: 4,
    TooShort: 5,
    ShapeMismatch: 6,
    OutOfDomain: 7,
    NotFibStructured: 8,
    InconsistentJoint: 9,
    IncompleteInput: 10,
    OutOfRange: 11,
    BadBounds: 12,
    InternalError: 13,
    # not a data error: the request needs more memory than the process has
    MemoryError: 14,
}
