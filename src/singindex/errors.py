"""Exception types shared across the library.

The distinction matters for callers (the CLI maps these onto its exit
codes): bad input data, hitting the configurable degree cap, and failing
to find generic linear forms are three different situations.
"""


class SingindexError(Exception):
    """Base class for all library errors."""


class RejectedInputError(SingindexError, ValueError):
    """Input violates a documented precondition (wrong shape, mixed
    variable contexts, non-symmetric matrix, inconsistent data, ...).
    `field`, when the raiser knows it, names the input field at fault."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class NotIsolatedError(SingindexError):
    """A computation needed a finite colength but the ideal is not
    zero-dimensional, i.e. the singular point is not (algebraically)
    isolated."""


class DegreeCapError(SingindexError):
    """A basis computation exceeded the configured degree cap.

    The cap exists to abort pathological runs; it is not part of any
    correctness claim."""


class GenericityError(SingindexError):
    """Repeated draws of generic linear forms all failed to be generic."""


class DigitLimitError(SingindexError):
    """A result holds an integer with more decimal digits than this
    Python converts to text (``sys.get_int_max_str_digits``)."""


class InternalCheckError(SingindexError):
    """An internal consistency assertion failed.  Indicates a bug, not a
    user error; these should never occur on valid input."""


class OracleBudgetError(SingindexError):
    """An independent cross-check ran past its work budget.  The check is
    skipped, not failed: it says nothing about the main result."""
