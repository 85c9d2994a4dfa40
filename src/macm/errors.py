"""Exception hierarchy shared across the package."""


class MacmError(Exception):
    """Base class for all package errors."""


class ParseFailure(MacmError):
    """An agent reply could not be parsed after all format retries."""


class BackendFailure(MacmError):
    """A chat backend could not serve a request: transport, auth, or HTTP
    error after retries, or a scripted or replayed backend that cannot
    answer."""


class BudgetExceeded(MacmError):
    """The per-run query cap was hit."""


class InternalError(MacmError):
    """The kind of a run ended by any other exception: a bug in the solver,
    the grader or the transcript write, never the model's reply."""


# The kinds of a RunError outcome, each named by its class: a run ended by an
# exception is one of them, never an abort of its batch.
SOLVE_ERRORS = (ParseFailure, BackendFailure, BudgetExceeded, InternalError)


class CorruptTranscript(MacmError):
    """A transcript cannot be read (a line is not an event) or resume a run in
    ``harness.solve_one`` (it is finalized, or not what a re-run logs)."""


class SchemaError(MacmError):
    """A dataset line failed schema validation."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class EmptyDataset(MacmError):
    """An operation requiring problems received none."""


class ExprSyntaxError(MacmError):
    """Arithmetic expression failed to parse."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class DivisionByZero(MacmError):
    """Exact evaluation hit a zero denominator."""
