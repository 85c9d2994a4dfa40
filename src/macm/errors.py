"""Exception hierarchy shared across the package."""


class MacmError(Exception):
    """Base class for all package errors."""


class ParseFailure(MacmError):
    """An agent reply could not be parsed after all format retries."""


class BackendFailure(MacmError):
    """A chat backend could not serve a request: transport, auth, or HTTP
    error after retries, or a scripted or replayed backend that cannot
    answer (the subclasses below)."""


class BudgetExceeded(MacmError):
    """The per-run query cap was hit."""


class ScriptExhausted(BackendFailure):
    """A scripted reply queue was consumed past its end."""


class ScriptMismatch(BackendFailure):
    """A scripted entry's expected-prompt-substring assertion failed."""


class CassetteMismatch(BackendFailure):
    """A replayed request did not match the recorded one."""


class CassetteExhausted(BackendFailure):
    """More calls were replayed than the cassette holds."""


# The errors that end one run with a RunError outcome, whose kind is the
# class's name, instead of propagating.
SOLVE_ERRORS = (ParseFailure, BackendFailure, BudgetExceeded)


class CorruptTranscript(MacmError):
    """A transcript cannot be read (a line is not an event) or resumed
    (already finalized or inconsistent)."""


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
