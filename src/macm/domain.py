"""Shared vocabulary: problems, conditions, objectives, sampling, transcripts, outcomes."""

from __future__ import annotations

import time
import unicodedata
import uuid
from dataclasses import dataclass

from .errors import SOLVE_ERRORS


def normalize_condition_text(text: str) -> str:
    """Canonical form used for condition identity.

    Trims surrounding whitespace, collapses internal whitespace runs to a
    single space, and applies Unicode NFC. Case is preserved: math symbols
    are case-sensitive.
    """
    # str.split() and re's \s share one whitespace table, so this equals
    # re.sub(r"\s+", " ", ...).strip() without the regex.
    return " ".join(unicodedata.normalize("NFC", text).split())


@dataclass(frozen=True)
class Problem:
    id: str
    question: str
    gold_answer: str | None = None
    category: str | None = None
    level: int | None = None

    def __post_init__(self):
        if self.id in ("", ".", "..") or "/" in self.id or "\0" in self.id:
            raise ValueError(f"problem id {self.id!r} is not a file name")
        if not self.question:
            raise ValueError("problem question must be nonempty")
        if self.level is not None and not 1 <= self.level <= 5:
            raise ValueError(f"level must be 1..5, got {self.level}")


class ConditionList:
    """The evolving problem state: the fixed objective and the accepted
    conditions, in the order they were accepted.

    Accepted conditions are never edited or removed, and no two share the
    same normalized text. Rejected candidates are recorded only in the
    transcript's ConditionDiscarded events.
    """

    def __init__(self, objective: str, texts=()):
        self.objective = objective
        self.texts: list[str] = []
        self._keys: set[str] = set()
        for text in texts:
            self.add(text)

    def add(self, text: str) -> bool:
        """Accept a condition. Returns False (and drops it) if an accepted
        condition with the same normalized text already exists."""
        key = normalize_condition_text(text)
        if key in self._keys:
            return False
        self._keys.add(key)
        self.texts.append(text)
        return True

    def is_duplicate(self, text: str) -> bool:
        return normalize_condition_text(text) in self._keys


@dataclass(frozen=True)
class SamplingParams:
    n: int = 1
    temperature: float = 0.7
    max_tokens: int = 512

    def __post_init__(self):
        if self.n < 1 or self.max_tokens < 1:
            raise ValueError("n, max_tokens must be positive")
        if not 0 <= self.temperature < float("inf"):
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")


@dataclass(frozen=True)
class Verdict:
    value: bool


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Solved:
    answer: str


@dataclass(frozen=True, slots=True)
class Unsolvable:
    rounds_used: int


ERROR_KINDS = tuple(cls.__name__ for cls in SOLVE_ERRORS)


@dataclass(frozen=True, slots=True)
class RunError:
    kind: str
    detail: str

    def __post_init__(self):
        if self.kind not in ERROR_KINDS:
            raise ValueError(f"unknown error kind {self.kind!r}")

    @classmethod
    def of(cls, exc: Exception) -> RunError:
        """The outcome of a run ended by ``exc``: the kind is the SOLVE_ERRORS
        class it is an instance of. An OSError (a backend that cannot open its
        recording or reach its model, say) is a BackendFailure, and anything
        else is an InternalError whose detail leads with the exception's type."""
        kind = next((c.__name__ for c in SOLVE_ERRORS if isinstance(exc, c)),
                    "BackendFailure" if isinstance(exc, OSError) else "InternalError")
        return cls(kind, f"{type(exc).__name__}: {exc}" if kind == "InternalError" else str(exc))


Outcome = Solved | Unsolvable | RunError


def outcome_to_dict(outcome: Outcome) -> dict:
    if isinstance(outcome, Solved):
        return {"kind": "solved", "answer": outcome.answer}
    if isinstance(outcome, Unsolvable):
        return {"kind": "unsolvable", "rounds_used": outcome.rounds_used}
    return {"kind": "error", "error_kind": outcome.kind, "detail": outcome.detail}


def outcome_from_dict(data: dict) -> Outcome:
    kind = data["kind"]
    if kind == "solved":
        return Solved(data["answer"])
    if kind == "unsolvable":
        return Unsolvable(data["rounds_used"])
    if kind == "error":
        return RunError(data["error_kind"], data["detail"])
    raise ValueError(f"unknown outcome kind {kind!r}")


# ---------------------------------------------------------------------------
# Transcript events
# ---------------------------------------------------------------------------

# The checks below guard reading a transcript: a line that breaks one fails in
# read_transcript as a CorruptTranscript.

def _check_text(text, what: str) -> None:
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"{what} must be nonempty text, got {text!r}")


def _check_round(value) -> None:
    if type(value) is not int or value < 1:
        raise ValueError(f"round must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class AgentCall:
    """One backend request and its response: ``raw_response`` is choice 1,
    ``more_choices`` the rest. Older calls read later fields as defaults."""

    role: str
    prompt: str
    raw_response: str
    tokens_in: int
    tokens_out: int
    timestamp: float
    n_choices: int = 1
    more_choices: tuple[str, ...] = ()
    n: int = 1
    temperature: float | None = None
    max_tokens: int | None = None


@dataclass(frozen=True)
class ObjectiveSet:
    text: str

    def __post_init__(self):
        _check_text(self.text, "the objective")


@dataclass(frozen=True)
class ConditionAccepted:
    text: str
    round: int | None = None  # None for a condition of the problem statement

    def __post_init__(self):
        _check_text(self.text, "an accepted condition")
        if self.round is not None:
            _check_round(self.round)


@dataclass(frozen=True)
class ConditionDiscarded:
    text: str
    round: int

    def __post_init__(self):
        _check_text(self.text, "a discarded condition")
        _check_round(self.round)


@dataclass(frozen=True)
class DuplicateDropped:
    text: str
    round: int

    def __post_init__(self):
        _check_text(self.text, "a dropped condition")
        _check_round(self.round)


@dataclass(frozen=True)
class PlanDesigned:
    steps: tuple[str, ...]

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a plan needs at least one step")
        for step in self.steps:
            _check_text(step, "a plan step")


@dataclass(frozen=True)
class SufficiencyVerdict:
    round: int
    value: bool

    def __post_init__(self):
        _check_round(self.round)
        if type(self.value) is not bool:
            raise ValueError(f"a sufficiency verdict must be true or false, got {self.value!r}")


@dataclass(frozen=True)
class Final:
    outcome: Outcome


Event = (AgentCall | ObjectiveSet | ConditionAccepted | ConditionDiscarded | DuplicateDropped
         | PlanDesigned | SufficiencyVerdict | Final)


# The transcript codec: every event is one JSON object, {"event": <kind>, **its
# fields}, the kind being its class name in snake case; Final's outcome is
# written as outcome_to_dict's object.
_CLASSES = {"".join(f"_{c.lower()}" if c.isupper() else c for c in cls.__name__)[1:]: cls
            for cls in Event.__args__}
_KINDS = {cls: kind for kind, cls in _CLASSES.items()}


def event_to_dict(event: Event) -> dict:
    if type(event) is Final:
        return {"event": "final", "outcome": outcome_to_dict(event.outcome)}
    return {"event": _KINDS[type(event)], **event.__dict__}


def event_from_dict(data: dict) -> Event:
    """Decode one transcript line. A key may be missing where its field has a
    default, but every key present must be "event" or one of its kind's fields,
    and an AgentCall's of its field's type (a live run builds typed calls)."""
    cls = _CLASSES[data["event"]]
    if cls is Final:  # built by hand, so its keys are checked here; cls(**values) checks the rest
        outcome = outcome_from_dict(data["outcome"])
        if data.keys() != {"event", "outcome"} \
                or data["outcome"].keys() != outcome_to_dict(outcome).keys():
            raise TypeError(f"unexpected keys in {data!r:.200}")
        return Final(outcome)
    values = data.copy()  # faster than a comprehension that leaves "event" out
    del values["event"]
    for name in ("more_choices", "steps"):
        if name in values:
            if type(values[name]) not in (list, tuple):
                raise TypeError(f"{name!r} must be a list, got {values[name]!r}")
            values[name] = tuple(values[name])
    event = cls(**values)
    if cls is AgentCall and not (  # type(), not isinstance: a bool is no number here
            (type(event.role), type(event.prompt), type(event.raw_response),
             type(event.tokens_in), type(event.tokens_out), type(event.n),
             type(event.n_choices)) == (str, str, str, int, int, int, int)
            and type(event.timestamp) in (int, float)
            and type(event.temperature) in (int, float, type(None))
            and type(event.max_tokens) in (int, type(None))
            and (not event.more_choices or {*map(type, event.more_choices)} == {str})):
        raise TypeError("role, prompt, raw_response and more_choices must be text, "
                        "tokens_in, tokens_out, n and n_choices integers, timestamp a "
                        "number, temperature a number or null, max_tokens an integer or null")
    return event


class Transcript:
    """Append-only event log of one run.

    Exactly one Final event may be appended, after which the transcript is
    closed. Each AgentCall corresponds to exactly one backend request, so
    the run's request count equals the number of AgentCall events.
    """

    def __init__(self, run_id: str | None = None):
        self.run_id = run_id or uuid.uuid4().hex
        self.events: list[Event] = []

    def append(self, event: Event) -> None:
        if self.is_final:
            raise ValueError("transcript already finalized")
        self.events.append(event)

    @property
    def is_final(self) -> bool:
        return bool(self.events) and isinstance(self.events[-1], Final)

    @property
    def outcome(self) -> Outcome | None:
        return self.events[-1].outcome if self.is_final else None

    def agent_calls(self) -> list[AgentCall]:
        return [e for e in self.events if isinstance(e, AgentCall)]

    def query_count(self) -> int:
        """Backend requests issued during the run (one per AgentCall)."""
        return len(self.agent_calls())

    def choice_count(self) -> int:
        """Backend responses consumed (sum of per-request n)."""
        return sum(e.n_choices for e in self.agent_calls())


def now() -> float:
    return time.time()
