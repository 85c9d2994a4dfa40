"""Shared vocabulary: problems, conditions, objectives, configs, transcripts, outcomes."""

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
        if not self.id:
            raise ValueError("problem id must be nonempty")
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
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """A MACM run's settings. Every role samples one choice at
    ``temperature``; each role's reply cap is in ``agents.MAX_TOKENS``."""

    max_iterations: int = 5
    format_retries: int = 2
    temperature: float = 0.7
    query_budget: int | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.format_retries < 0:
            raise ValueError("format_retries must be >= 0")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")


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
        class it is an instance of, and anything else (an OSError from a
        backend factory, say) is a BackendFailure."""
        kind = next((c.__name__ for c in SOLVE_ERRORS if isinstance(exc, c)), "BackendFailure")
        return cls(kind, str(exc))


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

# The checks below are what a resumed run relies on: a transcript line that
# breaks one fails in read_transcript as a CorruptTranscript.

def _check_text(text, what: str) -> None:
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"{what} must be nonempty text, got {text!r}")


def _check_round(value) -> None:
    if value is None or value < 1:
        raise ValueError(f"round must be positive, got {value!r}")


@dataclass(frozen=True)
class AgentCall:
    role: str
    prompt: str
    raw_response: str
    tokens_in: int
    tokens_out: int
    timestamp: float
    n_choices: int = 1


@dataclass(frozen=True)
class ConditionProposed:
    text: str
    round: int

    def __post_init__(self):
        _check_text(self.text, "a proposed condition")


@dataclass(frozen=True)
class VerdictEvent:
    subject: str
    value: bool


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


@dataclass(frozen=True)
class Final:
    outcome: Outcome


Event = (AgentCall | ConditionProposed | VerdictEvent | ObjectiveSet | ConditionAccepted
         | ConditionDiscarded | DuplicateDropped | PlanDesigned | SufficiencyVerdict | Final)


# The transcript codec: one JSON object per event. AgentCall,
# ConditionProposed and VerdictEvent are written as their fields; the other
# condition-list events as a "state_change" with their fields under "data".
# The on-disk names, the "initial" provenance and the sufficiency subject
# appear nowhere else.
_KINDS = {AgentCall: "agent_call", ConditionProposed: "condition_proposed",
          VerdictEvent: "verdict"}
_STATE_CHANGES = {ObjectiveSet: "objective set", ConditionAccepted: "condition accepted",
                  ConditionDiscarded: "condition discarded",
                  DuplicateDropped: "duplicate condition dropped",
                  PlanDesigned: "plan designed"}
_CLASSES = {name: cls for cls, name in (_KINDS | _STATE_CHANGES).items()}
_SUFFICIENCY_SUBJECT = "sufficiency round "


def event_to_dict(event: Event) -> dict:
    kind = type(event)
    if kind in _KINDS:
        return {"event": _KINDS[kind], **event.__dict__}
    if kind in _STATE_CHANGES:
        data = dict(event.__dict__)
        if kind is ObjectiveSet:
            data = {"objective": event.text}
        elif kind is ConditionAccepted and event.round is None:
            data = {"text": event.text, "provenance": "initial"}
        return {"event": "state_change", "description": _STATE_CHANGES[kind], "data": data}
    if kind is SufficiencyVerdict:
        return {"event": "verdict", "subject": f"{_SUFFICIENCY_SUBJECT}{event.round}",
                "value": event.value}
    if kind is Final:
        return {"event": "final", "outcome": outcome_to_dict(event.outcome)}
    raise ValueError(f"not a transcript event: {event!r}")


def _decode(data: dict) -> Event:
    kind = data["event"]
    if kind == "final":
        return Final(outcome_from_dict(data["outcome"]))
    if kind == "state_change":
        cls, fields = _CLASSES[data["description"]], data["data"]
        if cls is ObjectiveSet:
            return ObjectiveSet(fields["objective"])
        if cls is ConditionAccepted:
            return ConditionAccepted(fields["text"], fields.get("round"))
        if cls is PlanDesigned:
            return PlanDesigned(tuple(fields["steps"]))
        return cls(**fields)
    fields = {k: v for k, v in data.items() if k != "event"}
    if kind == "verdict" and fields["subject"].startswith(_SUFFICIENCY_SUBJECT):
        return SufficiencyVerdict(int(fields["subject"][len(_SUFFICIENCY_SUBJECT):]),
                                  fields["value"])
    return _CLASSES[kind](**fields)


def _check_keys(data: dict, encoded: dict) -> None:
    """Raise TypeError if ``data`` holds a key, at any depth, that the codec
    would not write for the event it decodes to."""
    extra = data.keys() - encoded.keys()
    if extra:
        raise TypeError(f"unexpected keys {sorted(extra)}")
    for key, value in data.items():
        if isinstance(value, dict):
            if not isinstance(encoded[key], dict):
                raise TypeError(f"{key!r} is an object where the codec writes none")
            _check_keys(value, encoded[key])


def event_from_dict(data: dict) -> Event:
    """Decode one transcript line. A key may be missing where its field has a
    default, but every key present must be one the codec writes: its event's
    fields or the codec's own ("event", "description", "data", ...)."""
    event = _decode(data)
    _check_keys(data, event_to_dict(event))
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
