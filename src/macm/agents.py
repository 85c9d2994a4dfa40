"""Thinker / Judge / Executor role wrappers.

Each operation builds its prompt from the catalog, issues one backend request
per attempt, logs every request as an AgentCall event, and parses the reply
with a strict format parser. A reply that fails its parser is retried with a
one-line format reminder up to ``format_retries`` times before ParseFailure
is raised.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .backend import (ChatMessage, ChatRequest, ChatResponse, ROLE_ASSISTANT, ROLE_SYSTEM,
                      ROLE_USER, call_fields)
from .domain import (
    AgentCall,
    ConditionList,
    Problem,
    SamplingParams,
    Transcript,
    Verdict,
    normalize_condition_text,
    now,
)
from .errors import BudgetExceeded, ParseFailure

if TYPE_CHECKING:  # baselines imports this module
    from .baselines import MethodMACM

THINKER = "thinker"
JUDGE = "judge"
EXECUTOR = "executor"

# Each role's reply cap, in tokens: the Judge answers a bare True or False.
MAX_TOKENS = {THINKER: 512, JUDGE: 4, EXECUTOR: 256}


# ---------------------------------------------------------------------------
# Reply parsers
# ---------------------------------------------------------------------------

_TRAILING_PUNCT = ".。,!;:"


def parse_verdict(reply: str) -> Verdict:
    """Parse a Judge reply: the bare token True or False, case-insensitive,
    tolerating surrounding whitespace and trailing punctuation."""
    token = reply.strip().rstrip(_TRAILING_PUNCT).strip().lower()
    if token == "true":
        return Verdict(True)
    if token == "false":
        return Verdict(False)
    raise ParseFailure(f"judge reply is not a bare True/False: {reply!r}")


_MINE_LINE = re.compile(r"based on\s+(.*?)[,，]?\s*we can get\s*[::]\s*(.*)", re.IGNORECASE)
MAX_CANDIDATES = 8


def parse_candidates(reply: str) -> list[str]:
    """Extract every "Based on ..., we can get: ..." clause, in line order.

    The candidate text is the segment after the colon that closes the
    "we can get" clause. At most ``MAX_CANDIDATES`` candidates are returned.
    """
    candidates: list[str] = []
    for line in reply.splitlines():
        match = _MINE_LINE.search(line)
        if not match:
            continue
        text = match.group(2).strip()
        if not normalize_condition_text(text):
            continue
        candidates.append(text)
        if len(candidates) >= MAX_CANDIDATES:
            break
    if not candidates:
        raise ParseFailure(f"no 'we can get:' clause found in reply: {reply!r}")
    return candidates


_OBJECTIVE_HEAD = re.compile(r"^\s*objective\s*[::]\s*(.*)$", re.IGNORECASE)
_CONDITIONS_HEAD = re.compile(r"^\s*conditions?\s*[::]\s*$", re.IGNORECASE)
_ENUM_PREFIX = re.compile(r"^\s*(?:condition\s*\d*\s*[::.]|\d+\s*[.)::]|[-*•])\s*", re.IGNORECASE)


def parse_extraction(reply: str) -> tuple[list[str], str]:
    """Parse the initialization reply into (condition texts, objective text)."""
    lines = reply.splitlines()
    objective_parts: list[str] = []
    conditions: list[str] = []
    in_objective = False
    for line in lines:
        head = _OBJECTIVE_HEAD.match(line)
        if head:
            in_objective = True
            if head.group(1).strip():
                objective_parts.append(head.group(1).strip())
            continue
        if in_objective:
            if line.strip():
                objective_parts.append(line.strip())
            continue
        if _CONDITIONS_HEAD.match(line) or not line.strip():
            continue
        conditions.append(_ENUM_PREFIX.sub("", line).strip())
    conditions = [c for c in conditions if c]
    objective = " ".join(objective_parts).strip()
    if not conditions:
        raise ParseFailure(f"no conditions found in extraction reply: {reply!r}")
    if not objective:
        raise ParseFailure(f"no objective found in extraction reply: {reply!r}")
    return conditions, objective


_STEP_LINE = re.compile(r"^\s*(?:\d+\s*[.)::]|[-*•])\s*(.+)$")


def parse_steps(reply: str) -> tuple[str, ...]:
    """Parse numbered or bulleted lines into an ordered plan; an unstructured
    nonempty reply becomes a single step."""
    steps = [m.group(1).strip() for m in map(_STEP_LINE.match, reply.splitlines()) if m]
    steps = [s for s in steps if s]
    if steps:
        return tuple(steps)
    whole = reply.strip()
    if whole:
        return (whole,)
    raise ParseFailure("empty step-design reply")


_ANSWER_MARKER = re.compile(r"answer\s*[::]", re.IGNORECASE)


def extract_answer(reply: str) -> str:
    """Final-answer text: content after the last "Answer:" marker if present
    (ParseFailure if the marker ends the reply), otherwise the last nonempty line."""
    matches = list(_ANSWER_MARKER.finditer(reply))
    if matches:
        if answer := reply[matches[-1].end():].strip():
            return answer
        raise ParseFailure(f"nothing follows the last answer marker: {reply!r}")
    for line in reversed(reply.splitlines()):
        if line.strip():
            return line.strip()
    raise ParseFailure("empty executor reply")


# ---------------------------------------------------------------------------
# Agent client
# ---------------------------------------------------------------------------

def render_conditions(texts: list[str]) -> str:
    return "\n".join(f"{i}. {t}" for i, t in enumerate(texts, start=1))


def logged_request(backend, role: str, request: ChatRequest,
                   transcript: Transcript) -> ChatResponse:
    """Send one request and log it to the transcript as an AgentCall (one
    event per backend request), every choice and the sampling included."""
    response = backend.complete(request, role)
    transcript.append(AgentCall(**call_fields(role, request, response, now())))
    return response


@dataclass
class AgentClient:
    """Stateless request builder + parser over one backend, logging every
    request to the run's transcript, with ``method``'s settings and prompts."""

    backend: object
    method: MethodMACM
    transcript: Transcript

    def __post_init__(self):
        self.prompts = self.method.prompts
        systems = {THINKER: self.prompts.thinker_system,
                   JUDGE: self.prompts.judge_system,
                   EXECUTOR: self.prompts.executor_system}
        # Each role's (system message, sampling): one choice at the run's
        # temperature, capped at the role's reply length.
        self._roles = {
            role: (ChatMessage(ROLE_SYSTEM, systems[role]),
                   SamplingParams(temperature=self.method.temperature, max_tokens=cap))
            for role, cap in MAX_TOKENS.items()}

    def _call(self, role: str, messages: list[ChatMessage], sampling: SamplingParams) -> str:
        budget = self.method.query_budget
        if budget is not None and self.transcript.query_count() >= budget:
            raise BudgetExceeded(f"query budget of {budget} requests reached")
        request = ChatRequest(messages=tuple(messages), sampling=sampling)
        return logged_request(self.backend, role, request, self.transcript).text

    def _call_parsed(self, role: str, user_prompt: str, parser):
        system, sampling = self._roles[role]
        messages = [system, ChatMessage(ROLE_USER, user_prompt)]
        retries = self.method.format_retries
        for attempt in range(retries + 1):
            reply = self._call(role, messages, sampling)
            try:
                return parser(reply)
            except ParseFailure:
                # Re-raised, never kept: a kept exception would hold this
                # frame, and the caller's transcript, in a reference cycle.
                if attempt == retries:
                    raise
            messages = messages + [ChatMessage(ROLE_ASSISTANT, reply),
                                   ChatMessage(ROLE_USER, self.prompts.format_reminder)]

    # -- Thinker ------------------------------------------------------------

    def thinker_extract(self, problem: Problem) -> tuple[list[str], str]:
        """Extract the problem's (condition texts, objective text)."""
        prompt = self.prompts.extract.format(question=problem.question)
        return self._call_parsed(THINKER, prompt, parse_extraction)

    def thinker_mine(self, known: ConditionList) -> list[str]:
        """Propose new conditions derived from the current known conditions."""
        if not known.texts:
            raise ValueError("mining requires at least one accepted condition")
        prompt = self.prompts.mine.format(
            conditions=render_conditions(known.texts), objective=known.objective)
        return self._call_parsed(THINKER, prompt, parse_candidates)

    def thinker_design_steps(self, known: ConditionList) -> tuple[str, ...]:
        """Design ordered solution steps from the accepted conditions."""
        prompt = self.prompts.design_steps.format(
            conditions=render_conditions(known.texts), objective=known.objective)
        return self._call_parsed(THINKER, prompt, parse_steps)

    # -- Judge --------------------------------------------------------------

    def judge_condition(self, candidate: str, known: ConditionList) -> Verdict:
        """Gate one candidate: the Judge sees the accepted conditions and the
        bare candidate text, in a fresh conversation."""
        prompt = self.prompts.judge_condition.format(
            conditions=render_conditions(known.texts), candidate=candidate)
        return self._call_parsed(JUDGE, prompt, parse_verdict)

    def judge_sufficiency(self, known: ConditionList) -> Verdict:
        """Ask whether the accepted conditions suffice to reach the objective."""
        prompt = self.prompts.sufficiency.format(
            objective=known.objective, conditions=render_conditions(known.texts))
        return self._call_parsed(JUDGE, prompt, parse_verdict)

    # -- Executor -------------------------------------------------------------

    def executor_compute(self, known: ConditionList, steps: tuple[str, ...]) -> str:
        """Carry out the plan's steps and return the final-answer string."""
        prompt = self.prompts.execute.format(
            conditions=render_conditions(known.texts), objective=known.objective,
            steps="\n".join(f"{i}. {s}" for i, s in enumerate(steps, start=1)))
        return self._call_parsed(EXECUTOR, prompt, extract_answer)
