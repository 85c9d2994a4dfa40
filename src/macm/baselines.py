"""Baseline prompting pipelines over the same backend: I-O, CoT, and SC-CoT.

All solvers are deterministic over a scripted backend and report exact
request counts: IO uses 1 request (2 when n > 1, for the select-best pass),
CoT uses one request per chain link, SC-CoT uses v chains plus one vote.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

from .agents import _ANSWER_MARKER, extract_answer, logged_request
from .backend import ChatMessage, ChatRequest, ROLE_ASSISTANT, ROLE_USER
from .domain import Problem, RunConfig, SamplingParams, Transcript
from .errors import ParseFailure
from .prompts import PromptCatalog

SOLVER = "solver"

IO_PROMPT = (
    "Solve the following problem. Give the final result on the last line in "
    "the format: Answer: <result>\n\nProblem: {question}"
)
SELECT_PROMPT = (
    "Here are {n} candidate answers to a problem:\n{answers}\n"
    "Select the best one and repeat it in the format: Answer: <result>"
)
COT_START = (
    "Solve the following problem step by step, one reasoning step per reply. "
    "When you reach the final result, end with a line in the format: "
    "Answer: <result>\n\nProblem: {question}"
)
COT_CONTINUE = "Continue with the next step."
VOTE_PROMPT = (
    "A problem was solved {v} times with these final answers:\n{answers}\n"
    "Vote for the best answer by replying with exactly one of the answers, "
    "verbatim."
)


# Method selectors for the harness.

@dataclass(frozen=True)
class MethodIO:
    n: int = 1


@dataclass(frozen=True)
class MethodCoT:
    chain_length_l: int = 5


@dataclass(frozen=True)
class MethodSCCoT:
    chain_length_l: int = 5
    voters_v: int = 5
    majority: bool = False


@dataclass(frozen=True)
class MethodMACM:
    config: RunConfig = field(default_factory=RunConfig)
    prompts: PromptCatalog = field(default_factory=PromptCatalog)


Method = MethodIO | MethodCoT | MethodSCCoT | MethodMACM


def _request(backend, messages: list[ChatMessage], sampling: SamplingParams,
             transcript: Transcript | None):
    return logged_request(backend, SOLVER, ChatRequest(tuple(messages), sampling), transcript)


def solve_io(problem: Problem, sampling: SamplingParams, backend,
             transcript: Transcript | None = None) -> tuple[str, int]:
    """Direct question-answer prompting.

    With n > 1 the model first generates n responses, then a second request
    selects the best one. Returns (answer, request count).
    """
    prompt = IO_PROMPT.format(question=problem.question)
    response = _request(backend, [ChatMessage(ROLE_USER, prompt)], sampling, transcript)
    if sampling.n == 1:
        return extract_answer(response.text), 1
    listing = "\n".join(f"{i}. {extract_answer(c)}"
                        for i, c in enumerate(response.choices, start=1))
    select_prompt = SELECT_PROMPT.format(n=len(response.choices), answers=listing)
    selected = _request(backend, [ChatMessage(ROLE_USER, select_prompt)],
                        replace(sampling, n=1), transcript)
    return extract_answer(selected.text), 2


def solve_cot(problem: Problem, l: int, sampling: SamplingParams, backend,
              transcript: Transcript | None = None) -> tuple[str, int]:
    """Stepwise chain-of-thought: one request per chain link, up to l links,
    stopping early when the reply carries the Answer marker."""
    if l < 1:
        raise ValueError("chain length must be >= 1")
    messages = [ChatMessage(ROLE_USER, COT_START.format(question=problem.question))]
    for step in range(1, l + 1):
        response = _request(backend, messages, sampling, transcript)
        if _ANSWER_MARKER.search(response.text):
            return extract_answer(response.text), step
        messages = messages + [ChatMessage(ROLE_ASSISTANT, response.text),
                               ChatMessage(ROLE_USER, COT_CONTINUE)]
    raise ParseFailure(f"no Answer marker within {l} chain links")


def solve_sc_cot(problem: Problem, l: int, v: int, sampling: SamplingParams, backend,
                 transcript: Transcript | None = None,
                 majority: bool = False) -> tuple[str, int]:
    """Self-consistency: v independent CoT chains plus one model vote among
    the final answers (or a string-majority tally when ``majority`` is set).

    Vote ties resolve to the earliest-occurring answer.
    """
    if v < 1:
        raise ValueError("voter count must be >= 1")
    finals: list[str] = []
    queries = 0
    for _ in range(v):
        answer, used = solve_cot(problem, l, sampling, backend, transcript)
        finals.append(answer)
        queries += used

    if majority:
        counts = Counter(finals)
        best = max(counts.values())
        for answer in finals:
            if counts[answer] == best:
                return answer, queries

    listing = "\n".join(f"{i}. {a}" for i, a in enumerate(finals, start=1))
    vote_prompt = VOTE_PROMPT.format(v=v, answers=listing)
    response = _request(backend, [ChatMessage(ROLE_USER, vote_prompt)],
                        replace(sampling, n=1), transcript)
    queries += 1
    voted = response.text.strip()
    for answer in finals:
        if voted == answer.strip():
            return answer, queries
    raise ParseFailure(f"vote {voted!r} is not among the candidate answers {finals!r}")
