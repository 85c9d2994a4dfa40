"""Baseline prompting pipelines over the same backend: I-O, CoT, and SC-CoT.

Each solver logs every request to the run's transcript, so
``transcript.query_count()`` is its exact request count: IO uses 1 request
(2 when n > 1, for the select-best pass), CoT uses one request per chain
link, SC-CoT uses v chains plus one vote.
"""

from __future__ import annotations

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


# Method selectors for the harness. Each carries its own sampling, as
# MethodMACM does through its config.

@dataclass(frozen=True)
class MethodIO:
    sampling: SamplingParams = SamplingParams()


@dataclass(frozen=True)
class MethodCoT:
    chain_length_l: int = 5
    sampling: SamplingParams = SamplingParams()


@dataclass(frozen=True)
class MethodSCCoT:
    chain_length_l: int = 5
    voters_v: int = 5
    sampling: SamplingParams = SamplingParams()


@dataclass(frozen=True)
class MethodMACM:
    config: RunConfig = field(default_factory=RunConfig)
    prompts: PromptCatalog = field(default_factory=PromptCatalog)


Method = MethodIO | MethodCoT | MethodSCCoT | MethodMACM


def solve_io(problem: Problem, sampling: SamplingParams, backend,
             transcript: Transcript) -> str:
    """Direct question-answer prompting.

    With n > 1 the model first generates n responses, then a second request
    selects the best one.
    """
    prompt = IO_PROMPT.format(question=problem.question)
    response = logged_request(backend, SOLVER, ChatRequest(
        (ChatMessage(ROLE_USER, prompt),), sampling), transcript)
    if sampling.n == 1:
        return extract_answer(response.text)
    listing = "\n".join(f"{i}. {extract_answer(c)}"
                        for i, c in enumerate(response.choices, start=1))
    select_prompt = SELECT_PROMPT.format(n=len(response.choices), answers=listing)
    selected = logged_request(backend, SOLVER, ChatRequest(
        (ChatMessage(ROLE_USER, select_prompt),), replace(sampling, n=1)), transcript)
    return extract_answer(selected.text)


def solve_cot(problem: Problem, l: int, sampling: SamplingParams, backend,
              transcript: Transcript) -> str:
    """Stepwise chain-of-thought: one request per chain link, up to l links,
    stopping early when the reply carries the Answer marker."""
    if l < 1:
        raise ValueError("chain length must be >= 1")
    messages = (ChatMessage(ROLE_USER, COT_START.format(question=problem.question)),)
    for _ in range(l):
        response = logged_request(backend, SOLVER, ChatRequest(messages, sampling), transcript)
        if _ANSWER_MARKER.search(response.text):
            return extract_answer(response.text)
        messages = messages + (ChatMessage(ROLE_ASSISTANT, response.text),
                               ChatMessage(ROLE_USER, COT_CONTINUE))
    raise ParseFailure(f"no Answer marker within {l} chain links")


def solve_sc_cot(problem: Problem, l: int, v: int, sampling: SamplingParams, backend,
                 transcript: Transcript) -> str:
    """Self-consistency: v independent CoT chains plus one model vote among
    the final answers; a vote matching several chains returns the earliest."""
    if v < 1:
        raise ValueError("voter count must be >= 1")
    finals = [solve_cot(problem, l, sampling, backend, transcript) for _ in range(v)]
    listing = "\n".join(f"{i}. {a}" for i, a in enumerate(finals, start=1))
    vote_prompt = VOTE_PROMPT.format(v=v, answers=listing)
    response = logged_request(backend, SOLVER, ChatRequest(
        (ChatMessage(ROLE_USER, vote_prompt),), replace(sampling, n=1)), transcript)
    voted = response.text.strip()
    for answer in finals:
        if voted == answer.strip():
            return answer
    raise ParseFailure(f"vote {voted!r} is not among the candidate answers {finals!r}")
