"""Baseline prompting pipelines over the same backend: I-O, CoT, and SC-CoT.

Each solver has the shape of ``orchestrator.solve``: it takes its Method,
logs every request to the run's transcript and returns ``Solved``, raising on
failure; ``harness.solve_one`` appends the ``Final``. So
``transcript.query_count()`` is its exact request count: IO uses 1 request
(2 when n > 1, for the select-best pass), CoT uses one request per chain
link, SC-CoT uses v chains plus one vote.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .agents import _ANSWER_MARKER, extract_answer, logged_request
from .backend import ChatMessage, ChatRequest, ROLE_ASSISTANT, ROLE_USER
from .domain import Problem, SamplingParams, Solved, Transcript
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


# Method selectors for the harness. A Method is its knobs: each field but
# MethodMACM's prompts is one, named as its flag (--l, --v, --n, ...).

@dataclass(frozen=True)
class MethodIO:
    n: int = 1
    temperature: float = 0.7

    def __post_init__(self):
        SamplingParams(self.n, self.temperature)  # checks n and temperature


@dataclass(frozen=True)
class MethodCoT:
    l: int = 5  # the chain length, the paper's l
    n: int = 1
    temperature: float = 0.7

    def __post_init__(self):
        SamplingParams(self.n, self.temperature)  # checks n and temperature
        if self.l < 1:
            raise ValueError("chain length must be >= 1")


@dataclass(frozen=True)
class MethodSCCoT:
    l: int = 5
    v: int = 5  # the voters, the paper's v
    n: int = 1
    temperature: float = 0.7

    def __post_init__(self):
        SamplingParams(self.n, self.temperature)  # checks n and temperature
        if self.l < 1:
            raise ValueError("chain length must be >= 1")
        if self.v < 1:
            raise ValueError("voter count must be >= 1")


@dataclass(frozen=True)
class MethodMACM:
    temperature: float = 0.7
    max_iterations: int = 5
    format_retries: int = 2
    query_budget: int | None = None
    prompts: PromptCatalog = field(default_factory=PromptCatalog)

    def __post_init__(self):
        SamplingParams(temperature=self.temperature)  # checks the temperature
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.format_retries < 0:
            raise ValueError("format_retries must be >= 0")
        if self.query_budget is not None and self.query_budget < 1:
            raise ValueError("query_budget must be >= 1")


Method = MethodIO | MethodCoT | MethodSCCoT | MethodMACM


def solve_io(problem: Problem, method: MethodIO, backend, transcript: Transcript) -> Solved:
    """Direct question-answer prompting.

    With n > 1 the model first generates n responses, then a second request
    selects the best one.
    """
    sampling = SamplingParams(method.n, method.temperature)
    prompt = IO_PROMPT.format(question=problem.question)
    response = logged_request(backend, SOLVER, ChatRequest(
        (ChatMessage(ROLE_USER, prompt),), sampling), transcript)
    if method.n == 1:
        return Solved(extract_answer(response.text))
    listing = "\n".join(f"{i}. {extract_answer(c)}"
                        for i, c in enumerate(response.choices, start=1))
    select_prompt = SELECT_PROMPT.format(n=len(response.choices), answers=listing)
    selected = logged_request(backend, SOLVER, ChatRequest(
        (ChatMessage(ROLE_USER, select_prompt),), replace(sampling, n=1)), transcript)
    return Solved(extract_answer(selected.text))


def solve_cot(problem: Problem, method: MethodCoT, backend, transcript: Transcript) -> Solved:
    """Stepwise chain-of-thought: one request per chain link, up to l links,
    stopping early when the reply carries the Answer marker."""
    messages = (ChatMessage(ROLE_USER, COT_START.format(question=problem.question)),)
    sampling = SamplingParams(method.n, method.temperature)
    for _ in range(method.l):
        response = logged_request(backend, SOLVER, ChatRequest(messages, sampling), transcript)
        if _ANSWER_MARKER.search(response.text):
            return Solved(extract_answer(response.text))
        messages = messages + (ChatMessage(ROLE_ASSISTANT, response.text),
                               ChatMessage(ROLE_USER, COT_CONTINUE))
    raise ParseFailure(f"no Answer marker within {method.l} chain links")


def solve_sc_cot(problem: Problem, method: MethodSCCoT, backend,
                 transcript: Transcript) -> Solved:
    """Self-consistency: v independent CoT chains plus one model vote among
    the final answers; a vote matching several chains returns the earliest."""
    chain = MethodCoT(method.l, method.n, method.temperature)
    finals = [solve_cot(problem, chain, backend, transcript).answer for _ in range(method.v)]
    listing = "\n".join(f"{i}. {a}" for i, a in enumerate(finals, start=1))
    vote_prompt = VOTE_PROMPT.format(v=method.v, answers=listing)
    response = logged_request(backend, SOLVER, ChatRequest(
        (ChatMessage(ROLE_USER, vote_prompt),), SamplingParams(1, method.temperature)), transcript)
    voted = response.text.strip()
    for answer in finals:
        if voted == answer.strip():
            return Solved(answer)
    raise ParseFailure(f"vote {voted!r} is not among the candidate answers {finals!r}")
