"""The condition-mining state machine.

One run is: initialize the condition list and objective, then up to
``max_iterations`` rounds of (mine candidates, judge each one, check
sufficiency), then design steps and execute. Every agent interaction and
state change is logged to the transcript before the next begins, and the
run's state is the fold of its transcript events through ``RunState.apply``:
a fresh run and a resumed one share that one transition function.
"""

from __future__ import annotations

from dataclasses import dataclass

from .agents import AgentClient
from .domain import (
    ConditionAccepted,
    ConditionDiscarded,
    ConditionList,
    ConditionProposed,
    DuplicateDropped,
    Event,
    Final,
    ObjectiveSet,
    Outcome,
    PlanDesigned,
    Problem,
    RunConfig,
    RunError,
    Solved,
    SufficiencyVerdict,
    Transcript,
    Unsolvable,
    VerdictEvent,
)
from .errors import SOLVE_ERRORS, CorruptTranscript
from .prompts import PromptCatalog


@dataclass
class RunState:
    """What a run's events say so far. ``known`` is None until the problem is
    extracted; ``pending`` holds the candidates proposed this round and not
    yet judged or dropped, None until the round is mined."""

    known: ConditionList | None = None
    round: int = 1
    pending: list[str] | None = None
    sufficient: bool = False
    plan: tuple[str, ...] | None = None

    def apply(self, event: Event) -> None:
        kind = type(event)
        if kind is ConditionProposed:
            self.pending = (self.pending or []) + [event.text]
        elif kind is ConditionAccepted:
            self.known.add(event.text)
            if event.round is not None:
                del self.pending[0]
        elif kind is ConditionDiscarded or kind is DuplicateDropped:
            del self.pending[0]
        elif kind is SufficiencyVerdict:
            self.round, self.pending, self.sufficient = event.round + 1, None, event.value
        elif kind is ObjectiveSet:
            self.known = ConditionList(event.text)
        elif kind is PlanDesigned:
            self.plan = event.steps


def solve(problem: Problem, config: RunConfig, backend,
          prompts: PromptCatalog | None = None,
          run_id: str | None = None) -> tuple[Outcome, Transcript]:
    """Run the full mining loop on one problem.

    Returns the outcome and the complete transcript; on ParseFailure,
    BackendFailure, or BudgetExceeded the partial transcript is kept and the
    outcome is an error, never an exception.
    """
    return resume_from_transcript(Transcript(run_id), backend, problem=problem,
                                  config=config, prompts=prompts)


def resume_from_transcript(transcript: Transcript, backend, *,
                           problem: Problem | None = None,
                           config: RunConfig | None = None,
                           prompts: PromptCatalog | None = None) -> tuple[Outcome, Transcript]:
    """Reconstruct the run state from an unfinished transcript and continue.

    With a replay backend positioned past the calls already in the
    transcript, this produces the same outcome as an uninterrupted run.
    An empty transcript behaves as a fresh solve (``problem`` required then).
    """
    if transcript.is_final:
        raise CorruptTranscript("transcript already carries a Final event")
    state = RunState()
    for event in transcript.events:
        state.apply(event)
    if state.known is None and problem is None:
        raise CorruptTranscript("transcript has no objective and no problem was given")
    config = config or RunConfig()
    client = AgentClient(backend=backend, config=config, transcript=transcript,
                         prompts=prompts or PromptCatalog())

    def log(event: Event) -> None:
        transcript.append(event)
        state.apply(event)

    try:
        if state.known is None:
            texts, objective = client.thinker_extract(problem)
            log(ObjectiveSet(objective))
            for text in texts:
                if not state.known.is_duplicate(text):
                    log(ConditionAccepted(text))
        while not state.sufficient and state.round <= config.max_iterations:
            if state.pending is None:
                for text in client.thinker_mine(state.known):
                    log(ConditionProposed(text, state.round))
            while state.pending:
                text = state.pending[0]
                if state.known.is_duplicate(text):
                    log(DuplicateDropped(text, state.round))
                    continue
                verdict = client.judge_condition(text, state.known)
                log(VerdictEvent(f"condition: {text}", verdict.value))
                log((ConditionAccepted if verdict.value else ConditionDiscarded)(
                    text, state.round))
            log(SufficiencyVerdict(state.round, client.judge_sufficiency(state.known).value))
        outcome = Unsolvable(config.max_iterations)
        if state.sufficient:
            if state.plan is None:
                log(PlanDesigned(client.thinker_design_steps(state.known)))
            outcome = Solved(client.executor_compute(state.known, state.plan))
    except SOLVE_ERRORS as exc:
        outcome = RunError.of(exc)
    transcript.append(Final(outcome))
    return outcome, transcript
