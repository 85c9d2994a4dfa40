"""The condition-mining loop.

One run is: initialize the condition list and objective, then up to
``max_iterations`` rounds of (mine candidates, judge each one, check
sufficiency), then design steps and execute. Every agent interaction and
state change is logged to the transcript before the next begins. Given the
model's replies the loop is deterministic, so a resumed run is the same loop
run again from the start, answered from the transcript's own calls.
"""

from __future__ import annotations

import dataclasses

from .agents import AgentClient
from .backend import ChatResponse, replay, replayable
from .domain import (
    AgentCall,
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
)
from .errors import BackendFailure, CorruptTranscript
from .prompts import PromptCatalog


def _run(problem: Problem, config: RunConfig, backend, prompts: PromptCatalog,
          transcript: Transcript) -> Outcome:
    """Run the loop into ``transcript``; an exception ends it as ``RunError.of`` it."""
    client = AgentClient(backend=backend, config=config, transcript=transcript, prompts=prompts)
    log = transcript.append
    try:
        texts, objective = client.thinker_extract(problem)
        log(ObjectiveSet(objective))
        known = ConditionList(objective)
        for text in texts:
            if not known.is_duplicate(text):
                known.add(text)
                log(ConditionAccepted(text))
        for rnd in range(1, config.max_iterations + 1):
            candidates = client.thinker_mine(known)
            for text in candidates:
                log(ConditionProposed(text, rnd))
            for text in candidates:
                if known.is_duplicate(text):
                    log(DuplicateDropped(text, rnd))
                    continue
                accepted = client.judge_condition(text, known).value
                if accepted:
                    known.add(text)
                log((ConditionAccepted if accepted else ConditionDiscarded)(text, rnd))
            sufficient = client.judge_sufficiency(known).value
            log(SufficiencyVerdict(rnd, sufficient))
            if sufficient:
                plan = client.thinker_design_steps(known)
                log(PlanDesigned(plan))
                return Solved(client.executor_compute(known, plan))
        return Unsolvable(config.max_iterations)
    except Exception as exc:
        return RunError.of(exc)


def solve(problem: Problem, config: RunConfig, backend,
          prompts: PromptCatalog | None = None,
          run_id: str | None = None) -> tuple[Outcome, Transcript]:
    """Run the full mining loop on one problem.

    Returns the outcome and the complete transcript; on an exception the
    partial transcript is kept and the outcome is ``RunError.of`` it, never
    an exception.
    """
    transcript = Transcript(run_id)
    outcome = _run(problem, config, backend, prompts or PromptCatalog(), transcript)
    transcript.append(Final(outcome))
    return outcome, transcript


def _first_difference(recorded: list[Event], rerun: list[Event]) -> int | None:
    """The index of the first recorded event the re-run does not repeat,
    timestamps aside; None when the re-run begins with all of them."""
    for i, event in enumerate(recorded):
        if i == len(rerun) or event != (
                dataclasses.replace(rerun[i], timestamp=event.timestamp)
                if type(event) is AgentCall is type(rerun[i]) else rerun[i]):
            return i
    return None


class _TranscriptBackend:
    """Answers the re-run's k-th request from the transcript's k-th AgentCall,
    by ``backend.replay``'s rule. A request past them goes to ``backend``,
    once the re-run has logged every event of the transcript."""

    def __init__(self, recorded: list[Event], rerun: Transcript, backend):
        self.recorded, self.rerun, self.backend = recorded, rerun, backend
        self.calls = [e for e in recorded if isinstance(e, AgentCall)]
        self._pos = 0

    def complete(self, request, role: str) -> ChatResponse:
        k, self._pos = self._pos, self._pos + 1  # a request that fails ends the re-run
        if k < len(self.calls):
            return replay(replayable(vars(self.calls[k])), request, role, "the transcript", k)
        if k == len(self.calls) and _first_difference(self.recorded, self.rerun.events) is not None:
            raise BackendFailure("the re-run differs from the transcript")
        return self.backend.complete(request, role)


def resume_from_transcript(transcript: Transcript, backend, *, problem: Problem,
                           config: RunConfig | None = None,
                           prompts: PromptCatalog | None = None) -> tuple[Outcome, Transcript]:
    """Continue an unfinished run of ``problem``: append the rest of the run
    to ``transcript`` and return ``(outcome, transcript)``.

    The loop runs again from the start, answered from the transcript's
    AgentCalls; ``backend`` serves the requests past them, once the re-run
    has repeated every event of the transcript. A finalised transcript, or
    one the re-run does not repeat (edited, say, or run with other settings
    or prompts), raises CorruptTranscript naming the first event that differs.
    """
    if transcript.is_final:
        raise CorruptTranscript("transcript already carries a Final event")
    recorded, rerun = transcript.events, Transcript(transcript.run_id)
    outcome = _run(problem, config or RunConfig(), _TranscriptBackend(recorded, rerun, backend),
                    prompts or PromptCatalog(), rerun)
    rerun.append(Final(outcome))
    i = _first_difference(recorded, rerun.events)
    if i is not None:
        raise CorruptTranscript(f"event {i} of the transcript, {recorded[i]!r:.200}, "
                                f"differs from the re-run's {rerun.events[i]!r:.200}")
    transcript.events.extend(rerun.events[len(recorded):])
    return outcome, transcript
