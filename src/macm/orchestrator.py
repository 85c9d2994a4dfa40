"""The condition-mining loop.

One run is: initialize the condition list and objective, then up to
``max_iterations`` rounds of (mine candidates, judge each one, check
sufficiency), then design steps and execute. Every agent interaction and
state change is logged to the transcript before the next begins. Given the
model's replies the loop is deterministic, which is what lets
``harness.solve_one`` resume a run by running it again from the start.
"""

from __future__ import annotations

from .agents import AgentClient
from .domain import (
    ConditionAccepted,
    ConditionDiscarded,
    ConditionList,
    ConditionProposed,
    DuplicateDropped,
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
from .prompts import PromptCatalog


def solve(problem: Problem, config: RunConfig, backend,
          prompts: PromptCatalog | None = None,
          transcript: Transcript | None = None) -> tuple[Outcome, Transcript]:
    """Run the full mining loop on one problem, logging into ``transcript``
    (a new one if None).

    Returns the outcome and the transcript, finalized; on an exception the
    partial transcript is kept and the outcome is ``RunError.of`` it, never
    an exception.
    """
    transcript = Transcript() if transcript is None else transcript
    client = AgentClient(backend=backend, config=config, transcript=transcript,
                         prompts=prompts or PromptCatalog())
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
                outcome = Solved(client.executor_compute(known, plan))
                break
        else:
            outcome = Unsolvable(config.max_iterations)
    except Exception as exc:
        outcome = RunError.of(exc)
    log(Final(outcome))
    return outcome, transcript
