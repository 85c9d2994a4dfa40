"""The condition-mining loop.

One run is: initialize the condition list and objective, then up to
``max_iterations`` rounds of (mine candidates, judge each one, check
sufficiency), then design steps and execute. Every agent interaction and
state change is logged to the transcript before the next begins. Given the
model's replies the loop is deterministic, which is what lets
``harness.solve_one`` resume a run by running it again from the start.
``solve`` has the shape of every solver: it returns the run's outcome,
raises on failure and leaves the ``Final`` event to ``harness.solve_one``.
"""

from __future__ import annotations

from .agents import AgentClient
from .baselines import MethodMACM
from .domain import (
    ConditionAccepted,
    ConditionDiscarded,
    ConditionList,
    DuplicateDropped,
    ObjectiveSet,
    PlanDesigned,
    Problem,
    Solved,
    SufficiencyVerdict,
    Transcript,
    Unsolvable,
)


def solve(problem: Problem, method: MethodMACM, backend,
          transcript: Transcript) -> Solved | Unsolvable:
    """Run the full mining loop on one problem, logging into ``transcript``,
    and return its outcome: Solved, or Unsolvable after ``max_iterations``
    rounds without a sufficient condition list."""
    client = AgentClient(backend, method, transcript)
    log = transcript.append
    texts, objective = client.thinker_extract(problem)
    log(ObjectiveSet(objective))
    known = ConditionList(objective)
    for text in texts:
        if known.add(text):  # False for a duplicate, which is dropped
            log(ConditionAccepted(text))
    for rnd in range(1, method.max_iterations + 1):
        for text in client.thinker_mine(known):
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
    return Unsolvable(method.max_iterations)
