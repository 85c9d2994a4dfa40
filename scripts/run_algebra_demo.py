#!/usr/bin/env python3
"""Replay the bundled algebra condition-mining trace and print each event.

Runs entirely offline against the scripted backend shipped with the package,
so it doubles as a quick smoke test of the full thinker/judge/executor loop.
"""

import json

from macm.backend import ScriptedBackend
from macm.demo import algebra_problem, algebra_trace_path
from macm.domain import (
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
    ConditionProposed,
    Final,
    RunConfig,
    SufficiencyVerdict,
    outcome_to_dict,
)
from macm.orchestrator import solve


def main() -> None:
    problem = algebra_problem()
    backend = ScriptedBackend.from_file(algebra_trace_path())
    outcome, transcript = solve(problem, RunConfig(), backend)

    print(f"question: {problem.question}\n")
    for event in transcript.events:
        if isinstance(event, AgentCall):
            print(f"[call]    {event.role}: {event.raw_response.splitlines()[0][:70]}")
        elif isinstance(event, (ConditionAccepted, ConditionDiscarded)) and event.round is not None:
            print(f"[verdict] condition: {event.text} -> {isinstance(event, ConditionAccepted)}")
        elif isinstance(event, SufficiencyVerdict):
            print(f"[verdict] sufficient after round {event.round} -> {event.value}")
        elif not isinstance(event, (ConditionProposed, Final)):
            print(f"[state]   {type(event).__name__}: {getattr(event, 'text', '')}")
    print(f"\noutcome: {json.dumps(outcome_to_dict(outcome))}")
    print(f"queries: {transcript.query_count()}")


if __name__ == "__main__":
    main()
