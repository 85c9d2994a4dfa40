#!/usr/bin/env python3
"""Replay the bundled algebra condition-mining trace and print each event,
then cut the run after round 1's sufficiency verdict and resume it.

Runs entirely offline against the scripted backend shipped with the package,
so it doubles as a quick smoke test of the full thinker/judge/executor loop
and of resume.
"""

import json
import tempfile
from pathlib import Path

from macm.backend import ReplayBackend, ScriptedBackend
from macm.baselines import MethodMACM
from macm.demo import algebra_problem, algebra_trace_path
from macm.domain import (
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
    Final,
    SufficiencyVerdict,
    Transcript,
    outcome_to_dict,
)
from macm.harness import solve_one, write_transcript


def main() -> None:
    problem = algebra_problem()
    transcript = solve_one(problem, MethodMACM(),
                           lambda _: ScriptedBackend.from_file(algebra_trace_path()))

    print(f"question: {problem.question}\n")
    for event in transcript.events:
        if isinstance(event, AgentCall):
            print(f"[call]    {event.role}: {event.raw_response.splitlines()[0][:70]}")
        elif isinstance(event, (ConditionAccepted, ConditionDiscarded)) and event.round is not None:
            print(f"[verdict] condition: {event.text} -> {isinstance(event, ConditionAccepted)}")
        elif isinstance(event, SufficiencyVerdict):
            print(f"[verdict] sufficient after round {event.round} -> {event.value}")
        elif not isinstance(event, Final):
            print(f"[state]   {type(event).__name__}: {getattr(event, 'text', '')}")
    print(f"\noutcome: {json.dumps(outcome_to_dict(transcript.outcome))}")
    print(f"queries: {transcript.query_count()}")

    # Keep the run up to round 1's verdict, as a crash there would, and
    # resume it; the full run's transcript answers the calls past the cut.
    cut = next(i for i, e in enumerate(transcript.events) if isinstance(e, SufficiencyVerdict))
    prefix = Transcript(transcript.run_id)
    prefix.events = transcript.events[:cut + 1]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "algebra.jsonl"
        write_transcript(transcript, path)
        resumed = solve_one(problem, MethodMACM(), lambda _: ReplayBackend(
            path, skip_calls=prefix.query_count()), prefix=prefix)
    print(f"resumed: {resumed.outcome.answer}, queries: {resumed.query_count()}")


if __name__ == "__main__":
    main()
