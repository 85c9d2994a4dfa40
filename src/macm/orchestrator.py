"""The condition-mining state machine.

One run is: initialize the condition list and objective, then up to
``max_iterations`` rounds of (mine candidates, judge each one, check
sufficiency), then design steps and execute. Every agent interaction and
state change is logged to the transcript before the next begins.
"""

from __future__ import annotations

from .agents import AgentClient, CandidateCondition, StepPlan
from .domain import (
    Condition,
    ConditionList,
    ConditionProposed,
    Final,
    Objective,
    Outcome,
    Problem,
    RunConfig,
    RunError,
    Solved,
    StateChange,
    Transcript,
    Unsolvable,
    VerdictEvent,
)
from .errors import BackendFailure, BudgetExceeded, CorruptTranscript, ParseFailure
from .prompts import PromptCatalog

# The errors that end one run as a RunError outcome instead of propagating.
SOLVE_ERRORS = (ParseFailure, BudgetExceeded, BackendFailure)

OBJECTIVE_SET = "objective set"
CONDITION_ACCEPTED = "condition accepted"
CONDITION_DISCARDED = "condition discarded"
DUPLICATE_DROPPED = "duplicate condition dropped"
PLAN_DESIGNED = "plan designed"


def _finalize(transcript: Transcript, outcome: Outcome) -> tuple[Outcome, Transcript]:
    transcript.append(Final(outcome))
    return outcome, transcript


def _error_outcome(exc: Exception) -> RunError:
    if isinstance(exc, ParseFailure):
        return RunError("ParseFailure", str(exc))
    if isinstance(exc, BudgetExceeded):
        return RunError("BudgetExceeded", str(exc))
    return RunError("BackendFailure", str(exc))


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


def _continue(client: AgentClient, known: ConditionList | None, transcript: Transcript,
              config: RunConfig, *, problem: Problem | None = None, round_start: int = 1,
              pending: list[CandidateCondition] | None = None,
              phase: str = "mining",
              plan: StepPlan | None = None) -> tuple[Outcome, Transcript]:
    try:
        if phase == "extracting":
            known = client.thinker_extract(problem)
            transcript.append(StateChange(OBJECTIVE_SET, {"objective": known.objective.text}))
            for cond in known.accepted():
                transcript.append(StateChange(CONDITION_ACCEPTED,
                                              {"text": cond.text, "provenance": "initial"}))
            phase = "mining"

        if phase == "mining":
            reached_sufficiency = False
            for r in range(round_start, config.max_iterations + 1):
                if pending is not None and r == round_start:
                    candidates = pending
                    pending = None
                else:
                    candidates = client.thinker_mine(known)
                    for cand in candidates:
                        transcript.append(ConditionProposed(cand.text, r))
                for cand in candidates:
                    if known.is_duplicate(cand.text):
                        transcript.append(StateChange(
                            DUPLICATE_DROPPED, {"text": cand.text, "round": r}))
                        continue
                    verdict = client.judge_condition(cand, known)
                    transcript.append(VerdictEvent(f"condition: {cand.text}", verdict.value))
                    if verdict.value:
                        known.add(Condition(cand.text, mined_round=r))
                        transcript.append(StateChange(
                            CONDITION_ACCEPTED, {"text": cand.text, "round": r}))
                    else:
                        known.add(Condition(cand.text, mined_round=r, accepted=False))
                        transcript.append(StateChange(
                            CONDITION_DISCARDED, {"text": cand.text, "round": r}))
                sufficiency = client.judge_sufficiency(known)
                transcript.append(VerdictEvent(f"sufficiency round {r}", sufficiency.value))
                if sufficiency.value:
                    reached_sufficiency = True
                    break
            if not reached_sufficiency:
                return _finalize(transcript, Unsolvable(config.max_iterations))
            phase = "planning"

        if phase == "planning":
            plan = client.thinker_design_steps(known)
            transcript.append(StateChange(PLAN_DESIGNED, {"steps": list(plan.steps)}))
            phase = "executing"

        assert plan is not None
        answer = client.executor_compute(known, plan)
        return _finalize(transcript, Solved(answer))
    except SOLVE_ERRORS as exc:
        return _finalize(transcript, _error_outcome(exc))


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
    config = config or RunConfig()

    objective: str | None = None
    accepted: list[Condition] = []
    discarded: list[Condition] = []
    proposed_by_round: dict[int, list[str]] = {}
    processed_by_round: dict[int, int] = {}
    sufficiency_rounds = 0
    sufficiency_true = False
    plan: StepPlan | None = None

    for event in transcript.events:
        if isinstance(event, StateChange):
            if event.description == OBJECTIVE_SET:
                objective = event.data["objective"]
            elif event.description == CONDITION_ACCEPTED:
                if event.data.get("provenance") == "initial":
                    accepted.append(Condition(event.data["text"]))
                else:
                    r = event.data["round"]
                    accepted.append(Condition(event.data["text"], mined_round=r))
                    processed_by_round[r] = processed_by_round.get(r, 0) + 1
            elif event.description == CONDITION_DISCARDED:
                r = event.data["round"]
                discarded.append(Condition(event.data["text"], mined_round=r, accepted=False))
                processed_by_round[r] = processed_by_round.get(r, 0) + 1
            elif event.description == DUPLICATE_DROPPED:
                r = event.data["round"]
                processed_by_round[r] = processed_by_round.get(r, 0) + 1
            elif event.description == PLAN_DESIGNED:
                plan = StepPlan(tuple(event.data["steps"]))
        elif isinstance(event, ConditionProposed):
            proposed_by_round.setdefault(event.round, []).append(event.text)
        elif isinstance(event, VerdictEvent):
            if event.subject.startswith("sufficiency"):
                sufficiency_rounds += 1
                sufficiency_true = sufficiency_true or event.value

    client = AgentClient(backend=backend, config=config, transcript=transcript,
                         prompts=prompts or PromptCatalog())
    if objective is None:
        if problem is None:
            raise CorruptTranscript("transcript has no objective and no problem was given")
        # Extraction never completed: run fresh, appending to the same transcript.
        return _continue(client, None, transcript, config, problem=problem,
                         phase="extracting")

    known = ConditionList(Objective(objective), accepted)
    for cond in discarded:
        known.add(cond)

    if plan is not None:
        return _continue(client, known, transcript, config, phase="executing", plan=plan)
    if sufficiency_true:
        return _continue(client, known, transcript, config, phase="planning")
    if sufficiency_rounds >= config.max_iterations:
        return _finalize(transcript, Unsolvable(config.max_iterations))

    current_round = sufficiency_rounds + 1
    pending: list[CandidateCondition] | None = None
    if current_round in proposed_by_round:
        done = processed_by_round.get(current_round, 0)
        remaining = proposed_by_round[current_round][done:]
        pending = [CandidateCondition(text) for text in remaining]
    return _continue(client, known, transcript, config,
                     round_start=current_round, pending=pending)
