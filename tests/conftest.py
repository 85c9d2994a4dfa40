"""Shared fixtures and scripted-run builders."""

from __future__ import annotations

import random

import pytest

from macm.backend import QueryCounter, ScriptedBackend, ScriptEntry
from macm.baselines import MethodMACM
from macm.domain import Problem
from macm.harness import solve_one


@pytest.fixture
def toy_problem() -> Problem:
    return Problem(id="toy-1", question="Compute 1+1.", gold_answer="2",
                   category="Prealgebra", level=1)


def scripted(thinker=(), judge=(), executor=(), solver=(), counter=None) -> ScriptedBackend:
    """Build a ScriptedBackend from plain reply strings."""
    roles = {}
    for name, entries in (("thinker", thinker), ("judge", judge),
                          ("executor", executor), ("solver", solver)):
        if entries:
            roles[name] = [e if isinstance(e, ScriptEntry) else ScriptEntry(reply=e)
                           for e in entries]
    return ScriptedBackend(roles, counter=counter or QueryCounter())


def run_macm(problem: Problem, method: MethodMACM, backend):
    """One MACM run over ``backend`` through harness.solve_one: (outcome, transcript)."""
    transcript = solve_one(problem, method, lambda _: backend)
    return transcript.outcome, transcript


def extraction_reply(conditions: list[str], objective: str) -> str:
    numbered = "\n".join(f"{i}. {c}" for i, c in enumerate(conditions, start=1))
    return f"Conditions:\n{numbered}\nObjective: {objective}"


def mining_reply(texts: list[str]) -> str:
    return "\n".join(f"Based on condition 1, we can get: {t}" for t in texts)


def random_script(seed: int, max_rounds: int = 5, candidate_cap: int = 8):
    """Deterministic random scripted run for fuzzing the orchestrator.

    Returns (backend, expected) where expected records which sentinel texts
    were scripted to be accepted or discarded per round, and whether the run
    should end Solved or Unsolvable.
    """
    rng = random.Random(seed)
    thinker = [extraction_reply([f"base-{seed}"], f"objective-{seed}")]
    judge: list[str] = []
    executor: list[str] = []
    expected = {"accepted": [], "discarded": [], "solved": False, "rounds": 0}

    for r in range(1, max_rounds + 1):
        expected["rounds"] = r
        k = rng.randint(1, candidate_cap)
        texts = [f"cand-{seed}-{r}-{i}" for i in range(k)]
        thinker.append(mining_reply(texts))
        for text in texts:
            verdict = rng.random() < 0.6
            judge.append("True" if verdict else "False")
            expected["accepted" if verdict else "discarded"].append((r, text))
        sufficient = rng.random() < 0.35
        judge.append("True" if sufficient else "False")
        if sufficient:
            thinker.append(f"1. Combine the accepted conditions.\n2. Compute answer-{seed}.")
            executor.append(f"Answer: answer-{seed}")
            expected["solved"] = True
            break

    backend = scripted(thinker=thinker, judge=judge, executor=executor)
    return backend, expected


@pytest.fixture
def fast_macm() -> MethodMACM:
    return MethodMACM(format_retries=0)
