"""Acceptance suite: one test per binding criterion, each printing a single
PASS/FAIL line (with its runtime against the stated limit) directly to the
terminal, bypassing pytest capture."""

import json
import random
import sys
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from macm.agents import MAX_CANDIDATES, extract_answer, parse_candidates, parse_verdict
from macm.backend import QueryCounter, ScriptedBackend
from macm.baselines import MethodIO, solve_sc_cot
from macm.demo import algebra_problem, algebra_trace_path
from macm.domain import (
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
    Problem,
    RunConfig,
    SamplingParams,
    Solved,
    SufficiencyVerdict,
    Transcript,
    Unsolvable,
    Verdict,
    VerdictEvent,
)
from macm.errors import ParseFailure
from macm.harness import make_backend_factory, run_benchmark, sweep_queries
from macm.orchestrator import solve
from macm.tasks import (
    Game24Instance,
    equal_answers,
    game24_oracle,
    render,
    verify_game24,
    verify_sorted,
)

from conftest import extraction_reply, mining_reply, random_script, scripted
from test_tasks import independent_eval, independent_leaves, random_expr


@contextmanager
def criterion(capfd, name: str, limit_s: float):
    def emit(line: str) -> None:
        with capfd.disabled():
            print(line, file=sys.stderr, flush=True)

    start = time.monotonic()
    try:
        yield
    except BaseException:
        emit(f"FAIL  {name}")
        raise
    elapsed = time.monotonic() - start
    if elapsed > limit_s:
        emit(f"FAIL  {name} ({elapsed:.2f}s > {limit_s:g}s limit)")
        pytest.fail(f"{name}: runtime {elapsed:.2f}s exceeds {limit_s:g}s limit")
    emit(f"PASS  {name} ({elapsed:.2f}s, limit {limit_s:g}s)")


def accepted_mined(transcript):
    return [e for e in transcript.events
            if isinstance(e, ConditionAccepted) and e.round is not None]


def discarded(transcript):
    return [e for e in transcript.events if isinstance(e, ConditionDiscarded)]


def test_algebra_trace_replay(capfd):
    with criterion(capfd, "algebra trace replay", 1.0):
        backend = ScriptedBackend.from_file(algebra_trace_path())
        outcome, transcript = solve(algebra_problem(), RunConfig(), backend)

        # Gold derived independently: both roots of (x+11)(x-4) must satisfy
        # x^2 + 5x + alpha = 0, so alpha1 = -((-11)**2 + 5*(-11)) and
        # alpha2 = -(4**2 + 5*4).
        alpha1 = -((-11) ** 2 + 5 * (-11))
        alpha2 = -(4 ** 2 + 5 * 4)
        assert (alpha1, alpha2) == (-66, -36)
        gold = str(alpha1 + alpha2)

        assert isinstance(outcome, Solved)
        assert equal_answers(outcome.answer, gold)
        assert len(discarded(transcript)) == 1
        assert len(accepted_mined(transcript)) == 2


def test_termination_after_five_rounds(capfd):
    with criterion(capfd, "termination at the 5-iteration cap", 1.0):
        problem = Problem(id="t", question="q")
        backend = scripted(
            thinker=[extraction_reply(["c0"], "obj")]
            + [mining_reply([f"c{r}"]) for r in range(1, 6)],
            judge=["True", "False"] * 5)
        outcome, transcript = solve(problem, RunConfig(format_retries=0), backend)
        assert outcome == Unsolvable(5)
        mining_rounds = sorted({e.round for e in transcript.events
                                if type(e).__name__ == "ConditionProposed"})
        assert mining_rounds == [1, 2, 3, 4, 5]
        sufficiency = [e for e in transcript.events if isinstance(e, SufficiencyVerdict)]
        assert len(sufficiency) == 5


def test_gate_soundness_fuzz(capfd):
    with criterion(capfd, "gate soundness over 500 random scripts", 30.0):
        problem = Problem(id="f", question="q")
        config = RunConfig(format_retries=0)
        for seed in range(500):
            backend, expected = random_script(seed)
            outcome, transcript = solve(problem, config, backend)
            if expected["solved"]:
                assert outcome == Solved(f"answer-{seed}")
            else:
                assert outcome == Unsolvable(5)

            seen_true: set[str] = set()
            for event in transcript.events:
                if isinstance(event, VerdictEvent) and event.value \
                        and event.subject.startswith("condition: "):
                    seen_true.add(event.subject[len("condition: "):])
                if isinstance(event, ConditionAccepted) and event.round is not None:
                    assert event.text in seen_true

            discard_points = [(i, e.text)
                              for i, e in enumerate(transcript.events)
                              if isinstance(e, ConditionDiscarded)]
            for index, text in discard_points:
                for event in transcript.events[index + 1:]:
                    if isinstance(event, AgentCall):
                        assert text not in event.prompt

            cap = MAX_CANDIDATES
            budget = 1 + expected["rounds"] * (cap + 2) + 2
            assert transcript.query_count() <= budget


def _independent_game24_check(numbers, text):
    """Brute-force grading path sharing no code with the package verifier."""
    try:
        value = independent_eval(text)
    except ZeroDivisionError:
        return False
    return value == 24 and Counter(independent_leaves(text)) == Counter(numbers)


def test_game24_verifier_vs_oracle(capfd):
    with criterion(capfd, "24-game verifier vs oracle on 1000 instances", 60.0):
        assert verify_game24(Game24Instance((3, 3, 8, 8)), "8/(3-8/3)")

        rng = random.Random(24_000)
        checked = 0
        for _ in range(1000):
            numbers = tuple(rng.randint(1, 13) for _ in range(4))
            instance = Game24Instance(numbers)
            witness = game24_oracle(instance)
            if witness is not None:
                text = render(witness)
                assert verify_game24(instance, text)
                assert _independent_game24_check(numbers, text)
                checked += 1
            for _ in range(5):
                text = render(random_expr(rng, list(numbers)))
                assert verify_game24(instance, text) == \
                    _independent_game24_check(numbers, text)
                checked += 1
        assert checked >= 5000


def test_sorting_verifier(capfd):
    with criterion(capfd, "sorting verifier on 100 random 64-element sequences", 5.0):
        rng = random.Random(64_000)
        for _ in range(100):
            xs = [rng.randint(-10_000, 10_000) for _ in range(64)]
            reference = sorted(xs)
            assert verify_sorted(xs, reference)

            dropped = list(reference)
            del dropped[rng.randrange(len(dropped))]
            assert not verify_sorted(xs, dropped)

            swapped = list(reference)
            i = next(k for k in range(len(swapped) - 1)
                     if swapped[k] != swapped[k + 1])
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            assert not verify_sorted(xs, swapped)


def test_query_accounting(capfd):
    with criterion(capfd, "query accounting (exact integer equality)", 5.0):
        problem = Problem(id="q", question="q", gold_answer="4")

        # SC-CoT, l=5 / v=5, each chain resolving in 2 steps: v*steps + 1 vote.
        counter = QueryCounter()
        backend = scripted(solver=["step", "Answer: 4"] * 5 + ["4"], counter=counter)
        transcript = Transcript("sc-cot")
        solve_sc_cot(problem, 5, 5, SamplingParams(), backend, transcript)
        assert transcript.query_count() == 5 * 2 + 1
        assert counter.requests == 5 * 2 + 1

        # MACM: reported query count equals the transcript's AgentCall count.
        counter = QueryCounter()
        backend = scripted(
            thinker=[extraction_reply(["c"], "obj"), mining_reply(["m"]), "1. go"],
            judge=["True", "True"], executor=["Answer: 4"], counter=counter)
        _, transcript = solve(problem, RunConfig(format_retries=0), backend)
        calls = [e for e in transcript.events if isinstance(e, AgentCall)]
        assert transcript.query_count() == len(calls) == counter.requests == 6

        # Sweep: per-point means times problem count sum to the global counter.
        global_counter = QueryCounter()

        def factory(pid):
            return scripted(solver=["Answer: 4", "Answer: 4"], counter=global_counter)

        import tempfile
        with tempfile.TemporaryDirectory() as out_dir:
            points = sweep_queries([problem], MethodIO(), {"n": [1, 3]}, factory, out_dir)
        swept = sum(int(p.mean_queries * 1) for p in points)
        assert swept == global_counter.choices == 5


def test_replay_determinism(capfd):
    with criterion(capfd, "record/replay byte-identical report.csv", 5.0):
        from macm.harness import _report_csv_text
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="7")
                        for i in range(10)]
            script_path = tmp / "script.json"
            script_path.write_text(json.dumps(
                {"roles": {"solver": [{"reply": "Answer: 7"}]}}))
            cassettes = tmp / "cassettes"

            rec_factory = make_backend_factory(
                f"scripted:{script_path}", QueryCounter(), record_dir=cassettes)
            recorded = run_benchmark(problems, MethodIO(), rec_factory, tmp / "rec")

            replay_factory = make_backend_factory(f"replay:{cassettes}", QueryCounter())
            replayed = run_benchmark(problems, MethodIO(), replay_factory, tmp / "rep")

            assert _report_csv_text(recorded).encode() == \
                _report_csv_text(replayed).encode()


def test_parser_contracts(capfd):
    with criterion(capfd, "parser contracts (verdict, mining, answer extraction)", 1.0):
        assert parse_verdict("True") == Verdict(True)
        assert parse_verdict("False.") == Verdict(False)
        with pytest.raises(ParseFailure):
            parse_verdict("Probably")

        line_a = "Based on known condition 2, we can get: f(9) = f(3) + 2"
        line_b = "Based on known condition 1, we can get: Both primes are odd"
        assert parse_candidates(line_a) == ["f(9) = f(3) + 2"]
        assert parse_candidates(line_b) == ["Both primes are odd"]
        assert parse_candidates(line_a + "\n" + line_b) == \
            ["f(9) = f(3) + 2", "Both primes are odd"]

        assert extract_answer("Computing... Answer: -102") == "-102"
        assert extract_answer("Answer: 24") == "24"
