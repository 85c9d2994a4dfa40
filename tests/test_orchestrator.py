import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from macm.agents import MAX_CANDIDATES, parse_verdict
from macm.backend import (
    ChatMessage,
    ChatRequest,
    ChatResponse,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    ScriptEntry,
    call_fields,
)
from macm.baselines import MethodCoT, MethodIO, MethodMACM, MethodSCCoT
from macm.demo import algebra_problem, algebra_trace_path
from macm.domain import (
    ERROR_KINDS,
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
    DuplicateDropped,
    Final,
    ObjectiveSet,
    Problem,
    RunError,
    SamplingParams,
    Solved,
    SufficiencyVerdict,
    Transcript,
    Unsolvable,
)
from macm.errors import (
    SOLVE_ERRORS,
    BackendFailure,
    BudgetExceeded,
    CorruptTranscript,
    ParseFailure,
)
from macm.harness import _PrefixBackend, read_transcript, solve_one, write_transcript
from macm.prompts import PromptCatalog

from conftest import extraction_reply, mining_reply, random_script, run_macm, scripted


def accepted_mined(transcript):
    return [e for e in transcript.events
            if isinstance(e, ConditionAccepted) and e.round is not None]


def discarded(transcript):
    return [e for e in transcript.events if isinstance(e, ConditionDiscarded)]


def without_timestamps(events):
    return [dataclasses.replace(e, timestamp=0.0) if isinstance(e, AgentCall) else e
            for e in events]


class TestAlgebraTraceReplay:
    def test_full_trace(self):
        backend = ScriptedBackend.from_file(algebra_trace_path())
        outcome, transcript = run_macm(algebra_problem(), MethodMACM(), backend)
        assert outcome == Solved("-102")
        assert len(discarded(transcript)) == 1
        assert discarded(transcript)[0].text == "x^2 + 5x + α = k(x + 11)(x - 4)"
        assert len(accepted_mined(transcript)) == 2
        rounds = [e.round for e in accepted_mined(transcript)]
        assert rounds == [2, 2]

    def test_rejected_condition_never_reappears_in_prompts(self):
        backend = ScriptedBackend.from_file(algebra_trace_path())
        _, transcript = run_macm(algebra_problem(), MethodMACM(), backend)
        discard_index = next(i for i, e in enumerate(transcript.events)
                             if isinstance(e, ConditionDiscarded))
        bad = "x^2 + 5x + α = k(x + 11)(x - 4)"
        for event in transcript.events[discard_index + 1:]:
            if isinstance(event, AgentCall):
                assert bad not in event.prompt


class TestTermination:
    def test_unsolvable_after_five_rounds(self, toy_problem, fast_macm):
        backend = scripted(
            thinker=[extraction_reply(["c0"], "obj")]
            + [mining_reply([f"c{r}"]) for r in range(1, 6)],
            judge=["True", "False"] * 5)
        outcome, transcript = run_macm(toy_problem, fast_macm, backend)
        assert outcome == Unsolvable(5)
        mining_rounds = {e.round for e in transcript.events
                         if isinstance(e, (ConditionAccepted, ConditionDiscarded, DuplicateDropped))
                         and e.round is not None}
        assert mining_rounds == {1, 2, 3, 4, 5}
        sufficiency = [e for e in transcript.events if isinstance(e, SufficiencyVerdict)]
        assert len(sufficiency) == 5
        assert not any(v.value for v in sufficiency)

    def test_max_iterations_one(self, toy_problem):
        method = MethodMACM(max_iterations=1, format_retries=0)
        backend = scripted(thinker=[extraction_reply(["c0"], "obj"), mining_reply(["c1"])],
                           judge=["True", "False"])
        outcome, _ = run_macm(toy_problem, method, backend)
        assert outcome == Unsolvable(1)


# Each way a scripted or replay backend cannot answer, and its BackendFailure's message.
BACKEND_FAILURES = {
    "ScriptExhausted": "^no scripted reply left for role ",
    "ScriptMismatch": "expected substring 'absent' not found in prompt$",
    "CassetteExhausted": "cassette.jsonl records only 0 calls$",
    "CassetteMismatch": "cassette.jsonl, call 1: prompt differs from the recording$",
}


def failing_backend(failure, role, tmp_path):
    """A scripted or replay backend whose first call for ``role`` fails as
    ``failure``, a key of BACKEND_FAILURES, says."""
    if failure == "ScriptExhausted":
        return scripted()
    if failure == "ScriptMismatch":
        return scripted(**{role: [ScriptEntry("x", expect_substring="absent")]})
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(scripted(**{role: ["x"]}), cassette)
    if failure == "CassetteMismatch":
        recording.complete(ChatRequest((ChatMessage("user", "another prompt"),),
                                       SamplingParams()), role)
    return ReplayBackend(cassette)


class SubclassOfBackendFailure(BackendFailure):
    """A backend's own error class: a run it ends is named by the kind it subclasses."""


class TestErrorPropagation:
    def test_judge_off_vocabulary_aborts(self, toy_problem):
        method = MethodMACM(format_retries=0)
        backend = scripted(thinker=[extraction_reply(["c0"], "obj"), mining_reply(["c1"])],
                           judge=["Maybe"])
        outcome, transcript = run_macm(toy_problem, method, backend)
        assert isinstance(outcome, RunError)
        assert outcome.kind == "ParseFailure"
        assert transcript.is_final
        # Partial transcript intact: the failed judging call is recorded.
        assert transcript.agent_calls()[-1].role == "judge"

    @pytest.mark.parametrize("failure", list(BACKEND_FAILURES))
    def test_backend_errors_end_as_backend_failure(self, failure, toy_problem, fast_macm,
                                                   tmp_path):
        message = BACKEND_FAILURES[failure]
        with pytest.raises(BackendFailure, match=message):
            failing_backend(failure, "solver", tmp_path / "a").complete(
                ChatRequest((ChatMessage("user", "q"),), SamplingParams()), "solver")

        outcome, transcript = run_macm(toy_problem, fast_macm,
                                       failing_backend(failure, "thinker", tmp_path / "b"))
        assert isinstance(outcome, RunError) and outcome.kind == "BackendFailure"
        assert re.search(message, outcome.detail)
        assert transcript.is_final

        transcript = solve_one(toy_problem, MethodIO(),
                               lambda pid: failing_backend(failure, "solver", tmp_path / "c"))
        assert isinstance(transcript.outcome, RunError)
        assert transcript.outcome.kind == "BackendFailure"
        assert re.search(message, transcript.outcome.detail)

    @pytest.mark.parametrize("error, kind", [
        (ParseFailure, "ParseFailure"), (BackendFailure, "BackendFailure"),
        (BudgetExceeded, "BudgetExceeded"), (SubclassOfBackendFailure, "BackendFailure"),
        (OSError, "BackendFailure")], ids=lambda v: getattr(v, "__name__", v))
    def test_run_error_of_names_the_error_kind(self, error, kind):
        assert [cls.__name__ for cls in SOLVE_ERRORS] == list(ERROR_KINDS)
        assert RunError.of(error("detail")) == RunError(kind, "detail")

    @pytest.mark.parametrize("error", [RuntimeError, KeyError, TypeError])
    def test_run_error_of_a_bug_is_an_internal_error(self, error):
        assert RunError.of(error("detail")) == RunError(
            "InternalError", f"{error.__name__}: {error('detail')}")

    def test_bug_in_a_backend_ends_the_run_with_its_transcript(self, toy_problem, fast_macm):
        class Buggy:
            """Answers the extraction, then fails at the second call."""

            def __init__(self):
                self.inner = scripted(thinker=[extraction_reply(["c"], "obj")])

            def complete(self, request, role):
                if self.inner.counter.requests:
                    raise ZeroDivisionError("division by zero")
                return self.inner.complete(request, role)

        outcome, transcript = run_macm(toy_problem, fast_macm, Buggy())
        assert outcome == RunError("InternalError", "ZeroDivisionError: division by zero")
        assert transcript.query_count() == 1 and transcript.outcome == outcome
        assert ObjectiveSet("obj") in transcript.events

    def test_query_budget(self, toy_problem):
        method = MethodMACM(format_retries=0, query_budget=2)
        backend = scripted(
            thinker=[extraction_reply(["c0"], "obj"), mining_reply(["c1"])],
            judge=["True", "True"])
        outcome, transcript = run_macm(toy_problem, method, backend)
        assert isinstance(outcome, RunError)
        assert outcome.kind == "BudgetExceeded"
        assert transcript.query_count() == 2


class TestDedupAndRejudge:
    def test_duplicate_accepted_condition_not_judged_again(self, toy_problem, fast_macm):
        outcome, transcript = run_macm(toy_problem, fast_macm, duplicate_script())
        assert outcome == Solved("done")
        dups = [e for e in transcript.events if isinstance(e, DuplicateDropped)]
        assert len(dups) == 1 and dups[0].text == "x = 1"
        # x = 1 accepted exactly once
        texts = [e.text for e in accepted_mined(transcript)]
        assert texts == ["x = 1", "y = 2"]

    def test_discarded_condition_is_rejudged_on_reproposal(self, toy_problem, fast_macm):
        backend = scripted(
            thinker=[extraction_reply(["c0"], "obj"),
                     mining_reply(["z = 9"]),
                     mining_reply(["z = 9"]),
                     "1. go"],
            judge=["False", "False",   # round 1: reject, insufficient
                   "True", "True"],    # round 2: same text accepted, sufficient
            executor=["Answer: ok"])
        outcome, transcript = run_macm(toy_problem, fast_macm, backend)
        assert outcome == Solved("ok")
        judged = [(type(e), e.round) for e in transcript.events
                  if isinstance(e, (ConditionAccepted, ConditionDiscarded)) and e.text == "z = 9"]
        assert judged == [(ConditionDiscarded, 1), (ConditionAccepted, 2)]


class TestOrderInsensitivity:
    def test_permuting_candidates_keeps_accepted_set(self, toy_problem, fast_macm):
        # Judge verdict is a function of candidate text: "good-*" -> True.
        def run(order):
            verdicts = ["True" if t.startswith("good") else "False" for t in order]
            backend = scripted(
                thinker=[extraction_reply(["c0"], "obj"), mining_reply(list(order)), "1. go"],
                judge=verdicts + ["True"],
                executor=["Answer: fin"])
            outcome, transcript = run_macm(toy_problem, fast_macm, backend)
            assert outcome == Solved("fin")
            return {e.text for e in accepted_mined(transcript)}

        a = run(["good-1", "bad-1", "good-2"])
        b = run(["good-2", "good-1", "bad-1"])
        assert a == b == {"good-1", "good-2"}


class TestGateSoundnessFuzz:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_scripts(self, seed, toy_problem, fast_macm):
        backend, expected = random_script(seed)
        outcome, transcript = run_macm(toy_problem, fast_macm, backend)
        if expected["solved"]:
            assert outcome == Solved(f"answer-{seed}")
        else:
            assert outcome == Unsolvable(5)

        # Every judged condition directly follows the Judge's call on it,
        # and that call's reply is its verdict.
        for call, event in zip(transcript.events, transcript.events[1:]):
            if isinstance(event, (ConditionAccepted, ConditionDiscarded)) \
                    and event.round is not None:
                assert call.role == "judge" and event.text in call.prompt
                assert parse_verdict(call.raw_response).value \
                    is isinstance(event, ConditionAccepted)

        # Discarded texts never appear in later prompts.
        discard_points = [(i, e.text) for i, e in enumerate(transcript.events)
                          if isinstance(e, ConditionDiscarded)]
        for index, text in discard_points:
            for event in transcript.events[index + 1:]:
                if isinstance(event, AgentCall):
                    assert text not in event.prompt

        # Call budget: extract + per round (mine + judgments + sufficiency) + plan + execute.
        cap = MAX_CANDIDATES
        budget = 1 + expected["rounds"] * (cap + 2) + 2
        assert transcript.query_count() <= budget


def duplicate_script():
    return scripted(
        thinker=[extraction_reply(["c0"], "obj"),
                 mining_reply(["x = 1"]),
                 mining_reply(["x = 1", "y = 2"]),
                 "1. combine\n2. finish"],
        judge=["True", "False",  # round 1: accept x=1, insufficient
               "True", "True"],  # round 2: only y=2 judged, then sufficient
        executor=["Answer: done"])


def two_round_script(counter=None):
    return scripted(
        thinker=[extraction_reply(["c0"], "obj"),
                 mining_reply(["m1"]),
                 mining_reply(["m2"]),
                 "1. combine\n2. compute"],
        judge=["True", "False", "True", "True"],
        executor=["Answer: 99"],
        counter=counter)


def format_retry_script():
    """The two-round run, its Judge replying malformed once before its first verdict."""
    return scripted(
        thinker=[extraction_reply(["c0"], "obj"),
                 mining_reply(["m1"]),
                 mining_reply(["m2"]),
                 "1. combine\n2. compute"],
        judge=["Maybe", "True", "False", "True", "True"],
        executor=["Answer: 99"])


# The baseline runs the resume tests cut, by name: a method and the solver's
# scripted replies, enough for several calls.
BASELINE_RUNS = {
    "io": (MethodIO(), ["Answer: 4"]),
    "io-n3": (MethodIO(n=3), ["Answer: 4", "Answer: 4"]),
    "cot": (MethodCoT(l=3), ["First, 2 + 2.", "That is 4.", "Answer: 4"]),
    "sc-cot": (MethodSCCoT(l=2, v=2),
               ["2 + 2 is 4.", "Answer: 4", "Answer: 4", "4"]),
}


def scripted_run(run):
    """The problem, the method and a function making new scripted backends of one
    named or random scripted run."""
    method = MethodMACM(format_retries=0)
    problem = Problem(id="toy-1", question="Compute 1+1.")
    if run == "algebra":
        problem, method = algebra_problem(), MethodMACM()
        build = lambda: ScriptedBackend.from_file(algebra_trace_path())  # noqa: E731
    elif run in BASELINE_RUNS:
        problem = Problem(id="sum-1", question="What is 2 + 2?")
        method, replies = BASELINE_RUNS[run]
        build = lambda: scripted(solver=replies)  # noqa: E731
    elif run == "two-round":
        build = two_round_script
    elif run == "duplicate":
        build = duplicate_script
    elif run == "format-retry":
        build, method = format_retry_script, MethodMACM(format_retries=1)
    else:
        build = lambda: random_script(run)[0]  # noqa: E731
    return problem, method, build


def recorded_run(run, tmp_path):
    """Run one named or random scripted run through solve_one; returns its
    problem, method, transcript and the path it was written to."""
    problem, method, build = scripted_run(run)
    full = solve_one(problem, method, lambda _: build())
    path = tmp_path / "run.jsonl"
    write_transcript(full, path)
    return problem, method, full, path


class NeverCalled:
    """A continuation backend that fails the test if it is asked anything."""

    def complete(self, request, role):
        pytest.fail("the continuation backend was called")


class FailAt:
    """Passes each request to ``inner``, but raises ``error`` for request k
    (from 0) instead."""

    def __init__(self, inner, k, error):
        self.inner, self.k, self.error, self.requests = inner, k, error, 0

    def complete(self, request, role):
        k, self.requests = self.requests, self.requests + 1
        if k == self.k:
            raise self.error
        return self.inner.complete(request, role)


class TestEveryMethodEndsOneWay:
    @settings(max_examples=40, deadline=None)
    @given(run=st.one_of(st.integers(0, 499),
                         st.sampled_from(["two-round", "algebra", "format-retry",
                                          *BASELINE_RUNS])),
           error=st.sampled_from([BackendFailure, RuntimeError]), at=st.integers(0, 99))
    @example(run="io", error=BackendFailure, at=0)
    @example(run="io-n3", error=RuntimeError, at=1)
    @example(run="cot", error=BackendFailure, at=2)
    @example(run="sc-cot", error=RuntimeError, at=4)
    @example(run="two-round", error=BackendFailure, at=8)
    def test_a_request_that_raises_ends_the_run_in_one_run_error(self, run, error, at):
        """A backend that raises at request k: the run keeps the clean run's
        events before its k-th call and ends in one Final, the error's RunError."""
        problem, method, build = scripted_run(run)
        clean = solve_one(problem, method, lambda _: build())
        calls = [i for i, e in enumerate(clean.events) if isinstance(e, AgentCall)]
        k = at % len(calls)
        failed = solve_one(problem, method, lambda _: FailAt(build(), k, error("injected")))
        assert without_timestamps(failed.events[:-1]) == \
            without_timestamps(clean.events[:calls[k]])
        assert [e for e in failed.events if isinstance(e, Final)] == [failed.events[-1]]
        assert failed.outcome == (RunError("BackendFailure", "injected") if error is BackendFailure
                                  else RunError("InternalError", "RuntimeError: injected"))


class TestResume:
    def _record_full_run(self, tmp_path, problem, method):
        outcome, transcript = run_macm(problem, method, two_round_script())
        assert outcome == Solved("99")
        path = tmp_path / "run.jsonl"
        write_transcript(transcript, path)
        return path, transcript

    def test_resume_after_round_one_sufficiency(self, tmp_path, toy_problem, fast_macm):
        recording, full = self._record_full_run(tmp_path, toy_problem, fast_macm)
        cut = next(i for i, e in enumerate(full.events)
                   if isinstance(e, SufficiencyVerdict) and e.round == 1)
        partial = Transcript(full.run_id)
        partial.events = list(full.events[: cut + 1])
        calls_done = partial.query_count()

        resumed = solve_one(toy_problem, fast_macm,
                            lambda _: ReplayBackend(recording, skip_calls=calls_done),
                            prefix=partial)
        assert resumed.outcome == full.outcome
        assert resumed.query_count() == full.query_count()
        assert accepted_mined(resumed) == accepted_mined(full)

    def test_resume_mid_judging(self, tmp_path, toy_problem, fast_macm):
        recording, full = self._record_full_run(tmp_path, toy_problem, fast_macm)
        # Cut between the round-2 candidate's judge call and its verdict.
        round_one = next(i for i, e in enumerate(full.events)
                         if isinstance(e, SufficiencyVerdict) and e.round == 1)
        cut = next(i for i, e in enumerate(full.events)
                   if i > round_one and isinstance(e, AgentCall) and e.role == "judge")
        assert isinstance(full.events[cut + 1], ConditionAccepted)
        partial = Transcript(full.run_id)
        partial.events = list(full.events[: cut + 1])
        resumed = solve_one(
            toy_problem, fast_macm,
            lambda _: ReplayBackend(recording, skip_calls=partial.query_count()), prefix=partial)
        assert resumed.outcome == full.outcome

    def _resume_matches(self, run, tmp_path, cuts=None):
        problem, method, full, recording = recorded_run(run, tmp_path)
        for cut in range(len(full.events)) if cuts is None else cuts(full.events):
            partial = Transcript("the-cut-run")
            partial.events = full.events[:cut]
            kept = list(partial.events)
            resumed = solve_one(
                problem, method,
                lambda _: ReplayBackend(recording, skip_calls=partial.query_count()),
                prefix=partial)
            assert resumed.outcome == full.outcome
            assert resumed.query_count() == full.query_count()
            assert without_timestamps(resumed.events) == without_timestamps(full.events)
            assert resumed.events[:cut] == kept
            assert resumed.run_id == "the-cut-run"

    @settings(max_examples=30, deadline=None)
    @given(run=st.one_of(st.integers(0, 499),
                         st.sampled_from(["two-round", "duplicate", "algebra", "format-retry",
                                          *BASELINE_RUNS])))
    @example(run="two-round")
    @example(run="duplicate")
    @example(run="algebra")
    @example(run="format-retry")
    @example(run="io")
    @example(run="io-n3")
    @example(run="cot")
    @example(run="sc-cot")
    def test_resume_from_every_cut_matches_uninterrupted_run(self, run, tmp_path_factory):
        """Cut a recorded run after every event; resuming the prefix replays
        to the same run."""
        self._resume_matches(run, tmp_path_factory.mktemp("resume"))

    def test_resume_right_after_the_round_two_mine_call(self, tmp_path):
        def cuts(events):
            mines = [i for i, e in enumerate(events) if isinstance(e, AgentCall)
                     and e.role == "thinker" and "Derive new conditions" in e.prompt]
            assert isinstance(events[mines[1] + 1], AgentCall)
            assert events[mines[1] + 1].role == "judge"
            return [mines[1] + 1]

        self._resume_matches("two-round", tmp_path, cuts)

    def test_resume_between_a_malformed_reply_and_its_retry(self, tmp_path):
        def cuts(events):
            malformed = next(i for i, e in enumerate(events)
                             if isinstance(e, AgentCall) and e.raw_response == "Maybe")
            assert isinstance(events[malformed + 1], AgentCall)
            return [malformed + 1]

        self._resume_matches("format-retry", tmp_path, cuts)

    def test_resume_golden_file_with_a_misfiled_round_is_corrupt(self, tmp_path):
        golden = Path(__file__).parent / "data" / "algebra_transcript.jsonl"
        path = tmp_path / "misfiled.jsonl"
        # The first "round": 2} is the first mined condition_accepted line's.
        path.write_bytes(golden.read_bytes().replace(b'"round": 2}', b'"round": 3}', 1))
        transcript = read_transcript(path)
        assert transcript.events[11] == ConditionAccepted("(-11)^2 + 5×(-11) + α₁ = 0", 3)
        transcript.events = transcript.events[:-1]  # drop the Final, as a crash would
        with pytest.raises(CorruptTranscript,
                           match=r"event 11 of the transcript, ConditionAccepted\(.*round=3\)"):
            solve_one(algebra_problem(), MethodMACM(), lambda _: NeverCalled(),
                      prefix=transcript)

    @pytest.mark.parametrize("event", [
        DuplicateDropped("m2", 3), ConditionAccepted("m2", 1), ConditionDiscarded("m2", 3),
        SufficiencyVerdict(1, True)])
    def test_resume_event_filed_under_another_round_is_corrupt(
            self, tmp_path, toy_problem, fast_macm, event):
        recording, full = self._record_full_run(tmp_path, toy_problem, fast_macm)
        cut = next(i for i, e in enumerate(full.events)
                   if isinstance(e, SufficiencyVerdict) and e.round == 1)
        partial = Transcript(full.run_id)
        partial.events = full.events[: cut + 1] + [event]
        with pytest.raises(CorruptTranscript,
                           match=rf"event {cut + 1} of the transcript, {type(event).__name__}"):
            solve_one(toy_problem, fast_macm, lambda _: NeverCalled(),
                      prefix=partial)

    @pytest.mark.parametrize("tamper", ["edited prompt", "extra event", "extra call",
                                        "fewer rounds", "other prompts",
                                        "whitespace in a prompt"])
    def test_resume_a_transcript_the_rerun_does_not_repeat_is_corrupt(self, tamper, tmp_path):
        problem, method, full, _ = recorded_run("two-round", tmp_path)
        events = list(full.events[:-1])
        calls = [i for i, e in enumerate(events) if isinstance(e, AgentCall)]
        where = calls[2]
        if tamper == "edited prompt":
            events[where] = dataclasses.replace(events[where],
                                                prompt=events[where].prompt + " (edited)")
        elif tamper == "extra event":
            where = calls[2] + 1
            events.insert(where, ConditionAccepted("extra", 1))
        elif tamper == "extra call":
            events.insert(where, events[where])
            where += 1
        elif tamper == "whitespace in a prompt":
            # Served, since the prompt matches up to whitespace; the re-run's
            # own call differs from it all the same.
            events[where] = dataclasses.replace(events[where],
                                                prompt=events[where].prompt.replace(" ", "  "))
        elif tamper == "fewer rounds":
            method = dataclasses.replace(method, max_iterations=1)
            where = next(i for i, e in enumerate(events) if isinstance(e, SufficiencyVerdict)) + 1
        else:
            prompts = dataclasses.replace(PromptCatalog(), mine="Mine: {conditions} {objective}")
            method = dataclasses.replace(method, prompts=prompts)
            where = calls[1]
        partial = Transcript(full.run_id)
        partial.events = events
        with pytest.raises(CorruptTranscript, match=rf"^event {where} of the transcript"):
            solve_one(problem, method, lambda _: NeverCalled(), prefix=partial)

    @pytest.mark.parametrize("tamper", ["edited chain prompt", "extra call"])
    def test_resume_a_baseline_transcript_the_rerun_does_not_repeat_is_corrupt(
            self, tamper, tmp_path):
        problem, method, full, _ = recorded_run("sc-cot", tmp_path)
        events = list(full.events[:-1])
        where = 1  # the call for the second link of the first chain
        if tamper == "edited chain prompt":
            events[where] = dataclasses.replace(events[where],
                                                prompt=events[where].prompt + " (edited)")
        else:
            events.insert(where, events[where])
            where += 1
        partial = Transcript(full.run_id)
        partial.events = events
        with pytest.raises(CorruptTranscript, match=rf"^event {where} of the transcript"):
            solve_one(problem, method, lambda _: NeverCalled(), prefix=partial)

    @pytest.mark.parametrize("run", ["two-round", "algebra", *BASELINE_RUNS])
    def test_resume_cut_before_the_final_never_calls_the_factory(self, run, tmp_path):
        problem, method, full, _ = recorded_run(run, tmp_path)
        partial = Transcript(full.run_id)
        partial.events = full.events[:-1]
        asked = []

        def factory(problem_id):
            asked.append(problem_id)
            raise RuntimeError("no continuation backend")

        resumed = solve_one(problem, method, factory, prefix=partial)
        assert resumed.outcome == full.outcome
        assert without_timestamps(resumed.events) == without_timestamps(full.events)
        assert asked == []

    def test_resume_with_a_missing_continuation_recording_is_a_backend_failure(
            self, tmp_path, toy_problem, fast_macm):
        _, full = self._record_full_run(tmp_path, toy_problem, fast_macm)
        cut = next(i for i, e in enumerate(full.events)
                   if isinstance(e, SufficiencyVerdict) and e.round == 1)
        partial = Transcript(full.run_id)
        partial.events = full.events[: cut + 1]
        kept = list(partial.events)
        missing = tmp_path / "missing" / "toy-1.jsonl"
        resumed = solve_one(toy_problem, fast_macm,
                            lambda _: ReplayBackend(missing), prefix=partial)
        assert resumed.events[:-1] == kept
        assert isinstance(resumed.outcome, RunError)
        assert resumed.outcome.kind == "BackendFailure"
        assert str(missing) in resumed.outcome.detail

    def test_resume_finalized_transcript_is_corrupt(self, toy_problem, fast_macm):
        transcript = Transcript("done")
        transcript.append(Final(Solved("1")))
        with pytest.raises(CorruptTranscript):
            solve_one(toy_problem, fast_macm, lambda _: two_round_script(),
                      prefix=transcript)

    def test_resume_empty_transcript_is_fresh_solve(self, toy_problem, fast_macm):
        transcript = solve_one(toy_problem, fast_macm,
                               lambda _: two_round_script(), prefix=Transcript("fresh"))
        assert transcript.outcome == Solved("99")
        assert transcript.query_count() == 9
        assert transcript.run_id == "fresh"

    def test_resume_with_another_problem_is_corrupt(self, tmp_path):
        _, method, full, _ = recorded_run("two-round", tmp_path)
        partial = Transcript(full.run_id)
        partial.events = full.events[:-1]
        other = Problem(id="toy-1", question="Compute 2+2.")
        with pytest.raises(CorruptTranscript, match=r"^event 0 of the transcript, AgentCall"):
            solve_one(other, method, lambda _: NeverCalled(), prefix=partial)


@pytest.mark.parametrize("reader", ["replay", "resume"])
@pytest.mark.parametrize("role, prompt, n, accepted", [
    ("judge", "a  b\tc", 2, True), ("judge", "a b c", 2, True), ("judge", " a\u3000b\nc ", 2, True),
    ("thinker", "a  b\tc", 2, False), ("judge", "a  b\tc", 1, False), ("judge", "a b d", 2, False)])
def test_replay_and_resume_match_a_request_by_one_rule(reader, role, prompt, n, accepted,
                                                       tmp_path):
    """The same role, the prompt up to whitespace, and the same n."""
    recorded = ChatRequest((ChatMessage("user", "a  b\tc"),), SamplingParams(n=2))
    transcript = Transcript("t")
    response = ChatResponse(("x", "y"), 3, 1)
    transcript.append(AgentCall(**call_fields("judge", recorded, response, 0.0)))
    if reader == "replay":
        path = tmp_path / "t.jsonl"
        write_transcript(transcript, path)
        backend = ReplayBackend(path)
    else:
        backend = _PrefixBackend(transcript.events, Transcript("t"), NeverCalled)
    request = ChatRequest((ChatMessage("user", prompt),), SamplingParams(n=n))
    if accepted:
        assert backend.complete(request, role) == response
    else:
        with pytest.raises(BackendFailure, match=r", call 1: (role|prompt|n=)"):
            backend.complete(request, role)


class TestTranscriptShape:
    def test_exactly_one_final_and_it_is_last(self, toy_problem, fast_macm):
        backend, _ = random_script(7)
        _, transcript = run_macm(toy_problem, fast_macm, backend)
        finals = [e for e in transcript.events if isinstance(e, Final)]
        assert len(finals) == 1
        assert isinstance(transcript.events[-1], Final)

    def test_determinism_modulo_timestamps(self, toy_problem, fast_macm):
        def run():
            _, t = run_macm(toy_problem, fast_macm, two_round_script())
            return without_timestamps(t.events)

        assert run() == run()
