import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from macm.agents import MAX_CANDIDATES
from macm.backend import (
    ChatMessage,
    ChatRequest,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    ScriptEntry,
)
from macm.baselines import MethodIO
from macm.demo import algebra_problem, algebra_trace_path
from macm.domain import (
    ERROR_KINDS,
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
    DuplicateDropped,
    Final,
    Problem,
    RunConfig,
    RunError,
    SamplingParams,
    Solved,
    SufficiencyVerdict,
    Transcript,
    Unsolvable,
    VerdictEvent,
)
from macm.errors import (
    SOLVE_ERRORS,
    BackendFailure,
    BudgetExceeded,
    CassetteExhausted,
    CassetteMismatch,
    CorruptTranscript,
    ParseFailure,
    ScriptExhausted,
    ScriptMismatch,
)
from macm.harness import solve_one
from macm.orchestrator import resume_from_transcript, solve

from conftest import extraction_reply, mining_reply, random_script, scripted


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
        outcome, transcript = solve(algebra_problem(), RunConfig(), backend)
        assert outcome == Solved("-102")
        assert len(discarded(transcript)) == 1
        assert discarded(transcript)[0].text == "x^2 + 5x + α = k(x + 11)(x - 4)"
        assert len(accepted_mined(transcript)) == 2
        rounds = [e.round for e in accepted_mined(transcript)]
        assert rounds == [2, 2]

    def test_rejected_condition_never_reappears_in_prompts(self):
        backend = ScriptedBackend.from_file(algebra_trace_path())
        _, transcript = solve(algebra_problem(), RunConfig(), backend)
        discard_index = next(i for i, e in enumerate(transcript.events)
                             if isinstance(e, ConditionDiscarded))
        bad = "x^2 + 5x + α = k(x + 11)(x - 4)"
        for event in transcript.events[discard_index + 1:]:
            if isinstance(event, AgentCall):
                assert bad not in event.prompt


class TestTermination:
    def test_unsolvable_after_five_rounds(self, toy_problem, fast_config):
        backend = scripted(
            thinker=[extraction_reply(["c0"], "obj")]
            + [mining_reply([f"c{r}"]) for r in range(1, 6)],
            judge=["True", "False"] * 5)
        outcome, transcript = solve(toy_problem, fast_config, backend)
        assert outcome == Unsolvable(5)
        mining_rounds = {e.round for e in transcript.events
                         if type(e).__name__ == "ConditionProposed"}
        assert mining_rounds == {1, 2, 3, 4, 5}
        sufficiency = [e for e in transcript.events if isinstance(e, SufficiencyVerdict)]
        assert len(sufficiency) == 5
        assert not any(v.value for v in sufficiency)

    def test_max_iterations_one(self, toy_problem):
        config = RunConfig(max_iterations=1, format_retries=0)
        backend = scripted(thinker=[extraction_reply(["c0"], "obj"), mining_reply(["c1"])],
                           judge=["True", "False"])
        outcome, _ = solve(toy_problem, config, backend)
        assert outcome == Unsolvable(1)


def failing_backend(error, role, tmp_path):
    """A scripted or replay backend whose first call for ``role`` raises ``error``."""
    if error is ScriptExhausted:
        return scripted()
    if error is ScriptMismatch:
        return scripted(**{role: [ScriptEntry("x", expect_substring="absent")]})
    cassette = tmp_path / "cassette.jsonl"
    recording = RecordingBackend(scripted(**{role: ["x"]}), cassette)
    if error is CassetteMismatch:
        recording.complete(ChatRequest((ChatMessage("user", "another prompt"),),
                                       SamplingParams()), role)
    return ReplayBackend(cassette)


class TestErrorPropagation:
    def test_judge_off_vocabulary_aborts(self, toy_problem):
        config = RunConfig(format_retries=0)
        backend = scripted(thinker=[extraction_reply(["c0"], "obj"), mining_reply(["c1"])],
                           judge=["Maybe"])
        outcome, transcript = solve(toy_problem, config, backend)
        assert isinstance(outcome, RunError)
        assert outcome.kind == "ParseFailure"
        assert transcript.is_final
        # Partial transcript intact: the failed judging call is recorded.
        assert transcript.agent_calls()[-1].role == "judge"

    @pytest.mark.parametrize(
        "error", [ScriptExhausted, ScriptMismatch, CassetteExhausted, CassetteMismatch],
        ids=lambda error: error.__name__)
    def test_backend_errors_end_as_backend_failure(self, error, toy_problem, fast_config,
                                                   tmp_path):
        assert issubclass(error, BackendFailure)
        with pytest.raises(error):
            failing_backend(error, "solver", tmp_path / "a").complete(
                ChatRequest((ChatMessage("user", "q"),), SamplingParams()), "solver")

        outcome, transcript = solve(toy_problem, fast_config,
                                    failing_backend(error, "thinker", tmp_path / "b"))
        assert isinstance(outcome, RunError) and outcome.kind == "BackendFailure"
        assert transcript.is_final

        transcript = solve_one(toy_problem, MethodIO(),
                               lambda pid: failing_backend(error, "solver", tmp_path / "c"))
        assert isinstance(transcript.outcome, RunError)
        assert transcript.outcome.kind == "BackendFailure"

    @pytest.mark.parametrize("error, kind", [
        (ParseFailure, "ParseFailure"), (BackendFailure, "BackendFailure"),
        (BudgetExceeded, "BudgetExceeded"), (CassetteMismatch, "BackendFailure"),
        (OSError, "BackendFailure")], ids=lambda v: getattr(v, "__name__", v))
    def test_run_error_of_names_the_error_kind(self, error, kind):
        assert [cls.__name__ for cls in SOLVE_ERRORS] == list(ERROR_KINDS)
        assert RunError.of(error("detail")) == RunError(kind, "detail")

    def test_query_budget(self, toy_problem):
        config = RunConfig(format_retries=0, query_budget=2)
        backend = scripted(
            thinker=[extraction_reply(["c0"], "obj"), mining_reply(["c1"])],
            judge=["True", "True"])
        outcome, transcript = solve(toy_problem, config, backend)
        assert isinstance(outcome, RunError)
        assert outcome.kind == "BudgetExceeded"
        assert transcript.query_count() == 2


class TestDedupAndRejudge:
    def test_duplicate_accepted_condition_not_judged_again(self, toy_problem, fast_config):
        outcome, transcript = solve(toy_problem, fast_config, duplicate_script())
        assert outcome == Solved("done")
        dups = [e for e in transcript.events if isinstance(e, DuplicateDropped)]
        assert len(dups) == 1 and dups[0].text == "x = 1"
        # x = 1 accepted exactly once
        texts = [e.text for e in accepted_mined(transcript)]
        assert texts == ["x = 1", "y = 2"]

    def test_discarded_condition_is_rejudged_on_reproposal(self, toy_problem, fast_config):
        backend = scripted(
            thinker=[extraction_reply(["c0"], "obj"),
                     mining_reply(["z = 9"]),
                     mining_reply(["z = 9"]),
                     "1. go"],
            judge=["False", "False",   # round 1: reject, insufficient
                   "True", "True"],    # round 2: same text accepted, sufficient
            executor=["Answer: ok"])
        outcome, transcript = solve(toy_problem, fast_config, backend)
        assert outcome == Solved("ok")
        verdicts = [e for e in transcript.events
                    if isinstance(e, VerdictEvent) and e.subject == "condition: z = 9"]
        assert [v.value for v in verdicts] == [False, True]


class TestOrderInsensitivity:
    def test_permuting_candidates_keeps_accepted_set(self, toy_problem, fast_config):
        # Judge verdict is a function of candidate text: "good-*" -> True.
        def run(order):
            verdicts = ["True" if t.startswith("good") else "False" for t in order]
            backend = scripted(
                thinker=[extraction_reply(["c0"], "obj"), mining_reply(list(order)), "1. go"],
                judge=verdicts + ["True"],
                executor=["Answer: fin"])
            outcome, transcript = solve(toy_problem, fast_config, backend)
            assert outcome == Solved("fin")
            return {e.text for e in accepted_mined(transcript)}

        a = run(["good-1", "bad-1", "good-2"])
        b = run(["good-2", "good-1", "bad-1"])
        assert a == b == {"good-1", "good-2"}


class TestGateSoundnessFuzz:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_scripts(self, seed, toy_problem, fast_config):
        backend, expected = random_script(seed)
        outcome, transcript = solve(toy_problem, fast_config, backend)
        if expected["solved"]:
            assert outcome == Solved(f"answer-{seed}")
        else:
            assert outcome == Unsolvable(5)

        # Every accepted mined condition has a preceding True verdict.
        seen_true: set[str] = set()
        for event in transcript.events:
            if isinstance(event, VerdictEvent) and event.value \
                    and event.subject.startswith("condition: "):
                seen_true.add(event.subject[len("condition: "):])
            if isinstance(event, ConditionAccepted) and event.round is not None:
                assert event.text in seen_true

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


class TestResume:
    def _record_full_run(self, tmp_path, problem, config):
        cassette = tmp_path / "run.jsonl"
        backend = RecordingBackend(two_round_script(), cassette)
        outcome, transcript = solve(problem, config, backend)
        assert outcome == Solved("99")
        return cassette, transcript

    def test_resume_after_round_one_sufficiency(self, tmp_path, toy_problem, fast_config):
        cassette, full = self._record_full_run(tmp_path, toy_problem, fast_config)
        cut = next(i for i, e in enumerate(full.events)
                   if isinstance(e, SufficiencyVerdict) and e.round == 1)
        partial = Transcript(full.run_id)
        partial.events = list(full.events[: cut + 1])
        calls_done = partial.query_count()

        outcome, resumed = resume_from_transcript(
            partial, ReplayBackend(cassette, skip_calls=calls_done), config=fast_config)
        assert outcome == full.outcome
        assert resumed.query_count() == full.query_count()
        assert accepted_mined(resumed) == accepted_mined(full)

    def test_resume_mid_judging(self, tmp_path, toy_problem, fast_config):
        cassette, full = self._record_full_run(tmp_path, toy_problem, fast_config)
        # Cut right after the round-2 candidate was proposed but before judging.
        cut = max(i for i, e in enumerate(full.events)
                  if type(e).__name__ == "ConditionProposed" and e.round == 2)
        partial = Transcript(full.run_id)
        partial.events = list(full.events[: cut + 1])
        outcome, resumed = resume_from_transcript(
            partial, ReplayBackend(cassette, skip_calls=partial.query_count()),
            config=fast_config)
        assert outcome == full.outcome

    @settings(max_examples=30, deadline=None)
    @given(run=st.one_of(st.integers(0, 499),
                         st.sampled_from(["two-round", "duplicate", "algebra"])))
    @example(run="two-round")
    @example(run="duplicate")
    @example(run="algebra")
    def test_resume_from_every_cut_matches_uninterrupted_run(self, run, tmp_path_factory):
        """Cut a recorded run after every state event that the next agent call
        (or Final) follows; resuming the prefix replays to the same run."""
        if run == "algebra":
            problem, config = algebra_problem(), RunConfig()
            backend = ScriptedBackend.from_file(algebra_trace_path())
        else:
            problem, config = Problem(id="toy-1", question="Compute 1+1."), \
                RunConfig(format_retries=0)
            if run == "two-round":
                backend = two_round_script()
            elif run == "duplicate":
                backend = duplicate_script()
            else:
                backend, _ = random_script(run)
        cassette = tmp_path_factory.mktemp("resume") / "run.jsonl"
        outcome, full = solve(problem, config, RecordingBackend(backend, cassette))
        cuts = [i + 1 for i in range(len(full.events) - 1)
                if not isinstance(full.events[i], AgentCall)
                and isinstance(full.events[i + 1], (AgentCall, Final))]
        assert cuts
        for cut in cuts:
            partial = Transcript(full.run_id)
            partial.events = full.events[:cut]
            resumed_outcome, resumed = resume_from_transcript(
                partial, ReplayBackend(cassette, skip_calls=partial.query_count()), config=config)
            assert resumed_outcome == outcome
            assert resumed.query_count() == full.query_count()
            assert without_timestamps(resumed.events) == without_timestamps(full.events)

    def test_resume_finalized_transcript_is_corrupt(self, toy_problem, fast_config):
        transcript = Transcript("done")
        transcript.append(Final(Solved("1")))
        with pytest.raises(CorruptTranscript):
            resume_from_transcript(transcript, two_round_script(), config=fast_config)

    def test_resume_empty_transcript_is_fresh_solve(self, toy_problem, fast_config):
        outcome, transcript = resume_from_transcript(
            Transcript("fresh"), two_round_script(), problem=toy_problem,
            config=fast_config)
        assert outcome == Solved("99")
        assert transcript.query_count() == 9

    def test_resume_empty_without_problem_is_corrupt(self, fast_config):
        with pytest.raises(CorruptTranscript):
            resume_from_transcript(Transcript("fresh"), two_round_script(),
                                   config=fast_config)


class TestTranscriptShape:
    def test_exactly_one_final_and_it_is_last(self, toy_problem, fast_config):
        backend, _ = random_script(7)
        _, transcript = solve(toy_problem, fast_config, backend)
        finals = [e for e in transcript.events if isinstance(e, Final)]
        assert len(finals) == 1
        assert isinstance(transcript.events[-1], Final)

    def test_determinism_modulo_timestamps(self, toy_problem, fast_config):
        def run():
            _, t = solve(toy_problem, fast_config, two_round_script(), run_id="fixed")
            return without_timestamps(t.events)

        assert run() == run()
