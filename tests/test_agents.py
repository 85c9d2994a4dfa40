import gc

import pytest
from hypothesis import given, strategies as st

from macm.agents import (
    AgentClient,
    MAX_CANDIDATES,
    extract_answer,
    parse_candidates,
    parse_extraction,
    parse_steps,
    parse_verdict,
)
from macm.domain import ConditionList, RunConfig, Transcript, Verdict
from macm.errors import ParseFailure
from macm.prompts import EXECUTOR_SYSTEM, JUDGE_SYSTEM, THINKER_SYSTEM, PromptCatalog

from conftest import scripted


class TestParseVerdict:
    def test_true(self):
        assert parse_verdict("True") == Verdict(True)

    def test_false_with_punctuation(self):
        assert parse_verdict("False.") == Verdict(False)

    def test_whitespace_and_newline(self):
        assert parse_verdict(" false.\n") == Verdict(False)

    def test_off_vocabulary(self):
        with pytest.raises(ParseFailure):
            parse_verdict("Probably")

    def test_bare_token_required(self):
        with pytest.raises(ParseFailure):
            parse_verdict("True, because the condition follows from 1 and 2.")

    def test_empty(self):
        with pytest.raises(ParseFailure):
            parse_verdict("")

    @given(st.booleans())
    def test_render_parse_round_trip(self, value):
        assert parse_verdict(str(value)) == Verdict(value)


class TestParseCandidates:
    def test_single_clause(self):
        got = parse_candidates("Based on known condition 2, we can get: f(9) = f(3) + 2")
        assert got == ["f(9) = f(3) + 2"]

    def test_prime_clause(self):
        got = parse_candidates("Based on known condition 1, we can get: Both primes are odd")
        assert got == ["Both primes are odd"]

    def test_two_clauses_in_line_order(self):
        reply = ("Based on known condition 2, we can get: f(9) = f(3) + 2\n"
                 "Based on known condition 1, we can get: Both primes are odd")
        got = parse_candidates(reply)
        assert got == ["f(9) = f(3) + 2", "Both primes are odd"]

    def test_cap(self):
        reply = "\n".join(f"Based on condition 1, we can get: c{i}" for i in range(12))
        assert len(parse_candidates(reply)) == MAX_CANDIDATES == 8

    def test_no_clause_raises(self):
        with pytest.raises(ParseFailure):
            parse_candidates("I think the answer involves primes.")

    def test_empty_candidate_skipped(self):
        reply = ("Based on condition 1, we can get:   \n"
                 "Based on condition 1, we can get: real content")
        assert parse_candidates(reply) == ["real content"]

    @given(st.text())
    def test_never_returns_empty_text(self, reply):
        try:
            candidates = parse_candidates(reply)
        except ParseFailure:
            return
        from macm.domain import normalize_condition_text
        assert all(normalize_condition_text(c) for c in candidates)


class TestParseExtraction:
    def test_numbered_conditions_and_objective(self):
        reply = "Conditions:\n1. AE = 5 units\n2. BE = 12 units\nObjective: distance from E to side AD"
        conditions, objective = parse_extraction(reply)
        assert conditions == ["AE = 5 units", "BE = 12 units"]
        assert objective == "distance from E to side AD"

    def test_multiline_objective(self):
        reply = "1. x > 0\nObjective:\nfind the minimum\nof f(x)"
        conditions, objective = parse_extraction(reply)
        assert conditions == ["x > 0"]
        assert objective == "find the minimum of f(x)"

    def test_missing_objective(self):
        with pytest.raises(ParseFailure):
            parse_extraction("1. a condition\n2. another")

    def test_missing_conditions(self):
        with pytest.raises(ParseFailure):
            parse_extraction("Objective: win")


class TestParseSteps:
    def test_numbered_list(self):
        steps = parse_steps("1. Solve for alpha1.\n2. Solve for alpha2.\n3. Sum them.")
        assert steps == ("Solve for alpha1.", "Solve for alpha2.", "Sum them.")

    def test_bullets(self):
        steps = parse_steps("- first\n- second")
        assert steps == ("first", "second")

    def test_paragraph_fallback_is_one_step(self):
        steps = parse_steps("Just compute the thing directly using the formula.")
        assert len(steps) == 1

    def test_empty_raises(self):
        with pytest.raises(ParseFailure):
            parse_steps("   \n ")


class TestExtractAnswer:
    def test_marker(self):
        assert extract_answer("Computing... Answer: -102") == "-102"

    def test_marker_simple(self):
        assert extract_answer("Answer: 24") == "24"

    def test_last_line_fallback(self):
        assert extract_answer("The result is\n42") == "42"

    def test_last_marker_wins(self):
        assert extract_answer("Answer: 1\nrethinking\nAnswer: 2") == "2"

    def test_empty_raises(self):
        with pytest.raises(ParseFailure):
            extract_answer("  \n ")


def make_client(backend, config=None):
    return AgentClient(backend=backend, config=config or RunConfig(format_retries=0),
                       transcript=Transcript("test"))


def known_with(texts, objective="the goal"):
    return ConditionList(objective, texts)


class TestAgentOps:
    def test_extract_square_problem(self, toy_problem):
        reply = ("Conditions:\n1. AE = 5 units\n2. BE = 12 units\n"
                 "3. ABCD is a square with side 13\n"
                 "Objective: distance from E to side AD")
        client = make_client(scripted(thinker=[reply]))
        texts, objective = client.thinker_extract(toy_problem)
        assert "AE = 5 units" in texts
        assert "BE = 12 units" in texts
        assert objective == "distance from E to side AD"

    def test_extract_retry_then_success(self, toy_problem):
        client = AgentClient(
            backend=scripted(thinker=["no structure here",
                                      "1. one plus one\nObjective: compute 1+1"]),
            config=RunConfig(format_retries=1), transcript=Transcript("t"))
        _, objective = client.thinker_extract(toy_problem)
        assert objective == "compute 1+1"
        assert client.transcript.query_count() == 2

    def test_extract_retry_exhaustion(self, toy_problem):
        client = AgentClient(
            backend=scripted(thinker=["garbled", "still garbled"]),
            config=RunConfig(format_retries=1), transcript=Transcript("t"))
        with pytest.raises(ParseFailure):
            client.thinker_extract(toy_problem)
        assert client.transcript.query_count() == 2

    def test_retry_then_success_leaves_no_cyclic_garbage(self, toy_problem):
        client = AgentClient(
            backend=scripted(thinker=["no structure here",
                                      "1. one plus one\nObjective: compute 1+1"]),
            config=RunConfig(format_retries=1), transcript=Transcript("t"))
        gc.collect()
        gc.disable()
        try:
            client.thinker_extract(toy_problem)
            # A kept ParseFailure would hold its frame through its traceback.
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_mine_requires_accepted_condition(self):
        client = make_client(scripted(thinker=["x"]))
        with pytest.raises(ValueError):
            client.thinker_mine(ConditionList("goal"))

    def test_judge_condition_fresh_conversation_with_bare_text(self):
        client = make_client(scripted(judge=["True"]))
        known = known_with(["a = 1", "b = 2"])
        verdict = client.judge_condition("c = 3", known)
        assert verdict.value
        prompt = client.transcript.agent_calls()[0].prompt
        assert "c = 3" in prompt
        assert "a = 1" in prompt and "b = 2" in prompt
        assert "Based on" not in prompt  # justification withheld from the Judge

    def test_judge_sufficiency_prompt_is_generalized_evaluate(self):
        client = make_client(scripted(judge=["False"]))
        known = known_with(["AE = 5"], objective="reach the target")
        verdict = client.judge_sufficiency(known)
        assert not verdict.value
        prompt = client.transcript.agent_calls()[0].prompt
        assert "Evaluate reach the target" in prompt
        assert "AE = 5" in prompt

    def test_executor_answer_extraction(self):
        client = make_client(scripted(executor=["work...\nAnswer: -102"]))
        known = known_with(["a"])
        assert client.executor_compute(known, ("do it",)) == "-102"


class TestPromptDiscipline:
    def test_every_prompt_starts_with_role_system_instruction(self, toy_problem):
        backend = scripted(
            thinker=["1. c1\nObjective: obj",
                     "Based on condition 1, we can get: c2",
                     "1. step one"],
            judge=["True", "True"],
            executor=["Answer: 7"])
        client = make_client(backend)
        known = known_with(*client.thinker_extract(toy_problem))
        cands = client.thinker_mine(known)
        client.judge_condition(cands[0], known)
        client.judge_sufficiency(known)
        steps = client.thinker_design_steps(known)
        client.executor_compute(known, steps)

        systems = {"thinker": THINKER_SYSTEM, "judge": JUDGE_SYSTEM,
                   "executor": EXECUTOR_SYSTEM}
        calls = client.transcript.agent_calls()
        assert len(calls) == 6
        for call in calls:
            assert call.prompt.startswith(systems[call.role])

    def test_per_role_sampling_defaults(self, toy_problem):
        captured = []

        class Spy:
            def __init__(self, inner):
                self.inner = inner
                self.counter = inner.counter

            def complete(self, request, role):
                captured.append((role, request.sampling))
                return self.inner.complete(request, role)

        backend = Spy(scripted(
            thinker=["1. c1\nObjective: obj"], judge=["True"], executor=["Answer: 1"]))
        client = make_client(backend)
        known = known_with(*client.thinker_extract(toy_problem))
        client.judge_sufficiency(known)
        client.executor_compute(known, ("s",))

        by_role = dict(captured)
        assert by_role["thinker"].max_tokens == 512
        assert by_role["judge"].max_tokens == 4
        assert by_role["executor"].max_tokens == 256
        assert all(s.temperature == 0.7 and s.n == 1
                   for _, s in captured)


class TestPromptCatalogOverride:
    def test_directory_override(self, tmp_path):
        (tmp_path / "judge_system.txt").write_text("Custom judge instruction.")
        (tmp_path / "prompt3.txt").write_text("Decide {objective} given {conditions}")
        catalog = PromptCatalog.load(tmp_path)
        assert catalog.judge_system == "Custom judge instruction."
        assert catalog.sufficiency.startswith("Decide")
        assert catalog.thinker_system == THINKER_SYSTEM

    def test_no_directory_gives_defaults(self):
        assert PromptCatalog.load(None) == PromptCatalog()
