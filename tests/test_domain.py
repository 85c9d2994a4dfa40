import dataclasses
import json
import re
import sys
import unicodedata

import pytest
from hypothesis import given, strategies as st

from macm.agents import EXECUTOR, JUDGE, MAX_TOKENS, THINKER
from macm.baselines import MethodMACM
from macm.domain import (
    ERROR_KINDS,
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
    ConditionList,
    DuplicateDropped,
    Event,
    Final,
    ObjectiveSet,
    PlanDesigned,
    Problem,
    RunError,
    SamplingParams,
    Solved,
    SufficiencyVerdict,
    Transcript,
    Unsolvable,
    event_from_dict,
    event_to_dict,
    normalize_condition_text,
)
from conftest import extraction_reply, mining_reply, run_macm, scripted


class TestNormalizeConditionText:
    def test_trims_surrounding_whitespace(self):
        assert normalize_condition_text("  f(9) = f(3) + 2 ") == "f(9) = f(3) + 2"

    def test_collapses_internal_runs(self):
        assert normalize_condition_text("Both  primes are odd") == "Both primes are odd"

    def test_identity(self):
        assert normalize_condition_text("x") == "x"

    def test_case_preserved(self):
        assert normalize_condition_text("X != x") == "X != x"

    @given(st.text())
    def test_idempotent(self, text):
        once = normalize_condition_text(text)
        assert normalize_condition_text(once) == once

    @given(st.text())
    def test_no_double_spaces(self, text):
        normalized = normalize_condition_text(text)
        assert "  " not in normalized
        assert normalized == normalized.strip()


# Every code point str.isspace() accepts, and pieces NFC composes (e + acute,
# the Angstrom sign), mixed with arbitrary text.
_SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]
_MIXED_TEXT = st.text(alphabet=st.one_of(
    st.sampled_from(_SPACES + ["e", "\u0301", "\u212b", "x"]), st.characters()))


def regex_normalize(text: str) -> str:
    """The regex form of the normaliser, kept as the oracle."""
    return re.sub(r"\s+", " ", unicodedata.normalize("NFC", text)).strip()


class TestNormalizeMatchesRegexOracle:
    def test_whitespace_table(self):
        for space in _SPACES:
            text = f"{space}a{space}{space}b{space}"
            assert normalize_condition_text(text) == regex_normalize(text) == "a b"

    @given(_MIXED_TEXT)
    def test_equals_oracle(self, text):
        assert normalize_condition_text(text) == regex_normalize(text)


class TestConditionInvariants:
    """The checks a transcript's condition events make on their fields."""

    def test_initial_cannot_be_discarded(self):
        with pytest.raises(ValueError):
            ConditionDiscarded("x", None)

    def test_empty_text_rejected(self):
        for make in (ObjectiveSet, ConditionAccepted, lambda t: ConditionDiscarded(t, 1),
                     lambda t: DuplicateDropped(t, 1), lambda t: PlanDesigned(("a", t))):
            for text in ("", "   ", "\n\t"):
                with pytest.raises(ValueError):
                    make(text)
        with pytest.raises(ValueError):
            PlanDesigned(())

    def test_round_must_be_positive(self):
        for make in (ConditionAccepted, ConditionDiscarded, DuplicateDropped,
                     lambda text, rnd: SufficiencyVerdict(rnd, True)):
            for bad in (0, -1, True, "2", 1.0):
                with pytest.raises(ValueError):
                    make("x", bad)

    def test_sufficiency_verdict_must_be_a_bool(self):
        for bad in (1, "yes", None):
            with pytest.raises(ValueError):
                SufficiencyVerdict(1, bad)


class TestConditionList:
    def test_dedup_by_normalized_text(self):
        known = ConditionList("goal", ["a  =  b"])
        assert not known.add("a = b")
        assert known.texts == ["a  =  b"]

    def test_insertion_order_preserved(self):
        known = ConditionList("goal")
        for text in ["c1", "c2", "c3"]:
            known.add(text)
        assert known.texts == ["c1", "c2", "c3"]

    def test_discarded_not_in_accepted(self, toy_problem, fast_macm):
        backend = scripted(thinker=[extraction_reply(["keep"], "goal"), mining_reply(["drop"]),
                                    "1. go"],
                           judge=["False", "True"], executor=["Answer: ok"])
        outcome, transcript = run_macm(toy_problem, fast_macm, backend)
        assert outcome == Solved("ok")
        assert [e.text for e in transcript.events if isinstance(e, ConditionAccepted)] == ["keep"]
        assert "drop" not in transcript.agent_calls()[-1].prompt

    def test_discarded_text_can_be_reaccepted(self, toy_problem, fast_macm):
        backend = scripted(thinker=[extraction_reply(["y = 2"], "goal"), mining_reply(["x = 1"]),
                                    mining_reply(["x = 1"]), "1. go"],
                           judge=["False", "False", "True", "True"], executor=["Answer: ok"])
        outcome, transcript = run_macm(toy_problem, fast_macm, backend)
        assert outcome == Solved("ok")
        assert ConditionDiscarded("x = 1", 1) in transcript.events
        assert [e.text for e in transcript.events if isinstance(e, ConditionAccepted)] \
            == ["y = 2", "x = 1"]
        assert "1. y = 2\n2. x = 1" in transcript.agent_calls()[-1].prompt

    @given(st.lists(st.text(min_size=1).filter(lambda s: s.strip()), max_size=20))
    def test_accepted_set_is_monotone(self, texts):
        known = ConditionList("goal")
        snapshots = []
        for text in texts:
            known.add(text)
            snapshots.append(list(known.texts))
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later[: len(earlier)] == earlier


class TestConfigs:
    def test_sampling_defaults(self):
        params = SamplingParams()
        assert (params.n, params.temperature) == (1, 0.7)

    def test_role_max_tokens_defaults(self):
        assert MAX_TOKENS == {THINKER: 512, JUDGE: 4, EXECUTOR: 256}

    def test_macm_temperature(self):
        assert MethodMACM().temperature == 0.7
        with pytest.raises(ValueError):
            MethodMACM(temperature=-0.1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_temperature_rejected(self, value):
        for make in (MethodMACM, SamplingParams):
            with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
                make(temperature=value)

    def test_macm_defaults(self):
        method = MethodMACM()
        assert method.max_iterations == 5
        assert method.format_retries == 2

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            MethodMACM(max_iterations=0)
        with pytest.raises(ValueError):
            SamplingParams(n=0)
        with pytest.raises(ValueError):
            SamplingParams(temperature=-0.1)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_query_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="query_budget must be >= 1"):
            MethodMACM(query_budget=budget)
        assert MethodMACM(query_budget=1).query_budget == 1

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            Problem(id="", question="q")
        with pytest.raises(ValueError):
            Problem(id="p", question="")
        with pytest.raises(ValueError):
            Problem(id="p", question="q", level=6)


@pytest.mark.parametrize("bad_id", ["", ".", "..", "../x", "/x", "a/b", "a\0b"])
def test_problem_id_must_be_a_file_name(bad_id):
    with pytest.raises(ValueError, match="is not a file name"):
        Problem(id=bad_id, question="q")


class TestTranscript:
    def _call(self) -> AgentCall:
        return AgentCall(role="thinker", prompt="p", raw_response="r",
                         tokens_in=1, tokens_out=1, timestamp=0.0)

    def test_append_only_until_final(self):
        transcript = Transcript("run")
        transcript.append(self._call())
        transcript.append(Final(Solved("42")))
        with pytest.raises(ValueError):
            transcript.append(self._call())

    def test_outcome_exposed_after_final(self):
        transcript = Transcript("run")
        assert transcript.outcome is None
        transcript.append(Final(Unsolvable(5)))
        assert transcript.outcome == Unsolvable(5)

    def test_query_count_matches_agent_calls(self):
        transcript = Transcript("run")
        for _ in range(3):
            transcript.append(self._call())
        assert transcript.query_count() == 3

    def test_choice_count_sums_n(self):
        transcript = Transcript("run")
        transcript.append(AgentCall(role="solver", prompt="p", raw_response="r",
                                    tokens_in=0, tokens_out=0, timestamp=0.0, n_choices=3))
        transcript.append(self._call())
        assert transcript.choice_count() == 4


_TEXTS = st.text(min_size=1).filter(str.strip)
_ROUNDS = st.integers(1, 50)
_EVENTS = {
    AgentCall: st.builds(
        AgentCall, role=st.text(), prompt=st.text(), raw_response=st.text(),
        tokens_in=st.integers(0, 10**6), tokens_out=st.integers(0, 10**6),
        timestamp=st.floats(allow_nan=False, allow_infinity=False),
        n_choices=st.integers(1, 4), more_choices=st.lists(st.text(), max_size=3).map(tuple),
        n=st.integers(1, 4), temperature=st.none() | st.floats(0, 2),
        max_tokens=st.none() | st.integers(1, 512)),
    ObjectiveSet: st.builds(ObjectiveSet, _TEXTS),
    ConditionAccepted: st.builds(ConditionAccepted, _TEXTS, st.none() | _ROUNDS),
    ConditionDiscarded: st.builds(ConditionDiscarded, _TEXTS, _ROUNDS),
    DuplicateDropped: st.builds(DuplicateDropped, _TEXTS, _ROUNDS),
    PlanDesigned: st.builds(PlanDesigned, st.lists(_TEXTS, min_size=1, max_size=4).map(tuple)),
    SufficiencyVerdict: st.builds(SufficiencyVerdict, _ROUNDS, st.booleans()),
    Final: st.builds(Final, st.one_of(
        st.builds(Solved, st.text()), st.builds(Unsolvable, st.integers(0, 9)),
        st.builds(RunError, st.sampled_from(ERROR_KINDS), st.text()))),
}


class TestEventCodec:
    def test_every_event_kind_is_generated(self):
        assert set(_EVENTS) == set(Event.__args__)

    @given(st.one_of(*_EVENTS.values()))
    def test_each_event_is_its_kind_and_its_fields(self, event):
        data = event_to_dict(event)
        assert data["event"] == re.sub(r"(?<!^)(?=[A-Z])", "_", type(event).__name__).lower()
        assert data.keys() == {"event", *(f.name for f in dataclasses.fields(event))}
        assert event_from_dict(data) == event
        assert event_from_dict(json.loads(json.dumps(data))) == event
