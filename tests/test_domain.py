import re
import sys
import unicodedata

import pytest
from hypothesis import given, strategies as st

from macm.agents import EXECUTOR, JUDGE, MAX_TOKENS, THINKER
from macm.domain import (
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
    ConditionList,
    ConditionProposed,
    Final,
    ObjectiveSet,
    PlanDesigned,
    Problem,
    RunConfig,
    SamplingParams,
    Solved,
    SufficiencyVerdict,
    Transcript,
    Unsolvable,
    normalize_condition_text,
)
from macm.orchestrator import RunState


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
        for make in (ObjectiveSet, lambda t: ConditionProposed(t, 1), ConditionAccepted,
                     lambda t: ConditionDiscarded(t, 1), lambda t: PlanDesigned(("a", t))):
            for text in ("", "   ", "\n\t"):
                with pytest.raises(ValueError):
                    make(text)
        with pytest.raises(ValueError):
            PlanDesigned(())

    def test_round_must_be_positive(self):
        for make in (ConditionAccepted, ConditionDiscarded):
            for bad in (0, -1):
                with pytest.raises(ValueError):
                    make("x", bad)


def fold(*events) -> RunState:
    state = RunState()
    for event in events:
        state.apply(event)
    return state


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

    def test_discarded_not_in_accepted(self):
        state = fold(ObjectiveSet("goal"), ConditionAccepted("keep"),
                     ConditionProposed("drop", 1), ConditionDiscarded("drop", 1))
        assert state.known.texts == ["keep"]
        assert state.pending == []

    def test_discarded_text_can_be_reaccepted(self):
        state = fold(ObjectiveSet("goal"), ConditionAccepted("y = 2"),
                     ConditionProposed("x = 1", 1), ConditionDiscarded("x = 1", 1),
                     SufficiencyVerdict(1, False))
        assert not state.known.is_duplicate("x = 1")
        state.apply(ConditionProposed("x = 1", 2))
        state.apply(ConditionAccepted("x = 1", 2))
        assert state.known.texts == ["y = 2", "x = 1"]

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

    def test_run_config_temperature(self):
        assert RunConfig().temperature == 0.7
        with pytest.raises(ValueError):
            RunConfig(temperature=-0.1)

    def test_run_config_defaults(self):
        config = RunConfig()
        assert config.max_iterations == 5
        assert config.format_retries == 2

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(max_iterations=0)
        with pytest.raises(ValueError):
            SamplingParams(n=0)
        with pytest.raises(ValueError):
            SamplingParams(temperature=-0.1)

    def test_problem_validation(self):
        with pytest.raises(ValueError):
            Problem(id="", question="q")
        with pytest.raises(ValueError):
            Problem(id="p", question="")
        with pytest.raises(ValueError):
            Problem(id="p", question="q", level=6)


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
