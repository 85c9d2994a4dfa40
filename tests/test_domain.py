import re
import sys
import unicodedata

import pytest
from hypothesis import given, strategies as st

from macm.domain import (
    AgentCall,
    Condition,
    ConditionList,
    Final,
    Objective,
    Problem,
    RunConfig,
    SamplingParams,
    Solved,
    Transcript,
    Unsolvable,
    normalize_condition_text,
)


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
    def test_initial_cannot_be_discarded(self):
        with pytest.raises(ValueError):
            Condition("x", mined_round=None, accepted=False)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            Condition("   ")

    def test_round_must_be_positive(self):
        with pytest.raises(ValueError):
            Condition("x", mined_round=0)


class TestConditionList:
    def test_dedup_by_normalized_text(self):
        known = ConditionList(Objective("goal"), [Condition("a  =  b")])
        assert not known.add(Condition("a = b", mined_round=1))
        assert len(known.accepted()) == 1

    def test_insertion_order_preserved(self):
        known = ConditionList(Objective("goal"))
        for text in ["c1", "c2", "c3"]:
            known.add(Condition(text))
        assert known.accepted_texts() == ["c1", "c2", "c3"]

    def test_discarded_not_in_accepted(self):
        known = ConditionList(Objective("goal"), [Condition("keep")])
        known.add(Condition("drop", mined_round=1, accepted=False))
        assert known.accepted_texts() == ["keep"]

    def test_discarded_text_can_be_reaccepted(self):
        known = ConditionList(Objective("goal"))
        known.add(Condition("x = 1", mined_round=1, accepted=False))
        assert not known.is_duplicate("x = 1")
        assert known.add(Condition("x = 1", mined_round=2))

    @given(st.lists(st.text(min_size=1).filter(lambda s: s.strip()), max_size=20))
    def test_accepted_set_is_monotone(self, texts):
        known = ConditionList(Objective("goal"))
        snapshots = []
        for i, text in enumerate(texts):
            known.add(Condition(text, mined_round=i + 1))
            snapshots.append(list(known.accepted_texts()))
        for earlier, later in zip(snapshots, snapshots[1:]):
            assert later[: len(earlier)] == earlier


class TestConfigs:
    def test_sampling_defaults(self):
        params = SamplingParams()
        assert (params.n, params.top_k, params.temperature) == (1, 1, 0.7)

    def test_role_max_tokens_defaults(self):
        config = RunConfig()
        assert config.thinker_sampling.max_tokens == 512
        assert config.judge_sampling.max_tokens == 4
        assert config.executor_sampling.max_tokens == 256

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
