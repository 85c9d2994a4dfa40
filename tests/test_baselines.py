import pytest

from macm.backend import QueryCounter
from macm.baselines import MethodCoT, MethodIO, MethodSCCoT, solve_cot, solve_io, solve_sc_cot
from macm.domain import Solved, Transcript
from macm.errors import ParseFailure

from conftest import scripted


class TestSolveIO:
    def test_single_request(self, toy_problem):
        counter = QueryCounter()
        backend = scripted(solver=["Answer: 7"], counter=counter)
        transcript = Transcript("t")
        answer = solve_io(toy_problem, MethodIO(), backend, transcript)
        assert (answer, transcript.query_count()) == (Solved("7"), 1)
        assert counter.requests == 1
        assert counter.choices == 1
        assert transcript.choice_count() == 1

    def test_n3_selects_best_in_second_request(self, toy_problem):
        counter = QueryCounter()
        backend = scripted(solver=["Answer: 7", "Answer: 7"], counter=counter)
        transcript = Transcript("t")
        answer = solve_io(toy_problem, MethodIO(n=3), backend, transcript)
        assert (answer, transcript.query_count()) == (Solved("7"), 2)
        assert counter.requests == 2
        assert counter.choices == 4  # 3 generated + 1 selection
        assert transcript.choice_count() == 4

    def test_empty_reply(self, toy_problem):
        backend = scripted(solver=["   "])
        with pytest.raises(ParseFailure):
            solve_io(toy_problem, MethodIO(), backend, Transcript("t"))

    def test_reply_ending_in_the_marker_is_a_parse_failure(self, toy_problem):
        backend = scripted(solver=["Let x = 3.\nAnswer:"])
        with pytest.raises(ParseFailure, match="nothing follows the last answer marker"):
            solve_io(toy_problem, MethodIO(), backend, Transcript("t"))


class TestSolveCoT:
    def test_early_stop_on_marker(self, toy_problem):
        backend = scripted(solver=["Step: expand.", "Step: simplify.", "Answer: 12"])
        transcript = Transcript("t")
        answer = solve_cot(toy_problem, MethodCoT(5), backend, transcript)
        assert (answer, transcript.query_count()) == (Solved("12"), 3)

    def test_degenerate_chain(self, toy_problem):
        backend = scripted(solver=["Answer: 5"])
        transcript = Transcript("t")
        answer = solve_cot(toy_problem, MethodCoT(1), backend, transcript)
        assert (answer, transcript.query_count()) == (Solved("5"), 1)

    def test_link_ending_in_the_marker_is_a_parse_failure(self, toy_problem):
        backend = scripted(solver=["Step: expand.", "Answer: 5\nAnswer:"])
        with pytest.raises(ParseFailure, match="nothing follows the last answer marker"):
            solve_cot(toy_problem, MethodCoT(5), backend, Transcript("t"))

    def test_exhaustion_without_marker(self, toy_problem):
        backend = scripted(solver=["thinking...", "still thinking..."])
        with pytest.raises(ParseFailure):
            solve_cot(toy_problem, MethodCoT(2), backend, Transcript("t"))

    def test_chain_is_multi_turn(self, toy_problem):
        counter = QueryCounter()
        backend = scripted(solver=["step one", "Answer: 3"], counter=counter)
        transcript = Transcript("t")
        solve_cot(toy_problem, MethodCoT(5), backend, transcript)
        calls = transcript.agent_calls()
        assert len(calls) == 2
        # Second request carries the accumulated conversation.
        assert "step one" in calls[1].prompt


class TestSolveSCCoT:
    def test_vote_passthrough(self, toy_problem):
        # 3 chains of 1 step each with answers 8, 8, 6; the model votes "8".
        backend = scripted(solver=["Answer: 8", "Answer: 8", "Answer: 6", "8"])
        transcript = Transcript("t")
        answer = solve_sc_cot(toy_problem, MethodSCCoT(5, 3), backend, transcript)
        assert answer == Solved("8")
        assert transcript.query_count() == 3 * 1 + 1

    def test_v1_degenerate_matches_cot(self, toy_problem):
        chain = ["step", "Answer: 5"]
        cot_transcript = Transcript("cot")
        cot_answer = solve_cot(toy_problem, MethodCoT(5),
                               scripted(solver=list(chain)), cot_transcript)
        backend = scripted(solver=chain + ["5"])
        transcript = Transcript("t")
        answer = solve_sc_cot(toy_problem, MethodSCCoT(5, 1), backend, transcript)
        assert answer == cot_answer
        assert transcript.query_count() == cot_transcript.query_count() + 1

    def test_vote_not_among_candidates(self, toy_problem):
        backend = scripted(solver=["Answer: 8", "Answer: 6", "9"])
        with pytest.raises(ParseFailure):
            solve_sc_cot(toy_problem, MethodSCCoT(5, 2), backend, Transcript("t"))

    def test_default_settings_accounting(self, toy_problem):
        # l=5, v=5, each chain uses 2 steps: queries == v * steps_used + 1.
        chains = ["step", "Answer: 4"] * 5
        backend = scripted(solver=chains + ["4"])
        transcript = Transcript("t")
        answer = solve_sc_cot(toy_problem, MethodSCCoT(5, 5), backend, transcript)
        assert answer == Solved("4")
        assert transcript.query_count() == 5 * 2 + 1


@pytest.mark.parametrize("build", [lambda: MethodCoT(l=0),
                                   lambda: MethodSCCoT(l=0),
                                   lambda: MethodSCCoT(v=0)],
                         ids=["cot-l0", "sc-cot-l0", "sc-cot-v0"])
def test_method_rejects_a_chain_length_or_voter_count_below_one(build):
    with pytest.raises(ValueError, match="must be >= 1"):
        build()
