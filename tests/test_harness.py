import dataclasses
import errno
import json
import os
import re
import stat
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from macm.backend import QueryCounter
from macm.baselines import MethodCoT, MethodIO, MethodMACM
from macm.domain import (
    AgentCall,
    ConditionAccepted,
    ConditionDiscarded,
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
    VerdictEvent,
)
from macm.errors import CorruptTranscript, EmptyDataset, SchemaError
from macm.harness import (
    Report,
    _method_for_point,
    compute_aggregates,
    filter_wrong,
    grade,
    load_game24_file,
    load_problems,
    make_backend_factory,
    read_transcript,
    report_to_dict,
    run_benchmark,
    sample_problems,
    sweep_queries,
    write_report,
    write_transcript,
)

from conftest import extraction_reply, mining_reply, scripted


class TestLoadProblems:
    def test_full_schema(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({"id": "alg-1", "question": "q?", "answer": "30",
                                    "category": "Algebra", "level": 5}) + "\n")
        problems = load_problems(path)
        assert problems == [Problem(id="alg-1", question="q?", gold_answer="30",
                                    category="Algebra", level=5)]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        assert load_problems(path) == []

    def test_missing_question_aborts(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "x"}\n')
        with pytest.raises(SchemaError) as exc_info:
            load_problems(path)
        assert exc_info.value.line == 1

    def test_lenient_skips_bad_lines(self, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "question": "q1"}\n'
                        'not json\n'
                        '{"id": "b", "question": "q2"}\n')
        problems = load_problems(path, lenient=True)
        assert [p.id for p in problems] == ["a", "b"]
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_ids_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "question": "q"}\n{"id": "a", "question": "q"}\n')
        with pytest.raises(SchemaError):
            load_problems(path)

    def test_game24_file(self, tmp_path):
        path = tmp_path / "games.txt"
        path.write_text("4 4 6 8\n3 3 8 8\n")
        problems = load_game24_file(path)
        assert len(problems) == 2
        assert problems[0].gold_answer == "4 4 6 8"
        assert "4, 4, 6" in problems[0].question

    def test_sorting_file(self, tmp_path):
        path = tmp_path / "seqs.jsonl"
        path.write_text('{"input": [3, 1, 2]}\n')
        problems = load_problems(path, task="sorting")
        assert problems[0].gold_answer == "3 1 2"

    def test_unknown_task(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="unknown task 'chess'"):
            load_problems(path, task="chess")

    def test_null_fields_read_as_absent(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "question": "q", "answer": null, "category": null, '
                        '"level": null}\n')
        assert load_problems(path) == [Problem(id="a", question="q")]

    @pytest.mark.parametrize("field", [
        {"answer": 7}, {"answer": ["7"]}, {"category": 3}, {"category": ["a"]},
        {"level": True}, {"level": "3"}, {"level": 2.0}, {"level": 6}])
    def test_field_of_wrong_type(self, field, tmp_path, capsys):
        path = tmp_path / "data.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in (
            {"id": "a", "question": "q1", "answer": "1", "category": "Alg"},
            {"id": "b", "question": "q2", **field},
            {"id": "c", "question": "q3"})))
        with pytest.raises(SchemaError) as exc_info:
            load_problems(path)
        assert exc_info.value.line == 2
        assert str(exc_info.value).startswith("line 2: ")
        assert [p.id for p in load_problems(path, lenient=True)] == ["a", "c"]
        assert "skipping line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("task, bad_line", [
        ("game24", "1 2 3"), ("game24", "1 2 3 x"), ("game24", "0 1 2 3"),
        ("sorting", '{"input": [1, "2"]}'), ("sorting", '{"input": [true, 1]}'),
        ("sorting", '{"input": 3}'), ("sorting", "[1, 2]"), ("sorting", "not json")])
    def test_task_file_with_a_bad_line(self, task, bad_line, tmp_path, capsys):
        good = {"game24": ["4 6 8 1", "3 3 8 8"],
                "sorting": ['{"input": [3, 1]}', '{"input": [2]}']}[task]
        path = tmp_path / "data.txt"
        path.write_text(f"{good[0]}\n{bad_line}\n{good[1]}\n")
        with pytest.raises(SchemaError) as exc_info:
            load_problems(path, task=task)
        assert exc_info.value.line == 2
        assert str(exc_info.value).startswith("line 2: ")
        problems = load_problems(path, lenient=True, task=task)
        assert [p.id for p in problems] == [f"{task}-1", f"{task}-3"]
        assert "skipping line 2: " in capsys.readouterr().err

    def test_sample_seeded(self):
        problems = [Problem(id=f"p{i}", question="q") for i in range(10)]
        a = sample_problems(problems, 0.3, seed=42)
        b = sample_problems(problems, 0.3, seed=42)
        c = sample_problems(problems, 0.3, seed=43)
        assert a == b
        assert len(a) == 3
        assert a != c


class TestGrading:
    def test_math(self):
        problem = Problem(id="p", question="q", gold_answer="1/2")
        assert grade("math", problem, "0.5")
        assert not grade("math", problem, "0.6")

    def test_game24(self):
        problem = Problem(id="p", question="q", gold_answer="4 4 6 8")
        assert grade("game24", problem, "(6-4)*(8+4)")
        assert not grade("game24", problem, "(8-4)*6")

    def test_sorting(self):
        problem = Problem(id="p", question="q", gold_answer="3 1 2")
        assert grade("sorting", problem, "1 2 3")
        assert grade("sorting", problem, "sorted: 1, 2, 3")
        assert not grade("sorting", problem, "1 2")

    def test_game24_literal_past_int_digit_limit_is_false(self):
        problem = Problem(id="p", question="q", gold_answer="3 3 8 8")
        assert grade("game24", problem, "9" * 5000 + "+1") is False
        # Leading zeros do not count towards a literal's length.
        assert grade("game24", problem, "8/(3-8/0003)")
        assert grade("game24", problem, "8/(3-8/" + "0" * 5000 + "3)")
        assert not grade("game24", problem, "8/(3-8/" + "0" * 5000 + "13)")

    def test_game24_nesting_past_recursion_limit_is_false(self):
        problem = Problem(id="p", question="q", gold_answer="3 3 8 8")
        assert grade("game24", problem, "(" * 2000 + "8" + ")" * 2000) is False
        assert grade("game24", problem, "8+" * 2000 + "8") is False

    def test_sorting_literal_past_int_digit_limit_is_false(self):
        problem = Problem(id="p", question="q", gold_answer="3 1 2")
        assert grade("sorting", problem, "1 2 " + "9" * 5000) is False
        assert grade("sorting", problem, "1 2 0003")
        assert grade("sorting", problem, "1 2 " + "0" * 5000 + "3")
        assert grade("sorting", Problem(id="p", question="q", gold_answer="-3 10"),
                     "-0003, 010")

    @settings(deadline=None, max_examples=50)
    @given(answer=st.lists(
        st.one_of(st.text("0123456789", min_size=1, max_size=50),
                  st.builds(str.__mul__, st.sampled_from("0123456789"), st.integers(1, 5000)),
                  st.sampled_from([" ", "+", "-", "*", "/", "(", ")", "x", ",", "٣", "²",
                                   "e", "E", "."])),
        max_size=6).map("".join))
    @example(answer="1e30000000")
    @pytest.mark.parametrize("task, gold",
                             [("game24", "3 3 8 8"), ("sorting", "3 1 2 -7"), ("math", "5")])
    def test_digit_heavy_answers_grade_to_a_bool(self, task, gold, answer):
        problem = Problem(id="p", question="q", gold_answer=gold)
        start = time.monotonic()
        assert isinstance(grade(task, problem, answer), bool)
        if task == "math":
            # Expanding 1e30000000 takes over a minute; comparing it takes microseconds.
            assert time.monotonic() - start < 1.0


def per_problem_factory(scripts: dict, counter: QueryCounter):
    """scripts: problem_id -> kwargs for conftest.scripted()."""
    return lambda pid: scripted(counter=counter, **scripts[pid])


class TestRunBenchmark:
    def _three_problems(self):
        return [Problem(id=f"p{i}", question=f"q{i}", gold_answer=str(i), category="Alg")
                for i in range(3)]

    def test_aggregation_with_error_row(self, tmp_path):
        problems = self._three_problems()
        counter = QueryCounter()
        factory = per_problem_factory({
            "p0": {"solver": ["Answer: 0"]},
            "p1": {"solver": ["Answer: 1"]},
            "p2": {"solver": ["   "]},  # empty reply -> ParseFailure
        }, counter)
        report = run_benchmark(problems, MethodIO(), factory, tmp_path)
        assert report.aggregates["accuracy"] == pytest.approx(2 / 3)
        kinds = [r.outcome["kind"] for r in report.rows]
        assert kinds == ["solved", "solved", "error"]
        assert [r.id for r in report.rows] == ["p0", "p1", "p2"]
        for row in report.rows:
            assert (tmp_path / row.transcript_path).exists()

    def test_parallelism_deterministic(self, tmp_path):
        from macm.harness import _report_csv_text
        problems = self._three_problems()
        scripts = {p.id: {"solver": [f"Answer: {p.id[-1]}"]} for p in problems}

        def run(parallelism, out):
            counter = QueryCounter()
            return run_benchmark(problems, MethodIO(),
                                 per_problem_factory(scripts, counter),
                                 tmp_path / out, parallelism=parallelism)

        serial = run(1, "serial")
        parallel = run(4, "parallel")
        assert _report_csv_text(serial) == _report_csv_text(parallel)

    def test_game24_task_grades_with_rational_evaluator(self, tmp_path):
        problem = Problem(id="g1", question="make 24", gold_answer="4 4 6 8")
        counter = QueryCounter()
        factory = per_problem_factory({"g1": {"solver": ["Answer: (6-4)*(8+4)"]}}, counter)
        report = run_benchmark([problem], MethodIO(), factory, tmp_path, task="game24")
        assert report.rows[0].correct

    def test_macm_method(self, tmp_path, toy_problem):
        counter = QueryCounter()
        factory = per_problem_factory({
            toy_problem.id: dict(
                thinker=[extraction_reply(["c"], "obj"), mining_reply(["m"]), "1. go"],
                judge=["True", "True"],
                executor=["Answer: 2"]),
        }, counter)
        method = MethodMACM(config=RunConfig(format_retries=0))
        report = run_benchmark([toy_problem], method, factory, tmp_path)
        assert report.rows[0].correct
        assert report.rows[0].queries == 6
        assert counter.requests == 6

    def test_row_queries_match_counter_delta(self, tmp_path):
        problems = self._three_problems()
        counter = QueryCounter()
        scripts = {p.id: {"solver": ["step", f"Answer: {p.id[-1]}"]} for p in problems}
        report = run_benchmark(problems, MethodCoT(chain_length_l=5),
                               per_problem_factory(scripts, counter), tmp_path)
        assert sum(r.queries for r in report.rows) == counter.requests

    def test_refusal_tagged_and_incorrect(self, tmp_path):
        problem = Problem(id="r1", question="q", gold_answer="5")
        counter = QueryCounter()
        factory = per_problem_factory(
            {"r1": {"solver": ["Answer: I cannot solve this"]}}, counter)
        report = run_benchmark([problem], MethodIO(), factory, tmp_path)
        assert report.rows[0].refusal
        assert not report.rows[0].correct

    def test_needs_review_flag(self, tmp_path):
        problem = Problem(id="m1", question="q", gold_answer="\\sqrt{2}/2")
        counter = QueryCounter()
        factory = per_problem_factory({"m1": {"solver": ["Answer: 0.707"]}}, counter)
        report = run_benchmark([problem], MethodIO(), factory, tmp_path)
        assert report.rows[0].needs_review


class TestReportPersistence:
    def _report(self, tmp_path):
        problems = [Problem(id="p0", question="q", gold_answer="7", category="Alg")]
        counter = QueryCounter()
        factory = per_problem_factory({"p0": {"solver": ["Answer: 7"]}}, counter)
        return run_benchmark(problems, MethodIO(), factory, tmp_path)

    def test_write_creates_three_files_and_round_trips(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "out"
        write_report(report, out)
        assert (out / "report.json").exists()
        assert (out / "report.csv").exists()
        assert (out / "summary.md").exists()
        reloaded = json.loads((out / "report.json").read_text())
        assert reloaded == report_to_dict(report)
        assert reloaded["rows"][0]["outcome"] == {"kind": "solved", "answer": "7"}

    def test_aggregates_self_consistent(self, tmp_path):
        report = self._report(tmp_path)
        assert compute_aggregates(report.rows) == report.aggregates

    def test_unwritable_dir_raises(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("permission bits are ignored when running as root")
        report = self._report(tmp_path)
        locked = tmp_path / "locked"
        locked.mkdir()
        locked.chmod(stat.S_IRUSR | stat.S_IXUSR)
        with pytest.raises(OSError):
            write_report(report, locked / "sub")

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "out"
        (out / "report.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            write_report(report, out)
        assert sorted(p.name for p in out.iterdir()) == ["report.csv", "report.json"]

    def test_summary_mirrors_category_table(self, tmp_path):
        report = self._report(tmp_path)
        out = tmp_path / "out"
        write_report(report, out)
        summary = (out / "summary.md").read_text()
        assert "| Alg | 1 | 1 | 100.00 |" in summary
        assert "Overall" in summary


class TestTranscriptFiles:
    def test_final_is_last_jsonl_line(self, tmp_path):
        transcript = Transcript("r1")
        transcript.append(Final(Solved("7")))
        path = tmp_path / "t.jsonl"
        write_transcript(transcript, path)
        lines = [json.loads(l) for l in path.read_text().splitlines() if l.strip()]
        assert lines[-1]["event"] == "final"

    def test_round_trip(self, tmp_path, toy_problem, fast_config):
        from macm.orchestrator import solve
        backend = scripted(
            thinker=[extraction_reply(["c"], "obj"), mining_reply(["m"]), "1. s"],
            judge=["True", "True"], executor=["Answer: 2"])
        _, transcript = solve(toy_problem, fast_config, backend)
        path = tmp_path / "t.jsonl"
        write_transcript(transcript, path)
        loaded = read_transcript(path)
        assert loaded.run_id == transcript.run_id
        assert loaded.events == transcript.events

    def test_failed_write_closes_the_file(self, tmp_path, monkeypatch):
        from macm import harness

        def no_space(fd, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(harness, "write_all", no_space)
        transcript = Transcript("r1")
        transcript.append(Final(Solved("7")))
        before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError):
            write_transcript(transcript, tmp_path / "t.jsonl")
        assert len(os.listdir("/proc/self/fd")) == before

    def test_rerun_over_a_longer_run_leaves_only_the_new_bytes(
            self, tmp_path, monkeypatch, toy_problem):
        from macm import agents
        monkeypatch.setattr(agents, "now", lambda: GOLDEN_TIMESTAMP)
        short = MethodMACM(config=RunConfig(query_budget=2))

        def run(method, out):
            script = scripted(thinker=[extraction_reply(["c"], "obj"), mining_reply(["m"]),
                                       "1. s"], judge=["True", "True"], executor=["Answer: 2"])
            report = run_benchmark([toy_problem], method, lambda pid: script, out)
            write_report(report, out)

        reused = tmp_path / "reused"
        run(MethodMACM(), reused)
        run(short, reused)
        fresh = tmp_path / "fresh"
        run(short, fresh)
        name = f"transcripts/{toy_problem.id}.jsonl"
        assert (reused / name).read_bytes() == (fresh / name).read_bytes()
        assert read_transcript(reused / name).outcome.kind == "BudgetExceeded"
        assert (reused / "report.csv").read_bytes() == (fresh / "report.csv").read_bytes()
        assert not list(reused.rglob("*.tmp"))


GOLDEN_ALGEBRA = Path(__file__).parent / "data" / "algebra_transcript.jsonl"
GOLDEN_TIMESTAMP = 1700000000.0


class TestGoldenTranscriptFormat:
    """tests/data/algebra_transcript.jsonl is the bundled algebra trace's
    transcript (run id "algebra", every timestamp 1700000000.0) as written
    before state changes were typed events; the format must not move."""

    def test_decodes_to_typed_events(self):
        events = read_transcript(GOLDEN_ALGEBRA).events
        steps = [e for e in events if not isinstance(e, AgentCall)]
        assert [type(e) for e in steps] == [
            ObjectiveSet, ConditionAccepted, ConditionAccepted,
            ConditionProposed, VerdictEvent, ConditionDiscarded, SufficiencyVerdict,
            ConditionProposed, ConditionProposed, VerdictEvent, ConditionAccepted,
            VerdictEvent, ConditionAccepted, SufficiencyVerdict, PlanDesigned, Final]
        assert steps[1] == ConditionAccepted(
            "The function (x^2 + 5x + α)/(x^2 + 7x - 44) must be expressible as a "
            "quotient of two linear functions.", None)
        assert steps[5] == ConditionDiscarded("x^2 + 5x + α = k(x + 11)(x - 4)", 1)
        assert steps[6] == SufficiencyVerdict(1, False)
        assert steps[12] == ConditionAccepted("(4)^2 + 5×(4) + α₂ = 0", 2)
        assert steps[13] == SufficiencyVerdict(2, True)
        assert len(steps[14].steps) == 3
        assert steps[15] == Final(Solved("-102"))

    @pytest.mark.parametrize("mangle, line, cause", [
        (lambda data: data[:-20], 27, json.JSONDecodeError),
        (lambda data: data[:data.index("α".encode()) + 1], 2, UnicodeDecodeError),
        (lambda data: data.replace(b'"agent_call"', b'"bogus"', 1), 2, KeyError),
        (lambda data: data.replace(b'"agent_call",', b'"agent_call", "extra": 1,', 1), 2,
         TypeError),
        (lambda data: data.replace(b'"final",', b'"final", "extra": 1,'), 27, TypeError),
        (lambda data: data.replace(b'"sufficiency round 1",', b'"sufficiency round 1", "extra": 1,'),
         12, TypeError),
        (lambda data: data.replace(b'"objective set",', b'"objective set", "extra": 1,'), 3,
         TypeError),
        (lambda data: data.replace(b'"data": {"objective":', b'"data": {"extra": 1, "objective":'),
         3, TypeError),
        (lambda data: re.sub(rb'"steps": \[[^]]*\]', b'"steps": {"x": 1}', data), 25,
         TypeError),
        (lambda data: re.sub(rb'("objective": )"[^"]*"', rb'\1" "', data, count=1), 3,
         ValueError),
        (lambda data: re.sub(rb'("condition_proposed", "text": )"[^"]*"', rb'\1""', data,
                             count=1), 7, ValueError),
        (lambda data: re.sub(rb'("condition accepted", "data": {"text": )"[^"]*"', rb'\1""',
                             data, count=1), 4, ValueError),
        (lambda data: re.sub(rb'("condition discarded", "data": {"text": )"[^"]*"', rb'\1" "',
                             data, count=1), 10, ValueError),
        (lambda data: re.sub(rb'("condition accepted", "data": {"text": "[^"]*", "round": )\d+',
                             rb'\g<1>0', data, count=1), 18, ValueError),
        (lambda data: re.sub(rb'("condition discarded", "data": {"text": "[^"]*", "round": )\d+',
                             rb'\g<1>0', data, count=1), 10, ValueError),
        (lambda data: re.sub(rb'"steps": \[[^]]*\]', b'"steps": []', data), 25, ValueError),
    ], ids=["torn", "torn-inside-a-character", "unknown-kind", "extra-key", "final-extra-key",
            "sufficiency-extra-key", "state-change-extra-key", "state-change-data-extra-key",
            "plan-steps-object", "blank-objective", "blank-proposed", "blank-accepted",
            "blank-discarded", "accepted-round-0", "discarded-round-0", "no-steps"])
    def test_bad_line_raises_corrupt_transcript(self, tmp_path, mangle, line, cause):
        path = tmp_path / "algebra.jsonl"
        path.write_bytes(mangle(GOLDEN_ALGEBRA.read_bytes()))
        where = rf"{re.escape(str(path))}, line {line}:"
        with pytest.raises(CorruptTranscript, match=where) as info:
            read_transcript(path)
        assert isinstance(info.value.__cause__, cause)

    def test_rewrites_byte_for_byte(self, tmp_path):
        path = tmp_path / "algebra.jsonl"
        write_transcript(read_transcript(GOLDEN_ALGEBRA), path)
        assert path.read_bytes() == GOLDEN_ALGEBRA.read_bytes()

    def test_fresh_run_writes_the_same_bytes(self, tmp_path, monkeypatch):
        from macm import agents
        from macm.backend import ScriptedBackend
        from macm.demo import algebra_problem, algebra_trace_path
        from macm.orchestrator import solve

        monkeypatch.setattr(agents, "now", lambda: GOLDEN_TIMESTAMP)
        _, transcript = solve(algebra_problem(), RunConfig(),
                              ScriptedBackend.from_file(algebra_trace_path()), run_id="algebra")
        path = tmp_path / "algebra.jsonl"
        write_transcript(transcript, path)
        assert path.read_bytes() == GOLDEN_ALGEBRA.read_bytes()
        assert transcript.events == read_transcript(GOLDEN_ALGEBRA).events

    def test_golden_run_writes_the_golden_bytes(self, tmp_path, monkeypatch):
        from macm import agents
        from macm.backend import ScriptedBackend
        from macm.demo import algebra_problem, algebra_trace_path

        monkeypatch.setattr(agents, "now", lambda: GOLDEN_TIMESTAMP)
        problem = dataclasses.replace(algebra_problem(), id="algebra")
        report = run_benchmark([problem], MethodMACM(), lambda pid: ScriptedBackend.from_file(
            algebra_trace_path()), tmp_path)
        assert report.rows[0].correct
        assert (tmp_path / "transcripts" / "algebra.jsonl").read_bytes() \
            == GOLDEN_ALGEBRA.read_bytes()


class TestSweep:
    def test_io_n_grid_choice_counts(self, tmp_path):
        problems = [Problem(id="p0", question="q", gold_answer="7")]

        counter = QueryCounter()

        def factory(pid):
            return scripted(solver=["Answer: 7", "Answer: 7"], counter=counter)

        points = sweep_queries(problems, MethodIO(), {"n": [1, 3]}, factory, tmp_path)
        assert [p.mean_queries for p in points] == [1, 4]
        csv_text = (tmp_path / "sweep.csv").read_text()
        assert csv_text.splitlines()[0] == "n,mean_queries,corrected_fraction"

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(EmptyDataset):
            sweep_queries([], MethodIO(), {"n": [1]}, lambda pid: None, tmp_path)

    def test_macm_iterations_monotone_queries(self, tmp_path, toy_problem):
        def factory(pid):
            return scripted(
                thinker=[extraction_reply(["c"], "obj")]
                + [mining_reply([f"m{r}"]) for r in range(1, 6)],
                judge=["True", "False"] * 5)

        points = sweep_queries([toy_problem], MethodMACM(), {"max_iterations": [1, 5]},
                               factory, tmp_path)
        assert points[0].mean_queries <= points[1].mean_queries

    def test_grid_applies_to_the_base_method_and_sampling(self):
        base = MethodMACM(config=RunConfig(format_retries=0, query_budget=9))
        method = _method_for_point(base, {"max_iterations": 2, "n": 3})
        assert method.config == RunConfig(max_iterations=2, format_retries=0, query_budget=9)
        assert method.prompts is base.prompts
        cot = MethodCoT(chain_length_l=2, sampling=SamplingParams(temperature=0.0))
        assert _method_for_point(cot, {"n": 3, "max_iterations": 2}) == MethodCoT(
            chain_length_l=2, sampling=SamplingParams(n=3, temperature=0.0))
        assert _method_for_point(cot, {"v": 4}) == cot

    def test_unknown_knob_rejected(self, tmp_path, toy_problem):
        with pytest.raises(ValueError):
            sweep_queries([toy_problem], MethodIO(), {"bogus": [1]}, lambda pid: None, tmp_path)


class TestFilterWrong:
    def test_selects_incorrect_rows(self, tmp_path):
        problems = [Problem(id=f"p{i}", question="q", gold_answer="7") for i in range(2)]
        counter = QueryCounter()
        factory = per_problem_factory({
            "p0": {"solver": ["Answer: 7"]},
            "p1": {"solver": ["Answer: 8"]},
        }, counter)
        write_report(run_benchmark(problems, MethodIO(), factory, tmp_path), tmp_path)
        wrong = filter_wrong(problems, tmp_path / "report.json")
        assert [p.id for p in wrong] == ["p1"]


class TestRecordReplayBenchmark:
    def test_replay_reproduces_csv_bytes(self, tmp_path):
        from macm.harness import _report_csv_text
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer=str(i))
                    for i in range(10)]
        script = {"roles": {"solver": [{"reply": "Answer: 0"}]}}
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script))
        cassettes = tmp_path / "cassettes"

        rec_counter = QueryCounter()
        rec_factory = make_backend_factory(f"scripted:{script_path}", rec_counter,
                                           record_dir=cassettes)
        recorded = run_benchmark(problems, MethodIO(), rec_factory, tmp_path / "rec")

        replay_counter = QueryCounter()
        replay_factory = make_backend_factory(f"replay:{cassettes}", replay_counter)
        replayed = run_benchmark(problems, MethodIO(), replay_factory, tmp_path / "rep")

        assert _report_csv_text(recorded) == _report_csv_text(replayed)
        assert replay_counter.requests == rec_counter.requests

    def test_missing_cassette_becomes_error_row(self, tmp_path):
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="0") for i in range(3)]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps({"roles": {"solver": [{"reply": "Answer: 0"}]}}))
        cassettes = tmp_path / "cassettes"
        recorded = run_benchmark(
            problems, MethodIO(),
            make_backend_factory(f"scripted:{script_path}", QueryCounter(), record_dir=cassettes),
            tmp_path / "rec")
        (cassettes / "p1.jsonl").unlink()

        out = tmp_path / "rep"
        replayed = run_benchmark(problems, MethodIO(),
                                 make_backend_factory(f"replay:{cassettes}", QueryCounter()), out)

        assert [r.id for r in replayed.rows] == ["p0", "p1", "p2"]
        error = replayed.rows[1]
        assert error.outcome["kind"] == "error"
        assert error.outcome["error_kind"] == "BackendFailure"
        assert not error.correct and error.queries == 0
        transcript = read_transcript(out / error.transcript_path)
        assert len(transcript.events) == 1 and transcript.is_final
        assert [(r.outcome, r.correct, r.queries) for r in (replayed.rows[0], replayed.rows[2])] \
            == [(r.outcome, r.correct, r.queries) for r in (recorded.rows[0], recorded.rows[2])]

    @pytest.mark.parametrize("corrupt, line", [
        (lambda lines: [lines[0], lines[1][:len(lines[1]) // 2]], 2),
        (lambda lines: [json.dumps({k: v for k, v in json.loads(lines[0]).items()
                                    if k != "request_messages"}), lines[1]], 1),
    ], ids=["torn-last-line", "no-request-messages"])
    def test_corrupt_cassette_becomes_error_row(self, tmp_path, corrupt, line):
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="0") for i in range(3)]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps({"roles": {"solver": ["Answer: 0", "Answer: 0"]}}))
        method = MethodIO(SamplingParams(n=2))  # two requests: n choices, then a select
        cassettes = tmp_path / "cassettes"
        recorded = run_benchmark(
            problems, method,
            make_backend_factory(f"scripted:{script_path}", QueryCounter(), record_dir=cassettes),
            tmp_path / "rec")
        cassette = cassettes / "p1.jsonl"
        lines = cassette.read_text().splitlines()
        assert len(lines) == 2
        cassette.write_text("\n".join(corrupt(lines)))

        replayed = run_benchmark(problems, method,
                                 make_backend_factory(f"replay:{cassettes}", QueryCounter()),
                                 tmp_path / "rep")

        assert [r.id for r in replayed.rows] == ["p0", "p1", "p2"]
        error = replayed.rows[1]
        assert error.outcome["error_kind"] == "BackendFailure"
        assert error.outcome["detail"].startswith(f"cassette {cassette}, line {line}: ")
        assert not error.correct and error.queries == 0
        assert [(r.outcome, r.correct, r.queries) for r in (replayed.rows[0], replayed.rows[2])] \
            == [(r.outcome, r.correct, r.queries) for r in (recorded.rows[0], recorded.rows[2])]
