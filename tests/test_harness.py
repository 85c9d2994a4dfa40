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
    Final,
    ObjectiveSet,
    PlanDesigned,
    Problem,
    RunError,
    Solved,
    SufficiencyVerdict,
    Transcript,
)
from macm.errors import CorruptTranscript, EmptyDataset, SchemaError
from macm.harness import (
    Report,
    ReportRow,
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
    with_knobs,
    write_report,
    write_transcript,
)

from conftest import extraction_reply, mining_reply, run_macm, scripted


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

    @pytest.mark.parametrize("bad_id", ["../escaped", "/abs/path", "a/b", ".", "..", "a\0b"])
    def test_id_that_is_not_a_file_name_rejected(self, tmp_path, capsys, bad_id):
        # The id names the problem's transcript file under --out.
        path = tmp_path / "data.jsonl"
        path.write_text(json.dumps({"id": "a", "question": "q"}) + "\n"
                        + json.dumps({"id": bad_id, "question": "q"}) + "\n")
        with pytest.raises(SchemaError, match=r"^line 2: problem id .* is not a file name"):
            load_problems(path)
        assert [p.id for p in load_problems(path, lenient=True)] == ["a"]
        assert "skipping line 2: " in capsys.readouterr().err

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

    _GOOD_LINES = {"math": [b'{"id": "a", "question": "q1"}', b'{"id": "c", "question": "q3"}'],
                   "game24": [b"4 6 8 1", b"3 3 8 8"],
                   "sorting": [b'{"input": [3, 1]}', b'{"input": [2]}']}
    _IDS = {"math": ["a", "c"], "game24": ["game24-1", "game24-3"],
            "sorting": ["sorting-1", "sorting-3"]}

    @pytest.mark.parametrize("task", ["math", "game24", "sorting"])
    def test_line_that_is_not_utf8(self, task, tmp_path, capsys):
        good = self._GOOD_LINES[task]
        path = tmp_path / "data.txt"
        bad = b'{"id": "b", "question": "\xff"}'
        path.write_bytes(b"\n".join([good[0], bad, good[1]]) + b"\n")
        with pytest.raises(SchemaError) as exc_info:
            load_problems(path, task=task)
        assert exc_info.value.line == 2
        assert str(exc_info.value).startswith("line 2: ")
        assert [p.id for p in load_problems(path, lenient=True, task=task)] == self._IDS[task]
        assert "skipping line 2: " in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["math", "game24", "sorting"])
    def test_crlf_file_reads_as_lf(self, task, tmp_path):
        lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
        lf.write_bytes(b"\n".join(self._GOOD_LINES[task]) + b"\n")
        crlf.write_bytes(b"\r\n".join(self._GOOD_LINES[task]) + b"\r\n")
        problems = load_problems(crlf, task=task)
        assert len(problems) == 2 and problems == load_problems(lf, task=task)
        assert not any(p.question.endswith("\r") for p in problems)

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
        method = MethodMACM(format_retries=0)
        report = run_benchmark([toy_problem], method, factory, tmp_path)
        assert report.rows[0].correct
        assert report.rows[0].queries == 6
        assert counter.requests == 6

    def test_row_queries_match_counter_delta(self, tmp_path):
        problems = self._three_problems()
        counter = QueryCounter()
        scripts = {p.id: {"solver": ["step", f"Answer: {p.id[-1]}"]} for p in problems}
        report = run_benchmark(problems, MethodCoT(l=5),
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


class _RaisingBackend:
    """A backend with a bug: every call raises."""

    def complete(self, request, role):
        raise RuntimeError("complete bug")


FAULTS = ("factory", "complete", "grade", "transcript-dir")


def _faulty_run(problems, method, build, out, parallelism, fault=None, at=None):
    """run_benchmark over ``build()`` backends, with ``fault`` injected at problem ``at``."""
    from macm import harness

    def factory(pid):
        if pid == at and fault == "factory":
            raise RuntimeError("factory bug")
        return _RaisingBackend() if pid == at and fault == "complete" else build()

    def grade_with_fault(task, problem, answer):
        if problem.id == at and fault == "grade":
            raise RuntimeError("grade bug")
        return grade(task, problem, answer)

    if fault == "transcript-dir":
        (out / "transcripts" / f"{at}.jsonl").mkdir(parents=True)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "grade", grade_with_fault)
        return run_benchmark(problems, method, factory, out, parallelism=parallelism)


def _row_key(row):
    """A row without its wall time, which no two runs share."""
    return dataclasses.replace(row, wall_ms=0)


class TestBatchNeverAborts:
    @settings(deadline=None, max_examples=25)
    @given(size=st.integers(1, 6), fault=st.sampled_from(FAULTS), macm=st.booleans(),
           data=st.data())
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_one_fault_costs_one_row(self, parallelism, size, fault, macm, data):
        import tempfile

        from macm.backend import ScriptedBackend
        from macm.demo import algebra_problem, algebra_trace_path

        at = f"p{data.draw(st.integers(0, size - 1), label='faulty problem')}"
        if macm:
            method = MethodMACM()
            problems = [dataclasses.replace(algebra_problem(), id=f"p{i}") for i in range(size)]
            build = lambda: ScriptedBackend.from_file(algebra_trace_path())  # noqa: E731
        else:
            method = MethodIO()
            problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer=str(7 + i % 2))
                        for i in range(size)]
            build = lambda: scripted(solver=["Answer: 7"])  # noqa: E731
        with tempfile.TemporaryDirectory() as tmp:
            clean = _faulty_run(problems, method, build, Path(tmp) / "clean", parallelism)
            out = Path(tmp) / "faulty"
            report = _faulty_run(problems, method, build, out, parallelism, fault, at)

            assert [r.id for r in report.rows] == [p.id for p in problems]
            for row, clean_row in zip(report.rows, clean.rows):
                if row.id == at:
                    assert row.outcome["error_kind"] == "InternalError"
                    assert row.outcome["detail"].startswith(
                        "IsADirectoryError: " if fault == "transcript-dir" else "RuntimeError: ")
                    assert not row.correct
                else:
                    assert _row_key(row) == _row_key(clean_row)
                if not (row.id == at and fault == "transcript-dir"):
                    assert read_transcript(out / row.transcript_path).is_final

    def test_transcript_path_that_is_a_directory(self, tmp_path):
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="7") for i in range(3)]
        (tmp_path / "transcripts" / "p1.jsonl").mkdir(parents=True)
        report = run_benchmark(problems, MethodIO(), lambda pid: scripted(solver=["Answer: 7"]),
                               tmp_path)
        assert [(r.id, r.correct) for r in report.rows] == \
            [("p0", True), ("p1", False), ("p2", True)]
        assert report.rows[1].outcome["error_kind"] == "InternalError"
        assert read_transcript(tmp_path / "transcripts" / "p2.jsonl").outcome == Solved("7")

    def test_backend_bug_at_parallelism_two(self, tmp_path):
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="7") for i in range(3)]
        report = run_benchmark(
            problems, MethodIO(),
            lambda pid: _RaisingBackend() if pid == "p1" else scripted(solver=["Answer: 7"]),
            tmp_path, parallelism=2)
        assert [(r.id, r.correct) for r in report.rows] == \
            [("p0", True), ("p1", False), ("p2", True)]
        assert sorted(p.name for p in (tmp_path / "transcripts").iterdir()) == \
            ["p0.jsonl", "p1.jsonl", "p2.jsonl"]
        assert read_transcript(tmp_path / "transcripts" / "p1.jsonl").outcome == \
            RunError("InternalError", "RuntimeError: complete bug")


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

    def test_row_keys_are_the_row_fields_in_order(self, tmp_path):
        report = self._report(tmp_path)
        (row,) = report_to_dict(report)["rows"]
        assert list(row) == [f.name for f in dataclasses.fields(ReportRow)]
        assert (row["queries"], row["choices"]) == (1, 1)
        assert report.aggregates["mean_choices"] == 1.0

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

    def test_round_trip(self, tmp_path, toy_problem, fast_macm):
        backend = scripted(
            thinker=[extraction_reply(["c"], "obj"), mining_reply(["m"]), "1. s"],
            judge=["True", "True"], executor=["Answer: 2"])
        _, transcript = run_macm(toy_problem, fast_macm, backend)
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
        short = MethodMACM(query_budget=2)

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
    transcript (run id "algebra", every timestamp 1700000000.0). Its format
    moves only on purpose: the agent_call lines gained every choice and the
    request's sampling when replay moved to transcripts, every other line
    took the one rule, {"event": <kind>, **its fields}, when the condition
    verdict event went, and its three condition_proposed lines went when a
    mined condition came to be logged once, as its verdict. These tests pin
    its bytes."""

    def test_decodes_to_typed_events(self):
        events = read_transcript(GOLDEN_ALGEBRA).events
        steps = [e for e in events if not isinstance(e, AgentCall)]
        assert [type(e) for e in steps] == [
            ObjectiveSet, ConditionAccepted, ConditionAccepted,
            ConditionDiscarded, SufficiencyVerdict,
            ConditionAccepted, ConditionAccepted, SufficiencyVerdict, PlanDesigned, Final]
        assert steps[1] == ConditionAccepted(
            "The function (x^2 + 5x + α)/(x^2 + 7x - 44) must be expressible as a "
            "quotient of two linear functions.", None)
        assert steps[3] == ConditionDiscarded("x^2 + 5x + α = k(x + 11)(x - 4)", 1)
        assert steps[4] == SufficiencyVerdict(1, False)
        assert steps[6] == ConditionAccepted("(4)^2 + 5×(4) + α₂ = 0", 2)
        assert steps[7] == SufficiencyVerdict(2, True)
        assert len(steps[8].steps) == 3
        assert steps[9] == Final(Solved("-102"))

    def test_file_without_a_meta_line_reads(self, tmp_path):
        path = tmp_path / "algebra.jsonl"
        path.write_bytes(GOLDEN_ALGEBRA.read_bytes().split(b"\n", 1)[1])
        transcript = read_transcript(path)
        assert transcript.events == read_transcript(GOLDEN_ALGEBRA).events
        assert re.fullmatch(r"[0-9a-f]{32}", transcript.run_id)

    @pytest.mark.parametrize("mangle, line, cause", [
        (lambda data: data[:-20], 21, json.JSONDecodeError),
        (lambda data: data[:data.index("α".encode()) + 1], 2, UnicodeDecodeError),
        (lambda data: data.replace(b'"agent_call"', b'"bogus"', 1), 2, KeyError),
        (lambda data: data.replace(b'"agent_call",', b'"agent_call", "extra": 1,', 1), 2,
         TypeError),
        (lambda data: re.sub(rb'"objective_set", "text": "[^"]*"', b'"objective_set"', data),
         3, TypeError),
        (lambda data: data.replace(b'"final",', b'"final", "extra": 1,'), 21, TypeError),
        (lambda data: data.replace(b'"answer": "-102"', b'"answer": "-102", "extra": 1'), 21,
         TypeError),
        (lambda data: data.replace(b'"sufficiency_verdict",', b'"sufficiency_verdict", "extra": 1,',
                                   1), 10, TypeError),
        (lambda data: re.sub(rb'"steps": \[[^]]*\]', b'"steps": {"x": 1}', data), 19,
         TypeError),
        (lambda data: data.replace(b'"more_choices": []', b'"more_choices": "ab"', 1), 2,
         TypeError),
        (lambda data: re.sub(rb'("objective_set", "text": )"[^"]*"', rb'\1" "', data), 3,
         ValueError),
        (lambda data: re.sub(rb'"steps": \["[^"]*"', b'"steps": [" "', data), 19, ValueError),
        (lambda data: re.sub(rb'("condition_accepted", "text": )"[^"]*"', rb'\1""',
                             data, count=1), 4, ValueError),
        (lambda data: re.sub(rb'("condition_discarded", "text": )"[^"]*"', rb'\1" "',
                             data, count=1), 8, ValueError),
        (lambda data: re.sub(rb'("condition_accepted", "text": "[^"]*", "round": )\d+',
                             rb'\g<1>0', data, count=1), 13, ValueError),
        (lambda data: re.sub(rb'("condition_discarded", "text": "[^"]*", "round": )\d+',
                             rb'\g<1>0', data, count=1), 8, ValueError),
        (lambda data: re.sub(rb'"steps": \[[^]]*\]', b'"steps": []', data), 19, ValueError),
        (lambda data: re.sub(rb'"event": "objective_set", "text": ("[^"]*")',
                             rb'"event": "state_change", "description": "objective set", '
                             rb'"data": {"objective": \1}', data), 3, KeyError),
        (lambda data: data.replace(b'"event": "sufficiency_verdict", "round": 1,',
                                   b'"event": "verdict", "subject": "sufficiency round 1",'),
         10, KeyError),
        (lambda data: data + b'{"event": "condition_discarded", "text": "x", "round": 3}\n'
                             b'{"event": "final", "outcome": {"kind": "unsolvable", '
                             b'"rounds_used": 3}}\n', 22, ValueError),
        (lambda data: data + data.splitlines(keepends=True)[-1], 22, ValueError),
        (lambda data: (lambda lines: b"".join([lines[1], lines[0], *lines[2:]]))(
            data.splitlines(keepends=True)), 2, KeyError),
        (lambda data: data.split(b"\n", 1)[0] + b"\n" + data, 2, KeyError),
        (lambda data: re.sub(rb'"condition_discarded", "text": "[^"]*"',
                             b'"duplicate_dropped", "text": ""', data), 8, ValueError),
        (lambda data: re.sub(rb'"condition_discarded", ("text": "[^"]*"), "round": 1',
                             rb'"duplicate_dropped", \1, "round": -3', data), 8, ValueError),
        (lambda data: data.replace(b'"round": 1}', b'"round": "two"}', 1), 8, ValueError),
        (lambda data: re.sub(rb'("condition_accepted", "text": "[^"]*", "round": )\d+',
                             rb'\g<1>true', data, count=1), 13, ValueError),
        (lambda data: data.replace(b'"sufficiency_verdict", "round": 1,',
                                   b'"sufficiency_verdict", "round": 0,'), 10, ValueError),
        (lambda data: data.replace(b'"round": 1, "value": false', b'"round": 1, "value": "yes"'),
         10, ValueError),
        (lambda data: data.replace(b'"run_id": "algebra"', b'"run_id": ""'), 1, ValueError),
        (lambda data: data.replace(b', "run_id": "algebra"', b''), 1, KeyError),
        (lambda data: data.replace(b'"role": "thinker"', b'"role": 5', 1), 2, TypeError),
        (lambda data: data.replace(b'"tokens_in": 0', b'"tokens_in": "many"', 1), 2, TypeError),
        (lambda data: data.replace(b'"more_choices": []', b'"more_choices": [1]', 1), 2,
         TypeError),
    ], ids=["torn", "torn-inside-a-character", "unknown-kind", "extra-key", "missing-field",
            "final-extra-key", "final-outcome-extra-key", "sufficiency-extra-key",
            "plan-steps-object", "more-choices-text", "blank-objective", "blank-plan-step",
            "blank-accepted", "blank-discarded", "accepted-round-0", "discarded-round-0",
            "no-steps", "state-change-line", "old-verdict-line", "event-after-final",
            "second-final", "meta-not-first", "meta-twice", "blank-dropped",
            "dropped-round-negative", "round-as-text", "accepted-round-bool",
            "sufficiency-round-0", "sufficiency-value-text", "meta-blank-run-id",
            "meta-no-run-id", "call-role-number", "call-tokens-in-text",
            "call-more-choices-not-text"])
    def test_bad_line_raises_corrupt_transcript(self, tmp_path, mangle, line, cause):
        path = tmp_path / "algebra.jsonl"
        path.write_bytes(mangle(GOLDEN_ALGEBRA.read_bytes()))
        where = rf"{re.escape(str(path))}, line {line}:"
        with pytest.raises(CorruptTranscript, match=where) as info:
            read_transcript(path)
        assert isinstance(info.value.__cause__, cause)

    def test_older_file_with_proposal_lines_replays_but_does_not_read(self, tmp_path, capsys):
        from macm.agents import parse_candidates
        from macm.backend import json_lines
        from macm.cli import main
        from macm.demo import ALGEBRA_GOLD, ALGEBRA_QUESTION

        # The file as it was written while each mined candidate also had a
        # condition_proposed line, right after its Thinker mine call.
        lines, rnd = [], 0
        for line in GOLDEN_ALGEBRA.read_bytes().splitlines(keepends=True):
            lines.append(line)
            data = json.loads(line)
            if data["event"] == "agent_call" and "Derive new conditions" in data["prompt"]:
                rnd += 1
                lines.append(json_lines(
                    {"event": "condition_proposed", "text": text, "round": rnd}
                    for text in parse_candidates(data["raw_response"])))
        older = tmp_path / "older.jsonl"
        older.write_bytes(b"".join(lines))
        assert len(older.read_bytes().splitlines()) == 24

        dataset = tmp_path / "algebra.jsonl"
        dataset.write_text(json.dumps({"id": "algebra", "question": ALGEBRA_QUESTION,
                                       "answer": ALGEBRA_GOLD}) + "\n")
        for name, source in [("golden", GOLDEN_ALGEBRA), ("older", older)]:
            assert main(["bench", "--dataset", str(dataset), "--backend", f"replay:{source}",
                         "--out", str(tmp_path / name)]) == 0
        report = (tmp_path / "golden" / "report.csv").read_bytes()
        assert report == (tmp_path / "older" / "report.csv").read_bytes()
        assert b",True," in report
        with pytest.raises(CorruptTranscript, match=rf"{re.escape(str(older))}, line 7:"):
            read_transcript(older)

    def test_rewrites_byte_for_byte(self, tmp_path):
        path = tmp_path / "algebra.jsonl"
        write_transcript(read_transcript(GOLDEN_ALGEBRA), path)
        assert path.read_bytes() == GOLDEN_ALGEBRA.read_bytes()

    def test_fresh_run_writes_the_same_bytes(self, tmp_path, monkeypatch):
        from macm import agents
        from macm.backend import ScriptedBackend
        from macm.demo import algebra_problem, algebra_trace_path

        monkeypatch.setattr(agents, "now", lambda: GOLDEN_TIMESTAMP)
        _, transcript = run_macm(dataclasses.replace(algebra_problem(), id="algebra"),
                                 MethodMACM(), ScriptedBackend.from_file(algebra_trace_path()))
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

        points = sweep_queries(problems, MethodIO(), {"n": [1, 3]}, lambda _: factory, tmp_path)
        assert [report.aggregates["mean_choices"] for _, report in points] == [1, 4]
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
                               lambda _: factory, tmp_path)
        (_, first), (_, second) = points
        assert first.aggregates["mean_choices"] <= second.aggregates["mean_choices"]

    def test_grid_applies_to_the_base_method_and_sampling(self):
        base = MethodMACM(format_retries=0, query_budget=9)
        method = with_knobs(base, {"max_iterations": 2})
        assert method == MethodMACM(max_iterations=2, format_retries=0, query_budget=9)
        assert method.prompts is base.prompts
        cot = MethodCoT(l=2, temperature=0.0)
        assert with_knobs(cot, {"n": 3}) == MethodCoT(l=2, n=3, temperature=0.0)
        for target, knobs in ((base, {"max_iterations": 2, "n": 3}),
                              (cot, {"n": 3, "max_iterations": 2}), (cot, {"v": 4})):
            with pytest.raises(ValueError, match="does not take"):
                with_knobs(target, knobs)

    def test_temperature_is_stored_as_a_float(self):
        for method in (MethodIO(), MethodMACM()):
            tuned = with_knobs(method, {"temperature": 0})
            assert tuned.temperature == 0 and type(tuned.temperature) is float

    @pytest.mark.parametrize("knobs", [{"n": True}, {"n": 1.5}, {"n": "2"}, {"n": None},
                                       {"temperature": "hot"}, {"temperature": False}])
    def test_value_of_the_wrong_type_rejected(self, knobs):
        (knob,) = knobs
        with pytest.raises(ValueError, match=f"^{knob} must be "):
            with_knobs(MethodIO(), knobs)

    @pytest.mark.parametrize("grid", [{"n": 3}, "n", {"n": []}, {"n": ["a"]}, {"n": [True]},
                                      {}, {"v": [2]}])
    def test_malformed_grid_rejected_before_any_point_runs(self, grid, tmp_path, toy_problem):
        with pytest.raises(ValueError):
            sweep_queries([toy_problem], MethodIO(), grid, lambda pid: None, tmp_path / "out")
        assert not (tmp_path / "out").exists()

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
    """A bench replays from an earlier bench's transcripts: replay:<out>/transcripts."""

    def test_replay_reproduces_csv_bytes(self, tmp_path):
        from macm.harness import _report_csv_text
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer=str(i))
                    for i in range(10)]
        script = {"roles": {"solver": [{"reply": "Answer: 0"}]}}
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script))

        rec_counter = QueryCounter()
        rec_factory = make_backend_factory(f"scripted:{script_path}", rec_counter)
        recorded = run_benchmark(problems, MethodIO(), rec_factory, tmp_path / "rec")

        replay_counter = QueryCounter()
        replay_factory = make_backend_factory(f"replay:{tmp_path / 'rec' / 'transcripts'}",
                                              replay_counter)
        replayed = run_benchmark(problems, MethodIO(), replay_factory, tmp_path / "rep")

        assert _report_csv_text(recorded) == _report_csv_text(replayed)
        assert replay_counter.requests == rec_counter.requests

    def test_replay_into_the_out_it_reads_from(self, tmp_path, monkeypatch):
        # Each problem's transcript is read whole when its backend is built,
        # before its run writes the new one over it.
        from macm import agents
        monkeypatch.setattr(agents, "now", lambda: GOLDEN_TIMESTAMP)
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="7") for i in range(4)]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps({"roles": {"solver": ["Answer: 7", "Answer: 7"]}}))
        method = MethodIO(n=2)
        out = tmp_path / "out"
        write_report(run_benchmark(problems, method,
                                   make_backend_factory(f"scripted:{script_path}"), out), out)
        # report.json is left out: it holds each row's wall time.
        files = ["report.csv", *(f"transcripts/{p.id}.jsonl" for p in problems)]
        before = [(out / name).read_bytes() for name in files]
        for parallelism in (1, 2):
            replayed = run_benchmark(problems, method,
                                     make_backend_factory(f"replay:{out / 'transcripts'}"),
                                     out, parallelism=parallelism)
            write_report(replayed, out)
            assert [(out / name).read_bytes() for name in files] == before

    def test_missing_cassette_becomes_error_row(self, tmp_path):
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="0") for i in range(3)]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps({"roles": {"solver": [{"reply": "Answer: 0"}]}}))
        recorded = run_benchmark(
            problems, MethodIO(), make_backend_factory(f"scripted:{script_path}", QueryCounter()),
            tmp_path / "rec")
        transcripts = tmp_path / "rec" / "transcripts"
        (transcripts / "p1.jsonl").unlink()

        out = tmp_path / "rep"
        replayed = run_benchmark(problems, MethodIO(),
                                 make_backend_factory(f"replay:{transcripts}", QueryCounter()),
                                 out)

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
        (lambda lines: [*lines[:-1], lines[-1][:len(lines[-1]) // 2]], 4),
        (lambda lines: [lines[0], json.dumps({k: v for k, v in json.loads(lines[1]).items()
                                              if k != "prompt"}), *lines[2:]], 2),
        (lambda lines: [lines[0], json.dumps({
            "seq": 0, "role": "solver", "request_messages": [{"role": "user", "content": "q1"}],
            "sampling": {"n": 2, "temperature": 0.7, "max_tokens": 512},
            "choices": ["Answer: 0", "Answer: 0"], "tokens_in": 0, "tokens_out": 0}),
            *lines[2:]], 2),
        (lambda lines: [lines[0], json.dumps({**json.loads(lines[1]), "prompt": 5}),
                        *lines[2:]], 2),
    ], ids=["torn-last-line", "no-prompt", "old-cassette-line", "prompt-not-text"])
    def test_corrupt_cassette_becomes_error_row(self, tmp_path, corrupt, line):
        problems = [Problem(id=f"p{i}", question=f"q{i}", gold_answer="0") for i in range(3)]
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps({"roles": {"solver": ["Answer: 0", "Answer: 0"]}}))
        method = MethodIO(n=2)  # two requests: n choices, then a select
        recorded = run_benchmark(
            problems, method, make_backend_factory(f"scripted:{script_path}", QueryCounter()),
            tmp_path / "rec")
        transcripts = tmp_path / "rec" / "transcripts"
        transcript = transcripts / "p1.jsonl"
        lines = transcript.read_text().splitlines()
        assert [json.loads(text)["event"] for text in lines] == \
            ["meta", "agent_call", "agent_call", "final"]
        transcript.write_text("\n".join(corrupt(lines)))

        replayed = run_benchmark(problems, method,
                                 make_backend_factory(f"replay:{transcripts}", QueryCounter()),
                                 tmp_path / "rep")

        assert [r.id for r in replayed.rows] == ["p0", "p1", "p2"]
        error = replayed.rows[1]
        assert error.outcome["error_kind"] == "BackendFailure"
        assert error.outcome["detail"].startswith(f"{transcript}, line {line}: ")
        assert not error.correct and error.queries == 0
        assert [(r.outcome, r.correct, r.queries) for r in (replayed.rows[0], replayed.rows[2])] \
            == [(r.outcome, r.correct, r.queries) for r in (recorded.rows[0], recorded.rows[2])]
