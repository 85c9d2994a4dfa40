import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from macm import harness
from macm.backend import ScriptedBackend
from macm.cli import EXIT_FOR_ERROR, _method, build_parser, main
from macm.demo import ALGEBRA_GOLD, ALGEBRA_QUESTION, algebra_trace_path
from macm.domain import ERROR_KINDS, RunError, Unsolvable
from macm.harness import read_transcript

from conftest import extraction_reply, mining_reply, random_script


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def solver_script(path, replies):
    path.write_text(json.dumps({"roles": {"solver": [{"reply": r} for r in replies]}}))


def agent_calls(out, name="p0.jsonl"):
    """The agent_call lines of the one transcript ``name`` under ``out``."""
    (transcript,) = out.rglob(name)
    lines = map(json.loads, transcript.read_text().splitlines())
    return [line for line in lines if line["event"] == "agent_call"]


def dataset_flags(command, dataset, grid):
    """The flags that give ``command`` its problems: sweep also takes a grid."""
    return {"solve": ["--problem-file", str(dataset)],
            "bench": ["--dataset", str(dataset)],
            "sweep": ["--dataset", str(dataset), "--grid", grid]}[command]


class TestSolve:
    def test_macm_scripted_trace(self, tmp_path, capsys):
        code = main(["solve", "--question", ALGEBRA_QUESTION,
                     "--backend", f"scripted:{algebra_trace_path()}",
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == {"kind": "solved", "answer": "-102"}
        assert payload["queries"] == payload["choices"] == 10
        assert (tmp_path / "cli.jsonl").exists()

    def test_empty_question_is_a_configuration_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["solve", "--question", "", "--backend", f"scripted:{algebra_trace_path()}",
                     "--out", str(out)])
        assert code == 2
        assert "error: problem question must be nonempty" in capsys.readouterr().err
        assert not out.exists()

    def test_io_method(self, tmp_path, capsys):
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 2"])
        code = main(["solve", "--question", "Compute 1+1.", "--method", "io",
                     "--backend", f"scripted:{script}"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"]["answer"] == "2"

    def test_budget_exceeded_exit_code(self, capsys):
        code = main(["solve", "--question", ALGEBRA_QUESTION,
                     "--backend", f"scripted:{algebra_trace_path()}",
                     "--query-budget", "1"])
        assert code == 4
        assert json.loads(capsys.readouterr().out)["outcome"]["kind"] == "error"

    def test_backend_exhaustion_exit_code(self, tmp_path, capsys):
        script = tmp_path / "s.json"
        script.write_text(json.dumps({"roles": {"thinker": [], "judge": [], "executor": []}}))
        code = main(["solve", "--question", "q", "--format-retries", "0",
                     "--backend", f"scripted:{script}"])
        assert code == 3

    def test_parse_failure_exit_code(self, tmp_path, capsys):
        script = tmp_path / "s.json"
        solver_script(script, ["   "])
        code = main(["solve", "--question", "q", "--method", "io",
                     "--backend", f"scripted:{script}"])
        assert code == 1
        assert EXIT_FOR_ERROR.keys() == set(ERROR_KINDS)

    @pytest.mark.parametrize("cassettes", ["missing-dir", "torn-line"])
    def test_unbuildable_backend_is_an_error_outcome(self, cassettes, tmp_path, capsys):
        target = tmp_path / "cassettes"
        if cassettes == "torn-line":
            target.mkdir()
            (target / "cli.jsonl").write_text('{"seq": 0, "role": "thin')
        out = tmp_path / "out"
        code = main(["solve", "--question", "q", "--backend", f"replay:{target}",
                     "--out", str(out)])
        assert code == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"]["kind"] == "error"
        assert payload["outcome"]["error_kind"] == "BackendFailure"
        assert payload["queries"] == 0
        outcome = read_transcript(out / "cli.jsonl").outcome
        assert isinstance(outcome, RunError) and outcome.kind == "BackendFailure"
        if cassettes == "torn-line":
            assert outcome.detail.startswith(f"{target / 'cli.jsonl'}, line 1: ")

    def test_internal_error_exit_code(self, tmp_path, capsys, monkeypatch):
        from macm import harness

        def factory(problem_id):
            raise RuntimeError("a bug")

        monkeypatch.setattr(harness, "make_backend_factory", lambda *args, **kwargs: factory)
        code = main(["solve", "--question", "q", "--backend", "http", "--out", str(tmp_path)])
        assert code == EXIT_FOR_ERROR["InternalError"] == 5
        payload = json.loads(capsys.readouterr().out)
        assert payload["outcome"] == {"kind": "error", "error_kind": "InternalError",
                                      "detail": "RuntimeError: a bug"}
        assert read_transcript(tmp_path / "cli.jsonl").outcome == \
            RunError("InternalError", "RuntimeError: a bug")

    def test_out_that_cannot_be_made_is_refused_before_any_call(self, tmp_path, capsys,
                                                                monkeypatch):
        def no_backend(problem_id):
            pytest.fail("a backend was built")

        # The factory is made first, so a malformed script is refused before
        # --out is; no backend is built from it.
        monkeypatch.setattr(harness, "make_backend_factory", lambda *args: no_backend)
        out = tmp_path / "outfile"
        out.write_text("not a directory\n")
        code = main(["solve", "--question", ALGEBRA_QUESTION,
                     "--backend", f"scripted:{algebra_trace_path()}", "--out", str(out)])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert out.read_text() == "not a directory\n"

    def test_unknown_backend_selector(self, capsys):
        code = main(["solve", "--question", "q", "--backend", "bogus"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_problem_file_input(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "a", "question": "q", "answer": "3"}])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 3"])
        code = main(["solve", "--problem-file", str(dataset), "--method", "io",
                     "--backend", f"scripted:{script}"])
        assert code == 0

    def test_record_dir_then_replay(self, tmp_path, capsys):
        # solve records its run in --out/<id>.jsonl; replay:<that dir> reads it.
        out = tmp_path / "out"
        solve = ["solve", "--question", ALGEBRA_QUESTION]
        assert main(solve + ["--backend", f"scripted:{algebra_trace_path()}",
                             "--out", str(out)]) == 0
        recorded = json.loads(capsys.readouterr().out)
        assert [p.name for p in out.iterdir()] == ["cli.jsonl"]
        for target in (out, out / "cli.jsonl"):
            assert main(solve + ["--backend", f"replay:{target}"]) == 0
            assert json.loads(capsys.readouterr().out) == recorded


@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_prompts_dir_overrides_macm_prompts(command, tmp_path, capsys):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    (prompts / "prompt0.txt").write_text("OVERRIDDEN EXTRACTION PROMPT\n{question}")
    script = tmp_path / "s.json"
    script.write_text(json.dumps({"roles": {
        "thinker": [{"reply": extraction_reply(["x = 1"], "find x + 1"),
                     "expect_substring": "OVERRIDDEN EXTRACTION PROMPT"},
                    mining_reply(["x + 1 = 2"]), "1. add"],
        "judge": ["True", "True"],
        "executor": ["Answer: 2"]}}))
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "If x = 1, find x + 1.", "answer": "2"}])
    out = tmp_path / "out"
    source = {"solve": ["--problem-file", str(dataset)],
              "bench": ["--dataset", str(dataset)],
              "sweep": ["--dataset", str(dataset), "--grid", '{"max_iterations": [5]}']}
    assert main([command, *source[command], "--method", "macm",
                 "--backend", f"scripted:{script}",
                 "--prompts-dir", str(prompts), "--out", str(out)]) == 0
    transcript = out / {"solve": "p0.jsonl", "bench": "transcripts/p0.jsonl",
                        "sweep": "point_max_iterations5/transcripts/p0.jsonl"}[command]
    final = json.loads(transcript.read_text().splitlines()[-1])
    assert final["outcome"] == {"kind": "solved", "answer": "2"}
    if command == "sweep":
        assert (out / "sweep.csv").read_text().splitlines()[1] == "5,6.0,1.0"


@pytest.mark.parametrize("method", ["io", "cot", "sc-cot"])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_sampling_flags_reach_baseline_requests(command, method, tmp_path, capsys):
    # io: n choices, then a select request; cot: one link; sc-cot: 2 chains + vote.
    script = tmp_path / "s.json"
    solver_script(script, ["Answer: 7", "Answer: 7", "7"])
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    grid = '{"n": [2]}' if method == "io" else '{"l": [2]}'
    source = {"solve": ["--problem-file", str(dataset)],
              "bench": ["--dataset", str(dataset)],
              "sweep": ["--dataset", str(dataset), "--grid", grid]}
    voters = ["--v", "2"] if method == "sc-cot" else []
    assert main([command, *source[command], "--method", method, *voters,
                 "--n", "2", "--temperature", "0.3",
                 "--backend", f"scripted:{script}", "--out", str(tmp_path / "out")]) == 0
    requests = agent_calls(tmp_path / "out")
    assert all(r["temperature"] == 0.3 for r in requests)
    assert requests[0]["n"] == 2


@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_sampling_flags_reach_every_macm_request(command, tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "algebra", "question": ALGEBRA_QUESTION,
                           "answer": ALGEBRA_GOLD}])
    assert main([command, *dataset_flags(command, dataset, '{"max_iterations": [5]}'),
                 "--method", "macm", "--temperature", "0.3",
                 "--backend", f"scripted:{algebra_trace_path()}",
                 "--out", str(tmp_path / "out")]) == 0
    entries = agent_calls(tmp_path / "out", "algebra.jsonl")
    assert {e["role"] for e in entries} == {"thinker", "judge", "executor"}
    max_tokens = {"thinker": 512, "judge": 4, "executor": 256}
    for entry in entries:
        assert (entry["n"], entry["temperature"], entry["max_tokens"]) == \
            (1, 0.3, max_tokens[entry["role"]])


@pytest.mark.parametrize("flag", ["--query-budget", "--prompts-dir"])
@pytest.mark.parametrize("method", ["io", "cot", "sc-cot"])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_macm_only_flags_are_refused_for_baselines(command, method, flag, tmp_path, capsys):
    script = tmp_path / "s.json"
    solver_script(script, ["Answer: 7", "Answer: 7", "7"])
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    value = {"--query-budget": "1", "--prompts-dir": str(tmp_path)}[flag]
    out = tmp_path / "out"
    assert main([command, *dataset_flags(command, dataset, '{"l": [2]}'),
                 "--method", method, flag, value,
                 "--backend", f"scripted:{script}", "--out", str(out)]) == 2
    assert f"--method {method} does not take" in capsys.readouterr().err
    assert not out.exists()


class TestBench:
    def _dataset(self, tmp_path):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [
            {"id": "p0", "question": "q0", "answer": "7", "category": "Alg"},
            {"id": "p1", "question": "q1", "answer": "8", "category": "Alg"},
        ])
        return dataset

    def test_end_to_end(self, tmp_path, capsys):
        dataset = self._dataset(tmp_path)
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        out = tmp_path / "out"
        code = main(["bench", "--dataset", str(dataset), "--method", "io",
                     "--backend", f"scripted:{script}", "--out", str(out)])
        assert code == 0
        assert "accuracy 50.00% (1/2)" in capsys.readouterr().out
        for name in ("report.json", "report.csv", "summary.md"):
            assert (out / name).exists()
        assert (out / "transcripts" / "p0.jsonl").exists()

    def test_missing_dataset_exit_code(self, tmp_path, capsys):
        code = main(["bench", "--dataset", str(tmp_path / "nope.jsonl"),
                     "--backend", "http"])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--sample", "0"], ["--sample", "-1"],
                                      ["--sample", "1.5"], ["--parallelism", "0"]])
    def test_out_of_range_flag_exit_code(self, flag, tmp_path, capsys):
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        code = main(["bench", "--dataset", str(self._dataset(tmp_path)), "--method", "io",
                     "--backend", f"scripted:{script}", "--out", str(tmp_path / "out"), *flag])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_dataset_exit_code(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("not json\n")
        code = main(["bench", "--dataset", str(dataset), "--backend", "http"])
        assert code == 2

    @pytest.mark.parametrize("field", [{"answer": 7}, {"category": 3}, {"category": ["a"]}])
    def test_field_of_wrong_type_exit_code(self, field, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p0", "question": "q0", "answer": "7", "category": "Alg"},
                              {"id": "p1", "question": "q1", **field}])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        bench = ["bench", "--dataset", str(dataset), "--method", "io",
                 "--backend", f"scripted:{script}"]
        assert main([*bench, "--out", str(tmp_path / "strict")]) == 2
        assert "error: line 2: " in capsys.readouterr().err
        assert not (tmp_path / "strict").exists()
        assert main([*bench, "--lenient", "--out", str(tmp_path / "lenient")]) == 0
        rows = json.loads((tmp_path / "lenient" / "report.json").read_text())["rows"]
        assert [r["id"] for r in rows] == ["p0"]
        assert (tmp_path / "lenient" / "summary.md").exists()

    @pytest.mark.parametrize("task, lines", [
        ("game24", ["4 6 8 1", "1 2 3", "3 3 8 8"]),
        ("sorting", ['{"input": [3, 1]}', '{"input": [1, "2"]}', '{"input": [2]}'])])
    def test_lenient_applies_to_every_task(self, task, lines, tmp_path, capsys):
        dataset = tmp_path / "d.txt"
        dataset.write_text("".join(line + "\n" for line in lines))
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 1"])
        bench = ["bench", "--task", task, "--dataset", str(dataset), "--method", "io",
                 "--backend", f"scripted:{script}"]
        assert main([*bench, "--out", str(tmp_path / "strict")]) == 2
        assert "error: line 2: " in capsys.readouterr().err
        out = tmp_path / "lenient"
        assert main([*bench, "--lenient", "--out", str(out)]) == 0
        assert "skipping line 2: " in capsys.readouterr().err
        ids = [row.split(",")[0] for row in (out / "report.csv").read_text().splitlines()[1:]]
        assert ids == [f"{task}-1", f"{task}-3"]

    def test_record_then_replay_matches(self, tmp_path, capsys):
        dataset = self._dataset(tmp_path)
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])

        assert main(["bench", "--dataset", str(dataset), "--method", "io",
                     "--backend", f"scripted:{script}", "--out", str(tmp_path / "rec")]) == 0
        assert main(["bench", "--dataset", str(dataset), "--method", "io",
                     "--backend", f"replay:{tmp_path / 'rec' / 'transcripts'}",
                     "--out", str(tmp_path / "rep")]) == 0
        rec = (tmp_path / "rec" / "report.csv").read_bytes()
        rep = (tmp_path / "rep" / "report.csv").read_bytes()
        assert rec == rep

    def test_count_choices(self, tmp_path, capsys):
        # I-O with n = 3: one request for three choices, then one select request.
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7", "Answer: 7"])
        out = tmp_path / "out"
        assert main(["bench", "--dataset", str(dataset), "--method", "io", "--n", "3",
                     "--backend", f"scripted:{script}", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert [(r["queries"], r["choices"]) for r in report["rows"]] == [(2, 4)]
        assert (report["aggregates"]["mean_queries"], report["aggregates"]["mean_choices"]) \
            == (2.0, 4.0)
        assert "mean queries 2.00, mean choices 4.00" in capsys.readouterr().out

    def test_record_flag_is_gone(self, tmp_path, capsys):
        # A run is recorded in its transcripts; replay:<out>/transcripts reads them.
        with pytest.raises(SystemExit) as info:
            main(["bench", "--dataset", str(self._dataset(tmp_path)), "--method", "io",
                  "--backend", "http", "--record", str(tmp_path / "cassettes"),
                  "--out", str(tmp_path / "out")])
        assert info.value.code == 2
        assert "--record" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "cassettes").exists()

    @pytest.mark.parametrize("bad_id", ["../escaped", "SCRATCH/abs"])
    def test_id_that_escapes_out_writes_nothing(self, bad_id, tmp_path, capsys):
        work = tmp_path / "work"
        work.mkdir()
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"},
                              {"id": bad_id.replace("SCRATCH", str(tmp_path)), "question": "q"}])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        out = work / "out"
        bench = ["bench", "--dataset", str(dataset), "--method", "io",
                 "--backend", f"scripted:{script}", "--out", str(out)]
        before = sorted(tmp_path.rglob("*"))
        assert main(bench) == 2
        assert "error: line 2: problem id" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert main(bench + ["--lenient"]) == 0
        assert sorted(p for p in tmp_path.rglob("*") if out not in (p, *p.parents)) == before
        assert [p.name for p in (out / "transcripts").iterdir()] == ["p0.jsonl"]

    def test_count_choices_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["bench", "--dataset", str(self._dataset(tmp_path)), "--method", "io",
                  "--backend", "http", "--out", str(tmp_path / "out"), "--count-choices"])
        assert info.value.code == 2
        assert "--count-choices" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_transcript_that_cannot_be_written_is_an_internal_error_row(self, tmp_path,
                                                                        capsys):
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        out = tmp_path / "out"
        (out / "transcripts" / "p0.jsonl").mkdir(parents=True)
        assert main(["bench", "--dataset", str(self._dataset(tmp_path)), "--method", "io",
                     "--backend", f"scripted:{script}", "--out", str(out)]) == 0
        rows = json.loads((out / "report.json").read_text())["rows"]
        assert [r["outcome"].get("error_kind") for r in rows] == ["InternalError", None]
        assert rows[0]["outcome"]["detail"] == \
            f"IsADirectoryError: [Errno 21] Is a directory: '{out / 'transcripts' / 'p0.jsonl'}'"
        assert (out / "transcripts" / "p1.jsonl").is_file()

    def test_empty_selection_is_an_empty_report(self, tmp_path, capsys):
        # No incorrect rows to retry: bench succeeds with an empty report,
        # while sweep refuses the empty selection.
        dataset = self._dataset(tmp_path)
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        all_correct = tmp_path / "all_correct.json"
        all_correct.write_text(json.dumps({"rows": [{"id": "p0", "correct": True},
                                                    {"id": "p1", "correct": True}]}))
        selection = ["--dataset", str(dataset), "--method", "io",
                     "--backend", f"scripted:{script}", "--filter-wrong-from", str(all_correct)]
        out = tmp_path / "out"
        assert main(["bench", *selection, "--out", str(out)]) == 0
        assert "accuracy 0.00% (0/0)" in capsys.readouterr().out
        assert (out / "report.csv").read_text().splitlines() == [
            "id,method,outcome_kind,correct,queries,transcript_path,category,refusal,"
            "needs_review"]
        assert main(["sweep", *selection, "--grid", '{"n": [1]}',
                     "--out", str(tmp_path / "sweep")]) == 2
        assert "sweep requires at least one problem" in capsys.readouterr().err

    def test_filter_wrong_from(self, tmp_path, capsys):
        dataset = self._dataset(tmp_path)
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        first = tmp_path / "first"
        assert main(["bench", "--dataset", str(dataset), "--method", "io",
                     "--backend", f"scripted:{script}", "--out", str(first)]) == 0

        retry_script = tmp_path / "s2.json"
        solver_script(retry_script, ["Answer: 8"])
        second = tmp_path / "second"
        assert main(["bench", "--dataset", str(dataset), "--method", "io",
                     "--backend", f"scripted:{retry_script}",
                     "--filter-wrong-from", str(first / "report.json"),
                     "--out", str(second)]) == 0
        report = json.loads((second / "report.json").read_text())
        assert [r["id"] for r in report["rows"]] == ["p1"]
        assert report["rows"][0]["correct"]

        malformed = tmp_path / "malformed.json"
        for text in ("not json", "{}", '{"rows": [{"id": "p1"}]}', '{"rows": 3}'):
            malformed.write_text(text)
            assert main(["bench", "--dataset", str(dataset), "--method", "io",
                         "--backend", f"scripted:{retry_script}",
                         "--filter-wrong-from", str(malformed),
                         "--out", str(tmp_path / "third")]) == 2
            assert f"{malformed}: not a report.json" in capsys.readouterr().err


# Scripted runs that replay: I-O with one and three choices, CoT, SC-CoT with
# sampling flags, and MACM with one format retry allowed.
REPLAYED_RUNS = {
    "io": ["--method", "io"],
    "io-n3": ["--method", "io", "--n", "3"],
    "cot": ["--method", "cot", "--l", "3"],
    "sc-cot": ["--method", "sc-cot", "--v", "2", "--n", "2", "--l", "3"],
    "macm": ["--method", "macm", "--format-retries", "1"],
}


@settings(max_examples=30, deadline=None)
@given(run=st.sampled_from(sorted(REPLAYED_RUNS)), seed=st.integers(0, 10_000))
def test_replaying_a_bench_reproduces_its_report_and_calls(run, seed, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("replay")
    rng = random.Random(seed)
    if run == "macm":
        backend, _ = random_script(seed)
        roles = {role: [e.reply for e in entries] for role, entries in backend.queues.items()}
        # A malformed verdict somewhere: its retry, or a ParseFailure, replays too.
        roles["judge"].insert(rng.randrange(len(roles["judge"]) + 1), "Maybe")
    else:
        roles = {"solver": rng.choices(["Answer: 7", "Answer: 8", "thinking", "7", "8"], k=12)}
    script = tmp / "s.json"
    script.write_text(json.dumps({"roles": roles}))
    dataset = tmp / "d.jsonl"
    write_jsonl(dataset, [{"id": f"p{i}", "question": f"q{i}", "answer": "7"} for i in range(3)])
    bench = ["bench", "--dataset", str(dataset), *REPLAYED_RUNS[run]]
    rec, rep = tmp / "rec", tmp / "rep"
    assert main(bench + ["--backend", f"scripted:{script}", "--out", str(rec)]) == 0
    assert main(bench + ["--backend", f"replay:{rec / 'transcripts'}", "--out", str(rep)]) == 0
    assert (rep / "report.csv").read_bytes() == (rec / "report.csv").read_bytes()
    for i in range(3):
        calls = [[dataclasses.replace(call, timestamp=0.0) for call in
                  read_transcript(out / "transcripts" / f"p{i}.jsonl").agent_calls()]
                 for out in (rec, rep)]
        assert calls[0] == calls[1]


class TestSweep:
    def test_grid_over_io(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7", "Answer: 7"])
        out = tmp_path / "sweep"
        code = main(["sweep", "--dataset", str(dataset), "--method", "io",
                     "--grid", '{"n": [1, 3]}',
                     "--backend", f"scripted:{script}", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,mean_queries,corrected_fraction"
        assert len(lines) == 3

    def test_grid_from_file(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7"])
        grid_file = tmp_path / "grid.json"
        grid_file.write_text('{"n": [1]}')
        code = main(["sweep", "--dataset", str(dataset), "--method", "io",
                     "--grid", f"@{grid_file}",
                     "--backend", f"scripted:{script}", "--out", str(tmp_path / "o")])
        assert code == 0

    def test_record_then_replay_per_point(self, tmp_path, capsys):
        # Each grid point writes <out>/<point dir>/transcripts/<id>.jsonl, and
        # replay:<out> reads each point from there, so the replayed sweep
        # equals the recorded one.
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": f"p{i}", "question": f"q{i}", "answer": "7"}
                              for i in range(6)])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7", "Answer: 7"])
        rec = tmp_path / "rec"
        sweep = ["sweep", "--dataset", str(dataset), "--method", "io",
                 "--grid", '{"n": [1, 3]}']
        assert main(sweep + ["--backend", f"scripted:{script}", "--out", str(rec)]) == 0
        assert main(sweep + ["--backend", f"replay:{rec}",
                             "--out", str(tmp_path / "rep")]) == 0
        recorded = (rec / "sweep.csv").read_bytes()
        assert recorded.decode().splitlines()[1:] == ["1,1.0,1.0", "3,4.0,1.0"]
        assert (tmp_path / "rep" / "sweep.csv").read_bytes() == recorded
        for point in ("point_n1", "point_n3"):
            assert sorted(p.name for p in (rec / point / "transcripts").iterdir()) == \
                [f"p{i}.jsonl" for i in range(6)]

    @pytest.mark.parametrize("method, grid, replies", [
        ("io", {"n": [1, 3]}, ["Answer: 4", "Answer: 4"]),
        ("sc-cot", {"temperature": [0, 0.7]}, ["Answer: 4"] * 5 + ["4"]),
    ], ids=["io-n", "sc-cot-temperature"])
    def test_each_point_is_the_bench_with_its_knobs(self, tmp_path, capsys, method, grid,
                                                    replies):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p1", "question": "What is 2 + 2?", "answer": "4"},
                              {"id": "p2", "question": "What is 3 + 3?", "answer": "6"}])
        script = tmp_path / "s.json"
        solver_script(script, replies)
        common = ["--method", method, "--dataset", str(dataset)]
        sweep = ["sweep", *common, "--grid", json.dumps(grid)]
        assert main(sweep + ["--backend", f"scripted:{script}",
                             "--out", str(tmp_path / "rec")]) == 0
        assert main(sweep + ["--backend", f"replay:{tmp_path / 'rec'}",
                             "--out", str(tmp_path / "rep")]) == 0
        ((knob, values),) = grid.items()
        for value in values:
            bench = tmp_path / f"bench_{value}"
            assert main(["bench", *common, f"--{knob}", str(value),
                         "--backend", f"scripted:{script}", "--out", str(bench)]) == 0
            expected = (bench / "report.csv").read_bytes()
            assert len(expected.splitlines()) == 3
            for out in ("rec", "rep"):
                point = tmp_path / out / f"point_{knob}{value}"
                assert (point / "report.csv").read_bytes() == expected
                assert {p.name for p in point.iterdir()} == \
                    {"report.csv", "report.json", "summary.md", "transcripts"}

    def test_bench_filters_the_wrong_rows_of_a_point(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": f"p{i}", "question": f"What is {i} + {i}?",
                               "answer": answer} for i, answer in enumerate("4642")])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 4", "Answer: 4"])
        rec = tmp_path / "rec"
        assert main(["sweep", "--method", "io", "--dataset", str(dataset), "--grid",
                     '{"n": [1, 3]}', "--backend", f"scripted:{script}", "--out", str(rec)]) == 0
        point = rec / "point_n1"
        rows = json.loads((point / "report.json").read_text())["rows"]
        wrong = [row["id"] for row in rows if not row["correct"]]
        assert wrong == ["p1", "p3"]
        out = tmp_path / "wrong"
        assert main(["bench", "--method", "io", "--dataset", str(dataset),
                     "--filter-wrong-from", str(point / "report.json"),
                     "--backend", f"replay:{point / 'transcripts'}", "--out", str(out)]) == 0
        assert [row["id"] for row in json.loads((out / "report.json").read_text())["rows"]] \
            == wrong
        header, *point_rows = (point / "report.csv").read_text().splitlines()
        assert (out / "report.csv").read_text().splitlines() == \
            [header] + [row for row in point_rows if row.split(",")[0] in wrong]

    def test_bad_grid_json_exit_code(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p0", "question": "q"}])
        code = main(["sweep", "--dataset", str(dataset), "--grid", "{oops",
                     "--backend", "http"])
        assert code == 2


# Which knobs each method takes, written out here rather than read from
# harness.METHOD_KNOBS, so that a wrong table fails these tests.
TAKES = {"io": {"n", "temperature"},
         "cot": {"n", "temperature", "l"},
         "sc-cot": {"n", "temperature", "l", "v"},
         "macm": {"temperature", "max_iterations", "format_retries", "query_budget"}}
KNOB_VALUES = {"n": 2, "l": 1, "v": 2, "temperature": 0.3, "max_iterations": 1,
               "format_retries": 0, "query_budget": 1}


def _knob_script(method):
    """A script on which each knob of ``method`` leaves a mark (see _KNOB_MARKS)."""
    if method == "io":
        return {"roles": {"solver": ["Answer: 7", "Answer: 7"]}}
    if method in ("cot", "sc-cot"):
        return {"roles": {"solver": ["thinking", "Answer: 7"] * 5 + ["7"]}}
    # One reply out of format first; then a condition is accepted each round
    # and the objective is never reached.
    return {"roles": {
        "thinker": ["no conditions here", extraction_reply(["x = 7"], "find x")]
        + [mining_reply([f"m{r}"]) for r in range(1, 6)],
        "judge": ["True", "False"] * 5}}


def _error(outcome, kind):
    return isinstance(outcome, RunError) and outcome.kind == kind


# What each knob at its KNOB_VALUES value does to the recorded requests and the
# run's outcome; none of these holds with the knob left at its default.
_KNOB_MARKS = {
    "n": lambda entries, outcome: entries[0]["n"] == 2,
    "temperature": lambda entries, outcome: all(e["temperature"] == 0.3 for e in entries),
    "l": lambda entries, outcome: (
        len(entries) == 1 and _error(outcome, "ParseFailure")),
    "v": lambda entries, outcome: (
        "solved 2 times" in entries[-1]["prompt"]),
    "max_iterations": lambda entries, outcome: outcome == Unsolvable(1),
    "format_retries": lambda entries, outcome: (
        len(entries) == 1 and _error(outcome, "ParseFailure")),
    "query_budget": lambda entries, outcome: _error(outcome, "BudgetExceeded"),
}


def _knob_run(command, method, knob, value, tmp_path):
    """Run ``command`` with ``knob`` set: as a grid key for sweep, as a flag
    otherwise (for sweep-flag, beside a grid the method takes)."""
    script = tmp_path / "s.json"
    script.write_text(json.dumps(_knob_script(method)))
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    if command == "sweep":
        grid, flag = json.dumps({knob: [value]}), []
    else:
        grid, flag = '{"temperature": [0.7]}', [f"--{knob.replace('_', '-')}={value}"]
    command = command.removesuffix("-flag")
    return main([command, *dataset_flags(command, dataset, grid), *flag, "--method", method,
                 "--backend", f"scripted:{script}", "--out", str(tmp_path / "out")])


@pytest.mark.parametrize("method, knob", [(m, k) for m in TAKES for k in sorted(TAKES[m])])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_knob_the_method_takes_reaches_the_run(command, method, knob, tmp_path, capsys):
    code = _knob_run(command, method, knob, KNOB_VALUES[knob], tmp_path)
    entries = agent_calls(tmp_path / "out")
    (transcript,) = (tmp_path / "out").rglob("p0.jsonl")
    outcome = read_transcript(transcript).outcome
    assert _KNOB_MARKS[knob](entries, outcome), (entries, outcome)
    failed = command == "solve" and isinstance(outcome, RunError)
    assert code == (EXIT_FOR_ERROR[outcome.kind] if failed else 0)


@pytest.mark.parametrize("method, knob", [(m, k) for m in TAKES for k in sorted(KNOB_VALUES)
                                          if k not in TAKES[m]])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep", "sweep-flag"])
def test_knob_the_method_does_not_take_is_refused(command, method, knob, tmp_path, capsys):
    assert _knob_run(command, method, knob, KNOB_VALUES[knob], tmp_path) == 2
    assert f"--method {method} does not take '{knob}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_query_budget_below_one_is_refused(command, value, tmp_path, capsys):
    assert _knob_run(command, "macm", "query_budget", value, tmp_path) == 2
    assert "query_budget must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("method", ["io", "sc-cot", "macm"])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_non_finite_temperature_is_refused(command, method, value, tmp_path, capsys):
    assert _knob_run(command, method, "temperature", float(value), tmp_path) == 2
    assert "temperature must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("script, message", [
    ([], "a script is "),
    ({"roles": {"solver": [{"expect_substring": "q"}]}}, "role 'solver' entry 0"),
    ({"roles": {"solver": ["Answer: 7", {"reply": 5}]}}, "role 'solver' entry 1"),
], ids=["not-an-object", "no-reply", "reply-not-text"])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_a_malformed_script_is_refused_before_anything_is_written(command, script, message,
                                                                  tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text(json.dumps(script))
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    out = tmp_path / "out"
    assert main([command, *dataset_flags(command, dataset, '{"n": [1]}'), "--method", "io",
                 "--backend", f"scripted:{path}", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("env, message", [
    ({"MACM_API_KEY": "k"}, "no base URL configured"),
    ({"MACM_BASE_URL": "http://127.0.0.1:9", "MACM_API_KEY": ""}, "no API key configured"),
    ({"MACM_BASE_URL": "ftp://x", "MACM_API_KEY": "k"}, "is not an http:// or https:// URL"),
], ids=["no-base-url", "empty-api-key", "ftp-base-url"])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_a_missing_or_malformed_http_setting_is_a_configuration_error(
        command, env, message, tmp_path, capsys, monkeypatch):
    for var in ("MACM_BASE_URL", "MACM_API_KEY", "MACM_MODEL"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    out = tmp_path / "out"
    assert main([command, *dataset_flags(command, dataset, '{"n": [1]}'), "--method", "io",
                 "--backend", "http", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# In-range values of each knob; temperature also as an integer, which a grid may give.
_KNOB_DRAWS = {"n": st.integers(1, 9), "l": st.integers(1, 9), "v": st.integers(1, 9),
               "temperature": st.integers(0, 2) | st.floats(0, 2),
               "max_iterations": st.integers(1, 9), "format_retries": st.integers(0, 4),
               "query_budget": st.integers(1, 99)}


@pytest.mark.parametrize("method", list(TAKES))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_a_knob_is_a_field_of_its_method(method, data):
    cls = harness.METHODS[method]
    chosen = data.draw(st.lists(st.sampled_from(sorted(TAKES[method])), unique=True))
    knobs = {knob: data.draw(_KNOB_DRAWS[knob], label=knob) for knob in chosen}
    expected = cls(**{knob: harness.KNOBS[knob](value) for knob, value in knobs.items()})
    assert harness.with_knobs(cls(), knobs) == expected
    flags = [f"--{knob.replace('_', '-')}={value}" for knob, value in knobs.items()]
    args = build_parser().parse_args(["bench", "--dataset", "d.jsonl", "--backend", "http",
                                      "--method", method, *flags])
    assert _method(args) == expected


def test_every_field_but_the_prompts_is_a_knob_with_a_flag():
    for cls in harness.METHODS.values():
        for field in dataclasses.fields(cls):
            if field.name == "prompts":
                continue
            kind = harness.KNOBS[field.name]
            args = build_parser().parse_args(["bench", "--dataset", "d.jsonl", "--backend",
                                              "http", f"--{field.name.replace('_', '-')}=1"])
            assert getattr(args, field.name) == kind(1) and type(getattr(args, field.name)) is kind


@pytest.mark.parametrize("method, grid, named", [
    ("io", '{"temperature": [0, 0.0]}', "{'temperature': 0.0}"),
    ("io", '{"temperature": [0.7, 0.70]}', "{'temperature': 0.7}"),
    ("io", '{"n": [1, 1]}', "{'n': 1}"),
    ("io", '{"n": [1, 3, 1], "temperature": [0.5]}', "{'n': 1, 'temperature': 0.5}"),
    ("macm", '{"max_iterations": [1, 2], "query_budget": [3, 3]}',
     "{'max_iterations': 1, 'query_budget': 3}")])
def test_repeated_grid_value_exit_code(method, grid, named, tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    script = tmp_path / "s.json"
    solver_script(script, ["Answer: 7"])
    assert main(["sweep", "--dataset", str(dataset), "--method", method, "--grid", grid,
                 "--backend", f"scripted:{script}", "--out", str(tmp_path / "out")]) == 2
    assert f"grid point {named} repeats" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grid, named", [
    ('{"n": 3}', "'n'"), ('"n"', "'n'"), ('{"n": ["a"]}', "n must be"),
    ('{"n": []}', "'n'"), ('{"n": [true]}', "n must be"), ('{"n": [1.5]}', "n must be"),
    ('{"temperature": ["hot"]}', "temperature must be"), ('{"n": null}', "'n'")])
def test_malformed_grid_exit_code(grid, named, tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    script = tmp_path / "s.json"
    solver_script(script, ["Answer: 7"])
    assert main(["sweep", "--dataset", str(dataset), "--method", "io", "--grid", grid,
                 "--backend", f"scripted:{script}", "--out", str(tmp_path / "out")]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags", [["--method", "cot", "--l", "0"],
                                   ["--method", "sc-cot", "--l", "0"],
                                   ["--method", "sc-cot", "--v", "0", "--parallelism", "2"]])
def test_zero_chain_length_or_voters_refused_before_any_output(flags, tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    script = tmp_path / "s.json"
    solver_script(script, ["Answer: 7"])
    assert main(["bench", "--dataset", str(dataset), *flags, "--backend", f"scripted:{script}",
                 "--out", str(tmp_path / "out")]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("prompts", ["missing", "unknown-file"])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_bad_prompts_dir_exit_code(command, prompts, tmp_path, capsys):
    prompts_dir = tmp_path / "prompts"
    if prompts == "unknown-file":
        prompts_dir.mkdir()
        (prompts_dir / "prompt_0.txt").write_text("{question}")
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "algebra", "question": ALGEBRA_QUESTION,
                           "answer": ALGEBRA_GOLD}])
    out = tmp_path / "out"
    assert main([command, *dataset_flags(command, dataset, '{"max_iterations": [5]}'),
                 "--method", "macm", "--prompts-dir", str(prompts_dir),
                 "--backend", f"scripted:{algebra_trace_path()}", "--out", str(out)]) == 2
    assert str(prompts_dir) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_a_prompt_field_the_code_does_not_fill_is_refused_before_any_request(
        command, tmp_path, capsys, monkeypatch):
    prompts_dir = tmp_path / "prompts"
    prompts_dir.mkdir()
    (prompts_dir / "prompt1.txt").write_text(
        "Known:\n{conditions}\nObjective: {objective}\nHalve it: \\frac{1}{2}")
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "algebra", "question": ALGEBRA_QUESTION,
                           "answer": ALGEBRA_GOLD}])

    def no_request(self, request, role):
        raise AssertionError("a request was sent")

    monkeypatch.setattr(ScriptedBackend, "complete", no_request)
    out = tmp_path / "out"
    assert main([command, *dataset_flags(command, dataset, '{"max_iterations": [5]}'),
                 "--method", "macm", "--prompts-dir", str(prompts_dir),
                 "--backend", f"scripted:{algebra_trace_path()}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{prompts_dir / 'prompt1.txt'}: {{1}}, {{2}}:" in err
    assert not out.exists()
