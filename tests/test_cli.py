import json

import pytest

from macm.cli import EXIT_FOR_ERROR, main
from macm.demo import ALGEBRA_GOLD, ALGEBRA_QUESTION, algebra_trace_path
from macm.domain import ERROR_KINDS, RunError
from macm.harness import read_transcript

from conftest import extraction_reply, mining_reply


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def solver_script(path, replies):
    path.write_text(json.dumps({"roles": {"solver": [{"reply": r} for r in replies]}}))


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
            assert f"cassette {target / 'cli.jsonl'}, line 1" in outcome.detail

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
        cassettes = tmp_path / "cassettes"
        solve = ["solve", "--question", ALGEBRA_QUESTION]
        assert main(solve + ["--backend", f"scripted:{algebra_trace_path()}",
                             "--record", str(cassettes)]) == 0
        recorded = json.loads(capsys.readouterr().out)
        assert [p.name for p in cassettes.iterdir()] == ["cli.jsonl"]
        for target in (cassettes, cassettes / "cli.jsonl"):
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
    source = {"solve": ["--problem-file", str(dataset)],
              "bench": ["--dataset", str(dataset)],
              "sweep": ["--dataset", str(dataset), "--grid", '{"l": [2]}']}
    record = tmp_path / "cassettes"
    assert main([command, *source[command], "--method", method, "--v", "2",
                 "--n", "2", "--temperature", "0.3", "--record", str(record),
                 "--backend", f"scripted:{script}", "--out", str(tmp_path / "out")]) == 0
    (cassette,) = record.rglob("*.jsonl")
    requests = [json.loads(line)["sampling"] for line in cassette.read_text().splitlines()]
    assert all(r["temperature"] == 0.3 for r in requests)
    assert requests[0]["n"] == 2


@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_sampling_flags_reach_every_macm_request(command, tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "algebra", "question": ALGEBRA_QUESTION,
                           "answer": ALGEBRA_GOLD}])
    record = tmp_path / "cassettes"
    assert main([command, *dataset_flags(command, dataset, '{"max_iterations": [5]}'),
                 "--method", "macm", "--temperature", "0.3", "--record", str(record),
                 "--backend", f"scripted:{algebra_trace_path()}",
                 "--out", str(tmp_path / "out")]) == 0
    (cassette,) = record.rglob("*.jsonl")
    entries = [json.loads(line) for line in cassette.read_text().splitlines()]
    assert {e["role"] for e in entries} == {"thinker", "judge", "executor"}
    max_tokens = {"thinker": 512, "judge": 4, "executor": 256}
    for entry in entries:
        assert entry["sampling"] == {"n": 1, "temperature": 0.3,
                                     "max_tokens": max_tokens[entry["role"]]}


@pytest.mark.parametrize("flag", ["--query-budget", "--prompts-dir"])
@pytest.mark.parametrize("method", ["io", "cot", "sc-cot"])
@pytest.mark.parametrize("command", ["solve", "bench", "sweep"])
def test_macm_only_flags_are_refused_for_baselines(command, method, flag, tmp_path, capsys):
    script = tmp_path / "s.json"
    solver_script(script, ["Answer: 7", "Answer: 7", "7"])
    dataset = tmp_path / "d.jsonl"
    write_jsonl(dataset, [{"id": "p0", "question": "q", "answer": "7"}])
    value = {"--query-budget": "1", "--prompts-dir": str(tmp_path)}[flag]
    out, record = tmp_path / "out", tmp_path / "cassettes"
    assert main([command, *dataset_flags(command, dataset, '{"l": [2]}'),
                 "--method", method, flag, value, "--record", str(record),
                 "--backend", f"scripted:{script}", "--out", str(out)]) == 2
    assert "apply to --method macm only" in capsys.readouterr().err
    assert not out.exists() and not record.exists()


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
        cassettes = tmp_path / "cassettes"

        assert main(["bench", "--dataset", str(dataset), "--method", "io",
                     "--backend", f"scripted:{script}", "--record", str(cassettes),
                     "--out", str(tmp_path / "rec")]) == 0
        assert main(["bench", "--dataset", str(dataset), "--method", "io",
                     "--backend", f"replay:{cassettes}",
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
        for flags, queries in (([], 2), (["--count-choices"], 4)):
            out = tmp_path / f"out{queries}"
            assert main(["bench", "--dataset", str(dataset), "--method", "io", "--n", "3",
                         "--backend", f"scripted:{script}", "--out", str(out), *flags]) == 0
            rows = json.loads((out / "report.json").read_text())["rows"]
            assert [r["queries"] for r in rows] == [queries]

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
        # Each grid point records to <dir>/<point dir>/<id>.jsonl and replays
        # from there, so the replayed sweep equals the recorded one.
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": f"p{i}", "question": f"q{i}", "answer": "7"}
                              for i in range(6)])
        script = tmp_path / "s.json"
        solver_script(script, ["Answer: 7", "Answer: 7"])
        cassettes = tmp_path / "cassettes"
        sweep = ["sweep", "--dataset", str(dataset), "--method", "io",
                 "--grid", '{"n": [1, 3]}']
        assert main(sweep + ["--backend", f"scripted:{script}", "--record", str(cassettes),
                             "--out", str(tmp_path / "rec")]) == 0
        assert main(sweep + ["--backend", f"replay:{cassettes}",
                             "--out", str(tmp_path / "rep")]) == 0
        recorded = (tmp_path / "rec" / "sweep.csv").read_bytes()
        assert recorded.decode().splitlines()[1:] == ["1,1.0,1.0", "3,4.0,1.0"]
        assert (tmp_path / "rep" / "sweep.csv").read_bytes() == recorded
        assert sorted(p.name for p in cassettes.iterdir()) == ["point_n1", "point_n3"]
        for point in ("point_n1", "point_n3"):
            assert sorted(p.name for p in (cassettes / point).iterdir()) == \
                [f"p{i}.jsonl" for i in range(6)]

    def test_bad_grid_json_exit_code(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        write_jsonl(dataset, [{"id": "p0", "question": "q"}])
        code = main(["sweep", "--dataset", str(dataset), "--grid", "{oops",
                     "--backend", "http"])
        assert code == 2
