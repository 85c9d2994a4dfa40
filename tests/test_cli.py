import json

import pytest

from macm.cli import main
from macm.demo import ALGEBRA_QUESTION, algebra_trace_path

from conftest import extraction_reply, mining_reply


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def solver_script(path, replies):
    path.write_text(json.dumps({"roles": {"solver": [{"reply": r} for r in replies]}}))


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

    def test_malformed_dataset_exit_code(self, tmp_path, capsys):
        dataset = tmp_path / "d.jsonl"
        dataset.write_text("not json\n")
        code = main(["bench", "--dataset", str(dataset), "--backend", "http"])
        assert code == 2

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
