"""Benchmark harness: dataset ingestion, batch runner, reports, and sweeps."""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import os
import random
import re
import sys
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path

from . import orchestrator
from .backend import (
    JSON_ENCODER,
    QueryCounter,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    open_fresh,
    write_all,
)
from .baselines import (
    Method,
    MethodCoT,
    MethodIO,
    MethodMACM,
    MethodSCCoT,
    solve_cot,
    solve_io,
    solve_sc_cot,
)
from .domain import (
    Event,
    Final,
    Outcome,
    Problem,
    RunError,
    Solved,
    Transcript,
    event_from_dict,
    event_to_dict,
    outcome_to_dict,
)
from .errors import SOLVE_ERRORS, BackendFailure, CorruptTranscript, EmptyDataset, SchemaError
from .tasks import (
    Game24Instance,
    bounded_int,
    equal_answers,
    needs_manual_review,
    verify_game24,
    verify_sorted,
)


# ---------------------------------------------------------------------------
# Dataset ingestion
# ---------------------------------------------------------------------------

def _math_problem(line: str, lineno: int) -> Problem:
    """A JSON record {"id", "question", "answer"?, "category"?, "level"?}."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("expected a JSON object")
    for key in ("id", "question"):
        if not isinstance(record.get(key), str) or not record[key]:
            raise ValueError(f"missing or empty field {key!r}")
    for key in ("answer", "category"):
        if not isinstance(record.get(key), (str, type(None))):
            raise ValueError(f"field {key!r} must be a string")
    level = record.get("level")
    if level is not None and (type(level) is not int or not 1 <= level <= 5):
        raise ValueError("level must be an integer 1..5")
    return Problem(
        id=record["id"],
        question=record["question"],
        gold_answer=record.get("answer"),
        category=record.get("category"),
        level=level,
    )


def _game24_problem(line: str, lineno: int) -> Problem:
    """4 space-separated integers, kept in gold_answer for the grader."""
    parts = line.split()
    if len(parts) != 4:
        raise ValueError("expected 4 integers")
    numbers = tuple(int(p) for p in parts)
    Game24Instance(numbers)
    return Problem(
        id=f"game24-{lineno}",
        question=(f"Use the numbers {numbers[0]}, {numbers[1]}, {numbers[2]}, "
                  f"{numbers[3]} exactly once each with + - * / and parentheses "
                  "to make an expression equal to 24."),
        gold_answer=" ".join(parts),
        category="game24",
    )


def _sorting_problem(line: str, lineno: int) -> Problem:
    """A JSON record {"input": [int, ...]}, the input kept in gold_answer for
    the grader."""
    record = json.loads(line)
    seq = record.get("input") if isinstance(record, dict) else None
    if not isinstance(seq, list) or not all(type(x) is int for x in seq):
        raise ValueError("input must be a list of integers")
    return Problem(
        id=f"sorting-{lineno}",
        question=("Sort the following numbers in non-decreasing order and "
                  "output the sorted sequence: "
                  + " ".join(str(x) for x in seq)),
        gold_answer=" ".join(str(x) for x in seq),
        category="sorting",
    )


# Each task's line reader: (line, line number) -> Problem, raising ValueError
# for a line that is not one of the task's problems.
_LINE_READERS = {"math": _math_problem, "game24": _game24_problem,
                 "sorting": _sorting_problem}
TASKS = tuple(_LINE_READERS)


def load_problems(path: str | Path, lenient: bool = False, task: str = "math") -> list[Problem]:
    """Read a ``task`` dataset file, one problem per nonblank line. A bad
    line, or a repeated id, raises SchemaError naming the line unless
    ``lenient``, in which case it is reported to stderr and skipped."""
    parse = _LINE_READERS.get(task)
    if parse is None:
        raise ValueError(f"unknown task {task!r}")
    problems: list[Problem] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                problem = parse(line, lineno)
                if problem.id in seen_ids:
                    raise ValueError(f"duplicate id {problem.id!r}")
            # JSONDecodeError is a ValueError.
            except ValueError as exc:
                if not lenient:
                    raise SchemaError(f"line {lineno}: {exc}", lineno) from exc
                print(f"skipping line {lineno}: {exc}", file=sys.stderr)
                continue
            seen_ids.add(problem.id)
            problems.append(problem)
    return problems


def load_game24_file(path: str | Path) -> list[Problem]:
    """Read a 24-game file, one instance of 4 space-separated positive
    integers per line; see ``load_problems``."""
    return load_problems(path, task="game24")


def sample_problems(problems: list[Problem], fraction: float, seed: int) -> list[Problem]:
    """Seeded-shuffle sample of round(fraction * len) problems."""
    if not 0 < fraction <= 1:
        raise ValueError("sample fraction must be in (0, 1]")
    shuffled = list(problems)
    random.Random(seed).shuffle(shuffled)
    count = max(1, round(fraction * len(problems))) if problems else 0
    return shuffled[:count]


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------

_INT_PATTERN = re.compile(r"(-?)(\d+)")
_REFUSAL = re.compile(r"\b(?:cannot|can't|unable to|refuse)\b", re.IGNORECASE)


def grade(task: str, problem: Problem, answer: str) -> bool:
    if task == "math":
        if problem.gold_answer is None:
            return False
        return equal_answers(answer, problem.gold_answer)
    if task == "game24":
        numbers = tuple(int(p) for p in problem.gold_answer.split())
        return verify_game24(Game24Instance(numbers), answer)
    if task == "sorting":
        input_seq = [int(p) for p in problem.gold_answer.split()]
        max_digits = len(str(max(map(abs, input_seq), default=0)))
        output_seq = []
        for sign, digits in _INT_PATTERN.findall(answer):
            # A number longer than every input cannot match one, and int()
            # refuses a literal past CPython's digit limit.
            value = bounded_int(digits, max_digits)
            if value is None:
                return False
            output_seq.append(-value if sign else value)
        return verify_sorted(input_seq, output_seq)
    raise ValueError(f"unknown task {task!r}")


# ---------------------------------------------------------------------------
# Transcript persistence
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, content: str) -> None:
    """Write ``content`` to a temp file and rename it over ``path``; on any
    failure the temp file is removed and the error re-raised."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(content, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def write_transcript(transcript: Transcript, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [JSON_ENCODER.encode({"event": "meta", "run_id": transcript.run_id})]
    lines += [JSON_ENCODER.encode(event_to_dict(e)) for e in transcript.events]
    # Not _atomic_write: renaming over a file that holds data is slow (see
    # open_fresh), and a run writes one transcript per problem.
    fd = open_fresh(path)
    try:
        write_all(fd, ("\n".join(lines) + "\n").encode("utf-8"))
    finally:
        os.close(fd)


def read_transcript(path: str | Path) -> Transcript:
    """Read a transcript file. A line that is not JSON or not an event (a
    torn write, say) raises CorruptTranscript naming the file and line."""
    run_id = None
    events: list[Event] = []
    # Binary lines, so a write torn inside a UTF-8 sequence fails in json.loads.
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if data["event"] == "meta":
                    run_id = data.get("run_id")
                else:
                    events.append(event_from_dict(data))
            # JSONDecodeError and UnicodeDecodeError are ValueErrors.
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptTranscript(
                    f"{path}, line {lineno}: not a transcript event ({exc!r})") from exc
    transcript = Transcript(run_id)
    transcript.events = events
    return transcript


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class OutcomeView(Mapping):
    """A row's outcome, read as ``outcome_to_dict`` gives it. A long
    benchmark keeps every row in memory until its report is written, and the
    typed outcome takes about 100 bytes less per row than its dict."""

    __slots__ = ("outcome",)

    def __init__(self, outcome: Outcome):
        self.outcome = outcome

    def __getitem__(self, key):
        return outcome_to_dict(self.outcome)[key]

    def __iter__(self):
        return iter(outcome_to_dict(self.outcome))

    def __len__(self):
        return len(outcome_to_dict(self.outcome))

    def __repr__(self):
        return repr(outcome_to_dict(self.outcome))


# slots: a long benchmark keeps every row in memory until its report is
# written.
@dataclass(frozen=True, slots=True)
class ReportRow:
    id: str
    method: str
    outcome: Mapping  # outcome_to_dict's keys; an OutcomeView from run_benchmark
    correct: bool
    queries: int
    wall_ms: int
    transcript_path: str
    category: str | None = None
    refusal: bool = False
    needs_review: bool = False


@dataclass
class Report:
    rows: list[ReportRow]
    aggregates: dict = field(init=False)

    def __post_init__(self):
        self.aggregates = compute_aggregates(self.rows)


def compute_aggregates(rows: list[ReportRow]) -> dict:
    overall = sum(r.correct for r in rows) / len(rows) if rows else 0.0
    by_category: dict[str, dict] = {}
    for row in rows:
        cat = row.category or "uncategorized"
        bucket = by_category.setdefault(cat, {"attempted": 0, "correct": 0})
        bucket["attempted"] += 1
        bucket["correct"] += int(row.correct)
    for bucket in by_category.values():
        bucket["accuracy"] = bucket["correct"] / bucket["attempted"]
    mean_queries = sum(r.queries for r in rows) / len(rows) if rows else 0.0
    return {
        "attempted": len(rows),
        "correct": sum(r.correct for r in rows),
        "accuracy": overall,
        "mean_queries": mean_queries,
        "by_category": by_category,
    }


_METHOD_LABELS = {MethodIO: "io", MethodCoT: "cot", MethodSCCoT: "sc-cot", MethodMACM: "macm"}


def solve_one(problem: Problem, method: Method, backend_factory) -> Transcript:
    """Run one problem with the chosen method on ``backend_factory(problem.id)``;
    always returns a finalized transcript. A backend that cannot be built
    (say, a missing cassette) ends the run as a BackendFailure."""
    try:
        backend = backend_factory(problem.id)
    except (OSError, BackendFailure) as exc:
        transcript = Transcript(run_id=problem.id)
        transcript.append(Final(RunError.of(exc)))
        return transcript
    if isinstance(method, MethodMACM):
        _, transcript = orchestrator.solve(problem, method.config, backend,
                                           prompts=method.prompts, run_id=problem.id)
        return transcript

    transcript = Transcript(run_id=problem.id)
    try:
        if isinstance(method, MethodIO):
            answer = solve_io(problem, method.sampling, backend, transcript)
        elif isinstance(method, MethodCoT):
            answer = solve_cot(problem, method.chain_length_l, method.sampling,
                               backend, transcript)
        else:
            answer = solve_sc_cot(problem, method.chain_length_l, method.voters_v,
                                  method.sampling, backend, transcript)
        transcript.append(Final(Solved(answer)))
    except SOLVE_ERRORS as exc:
        transcript.append(Final(RunError.of(exc)))
    return transcript


def run_benchmark(problems: list[Problem], method: Method, backend_factory,
                  out_dir: str | Path, task: str = "math", parallelism: int = 1,
                  count_choices: bool = False) -> Report:
    """Solve every problem, grade it, and write one transcript file each.

    ``backend_factory(problem_id)`` must return a backend for that problem
    (scripted/replay backends are single-run). Individual problem failures,
    including a backend that cannot be built (say, a missing cassette),
    become Error rows; the batch never aborts. Row order is by problem id,
    independent of parallelism.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    out_dir = Path(out_dir)
    transcripts_dir = out_dir / "transcripts"
    transcripts_dir.mkdir(parents=True, exist_ok=True)
    label = _METHOD_LABELS[type(method)]

    def run_one(problem: Problem) -> ReportRow:
        start = time.monotonic()
        transcript = solve_one(problem, method, backend_factory)
        wall_ms = int((time.monotonic() - start) * 1000)
        outcome = transcript.outcome
        correct = False
        refusal = False
        needs_review = False
        if isinstance(outcome, Solved):
            correct = grade(task, problem, outcome.answer)
            refusal = bool(_REFUSAL.search(outcome.answer))
            if task == "math" and problem.gold_answer is not None:
                needs_review = (needs_manual_review(outcome.answer)
                                or needs_manual_review(problem.gold_answer))
        transcript_path = transcripts_dir / f"{problem.id}.jsonl"
        write_transcript(transcript, transcript_path)
        queries = transcript.choice_count() if count_choices else transcript.query_count()
        return ReportRow(
            id=problem.id,
            method=label,
            outcome=OutcomeView(outcome),
            correct=correct,
            queries=queries,
            wall_ms=wall_ms,
            transcript_path=str(transcript_path.relative_to(out_dir)),
            category=problem.category,
            refusal=refusal,
            needs_review=needs_review,
        )

    if parallelism > 1:
        # Imported here: concurrent.futures loads logging and queue, which a
        # serial run never uses.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            rows = list(pool.map(run_one, problems))
    else:
        rows = [run_one(p) for p in problems]
    rows.sort(key=lambda r: r.id)
    return Report(rows=rows)


# ---------------------------------------------------------------------------
# Report persistence
# ---------------------------------------------------------------------------

_CSV_FIELDS = ["id", "method", "outcome_kind", "correct", "queries",
               "transcript_path", "category", "refusal", "needs_review"]


def report_to_dict(report: Report) -> dict:
    return {
        "rows": [{
            "id": r.id, "method": r.method, "outcome": dict(r.outcome),
            "correct": r.correct, "queries": r.queries, "wall_ms": r.wall_ms,
            "transcript_path": r.transcript_path, "category": r.category,
            "refusal": r.refusal, "needs_review": r.needs_review,
        } for r in report.rows],
        "aggregates": report.aggregates,
    }


def _report_csv_text(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for r in report.rows:
        writer.writerow({
            "id": r.id, "method": r.method, "outcome_kind": r.outcome["kind"],
            "correct": r.correct, "queries": r.queries,
            "transcript_path": r.transcript_path, "category": r.category or "",
            "refusal": r.refusal, "needs_review": r.needs_review,
        })
    return buf.getvalue()


def _summary_md_text(report: Report) -> str:
    agg = report.aggregates
    lines = [
        "# Benchmark summary",
        "",
        "| Category | Attempted | Correct | Accuracy (%) |",
        "|---|---|---|---|",
    ]
    for cat in sorted(agg["by_category"]):
        bucket = agg["by_category"][cat]
        lines.append(f"| {cat} | {bucket['attempted']} | {bucket['correct']} "
                     f"| {bucket['accuracy'] * 100:.2f} |")
    lines.append(f"| **Overall** | {agg['attempted']} | {agg['correct']} "
                 f"| {agg['accuracy'] * 100:.2f} |")
    lines += ["", f"Mean queries per problem: {agg['mean_queries']:.2f}", ""]
    return "\n".join(lines)


def write_report(report: Report, out_dir: str | Path) -> None:
    """report.json (rows + aggregates), report.csv (rows), summary.md.
    All writes are atomic (temp file + rename)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "report.json",
                  json.dumps(report_to_dict(report), indent=2, ensure_ascii=False) + "\n")
    _atomic_write(out_dir / "report.csv", _report_csv_text(report))
    _atomic_write(out_dir / "summary.md", _summary_md_text(report))


def filter_wrong(problems: list[Problem], report_path: str | Path) -> list[Problem]:
    """Subset of problems that the report.json at ``report_path`` graded
    incorrect. A file whose rows do not each carry an id and a correct flag
    raises SchemaError."""
    try:
        with open(report_path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        wrong_ids = {r["id"] for r in rows if not r["correct"]}
    # JSONDecodeError and UnicodeDecodeError are ValueErrors.
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{report_path}: not a report.json ({exc!r})") from exc
    return [p for p in problems if p.id in wrong_ids]


# ---------------------------------------------------------------------------
# Query-count sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    settings: dict
    mean_queries: float
    corrected_fraction: float

    def __post_init__(self):
        if not 0 <= self.corrected_fraction <= 1:
            raise ValueError("corrected_fraction must be in [0, 1]")


KNOBS = ("n", "l", "v", "max_iterations")


def _method_for_point(method: Method, settings: dict) -> Method:
    """The base method with one grid point's knobs applied; a knob the
    method has no use for leaves it unchanged."""
    if not isinstance(method, MethodMACM) and "n" in settings:
        method = replace(method, sampling=replace(method.sampling, n=settings["n"]))
    if isinstance(method, (MethodCoT, MethodSCCoT)) and "l" in settings:
        method = replace(method, chain_length_l=settings["l"])
    if isinstance(method, MethodSCCoT) and "v" in settings:
        method = replace(method, voters_v=settings["v"])
    if isinstance(method, MethodMACM) and "max_iterations" in settings:
        method = replace(method, config=replace(
            method.config, max_iterations=settings["max_iterations"]))
    return method


def sweep_queries(problems: list[Problem], method: Method, knob_grid: dict,
                  backend_factory, out_dir: str | Path,
                  task: str = "math") -> list[SweepPoint]:
    """Run one benchmark per knob setting of the grid, applied to ``method``,
    and record (mean choice count, fraction corrected): a request for n
    responses counts n. Writes sweep.csv under out_dir. A factory from make_backend_factory
    records and replays each point's cassettes under the point's directory
    name (<dir>/point_n3/<id>.jsonl); any other factory is used as is."""
    if not problems:
        raise EmptyDataset("sweep requires at least one problem")
    if not knob_grid:
        raise ValueError("knob grid must be nonempty")
    for knob in knob_grid:
        if knob not in KNOBS:
            raise ValueError(f"unknown knob {knob!r}")

    out_dir = Path(out_dir)
    keys = sorted(knob_grid)
    points: list[SweepPoint] = []
    for values in itertools.product(*(knob_grid[k] for k in keys)):
        settings = dict(zip(keys, values))
        point_method = _method_for_point(method, settings)
        point_dir = out_dir / ("point_" + "_".join(f"{k}{v}" for k, v in settings.items()))
        point_factory = backend_factory
        if isinstance(backend_factory, BackendFactory):
            point_factory = replace(backend_factory, subdir=point_dir.name)
        report = run_benchmark(problems, point_method, point_factory, point_dir,
                               task=task, count_choices=True)
        points.append(SweepPoint(
            settings=settings,
            mean_queries=report.aggregates["mean_queries"],
            corrected_fraction=report.aggregates["accuracy"],
        ))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys + ["mean_queries", "corrected_fraction"])
    for point in points:
        writer.writerow([point.settings.get(k, "") for k in keys]
                        + [point.mean_queries, point.corrected_fraction])
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "sweep.csv", buf.getvalue())
    return points


# ---------------------------------------------------------------------------
# Backend factories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BackendFactory:
    """Builds each problem's backend. ``build`` takes the cassette path
    relative to a cassette directory, <subdir>/<problem id>.jsonl; with
    ``record_dir`` the traffic is also recorded to that path under it.
    ``subdir`` is empty except in sweeps, which set it to each grid point's
    output directory name."""

    build: Callable[[str], object]
    record_dir: Path | None = None
    subdir: str = ""

    def __call__(self, problem_id: str):
        cassette = os.path.join(self.subdir, f"{problem_id}.jsonl")
        backend = self.build(cassette)
        if self.record_dir is not None:
            return RecordingBackend(backend, self.record_dir / cassette)
        return backend


def make_backend_factory(selector: str, counter: QueryCounter | None = None,
                         record_dir: str | Path | None = None) -> BackendFactory:
    """Build a per-problem backend factory from a CLI selector:
    "http", "scripted:<file>", or "replay:<dir-or-file>". With ``record_dir``
    every problem's traffic is recorded to <record_dir>/<id>.jsonl, and a
    replay directory is read the same way (in a sweep, one directory level
    deeper per grid point)."""
    record_dir = None if record_dir is None else Path(record_dir)
    if selector == "http":
        from .backend import HttpBackend
        shared = HttpBackend(counter=counter)
        return BackendFactory(lambda cassette: shared, record_dir)
    if selector.startswith("scripted:"):
        path = selector.split(":", 1)[1]
        with open(path, encoding="utf-8") as fh:
            script_data = json.load(fh)
        return BackendFactory(
            lambda cassette: ScriptedBackend.from_dict(script_data, counter=counter), record_dir)
    if selector.startswith("replay:"):
        target = Path(selector.split(":", 1)[1])
        return BackendFactory(lambda cassette: ReplayBackend(
            target / cassette if target.is_dir() else target, counter=counter), record_dir)
    raise ValueError(f"unknown backend selector {selector!r}")
