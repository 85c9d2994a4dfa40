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
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import orchestrator
from .backend import (ChatResponse, QueryCounter, ReplayBackend, ScriptedBackend, json_lines,
                      open_fresh, replay, write_all)
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
    AgentCall,
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
from .errors import BackendFailure, CorruptTranscript, EmptyDataset, SchemaError
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
    # Binary lines, so a line that is not UTF-8 fails inside the try.
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                problem = parse(line.decode("utf-8"), lineno)
                if problem.id in seen_ids:
                    raise ValueError(f"duplicate id {problem.id!r}")
            # JSONDecodeError and UnicodeDecodeError are ValueErrors.
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
    data = json_lines([{"event": "meta", "run_id": transcript.run_id},
                       *map(event_to_dict, transcript.events)])
    # Not _atomic_write: renaming over a file that holds data is slow (see
    # open_fresh), and a run writes one transcript per problem.
    fd = open_fresh(path)
    try:
        write_all(fd, data)
    finally:
        os.close(fd)


def read_transcript(path: str | Path) -> Transcript:
    """Read a transcript file. A line that is not JSON or not an event (a
    torn write, say, or a field of the wrong type), a meta line other than the
    first or without a run id, or an event after the Final raises
    CorruptTranscript naming the file and line."""
    transcript, first = Transcript(), True
    # Binary lines, so a write torn inside a UTF-8 sequence fails in json.loads.
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                if first and data["event"] == "meta":
                    run_id = data["run_id"]
                    if type(run_id) is not str or not run_id:
                        raise ValueError(f"run_id must be nonempty text, got {run_id!r}")
                    transcript.run_id = run_id
                else:
                    transcript.append(event_from_dict(data))
            # JSONDecodeError and UnicodeDecodeError are ValueErrors.
            except (KeyError, TypeError, ValueError) as exc:
                raise CorruptTranscript(
                    f"{path}, line {lineno}: not a transcript event ({exc!r})") from exc
            first = False
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
    queries: int  # requests sent
    choices: int | None = field(default=None, kw_only=True)  # responses they returned
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


def _mean(values: list) -> float | None:
    """0.0 for no values; None if one is None (a row built without that count)."""
    return None if None in values else sum(values) / len(values) if values else 0.0


def compute_aggregates(rows: list[ReportRow]) -> dict:
    by_category: dict[str, dict] = {}
    for row in rows:
        cat = row.category or "uncategorized"
        bucket = by_category.setdefault(cat, {"attempted": 0, "correct": 0})
        bucket["attempted"] += 1
        bucket["correct"] += int(row.correct)
    for bucket in by_category.values():
        bucket["accuracy"] = bucket["correct"] / bucket["attempted"]
    return {
        "attempted": len(rows),
        "correct": sum(r.correct for r in rows),
        "accuracy": _mean([r.correct for r in rows]),
        "mean_queries": _mean([r.queries for r in rows]),
        "mean_choices": _mean([r.choices for r in rows]),
        "by_category": by_category,
    }


METHODS = {"io": MethodIO, "cot": MethodCoT, "sc-cot": MethodSCCoT, "macm": MethodMACM}
_LABELS = {cls: name for name, cls in METHODS.items()}
# The knobs each method takes: its fields but the prompts, each named as its grid
# key (a flag spells _ as -). KNOBS gives each knob's type.
METHOD_KNOBS = {cls: tuple(f.name for f in fields(cls) if f.name != "prompts")
                for cls in METHODS.values()}
KNOBS = {k: float if k == "temperature" else int for knobs in METHOD_KNOBS.values() for k in knobs}


def with_knobs(method: Method, knobs: Mapping[str, object]) -> Method:
    """``method`` with each knob, a field of it, set. A knob the method does not
    take, or a value not of the knob's type or out of its range, raises ValueError."""
    taken = METHOD_KNOBS[type(method)]
    for knob, value in knobs.items():
        if knob not in taken:
            raise ValueError(f"--method {_LABELS[type(method)]} does not take {knob!r}; "
                             f"it takes {', '.join(taken)}")
        if type(value) not in (int, KNOBS[knob]):
            raise ValueError(f"{knob} must be of type {KNOBS[knob].__name__}, not {value!r}")
    return replace(method, **{knob: KNOBS[knob](value) for knob, value in knobs.items()})


def _first_difference(recorded: list[Event], rerun: list[Event]) -> int | None:
    """The index of the first recorded event the re-run does not repeat,
    timestamps aside; None when the re-run begins with all of them."""
    for i, event in enumerate(recorded):
        if i == len(rerun) or event != (
                replace(rerun[i], timestamp=event.timestamp)
                if type(event) is AgentCall is type(rerun[i]) else rerun[i]):
            return i
    return None


class _PrefixBackend:
    """Answers the re-run's k-th request from the prefix's k-th AgentCall, by
    ``backend.replay``'s rule. A request past them goes to the backend
    ``build()`` returns, built then, once the re-run has logged every event
    of the prefix."""

    def __init__(self, recorded: list[Event], rerun: Transcript, build: Callable[[], object]):
        self.recorded, self.rerun, self.build = recorded, rerun, build
        self.calls = [e for e in recorded if isinstance(e, AgentCall)]
        self.backend = None
        self._pos = 0

    def complete(self, request, role: str) -> ChatResponse:
        k, self._pos = self._pos, self._pos + 1  # a request that fails ends the re-run
        if k < len(self.calls):
            return replay(self.calls[k], request, role, "the transcript", k)
        if k == len(self.calls):
            if _first_difference(self.recorded, self.rerun.events) is not None:
                raise BackendFailure("the re-run differs from the transcript")
            self.backend = self.build()
        return self.backend.complete(request, role)


def solve_one(problem: Problem, method: Method, backend_factory,
              prefix: Transcript | None = None) -> Transcript:
    """Run one problem with the chosen method on ``backend_factory(problem.id)``
    and return its transcript, finalized with the run's outcome. Each solver
    returns that outcome or raises; an exception, in building the backend (say,
    a missing recording) or in the run, ends the run as ``RunError.of`` it.

    ``prefix``, an unfinished transcript of the same problem and method,
    resumes that run: the method runs again from the start, request k answered
    from the prefix's k-th AgentCall, and the backend, built only when the
    first request past them comes, serves the rest. The prefix, its events and
    run id kept, gains the rest of the run and is returned; an empty one is a
    fresh run. A prefix is the only way this raises: CorruptTranscript when it
    is finalized, or when the re-run does not repeat it (edited, say, or run
    with other settings), naming the first event that differs."""
    if prefix is not None and prefix.is_final:
        raise CorruptTranscript("transcript already carries a Final event")
    transcript = Transcript(run_id=problem.id)
    try:
        if prefix is None:
            backend = backend_factory(problem.id)
        else:
            backend = _PrefixBackend(prefix.events, transcript,
                                     lambda: backend_factory(problem.id))
        # The solvers are looked up by name on each call, so a wrapper set on
        # one (perfbench's tracer) sees every run.
        solver = (orchestrator.solve if isinstance(method, MethodMACM)
                  else solve_io if isinstance(method, MethodIO)
                  else solve_cot if isinstance(method, MethodCoT) else solve_sc_cot)
        outcome = solver(problem, method, backend, transcript)
    except Exception as exc:
        outcome = RunError.of(exc)
    transcript.append(Final(outcome))
    if prefix is None:
        return transcript
    i = _first_difference(prefix.events, transcript.events)
    if i is not None:
        raise CorruptTranscript(f"event {i} of the transcript, {prefix.events[i]!r:.200}, "
                                f"differs from the re-run's {transcript.events[i]!r:.200}")
    prefix.events.extend(transcript.events[len(prefix.events):])
    return prefix


def run_benchmark(problems: list[Problem], method: Method, backend_factory,
                  out_dir: str | Path, task: str = "math", parallelism: int = 1) -> Report:
    """Solve every problem, write one transcript file each, and grade it.

    ``backend_factory(problem_id)`` must return a backend for that problem
    (scripted/replay backends are single-run). Every problem gets one row,
    and the batch never aborts: a run that fails (say, over a missing
    recording) is its row's error outcome, and a transcript write or a grade
    that raises makes the row an InternalError. Row order is by problem id,
    independent of parallelism.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    out_dir = Path(out_dir)
    transcripts_dir = out_dir / "transcripts"
    transcripts_dir.mkdir(parents=True, exist_ok=True)
    label = _LABELS[type(method)]

    def run_one(problem: Problem) -> ReportRow:
        start = time.monotonic()
        transcript = solve_one(problem, method, backend_factory)
        wall_ms = int((time.monotonic() - start) * 1000)
        outcome = transcript.outcome
        correct = refusal = needs_review = False
        transcript_path = transcripts_dir / f"{problem.id}.jsonl"
        try:
            write_transcript(transcript, transcript_path)
            if isinstance(outcome, Solved):
                correct = grade(task, problem, outcome.answer)
                refusal = bool(_REFUSAL.search(outcome.answer))
                if task == "math" and problem.gold_answer is not None:
                    needs_review = (needs_manual_review(outcome.answer)
                                    or needs_manual_review(problem.gold_answer))
        except Exception as exc:
            outcome = RunError("InternalError", f"{type(exc).__name__}: {exc}")
            correct = refusal = needs_review = False
        return ReportRow(
            id=problem.id,
            method=label,
            outcome=OutcomeView(outcome),
            correct=correct,
            queries=transcript.query_count(),
            choices=transcript.choice_count(),
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
    """Each row as ReportRow's fields in their order, its outcome as a dict."""
    names = [f.name for f in fields(ReportRow)]
    rows = [{name: getattr(r, name) for name in names} for r in report.rows]
    for row in rows:
        row["outcome"] = dict(row["outcome"])
    return {"rows": rows, "aggregates": report.aggregates}


def _report_csv_text(report: Report) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_CSV_FIELDS, lineterminator="\n",
                            extrasaction="ignore")
    writer.writeheader()
    for row in report_to_dict(report)["rows"]:
        writer.writerow({**row, "outcome_kind": row["outcome"]["kind"]})
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

def sweep_queries(problems: list[Problem], method: Method, knob_grid: dict,
                  point_factory, out_dir: str | Path,
                  task: str = "math") -> list[tuple[dict, Report]]:
    """Run one benchmark per knob setting of the grid, each applied to ``method`` by
    with_knobs before the first runs: run_benchmark then write_report, as bench does,
    into <out_dir>/point_<knobs> (say point_n3), with the per-problem backend factory
    ``point_factory(<point dir name>)``. A grid point whose method equals an earlier
    one's (say, temperature 0 after 0.0) raises ValueError. Writes sweep.csv under
    out_dir, from each point's mean choice count (a request for n responses counts n)
    and accuracy, and returns each point's (settings, report)."""
    if not problems:
        raise EmptyDataset("sweep requires at least one problem")
    if not isinstance(knob_grid, dict) or not knob_grid:
        raise ValueError(f"knob grid must be a nonempty JSON object, not {knob_grid!r}")
    for knob, values in knob_grid.items():
        if not isinstance(values, list) or not values:
            raise ValueError(f"grid values of {knob!r} must be a nonempty list, not {values!r}")

    out_dir = Path(out_dir)
    keys = sorted(knob_grid)
    grid = [dict(zip(keys, values)) for values in itertools.product(*(knob_grid[k] for k in keys))]
    point_methods = [with_knobs(method, settings) for settings in grid]
    for i, point_method in enumerate(point_methods):
        if point_method in point_methods[:i]:
            raise ValueError(f"grid point {grid[i]} repeats an earlier point's settings")
    points = []
    for settings, point_method in zip(grid, point_methods):
        point_dir = out_dir / ("point_" + "_".join(f"{k}{v}" for k, v in settings.items()))
        report = run_benchmark(problems, point_method, point_factory(point_dir.name),
                               point_dir, task=task)
        write_report(report, point_dir)
        points.append((settings, report))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(keys + ["mean_queries", "corrected_fraction"])
    for settings, report in points:
        writer.writerow([settings[k] for k in keys] + [report.aggregates["mean_choices"],
                                                       report.aggregates["accuracy"]])
    _atomic_write(out_dir / "sweep.csv", buf.getvalue())
    return points


# ---------------------------------------------------------------------------
# Backend factories
# ---------------------------------------------------------------------------

def make_backend_factory(selector: str, counter: QueryCounter | None = None):
    """A per-problem backend factory, problem id -> backend, from a CLI selector:
    "http", "scripted:<file>" (read here: ValueError if not a script), or
    "replay:<dir-or-file>". A replay directory holds a transcript <id>.jsonl per
    problem (a bench's <out>/transcripts); a replay file serves every problem."""
    if selector == "http":
        from .backend import HttpBackend
        shared = HttpBackend(counter=counter)
        return lambda problem_id: shared
    if selector.startswith("scripted:"):
        with open(selector.split(":", 1)[1], encoding="utf-8") as fh:
            script = ScriptedBackend.from_dict(json.load(fh))  # a malformed one is refused here
        return lambda problem_id: ScriptedBackend(script.queues, counter=counter)
    if selector.startswith("replay:"):
        target = Path(selector.split(":", 1)[1])
        return lambda problem_id: ReplayBackend(
            target / f"{problem_id}.jsonl" if target.is_dir() else target, counter=counter)
    raise ValueError(f"unknown backend selector {selector!r}")
