"""macm benchmark: seeded workloads through ``macm.harness.run_benchmark``.

One workload:

    python3 perfbench/run.py --workload macm-http --seed 1 --seconds 30 --trace 0

Every workload, untraced and then traced, with a combined result:

    python3 perfbench/run.py --seed 1

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it spends half the time untraced and half traced, and prints the per-layer
metrics. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
output matched the generator's expectation.

Load is closed-loop from this one process: ``run_benchmark`` is called over
the whole problem pool again and again, with at most ``nproc`` (here 2)
workers, until the time is up. Each layer is measured from outside, by
timing calls into its public functions; nothing under ``src/`` is changed.
See ``perfbench/METRICS.md`` for what each metric should move.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import dataclasses  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import macm  # noqa: E402
    from macm import agents, backend, baselines, domain, harness, orchestrator, tasks  # noqa: E402
except ImportError as exc:
    print(f"perfbench: cannot import macm from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)
if not Path(macm.__file__).resolve().is_relative_to(ROOT / "src"):
    print(f"perfbench: macm was imported from {macm.__file__}, not {ROOT / 'src'}",
          file=sys.stderr)
    sys.exit(2)

import bench_model  # noqa: E402
from bench_trace import Tracer, median  # noqa: E402

IMPORT_S = time.perf_counter() - START

WORKLOADS = ("macm-http", "macm-replay", "sccot-game24-record")
MACM_POOL = 40
GAME24_POOL = 48
LATENCY_S = 0.010
HTTP_WORKERS = 2
SETUP_REPS = 7
LATENCY_BLOCK = 250  # timed problems per latency block; a pass adds at most 40
WORK = ROOT / ".perfbench_work"

MACM_METHOD = baselines.MethodMACM()
SCCOT_METHOD = baselines.MethodSCCoT()
PARSERS = ("parse_verdict", "parse_candidates", "parse_extraction", "parse_steps",
           "extract_answer")
AGENT_OPS = ("thinker_extract", "thinker_mine", "thinker_design_steps", "judge_condition",
             "judge_sufficiency", "executor_compute")

END_TO_END = [  # name, unit
    ("setup_s", "s"), ("problems_per_s", "1/s"), ("problem_ms_p50", "ms"),
    ("problem_ms_p95", "ms"), ("cpu_ms_per_problem", "ms"), ("queries_per_problem", "count"),
    ("accuracy", "ratio"), ("failed_share", "ratio"), ("peak_rss_mb", "MB"),
]
# failed_share is 0 in every passing run, so the JSON carries it as "failed"
# and it is printed but not listed in BENCHMARK.json.
NOT_IN_JSON = {"failed_share"}
PER_LAYER = [
    ("backend.http_overhead_ms_p50", "ms"), ("backend.http_connections_per_call", "count/call"),
    ("backend.http_requests_per_call", "count/call"), ("backend.replay_load_ms_total", "ms/pass"),
    ("backend.replay_match_us_p50", "us"), ("backend.record_append_us_p50", "us"),
    ("agents.self_ms_total", "ms/pass"),
    *((f"agents.parse_us_p50.{p}", "us") for p in PARSERS),
    ("agents.format_retries", "count/problem"), ("agents.parse_ok_ratio", "ratio"),
    ("orchestrator.solve_self_ms_total", "ms/pass"),
    ("orchestrator.rounds_per_problem", "count/problem"),
    ("orchestrator.judge_accept_ratio", "ratio"),
    ("orchestrator.duplicates_dropped", "count/problem"),
    ("baselines.self_ms_total", "ms/pass"), ("baselines.prompt_chars_per_call", "chars"),
    ("tasks.grade_us_p50", "us"), ("tasks.game24_oracle_ms_p50.solvable", "ms"),
    ("tasks.game24_oracle_ms_p50.unsolvable", "ms"),
    ("harness.write_transcript_us_p50", "us"), ("harness.transcript_bytes_per_problem", "bytes"),
    ("harness.run_benchmark_self_ms_total", "ms/pass"),
    ("domain.events_per_problem", "count/problem"), ("tracing_overhead", "ratio"),
]


# ---------------------------------------------------------------------------
# Loopback stub model
# ---------------------------------------------------------------------------

class Stub:
    """The HTTP stub child process; ``close()`` ends it and waits for it."""

    def __init__(self, seed: int, pool: int):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "bench_stub.py"), "--seed", str(seed),
             "--pool", str(pool), "--latency-ms", str(LATENCY_S * 1000)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"stub did not start: {line!r}")
        self.url = f"http://127.0.0.1:{int(line.split()[1])}"

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()  # end of stdin shuts the stub down
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Workload set-up
# ---------------------------------------------------------------------------

@dataclass
class Setup:
    problems: list
    expected: dict          # problem id -> (outcome kind, correct, queries)
    shares: dict
    counter: backend.QueryCounter
    factory: object
    stub: Stub | None = None
    record_dir: Path | None = None     # cassettes a later replay must reproduce from
    reference_csv: bytes | None = None  # report.csv the timed runs must reproduce
    errors: list = field(default_factory=list)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()


def _macm_inputs(seed: int, pool: int, workdir: Path):
    specs = bench_model.macm_pool(seed, pool)
    path = workdir / "macm.jsonl"
    path.write_text(bench_model.macm_dataset_lines(specs), encoding="utf-8")
    return specs, harness.load_problems(path)


def setup_http(seed: int, pool: int, workdir: Path) -> Setup:
    import requests  # noqa: F401  -- HttpBackend imports it lazily on the first call

    specs, problems = _macm_inputs(seed, pool, workdir)
    stub = Stub(seed, pool)
    counter = backend.QueryCounter()
    client = backend.HttpBackend(base_url=stub.url, api_key="perfbench", model="fake-macm",
                                 counter=counter)
    return Setup(problems, {s.pid: s.expected() for s in specs}, bench_model.macm_shares(specs),
                 counter, lambda problem_id: client, stub=stub)


def setup_replay(seed: int, pool: int, workdir: Path) -> Setup:
    specs, problems = _macm_inputs(seed, pool, workdir)
    expected = {s.pid: s.expected() for s in specs}
    fake = bench_model.FakeBackend(bench_model.FakeModel(macm=specs), backend.QueryCounter())
    cassettes = workdir / "cassettes"
    record_out = workdir / "record"
    report = harness.run_benchmark(
        problems, MACM_METHOD,
        lambda problem_id: backend.RecordingBackend(fake, cassettes / f"{problem_id}.jsonl"),
        record_out)
    harness.write_report(report, record_out)
    counter = backend.QueryCounter()
    setup = Setup(problems, expected, bench_model.macm_shares(specs), counter,
                  harness.make_backend_factory(f"replay:{cassettes}", counter),
                  reference_csv=(record_out / "report.csv").read_bytes())
    setup.errors += row_mismatches(report, expected)
    return setup


def setup_sccot(seed: int, pool: int, workdir: Path) -> Setup:
    specs = bench_model.game24_pool(seed, pool)
    path = workdir / "game24.txt"
    path.write_text(bench_model.game24_dataset_lines(specs), encoding="utf-8")
    problems = harness.load_game24_file(path)
    expected = {p.id: s.expected() for p, s in zip(problems, specs)}
    counter = backend.QueryCounter()
    fake = bench_model.FakeBackend(bench_model.FakeModel(game24=specs), counter)
    cassettes = workdir / "cassettes"
    return Setup(problems, expected, bench_model.game24_shares(specs), counter,
                 lambda problem_id: backend.RecordingBackend(
                     fake, cassettes / f"{problem_id}.jsonl"),
                 record_dir=cassettes)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    pool: int
    method: object
    task: str
    parallelism: int


WORKLOAD_DEFS = {
    "macm-http": Workload("macm-http", setup_http, MACM_POOL, MACM_METHOD, "math", HTTP_WORKERS),
    "macm-replay": Workload("macm-replay", setup_replay, MACM_POOL, MACM_METHOD, "math", 1),
    "sccot-game24-record": Workload("sccot-game24-record", setup_sccot, GAME24_POOL,
                                    SCCOT_METHOD, "game24", 1),
}


def set_up(workload: Workload, seed: int, workdir: Path, reps: int) -> tuple[Setup, float]:
    """Run the set-up ``reps`` times, keep the last, and return it with the
    median set-up time."""
    times = []
    setup = None
    for i in range(reps):
        if setup is not None:
            setup.close()
        rep_dir = workdir / f"setup{i}"
        rep_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        setup = workload.setup(seed, workload.pool, rep_dir)
        times.append(time.perf_counter() - t0)
    return setup, statistics.median(times)


# ---------------------------------------------------------------------------
# Timed phase
# ---------------------------------------------------------------------------

@dataclass
class Phase:
    reports: list
    passes: list            # (wall seconds, CPU seconds) of each run_benchmark call
    latencies: list         # per pass, the wall seconds of each timed problem
    queries: int
    stub_delta: dict | None
    out_dir: Path

    @property
    def problems(self) -> int:
        return sum(len(r.rows) for r in self.reports)

    def rate(self) -> float:
        """Problems finished per second, as three quarters of the passes met or beat."""
        return _worse_quartile(self, lambda report, wall, cpu: len(report.rows) / wall,
                               higher_is_better=True)


def run_phase(workload: Workload, setup: Setup, seconds: float, out_dir: Path,
              tracer: Tracer | None = None) -> Phase:
    """Call run_benchmark over the whole pool until ``seconds`` have passed.

    A problem's wall time is the gap between its worker's consecutive
    backend_factory calls, since each pool thread runs its problems one after
    another. The end of a worker's last problem in a pass is not visible from
    outside, so those problems are not timed.
    """
    marks: list[tuple[int, int, float]] = []
    inner = setup.factory
    current_pass = [0]

    def factory(problem_id):
        marks.append((current_pass[0], threading.get_ident(), time.perf_counter()))
        if tracer is not None:
            tracer.set_problem(problem_id)
        return inner(problem_id)

    stats0 = setup.stub.stats() if setup.stub else None
    queries0 = setup.counter.requests
    reports = []
    passes = []
    t_end = time.perf_counter() + seconds
    while not reports or time.perf_counter() < t_end:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        reports.append(harness.run_benchmark(setup.problems, workload.method, factory, out_dir,
                                             task=workload.task,
                                             parallelism=workload.parallelism))
        passes.append((time.perf_counter() - t0, time.process_time() - cpu0))
        current_pass[0] += 1
    stub_delta = None
    if setup.stub:
        stats1 = setup.stub.stats()
        stub_delta = {k: stats1[k] - stats0[k] for k in stats1}

    by_worker: dict[tuple[int, int], list[float]] = {}
    for pass_no, thread, t in marks:
        by_worker.setdefault((pass_no, thread), []).append(t)
    latencies = [[] for _ in reports]
    for (pass_no, _), times in by_worker.items():
        latencies[pass_no] += [b - a for a, b in zip(times, times[1:])]
    return Phase(reports, passes, latencies, setup.counter.requests - queries0,
                 stub_delta, out_dir)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def row_mismatches(report, expected: dict) -> list[str]:
    """One message per row whose (outcome kind, correct, queries) differs
    from the generator's expectation."""
    return [f"{row.id}: got {got}, expected {expected.get(row.id)}"
            for row in report.rows
            if (got := (row.outcome["kind"], row.correct, row.queries)) != expected.get(row.id)]


def check_phase(workload: Workload, setup: Setup, phase: Phase) -> tuple[int, list[str]]:
    """Count mismatching rows and collect every failed check, outside the timed phase."""
    failed = 0
    errors = list(setup.errors)
    for report in phase.reports:
        mismatches = row_mismatches(report, setup.expected)
        failed += len(mismatches)
        errors += mismatches
        if sorted(r.id for r in report.rows) != sorted(setup.expected):
            errors.append("report rows do not cover the problem pool exactly")
    row_queries = sum(r.queries for rep in phase.reports for r in rep.rows)
    if phase.queries != row_queries:
        errors.append(f"QueryCounter counted {phase.queries} requests, rows {row_queries}")
    last = phase.reports[-1]
    on_disk = sum(harness.read_transcript(phase.out_dir / r.transcript_path).query_count()
                  for r in last.rows)
    if on_disk != sum(r.queries for r in last.rows):
        errors.append(f"transcripts on disk hold {on_disk} AgentCalls, "
                      f"rows {sum(r.queries for r in last.rows)}")
    harness.write_report(last, phase.out_dir)
    csv_bytes = (phase.out_dir / "report.csv").read_bytes()
    if setup.reference_csv is not None and csv_bytes != setup.reference_csv:
        errors.append("replayed report.csv differs from the recorded one")
    if setup.record_dir is not None:
        replay_dir = phase.out_dir.parent / (phase.out_dir.name + "-replay")
        replayed = harness.run_benchmark(
            setup.problems, workload.method,
            harness.make_backend_factory(f"replay:{setup.record_dir}", backend.QueryCounter()),
            replay_dir, task=workload.task)
        harness.write_report(replayed, replay_dir)
        if (replay_dir / "report.csv").read_bytes() != csv_bytes:
            errors.append("replaying the recorded cassettes changed report.csv")
    return failed, errors


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _worse_quartile(phase: Phase, per_pass, higher_is_better: bool) -> float:
    """The figure that three quarters of the passes met or beat.

    A shared machine alternates between fast and slow stretches, and the
    share of fast ones differs from run to run; this quartile sits inside
    the common slow mode, where a median would jump between the two.
    """
    values = [per_pass(report, wall, cpu)
              for report, (wall, cpu) in zip(phase.reports, phase.passes)]
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0 if higher_is_better else 2]


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] * 1000 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def _latency_ms(phase: Phase, q: int) -> float:
    """The q-th percentile problem wall time, per block of consecutive passes
    holding at least ~200 timed problems (so a 95th percentile has ten
    samples beyond it); the worse quartile over blocks when there are several."""
    total = sum(map(len, phase.latencies))
    if not total:
        return 0.0
    k = max(1, total // LATENCY_BLOCK)
    blocks = [[] for _ in range(k)]
    seen = 0
    for latencies in phase.latencies:
        blocks[seen * k // total].extend(latencies)
        seen += len(latencies)
    values = [_percentile_ms(block, q) for block in blocks]
    return values[0] if k == 1 else statistics.quantiles(values, n=4)[2]


def end_to_end(phase: Phase, setup_s: float, failed: int) -> dict:
    n = phase.problems
    return {
        "setup_s": setup_s,
        "problems_per_s": phase.rate(),
        "problem_ms_p50": _latency_ms(phase, 50),
        "problem_ms_p95": _latency_ms(phase, 95),
        "cpu_ms_per_problem": _worse_quartile(
            phase, lambda report, wall, cpu: cpu * 1000 / len(report.rows),
            higher_is_better=False),
        "queries_per_problem": phase.queries / n,
        "accuracy": sum(r.correct for rep in phase.reports for r in rep.rows) / n,
        "failed_share": failed / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public entry point of each layer (restored when the tracer exits)."""
    wrap = tracer.wrap

    def prompt_chars(args, result):
        return len(args[1].prompt_text())

    wrap(backend.HttpBackend, "complete", "HttpBackend.complete", "backend", prompt_chars)
    wrap(backend.ReplayBackend, "complete", "ReplayBackend.complete", "backend", prompt_chars)
    wrap(backend.ReplayBackend, "__init__", "ReplayBackend.load", "backend")
    wrap(backend.RecordingBackend, "complete", "RecordingBackend.complete", "backend",
         prompt_chars)
    wrap(bench_model.FakeBackend, "complete", "fake_model", "model")
    for op in AGENT_OPS:
        wrap(agents.AgentClient, op, op, "agents",
             (lambda args, result: result.value) if op == "judge_condition" else None)
    for parser in PARSERS:
        wrap(agents, parser, parser, "agents")
    wrap(baselines, "extract_answer", "extract_answer", "agents")
    wrap(orchestrator, "solve", "orchestrator.solve", "orchestrator")
    wrap(domain.ConditionList, "is_duplicate", "is_duplicate", "domain",
         lambda args, result: result)
    wrap(harness, "solve_sc_cot", "solve_sc_cot", "baselines")
    wrap(baselines, "solve_cot", "solve_cot", "baselines")
    wrap(harness, "grade", "grade", "tasks")
    wrap(harness, "write_transcript", "write_transcript", "harness",
         lambda args, result: len(args[0].events))
    wrap(harness, "run_benchmark", "run_benchmark", "harness")


def per_layer(tracer: Tracer, phase: Phase, oracle: Tracer, untraced_rate: float) -> dict:
    spans = tracer.spans
    self_s = tracer.self_times()
    passes = len(phase.reports)
    n = phase.problems
    named: dict[str, list[int]] = {}
    for i, s in spans.items():
        named.setdefault(s.name, []).append(i)

    def durations(name):
        return [spans[i].duration for i in named.get(name, ())]

    def selfs(name):
        return [self_s[i] for i in named.get(name, ())]

    def layer_self_ms_per_pass(layer):
        return sum(self_s[i] for i, s in spans.items() if s.layer == layer) * 1000 / passes

    def ratio(a, b):
        return a / b if b else 0.0

    http_calls = len(named.get("HttpBackend.complete", ()))
    stub = phase.stub_delta or {"connections": 0, "requests": 0}
    parses = [spans[i] for p in PARSERS for i in named.get(p, ())]
    judged = [spans[i].info for i in named.get("judge_condition", ())]
    baseline_ids = {i for i, s in spans.items() if s.layer == "baselines"}
    baseline_prompts = [s.info for s in spans.values()
                        if s.layer == "backend" and s.parent in baseline_ids]
    oracle_ms = {True: [], False: []}
    for s in oracle.spans.values():
        oracle_ms[s.info].append(s.duration * 1000)
    transcripts = list((phase.out_dir / "transcripts").glob("*.jsonl"))
    events = [spans[i].info for i in named.get("write_transcript", ())]
    return {
        "backend.http_overhead_ms_p50": median(
            (d - LATENCY_S for d in durations("HttpBackend.complete")), 1000),
        "backend.http_connections_per_call": ratio(stub["connections"], http_calls),
        "backend.http_requests_per_call": ratio(stub["requests"], http_calls),
        "backend.replay_load_ms_total":
            sum(durations("ReplayBackend.load")) * 1000 / passes,
        "backend.replay_match_us_p50": median(selfs("ReplayBackend.complete"), 1e6),
        "backend.record_append_us_p50": median(selfs("RecordingBackend.complete"), 1e6),
        "agents.self_ms_total": layer_self_ms_per_pass("agents"),
        **{f"agents.parse_us_p50.{p}": median(durations(p), 1e6) for p in PARSERS},
        "agents.format_retries": sum(not s.ok for s in parses) / n,
        "agents.parse_ok_ratio": ratio(sum(s.ok for s in parses), len(parses)),
        "orchestrator.solve_self_ms_total":
            sum(selfs("orchestrator.solve")) * 1000 / passes,
        "orchestrator.rounds_per_problem": ratio(len(named.get("judge_sufficiency", ())),
                                                 len(named.get("orchestrator.solve", ()))),
        "orchestrator.judge_accept_ratio": ratio(sum(judged), len(judged)),
        "orchestrator.duplicates_dropped":
            sum(bool(spans[i].info) for i in named.get("is_duplicate", ())) / n,
        "baselines.self_ms_total": layer_self_ms_per_pass("baselines"),
        "baselines.prompt_chars_per_call": ratio(sum(baseline_prompts), len(baseline_prompts)),
        "tasks.grade_us_p50": median(durations("grade"), 1e6),
        "tasks.game24_oracle_ms_p50.solvable": median(oracle_ms[True]),
        "tasks.game24_oracle_ms_p50.unsolvable": median(oracle_ms[False]),
        "harness.write_transcript_us_p50": median(durations("write_transcript"), 1e6),
        "harness.transcript_bytes_per_problem":
            ratio(sum(p.stat().st_size for p in transcripts), len(transcripts)),
        "harness.run_benchmark_self_ms_total":
            sum(selfs("run_benchmark")) * 1000 / passes,
        "domain.events_per_problem": ratio(sum(events), len(events)),
        "tracing_overhead": ratio(phase.rate(), untraced_rate),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 reps: int = SETUP_REPS, pool: int | None = None) -> dict:
    """Set up, measure and check one workload; returns the printed result."""
    workload = WORKLOAD_DEFS[name]
    if pool is not None:
        workload = dataclasses.replace(workload, pool=pool)
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    oracle = Tracer()
    setup = None
    try:
        if trace:
            oracle.wrap(tasks, "game24_oracle", "game24_oracle", "tasks",
                        lambda args, result: result is not None)
        with oracle:
            setup, setup_rep_s = set_up(workload, seed, workdir, reps)
        if not trace:
            phase = run_phase(workload, setup, seconds, workdir / "out")
            failed, errors = check_phase(workload, setup, phase)
            metrics = end_to_end(phase, IMPORT_S + setup_rep_s, failed)
            units = dict(END_TO_END)
            attempted = phase.problems
        else:
            plain = run_phase(workload, setup, seconds / 2, workdir / "out-plain")
            with Tracer() as tracer:
                install_tracing(tracer)
                traced = run_phase(workload, setup, seconds / 2, workdir / "out", tracer)
            failed, errors = check_phase(workload, setup, traced)
            failed_plain, errors_plain = check_phase(workload, setup, plain)
            failed += failed_plain
            errors += errors_plain
            metrics = per_layer(tracer, traced, oracle, plain.rate())
            units = dict(PER_LAYER)
            attempted = plain.problems + traced.problems
            WORK.mkdir(exist_ok=True)
            tracer.write(WORK / f"spans-{name}.jsonl.gz")
    finally:
        if setup is not None:
            setup.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {name} seed {seed} trace {int(trace)}: "
          f"{attempted} problems, {workload.parallelism} worker(s)")
    print("# inputs " + json.dumps(setup.shares, sort_keys=True))
    print(f"# machine nproc={os.cpu_count()} python={platform.python_version()}")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    for error in errors[:20]:
        print(f"MISMATCH {error}")
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()
                    if k not in NOT_IN_JSON},
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines() or [""]
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if not lines[-1].startswith("{"):
                combined["correct"] = False
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"] and proc.returncode == 0
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="macm benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
