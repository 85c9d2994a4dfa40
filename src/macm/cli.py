"""Command-line interface: solve one problem, run a benchmark, or sweep knobs."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import harness
from .baselines import MethodMACM
from .domain import Problem, RunError, outcome_to_dict
from .errors import BackendFailure, EmptyDataset, SchemaError
from .prompts import PromptCatalog

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3
# The exit code of a solve whose run ended in a RunError, by its kind.
EXIT_FOR_ERROR = {"ParseFailure": 1, "BackendFailure": EXIT_BACKEND, "BudgetExceeded": 4,
                  "InternalError": 5}


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--method", choices=list(harness.METHODS), default="macm")
    parser.add_argument("--backend", required=True,
                        help="http | scripted:<file> | replay:<dir-or-transcript>: a "
                             "bench's <out>/transcripts, or a solve's or sweep's --out")
    for knob, kind in harness.KNOBS.items():
        takers = "|".join(name for name, cls in harness.METHODS.items()
                          if knob in harness.METHOD_KNOBS[cls])
        parser.add_argument("--" + knob.replace("_", "-"), type=kind,
                            help=f"taken by --method {takers}; unset: the method's default")
    parser.add_argument("--prompts-dir",
                        help="directory of prompt override files (--method macm)")
    parser.add_argument("--out", help="output directory")


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--task", choices=list(harness.TASKS), default="math")
    parser.add_argument("--sample", type=float, help="sample fraction (0, 1]")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lenient", action="store_true",
                        help="skip malformed dataset lines instead of aborting")
    parser.add_argument("--filter-wrong-from",
                        help="report.json whose incorrect rows select the problem subset")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="macm")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a single problem")
    group = p_solve.add_mutually_exclusive_group(required=True)
    group.add_argument("--question", help="problem text")
    group.add_argument("--problem-file", help="JSONL file; the first problem is solved")
    _add_common_flags(p_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark over a dataset")
    _add_dataset_flags(p_bench)
    p_bench.add_argument("--parallelism", type=int, default=1)
    _add_common_flags(p_bench)

    p_sweep = sub.add_parser("sweep", help="sweep knob settings over a dataset "
                                           "(counts responses, not requests)")
    _add_dataset_flags(p_sweep)
    p_sweep.add_argument("--grid", required=True,
                         help="JSON object {knob: [values]}, knobs named as the flags, or @file")
    _add_common_flags(p_sweep)

    return parser


def _method(args):
    """The chosen method with the knob flags that were given."""
    method = harness.METHODS[args.method]()
    if args.prompts_dir is not None:
        if not isinstance(method, MethodMACM):
            raise ValueError(f"--method {args.method} does not take --prompts-dir")
        method = MethodMACM(prompts=PromptCatalog.load(args.prompts_dir))
    return harness.with_knobs(method, {knob: getattr(args, knob) for knob in harness.KNOBS
                                       if getattr(args, knob) is not None})


def _load_dataset(args) -> list[Problem]:
    problems = harness.load_problems(args.dataset, lenient=args.lenient, task=args.task)
    if args.filter_wrong_from:
        problems = harness.filter_wrong(problems, args.filter_wrong_from)
    if args.sample is not None:
        problems = harness.sample_problems(problems, args.sample, args.seed)
    return problems


def cmd_solve(args) -> int:
    method = _method(args)
    if args.question is not None:
        problem = Problem(id="cli", question=args.question)
    else:
        problems = harness.load_problems(args.problem_file)
        if not problems:
            raise EmptyDataset(f"no problems in {args.problem_file}")
        problem = problems[0]
    factory = harness.make_backend_factory(args.backend)  # refuses a malformed script
    if args.out:  # before any model call, so an --out that cannot be made costs none
        Path(args.out).mkdir(parents=True, exist_ok=True)
    transcript = harness.solve_one(problem, method, factory)
    outcome = transcript.outcome
    print(json.dumps({"outcome": outcome_to_dict(outcome),
                      "queries": transcript.query_count(),
                      "choices": transcript.choice_count()}, ensure_ascii=False))
    if args.out:
        harness.write_transcript(transcript, Path(args.out) / f"{problem.id}.jsonl")

    if isinstance(outcome, RunError):
        return EXIT_FOR_ERROR[outcome.kind]
    return EXIT_OK


def cmd_bench(args) -> int:
    problems = _load_dataset(args)
    factory = harness.make_backend_factory(args.backend)
    out_dir = Path(args.out or "bench_out")
    report = harness.run_benchmark(
        problems, _method(args), factory, out_dir, task=args.task,
        parallelism=args.parallelism)
    harness.write_report(report, out_dir)
    agg = report.aggregates
    print(f"accuracy {agg['accuracy'] * 100:.2f}% "
          f"({agg['correct']}/{agg['attempted']}), "
          f"mean queries {agg['mean_queries']:.2f}, mean choices {agg['mean_choices']:.2f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    problems = _load_dataset(args)
    grid_text = args.grid
    if grid_text.startswith("@"):
        grid_text = Path(grid_text[1:]).read_text(encoding="utf-8")
    grid = json.loads(grid_text)
    kind, _, target = args.backend.partition(":")
    if kind == "replay" and Path(target).is_dir():
        # A sweep's --out: each point replays from its own bench directory.
        def point_factory(point: str):
            return harness.make_backend_factory(f"replay:{Path(target, point, 'transcripts')}")
    else:
        factory = harness.make_backend_factory(args.backend)

        def point_factory(point: str):
            return factory
    out_dir = Path(args.out or "sweep_out")
    points = harness.sweep_queries(problems, _method(args), grid, point_factory, out_dir,
                                   task=args.task)
    for settings, report in points:
        agg = report.aggregates
        print(f"{settings} -> mean_queries={agg['mean_choices']:.2f} "
              f"corrected={agg['accuracy']:.3f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "solve":
            return cmd_solve(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_sweep(args)
    except (SchemaError, EmptyDataset, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BackendFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
