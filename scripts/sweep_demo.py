#!/usr/bin/env python3
"""Offline query-count sweep demo: I-O prompting with n in {1, 3} over a tiny
synthetic dataset, using scripted backends. Writes sweep.csv, and a bench
directory per grid point, under --out."""

import argparse

from macm.backend import ScriptedBackend, ScriptEntry
from macm.baselines import MethodIO
from macm.domain import Problem
from macm.harness import sweep_queries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="sweep_demo_out")
    args = parser.parse_args()

    problems = [Problem(id=f"p{i}", question=f"What is {i} + {i}?",
                        gold_answer=str(2 * i)) for i in range(5)]

    def factory(problem_id: str) -> ScriptedBackend:
        answer = str(2 * int(problem_id[1:]))
        # Two replies: one for generation, one for the n>1 selection round.
        entries = [ScriptEntry(reply=f"Answer: {answer}")] * 2
        return ScriptedBackend({"solver": list(entries)})

    points = sweep_queries(problems, MethodIO(), {"n": [1, 3]}, lambda point: factory, args.out)
    for settings, report in points:
        agg = report.aggregates
        print(f"{settings} -> mean_queries={agg['mean_choices']:.2f} "
              f"corrected={agg['accuracy']:.3f}")
    consumed = sum(row.choices for _, report in points for row in report.rows)
    print(f"total responses consumed: {consumed}")
    print(f"wrote {args.out}/sweep.csv")


if __name__ == "__main__":
    main()
