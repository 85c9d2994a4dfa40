"""Multi-agent condition-mining solver for math problems.

A Thinker proposes conditions, a Judge gates them, and an Executor computes
the final answer, over any chat-completion backend. Includes I-O / CoT /
SC-CoT baselines, verifiable task graders, and a benchmark harness.
"""

from .domain import (
    ConditionList,
    Outcome,
    Problem,
    RunConfig,
    RunError,
    SamplingParams,
    Solved,
    Transcript,
    Unsolvable,
    Verdict,
    normalize_condition_text,
)
from .orchestrator import resume_from_transcript, solve

__all__ = [
    "ConditionList",
    "Outcome",
    "Problem",
    "RunConfig",
    "RunError",
    "SamplingParams",
    "Solved",
    "Transcript",
    "Unsolvable",
    "Verdict",
    "normalize_condition_text",
    "resume_from_transcript",
    "solve",
]
