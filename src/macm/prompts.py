"""Prompt catalog for the three agent roles.

The catalog ships embedded defaults and can be overridden by a directory of
text files named thinker_system.txt, judge_system.txt, executor_system.txt,
and prompt0.txt .. prompt6.txt.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, replace
from pathlib import Path

THINKER_SYSTEM = (
    "You take the role of a thinker. I need you to help me gradually ponder "
    "over some problems following my instructions. You need to answer the "
    "question by using the following format: "
    "Based on Condition A and Condition B, we can get: C."
)

JUDGE_SYSTEM = (
    "You take the role of a Judge. I need you to make judgments on some "
    "statements. You are only allowed to use the True or False as the final "
    "answer."
)

EXECUTOR_SYSTEM = (
    "You take the role of a executor. I need you to calculate the final "
    "result based on the given conditions and steps."
)

# prompt0: extract conditions and the objective from the raw problem
EXTRACT = (
    "Read the following problem. List every condition it states, one per "
    "numbered line under the heading \"Conditions:\", then state the single "
    "objective to achieve under the heading \"Objective:\".\n\n"
    "Problem: {question}"
)

# prompt1: mine new conditions from the current known conditions
MINE = (
    "Here are the known conditions:\n{conditions}\n"
    "Objective: {objective}\n"
    "Derive new conditions that help achieve the objective. Answer each one "
    "on its own line in the format: "
    "Based on <known conditions used>, we can get: <new condition>."
)

# prompt2: judge one candidate condition against the known conditions
JUDGE_CONDITION = (
    "Known conditions:\n{conditions}\n"
    "Judge whether the following statement is correct given the known "
    "conditions. Statement: {candidate}"
)

# prompt3: generalized sufficiency evaluation
SUFFICIENCY = (
    "Evaluate {objective} {conditions}"
)

# prompt4: design solution steps from the accepted conditions
DESIGN_STEPS = (
    "Known conditions:\n{conditions}\n"
    "Objective: {objective}\n"
    "Design the steps needed to achieve the objective from the known "
    "conditions. Answer with a numbered list, one step per line."
)

# prompt5: execute the designed steps and report the final answer
EXECUTE = (
    "Known conditions:\n{conditions}\n"
    "Objective: {objective}\n"
    "Steps:\n{steps}\n"
    "Carry out the steps and give the final result on the last line in the "
    "format: Answer: <result>"
)

# prompt6: one-line reminder appended when a reply fails its format parser
FORMAT_REMINDER = (
    "Your previous answer did not follow the required format. Answer again "
    "using exactly the required format."
)

_FILE_FIELDS = {
    "thinker_system.txt": "thinker_system",
    "judge_system.txt": "judge_system",
    "executor_system.txt": "executor_system",
    "prompt0.txt": "extract",
    "prompt1.txt": "mine",
    "prompt2.txt": "judge_condition",
    "prompt3.txt": "sufficiency",
    "prompt4.txt": "design_steps",
    "prompt5.txt": "execute",
    "prompt6.txt": "format_reminder",
}
# The fields the code fills in each formatted prompt; the others are sent as they are.
FILLED = {"extract": {"question"}, "mine": {"conditions", "objective"},
          "judge_condition": {"conditions", "candidate"},
          "sufficiency": {"conditions", "objective"}, "design_steps": {"conditions", "objective"},
          "execute": {"conditions", "objective", "steps"}}


@dataclass(frozen=True)
class PromptCatalog:
    thinker_system: str = THINKER_SYSTEM
    judge_system: str = JUDGE_SYSTEM
    executor_system: str = EXECUTOR_SYSTEM
    extract: str = EXTRACT
    mine: str = MINE
    judge_condition: str = JUDGE_CONDITION
    sufficiency: str = SUFFICIENCY
    design_steps: str = DESIGN_STEPS
    execute: str = EXECUTE
    format_reminder: str = FORMAT_REMINDER

    @classmethod
    def load(cls, directory: str | Path | None = None) -> "PromptCatalog":
        """Default catalog, with any files present in ``directory`` overriding
        the corresponding embedded prompt. A path that is not a directory, a
        ``*.txt`` file there that overrides no prompt, or a formatted prompt that
        the code cannot fill (see FILLED) raises ValueError."""
        catalog = cls()
        if directory is None:
            return catalog
        directory = Path(directory)
        if not directory.is_dir():
            raise ValueError(f"{directory} is not a directory")
        overrides = {}
        for path in sorted(directory.glob("*.txt")):
            if path.name not in _FILE_FIELDS:
                raise ValueError(f"{path} overrides no prompt; the prompt files are "
                                 + ", ".join(_FILE_FIELDS))
            name = _FILE_FIELDS[path.name]
            text = overrides[name] = path.read_text(encoding="utf-8").strip()
            if name not in FILLED:
                continue
            try:  # a positional, dotted or indexed field is not filled either
                unfilled = [f"{{{field}}}" for _, field, _, _ in string.Formatter().parse(text)
                            if field is not None and field not in FILLED[name]]
            except ValueError as exc:  # a lone brace
                unfilled = [str(exc)]
            if unfilled:
                raise ValueError(f"{path}: {', '.join(unfilled)}: this prompt is filled only with "
                                 f"{sorted(FILLED[name])}; write a literal brace as {{{{ or }}}}")
        return replace(catalog, **overrides)
