"""Seeded benchmark inputs and the deterministic fake chat model that answers them.

The generator turns a seed into problem specs with exact expected rows
(outcome kind, graded correctness, request count). The fake model is a pure
function of those specs and the prompt: it picks the role from the system
prompt (none means the baseline solver), recognises the operation by
matching the user message against the program's own prompt templates, and
reads the problem from tags embedded in the generated text. The same model
therefore serves in-process, behind the loopback HTTP stub, and under
recording.

Properties are allocated in exact counts (largest remainder, then a seeded
shuffle), so each pool of a given size has the same shares for every seed
and only their assignment to problems varies.
"""

from __future__ import annotations

import json
import random
import re
import string
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from macm import baselines, prompts, tasks
from macm.backend import ChatResponse, QueryCounter

ROUND_CAP = 5  # RunConfig().max_iterations
NEVER = ROUND_CAP + 1  # a problem whose sufficiency check never passes

# Rounds needed to reach sufficiency; NEVER problems hit the cap and end Unsolvable.
ROUNDS_WEIGHTS = {1: 6, 2: 8, 3: 8, 4: 6, 5: 6, NEVER: 6}
INITIAL_WEIGHTS = {2: 1, 3: 1, 4: 1}  # conditions stated in the question
# Extra candidates beside the round's one progress fact, allocated per round.
EXTRAS_WEIGHTS = {0: 3, 1: 4, 2: 3}
# Kind of each extra candidate: dropped as a duplicate, accepted, or rejected.
EXTRA_KIND_WEIGHTS = {"dup": 3, "lemma": 3, "guess": 4}
RETRY_SHARE = 0.08  # parseable calls whose first reply breaks the format
WRONG_SHARE = 0.15  # sufficient problems answered with a wrong value
ANSWER_FORMS = ("plain", "boxed", "dollar", "dollar_boxed")
GAME24_SOLVABLE_SHARE = 0.75
CHAIN_LENGTHS = (1, 2, 3, 4, 5)  # CoT links until the Answer marker; MethodSCCoT l=5
SCCOT_VOTERS = 5  # MethodSCCoT default v

_PID = re.compile(r"\[(p\d{4})\]")
_NUMS = re.compile(r"\d+")
_FACT = re.compile(r"\] step-(\d+) result")
_EXTRA = re.compile(r"\] (?:side fact|guess) (\d+)\.(\d+): ")


def _allocate(n: int, weights: dict, rng: random.Random) -> list:
    """n values with shares as close to ``weights`` as whole counts allow,
    in seeded random order."""
    total = sum(weights.values())
    exact = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    by_remainder = sorted(weights, key=lambda k: exact[k] - counts[k], reverse=True)
    for k in by_remainder[:n - sum(counts.values())]:
        counts[k] += 1
    values = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(values)
    return values


# ---------------------------------------------------------------------------
# MACM problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MacmSpec:
    pid: str
    initial: tuple[str, ...]
    gold: Fraction
    need: int                            # rounds to sufficiency, NEVER = cap hit
    rounds: tuple[tuple[str, ...], ...]  # candidate kinds per mined round
    retry: frozenset                     # call keys whose first reply is malformed
    form: str
    wrong: bool

    @property
    def question(self) -> str:
        return (f"[{self.pid}] " + "; ".join(self.initial)
                + f". Find the value of t for [{self.pid}].")

    @property
    def objective(self) -> str:
        return f"Find the value of t for [{self.pid}]."

    def candidate_text(self, r: int, j: int, kind: str) -> str:
        if kind == "fact":
            return f"[{self.pid}] step-{r} result: y{r} = {r * 3 + 1}"
        if kind == "dup":
            return "  " + self.initial[0].replace(" ", "   ") + " "
        if kind == "lemma":
            return f"[{self.pid}] side fact {r}.{j}: z{j} = {r + j}"
        return f"[{self.pid}] guess {r}.{j}: w{j} = {r - j}"

    def answer_text(self) -> str:
        value = self.gold + 1 if self.wrong else self.gold
        if self.form == "plain":
            return str(value)
        latex = (str(value.numerator) if value.denominator == 1
                 else f"\\frac{{{value.numerator}}}{{{value.denominator}}}")
        return {"boxed": f"\\boxed{{{latex}}}", "dollar": f"${latex}$",
                "dollar_boxed": f"$\\boxed{{{latex}}}$"}[self.form]

    def expected(self) -> tuple[str, bool, int]:
        """(outcome kind, correct, requests) this problem must produce."""
        def call(key) -> int:
            return 2 if key in self.retry else 1

        queries = call(("extract",))
        for r, kinds in enumerate(self.rounds, start=1):
            queries += call(("mine", r))
            queries += sum(call(("judge", r, j)) for j, k in enumerate(kinds) if k != "dup")
            queries += call(("suff", r))
        if self.need == NEVER:
            return "unsolvable", False, queries
        return "solved", not self.wrong, queries + 2  # design steps + execute


def macm_pool(seed: int, n: int) -> list[MacmSpec]:
    rng = random.Random(f"macm:{seed}")
    needs = _allocate(n, ROUNDS_WEIGHTS, rng)
    extras = _allocate(sum(min(k, ROUND_CAP) for k in needs), EXTRAS_WEIGHTS, rng)
    extra_kinds = iter(_allocate(sum(extras), EXTRA_KIND_WEIGHTS, rng))
    extras = iter(extras)
    sufficient = [i for i, k in enumerate(needs) if k != NEVER]
    wrong = set(rng.sample(sufficient, round(WRONG_SHARE * len(sufficient))))
    forms = _allocate(n, dict.fromkeys(ANSWER_FORMS, 1), rng)
    n_initial = _allocate(n, INITIAL_WEIGHTS, rng)
    drafts = []
    for i, need in enumerate(needs):
        pid = f"p{i:04d}"
        initial = tuple(f"[{pid}] quantity a{k} equals {rng.randint(2, 40)}"
                        for k in range(1, n_initial[i] + 1))
        rounds = tuple(("fact",) + tuple(next(extra_kinds) for _ in range(next(extras)))
                       for _ in range(min(need, ROUND_CAP)))
        gold = Fraction(rng.randint(1, 60), rng.choice((1, 1, 2, 3, 4, 7)))
        drafts.append((pid, initial, gold, need, rounds))
    calls = [(i, key) for i, d in enumerate(drafts) for key in _parseable_calls(d[4])]
    retry = set(rng.sample(calls, round(RETRY_SHARE * len(calls))))
    return [MacmSpec(pid, initial, gold, need, rounds,
                     frozenset(key for key in _parseable_calls(rounds) if (i, key) in retry),
                     forms[i], i in wrong)
            for i, (pid, initial, gold, need, rounds) in enumerate(drafts)]


def _parseable_calls(rounds) -> list[tuple]:
    """Keys of the calls whose reply parser can reject a reply."""
    keys = [("extract",)]
    for r, kinds in enumerate(rounds, start=1):
        keys += [("mine", r), ("suff", r)]
        keys += [("judge", r, j) for j, k in enumerate(kinds) if k != "dup"]
    return keys


def macm_dataset_lines(specs: list[MacmSpec]) -> str:
    categories = ("Algebra", "Number Theory", "Prealgebra")
    return "".join(json.dumps({
        "id": s.pid, "question": s.question, "answer": str(s.gold),
        "category": categories[int(s.pid[1:]) % 3], "level": min(s.need, ROUND_CAP),
    }) + "\n" for s in specs)


def macm_shares(specs: list[MacmSpec]) -> dict:
    rounds = [r for s in specs for r in s.rounds]
    kinds = Counter(k for r in rounds for k in r)
    candidates = sum(kinds.values())
    judged = candidates - kinds["dup"]
    needs = Counter(s.need for s in specs)
    return {
        "problems": len(specs),
        "rounds_to_sufficiency": {("cap_unsolvable" if k == NEVER else str(k)): needs[k] / len(specs)
                                  for k in sorted(needs)},
        "candidates_per_round": candidates / len(rounds),
        "duplicate_candidate_share": kinds["dup"] / candidates,
        "judge_accept_rate": (judged - kinds["guess"]) / judged,
        "format_retry_share": (sum(len(s.retry) for s in specs)
                               / sum(len(_parseable_calls(s.rounds)) for s in specs)),
        "answer_forms": {f: sum(s.form == f for s in specs) / len(specs) for f in ANSWER_FORMS},
        "wrong_answer_share": sum(s.wrong for s in specs) / len(specs),
    }


# ---------------------------------------------------------------------------
# 24-game instances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Game24Spec:
    numbers: tuple[int, int, int, int]
    witness: str | None  # rendered oracle expression, None when unsolvable
    chain: int

    def final_answer(self) -> str:
        if self.witness is not None:
            return f"{self.witness} = 24"
        return " + ".join(map(str, self.numbers))

    def expected(self) -> tuple[str, bool, int]:
        return "solved", self.witness is not None, SCCOT_VOTERS * self.chain + 1


def game24_pool(seed: int, n: int) -> list[Game24Spec]:
    """Distinct ordered 1..13 instances, drawn until the solvable and the
    unsolvable quota are both full; solvability comes from the oracle."""
    rng = random.Random(f"game24:{seed}")
    quota = {True: round(GAME24_SOLVABLE_SHARE * n)}
    quota[False] = n - quota[True]
    drawn: list[tuple[tuple[int, ...], str | None]] = []
    seen = set()
    while quota[True] or quota[False]:
        numbers = tuple(rng.randint(1, 13) for _ in range(4))
        if numbers in seen:
            continue
        seen.add(numbers)
        witness = tasks.game24_oracle(tasks.Game24Instance(numbers))
        if quota[witness is not None]:
            quota[witness is not None] -= 1
            drawn.append((numbers, None if witness is None else tasks.render(witness)))
    chains = _allocate(n, dict.fromkeys(CHAIN_LENGTHS, 1), rng)
    return [Game24Spec(numbers, witness, chain)
            for (numbers, witness), chain in zip(drawn, chains)]


def game24_dataset_lines(specs: list[Game24Spec]) -> str:
    return "".join(" ".join(map(str, s.numbers)) + "\n" for s in specs)


def game24_shares(specs: list[Game24Spec]) -> dict:
    chains = Counter(s.chain for s in specs)
    return {
        "problems": len(specs),
        "solvable_share": sum(s.witness is not None for s in specs) / len(specs),
        "chain_lengths": {str(k): chains[k] / len(specs) for k in sorted(chains)},
    }


# ---------------------------------------------------------------------------
# Fake model
# ---------------------------------------------------------------------------

def _template_regex(template: str) -> re.Pattern:
    parts = []
    for literal, field, _, _ in string.Formatter().parse(template):
        parts.append(re.escape(literal))
        if field is not None:
            parts.append(f"(?P<{field}>.*?)")
    return re.compile("".join(parts), re.DOTALL)


_CATALOG = prompts.PromptCatalog()
_OPS = {system: [(op, _template_regex(template)) for op, template in ops] for system, ops in (
    (_CATALOG.thinker_system, [("extract", _CATALOG.extract), ("mine", _CATALOG.mine),
                               ("design", _CATALOG.design_steps)]),
    (_CATALOG.judge_system, [("judge", _CATALOG.judge_condition),
                             ("suff", _CATALOG.sufficiency)]),
    (_CATALOG.executor_system, [("execute", _CATALOG.execute)]),
)}
_SOLVER_OPS = [("cot", _template_regex(baselines.COT_START)),
               ("vote", _template_regex(baselines.VOTE_PROMPT))]

_MALFORMED = {
    "extract": "Let me restate the problem in my own words first.",
    "mine": "I need a moment to think about which conditions matter here.",
    "judge": "Probably correct.",
    "suff": "It seems likely.",
}


class FakeModel:
    """Stateless replies for MACM roles and the SC-CoT solver.

    ``reply(messages)`` takes (role, content) pairs as sent on the wire and
    returns the reply text; it raises ValueError on a prompt it does not know.
    """

    def __init__(self, macm: list[MacmSpec] = (), game24: list[Game24Spec] = ()):
        self.macm = {s.pid: s for s in macm}
        self.game24 = {s.numbers: s for s in game24}

    def reply(self, messages: list[tuple[str, str]]) -> str:
        if messages[0][0] == "system":
            ops = _OPS.get(messages[0][1], [])
            first_user = messages[1][1]
        else:
            ops = _SOLVER_OPS
            first_user = messages[0][1]
        for op, pattern in ops:
            match = pattern.fullmatch(first_user)
            if match:
                break
        else:
            raise ValueError(f"unrecognised prompt: {first_user[:80]!r}")
        fields = match.groupdict()
        if ops is _SOLVER_OPS:
            return self._solver(op, fields, messages)
        spec = self.macm[_PID.search(first_user).group(1)]
        retried = len(messages) > 2
        return self._macm(spec, op, fields, first_user, retried)

    def _macm(self, spec: MacmSpec, op: str, fields: dict, first_user: str,
              retried: bool) -> str:
        if op == "extract":
            if ("extract",) in spec.retry and not retried:
                return _MALFORMED[op]
            listing = "\n".join(f"{i}. {c}" for i, c in enumerate(spec.initial, start=1))
            return f"Conditions:\n{listing}\nObjective: {spec.objective}"
        progress = len(_FACT.findall(first_user))
        if op == "mine":
            r = progress + 1
            if ("mine", r) in spec.retry and not retried:
                return _MALFORMED[op]
            return "\n".join(
                f"Based on condition {j + 1} and condition 1, we can get: "
                f"{spec.candidate_text(r, j, kind)}"
                for j, kind in enumerate(spec.rounds[r - 1]))
        if op == "judge":
            candidate = fields["candidate"]
            fact = _FACT.search(candidate)
            if fact:
                key = ("judge", int(fact.group(1)), 0)
            else:
                r, j = _EXTRA.search(candidate).groups()
                key = ("judge", int(r), int(j))
            if key in spec.retry and not retried:
                return _MALFORMED[op]
            return "False" if "] guess " in candidate else "True"
        if op == "suff":
            if ("suff", progress) in spec.retry and not retried:
                return _MALFORMED[op]
            return "True" if progress >= spec.need else "False"
        if op == "design":
            return "\n".join(f"{i}. Use the step-{i} result toward t."
                             for i in range(1, progress + 1))
        return f"Combining the results in order gives t.\nAnswer: {spec.answer_text()}"

    def _solver(self, op: str, fields: dict, messages) -> str:
        if op == "vote":
            return fields["answers"].split("\n", 1)[0].split(". ", 1)[1]
        numbers = tuple(int(x) for x in _NUMS.findall(fields["question"])[:4])
        spec = self.game24[numbers]
        step = sum(role == "assistant" for role, _ in messages) + 1
        a, b, c, d = numbers
        if step < spec.chain:
            return (f"Step {step}: consider pairing {a} with {b} and {c} with {d}, "
                    f"then check which operations on the partial results move "
                    f"toward the target of 24 without reusing a number.")
        return f"Step {step}: the combination is complete.\nAnswer: {spec.final_answer()}"


def usage(messages: list[tuple[str, str]], text: str, n: int) -> tuple[int, int]:
    """Deterministic (prompt, completion) token counts for a reply."""
    return sum(len(content) for _, content in messages) // 4, n * (len(text) // 4)


class FakeBackend:
    """The fake model as an in-process backend, counting on a QueryCounter."""

    def __init__(self, model: FakeModel, counter: QueryCounter):
        self.model = model
        self.counter = counter

    def complete(self, request, role: str) -> ChatResponse:
        messages = [(m.role, m.content) for m in request.messages]
        text = self.model.reply(messages)
        n = request.sampling.n
        tokens_in, tokens_out = usage(messages, text, n)
        self.counter.record(n)
        return ChatResponse(choices=(text,) * n, tokens_in=tokens_in, tokens_out=tokens_out)
