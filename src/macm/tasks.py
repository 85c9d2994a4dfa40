"""Ground-truth verifiers for the three benchmark tasks: the 24-point game,
sequence sorting, and MATH-style answer grading.

All arithmetic is exact rational; nothing here ever rounds.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, ExprSyntaxError

# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    left: "Expr"
    right: "Expr"

    def __post_init__(self):
        if self.op not in "+-*/":
            raise ValueError(f"unknown operator {self.op!r}")


Expr = Lit | BinOp


def eval_expr(expr: Expr) -> Fraction:
    """Exact rational value of the tree; raises DivisionByZero."""
    if isinstance(expr, Lit):
        return Fraction(expr.value)
    left = eval_expr(expr.left)
    right = eval_expr(expr.right)
    if expr.op == "+":
        return left + right
    if expr.op == "-":
        return left - right
    if expr.op == "*":
        return left * right
    if right == 0:
        raise DivisionByZero(f"division by zero in {render(expr)}")
    return left / right


def leaves(expr: Expr) -> list[int]:
    if isinstance(expr, Lit):
        return [expr.value]
    return leaves(expr.left) + leaves(expr.right)


def render(expr: Expr) -> str:
    """Fully parenthesized infix form; reparses to a structurally identical tree."""
    if isinstance(expr, Lit):
        return str(expr.value)
    return f"({render(expr.left)} {expr.op} {render(expr.right)})"


# ---------------------------------------------------------------------------
# Parser: infix arithmetic, + - * / with × ÷ x synonyms, parens,
# integer literals, standard precedence, left associativity.
# ---------------------------------------------------------------------------

_EQ24_SUFFIX = re.compile(r"\s*=\s*24\s*$")


def bounded_int(digits: str, limit: int) -> int | None:
    """The value of a run of decimal digits, or None when it has more than
    ``limit`` digits once its leading zeros are dropped. Leading zeros are
    skipped one at a time, so a run too long for int() is never converted."""
    k = 0
    while len(digits) - k > limit and int(digits[k]) == 0:
        k += 1
    if len(digits) - k > limit:
        return None
    return int(digits[k:]) if k < len(digits) else 0


def _tokenize(text: str, max_digits: int | None) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            if max_digits is None or j - i <= max_digits:
                value = int(text[i:j])
            elif (value := bounded_int(text[i:j], max_digits)) is None:
                raise ExprSyntaxError(f"number longer than {max_digits} digits", i)
            tokens.append(("num", value, i))
            i = j
            continue
        if c in "+-*/()":
            tokens.append((c, c, i))
        elif c in "×xX":
            tokens.append(("*", "*", i))
        elif c in "÷":
            tokens.append(("/", "/", i))
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
        i += 1
    return tokens


class _Parser:
    def __init__(self, text: str, max_digits: int | None):
        self.text = text
        self.tokens = _tokenize(text, max_digits)
        self.pos = 0

    def _peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def _take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def _offset(self) -> int:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][2]
        return len(self.text)

    def parse(self) -> Expr:
        expr = self._expr()
        if self.pos < len(self.tokens):
            raise ExprSyntaxError("unexpected trailing input", self._offset())
        return expr

    def _expr(self) -> Expr:
        node = self._term()
        while self._peek() in ("+", "-"):
            op, _, _ = self._take()
            node = BinOp(op, node, self._term())
        return node

    def _term(self) -> Expr:
        node = self._factor()
        while self._peek() in ("*", "/"):
            op, _, _ = self._take()
            node = BinOp(op, node, self._factor())
        return node

    def _factor(self) -> Expr:
        kind = self._peek()
        if kind == "num":
            _, value, _ = self._take()
            return Lit(value)
        if kind == "-":
            self._take()
            if self._peek() != "num":
                raise ExprSyntaxError("expected number after unary minus", self._offset())
            _, value, _ = self._take()
            return Lit(-value)
        if kind == "(":
            self._take()
            node = self._expr()
            if self._peek() != ")":
                raise ExprSyntaxError("expected ')'", self._offset())
            self._take()
            return node
        raise ExprSyntaxError("expected number or '('", self._offset())


def parse_expr(text: str, max_digits: int | None = None) -> Expr:
    """Parse infix arithmetic; an optional trailing "= 24" is stripped first.
    With ``max_digits``, a literal with more digits (leading zeros aside) is
    an ExprSyntaxError, raised before the literal is converted."""
    return _Parser(_EQ24_SUFFIX.sub("", text), max_digits).parse()


# ---------------------------------------------------------------------------
# 24-point game
# ---------------------------------------------------------------------------

TARGET = Fraction(24)


@dataclass(frozen=True)
class Game24Instance:
    """Four positive integers; standard decks draw from 1..13 but larger
    values (e.g. a literal 24) are accepted."""

    numbers: tuple[int, int, int, int]

    def __post_init__(self):
        if len(self.numbers) != 4:
            raise ValueError("a 24-game instance has exactly 4 numbers")
        if any(n < 1 for n in self.numbers):
            raise ValueError("24-game numbers must be positive integers")


def check_game24(instance: Game24Instance, text: str) -> tuple[bool, str]:
    """Verify a candidate solution. Returns (valid, reason).

    Any text gets an answer: a literal with more digits than every input
    number is a parse error before it is converted, and an expression nested
    past the recursion limit is rejected."""
    try:
        expr = parse_expr(text, len(str(max(instance.numbers))))
        found = leaves(expr)
    except ExprSyntaxError as exc:
        return False, f"parse error: {exc}"
    except RecursionError:
        return False, "expression nested too deeply"
    if Counter(found) != Counter(instance.numbers):
        return False, (f"leaf multiset {sorted(found)} != "
                       f"input {sorted(instance.numbers)}")
    try:
        value = eval_expr(expr)
    except DivisionByZero as exc:
        return False, str(exc)
    if value != TARGET:
        return False, f"evaluates to {value}, not 24"
    return True, "ok"


def verify_game24(instance: Game24Instance, text: str) -> bool:
    """True iff the text parses, uses each input number exactly once, and
    evaluates to exactly 24."""
    return check_game24(instance, text)[0]


# Move codes in search order: a+b, a*b, a-b, b-a, a/b, b/a.
_OPS = "+*--//"
_SWAPPED = (3, 5)


def game24_oracle(instance: Game24Instance) -> Expr | None:
    """Exhaustive search for a witness expression equal to exactly 24.

    Repeatedly combines every pair of remaining values with every operator
    (both operand orders), which covers all operand orderings, operator
    assignments, and parenthesizations of a 4-leaf binary tree. Values are
    exact rationals kept as reduced (numerator, denominator) integer pairs,
    and a multiset of values already found unable to reach 24 is not
    searched again. Only the winning moves are kept; the witness is built
    from them at the end.
    """
    moves: list[tuple[int, int, int]] = []
    if not _reaches24([(n, 1) for n in instance.numbers], moves, set()):
        return None
    exprs: list[Expr] = [Lit(n) for n in instance.numbers]
    for i, j, op in reversed(moves):
        left, right = (exprs[j], exprs[i]) if op in _SWAPPED else (exprs[i], exprs[j])
        exprs = [e for k, e in enumerate(exprs) if k != i and k != j]
        exprs.append(BinOp(_OPS[op], left, right))
    return exprs[0]


def _reaches24(values: list[tuple[int, int]], moves: list[tuple[int, int, int]],
               dead: set[tuple[tuple[int, int], ...]]) -> bool:
    """True iff three or more values combine to 24; on success ``moves``
    holds the winning (i, j, op) of each level, innermost first. ``dead``
    collects the sorted value tuples that cannot reach 24."""
    key = tuple(sorted(values))
    if key in dead:
        return False
    last = len(values) == 3
    for i, j in itertools.combinations(range(len(values)), 2):
        (an, ad), (bn, bd) = values[i], values[j]
        rest = [v for k, v in enumerate(values) if k != i and k != j]
        den = ad * bd
        candidates = [(0, an * bd + bn * ad, den), (1, an * bn, den),
                      (2, an * bd - bn * ad, den), (3, bn * ad - an * bd, den)]
        if bn:
            candidates.append((4, an * bd, ad * bn))
        if an:
            candidates.append((5, bn * ad, bd * an))
        for op, num, den in candidates:
            g = math.gcd(num, den)
            if den < 0:
                g = -g
            value = (num // g, den // g)
            if (_last_pair24(rest[0], value, moves) if last
                    else _reaches24(rest + [value], moves, dead)):
                moves.append((i, j, op))
                return True
    dead.add(key)
    return False


def _last_pair24(a: tuple[int, int], b: tuple[int, int],
                 moves: list[tuple[int, int, int]]) -> bool:
    """Whether some operator on the last two values gives exactly 24, checked
    by cross-multiplication; the first such operator is appended to
    ``moves``."""
    (an, ad), (bn, bd) = a, b
    target = 24 * ad * bd
    if an * bd + bn * ad == target:
        op = 0
    elif an * bn == target:
        op = 1
    elif an * bd - bn * ad == target:
        op = 2
    elif bn * ad - an * bd == target:
        op = 3
    elif bn and an * bd == 24 * ad * bn:
        op = 4
    elif an and bn * ad == 24 * bd * an:
        op = 5
    else:
        return False
    moves.append((0, 1, op))
    return True


# ---------------------------------------------------------------------------
# Sequence sorting
# ---------------------------------------------------------------------------

def verify_sorted(input_seq: list[int], output_seq: list[int]) -> bool:
    """True iff output is non-decreasing and a permutation of input."""
    if Counter(output_seq) != Counter(input_seq):
        return False
    return all(a <= b for a, b in zip(output_seq, output_seq[1:]))


# ---------------------------------------------------------------------------
# MATH-style answer grading
# ---------------------------------------------------------------------------

_BOXED = re.compile(r"^\\(?:boxed|fbox)\{(.*)\}$", re.DOTALL)
_FRAC = re.compile(r"\\[dt]?frac\{([^{}]+)\}\{([^{}]+)\}")


def normalize_answer(text: str) -> str:
    s = text.strip()
    while True:
        before = s
        s = s.rstrip(".").strip()
        while len(s) > 1 and s.startswith("$") and s.endswith("$"):
            s = s[1:-1].strip()
        boxed = _BOXED.match(s)
        if boxed:
            s = boxed.group(1).strip()
        if s == before:
            break
    return _FRAC.sub(r"\1/\2", s)


def _as_rational(text: str) -> tuple[Fraction, int] | None:
    """The number the text spells as (mantissa, exponent of ten), leaving
    the power of ten of scientific notation unexpanded."""
    compact = re.sub(r"\s+", "", text)
    mantissa, e, exponent = compact.replace("E", "e").partition("e")
    try:
        if e and "/" not in mantissa:
            return Fraction(mantissa), int(exponent)
        return Fraction(compact), 0
    except (ValueError, ZeroDivisionError):
        return None


def _same_value(a: tuple[Fraction, int], b: tuple[Fraction, int]) -> bool:
    """Exact m1 * 10**e1 == m2 * 10**e2. Nonzero, |mb| * 10**shift is at least
    2**shift / mb.denominator, more than |ma| once shift reaches the bit length
    of ma.numerator * mb.denominator: no power of ten beyond that is built."""
    (ma, ea), (mb, eb) = sorted((a, b), key=lambda v: v[1])
    shift = eb - ea
    if not ma or not mb:
        return ma == mb
    return (shift < (ma.numerator * mb.denominator).bit_length()
            and ma == mb * 10 ** shift)


def equal_answers(candidate: str, gold: str) -> bool:
    """Normalized answer equality: exact rational comparison when both sides
    parse as numbers, exact string comparison (whitespace-insensitive)
    otherwise."""
    a = normalize_answer(candidate)
    b = normalize_answer(gold)
    ra, rb = _as_rational(a), _as_rational(b)
    if ra is not None and rb is not None:
        return _same_value(ra, rb)
    return re.sub(r"\s+", "", a) == re.sub(r"\s+", "", b)


def needs_manual_review(text: str) -> bool:
    """True when the normalized answer still contains LaTeX commands beyond
    the fraction/boxed wrappers this grader understands."""
    return "\\" in normalize_answer(text)
