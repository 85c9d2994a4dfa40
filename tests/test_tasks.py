import hashlib
import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from macm.errors import DivisionByZero, ExprSyntaxError
from macm.tasks import (
    BinOp,
    Game24Instance,
    Lit,
    check_game24,
    equal_answers,
    eval_expr,
    game24_oracle,
    leaves,
    needs_manual_review,
    normalize_answer,
    parse_expr,
    render,
    verify_game24,
    verify_sorted,
)


# Independent evaluation path: regex + Python eval over Fractions, sharing no
# code with the package parser/evaluator.

def independent_eval(text: str) -> Fraction:
    s = re.sub(r"\s*=\s*24\s*$", "", text)
    s = s.replace("×", "*").replace("÷", "/").replace("x", "*").replace("X", "*")
    s = re.sub(r"\d+", lambda m: f"F({m.group()})", s)
    return eval(s, {"F": Fraction, "__builtins__": {}})


def independent_leaves(text: str) -> list[int]:
    s = re.sub(r"\s*=\s*24\s*$", "", text)
    return [int(m) for m in re.findall(r"\d+", s)]


def random_expr(rng: random.Random, numbers: list[int]):
    """Random binary tree over the given leaf values (each used once)."""
    items = [Lit(n) for n in numbers]
    while len(items) > 1:
        i, j = rng.sample(range(len(items)), 2)
        a, b = items[i], items[j]
        op = rng.choice("+-*/")
        items = [items[k] for k in range(len(items)) if k not in (i, j)]
        items.append(BinOp(op, a, b))
    return items[0]


class TestParseExpr:
    def test_grammar(self):
        expr = parse_expr("(6-4)*(8+4)")
        assert expr == BinOp("*", BinOp("-", Lit(6), Lit(4)), BinOp("+", Lit(8), Lit(4)))

    def test_equals_24_suffix_stripped(self):
        expr = parse_expr("8/(3-8/3)=24")
        assert eval_expr(expr) == 24

    def test_spaced_suffix(self):
        assert eval_expr(parse_expr("4 * 6 = 24")) == 24

    def test_syntax_error_with_position(self):
        with pytest.raises(ExprSyntaxError) as exc_info:
            parse_expr("4+*3")
        assert exc_info.value.position == 2

    def test_operator_synonyms(self):
        assert eval_expr(parse_expr("3×8")) == 24
        assert eval_expr(parse_expr("48÷2")) == 24
        assert eval_expr(parse_expr("4x6")) == 24

    def test_precedence_and_associativity(self):
        assert eval_expr(parse_expr("2+3*4")) == 14
        assert eval_expr(parse_expr("8-4-2")) == 2
        assert eval_expr(parse_expr("16/4/2")) == 2

    def test_multi_digit_and_unary_minus(self):
        assert eval_expr(parse_expr("12*2")) == 24
        assert eval_expr(parse_expr("-3+27")) == 24

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("1+2)")

    def test_unclosed_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(1+2")


class TestEvalExpr:
    def test_fractional_intermediate(self):
        value = eval_expr(parse_expr("8/(3-8/3)"))
        assert value == Fraction(24, 1)
        assert (value.numerator, value.denominator) == (24, 1)

    def test_exact_thirds(self):
        assert eval_expr(parse_expr("1/3")) == Fraction(1, 3)
        assert eval_expr(BinOp("*", BinOp("/", Lit(1), Lit(3)), Lit(3))) == 1

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            eval_expr(parse_expr("5/(3-3)"))

    @given(st.integers(1, 13), st.integers(1, 13), st.integers(1, 13))
    def test_no_precision_loss(self, a, b, c):
        expr = BinOp("*", BinOp("/", Lit(a), Lit(b)), Lit(b))
        assert eval_expr(expr) == a
        assert eval_expr(BinOp("/", Lit(a), Lit(c))) == Fraction(a, c)


class TestRenderRoundTrip:
    def test_round_trip_simple(self):
        expr = parse_expr("(6-4)*(8+4)")
        assert parse_expr(render(expr)) == expr

    @given(st.lists(st.integers(1, 13), min_size=4, max_size=4), st.integers(0, 10 ** 6))
    def test_round_trip_random_trees(self, numbers, seed):
        expr = random_expr(random.Random(seed), numbers)
        assert parse_expr(render(expr)) == expr


class TestVerifyGame24:
    def test_valid_solution(self):
        assert verify_game24(Game24Instance((4, 4, 6, 8)), "(6-4)*(8+4)")

    def test_identity_multiplications(self):
        assert verify_game24(Game24Instance((1, 1, 1, 24)), "24*1*1*1")

    def test_leaf_multiset_mismatch(self):
        valid, reason = check_game24(Game24Instance((4, 4, 6, 8)), "(8-4)*6")
        assert not valid
        assert "multiset" in reason

    def test_fractional_case(self):
        assert verify_game24(Game24Instance((3, 3, 8, 8)), "8/(3-8/3)")

    def test_parse_failure_is_false_with_reason(self):
        valid, reason = check_game24(Game24Instance((1, 2, 3, 4)), "1+*2")
        assert not valid and "parse" in reason

    def test_division_by_zero_is_false(self):
        valid, reason = check_game24(Game24Instance((3, 3, 5, 8)), "5/(3-3)+8")
        assert not valid and "zero" in reason

    def test_wrong_value(self):
        valid, reason = check_game24(Game24Instance((1, 2, 3, 4)), "1+2+3+4")
        assert not valid and "not 24" in reason


def brute_force_solvable(numbers) -> bool:
    """Independent 24-game check: every leaf order, every operator triple and
    the five shapes of a 4-leaf binary tree, evaluated with Fraction."""
    def op(o, x, y):
        if x is None or y is None:
            return None
        if o == "+":
            return x + y
        if o == "-":
            return x - y
        if o == "*":
            return x * y
        return None if y == 0 else x / y

    for a, b, c, d in set(itertools.permutations(map(Fraction, numbers))):
        for p, q, r in itertools.product("+-*/", repeat=3):
            shapes = (op(r, op(q, op(p, a, b), c), d),
                      op(r, op(q, a, op(p, b, c)), d),
                      op(q, op(p, a, b), op(r, c, d)),
                      op(p, a, op(r, op(q, b, c), d)),
                      op(p, a, op(q, b, op(r, c, d))))
            if 24 in shapes:
                return True
    return False


# SHA-256 of the rendered witnesses, "-" for an unsolvable instance, one line
# per sorted multiset of 1..13 in combinations_with_replacement order, as
# given by the oracle that searched Fraction values and built an expression
# tree for every candidate. The oracle must keep returning these exact trees.
DECK_WITNESS_DIGEST = "7b30bbf09567d77da7eaeaa68ae02afdaefe607672df0ee01afb3b0052548801"


class TestGame24Oracle:
    def test_every_deck_multiset_gives_the_pinned_witness(self):
        instances = [Game24Instance(numbers) for numbers
                     in itertools.combinations_with_replacement(range(1, 14), 4)]
        witnesses = [game24_oracle(instance) for instance in instances]
        text = "\n".join(render(w) if w is not None else "-" for w in witnesses)
        assert len(instances) == 1820
        assert hashlib.sha256(text.encode()).hexdigest() == DECK_WITNESS_DIGEST
        solved = [(i, w) for i, w in zip(instances, witnesses) if w is not None]
        assert len(solved) == 1362
        assert all(verify_game24(instance, render(w)) for instance, w in solved)

    @settings(deadline=None)
    @given(st.tuples(*[st.one_of(st.just(24), st.integers(1, 30))] * 4))
    def test_solvability_matches_brute_force(self, numbers):
        instance = Game24Instance(numbers)
        witness = game24_oracle(instance)
        assert (witness is not None) == brute_force_solvable(numbers)
        if witness is not None:
            assert verify_game24(instance, render(witness))

    def test_unsolvable_all_ones(self):
        assert game24_oracle(Game24Instance((1, 1, 1, 1))) is None

    def test_fractional_witness(self):
        witness = game24_oracle(Game24Instance((3, 3, 8, 8)))
        assert witness is not None
        assert eval_expr(witness) == 24
        assert Counter(leaves(witness)) == Counter((3, 3, 8, 8))

    def test_trivial_witness(self):
        witness = game24_oracle(Game24Instance((24, 1, 1, 1)))
        assert witness is not None
        assert eval_expr(witness) == 24

    def test_witnesses_verify(self):
        rng = random.Random(20240)
        for _ in range(50):
            instance = Game24Instance(tuple(rng.randint(1, 13) for _ in range(4)))
            witness = game24_oracle(instance)
            if witness is not None:
                assert verify_game24(instance, render(witness))

    def test_agreement_with_independent_path(self):
        rng = random.Random(77)
        for _ in range(100):
            numbers = [rng.randint(1, 13) for _ in range(4)]
            instance = Game24Instance(tuple(numbers))
            expr = random_expr(rng, numbers)
            text = render(expr)
            try:
                expected = (independent_eval(text) == 24
                            and Counter(independent_leaves(text)) == Counter(numbers))
            except ZeroDivisionError:
                expected = False
            assert verify_game24(instance, text) == expected


class TestVerifySorted:
    def test_basic(self):
        assert verify_sorted([3, 1, 2], [1, 2, 3])

    def test_dropped_element(self):
        assert not verify_sorted([3, 1, 2], [1, 2])

    def test_duplicates_preserved(self):
        assert verify_sorted([5, 5, 1], [1, 5, 5])

    def test_unsorted_permutation(self):
        assert not verify_sorted([3, 1, 2], [2, 1, 3])

    def test_substituted_element(self):
        assert not verify_sorted([3, 1, 2], [1, 2, 4])

    @given(st.lists(st.integers(-1000, 1000)))
    def test_reference_sort_always_accepted(self, xs):
        assert verify_sorted(xs, sorted(xs))

    @given(st.lists(st.integers(-50, 50)), st.lists(st.integers(-50, 50)))
    def test_acceptance_implies_permutation(self, xs, ys):
        if verify_sorted(xs, ys):
            assert Counter(xs) == Counter(ys)


class TestEqualAnswers:
    def test_boxed_wrapper(self):
        assert equal_answers("\\boxed{30}", "30")

    def test_rational_decimal_equivalence(self):
        assert equal_answers("1/2", "0.5")

    def test_distinct_strings(self):
        assert not equal_answers("x+1", "x + 2")

    def test_whitespace_insensitive_strings(self):
        assert equal_answers("x + 1", "x+1")

    def test_dollar_wrapper_and_period(self):
        assert equal_answers("$42$.", "42")

    def test_latex_fraction(self):
        assert equal_answers("\\frac{1}{2}", "0.5")
        assert equal_answers("\\dfrac{3}{6}", "1/2")

    def test_negative_numbers(self):
        assert equal_answers("-102", "-102.0")

    def test_scientific_notation(self):
        assert equal_answers("1e3", "1000")
        assert equal_answers("25e-2", "1/4")
        assert equal_answers("1e400", "1" + "0" * 400)
        assert not equal_answers("1e400", "1" + "0" * 399)
        assert equal_answers("0e99999999", "0")
        assert not equal_answers("1e3e3", "1000000")

    def test_huge_exponent_is_not_expanded(self):
        # Expanding 1e30000000 to an integer took about 80 s.
        assert not equal_answers("1e30000000", "5")
        assert not equal_answers("-2.5E-30000000", "0")
        assert equal_answers("1e30000000", "10e29999999")

    @given(st.from_regex(r"-?\d{1,6}(\.\d{0,4})?", fullmatch=True), st.integers(-40, 40),
           st.from_regex(r"-?\d{1,6}(\.\d{0,4})?", fullmatch=True), st.integers(-40, 40),
           st.integers(-10**6, 10**6), st.integers(0, 12))
    def test_scientific_notation_is_exact(self, m1, e1, m2, e2, k, shift):
        a, b = f"{m1}e{e1}", f"{m2}E{e2}"
        assert equal_answers(a, b) == (Fraction(a) == Fraction(b))
        assert equal_answers(f"{k}e{e1}", f"{k * 10 ** shift}e{e1 - shift}")

    @given(st.text(max_size=40))
    def test_reflexive(self, s):
        assert equal_answers(s, s)

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_symmetric(self, a, b):
        assert equal_answers(a, b) == equal_answers(b, a)


class TestManualReviewFlag:
    def test_sqrt_flagged(self):
        assert needs_manual_review("\\sqrt{2}/2")

    def test_plain_values_not_flagged(self):
        assert not needs_manual_review("30")
        assert not needs_manual_review("\\boxed{1/2}")
        assert not needs_manual_review("\\frac{1}{2}")

    def test_normalize_answer_unwraps(self):
        assert normalize_answer("$\\boxed{7}$") == "7"
