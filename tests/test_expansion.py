"""Exact digit computation and word algebra."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercelib.expansion import (
    _LEAF,
    ExpansionResult,
    _fold,
    affine_map,
    bump_last,
    digit_product,
    evaluate,
    expand,
    extend,
    first_digit,
    is_admissible,
    shift,
)

rationals = st.builds(
    lambda p, q: Fraction(p, q) if p <= q else Fraction(q, p),
    st.integers(min_value=1, max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)

words = st.lists(
    st.integers(min_value=1, max_value=500), min_size=1, max_size=10, unique=True
).map(lambda xs: tuple(sorted(xs)))


def test_first_digit_examples():
    assert first_digit(Fraction(7, 9)) == 1
    assert first_digit(Fraction(1, 3)) == 3
    assert first_digit(Fraction(1, 1)) == 1
    assert first_digit(Fraction(2, 9)) == 4


def test_shift_example():
    assert shift(Fraction(2, 9)) == Fraction(1, 9)


def test_expand_seven_ninths():
    result = expand(Fraction(7, 9))
    assert result.word == (1, 4, 9)
    assert result.terminated
    assert result.remainder == 0


def test_expand_one():
    assert expand(Fraction(1)).word == (1,)


def test_expand_rejects_out_of_range():
    for bad in (Fraction(3, 2), Fraction(0), Fraction(-1, 2)):
        with pytest.raises(ValueError):
            expand(bad)


def test_expand_cap_prefix():
    full = expand(Fraction(47, 101))
    capped = expand(Fraction(47, 101), cap=2)
    assert capped.word == full.word[:2]
    assert not capped.terminated
    assert affine_map(capped.word, capped.remainder) == Fraction(47, 101)


def test_evaluate_examples():
    assert evaluate((1, 4, 9)) == Fraction(7, 9)
    assert evaluate((2,)) == Fraction(1, 2)
    assert evaluate((1, 2)) == Fraction(1) - Fraction(1, 2)


def test_is_admissible():
    assert is_admissible((1, 4, 9))
    assert not is_admissible((2, 2))
    assert not is_admissible((3, 1))
    assert not is_admissible((0, 1))
    assert not is_admissible(())


def test_bump_and_extend():
    assert bump_last((1, 4, 9)) == (1, 4, 10)
    assert extend((1, 4), 9) == (1, 4, 9)
    with pytest.raises(ValueError):
        extend((1, 4), 4)


def test_affine_map_endpoints():
    word = (1, 4)
    assert affine_map(word, Fraction(0)) == evaluate(word)
    # |word| even: orientation preserving with slope 1/(1*4)
    assert affine_map(word, Fraction(1, 2)) - evaluate(word) == Fraction(1, 8)


@given(rationals)
@settings(max_examples=300, deadline=None)
def test_round_trip_exact(x):
    result = expand(x)
    assert result.terminated
    assert evaluate(result.word) == x


@given(rationals)
@settings(max_examples=300, deadline=None)
def test_digit_laws(x):
    word = expand(x).word
    assert all(a < b for a, b in zip(word, word[1:]))
    assert all(d >= k for k, d in enumerate(word, start=1))
    if len(word) >= 2:
        # terminating expansions never end with a bump of the previous digit
        assert word[-1] > word[-2] + 1


@given(rationals)
@settings(max_examples=200, deadline=None)
def test_shift_numerator_decreases(x):
    y = shift(x)
    if y:
        assert y.numerator < x.numerator


@given(words)
@settings(max_examples=300, deadline=None)
def test_bump_extend_identity(word):
    assert evaluate(bump_last(word)) == evaluate(extend(word, word[-1] + 1))


@given(words, st.fractions(min_value=0, max_value=1))
@settings(max_examples=200, deadline=None)
def test_affine_map_is_contraction(word, t):
    # slope magnitude is exactly 1/prod(word), so distances scale exactly
    a = affine_map(word, Fraction(t))
    b = affine_map(word, Fraction(0))
    assert abs(a - b) * digit_product(word) == Fraction(t)


@given(rationals, st.integers(min_value=1, max_value=6))
@settings(max_examples=150, deadline=None)
def test_capped_reconstruction(x, cap):
    result = expand(x, cap=cap)
    assert affine_map(result.word, result.remainder) == x


def test_log_of_huge_digit_is_finite():
    # depth-500 digits have hundreds of bits; log must not overflow
    d = 1 << 2000
    assert math.isfinite(math.log(d))


# -- differential oracle -------------------------------------------------------
# The Fraction-per-step implementations that the integer recursion and fold
# replaced, frozen as the reference the library must match exactly.


def _oracle_expand(x, cap=None):
    digits = []
    y = Fraction(x)
    while y != 0 and (cap is None or len(digits) < cap):
        d = y.denominator // y.numerator
        digits.append(d)
        y = 1 - d * y
    return ExpansionResult(word=tuple(digits), terminated=(y == 0), remainder=y)


def _oracle_shift(x):
    return 1 - (x.denominator // x.numerator) * x


def _oracle_evaluate(word):
    acc = Fraction(0)
    for d in reversed(word):
        if d < 1:
            raise ValueError(f"digits must be positive, got {d}")
        acc = (1 - acc) / d
    return acc


def _oracle_affine_map(word, x):
    sign = -1 if len(word) % 2 else 1
    p = 1
    for d in word:
        p *= d
    return _oracle_evaluate(word) + sign * Fraction(1, p) * x


def _rationals_below(bits):
    """x = p/q in (0, 1] with q < 2**bits."""
    return st.integers(min_value=1, max_value=2**bits - 1).flatmap(
        lambda q: st.builds(Fraction, st.integers(min_value=1, max_value=q), st.just(q))
    )


def _uniform_rational(seed, bits):
    rng = random.Random(seed)
    q = rng.randrange(2 ** (bits - 1), 2**bits)
    return Fraction(rng.randint(1, q), q)


# x = p/q with q of 64, 256 or 1024 bits: hypothesis draws p near its bounds,
# which gives short expansions, so half the inputs draw p uniformly from a seed
wide_rationals = st.one_of(
    *(_rationals_below(bits) for bits in (64, 256, 1024)),
    st.builds(_uniform_rational, st.integers(min_value=0), st.sampled_from([64, 256, 1024])),
)


# digits up to 2**2000, any length from the empty word up, both parities
big_words = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=1, max_value=2**2000),
    ),
    max_size=9,
    unique=True,
).map(lambda xs: tuple(sorted(xs)))

caps = st.none() | st.integers(min_value=1, max_value=40)


def _assert_same_expansion(got, want):
    assert got == want
    assert type(got.remainder) is Fraction


@given(wide_rationals, caps)
@settings(max_examples=300, deadline=None)
@example(Fraction(7, 9), None)
@example(Fraction(47, 101), 2)
def test_expand_matches_fraction_oracle(x, cap):
    _assert_same_expansion(expand(x, cap=cap), _oracle_expand(x, cap=cap))


@given(wide_rationals)
@settings(max_examples=200, deadline=None)
def test_shift_matches_fraction_oracle(x):
    got = shift(x)
    assert type(got) is Fraction
    assert got == _oracle_shift(x)


def test_int_inputs_match_fraction_oracle():
    _assert_same_expansion(expand(1), _oracle_expand(1))
    _assert_same_expansion(expand(1, cap=1), _oracle_expand(1, cap=1))
    got = shift(1)
    assert type(got) is Fraction and got == _oracle_shift(1)
    for word in ((), (2,), (1, 4), (1, 4, 9)):
        for x in (0, 1, -3):
            got = affine_map(word, x)
            assert type(got) is Fraction
            assert got == _oracle_affine_map(word, x)


# an expansion of a wide rational, whole or cut: long words whose wide back
# the kernel reduces and whose front it may binary-split
expansion_words = st.builds(
    lambda x, cut: expand(x).word[: 1 + cut], wide_rationals, st.integers(min_value=0, max_value=400)
)


@given(big_words | expansion_words)
@settings(max_examples=300, deadline=None)
@example(())
@example((5,))
@example((1, 4))
@example((1, 4, 9))
def test_evaluate_matches_fraction_oracle(word):
    got = evaluate(word)
    assert type(got) is Fraction
    assert got == _oracle_evaluate(word)
    num, den = _fold(word)
    assert den > 0
    assert Fraction(num, den) == got


@given(big_words, st.fractions() | st.integers(min_value=-5, max_value=5))
@settings(max_examples=300, deadline=None)
@example((), Fraction(1, 3))
@example((3,), Fraction(0))
@example((2, 7), Fraction(1))
def test_affine_map_matches_fraction_oracle(word, x):
    got = affine_map(word, x)
    assert type(got) is Fraction
    assert got == _oracle_affine_map(word, x)


@given(
    st.lists(st.integers(min_value=-3, max_value=12), min_size=1, max_size=6).filter(
        lambda xs: min(xs) < 1
    )
)
@settings(max_examples=100, deadline=None)
@example([0])
@example([3, 0, -2, 5])
# wide trailing digits the kernel reduces before it meets the bad ones
@example([3, 0, -2, 5] + [2**70 + i for i in range(3)])
# a front longer than a leaf with a wide digit, folded by binary splitting
@example([0] + [2**65 + i for i in range(20)])
def test_nonpositive_digit_error_matches_fraction_oracle(word):
    word = tuple(word)
    with pytest.raises(ValueError) as want:
        _oracle_evaluate(word)
    for call in (lambda: evaluate(word), lambda: affine_map(word, Fraction(1, 2))):
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == str(want.value)


# -- cylinder kernel oracle ------------------------------------------------------
# The sequential forward fold that the kernel (reduction from the back, binary
# splitting of the rest) replaced, frozen as the reference it must match.


def _sequential_fold(word):
    """(num, den) with value(word) = num/den and den = prod(word), unreduced."""
    num, den, sign = 0, 1, 1
    for d in word:
        if d < 1:
            bad = next(b for b in reversed(word) if b < 1)
            raise ValueError(f"digits must be positive, got {bad}")
        num = num * d + sign
        den *= d
        sign = -sign
    return num, den


def _assert_kernel_matches(word, a=0, b=1):
    """g_word(a/b) from the kernel equals value(word) + (-1)^len * a/(b*prod),
    compared by cross-multiplication, so no gcd of the unreduced oracle runs."""
    num, den = _sequential_fold(word)
    want_num, want_den = num * b + (-a if len(word) % 2 else a), den * b
    got_num, got_den = _fold(word, a, b)
    assert got_den > 0
    assert got_num * want_den == want_num * got_den


@given(
    wide_rationals,
    st.integers(min_value=0),
)
@settings(max_examples=60, deadline=None)
@example(Fraction(7, 9), 1)
def test_kernel_matches_sequential_fold_on_expansions(x, cut):
    # reducible: a full expansion, and a prefix applied to its remainder
    word = expand(x).word
    _assert_kernel_matches(word)
    part = expand(x, cap=1 + cut % len(word))
    _assert_kernel_matches(part.word, part.remainder.numerator, part.remainder.denominator)


@given(
    wide_rationals,
    st.integers(min_value=0),
    st.booleans(),
    st.fractions(),
)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_sequential_fold_on_prefixes(x, cut, bump, y):
    # irreducible: a truncated or bumped prefix, at 0 and at an arbitrary point
    word = expand(x).word
    prefix = word[: 1 + cut % len(word)]
    if bump:
        prefix = bump_last(prefix)
    _assert_kernel_matches(prefix)
    _assert_kernel_matches(prefix, y.numerator, y.denominator)


# longer than a leaf, digits past 2**64, in any order and sorted
long_digits = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=2**64),
        st.integers(min_value=2**64, max_value=2**300),
    ),
    min_size=_LEAF + 1,
    max_size=4 * _LEAF,
)


@given(long_digits.map(tuple) | long_digits.map(lambda xs: tuple(sorted(xs))), st.fractions())
@settings(max_examples=100, deadline=None)
def test_kernel_matches_sequential_fold_on_long_words(word, y):
    _assert_kernel_matches(word)
    _assert_kernel_matches(word, y.numerator, y.denominator)
    assert digit_product(word) == _sequential_fold(word)[1]


def test_kernel_halves_the_denominator_of_a_full_expansion():
    # the reduction from the back keeps an expansion's denominator near q,
    # far below the digit product that the sequential fold returns
    rng = random.Random(2101)
    for _ in range(40):
        q = rng.randrange(2**255, 2**256)
        word = expand(Fraction(rng.randint(1, q), q)).word
        assert _fold(word)[1].bit_length() <= digit_product(word).bit_length() // 2


def test_the_oracle_strategies_reach_the_binary_splitting(monkeypatch):
    # the kernel splits only a front longer than a leaf that ends in a wide
    # digit: the expansions of wide_rationals, and the expansion_words that
    # the evaluate oracle draws, must reach that branch, or no oracle checks it
    from piercelib import expansion

    reached = Counter()
    source = []
    original = expansion._split

    def counting(word, i, j):
        if j - i > _LEAF:
            reached[source[-1]] += 1
        return original(word, i, j)

    monkeypatch.setattr(expansion, "_split", counting)

    @given(wide_rationals, expansion_words)
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def draw(x, word):
        source.append("wide_rationals")
        evaluate(expand(x).word)
        source.append("expansion_words")
        evaluate(word)

    draw()
    assert set(reached) == {"wide_rationals", "expansion_words"}
