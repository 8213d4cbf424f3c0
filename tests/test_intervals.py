"""Cylinder interval geometry: fundamental, basic, and gap intervals."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercelib.expansion import digit_product, evaluate
from piercelib.intervals import (
    IntervalExact,
    basic_interval,
    family_basic_interval,
    children_length_sum,
    epsilon_n,
    fundamental_interval,
    gap_interval,
    gap_lower_bound,
    interval_length,
)
from piercelib.profiles import BoundsProfile, affine_profile, power_profile, sqrt_profile

words = st.lists(
    st.integers(min_value=1, max_value=60), min_size=1, max_size=6, unique=True
).map(lambda xs: tuple(sorted(xs)))

# l(n) = 2n, r(n) = 2n + 2: two admissible digits per level
EVEN = BoundsProfile(l=affine_profile(2), r=affine_profile(2, 2), threshold=0)


def test_interval_order_validated():
    with pytest.raises(ValueError):
        IntervalExact(Fraction(1, 2), Fraction(1, 3))


def test_single_digit_interval():
    iv = fundamental_interval((2,))
    assert (iv.left, iv.right) == (Fraction(1, 3), Fraction(1, 2))
    assert iv.left_open and not iv.right_open
    assert str(iv) == "(1/3, 1/2]"
    assert str(fundamental_interval((1,))) == "(1/2, 1]"
    assert iv.length == Fraction(1, 6)


def test_two_digit_interval():
    iv = fundamental_interval((1, 3))
    assert (iv.left, iv.right) == (Fraction(2, 3), Fraction(3, 4))
    assert not iv.left_open and iv.right_open
    assert iv.length == Fraction(1, 12)


def test_openness_rule():
    # final digit exactly one above its predecessor: endpoint not attained
    tight = fundamental_interval((2, 3))
    assert tight.left_open and tight.right_open
    loose = fundamental_interval((2, 4))
    assert not loose.left_open and loose.right_open


def test_inadmissible_word_rejected():
    for word in [(2, 2), ()]:
        with pytest.raises(ValueError):
            fundamental_interval(word)


@given(words)
@settings(max_examples=300, deadline=None)
def test_length_identity(word):
    iv = fundamental_interval(word)
    assert iv.length == interval_length(word)
    assert interval_length(word) == Fraction(1, digit_product(word) * (word[-1] + 1))


@given(words)
@settings(max_examples=200, deadline=None)
def test_value_lies_in_own_interval(word):
    iv = fundamental_interval(word)
    x = evaluate(word)
    assert iv.contains(x) or x in (iv.left, iv.right)


def test_sibling_disjoint_and_nested_small():
    levels = [
        [(a,) for a in range(1, 9)],
        [w for w in itertools.combinations(range(1, 9), 2)],
        [w for w in itertools.combinations(range(1, 9), 3)],
    ]
    for words_at_level in levels:
        ivs = [fundamental_interval(w) for w in words_at_level]
        for i, a in enumerate(ivs):
            for b in ivs[i + 1 :]:
                assert a.right <= b.left or b.right <= a.left
    for w in levels[2]:
        inner = fundamental_interval(w)
        outer = fundamental_interval(w[:2])
        assert outer.left <= inner.left and inner.right <= outer.right


@given(words, st.integers(min_value=1, max_value=30))
@settings(max_examples=200, deadline=None)
def test_telescoping_with_tail(word, span):
    # sum of child lengths for j in (last, last + span] plus the closed-form
    # tail of the remaining children equals the parent length
    a, b = word[-1] + 1, word[-1] + span
    partial = sum(interval_length(word + (j,)) for j in range(a, b + 1))
    assert partial == children_length_sum(word, a, b)
    tail = Fraction(1, digit_product(word) * (b + 1))
    assert partial + tail == interval_length(word)


def test_basic_interval_root():
    iv = basic_interval((), Fraction(1), Fraction(4))
    assert (iv.left, iv.right) == (Fraction(1, 5), Fraction(1, 2))
    assert not iv.left_open and not iv.right_open


def test_basic_interval_no_digits():
    with pytest.raises(ValueError):
        basic_interval((), Fraction(5, 2), Fraction(13, 5))


def test_gap_example_even_bounds():
    gap = gap_interval((3,), EVEN)
    assert (gap.left, gap.right) == (Fraction(3, 14), Fraction(4, 15))
    assert gap.left_open and gap.right_open
    assert gap.length == Fraction(11, 210)


def test_gap_exceeds_certified_bound():
    gap = gap_interval((3,), EVEN)
    eps = epsilon_n(EVEN, 1)
    assert gap.length >= eps
    assert gap_lower_bound((3,), EVEN) == eps


def test_epsilon_sequence_even_scale():
    eps = [epsilon_n(EVEN, n) for n in (1, 2, 3)]
    assert eps == [Fraction(1, 96), Fraction(1, 1152), Fraction(1, 15360)]
    assert eps[0] > eps[1] > eps[2]


def test_gap_bound_refuses_an_irrational_row():
    # a rounded gap bound would certify nothing, so an irrational row raises
    root_r = BoundsProfile(l=affine_profile(2), r=power_profile(Fraction(1, 2), 4))
    with pytest.raises(ValueError, match=r"bound row r\(1\) is not rational"):
        epsilon_n(root_r, 2)
    with pytest.raises(ValueError, match=r"bound row r\(1\) is not rational"):
        gap_lower_bound((3,), root_r)
    root_l = BoundsProfile(l=sqrt_profile(), r=affine_profile(2, 2))
    with pytest.raises(ValueError, match=r"bound row l\(3\) is not rational"):
        epsilon_n(root_l, 2)


def test_a_word_outside_the_windows_is_refused():
    for call in (family_basic_interval, gap_interval, gap_lower_bound):
        with pytest.raises(ValueError, match="digit 5 at level 1 outside window 3..4"):
            call((5,), EVEN)
        with pytest.raises(ValueError, match="digit 8 at level 2 outside window 5..6"):
            call((3, 8), EVEN)


# -- differential oracle -------------------------------------------------------
# The Fraction-per-step interval code that the integer fold replaced, frozen
# (with its own copy of the old back-to-front evaluate) as the reference the
# library must match exactly.


def _oracle_evaluate(word):
    acc = Fraction(0)
    for d in reversed(word):
        acc = (1 - acc) / d
    return acc


def _oracle_fundamental(word):
    own = _oracle_evaluate(word)
    bumped = _oracle_evaluate(word[:-1] + (word[-1] + 1,))
    attained = len(word) == 1 or word[-1] > word[-2] + 1
    if len(word) % 2:
        return IntervalExact(bumped, own, left_open=True, right_open=not attained)
    return IntervalExact(own, bumped, left_open=not attained, right_open=True)


def _oracle_basic_from_digits(word, a, b):
    if not word:
        return IntervalExact(Fraction(1, b + 1), Fraction(1, a))
    base = _oracle_evaluate(word)
    p = Fraction(1, digit_product(word))
    sign = -1 if len(word) % 2 else 1
    e_first = base + sign * p / a
    e_last = base + sign * p / (b + 1)
    if e_first <= e_last:
        return IntervalExact(e_first, e_last)
    return IntervalExact(e_last, e_first)


def _oracle_children_length_sum(word, a, b):
    p = digit_product(word)
    return Fraction(1, p * a) - Fraction(1, p * (b + 1))


def _oracle_gap(word, bounds):
    a, b = bounds.digit_range(len(word) + 1)
    j_word = _oracle_basic_from_digits(word, a, b)
    j_bump = _oracle_basic_from_digits(word[:-1] + (word[-1] + 1,), a, b)
    if len(word) % 2:
        return IntervalExact(j_bump.right, j_word.left, left_open=True, right_open=True)
    return IntervalExact(j_word.right, j_bump.left, left_open=True, right_open=True)


def _assert_same_interval(got, want):
    assert got == want
    assert type(got.left) is Fraction and type(got.right) is Fraction


# admissible words with digits up to 2**2000, both parities
big_words = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=2**2000),
    ),
    min_size=1,
    max_size=7,
    unique=True,
).map(lambda xs: tuple(sorted(xs)))

# in-family words of EVEN: digit 2k+1 or 2k+2 at level k
even_words = st.lists(st.integers(min_value=1, max_value=2), min_size=1, max_size=8).map(
    lambda offsets: tuple(2 * k + o for k, o in enumerate(offsets, start=1))
)


@given(big_words)
@settings(max_examples=200, deadline=None)
@example((2,))
@example((1, 3))
@example((2, 3))
def test_fundamental_interval_matches_fraction_oracle(word):
    want = _oracle_fundamental(word)
    _assert_same_interval(fundamental_interval(word), want)
    got = interval_length(word)
    assert type(got) is Fraction
    assert got == want.length


@given(
    st.just(()) | big_words,
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=0, max_value=2**70),
)
@settings(max_examples=200, deadline=None)
@example((), 1, 3)
@example((3,), 1, 0)
@example((1, 4), 1, 5)
def test_basic_interval_matches_fraction_oracle(word, offset, span):
    a = (word[-1] if word else 0) + offset
    b = a + span
    # l_next = a - 1/2 and r_next = b + 1/3 floor to the window a..b
    got = basic_interval(word, Fraction(2 * a - 1, 2), b + Fraction(1, 3))
    _assert_same_interval(got, _oracle_basic_from_digits(word, a, b))
    if word:
        total = children_length_sum(word, a, b)
        assert type(total) is Fraction
        assert total == _oracle_children_length_sum(word, a, b)


@given(even_words)
@settings(max_examples=200, deadline=None)
@example((3,))
@example((4, 5))
def test_even_family_intervals_match_fraction_oracle(word):
    n = len(word)
    a, b = EVEN.digit_range(n + 1)
    want = _oracle_basic_from_digits(word, a, b)
    _assert_same_interval(family_basic_interval(word, EVEN), want)
    _assert_same_interval(basic_interval(word, EVEN.l.value(n + 1), EVEN.r.value(n + 1)), want)
    if word[-1] == 2 * n + 1:
        _assert_same_interval(gap_interval(word, EVEN), _oracle_gap(word, EVEN))
    else:
        with pytest.raises(ValueError):
            gap_interval(word, EVEN)
