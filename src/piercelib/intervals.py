"""Exact interval geometry for digit cylinders.

A word sigma of length n pins down the set of x whose first n digits equal
sigma; that set is an interval with rational endpoints evaluate(sigma) and
evaluate(bump_last(sigma)).  Unions of such cylinders over a digit window at
the next level form basic intervals, and consecutive basic intervals are
separated by gaps with a computable positive lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .expansion import _fold, bump_last, digit_product, evaluate, is_admissible
from .profiles import BoundsProfile, _encode


@dataclass(frozen=True)
class IntervalExact:
    """Interval with exact rational endpoints and per-side openness."""

    left: Fraction
    right: Fraction
    left_open: bool = False
    right_open: bool = False

    def __post_init__(self) -> None:
        if self.left > self.right:
            raise ValueError(f"interval endpoints out of order: {self.left} > {self.right}")

    @property
    def length(self) -> Fraction:
        return self.right - self.left

    def contains(self, x) -> bool:
        x = Fraction(x)
        if self.left < x < self.right:
            return True
        if x == self.left:
            return not self.left_open
        if x == self.right:
            return not self.right_open
        return False

    def __str__(self) -> str:
        lb = "(" if self.left_open else "["
        rb = ")" if self.right_open else "]"
        return f"{lb}{_encode(self.left)}, {_encode(self.right)}{rb}"


def fundamental_interval(word: tuple[int, ...]) -> IntervalExact:
    """Cylinder of points whose expansion starts with `word`.

    The endpoint evaluate(word) belongs to the cylinder exactly when the word
    is a valid terminating expansion, which for n >= 2 requires the last digit
    to exceed its predecessor by at least 2; otherwise both ends are open.
    The bumped endpoint is always excluded.
    """
    if not is_admissible(word):
        raise ValueError(f"word {word!r} is not strictly increasing and positive")
    n = len(word)
    own = evaluate(word)
    bumped = evaluate(bump_last(word))
    attained = n == 1 or word[-1] > word[-2] + 1
    if n % 2:
        return IntervalExact(bumped, own, left_open=True, right_open=not attained)
    return IntervalExact(own, bumped, left_open=not attained, right_open=True)


def interval_length(word: tuple[int, ...]) -> Fraction:
    """Length of the cylinder: (prod 1/sigma_k) / (sigma_n + 1)."""
    if not is_admissible(word):
        raise ValueError(f"word {word!r} is not strictly increasing and positive")
    return Fraction(1, digit_product(word) * (word[-1] + 1))


def children_length_sum(word: tuple[int, ...], a: int, b: int) -> Fraction:
    """Exact total length of the child cylinders with next digit in a..b:
    (prod 1/sigma_k) * (1/a - 1/(b+1))."""
    if not is_admissible(word):
        raise ValueError(f"word {word!r} is not strictly increasing and positive")
    if a <= word[-1]:
        raise ValueError(f"child digits must exceed {word[-1]}, got start {a}")
    if a > b:
        raise ValueError(f"empty child range {a}..{b}")
    return Fraction(b + 1 - a, digit_product(word) * a * (b + 1))


def _child_range(l_next, r_next) -> tuple[int, int]:
    lo = Fraction(l_next)
    hi = Fraction(r_next)
    a = lo.numerator // lo.denominator + 1
    b = hi.numerator // hi.denominator
    if a > b:
        raise ValueError(f"no integer digits in ({l_next}, {r_next}]")
    return a, b


def basic_interval(word: tuple[int, ...], l_next, r_next) -> IntervalExact:
    """Closed hull of the cylinders extending `word` by one digit j with
    l_next < j <= r_next.  `word` may be empty; bounds may be any rationals
    (floors are taken internally)."""
    a, b = _child_range(l_next, r_next)
    return _basic_from_digits(word, a, b)


def _basic_from_digits(word: tuple[int, ...], a: int, b: int) -> IntervalExact:
    """Hull of the children with next digit a..b: the endpoints are
    g_word(1/a) and g_word(1/(b+1)), in increasing order for odd len(word)."""
    if word:
        if not is_admissible(word):
            raise ValueError(f"word {word!r} is not strictly increasing and positive")
        if a <= word[-1]:
            raise ValueError(f"child digits must exceed {word[-1]}, got start {a}")
    num, den = _fold(word)
    sign = -1 if len(word) % 2 else 1
    e_first = Fraction(num * a + sign, den * a)
    e_last = Fraction(num * (b + 1) + sign, den * (b + 1))
    if sign < 0:
        return IntervalExact(e_first, e_last)
    return IntervalExact(e_last, e_first)


def family_basic_interval(word: tuple[int, ...], bounds: BoundsProfile) -> IntervalExact:
    """Basic interval of `word` under a bounds profile: the child digit window
    is the profile's admissible range at level len(word)+1."""
    _check_in_family(word, bounds)
    a, b = bounds.digit_range(len(word) + 1)
    if a > b:
        raise ValueError(f"bounds admit no digit at level {len(word) + 1}")
    return _basic_from_digits(word, a, b)


def _check_in_family(word: tuple[int, ...], bounds: BoundsProfile) -> None:
    if word and not is_admissible(word):
        raise ValueError(f"word {word!r} is not strictly increasing and positive")
    for k, d in enumerate(word, start=1):
        if not bounds.contains(k, d):
            lo, hi = bounds.digit_range(k)
            raise ValueError(f"digit {d} at level {k} outside window {lo}..{hi}")


def gap_interval(word: tuple[int, ...], bounds: BoundsProfile) -> IntervalExact:
    """Open interval strictly between the basic intervals of `word` and of
    bump_last(word).  Requires both words to lie in the family, i.e. the last
    digit of `word` is at most floor(r_n) - 1."""
    if not word:
        raise ValueError("need a non-empty word")
    _check_in_family(word, bounds)
    n = len(word)
    _, hi = bounds.digit_range(n)
    if word[-1] > hi - 1:
        raise ValueError(f"last digit {word[-1]} has no in-family bump at level {n}")
    a, b = bounds.digit_range(n + 1)
    if a > b:
        raise ValueError(f"bounds admit no digit at level {n + 1}")
    j_word = _basic_from_digits(word, a, b)
    j_bump = _basic_from_digits(bump_last(word), a, b)
    if n % 2:
        return IntervalExact(j_bump.right, j_word.left, left_open=True, right_open=True)
    return IntervalExact(j_word.right, j_bump.left, left_open=True, right_open=True)


def epsilon_n(bounds: BoundsProfile, n: int) -> Fraction | mpmath.mpf:
    """Level-n gap lower bound (1/2) (prod_{k<=n} 1/r_k) Delta_{n+1} /
    (r_n r_{n+1}).  Exact when every bound value is rational, else an mpf at
    the caller's mpmath precision."""
    if n < 1:
        raise ValueError("level must be >= 1")
    values = [bounds.r.value(k) for k in range(1, n + 2)]
    l_next = bounds.l.value(n + 1)
    if all(v is not None for v in values) and l_next is not None:
        prod = Fraction(1)
        for v in values[:-1]:
            prod *= v
        delta = values[-1] - l_next
        return Fraction(1, 2) * delta / (prod * values[-2] * values[-1])
    return mpmath.exp(log_epsilon_n(bounds, n))


def log_epsilon_n(bounds: BoundsProfile, n: int) -> mpmath.mpf:
    """log of epsilon_n, assembled from log terms so huge bounds do not
    overflow."""
    if n < 1:
        raise ValueError("level must be >= 1")
    total = -mpmath.log(2)
    for k in range(1, n + 1):
        total -= bounds.r.log_value(k)
    total -= bounds.r.log_value(n)
    total -= bounds.r.log_value(n + 1)
    total += bounds.log_delta(n + 1)
    return total


def gap_lower_bound(word: tuple[int, ...], bounds: BoundsProfile) -> Fraction | mpmath.mpf:
    """epsilon at level len(word); every in-family gap at that level is at
    least this long."""
    if not word:
        raise ValueError("need a non-empty word")
    _check_in_family(word, bounds)
    return epsilon_n(bounds, len(word))
