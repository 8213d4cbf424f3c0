"""Exact Pierce expansion arithmetic on rationals.

Every x in (0, 1] expands as an alternating sum of unit-fraction products

    x = 1/d1 - 1/(d1*d2) + 1/(d1*d2*d3) - ...

with strictly increasing positive integer digits d1 < d2 < ... .  The digit
map is d(x) = floor(1/x) and the shift is T(x) = 1 - floor(1/x)*x.  Rational
points terminate after finitely many digits.  Everything here is exact and
runs on plain integers: for x = p/q the digit recursion is d, p = divmod(q, p)
with q fixed, and a word's value is a forward integer fold whose denominator
is the digit product.  Each public function builds one `fractions.Fraction`
at the end; words are plain tuples of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Word = tuple[int, ...]


@dataclass(frozen=True)
class ExpansionResult:
    """Digits of x up to a cap, with the exact leftover shift iterate."""

    word: Word
    terminated: bool
    remainder: Fraction


def first_digit(x: Fraction) -> int:
    """floor(1/x) for x in (0, 1]."""
    if not 0 < x <= 1:
        raise ValueError(f"first_digit needs 0 < x <= 1, got {x}")
    return x.denominator // x.numerator


def shift(x: Fraction) -> Fraction:
    """One expansion step: T(x) = 1 - floor(1/x)*x, mapping (0,1] into [0,1)."""
    return Fraction(x.denominator - first_digit(x) * x.numerator, x.denominator)


def expand(x: Fraction, cap: int | None = None) -> ExpansionResult:
    """Digits of x in (0, 1], stopping at `cap` digits or at exact termination.

    The numerator of the shift iterate strictly decreases (for x = p/q the
    next numerator is q mod p), so rational inputs always terminate; cap=None
    is therefore safe and means "expand fully".
    """
    if not 0 < x <= 1:
        raise ValueError(f"expand needs 0 < x <= 1, got {x}")
    if cap is not None and cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    # floor(q/p) does not change when p and q are scaled, so the shift
    # iterates can stay unreduced over the fixed denominator q
    p, q = x.as_integer_ratio()
    digits: list[int] = []
    while p and (cap is None or len(digits) < cap):
        d, p = divmod(q, p)
        digits.append(d)
    return ExpansionResult(word=tuple(digits), terminated=(p == 0), remainder=Fraction(p, q))


def _fold(word: Sequence[int]) -> tuple[int, int]:
    """(num, den) with value(word) = num/den and den = prod(word), unreduced.

    Forward fold: appending digit d to a word of value num/den adds
    (-1)^(len+1) / (den*d), so (num, den) -> (num*d +- 1, den*d).
    """
    num, den, sign = 0, 1, 1
    for d in word:
        if d < 1:
            # name the last non-positive digit, keeping the established message
            bad = next(b for b in reversed(word) if b < 1)
            raise ValueError(f"digits must be positive, got {bad}")
        num = num * d + sign
        den *= d
        sign = -sign
    return num, den


def evaluate(word: Sequence[int]) -> Fraction:
    """Exact alternating value of a word: sum_j (-1)^(j+1) prod_{k<=j} 1/w_k.

    The empty word evaluates to 0.  Digits must be positive; admissibility is
    the caller's contract (see `is_admissible`).
    """
    return Fraction(*_fold(word))


def bump_last(word: Sequence[int]) -> Word:
    """Copy of the word with its final digit incremented by one."""
    if not word:
        raise ValueError("bump_last needs a non-empty word")
    return tuple(word[:-1]) + (word[-1] + 1,)


def extend(word: Sequence[int], j: int) -> Word:
    """Append digit j, which must exceed the current final digit (or be >= 1
    when the word is empty)."""
    if word and j <= word[-1]:
        raise ValueError(f"appended digit must exceed {word[-1]}, got {j}")
    if not word and j < 1:
        raise ValueError(f"digits must be positive, got {j}")
    return tuple(word) + (j,)


def is_admissible(word: Sequence[int]) -> bool:
    """True when the word is non-empty, all digits >= 1, strictly increasing."""
    if not word:
        return False
    prev = 0
    for d in word:
        if d <= prev:
            return False
        prev = d
    return True


def digit_product(word: Sequence[int]) -> int:
    """prod of the digits; the contraction factor of `affine_map` is its
    reciprocal."""
    p = 1
    for d in word:
        p *= d
    return p


def affine_map(word: Sequence[int], x: Fraction) -> Fraction:
    """The cylinder map g_w(x) = value(w) + (-1)^len(w) * x / prod(w).

    g_w sends the shift iterate back to the point: for any y,
    expand(g_w(y)) starts with w whenever y lies in the next-level range.
    It contracts distances by exactly 1/prod(w).
    """
    num, den = _fold(word)
    xn, xd = x.numerator, x.denominator
    if len(word) % 2:
        xn = -xn
    return Fraction(num * xd + xn, den * xd)
