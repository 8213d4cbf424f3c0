"""Exact Pierce expansion arithmetic on rationals.

Every x in (0, 1] expands as an alternating sum of unit-fraction products

    x = 1/d1 - 1/(d1*d2) + 1/(d1*d2*d3) - ...

with strictly increasing positive integer digits d1 < d2 < ... .  The digit
map is d(x) = floor(1/x) and the shift is T(x) = 1 - floor(1/x)*x.  Rational
points terminate after finitely many digits.  Everything here is exact and
runs on plain integers: for x = p/q the digit recursion is d, p = divmod(q, p)
with q fixed.  A word's value, and its cylinder map at a rational point, come
from one integer kernel (`_fold`): it walks the word from the back, reducing
the point by a gcd at each wide trailing digit, which keeps the denominator of
an expansion near q, and folds the rest unreduced, a long front with wide
digits by binary splitting.  Each public function builds one
`fractions.Fraction` at the end; words are plain tuples of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Sequence

Word = tuple[int, ...]

_WIDE = 1 << 64  # narrower digits are never reduced or split: a gcd or a split costs more
_LEAF = 16  # digits per leaf of the binary splitting


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


def _fold(word: Sequence[int], a: int = 0, b: int = 1) -> tuple[int, int]:
    """(num, den) with g_word(a/b) = num/den and den > 0, for b > 0; not
    necessarily in lowest terms.  g_word(0) is the word's value.

    The kernel walks the word from the back: g_(d.w)(y) = (1 - g_w(y))/d, so
    the point a/b becomes (b - a)/(b*d).  If a/b is in lowest terms, then
    gcd(b - a, b) = gcd(a, b) = 1, and dividing both by gcd(b - a, d) keeps
    it so.  On an expansion of p/q, or on a prefix of it applied to its
    remainder, each such point is a shift iterate T^k(p/q), whose denominator
    divides q, so the reduction cancels nearly all of d.  It runs while d is
    wider than 64 bits and the denominator is at most twice d's width; past
    that, a gcd costs more than it cancels.

    What is left, a front of k digits, is folded unreduced.  If it is longer
    than a leaf and ends in a wide digit, binary splitting (`_split`) gives
    value(front) = num/prod(front), and then g_front(a/b) = (num*b +- a) /
    (prod*b).  Otherwise the back step runs on: two integer operations per
    digit, against three for the forward fold.  Every branch gives the same
    value, so the gates decide only speed.
    """
    n = k = len(word)
    while k:
        d = word[k - 1]
        if d < _WIDE or b.bit_length() > 2 * d.bit_length():
            break
        a = b - a
        g = gcd(a, d)
        if g != 1:
            a //= g
            d //= g
        b *= d
        k -= 1
    front = word if k == n else word[:k]
    if k > _LEAF and front[-1] >= _WIDE:
        if min(front) < 1:
            _reject(word)
        num, den = _split(front, 0, k)
        return num * b + (-a if k % 2 else a), den * b
    for d in reversed(front):
        if d < 1:
            _reject(word)
        a, b = b - a, b * d
    return a, b


def _split(word: Sequence[int], i: int, j: int) -> tuple[int, int]:
    """(num, den) of the value of word[i:j] with den = prod(word[i:j]), by
    binary splitting: value(u.v) = value(u) + (-1)^len(u) value(v)/prod(u)."""
    if j - i <= _LEAF:
        num, den = 0, 1
        for d in reversed(word[i:j]):
            num, den = den - num, den * d
        return num, den
    m = (i + j) // 2
    n1, d1 = _split(word, i, m)
    n2, d2 = _split(word, m, j)
    return (n1 * d2 - n2 if (m - i) % 2 else n1 * d2 + n2), d1 * d2


def _reject(word: Sequence[int]) -> None:
    # name the last non-positive digit, keeping the established message
    bad = next(d for d in reversed(word) if d < 1)
    raise ValueError(f"digits must be positive, got {bad}")


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
    reciprocal.  A balanced product tree over `math.prod` leaves once the
    word is longer than a leaf and has a wide digit (as in `_fold`)."""
    if len(word) <= _LEAF or word[-1] < _WIDE:
        return prod(word)
    return _product(word, 0, len(word))


def _product(word: Sequence[int], i: int, j: int) -> int:
    if j - i <= _LEAF:
        return prod(word[i:j])
    m = (i + j) // 2
    return _product(word, i, m) * _product(word, m, j)


def affine_map(word: Sequence[int], x: Fraction) -> Fraction:
    """The cylinder map g_w(x) = value(w) + (-1)^len(w) * x / prod(w).

    g_w sends the shift iterate back to the point: for any y,
    expand(g_w(y)) starts with w whenever y lies in the next-level range.
    It contracts distances by exactly 1/prod(w).
    """
    return Fraction(*_fold(word, x.numerator, x.denominator))
