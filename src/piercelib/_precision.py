"""Certified integer parts and sign decisions via interval arithmetic.

Real-valued bound rows like exp(n + sqrt(n)) need exact floors and exact
comparisons.  Expressions are evaluated under `mpmath.iv` (directed-rounding
intervals) at a precision that doubles from 128 bits up to a ceiling of 2^16
bits, inclusive, until the answer is unambiguous.  An enclosure that is
exactly the point 0 is a certified zero, so `certified_sign` returns 0 at once.
A value still ambiguous at the ceiling (for instance a transcendental
expression that equals an integer exactly) raises PrecisionError: an undecided
answer is raised, never resolved.
"""

from __future__ import annotations

from typing import Callable

import mpmath

DEFAULT_PRECISION_BITS = 128
_MAX_PRECISION_BITS = 1 << 16


class PrecisionError(ArithmeticError):
    """Interval escalation hit the precision ceiling without a decision."""


def _at_precision(expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object], bits: int):
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = bits
        return iv.mpf(expr(iv))
    finally:
        iv.prec = old


def _escalate(expr, start_bits: int, decide, what: str):
    """First non-None `decide(enclosure)` as the precision doubles up to the ceiling."""
    bits = max(start_bits, 53)
    while bits <= _MAX_PRECISION_BITS:
        answer = decide(_at_precision(expr, bits))
        if answer is not None:
            return answer
        bits *= 2
    raise PrecisionError(f"{what} undecided at {_MAX_PRECISION_BITS} bits")


def _floor_of(val) -> int | None:
    lo = int(mpmath.floor(val.a))
    return lo if lo == int(mpmath.floor(val.b)) else None


def _sign_of(val) -> int | None:
    if val.a > 0:
        return 1
    if val.b < 0:
        return -1
    # here a <= 0 <= b, so a == b only for the point 0
    return 0 if val.a == val.b else None


def certified_floor(
    expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object],
    start_bits: int = DEFAULT_PRECISION_BITS,
) -> int:
    """Floor of a real given as an interval expression.

    `expr(iv)` must rebuild the value inside the supplied interval context.
    Precision doubles until both endpoints share an integer part; values that
    are exactly integers but only representable transcendentally cannot be
    certified and raise PrecisionError.
    """
    return _escalate(expr, start_bits, _floor_of, "floor")


def certified_sign(
    expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object],
    start_bits: int = DEFAULT_PRECISION_BITS,
) -> int:
    """Sign (+1, -1, or 0 for a certified zero) of an interval expression.

    It is 0 only when an enclosure is exactly the point 0; an enclosure that
    still straddles 0 at the ceiling raises PrecisionError.
    """
    return _escalate(expr, start_bits, _sign_of, "sign")

