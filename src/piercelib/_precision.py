"""Certified integer parts and sign decisions via interval arithmetic.

Real-valued bound rows like exp(n + sqrt(n)) need exact floors and exact
comparisons.  Expressions are evaluated under `mpmath.iv` (directed-rounding
intervals) at a precision that doubles from 128 bits up to a ceiling of 2^16
bits, inclusive, until the answer is unambiguous.  Every escalation starts at
128 bits, whatever the value's magnitude; a start derived from the magnitude
is the open follow-up of ROADMAP item 9.  An enclosure that is
exactly the point 0 is a certified zero, so `certified_sign` returns 0 at once.
A value still ambiguous at the ceiling (for instance a transcendental
expression that equals an integer exactly) raises PrecisionError: an undecided
answer is raised, never resolved.

Floors and signs read the raw endpoints of the enclosure (`libmp` tuples).
`_floor_of` floors each endpoint with `mpf_floor` at `mpmath.mp`'s precision
and rounding, as `mpmath.floor` does, so a floor above 2^53 is rounded to the
caller's `mpmath.mp.prec` (53 bits outside a `workprec`) and can come out
wrong: that `prec` argument is the defect of ROADMAP item 9, and passing 0
there floors exactly.  A NaN endpoint decides no sign.
"""

from __future__ import annotations

from typing import Callable

import mpmath
from mpmath.libmp import fnan, from_int, mpf_floor, mpf_mul, mpf_sign, to_int

DEFAULT_PRECISION_BITS = 128
_MAX_PRECISION_BITS = 1 << 16


class PrecisionError(ArithmeticError):
    """Interval escalation hit the precision ceiling without a decision."""


def _at_precision(expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object], bits: int):
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = bits
        val = expr(iv)
        return val if isinstance(val, iv.mpf) else iv.mpf(val)
    finally:
        iv.prec = old


def _escalate(expr, decide, what: str):
    """First non-None `decide(enclosure)` as the precision doubles up to the ceiling."""
    bits = DEFAULT_PRECISION_BITS
    while bits <= _MAX_PRECISION_BITS:
        answer = decide(_at_precision(expr, bits))
        if answer is not None:
            return answer
        bits *= 2
    raise PrecisionError(f"{what} undecided at {_MAX_PRECISION_BITS} bits")


def _floor_of(val, k: int = 1) -> int | None:
    a, b = val._mpi_
    if k != 1:  # k times the enclosure, exactly (`mpf_mul` at prec 0)
        a, b = mpf_mul(a, from_int(k)), mpf_mul(b, from_int(k))
    # the floors are rounded to mpmath.mp.prec: the known defect (module docstring)
    prec, rnd = mpmath.mp._prec_rounding
    lo = to_int(mpf_floor(a, prec, rnd))
    return lo if lo == to_int(mpf_floor(b, prec, rnd)) else None


def _sign_of(val) -> int | None:
    a, b = val._mpi_
    if a == fnan or b == fnan:
        return None
    if mpf_sign(a) > 0:
        return 1
    if mpf_sign(b) < 0:
        return -1
    # here a <= 0 <= b, so a == b only for the point 0
    return 0 if a == b else None


def certified_floor(expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object], k: int = 1) -> int:
    """Floor of k times a real given as an interval expression.

    `expr(iv)` must rebuild the value inside the supplied interval context.
    k multiplies its endpoints exactly, so no enclosure of the product is
    built; floor-then-round is monotone, so any enclosure of the product that
    decides gives the same floor.  Precision doubles until both endpoints
    share an integer part; values that are exactly integers but only
    representable transcendentally cannot be certified and raise
    PrecisionError.
    """
    return _escalate(expr, lambda val: _floor_of(val, k), "floor")


def certified_sign(expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object]) -> int:
    """Sign (+1, -1, or 0 for a certified zero) of an interval expression.

    It is 0 only when an enclosure is exactly the point 0; an enclosure that
    still straddles 0 at the ceiling raises PrecisionError.
    """
    return _escalate(expr, _sign_of, "sign")

