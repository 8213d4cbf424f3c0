"""Certified integer parts and sign decisions via interval arithmetic.

Real-valued bound rows like exp(n + sqrt(n)) need exact floors and exact
comparisons.  `_escalate(enclose, decide, what)` decides on `enclose(bits)`,
a directed-rounding enclosure as a raw (lo, hi) pair of `libmp` tuples, at a
precision that doubles from 128 bits up to a ceiling of 2^16 bits, inclusive,
until `decide` answers.  Every escalation starts at 128 bits, whatever the
value's magnitude (a start derived from the magnitude is ROADMAP item 9).  A
value still ambiguous at the ceiling (for instance a transcendental
expression that equals an integer exactly) raises PrecisionError.

`_sign_of` reads the point 0 as a certified zero, and a NaN end as no sign.
`_floor_of` floors each end with `mpf_floor` at `mpmath.mp`'s precision and
rounding, as `mpmath.floor` does, so a floor above 2^53 is rounded to the
caller's `mpmath.mp.prec` and can come out wrong: that `prec` argument is the
defect of ROADMAP item 9 (0 there floors exactly).  Above 2^(2^16) no
enclosure up to the ceiling is narrower than 1, so only a point decides a
floor there.  The public `certified_floor` and `certified_sign` take an
`mpmath.iv` expression; `_at_precision`, their adapter, is the one place in
the package that enters `mpmath.iv`.
"""

from __future__ import annotations

from typing import Callable

import mpmath
from mpmath.libmp import fnan, from_int, mpf_floor, mpf_mul, mpf_sign, to_int

DEFAULT_PRECISION_BITS = 128
_MAX_PRECISION_BITS = 1 << 16


class PrecisionError(ArithmeticError):
    """Interval escalation hit the precision ceiling without a decision."""


def _at_precision(expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object], bits: int) -> tuple:
    """The raw pair of `expr(iv)` at `bits`, for `certified_floor` and `certified_sign` only."""
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = bits
        val = expr(iv)
        return (val if isinstance(val, iv.mpf) else iv.mpf(val))._mpi_
    finally:
        iv.prec = old


def _escalate(enclose: Callable[[int], tuple], decide, what: str):
    """First non-None `decide(enclose(bits))` as the precision doubles up to the ceiling."""
    bits = DEFAULT_PRECISION_BITS
    while bits <= _MAX_PRECISION_BITS:
        answer = decide(enclose(bits))
        if answer is not None:
            return answer
        bits *= 2
    raise PrecisionError(f"{what} undecided at {_MAX_PRECISION_BITS} bits")


def _floor_of(pair: tuple, k: int = 1) -> int | None:
    a, b = pair
    if k != 1:  # k times the enclosure, exactly (`mpf_mul` at prec 0)
        a, b = mpf_mul(a, from_int(k)), mpf_mul(b, from_int(k))
    if a != b and max(a[2] + a[3], b[2] + b[3]) > _MAX_PRECISION_BITS:
        return None  # wider than 1 at every precision up to the ceiling
    # the floors are rounded to mpmath.mp.prec: the known defect (module docstring)
    prec, rnd = mpmath.mp._prec_rounding
    lo = to_int(mpf_floor(a, prec, rnd))
    return lo if lo == to_int(mpf_floor(b, prec, rnd)) else None


def _sign_of(pair: tuple) -> int | None:
    a, b = pair
    if a == fnan or b == fnan:
        return None
    if mpf_sign(a) > 0:
        return 1
    if mpf_sign(b) < 0:
        return -1
    # here a <= 0 <= b, so a == b only for the point 0
    return 0 if a == b else None


def certified_floor(expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object]) -> int:
    """Floor of a real given as an interval expression.

    `expr(iv)` must rebuild the value inside the supplied interval context.
    Precision doubles until both endpoints share an integer part; values
    that are exactly integers but only representable transcendentally cannot
    be certified and raise PrecisionError.
    """
    return _escalate(lambda bits: _at_precision(expr, bits), _floor_of, "floor")


def certified_sign(expr: Callable[[mpmath.ctx_iv.MPIntervalContext], object]) -> int:
    """Sign (+1, -1, or 0 for a certified zero) of an interval expression.

    It is 0 only when an enclosure is exactly the point 0; an enclosure that
    still straddles 0 at the ceiling raises PrecisionError.
    """
    return _escalate(lambda bits: _at_precision(expr, bits), _sign_of, "sign")

