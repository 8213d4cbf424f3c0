"""The floor and sign readers of `_precision` against the readers they
replaced, which went through `mpmath.floor` and `mpmath.iv` comparisons."""

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero, mpf_abs, mpf_neg

from piercelib._precision import PrecisionError, _at_precision, _floor_of, _sign_of, certified_sign


def _oracle_floor_of(val):
    lo = int(mpmath.floor(val.a))
    return lo if lo == int(mpmath.floor(val.b)) else None


def _oracle_sign_of(val):
    if val.a > 0:
        return 1
    if val.b < 0:
        return -1
    return 0 if val.a == val.b else None


def _outcome(reader, val):
    """What `reader(val)` returns, or ValueError where it raises that: an
    infinite endpoint has no integer floor."""
    try:
        return reader(val)
    except ValueError:
        return ValueError


def _enclosure(a, b):
    lo, hi = sorted((a, b), key=mpmath.mpf)
    return mpmath.iv.make_mpf((lo, hi))


# finite ends from 2^-150 up past 2^53 and 2^128, both signs, and both infinities
finite_ends = st.builds(
    lambda man, exp: from_man_exp(man, exp),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.integers(min_value=-150, max_value=100),
)
ends = st.one_of(finite_ends, st.sampled_from([finf, fninf]))
enclosures = st.one_of(
    st.builds(_enclosure, ends, ends),
    ends.map(lambda x: _enclosure(x, x)),
    # straddling 0
    st.builds(
        _enclosure, finite_ends.map(lambda x: mpf_neg(mpf_abs(x))), finite_ends.map(mpf_abs)
    ),
)


@given(enclosures, st.sampled_from([53, 128]))
@settings(max_examples=400, deadline=None)
# above 2^53: 3^40/7 floors to a different integer at 53 bits than exactly
@example(mpmath.iv.mpf(3**40) / 7, 53)
@example(mpmath.iv.mpf(3**40) / 7, 128)
@example(_enclosure(fninf, finf), 53)
@example(_enclosure(fzero, fzero), 53)
@example(_enclosure(from_man_exp(-1, -3), fzero), 53)
def test_readers_match_the_mpmath_readers(val, prec):
    with mpmath.workprec(prec):
        assert _outcome(_floor_of, val) == _outcome(_oracle_floor_of, val)
        assert _sign_of(val) == _oracle_sign_of(val)


def test_a_nan_enclosure_decides_no_sign():
    nan = mpmath.iv.make_mpf((fnan, fnan))
    assert _oracle_sign_of(nan) == 0  # the comparison reader took it for the point 0
    assert _sign_of(nan) is None
    with pytest.raises(PrecisionError):
        certified_sign(lambda iv: iv.make_mpf((fnan, fnan)))


def test_at_precision_keeps_an_interval_and_converts_the_rest():
    val = mpmath.iv.mpf([1, 2])
    assert _at_precision(lambda iv: val, 128) is val
    assert _at_precision(lambda iv: 3, 128)._mpi_ == mpmath.iv.mpf(3)._mpi_
