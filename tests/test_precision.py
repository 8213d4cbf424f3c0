"""The floor and sign readers of `_precision` against the readers they
replaced, which went through `mpmath.floor` and `mpmath.iv` comparisons, and
the raw-pair enclosures that the package's decisions escalate against the
`mpmath.iv` expressions they replaced."""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero, mpf_abs, mpf_neg

from piercelib import dimension, profiles
from piercelib._precision import PrecisionError, _at_precision, _floor_of, _sign_of, certified_floor, certified_sign


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
    # the drawn ends stay below 2^300, far under the floor's ceiling rule
    with mpmath.workprec(prec):
        assert _outcome(_floor_of, val._mpi_) == _outcome(_oracle_floor_of, val)
        assert _sign_of(val._mpi_) == _oracle_sign_of(val)


def test_a_nan_enclosure_decides_no_sign():
    nan = mpmath.iv.make_mpf((fnan, fnan))
    assert _oracle_sign_of(nan) == 0  # the comparison reader took it for the point 0
    assert _sign_of(nan._mpi_) is None
    with pytest.raises(PrecisionError):
        certified_sign(lambda iv: iv.make_mpf((fnan, fnan)))


def test_at_precision_keeps_an_interval_and_converts_the_rest():
    val = mpmath.iv.mpf([1, 2])
    assert _at_precision(lambda iv: val, 128) is val._mpi_
    assert _at_precision(lambda iv: 3, 128) == mpmath.iv.mpf(3)._mpi_


def test_a_floor_above_the_ceiling_is_undecided():
    # near 2^(10^12) every enclosure at or below 2^16 bits is wider than 1,
    # so no floor is read and no integer of 10^12 bits is formed
    lo = from_man_exp(1, 10**12)
    hi = from_man_exp((1 << 100) + 1, 10**12 - 100)
    assert _floor_of((lo, hi)) is None
    # N + 1/4 and N + 1/2 share the floor N below the ceiling; k = 2^200
    # lifts them above it, where they are 2^199 apart
    big = 1 << 65400
    near = (from_man_exp(4 * big + 1, -2), from_man_exp(4 * big + 2, -2))
    assert _floor_of(near) == big and _floor_of(near, 1 << 200) is None
    # a point is exact at any magnitude the pair can hold
    assert _floor_of((from_man_exp(3, 2**16), from_man_exp(3, 2**16))) == 3 << 2**16


def test_a_floor_of_a_value_above_the_ceiling_raises_undecided():
    # e^(10^100): reading its floor once formed an int of ~1.4 * 10^100 bits
    with pytest.raises(PrecisionError, match="^floor undecided at 65536 bits$"):
        certified_floor(lambda iv: iv.exp(iv.mpf(10) ** 100))


# -- the decisions' enclosures against their mpmath.iv expressions ------------

BITS = (128, 256, 4096)


def _recorded_enclosures(monkeypatch, module):
    """For each escalation of `module`, in order, what its `enclose` returns
    at each of BITS, read when the escalation starts."""
    seen, original = [], module._escalate

    def recording(enclose, decide, what):
        seen.append({bits: enclose(bits) for bits in BITS})
        return original(enclose, decide, what)

    monkeypatch.setattr(module, "_escalate", recording)
    return seen


def _row(h, n):
    """h's enclosure at n as an `mpmath.iv` object, at `iv.prec`."""
    return lambda iv: iv.make_mpf(h._row(n, iv.prec))


def test_a_compare_sum_is_its_iv_expression_bit_for_bit(monkeypatch):
    seen = _recorded_enclosures(monkeypatch, profiles)
    u, v = profiles.exp_of_profile(profiles.sqrt_profile()), profiles.sqrt_profile(Fraction(3, 2))
    cases = [
        (((1, u, 3),), 2),
        (((2, u, 5), (-1, u, 6)), 1),
        (((1, u, 4), (-3, v, 4)), Fraction(-7, 3)),
        (((-1, v, 7), (5, u, 2), (1, v, 9)), 0),
    ]
    for terms, const in cases:
        profiles.certified_compare(terms, const)
        enclose = seen.pop()

        def oracle(iv):  # the expression the raw-pair sum replaced
            total = iv.make_mpf(profiles._enclose(-const, iv.prec))
            for c, h, n in terms:
                value = _row(h, n)(iv)
                total += value if c == 1 else c * value
            return total

        for bits in BITS:
            assert enclose[bits] == _at_precision(oracle, bits), (terms, const, bits)


def test_a_cover_window_is_its_iv_expression_bit_for_bit(monkeypatch):
    seen = _recorded_enclosures(monkeypatch, dimension)
    cases = [
        (profiles.log_profile(2), 0.01, 5),
        (profiles.log_profile(Fraction(17, 5)), 0.3, 2),
        (profiles.sqrt_profile(), 0.25, 30),
        (profiles.exponential_profile(Fraction(3, 2), coeff=Fraction(1, 7)), 0.1, 7),
    ]
    for phi, eps, n in cases:
        dimension._cover_row(phi, eps, n)
        lo, hi = seen[-2:]
        row = _row(phi, n)
        for bits in BITS:
            assert lo[bits] == _at_precision(lambda iv: iv.exp((1 - iv.mpf(eps)) * row(iv)), bits)
            assert hi[bits] == _at_precision(lambda iv: iv.exp((1 + iv.mpf(eps)) * row(iv)), bits)


def test_an_oscillating_word_row_is_its_iv_expression_bit_for_bit(monkeypatch):
    seen = _recorded_enclosures(monkeypatch, profiles)
    profiles.oscillating_ratio_word(40)
    assert len(seen) == 40
    for n, enclose in enumerate(seen, start=1):
        off = 1 if n % 2 else 0
        for bits in BITS:
            want = _at_precision(lambda iv: iv.exp(iv.mpf(n - off) + iv.sqrt(iv.mpf(n))), bits)
            assert enclose[bits] == want, (n, bits)
