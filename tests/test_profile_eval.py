"""The one profile evaluator: every kind's row is one enclosure on raw
endpoint pairs, bit-identical to the `mpmath.iv` walk kept here as the oracle,
and the float readers take its lower end.  The oracle's `mpmath.mp` walk lies
inside the enclosures, and its bits are pinned."""

import math
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_int, mpf_shift

from piercelib import profiles
from piercelib._precision import certified_floor
from piercelib.profiles import (
    _KINDS,
    BoundsProfile,
    GrowthProfile,
    ProfileError,
    _enclose,
    _scale_windows,
    affine_profile,
    deviation_profile,
    exp_of_profile,
    exp_of_scaled_profile,
    exponential_profile,
    index_scaled_profile,
    lil_profile,
    linear_log_profile,
    log_profile,
    piecewise_profile,
    power_profile,
    sqrt_profile,
    table_profile,
)

# Instances per kind; the first of each is the one pinned below.  Fractional
# powers are read at non-square n only: n^(1/2) + 1 and 49^2.5 * 3/7 are exact
# there, and an exact point enclosure need not hold the rounded mp value.  The
# 3**84 and 3**92 denominators have more than 128 bits: rounding them before
# the division would move the pinned sqrt and table bits.
CASES = {
    "power": (
        power_profile(Fraction(1, 2), shift=1),
        power_profile(Fraction(5, 2), coeff=Fraction(3, 7)),
        power_profile(3, coeff=Fraction(1, 2)),
    ),
    "sqrt": (sqrt_profile(Fraction(1, 3**84)),),
    "log": (log_profile(Fraction(1, 2)),),
    "linear_log": (linear_log_profile(Fraction(3**93 + 1, 3**92)),),
    "exponential": (
        exponential_profile(2.5, coeff=Fraction(1, 3), shift=1),
        exponential_profile(2.5, coeff=Fraction(1, 3)),
        exponential_profile(3, coeff=2),
    ),
    "table": (table_profile([Fraction(k * k + 1, 3**84) for k in range(1, 61)]),),
    "lil": (lil_profile(),),
    "deviation": (deviation_profile(Fraction(1, 2), lil_profile()),),
    "affine": (affine_profile(Fraction(1, 3), 2), affine_profile(0.5, 1)),
    "index_scaled": (index_scaled_profile(sqrt_profile(), 1),),
    "exp_of": (exp_of_profile(sqrt_profile()),),
    "exp_of_scaled": (exp_of_scaled_profile(deviation_profile(1, lil_profile()), lil_profile()),),
    "piecewise": (piecewise_profile(3, affine_profile(2), exp_of_profile(sqrt_profile())),),
}

LEVELS = (2, 3, 17, 60)
PINNED_LEVELS = (3, 17, 60)

# (mp_value, log_value) at 128 bits as (signed mantissa, exponent) pairs, for
# the first instance of each kind at n = 3, 17, 60.  They guard the bits that a
# float tolerance would let through.  The index_scaled log is log(n + offset)
# plus u's log row, which differs from the log of the value in its last bits.
PINNED = {
    "power": (
        ((116208589418474868278943689850412795761, -125), (171000828381577807476276373843835187551, -127)),
        ((13619550845868380986679601669975851755, -121), (138984999929969699931330824831617644317, -126)),
        ((93003070222081594252770974448228307453, -123), (92241729751588496810172131576605325103, -125)),
    ),
    "sqrt": (
        ((134012129358211132520752702897649519495, -259), (243871137172035478475716909524604014171, -121)),
        ((319012676789430287054592958148963739763, -259), (60391364221923886493020902899586853153, -119)),
        ((299660231054455356881645658535981526657, -258), (239889125966151117690782211768871194427, -121)),
    ),
    "log": (
        ((186919194958206833801747092330235412059, -128), (203862945840330549946878267476511041205, -128)),
        ((241023135676859097133404613445540205781, -127), (118508215363592598161152309980600611179, -128)),
        ((174154157327851253568347101266009084801, -126), (243798522848817102958662607858698641571, -128)),
    ),
    "linear_log": (
        ((35047349054663781337827579811919139761, -123), (25365075456349775737160003746757141707, -124)),
        ((198601644643094760914356285600875125313, -123), (62255960005788695795292770566862766645, -124)),
        ((175236745273318906689137899059595698805, -121), (1391832105476555442126799497476285275, -118)),
    ),
    "exponential": (
        ((264073295162603286750223002642361789099, -125), (310659506669726887843272513423392884293, -127)),
        ((314824594450586510126430058244676954795, -107), (9622501228459565921852624005732776641, -119)),
        ((70586078937858361589027156531613540827, -48), (143234502749023242532527492209268585869, -121)),
    ),
    "table": (
        ((193429847399095368006752372532979438185, -257), (119605061123038535202688175893656647875, -120)),
        ((175295799205430177256119337608012615855, -252), (57564578617865354754348298479047200637, -119)),
        ((272086281439118132887623161520023030041, -249), (13972589709950768974323036609375458643, -117)),
    ),
    "lil": (
        ((63904208922325324618373943691573649047, -126), (97353484012565882570191822580527879407, -128)),
        ((63276159911974377617645763674640835963, -123), (18965093018222877528346142289803579793, -123)),
        ((17287773826846867635106003317446222015, -120), (109120099779692792356254560434471018875, -125)),
    ),
    "deviation": (
        ((71790969912966627476679481854903245779, -124), (103494470936193312980219195386217889659, -126)),
        ((106206543691367873761870321017723640159, -122), (254743295105310395656957369280758734653, -126)),
        ((176795133321036772383562850551087571135, -121), (44632776419301197251395248380002291519, -123)),
    ),
    "affine": (
        ((3, 0), (186919194958206833801747092330235412059, -127)),
        ((326103934965899360819067332122111202645, -125), (43319687709179343935530359517771785275, -124)),
        ((11, 1), (262956810570468062973267603120237984453, -126)),
    ),
    "index_scaled": (
        ((294693174213430241384087455685767077317, -125), (82331340176154177759704422232318047607, -125)),
        ((98649853688686943167847887944736463427, -120), (183198601801507352951467717372022068025, -125)),
        ((157016375675123071982561612372659956299, -118), (65483578685178870625513757031964447367, -123)),
    ),
    "exp_of": (
        ((60104857905954782034069680373470410511, -123), (294693174213430241384087455685767077317, -127)),
        ((20520196246071837991310482766020841689, -118), (10961094854298549240871987549415162603, -121)),
        ((96046179188587296756367872463228161995, -115), (329476985023209069078162071863942203381, -125)),
    ),
    "exp_of_scaled": (
        ((141513737562228795284389891828395441249, -121), (338125937812304491235884179107418414865, -126)),
        ((247982407632299931006747503872028793739, -94), (123621320285209828912289003261033121799, -122)),
        ((259367373834664141004182037201318856005, -22), (194604483883550968104072479253630982971, -121)),
    ),
    "piecewise": (
        ((3, 1), (152426038285481740435359581856156327129, -126)),
        ((20520196246071837991310482766020841689, -118), (10961094854298549240871987549415162603, -121)),
        ((96046179188587296756367872463228161995, -115), (329476985023209069078162071863942203381, -125)),
    ),
}


# -- the oracle: the context walk the evaluator replaced ----------------------


def _num(ctx, v):
    """`v` in the context `ctx` (`mpmath.mp` or `mpmath.iv`): a Fraction's
    numerator divided by its denominator."""
    if isinstance(v, Fraction):
        return ctx.mpf(v.numerator) if v.denominator == 1 else ctx.mpf(v.numerator) / v.denominator
    return ctx.mpf(v)


def _eval(h, ctx, n):
    """Value of profile h at n in `ctx`: `mpmath.mp` rounds to nearest,
    `mpmath.iv` encloses with directed rounding."""
    exact = h.value(n)
    if exact is not None:
        return _num(ctx, exact)
    k, p = h.kind, h.params
    if k == "power" or k == "exponential":
        a = _num(ctx, p["a"])
        base = ctx.power(n, a) if k == "power" else ctx.power(a, n)
        return _num(ctx, p.get("coeff", 1)) * base + _num(ctx, p.get("shift", 0))
    if k == "sqrt":
        return _num(ctx, p.get("coeff", 1)) * ctx.sqrt(n)
    if k == "log":
        return _num(ctx, p["coeff"]) * ctx.log(n)
    if k == "linear_log":
        return n * ctx.log(_num(ctx, p["a"]))
    if k == "lil":
        return ctx.sqrt(2 * n * ctx.log(ctx.log(n)))
    if k == "affine":
        return _num(ctx, p["a"]) * n + _num(ctx, p.get("b", 0))
    if k == "deviation":
        return n + _num(ctx, p["beta"]) * _eval(p["psi"], ctx, n)
    if k == "index_scaled":
        return (n + p.get("offset", 0)) * _eval(p["u"], ctx, n)
    if k == "exp_of":
        return ctx.exp(_eval(p["inner"], ctx, n))
    if k == "exp_of_scaled":
        return ctx.exp(_eval(p["inner"], ctx, n)) * (1 + _eval(p["psi"], ctx, n) / n)
    assert k == "piecewise", k
    return _eval(h._branch(n), ctx, n)


def _log(h, ctx, n):
    """Natural log of h's value at n in `ctx`, by the same formulas as the
    evaluator's log rows; every oracle row here is positive."""
    k, p = h.kind, h.params
    if k == "exp_of":
        return _eval(p["inner"], ctx, n)
    if k == "exp_of_scaled":
        factor = 1 + _eval(p["psi"], ctx, n) / n
        if not factor <= 0:
            return _eval(p["inner"], ctx, n) + ctx.log(factor)
    if (
        (k == "exponential" or k == "power")
        and p.get("shift", 0) == 0
        and p.get("coeff", 1) > 0
        and (k == "power" or p["a"] > 0)
    ):
        a = _num(ctx, p["a"])
        log_base = n * ctx.log(a) if k == "exponential" else a * ctx.log(n)
        return ctx.log(_num(ctx, p.get("coeff", 1))) + log_base
    if k == "piecewise":
        return _log(h._branch(n), ctx, n)
    if k == "index_scaled" and n + p.get("offset", 0) > 0:
        return ctx.log(n + p.get("offset", 0)) + _log(p["u"], ctx, n)
    exact = h.value(n)
    if exact is not None:
        return ctx.log(ctx.mpf(exact.numerator)) - ctx.log(ctx.mpf(exact.denominator))
    return ctx.log(_eval(h, ctx, n))


@contextmanager
def _iv_at(bits):
    """`mpmath.iv` at `bits`, and `mpmath.mp` at the same precision."""
    iv = mpmath.iv
    old = iv.prec
    iv.prec = bits
    try:
        with mpmath.workprec(bits):
            yield iv
    finally:
        iv.prec = old


def test_every_kind_has_a_case():
    assert set(CASES) == set(_KINDS)
    assert set(PINNED) == set(_KINDS)


@pytest.mark.parametrize("kind", _KINDS)
def test_enclosures_are_the_iv_walk_bit_for_bit(kind):
    for bits in (53, 128, 256, 4096):
        with _iv_at(bits) as iv:
            for profile in CASES[kind]:
                for n in LEVELS:
                    assert profile._row(n, bits) == _eval(profile, iv, n)._mpi_, (profile.label, n, bits)
                    assert profile._log_row(n, bits) == _log(profile, iv, n)._mpi_, (profile.label, n, bits)


@pytest.mark.parametrize("kind", _KINDS)
def test_mp_value_lies_inside_interval_enclosure(kind):
    with _iv_at(128) as iv:
        for profile in CASES[kind]:
            for n in LEVELS:
                enclosure = iv.make_mpf(profile._row(n, 128))
                log_enclosure = iv.make_mpf(profile._log_row(n, 128))
                # the oracle's mp walk lies inside the enclosures ...
                assert _eval(profile, mpmath.mp, n) in enclosure, (profile.label, n)
                # (the log rows compose rounded logs: log 4 as log(1/2) + 3 log 2
                # misses by over an ulp, so the mp log is held to the enclosure
                # of its own formula, and that must meet the log of the value's)
                assert _log(profile, mpmath.mp, n) in log_enclosure, (profile.label, n)
                direct = iv.log(enclosure)
                assert log_enclosure.a <= direct.b and direct.a <= log_enclosure.b, (profile.label, n)
                # ... and the float readers are their lower ends
                assert profile.mp_value(n) == enclosure.a, (profile.label, n)
                assert profile.log_value(n) == log_enclosure.a, (profile.label, n)


@pytest.mark.parametrize("kind", _KINDS)
def test_mp_and_log_bits_pinned(kind):
    # the oracle's mpmath.mp walk: the float formulas the enclosures replaced
    profile = CASES[kind][0]
    with mpmath.workprec(128):
        got = tuple(
            (_eval(profile, mpmath.mp, n).man_exp, _log(profile, mpmath.mp, n).man_exp) for n in PINNED_LEVELS
        )
    assert got == PINNED[kind]


def test_float_affine_has_a_float_path():
    assert affine_profile(0.5, 1).floor(3) == 2


# -- the log rules of scale windows ----------------------------------------------


def _log_of_value(profile, n):
    """log(value) as `_log` took it for every index_scaled row before it read
    u's log: from the exact pair where there is one, else from the mp value."""
    exact = profile.value(n)
    if exact is not None:
        return mpmath.log(exact.numerator) - mpmath.log(exact.denominator)
    return mpmath.log(profile.mp_value(n))


def _close(got, want, bits):
    return abs(got - want) <= mpmath.mpf(2) ** -bits * max(1, abs(want))


@pytest.mark.parametrize("kind", _KINDS)
@given(offset=st.integers(min_value=-1, max_value=40), case=st.integers(min_value=0))
@settings(max_examples=20, deadline=None)
def test_index_scaled_log_matches_the_log_of_its_value(kind, offset, case):
    u = CASES[kind][case % len(CASES[kind])]
    profile = index_scaled_profile(u, offset)
    with mpmath.workprec(128):
        for n in LEVELS:
            assert _close(profile.log_value(n), _log_of_value(profile, n), 120), (u.label, n)


@pytest.mark.parametrize("kind", ["exponential", "exp_of", "lil", "table", "power"])
def test_scale_window_log_delta_is_the_log_of_the_window(kind):
    u = CASES[kind][-1]
    bounds = _scale_windows(u)
    assert bounds._window_scale() is u
    with mpmath.workprec(128):
        for n in LEVELS:
            width = bounds.r.mp_value(n) - bounds.l.mp_value(n)
            # r - l in mpmath.mp rounds (n + 1) u and n u apart first
            assert _close(bounds.log_delta(n), mpmath.log(width), 110), (u.label, n)


def test_only_windows_one_scale_apart_read_the_scale():
    u, twin = sqrt_profile(), sqrt_profile()
    # equal scales that are distinct objects, as from_dict builds them
    assert BoundsProfile(index_scaled_profile(u, 2), index_scaled_profile(twin, 3))._window_scale() is u
    for l, r in [
        (index_scaled_profile(u, 0), index_scaled_profile(u, 2)),
        (index_scaled_profile(u, 0), index_scaled_profile(sqrt_profile(2), 1)),
        (affine_profile(2), affine_profile(2, 2)),
    ]:
        bounds = BoundsProfile(l, r)
        assert bounds._window_scale() is None
        # the log of r - l on the two rows' enclosures, read at its lower end
        with _iv_at(128) as iv:
            assert bounds.log_delta(5) == iv.log(_eval(r, iv, 5) - _eval(l, iv, 5)).a


@pytest.mark.parametrize(
    "profile",
    [
        power_profile(Fraction(1, 2), shift=-1),
        exponential_profile(2.5, coeff=-1),
        # from_dict skips the constructor's a > 0 check
        GrowthProfile.from_dict({"kind": "exponential", "a": "-5/2"}),
        index_scaled_profile(sqrt_profile(), -1),
        index_scaled_profile(sqrt_profile(), -2),
        exp_of_scaled_profile(sqrt_profile(), affine_profile(-2)),
    ],
    ids=[
        "irrational_zero",
        "negative_coeff",
        "negative_base",
        "scaled_zero",
        "scaled_negative",
        "exp_scaled_negative",
    ],
)
def test_log_of_a_non_positive_row_raises(profile):
    with pytest.raises(ProfileError, match="log of non-positive value"):
        profile.log_value(1)


@pytest.mark.parametrize("bits", [53, 128])
def test_a_row_whose_enclosure_meets_zero_takes_no_log(bits):
    # 27^(2/3) - 9 is exactly 0, and its enclosure meets both sides of 0: a
    # float of it once took a log of -85.95 at 128 bits and refused -1.8e-15
    # as negative at 53
    row = power_profile(Fraction(2, 3), shift=-9)
    window = BoundsProfile(power_profile(Fraction(2, 3)), affine_profile(0, 9))
    with mpmath.workprec(bits):
        with pytest.raises(ProfileError, match=f"^sign of the value at n=27 undecided at {bits} bits$"):
            row.log_value(27)
        with pytest.raises(ProfileError, match=f"^sign of the digit window at level 27 undecided at {bits} bits$"):
            window.log_delta(27)


def test_a_fraction_parameter_converts_once_per_question(monkeypatch):
    # a Fraction's conversion is the one division on this path
    calls = Counter()
    original = profiles.mpi_div

    def counting(s, t, prec):
        calls[prec] += 1
        return original(s, t, prec)

    monkeypatch.setattr(profiles, "mpi_div", counting)
    bounds = _scale_windows(exp_of_profile(sqrt_profile(Fraction(65, 64))))
    with profiles._question(), mpmath.workprec(128):
        for n in range(1, 30):
            bounds.log_delta(n)
            bounds.l.log_value(n)
            bounds.digit_range(n)
    # the logs and the floors read one enclosure per row at 128 bits: one division
    assert calls == Counter({128: 1})
    calls.clear()
    bounds.l.log_value(3)
    bounds.l.log_value(3)
    assert calls == Counter({53: 2})  # no question, no cache


def test_a_wide_int_converts_rounded_at_once():
    # 2^(10^7), as a floor rounded to 128 bits is, once converted exactly and
    # then stripped its ten million trailing zero bits a shift at a time;
    # 3 * 2^(10^6) + 1 rounds to a pair of two ends
    for v in (1 << 10**7, (3 << 10**6) + 1):
        with _iv_at(128) as iv:
            assert _enclose(v, 128) == iv.mpf(v)._mpi_


# -- digit ranges of scale windows ------------------------------------------------

# exact and irrational scales; exp(29 + n) passes 2^53 at n = 8 and is e^60,
# whose floor depends on mpmath.mp.prec, at n = 31
RANGE_SCALES = (
    exponential_profile(3, coeff=2),
    exponential_profile(Fraction(5, 2), coeff=Fraction(1, 3)),
    power_profile(3, coeff=Fraction(1, 2)),
    table_profile([Fraction(k * k + 1, 3) for k in range(1, 61)]),
    sqrt_profile(Fraction(3, 2)),
    lil_profile(),
    exp_of_profile(sqrt_profile()),
    exp_of_profile(table_profile(range(30, 90))),
)


@given(
    u=st.sampled_from(RANGE_SCALES),
    offset=st.integers(min_value=0, max_value=40),
    n=st.integers(min_value=1, max_value=60),
    prec=st.sampled_from([53, 128]),
)
@example(u=RANGE_SCALES[-1], offset=0, n=31, prec=53)
@example(u=RANGE_SCALES[-1], offset=0, n=31, prec=128)
@settings(max_examples=150, deadline=None)
def test_a_scale_window_range_is_the_floors_of_l_and_r(u, offset, n, prec):
    # the oracle floors l's and r's own enclosures from the mpmath.iv walk;
    # exact rows floor their exact value
    bounds = BoundsProfile(index_scaled_profile(u, offset), index_scaled_profile(u, offset + 1))
    assert bounds._window_scale() is u
    with mpmath.workprec(prec):
        want = [
            math.floor(h.value(n)) if h.value(n) is not None else certified_floor(lambda iv, h=h: _eval(h, iv, n))
            for h in (bounds.l, bounds.r)
        ]
        assert bounds.digit_range(n) == (want[0] + 1, want[1])


# exact and transcendental scales for index_scaled floors; no row here is an
# exact algebraic tie, which would cost two escalations to the ceiling
FLOOR_SCALES = RANGE_SCALES[:3] + (
    lil_profile(),
    log_profile(2),
    linear_log_profile(3),
    exp_of_profile(sqrt_profile()),
    exp_of_profile(table_profile(range(30, 90))),
)


@pytest.mark.parametrize("prec", [53, 128])
def test_an_index_scaled_floor_is_the_floor_of_its_enclosure(monkeypatch, prec):
    # certified_floor of the row's own enclosure from the mpmath.iv walk is the
    # oracle of the escalation over u's enclosure; exact rows floor their value
    walks, original = Counter(), GrowthProfile._eval

    def counting(self, n, bits):
        walks[self.kind] += 1
        return original(self, n, bits)

    # n + offset <= 0 on the first rows of the negative offsets
    cases = [
        (index_scaled_profile(u, offset), n)
        for u in FLOOR_SCALES
        for offset in range(-4, 4)
        for n in [*range(u.min_index, 13), 31, 60]
    ]
    with mpmath.workprec(prec):
        monkeypatch.setattr(GrowthProfile, "_eval", counting)
        floors = [row.floor(n) for row, n in cases]
        monkeypatch.undo()
        # no floor built an enclosure of an index_scaled row
        assert walks["index_scaled"] == 0 and walks["exp_of"] > 0
        for (row, n), got in zip(cases, floors):
            exact = row.value(n)
            want = certified_floor(lambda iv: _eval(row, iv, n)) if exact is None else math.floor(exact)
            assert got == want, (row.params["u"].label, row.params["offset"], n)


def test_an_undecided_scale_row_escalates_once_for_both_floors(monkeypatch):
    # 3 u(3) = 7 + 3 * 2^-150: the 128-bit enclosure straddles 7, the 256-bit
    # one decides both floor(3 u) = 7 and floor(4 u) = 9
    u = sqrt_profile(label="scripted")
    builds, original = [], GrowthProfile._eval

    def scripted(self, n, prec):
        if self.label != "scripted":
            return original(self, n, prec)
        builds.append(prec)
        frac = prec - 16
        lo = math.floor((Fraction(7, 3) + Fraction(1, 2**150)) * 2**frac)
        return mpf_shift(from_int(lo - 1), -frac), mpf_shift(from_int(lo + 1), -frac)

    monkeypatch.setattr(GrowthProfile, "_eval", scripted)
    bounds = _scale_windows(u)
    # inside a question, r's floor reads the enclosures that l's floor stored
    with profiles._question():
        assert bounds.digit_range(3) == (8, 9)
    assert builds == [128, 256]
    # outside one, r's floor reads u again
    builds.clear()
    assert bounds.digit_range(3) == (8, 9)
    assert builds == [128, 256, 128]


def test_an_index_scaled_row_starts_where_its_scale_does():
    row = index_scaled_profile(log_profile(2), 0)
    assert row.min_index == 2
    assert GrowthProfile.from_dict(row.to_dict()).min_index == 2
    with pytest.raises(ProfileError, match=r"profile \(n\+0\)\*u\(n\) starts at n=2, got 1"):
        row.floor(1)
    # the range path checks l's index before it reads u
    with pytest.raises(ProfileError, match=r"profile n\*u\(n\) starts at n=2, got 1"):
        _scale_windows(log_profile(2)).digit_range(1)
