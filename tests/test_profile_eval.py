"""The one profile evaluator over `mpmath.mp` and `mpmath.iv`: every kind's
float value lies inside its interval enclosure, and its bits are pinned."""

from fractions import Fraction

import mpmath
import pytest

from piercelib.profiles import (
    _KINDS,
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
    "affine": (affine_profile(Fraction(1, 3), 2),),
    "index_scaled": (index_scaled_profile(sqrt_profile(), 1),),
    "exp_of": (exp_of_profile(sqrt_profile()),),
    "exp_of_scaled": (exp_of_scaled_profile(deviation_profile(1, lil_profile()), lil_profile()),),
    "piecewise": (piecewise_profile(3, affine_profile(2), exp_of_profile(sqrt_profile())),),
}

LEVELS = (2, 3, 17, 60)
PINNED_LEVELS = (3, 17, 60)

# (mp_value, log_value) at 128 bits as (signed mantissa, exponent) pairs, for
# the first instance of each kind at n = 3, 17, 60.  They guard the bits that a
# float tolerance would let through.
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
        ((294693174213430241384087455685767077317, -125), (329325360704616711038817688929272190429, -127)),
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


@pytest.fixture
def iv128():
    iv = mpmath.iv
    old = iv.prec
    iv.prec = 128
    try:
        with mpmath.workprec(128):
            yield iv
    finally:
        iv.prec = old


def test_every_kind_has_a_case():
    assert set(CASES) == set(_KINDS)
    assert set(PINNED) == set(_KINDS)


@pytest.mark.parametrize("kind", _KINDS)
def test_mp_value_lies_inside_interval_enclosure(kind, iv128):
    for profile in CASES[kind]:
        for n in LEVELS:
            enclosure = profile.iv_value(n, iv128)
            assert profile.mp_value(n) in enclosure, (profile.label, n)
            # log_value composes rounded logs (log 4 as log(1/2) + 3 log 2
            # misses by over an ulp), so it is held to the interval run of its
            # own formula, and that run must meet the log of the enclosure
            log_enclosure = profile._log(iv128, n)
            assert profile.log_value(n) in log_enclosure, (profile.label, n)
            direct = iv128.log(enclosure)
            assert log_enclosure.a <= direct.b and direct.a <= log_enclosure.b, (profile.label, n)


@pytest.mark.parametrize("kind", _KINDS)
def test_mp_and_log_bits_pinned(kind, iv128):
    profile = CASES[kind][0]
    got = tuple(
        (profile.mp_value(n).man_exp, profile.log_value(n).man_exp) for n in PINNED_LEVELS
    )
    assert got == PINNED[kind]
