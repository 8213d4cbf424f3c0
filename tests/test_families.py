"""Set specifications, constrained word counting, membership, emptiness."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelib.expansion import is_admissible
from piercelib.families import (
    FAMILIES,
    EnumerationCapError,
    SetSpec,
    count_constrained_words,
    emptiness_check,
    enumerate_constrained_words,
    membership,
)
from piercelib.laws import child_seed, lil_stat, lln_stat, sample_digits
from piercelib.profiles import (
    BoundsProfile,
    GrowthProfile,
    _scale_windows,
    affine_profile,
    bounds_from_scale,
    builtin_profiles,
    exp_of_profile,
    exponential_profile,
    index_scaled_profile,
    lil_profile,
    linear_log_profile,
    log_profile,
    power_profile,
    sqrt_profile,
    table_profile,
)

EVEN = BoundsProfile(l=affine_profile(2), r=affine_profile(2, 2), threshold=0)


def _geometric_word(base: int, n: int) -> tuple[int, ...]:
    return tuple(base**k for k in range(1, n + 1))


def test_family_tags():
    assert set(FAMILIES) == {
        "E_phi",
        "A_alpha",
        "A_kappa",
        "B_alpha",
        "B_kappa",
        "F_alpha",
        "C_psi_beta",
        "E_alpha_beta",
        "L_beta",
        "E_bounds",
        "E_star",
        "S_generic",
    }


def test_spec_validation():
    with pytest.raises(ValueError):
        SetSpec("no_such_family", {})
    with pytest.raises(ValueError):
        SetSpec("F_alpha", {})
    spec = SetSpec("F_alpha", {"alpha": 2})
    assert "F_alpha" in spec.describe()
    for family, params in [
        ("F_alpha", {"alpha": "x"}),
        ("A_alpha", {"alpha": True}),
        ("A_alpha", {"alpha": math.nan}),
        ("B_kappa", {"kappa": None}),
        ("A_kappa", {"kappa": "abc"}),
        ("E_alpha_beta", {"alpha": 1, "beta": [1]}),
        ("E_phi", {"profile": "log2"}),
        ("S_generic", {"m": 1, "h1": affine_profile(2), "h2": 3}),
        ("S_generic", {"m": 1, "h1": affine_profile(2), "h2": affine_profile(1), "h3": 4}),
        ("E_bounds", {"bounds": affine_profile(2)}),
    ]:
        with pytest.raises(ValueError, match="parameter"):
            SetSpec(family, params)
    for alpha in (2, Fraction(3, 2), 0.5, math.inf, -math.inf):
        assert SetSpec("E_alpha_beta", {"alpha": alpha, "beta": alpha}).params["alpha"] == alpha


def test_spec_round_trip():
    specs = [
        SetSpec("F_alpha", {"alpha": Fraction(3, 2)}),
        SetSpec("A_kappa", {"kappa": math.inf}),
        SetSpec("E_phi", {"profile": log_profile(2)}),
        SetSpec("E_bounds", {"bounds": EVEN}),
        SetSpec("C_psi_beta", {"psi": lil_profile(), "beta": -1}),
    ]
    for spec in specs:
        again = SetSpec.from_dict(spec.to_dict())
        assert again.family == spec.family
        assert again.describe() == spec.describe()


def test_count_equals_enumeration_even():
    for n in range(1, 6):
        words = enumerate_constrained_words(n, EVEN)
        assert len(words) == count_constrained_words(n, EVEN) == 2**n


def test_enumerated_words_respect_windows():
    for word in enumerate_constrained_words(3, EVEN):
        assert all(EVEN.contains(k, d) for k, d in enumerate(word, start=1))
        assert all(a < b for a, b in zip(word, word[1:]))


def test_enumeration_cap():
    # 10*3^n < d_n <= 20*3^n: wide windows that do not overlap
    wide = BoundsProfile(l=exponential_profile(3, 10), r=exponential_profile(3, 20), threshold=0)
    assert count_constrained_words(6, wide) == math.prod(10 * 3**k for k in range(1, 7))
    with pytest.raises(EnumerationCapError):
        enumerate_constrained_words(6, wide, cap=100)


def test_overlapping_windows_rejected():
    flat = BoundsProfile(
        l=table_profile([1, 1, 9]), r=table_profile([3, 3, 10]), threshold=0
    )
    with pytest.raises(ValueError):
        enumerate_constrained_words(2, flat)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_count_matches_enumeration_random_profiles(seed):
    rng = random.Random(seed)
    depth = rng.randint(1, 4)
    lo, ls, rs = [], 0, 0
    l_vals, r_vals = [], []
    prev_r = 0
    for _ in range(depth):
        l = prev_r + rng.randint(0, 3)
        r = l + rng.randint(1, 4)
        l_vals.append(l)
        r_vals.append(r)
        prev_r = r
    bounds = BoundsProfile(
        l=table_profile([Fraction(v) for v in l_vals]),
        r=table_profile([Fraction(v) for v in r_vals]),
        threshold=0,
    )
    count = count_constrained_words(depth, bounds)
    if count > 10_000:
        return
    assert count == len(enumerate_constrained_words(depth, bounds))


@st.composite
def _table_bounds(draw, ordered=True):
    """Table windows of up to 8 levels; `ordered` ones start each level at or
    above the previous top, l_{k+1} >= r_k, so no two windows overlap."""
    n = draw(st.integers(1, 8))
    cell = st.fractions(min_value=0, max_value=40, max_denominator=3)
    step = st.fractions(min_value=0, max_value=6, max_denominator=3)
    l, r = [], []
    for _ in range(n):
        l.append(r[-1] + draw(step) if ordered and r else draw(cell))
        r.append(l[-1] + draw(step))
    return BoundsProfile(l=table_profile(l), r=table_profile(r)), n


@settings(max_examples=80, deadline=None)
@given(_table_bounds())
def test_count_is_the_plain_product_of_branch_counts(case):
    bounds, n = case
    rows = zip(bounds.l.params["values"], bounds.r.params["values"])
    assert count_constrained_words(n, bounds) == math.prod(
        max(0, math.floor(r) - math.floor(l)) for l, r in rows
    )


def _increasing_words(ranges):
    """Number of strictly increasing positive words with d_k in ranges[k],
    by dynamic programming over the last digit."""
    ends = {0: 1}
    for lo, hi in ranges:
        ends = {d: sum(c for e, c in ends.items() if e < d) for d in range(lo, hi + 1)}
    return sum(ends.values())


@settings(max_examples=80, deadline=None)
@given(_table_bounds(ordered=False))
def test_count_is_exact_or_refuses_overlapping_windows(case):
    bounds, n = case
    ranges = [bounds.digit_range(k) for k in range(1, n + 1)]
    # an empty window ends the count, so only the windows before it are compared
    opened = list(itertools.takewhile(lambda r: r[0] <= r[1], ranges))
    if any(a[1] >= b[0] for a, b in zip(opened, opened[1:])):
        with pytest.raises(ValueError, match="digit windows overlap between levels"):
            count_constrained_words(n, bounds)
    else:
        assert count_constrained_words(n, bounds) == _increasing_words(ranges)


def test_count_refuses_overlapping_linear_windows():
    # n < d_n <= 3n: the plain product would be 48, 3 840 and 645 120
    bounds = BoundsProfile(l=affine_profile(1), r=affine_profile(3), threshold=0)
    for n, true_count in ((3, 30), (5, 728), (7, 21_318)):
        ranges = [bounds.digit_range(k) for k in range(1, n + 1)]
        assert _increasing_words(ranges) == true_count
        with pytest.raises(ValueError, match="between levels 1 and 2: top digit 3 >= bottom digit 3"):
            count_constrained_words(n, bounds)
        with pytest.raises(ValueError, match="overlap"):
            enumerate_constrained_words(n, bounds)


def test_a_closed_window_ends_the_count_and_the_enumeration():
    # level 2's window (5, 5] is empty, so neither call reads level 6 of the
    # 5-row tables
    bounds = BoundsProfile(l=table_profile([1, 5, 9, 20, 30]), r=table_profile([3, 5, 19, 25, 40]))
    assert count_constrained_words(7, bounds) == 0
    assert enumerate_constrained_words(7, bounds) == []


def test_windows_wider_than_two_to_the_63_are_counted():
    # 10*2^(64n) < d_n <= 20*2^(64n): each range is too long for len()
    wide = BoundsProfile(l=exponential_profile(2**64, 10), r=exponential_profile(2**64, 20))
    assert count_constrained_words(2, wide) == 10 * 2**64 * 10 * 2**128
    with pytest.raises(EnumerationCapError):
        enumerate_constrained_words(2, wide)


def test_count_reads_each_floor_once_per_call(monkeypatch):
    bounds = BoundsProfile(l=table_profile([1, 3, 9, 20]), r=table_profile([2, 8, 19, 41]))
    reads = Counter()
    original = GrowthProfile.floor

    def counting(self, n):
        reads[("l" if self is bounds.l else "r", n)] += 1
        return original(self, n)

    monkeypatch.setattr(GrowthProfile, "floor", counting)
    assert count_constrained_words(4, bounds) == 1 * 5 * 10 * 21
    assert reads == Counter((side, n) for side in "lr" for n in range(1, 5))
    # the memo lives for one call: a second count reads its rows again
    assert count_constrained_words(4, bounds) == 1050
    assert set(reads.values()) == {2}


def test_membership_prefix_duality():
    spec = SetSpec("E_bounds", {"bounds": EVEN})
    for n in (1, 2, 3):
        enumerated = set(enumerate_constrained_words(n, EVEN))
        for word in enumerated:
            assert membership(spec, word, n).satisfied_so_far
        outside = (max(w[-1] for w in enumerated) + 5,)
        assert membership(spec, outside, 1).violated


def test_membership_a_kappa():
    spec = SetSpec("A_kappa", {"kappa": 1})
    violated = membership(spec, (1, 2, 3), 3)
    assert violated.violated  # log 1 = 0 < 1
    word = _geometric_word(3, 6)
    ok = membership(spec, word, 6)
    assert ok.satisfied_so_far and not ok.violated
    assert membership(SetSpec("A_kappa", {"kappa": 0}), (1, 2, 3), 3).satisfied_so_far
    assert membership(SetSpec("A_kappa", {"kappa": math.inf}), word, 6).violated


def test_membership_b_kappa():
    spec = SetSpec("B_kappa", {"kappa": 1})
    assert membership(spec, (2, 3), 2).violated  # 3/2 > 1
    roomy = SetSpec("B_kappa", {"kappa": 4})
    assert membership(roomy, _geometric_word(3, 5), 5).satisfied_so_far


def test_membership_e_star():
    u = builtin_profiles()["scale_geometric3"]
    spec = SetSpec("E_star", {"u": u})
    bounds = bounds_from_scale(u, window=32)
    word = tuple(bounds.digit_range(n)[0] for n in range(1, 5))
    assert membership(spec, word, 4).satisfied_so_far
    assert membership(spec, (1, 2, 3), 3).violated


def _scale_window_loop(u, word):
    """The E_star loop that membership ran before it read the windows of
    bounds_from_scale: a differential oracle for them."""
    lower = index_scaled_profile(u, 0)
    upper = index_scaled_profile(u, 1)
    for n, d in enumerate(word, start=1):
        lo = lower.floor(n)
        hi = upper.floor(n)
        if not (lo + 1 <= d <= hi):
            return False, True, None, f"d_{n} = {d} outside scale window {lo + 1}..{hi}"
    return True, False, None, f"inside scale windows up to n={len(word)}"


@pytest.mark.parametrize(
    "u",
    [
        builtin_profiles()["scale_geometric3"],
        builtin_profiles()["scale_exp_sqrt"],
        table_profile([2, Fraction(5, 2), 3, 3, 5, Fraction(17, 2), 13, 13]),
    ],
    ids=["geometric3", "exp_sqrt", "table"],
)
def test_e_star_membership_matches_the_scale_window_loop(u):
    # words of window bottoms, ending at or just beyond either end of the
    # last window; only the wording of the detail changes
    spec = SetSpec("E_star", {"u": u})
    windows = [bounds_from_scale(u, window=7).digit_range(n) for n in range(1, 9)]
    for depth in range(1, 9):
        prefix = tuple(lo for lo, _ in windows[: depth - 1])
        lo, hi = windows[depth - 1]
        for last in (lo - 1, lo, hi, hi + 1):
            word = prefix + (last,)
            if not is_admissible(word):
                continue
            ok, violated, estimate, detail = _scale_window_loop(u, word)
            result = membership(spec, word, depth)
            assert (result.satisfied_so_far, result.violated, result.estimate) == (
                ok,
                violated,
                estimate,
            )
            assert result.detail == detail.replace("scale window", "window")


def test_membership_s_generic_pinch():
    # h1(t) = (alpha - eps) t < d_{n+1} <= (alpha + eps) t reproduces the
    # ratio-window family for alpha = 3, eps = 1
    spec = SetSpec(
        "S_generic",
        {"m": 1, "h1": affine_profile(2), "h2": affine_profile(1), "h3": affine_profile(4)},
    )
    assert membership(spec, _geometric_word(3, 5), 5).satisfied_so_far
    assert membership(spec, (1, 2, 3), 3).violated  # 2 <= 2*1 fails strictness
    assert membership(spec, (1, 5), 2).violated  # 5 > 4*1


def test_membership_s_generic_undecided_tie():
    # h1(1) = exp(log 2) ties h2(2) = 2 exactly, which no enclosure can decide
    spec = SetSpec(
        "S_generic",
        {"m": 1, "h1": exp_of_profile(linear_log_profile(2)), "h2": affine_profile(1)},
    )
    result = membership(spec, (1, 2), 2)
    assert not result.satisfied_so_far and not result.violated
    assert "undecided" in result.detail


def test_membership_reports_an_undecided_window_floor():
    # n u(n) = 9 * (7/3) * 3 = 63 exactly at n = 9, which no enclosure of
    # sqrt(9) can floor
    u = sqrt_profile(Fraction(7, 3))
    word = (4, 8, 14, 20, 28, 36, 45, 54, 64)
    for spec in (SetSpec("E_star", {"u": u}), SetSpec("E_bounds", {"bounds": _scale_windows(u)})):
        assert membership(spec, word, 8).satisfied_so_far
        result = membership(spec, word, 9)
        assert (result.satisfied_so_far, result.violated, result.estimate) == (False, False, None)
        assert result.detail == "window floor at level 9 undecided"


def test_membership_growth_and_deviation_estimates():
    word = (4, 8, 14, 20, 28, 36, 45, 54, 64)
    log_d = math.log(64)
    est = membership(SetSpec("E_phi", {"profile": log_profile(2)}), word, 9)
    assert est.estimate == pytest.approx(log_d / (2 * math.log(9)), rel=1e-15)
    assert (est.satisfied_so_far, est.violated, est.detail) == (True, False, "log d_n / phi(n) at n=9")
    # a stated gamma below 1 proves the family empty
    est = membership(SetSpec("E_phi", {"profile": log_profile(Fraction(1, 2))}), word, 9)
    assert est.violated and not est.satisfied_so_far
    assert est.detail == "log d_n / phi(n) at n=9; family empty: stated gamma = 0.5 < 1"
    est = membership(SetSpec("C_psi_beta", {"psi": sqrt_profile(), "beta": 1}), word, 9)
    assert est.estimate == pytest.approx((log_d - 9) / 3, rel=1e-15)
    assert (est.satisfied_so_far, est.violated, est.detail) == (True, False, "(log d_n - n)/psi(n) at n=9")
    est = membership(SetSpec("E_alpha_beta", {"alpha": 2, "beta": 1}), word, 9)
    assert est.estimate == pytest.approx((log_d - 9) / 81, rel=1e-15)
    assert not est.violated
    empty = membership(SetSpec("E_alpha_beta", {"alpha": 2, "beta": -1}), word, 9)
    assert empty.violated
    assert empty.detail == "(log d_n - n)/n^alpha at n=9; family empty: alpha = 2 > 1 with beta < 0"


def test_membership_limit_families():
    doubling = tuple(2 ** (2**k) for k in range(1, 5))  # log d_{n+1}/log d_n = 2
    est = membership(SetSpec("F_alpha", {"alpha": 2}), doubling, 4)
    assert est.estimate == pytest.approx(2.0)
    assert not est.violated
    geo = _geometric_word(3, 6)
    est = membership(SetSpec("B_alpha", {"alpha": 3}), geo, 6)
    assert est.estimate == pytest.approx(3.0)
    est = membership(SetSpec("A_alpha", {"alpha": 3}), geo, 6)
    assert est.estimate == pytest.approx(3.0)
    empty = membership(SetSpec("A_alpha", {"alpha": 0.5}), geo, 6)
    assert empty.violated
    # A_alpha and L_beta read the law statistics themselves, bit for bit
    for i in range(20):
        word = sample_digits(child_seed(5, i), 40)
        for h in (3, 17, 40):
            a_alpha = membership(SetSpec("A_alpha", {"alpha": 1}), word, h).estimate
            l_beta = membership(SetSpec("L_beta", {"beta": 1}), word, h).estimate
            assert a_alpha == math.exp(lln_stat(word, h))
            assert l_beta == lil_stat(word, h)


def test_membership_horizon_validation():
    spec = SetSpec("F_alpha", {"alpha": 2})
    with pytest.raises(ValueError):
        membership(spec, (2, 3), 5)
    with pytest.raises(ValueError):
        membership(spec, (3, 2), 2)
    # L_beta's own horizon message comes before lil_stat's
    with pytest.raises(ValueError, match="L_beta estimate needs horizon >= 3"):
        membership(SetSpec("L_beta", {"beta": 1}), (2, 3), 2)


def test_emptiness_growth_families():
    assert emptiness_check(SetSpec("A_alpha", {"alpha": 0.5})).empty
    assert emptiness_check(SetSpec("B_alpha", {"alpha": 0.25})).empty
    assert emptiness_check(SetSpec("F_alpha", {"alpha": 0.5})).empty
    assert emptiness_check(SetSpec("B_kappa", {"kappa": 1})).empty
    assert not emptiness_check(SetSpec("F_alpha", {"alpha": 2})).empty
    assert not emptiness_check(SetSpec("A_kappa", {"kappa": 5})).empty
    # every digit is finite, so membership fails at d_1
    inf_kappa = SetSpec("A_kappa", {"kappa": math.inf})
    assert emptiness_check(inf_kappa).empty and emptiness_check(inf_kappa).status == "proven"


def test_emptiness_deviation_region():
    assert emptiness_check(SetSpec("E_alpha_beta", {"alpha": 2, "beta": -1})).empty
    assert emptiness_check(SetSpec("E_alpha_beta", {"alpha": 1, "beta": -2})).empty
    assert not emptiness_check(SetSpec("E_alpha_beta", {"alpha": 1, "beta": -1})).empty
    assert not emptiness_check(SetSpec("E_alpha_beta", {"alpha": 0.5, "beta": -9})).empty


def test_emptiness_slow_log_growth():
    slow = emptiness_check(SetSpec("E_phi", {"profile": log_profile(Fraction(1, 2))}))
    assert slow.empty and slow.status == "proven"
    fast = emptiness_check(SetSpec("E_phi", {"profile": power_profile(2)}), window=512)
    assert not fast.empty


def test_emptiness_closing_window():
    closing = BoundsProfile(
        l=table_profile([2, 10]), r=table_profile([4, 10]), threshold=0
    )
    result = emptiness_check(SetSpec("E_bounds", {"bounds": closing}), window=16)
    assert result.empty


def test_window_membership_matches_count_zero():
    closing = BoundsProfile(
        l=table_profile([2, 10]), r=table_profile([4, 10]), threshold=0
    )
    assert count_constrained_words(2, closing) == 0
