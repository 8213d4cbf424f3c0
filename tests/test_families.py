"""Set specifications, constrained word counting, membership, emptiness."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelib.families import (
    FAMILIES,
    EnumerationCapError,
    SetSpec,
    count_constrained_words,
    emptiness_check,
    enumerate_constrained_words,
    membership,
)
from piercelib.profiles import (
    BoundsProfile,
    GrowthProfile,
    affine_profile,
    bounds_from_scale,
    builtin_profiles,
    exp_of_profile,
    exponential_profile,
    lil_profile,
    linear_log_profile,
    log_profile,
    power_profile,
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
    wide = BoundsProfile(l=affine_profile(10), r=affine_profile(20), threshold=0)
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
def _table_bounds(draw):
    n = draw(st.integers(1, 8))
    cell = st.fractions(min_value=0, max_value=40, max_denominator=3)
    l = [draw(cell) for _ in range(n)]
    r = [v + draw(st.fractions(min_value=0, max_value=6, max_denominator=3)) for v in l]
    return BoundsProfile(l=table_profile(l), r=table_profile(r)), n


@settings(max_examples=80, deadline=None)
@given(_table_bounds())
def test_count_is_the_plain_product_of_branch_counts(case):
    bounds, n = case
    rows = zip(bounds.l.params["values"], bounds.r.params["values"])
    assert count_constrained_words(n, bounds) == math.prod(
        max(0, math.floor(r) - math.floor(l)) for l, r in rows
    )


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


def test_membership_horizon_validation():
    spec = SetSpec("F_alpha", {"alpha": 2})
    with pytest.raises(ValueError):
        membership(spec, (2, 3), 5)
    with pytest.raises(ValueError):
        membership(spec, (3, 2), 2)
    with pytest.raises(ValueError):
        membership(SetSpec("L_beta", {"beta": 1}), (2, 3), 2)  # needs n >= 3


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
