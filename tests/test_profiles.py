"""Growth profiles, bounds profiles, and splice-threshold search."""

import ast
import json
import math
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piercelib
from piercelib import cli, profiles
from piercelib._precision import PrecisionError, certified_floor, certified_sign
from piercelib.families import count_constrained_words, enumerate_constrained_words
from piercelib.profiles import (
    DEFAULT_WINDOW,
    _decode,
    _encode,
    _nondecreasing,
    _scan_scale,
    BoundsProfile,
    GrowthProfile,
    ProfileError,
    ThresholdNotFound,
    affine_profile,
    bounds_from_scale,
    builtin_profiles,
    certified_compare,
    check_deviation_scale,
    deviation_bounds,
    deviation_profile,
    exp_of_profile,
    exponential_profile,
    find_threshold,
    index_scaled_profile,
    lil_profile,
    linear_log_profile,
    log_profile,
    oscillating_ratio_word,
    piecewise_profile,
    power_profile,
    sqrt_profile,
    table_profile,
)

# u(n) = 2^n computed as exp(n log 2): every finite enclosure of u(1) straddles 2
TWO_POW_THROUGH_EXP = exp_of_profile(linear_log_profile(2))


def test_builtin_catalog():
    catalog = builtin_profiles()
    for name in (
        "sqrt",
        "linear_log3",
        "square",
        "geometric3",
        "half_cube",
        "log2",
        "scale_geometric3",
        "scale_exp_sqrt",
        "scale_exp_square",
        "lil",
    ):
        assert name in catalog


def test_profile_values_exact():
    assert builtin_profiles()["geometric3"].value(4) == 81
    assert builtin_profiles()["square"].value(7) == 49
    assert builtin_profiles()["scale_geometric3"].value(3) == 54
    assert power_profile(3, coeff=Fraction(1, 2)).value(4) == 32
    assert affine_profile(2, 2).value(5) == 12


def test_log_profile_needs_n_at_least_two():
    p = log_profile(2)
    with pytest.raises(ProfileError):
        p.mp_value(1)
    assert float(p.mp_value(2)) == pytest.approx(2 * math.log(2))


def test_sqrt_profile_floor_certified():
    p = sqrt_profile()
    assert p.floor(4) == 2
    assert p.floor(99) == 9
    assert p.floor(100) == 10


# -- exact row oracle -----------------------------------------------------------
# The Fraction-arithmetic row evaluation that the integer pairs (`_ratio`)
# replaced, frozen as the reference for `value` and `floor`.


def _oracle_exact(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    return None


def _oracle_value(profile, n):
    profile._check_index(n)
    k, p = profile.kind, profile.params
    if k == "power" or k == "exponential":
        a = _oracle_exact(p["a"])
        coeff, shift = _oracle_exact(p.get("coeff", 1)), _oracle_exact(p.get("shift", 0))
        if a is None or coeff is None or shift is None:
            return None
        if k == "exponential":
            return coeff * a**n + shift
        if a.denominator != 1 or a < 0:
            return None
        return coeff * Fraction(n) ** int(a) + shift
    if k == "table":
        values = p["values"]
        if n > len(values):
            raise ProfileError(f"profile {profile.label or profile.kind} has {len(values)} rows, no row {n}")
        return Fraction(values[n - 1])
    if k == "affine":
        a, b = _oracle_exact(p["a"]), _oracle_exact(p.get("b", 0))
        if a is None or b is None:
            return None
        return a * n + b
    if k == "deviation":
        beta = _oracle_exact(p["beta"])
        inner = _oracle_value(p["psi"], n)
        if beta is None or inner is None:
            return None
        return n + beta * inner
    if k == "index_scaled":
        u = _oracle_value(p["u"], n)
        if u is None:
            return None
        return (n + p.get("offset", 0)) * u
    if k == "piecewise":
        return _oracle_value(profile._branch(n), n)
    if k == "lil" and n <= 2:
        return Fraction(n)
    return None


def _assert_row_matches_oracle(profile, n):
    want = _oracle_value(profile, n)
    got = profile.value(n)
    assert got == want
    assert type(got) is type(want)
    pair = profile._ratio(n)
    assert (pair is None) == (want is None)
    if want is not None:
        assert pair[1] > 0
        assert profile.floor(n) == want.numerator // want.denominator


def test_builtin_rows_match_fraction_oracle():
    for profile in builtin_profiles().values():
        for n in range(profile.min_index, 40):
            _assert_row_matches_oracle(profile, n)


fractions_20 = st.fractions(min_value=-20, max_value=20, max_denominator=60)
positive_fractions = st.fractions(min_value=Fraction(1, 60), max_value=6, max_denominator=60)
# each exact kind, plus parameters and kinds with no exact row (None)
leaf_profiles = st.one_of(
    st.builds(power_profile, st.integers(min_value=0, max_value=6), fractions_20, fractions_20),
    st.builds(power_profile, fractions_20 | st.floats(0.5, 3), fractions_20, fractions_20 | st.floats(-2, 2)),
    st.builds(exponential_profile, positive_fractions, fractions_20, fractions_20),
    st.builds(exponential_profile, st.floats(0.5, 3), fractions_20 | st.floats(0.5, 3), fractions_20),
    st.builds(table_profile, st.lists(fractions_20, min_size=12, max_size=12)),
    st.builds(affine_profile, fractions_20 | st.floats(-3, 3), fractions_20),
    st.just(lil_profile()),
    st.just(sqrt_profile()),
)
exact_kind_profiles = st.recursive(
    leaf_profiles,
    lambda inner: st.one_of(
        st.builds(deviation_profile, fractions_20 | st.floats(-2, 2), inner),
        st.builds(index_scaled_profile, inner, st.integers(min_value=0, max_value=3)),
        st.builds(piecewise_profile, st.integers(min_value=1, max_value=8), inner, inner),
    ),
    max_leaves=4,
)


@given(exact_kind_profiles, st.integers(min_value=1, max_value=12))
@settings(max_examples=300, deadline=None)
def test_exact_rows_match_fraction_oracle(profile, n):
    _assert_row_matches_oracle(profile, n)


def test_profile_dict_round_trip():
    for p in builtin_profiles().values():
        q = GrowthProfile.from_dict(p.to_dict())
        assert q.kind == p.kind
        assert q.analytic == p.analytic
        for n in (1, 2, 5):
            if n < p.min_index:
                continue
            assert q.value(n) == p.value(n)
    assert json.dumps(builtin_profiles()["half_cube"].to_dict()) == (
        '{"kind": "power", "a": 3, "coeff": "1/2", "shift": 0, '
        '"analytic": {"gamma": "inf", "xi": 0.0}, "label": "half_cube"}'
    )


@given(
    st.one_of(
        st.fractions(),
        st.integers(),
        st.floats(allow_nan=False),
        st.sampled_from([math.inf, -math.inf]),
    )
)
def test_codec_round_trip(v):
    assert _decode(_encode(v)) == v


def test_log_profile_auto_gamma():
    raw = GrowthProfile.from_dict({"kind": "log", "coeff": "1/2"})
    assert raw.analytic["gamma"] == 0.5


def test_bounds_digit_range():
    even = BoundsProfile(l=affine_profile(2), r=affine_profile(2, 2), threshold=0)
    assert even.digit_range(1) == (3, 4)
    assert even.branch_count(1) == 2
    assert even.contains(1, 3) and even.contains(1, 4)
    assert not even.contains(1, 2) and not even.contains(1, 5)


def test_bounds_from_scale_example():
    u = builtin_profiles()["scale_geometric3"]
    bounds = bounds_from_scale(u, window=64)
    assert bounds.digit_range(2) == (37, 54)
    assert bounds.threshold == 0
    assert bounds._window_scale() is u


def test_bounds_from_scale_rejects_small_scale():
    with pytest.raises(ProfileError):
        bounds_from_scale(table_profile([1, 1, 1, 1]), window=3)


def test_table_profile_read_past_its_end_names_the_row():
    table = table_profile([2, 4, 6, 8])
    assert table.value(4) == 8
    for read in (table.value, table.mp_value, table.log_value, table.floor):
        with pytest.raises(ProfileError, match="has 4 rows, no row 5"):
            read(5)


def test_find_threshold_linear():
    even = BoundsProfile(l=affine_profile(2), r=affine_profile(2, 2), threshold=0)
    assert find_threshold(even.l, even.r, 100) == 0


def test_find_threshold_too_tight():
    l, r = affine_profile(1), affine_profile(1, 1)
    with pytest.raises(ThresholdNotFound) as err:
        find_threshold(l, r, 50)
    assert "width" in str(err.value) or "(i)" in str(err.value)
    assert err.value.undecided is False


def test_find_threshold_scale_window():
    u = builtin_profiles()["scale_geometric3"]
    bounds = bounds_from_scale(u, window=64)
    assert find_threshold(bounds.l, bounds.r, 60) == 0


def test_find_threshold_deviation_rows():
    psi = lil_profile()
    for beta, expected in ((-1, 3), (1, 2)):
        rows = deviation_bounds(psi, beta, k_limit=40, window=64)
        assert rows.threshold == expected


def _unshared_find_threshold(l, r, n_limit):
    """`find_threshold` as it was before its rows were shared: every
    comparison reads its rows afresh.  Kept as the oracle for the memoized
    search."""
    if n_limit < 1:
        raise ProfileError("n_limit must be >= 1")
    failures = {}
    for n in range(max(1, l.min_index), n_limit + 1):
        bad = profiles._pair_conditions(l, r, n)
        if bad is not None:
            failures[n] = bad
    last_bad = max(failures) if failures else 0
    start = max(last_bad, l.min_index - 1)
    for k in range(start, n_limit):
        if certified_compare(((1, l, k + 1),), 2 * (k + 1)) not in (0, 1):
            continue
        if k >= 1 and certified_compare(((2, l, k + 1), (-1, r, k + 1)), 1) not in (0, 1):
            continue
        return k
    if failures:
        condition, undecided = failures[last_bad]
        raise ThresholdNotFound(condition, last_bad, n_limit, undecided)
    raise ThresholdNotFound("splice l(K+1) >= 2(K+1)", n_limit, n_limit)


def _threshold_outcome(search, l, r, n_limit):
    try:
        return search(l, r, n_limit)
    except ThresholdNotFound as exc:
        return str(exc), exc.undecided


@st.composite
def _table_rows(draw):
    n_limit = draw(st.integers(1, 8))
    cell = st.fractions(min_value=0, max_value=40, max_denominator=3)
    l = [draw(cell) for _ in range(n_limit + 1)]
    r = [v + draw(st.fractions(min_value=0, max_value=6, max_denominator=3)) for v in l]
    return table_profile(l), table_profile(r), n_limit


@settings(max_examples=80, deadline=None)
@given(_table_rows())
def test_find_threshold_agrees_with_the_unshared_search_on_tables(rows):
    l, r, n_limit = rows
    assert _threshold_outcome(find_threshold, l, r, n_limit) == _threshold_outcome(
        _unshared_find_threshold, l, r, n_limit
    )


@settings(max_examples=12, deadline=None)
@given(beta=st.fractions(min_value=-2, max_value=2, max_denominator=8), n_limit=st.integers(1, 12))
def test_find_threshold_agrees_with_the_unshared_search_on_deviation_rows(beta, n_limit):
    # the rows deviation_bounds searches, on the mpmath.iv path
    psi = lil_profile()
    f = profiles.deviation_profile(beta, psi)
    l, r = exp_of_profile(f), profiles.exp_of_scaled_profile(f, psi)
    assert _threshold_outcome(find_threshold, l, r, n_limit) == _threshold_outcome(
        _unshared_find_threshold, l, r, n_limit
    )


def test_find_threshold_builds_each_enclosure_once(monkeypatch):
    # the enclosures are counted where they are computed: the _eval walks in
    # mpmath.iv on the rows of l and r
    labels = {"exp(n + beta*psi)", "(1+psi/n)*exp(n + beta*psi)"}
    counted = set(labels)
    built = Counter()
    original = GrowthProfile._eval

    def counting(self, ctx, n):
        if ctx is mpmath.iv and self.label in counted:
            built[(self.label, n, ctx.prec)] += 1
        return original(self, ctx, n)

    monkeypatch.setattr(GrowthProfile, "_eval", counting)
    assert deviation_bounds(lil_profile(), 1, k_limit=40, window=64).threshold == 2
    assert {label for label, _, _ in built} == labels
    # rows 1..41 of both profiles, each at one or more precisions
    assert {n for _, n, _ in built} == set(range(1, 42))
    assert set(built.values()) == {1}
    # the rows live for one call: a second search builds its rows again
    built.clear()
    f = profiles.deviation_profile(1, lil_profile())
    l, r = exp_of_profile(f), profiles.exp_of_scaled_profile(f, lil_profile())
    counted = {l.label, r.label}
    assert find_threshold(l, r, 8) == find_threshold(l, r, 8) == 2
    assert {label for label, _, _ in built} == counted
    assert set(built.values()) == {2}


def test_shared_nodes_are_evaluated_once_per_row_and_precision(monkeypatch):
    # f = n + beta*psi(n) sits under exp(f) and exp(f)(1 + psi/n), and psi
    # under f and exp(f)(1 + psi/n): the memo of one question shares them
    walks = Counter()
    original = GrowthProfile._eval

    def counting(self, ctx, n):
        if self.label in ("n + 1*psi(n)", "lil-scale"):
            walks[(self.label, n, ctx is mpmath.iv, ctx.prec)] += 1
        return original(self, ctx, n)

    monkeypatch.setattr(GrowthProfile, "_eval", counting)
    bounds = deviation_bounds(lil_profile(), 1, k_limit=40, window=64)
    assert bounds.threshold == 2
    assert {(label, n, in_iv) for label, n, in_iv, _ in walks} == {
        (label, n, True) for label in ("n + 1*psi(n)", "lil-scale") for n in range(1, 42)
    }
    assert set(walks.values()) == {1}
    # a count over those bounds shares them between its l and r floors, and a
    # second count reads them again
    for _ in range(2):
        walks.clear()
        count_constrained_words(12, bounds)
        assert {(label, n) for label, n, _, _ in walks} == {
            (label, n) for label in ("n + 1*psi(n)", "lil-scale") for n in range(3, 13)
        }
        assert set(walks.values()) == {1}


def test_row_memo_keys_by_precision_and_stores_no_error(monkeypatch):
    reads = Counter()
    original = GrowthProfile._floor

    def counting(self, n):
        reads[n] += 1
        return original(self, n)

    monkeypatch.setattr(GrowthProfile, "_floor", counting)
    # floor(e^60) depends on mpmath.mp.prec (the floor defect pinned by a strict xfail)
    profile = exp_of_profile(table_profile([60]))
    with profiles._question():
        with mpmath.workprec(53):
            low = [profile.floor(1), profile.floor(1)]
        with mpmath.workprec(128):
            high = [profile.floor(1), profile.floor(1)]
        assert low == [114200738981568423454048256] * 2
        assert high == [114200738981568428366295718] * 2
        assert reads[1] == 2
        for _ in range(2):
            with pytest.raises(ProfileError, match="no row 2"):
                profile.floor(2)
        assert reads[2] == 2

    # exp(sqrt 2), its log and its enclosure all change with the precision:
    # one question reads them at 128, 256 and again 128 bits
    profile = exp_of_profile(sqrt_profile())
    iv, old = mpmath.iv, mpmath.iv.prec

    def read_all():
        with mpmath.workprec(iv.prec):
            value = profile.iv_value(2, iv)
            return profile.mp_value(2), profile.log_value(2), value.a, value.b

    try:
        want = {}
        for bits in (128, 256):
            iv.prec = bits
            want[bits] = read_all()
        with profiles._question():
            for bits in (128, 256, 128):
                iv.prec = bits
                assert read_all() == want[bits]
    finally:
        iv.prec = old


EVEN = BoundsProfile(l=affine_profile(2), r=affine_profile(2, 2))
SHORT = BoundsProfile(l=table_profile([2, 4, 6, 8]), r=table_profile([4, 6, 8, 10]))


def _dim_exits(params, code):
    family = "E_star" if "u" in params else "E_bounds"
    spec = json.dumps({"family": family, "params": params})
    assert cli.main(["dim", spec, "--n-max", "6"]) == code


@pytest.mark.parametrize(
    "call,raised",
    [
        pytest.param(lambda: find_threshold(EVEN.l, EVEN.r, 6), None, id="threshold"),
        pytest.param(
            lambda: find_threshold(affine_profile(1), affine_profile(1, 1), 6),
            ThresholdNotFound,
            id="threshold-not-found",
        ),
        pytest.param(lambda: find_threshold(SHORT.l, SHORT.r, 6), ProfileError, id="threshold-short"),
        pytest.param(lambda: count_constrained_words(4, EVEN), None, id="count"),
        pytest.param(lambda: count_constrained_words(6, SHORT), ProfileError, id="count-short"),
        pytest.param(lambda: enumerate_constrained_words(3, EVEN), None, id="enumerate"),
        pytest.param(lambda: enumerate_constrained_words(6, SHORT), ProfileError, id="enumerate-short"),
        pytest.param(
            lambda: _dim_exits({"u": {"kind": "builtin", "name": "scale_geometric3"}}, 0),
            None,
            id="dim",
        ),
        # the document's ProfileError leaves its question, and main exits 2
        pytest.param(lambda: _dim_exits({"bounds": SHORT.to_dict()}, 2), None, id="dim-short"),
    ],
)
def test_each_question_is_dropped_when_its_entry_point_ends(monkeypatch, capsys, call, raised):
    opened = []
    original = GrowthProfile._ratio

    def watching(self, n):
        opened.append(profiles._rows.get() is not None)
        return original(self, n)

    # every exact row, floor and comparison reads the integer pair
    monkeypatch.setattr(GrowthProfile, "_ratio", watching)
    if raised is None:
        call()
    else:
        with pytest.raises(raised):
            call()
    assert True in opened
    assert profiles._rows.get() is None


def _count_floors(monkeypatch):
    floors = Counter()
    original = GrowthProfile._floor

    def counting(self, n):
        floors[(self.label, n)] += 1
        return original(self, n)

    monkeypatch.setattr(GrowthProfile, "_floor", counting)
    return floors


def test_a_nested_question_reads_the_open_questions_rows(monkeypatch):
    floors = _count_floors(monkeypatch)
    bounds = bounds_from_scale(builtin_profiles()["scale_exp_sqrt"])
    once = Counter((label, k) for label in ("n*u(n)", "(n+1)*u(n)") for k in range(1, 9))
    with profiles._question():
        rows = profiles._rows.get()
        counts = [bounds.branch_count(k) for k in range(1, 9)]
        # one floor of l and one of r per window row
        assert floors == once
        # the count opens a question inside this one and reads its floors
        assert count_constrained_words(8, bounds) == math.prod(counts)
        assert floors == once
        assert profiles._rows.get() is rows
    assert profiles._rows.get() is None


def test_a_read_outside_any_question_stores_nothing(monkeypatch):
    floors = _count_floors(monkeypatch)
    profile = exp_of_profile(sqrt_profile(), label="e^sqrt")
    assert profile.floor(3) == profile.floor(3) == 5
    assert floors == Counter({("e^sqrt", 3): 2})
    computed = []
    for _ in range(2):
        assert profiles._recall(profile, ("row", 1), computed.append, 1) is None
    assert computed == [1, 1]
    assert profiles._rows.get() is None


def test_a_dropped_profile_hands_no_rows_to_a_new_one():
    # each table is dropped once read; the question holds it, so the next
    # table cannot take its id and with it the dropped table's row
    with profiles._question():
        floors = [table_profile([k]).floor(1) for k in range(2, 202)]
    assert floors == list(range(2, 202))


def test_deviation_bounds_analytic_tag():
    rows = deviation_bounds(lil_profile(), 1, k_limit=40, window=64)
    assert rows.l.value is not None or rows.analytic == {"dimension": 1.0}


def test_check_deviation_scale():
    assert check_deviation_scale(lil_profile(), window=256)["ok"]
    assert check_deviation_scale(log_profile(2), window=256)["ok"]
    steep = exponential_profile(2)
    assert not check_deviation_scale(steep, window=64)["ok"]


def test_oscillating_word_prefix():
    word = oscillating_ratio_word(6)
    assert word == (2, 30, 41, 403, 510, 4672)
    assert all(a < b for a, b in zip(word, word[1:]))


@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_certified_floor_matches_exact(p, q):
    x = Fraction(p, q)
    got = certified_floor(lambda iv: iv.mpf(p) / iv.mpf(q))
    assert got == x.numerator // x.denominator


@pytest.mark.xfail(
    strict=True,
    reason="known defect: _precision._floor_of floors the enclosure endpoints with "
    "mpf_floor(end, prec, rnd) at mpmath.mp's precision, so each floor is rounded to "
    "mpmath.mp.prec (53 bits outside a workprec) and a floor above 2^53 can come out "
    "wrong; prec = 0 would floor exactly",
)
def test_certified_floor_is_exact_above_two_to_the_53():
    assert certified_floor(lambda iv: iv.mpf(3**40) / 7) == 3**40 // 7


def test_certified_floor_refuses_exact_integer_boundary():
    # log(exp(1)) is exactly 1 but every finite-precision enclosure straddles
    # the integer, so no precision can certify its floor
    with pytest.raises(PrecisionError):
        certified_floor(lambda iv: iv.log(iv.exp(iv.mpf(1))))


def test_certified_sign_decides_at_the_ceiling():
    # the benchmark ladder's top rung: exp(sqrt(m)) against a dyadic with
    # 3*2^14 fractional bits just below it, undecided at 2^15 bits
    m, frac = 2, 3 * (1 << 14)
    with mpmath.workprec(frac + 256):
        f = int(mpmath.floor(mpmath.exp(mpmath.sqrt(m)) * mpmath.mpf(2) ** frac))
    precs = []

    def expr(iv):
        precs.append(iv.prec)
        return iv.exp(iv.sqrt(iv.mpf(m))) - iv.mpf(f - 1) / iv.mpf(1 << frac)

    assert certified_sign(expr) == 1
    assert precs[-1] == 1 << 16


def test_certified_sign_point_zero_is_decided_at_once():
    precs = []

    def zero(iv):
        precs.append(iv.prec)
        return iv.mpf(0)

    assert certified_sign(zero) == 0
    assert precs == [128]


def test_certified_compare_outcomes():
    even = affine_profile(2)
    assert [certified_compare(((1, even, 3),), c) for c in (5, 6, 7)] == [1, 0, -1]
    # 2*sqrt(2) - 2 = 0.83 on the interval path
    root = ((2, sqrt_profile(), 2), (-1, even, 1))
    assert [certified_compare(root, c) for c in (0, 1)] == [1, -1]
    # sqrt(1) + 1 through exp(log(1)/2) is the exact point 2
    assert certified_compare(((1, power_profile(Fraction(1, 2), shift=1), 1),), 2) == 0
    assert certified_compare(((1, TWO_POW_THROUGH_EXP, 1),), 2) is None


def test_bounds_from_scale_accepts_certified_zero_tie():
    # u(1) >= 2 is the point zero exp(0) - 1, so the tie holds at once
    bounds = bounds_from_scale(power_profile(Fraction(1, 2), shift=1), window=8)
    assert bounds.digit_range(1) == (3, 4)


def test_bounds_from_scale_reports_undecided():
    with pytest.raises(ProfileError, match="undecided at n=1"):
        bounds_from_scale(TWO_POW_THROUGH_EXP, window=8)


def _rational(lo, hi, *, open_lo=False):
    q = st.fractions(min_value=lo, max_value=hi, max_denominator=6)
    return q.filter(lambda v: v > lo) if open_lo else q


def _rule_profiles(strict: bool):
    """Profiles of each kind with a monotonicity rule, on random parameters
    inside the rule's region; `strict` leaves out the constant edge
    (exponential a = 1, power a = 0)."""
    coeff, shift = _rational(0, 4, open_lo=True), _rational(-4, 4)
    return st.one_of(
        st.builds(exponential_profile, _rational(1, 4, open_lo=strict), coeff, shift),
        st.builds(power_profile, _rational(0, 3, open_lo=strict), coeff, shift),
        st.builds(sqrt_profile, coeff),
        st.builds(linear_log_profile, _rational(1, 4, open_lo=True)),
    )


def _scale_outcome(check, u, window):
    try:
        check(u, window)
    except ProfileError as exc:
        return str(exc)
    return "accepted"


# exp of a constant inner row is left out: the structural rule proves the tie
# u(n+1) = u(n), which interval enclosures of exp leave undecided
@settings(max_examples=60, deadline=None)
@given(
    u=st.one_of(_rule_profiles(strict=False), _rule_profiles(strict=True).map(exp_of_profile)),
    window=st.integers(64, 256),
)
def test_structural_scale_certificate_agrees_with_the_row_scan(u, window):
    assert _nondecreasing(u)
    assert _scale_outcome(bounds_from_scale, u, window) == _scale_outcome(_scan_scale, u, window)


@pytest.mark.parametrize(
    "data,message",
    [
        ({"kind": "exponential", "a": "1/2", "coeff": 8}, "fails u(n+1) >= u(n) at n=1"),
        ({"kind": "linear_log", "a": "1/2"}, "fails u(n) >= 2 at n=1"),
        ({"kind": "power", "a": 1, "coeff": -1, "shift": 10}, "fails u(n+1) >= u(n) at n=1"),
    ],
)
def test_scale_outside_the_rule_region_is_scanned(data, message):
    # from_dict skips the constructors' checks, so the rule reads the signs itself
    u = GrowthProfile.from_dict(data)
    assert not _nondecreasing(u)
    for check in (bounds_from_scale, _scan_scale):
        with pytest.raises(ProfileError) as err:
            check(u, 64)
        assert str(err.value) == f"scale profile {message}"


def test_kinds_without_a_rule_are_not_structural():
    geo = builtin_profiles()["scale_geometric3"]
    for u in (
        table_profile([2, 3, 4]),
        lil_profile(),
        piecewise_profile(2, geo, geo),
        index_scaled_profile(geo, 1),
        exp_of_profile(table_profile([2, 3, 4])),
        GrowthProfile.from_dict({"kind": "exponential", "a": "inf"}),
        # n^2 falls on n = -2..0
        GrowthProfile("power", {"a": Fraction(2)}, min_index=-2),
    ):
        assert not _nondecreasing(u)


@pytest.mark.parametrize(
    "u,window,calls",
    [
        (builtin_profiles()["scale_geometric3"], DEFAULT_WINDOW, 1),
        (builtin_profiles()["scale_exp_sqrt"], DEFAULT_WINDOW, 1),
        (builtin_profiles()["scale_exp_square"], DEFAULT_WINDOW, 1),
        # no rule: two comparisons per scanned row
        (table_profile(range(2, 9)), 6, 12),
    ],
)
def test_bounds_from_scale_compare_count(monkeypatch, u, window, calls):
    made = []

    def counting(*args, _original=profiles.certified_compare):
        made.append(args)
        return _original(*args)

    monkeypatch.setattr(profiles, "certified_compare", counting)
    bounds_from_scale(u, window)
    assert len(made) == calls


def test_find_threshold_counts_undecided_as_failure():
    # r(1) = exp(log 4) = 4 ties (i) r(1) - l(1) >= 2; (ii) and (iii) hold
    l = table_profile([2, 5])
    r = piecewise_profile(1, exp_of_profile(linear_log_profile(4)), affine_profile(2, 2))
    with pytest.raises(ThresholdNotFound) as err:
        find_threshold(l, r, 1)
    assert err.value.condition.startswith("(i)")
    assert err.value.level == 1
    assert err.value.undecided is True
    assert "undecided" in str(err.value)


_CATCHES_PRECISION_ERROR = {"PrecisionError", "ArithmeticError", "Exception", "BaseException"}


def _precision_handlers(source: str) -> list[str]:
    """Innermost enclosing function of each except clause that catches PrecisionError."""
    found = []

    def caught(handler: ast.ExceptHandler) -> set[str]:
        if handler.type is None:
            return {"BaseException"}
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        return {getattr(t, "attr", getattr(t, "id", None)) for t in types}

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and caught(child) & _CATCHES_PRECISION_ERROR:
                found.append(func)
            is_func = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_func else func)

    visit(ast.parse(source), "<module>")
    return found


def test_precision_error_caught_only_by_compare_helper_and_cli_main():
    # any other handler could resolve an undecided comparison silently
    planted = "def f():\n    try:\n        pass\n    except (ValueError, _precision.PrecisionError):\n        pass\n"
    assert _precision_handlers(planted) == ["f"]
    found = sorted(
        f"{path.stem}.{func}"
        for path in Path(piercelib.__file__).parent.glob("*.py")
        for func in _precision_handlers(path.read_text(encoding="utf-8"))
    )
    # cmd_dim: the box and gap sequences and the E_phi cover chains;
    # _window_membership: an E_bounds/E_star window floor left undecided
    assert found == ["cli.cmd_dim"] * 3 + [
        "cli.main",
        "families._window_membership",
        "profiles.certified_compare",
    ]


def _unused_imports(source: str) -> list[str]:
    """Names a module imports (from __future__ aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def _private_definitions(source: str) -> set[str]:
    """Module-level private defs, classes and constants."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _loaded_names(source: str) -> set[str]:
    """Names a module reads, as a name, an attribute or a from-import."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute):
            loaded.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            loaded |= {a.name for a in node.names}
    return loaded


def _dead_code(sources: dict[str, str]) -> list[str]:
    """Unused imports outside __init__, and private module-level names that
    no module loads."""
    loaded = set().union(*(_loaded_names(text) for text in sources.values()))
    found = [
        f"{name}: unused import {imp}"
        for name, text in sources.items()
        if name != "__init__"
        for imp in _unused_imports(text)
    ]
    found += [
        f"{name}: {private} never loaded"
        for name, text in sources.items()
        for private in sorted(_private_definitions(text) - loaded)
    ]
    return found


def test_src_has_no_unused_imports_or_orphaned_private_names():
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in Path(piercelib.__file__).parent.glob("*.py")
    }
    assert _dead_code(sources) == []
    planted = dict(sources)
    planted["families"] += "\nfrom .profiles import index_scaled_profile\n"
    planted["dimension"] += "\n\ndef _orphan():\n    return None\n"
    assert _dead_code(planted) == [
        "families: unused import index_scaled_profile",
        "dimension: _orphan never loaded",
    ]


def _exports(init_source: str) -> dict[str, str]:
    """Each public name the package's `__init__` binds, mapped to the module
    that defines it: the names it imports, and the submodules they come from."""
    home = {}
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level:
            home[node.module] = node.module
            home.update({a.asname or a.name: node.module for a in node.names})
    return {name: module for name, module in home.items() if not name.startswith("_")}


def _public_api_list(readme: str) -> set[str]:
    """The names in the bulleted list that closes the README's "Public API"
    section."""
    section = readme.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"`(\w+)`", section[section.index("\n- ") :]))


def _unearned_exports(
    sources: dict[str, str], readers: list[str], listed: set[str]
) -> list[str]:
    """Exports that no src module other than their own (and `__init__`) and
    no reader text reads, by word match, unless listed; and listed names
    that are not exports."""
    exports = _exports(sources["__init__"])
    found = []
    for name, module in sorted(exports.items()):
        texts = [text for stem, text in sources.items() if stem not in ("__init__", module)]
        word = re.compile(rf"\b{name}\b")
        if name not in listed and not any(word.search(t) for t in texts + readers):
            found.append(f"{name}: exported, never read, not listed")
    found += [f"{name}: listed, not exported" for name in sorted(listed - exports.keys())]
    return found


def test_every_export_is_read_or_listed():
    root = Path(__file__).resolve().parents[1]
    sources = {
        path.stem: path.read_text(encoding="utf-8")
        for path in Path(piercelib.__file__).parent.glob("*.py")
    }
    paths = [*sorted((root / "bench").glob("*.py")), root / "tests" / "test_acceptance.py"]
    readers = [path.read_text(encoding="utf-8") for path in paths + [root / "docs" / "results.md"]]
    listed = _public_api_list((root / "README.md").read_text(encoding="utf-8"))
    assert set(_exports(sources["__init__"])) == set(piercelib.__all__)
    assert _unearned_exports(sources, readers, listed) == []
    planted = dict(sources)
    # a name its own module reads, and no other, is still unread
    planted["dimension"] += "\n\ndef unread_export():\n    return unread_export\n"
    planted["__init__"] += "\nfrom .dimension import unread_export\n"
    assert _unearned_exports(planted, readers, listed | {"no_such_export"}) == [
        "unread_export: exported, never read, not listed",
        "no_such_export: listed, not exported",
    ]
