"""Growth profiles, bounds profiles, and splice-threshold search."""

import ast
import json
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import piercelib
from piercelib._precision import PrecisionError, certified_floor, certified_sign
from piercelib.profiles import (
    _decode,
    _encode,
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
    exp_of_profile,
    exponential_profile,
    find_threshold,
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
    assert bounds.scale is u


def test_bounds_from_scale_rejects_small_scale():
    with pytest.raises(ProfileError):
        bounds_from_scale(table_profile([1, 1, 1, 1]), window=3)


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
    assert found == ["cli.main", "profiles.certified_compare"]
