"""Dimension bound sequences, analytic formulas, cover bounds."""

import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from unittest import mock

import mpmath
import pytest
from mpmath.libmp import to_rational
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercelib import cli, dimension, profiles
from piercelib._precision import PrecisionError
from piercelib.dimension import (
    DimensionEstimate,
    RatioPoint,
    analytic_dimension,
    box_ratio_sequence,
    count_log_bounds,
    dimension_bound_sequences,
    estimate_limits,
    find_cover_start,
    gap_ratio_sequence,
    window_cover_bound,
    window_cover_chains,
)
from piercelib.families import SetSpec, emptiness_check
from piercelib.intervals import epsilon_n, family_basic_interval
from piercelib.profiles import (
    BoundsProfile,
    GrowthProfile,
    affine_profile,
    bounds_from_scale,
    builtin_profiles,
    deviation_bounds,
    deviation_profile,
    exp_of_profile,
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

EVEN = BoundsProfile(l=affine_profile(2), r=affine_profile(2, 2), threshold=0)


def _estar_bounds(window=64):
    return bounds_from_scale(builtin_profiles()["scale_geometric3"], window=window)


def test_bound_sequences_scale_window_frozen():
    est = dimension_bound_sequences(_estar_bounds(), 60)
    lower = {p.n: p.ratio for p in est.lower_seq}
    upper = {p.n: p.ratio for p in est.upper_seq}
    assert lower[60] == pytest.approx(0.8826, abs=5e-5)
    assert upper[60] == pytest.approx(0.8858, abs=5e-5)
    last_lower = [lower[n] for n in range(41, 61)]
    last_upper = [upper[n] for n in range(41, 61)]
    assert all(a <= b for a, b in zip(last_lower, last_lower[1:]))
    assert all(a <= b for a, b in zip(last_upper, last_upper[1:]))


def test_box_and_gap_frozen():
    box = box_ratio_sequence(_estar_bounds(), 60)
    gap = gap_ratio_sequence(_estar_bounds(), 60)
    assert box[-1].n == 60 and box[-1].ratio == pytest.approx(0.8861, abs=5e-5)
    assert gap[-1].n == 60 and gap[-1].ratio == pytest.approx(0.8824, abs=5e-5)


def test_sandwich_with_count_slack():
    # box ratio dominates the clean upper ratio minus the counting slack, and
    # the gap ratio stays below the clean lower ratio plus its slack
    bounds = _estar_bounds()
    est = dimension_bound_sequences(bounds, 40)
    box = {p.n: p for p in box_ratio_sequence(bounds, 40)}
    gap = {p.n: p for p in gap_ratio_sequence(bounds, 40)}
    for p in est.upper_seq:
        if p.n < 3:
            continue
        _, _, c = count_log_bounds(bounds, p.n)
        slack = p.n * math.log(c) / box[p.n].log_inv_diam
        assert box[p.n].ratio >= p.ratio - slack - 1e-12
    for p in est.lower_seq:
        if p.n < 3:
            continue
        _, _, c = count_log_bounds(bounds, p.n)
        num_slack = p.n * math.log(c)
        den_slack = math.log(c / 2)
        assert gap[p.n].ratio <= (
            (gap[p.n].log_count + num_slack) / (gap[p.n].log_inv_diam - den_slack)
        ) + 1e-12


EXACT_ROW_BOUNDS = {"even": EVEN, "geometric3": _estar_bounds()}


def _log(q: Fraction) -> float:
    with mpmath.workprec(256):
        return float(mpmath.log(q.numerator) - mpmath.log(q.denominator))


@pytest.mark.parametrize("name", EXACT_ROW_BOUNDS)
def test_sequences_match_logs_of_exact_row_products(name):
    bounds = EXACT_ROW_BOUNDS[name]
    n_max = 8
    rows = range(1, n_max + 3)
    l = [None] + [bounds.l.value(k) for k in rows]
    r = [None] + [bounds.r.value(k) for k in rows]
    delta = [None] + [r[k] - l[k] for k in rows]
    m = [None] + [Fraction(bounds.branch_count(k)) for k in rows]

    def prod(seq, n):
        return math.prod(seq[1:n + 1])

    def eps(j):  # the level-j gap bound of intervals.epsilon_n
        return delta[j + 1] / (2 * prod(r, j) * r[j] * r[j + 1])

    exact = {
        "lower": lambda n: (
            prod(delta, n),
            r[n + 1] * r[n + 2] / (delta[n + 1] * delta[n + 2]) * prod(r, n + 1),
        ),
        "upper": lambda n: (prod(delta, n), r[n + 1] / delta[n + 1] * prod(l, n + 1)),
        # 1 / the diameter bound 2 Delta_{n+1} / (r_{n+1} prod_{k<=n+1} l_k)
        "box": lambda n: (prod(m, n), r[n + 1] * prod(l, n + 1) / (2 * delta[n + 1])),
        "gap": lambda n: (prod(m, n), 1 / (m[n + 1] * eps(n + 1))),
    }
    estimate = dimension_bound_sequences(bounds, n_max)
    sequences = {
        "lower": estimate.lower_seq,
        "upper": estimate.upper_seq,
        "box": box_ratio_sequence(bounds, n_max),
        "gap": gap_ratio_sequence(bounds, n_max),
    }
    for kind, points in sequences.items():
        assert [p.n for p in points] == list(range(bounds.threshold + 1, n_max + 1)), kind
        for p in points:
            count, inv_diam = exact[kind](p.n)
            assert p.log_count == pytest.approx(_log(count), rel=1e-15), (kind, p.n)
            assert p.log_inv_diam == pytest.approx(_log(inv_diam), rel=1e-15), (kind, p.n)
    for p in sequences["gap"]:
        # the test's gap bound is the library's exact one
        assert eps(p.n + 1) == epsilon_n(bounds, p.n + 1)
        assert p.log_inv_diam == pytest.approx(-_log(m[p.n + 1] * epsilon_n(bounds, p.n + 1)), rel=1e-15)


def _digest(points) -> str:
    return hashlib.sha256("\n".join(repr(p) for p in points).encode()).hexdigest()


# sha256 over the RatioPoint reprs, one per line; computed by the per-level
# loops that preceded the row columns, so they pin the rounding of every sum
PINNED_DIGESTS = {
    "geometric3.lower": "c2cbb54daa5d2200291811832932a80afb78ef2e919bc7aad0714d90a161998e",
    "geometric3.upper": "903d7083532048e83795955204513bc40789a68221aeebe80a1a440214df41a4",
    "geometric3.box": "c11461872f8560457e8da6e6d6f276b63160a92ae6e120f64a83b4fc82782dbc",
    "geometric3.gap": "4f95477a58d8bc79dfa66121d862dc73427e7df35be0b389afe4458b7ddc8e05",
    "even.lower": "4cbf21f10bc2f03e5b57b40a8316a332f27c5bd9ed1d2f6728db87576d448e99",
    "even.upper": "aafbccf4f30f628c25f69ed4534e6eed7754d5afc56e0a66d844568217aa01be",
    "even.box": "57df7105ae2453771f74492ddecd9400147bf84f9d2ec8912a548b3ae798dffc",
    "even.gap": "9a0ff993856c2ee5f9baef74cd8c3f4c830f38a7a803c31f78d258f8282d2892",
    "log2.chain1": "2a8972bfddc3e838d916077f809698ead3c48c2d4fef2e8a908200def2d5f675",
    "log2.chain2": "bf8dd14eabb1b721949afbe53d9cfe9603b36360437bf88f1fd3e1af72a57834",
}


def test_ratio_points_bit_identical_to_pinned_digests():
    got = {}
    for name, bounds in EXACT_ROW_BOUNDS.items():
        estimate = dimension_bound_sequences(bounds, 60)
        got[f"{name}.lower"] = _digest(estimate.lower_seq)
        got[f"{name}.upper"] = _digest(estimate.upper_seq)
        got[f"{name}.box"] = _digest(box_ratio_sequence(bounds, 60))
        got[f"{name}.gap"] = _digest(gap_ratio_sequence(bounds, 60))
    for chain, points in window_cover_chains(builtin_profiles()["log2"], 0.01, 2, 400).items():
        got[f"log2.{chain}"] = _digest(points)
    assert got == PINNED_DIGESTS


# -- the exact kernel against the mpmath.mp formulas it replaced ------------------
#
# The bodies below are the sequence formulas and `_cover_rows` as they ran in
# mpmath.mp at the working precision before the fixed-point kernel; their
# points keep the mpf values.  Every printed float must come out as the
# oracle's float, except at a rounding tie: where the true value is halfway
# between two floats (rational rows times a float eps can be), the exact sum
# of the rounded rows and the 128-bit sum may fall on opposite sides of it.


def _mp_column(f, last, first=1):
    return [mpmath.mpf(0)] * first + [f(k) for k in range(first, last + 1)]


def _mp_log_counts(bounds, last, least, message):
    def log_count(k):
        m = bounds.branch_count(k)
        if m < least:
            raise ValueError(message.format(k))
        return mpmath.log(m)

    return _mp_column(log_count, last)


def _mp_points(levels, num, den):
    return [(n, num[n], den[n], num[n] / den[n]) for n in levels if float(den[n]) > 0]


def _rounds_alike(got: float, want) -> bool:
    """got is float(want), or a float nearest to some real within 2^-110
    (relative) of want: the other side of a rounding tie."""
    if got == float(want):
        return True
    exact = Fraction(*to_rational(want._mpf_))
    return abs(Fraction(got) - exact) <= Fraction(math.ulp(got)) / 2 + abs(exact) / 2**110


def _agree(points, oracle) -> bool:
    """The kernel's RatioPoints against the oracle's mpf points, level by
    level; an error outcome must be the same error."""
    if isinstance(points, tuple) or isinstance(oracle, tuple):
        return points == oracle
    return [p.n for p in points] == [n for n, *_ in oracle] and all(
        _rounds_alike(got, want)
        for p, (_, *values) in zip(points, oracle)
        for got, want in zip((p.log_count, p.log_inv_diam, p.ratio), values)
    )


def _mp_bound_sequences(bounds, n_max, precision_bits=128):
    k0 = bounds.threshold
    if n_max < k0 + 2:
        raise ValueError(f"n_max must be >= threshold + 2 = {k0 + 2}")
    with mpmath.workprec(precision_bits):
        log_delta = _mp_column(bounds.log_delta, n_max + 2)
        log_r = _mp_column(bounds.r.log_value, n_max + 2)
        log_l = _mp_column(bounds.l.log_value, n_max + 2)
        sum_delta, sum_r, sum_l = (list(accumulate(c)) for c in (log_delta, log_r, log_l))
        levels = range(k0 + 1, n_max + 1)
        den_lower = {
            n: sum_r[n + 1] + log_r[n + 1] + log_r[n + 2] - log_delta[n + 1] - log_delta[n + 2]
            for n in levels
        }
        den_upper = {n: sum_l[n + 1] + log_r[n + 1] - log_delta[n + 1] for n in levels}
        return DimensionEstimate(
            lower_seq=_mp_points(levels, sum_delta, den_lower),
            upper_seq=_mp_points(levels, sum_delta, den_upper),
        )


def _mp_box(bounds, n_max, precision_bits=128, enum_cap=4096):
    with mpmath.workprec(precision_bits):
        log_m = _mp_log_counts(bounds, n_max, 1, "digit window closes at level {}")
        log_l = _mp_column(bounds.l.log_value, n_max + 1)
        log_r = _mp_column(bounds.r.log_value, n_max + 1, first=2)
        log_delta = _mp_column(bounds.log_delta, n_max + 1, first=2)
        for n in range(bounds.threshold + 1, min(n_max, 4) + 1):
            dimension._assert_diameter_bound(bounds, n, enum_cap)
        sum_m, sum_l = list(accumulate(log_m)), list(accumulate(log_l))
        levels = range(bounds.threshold + 1, n_max + 1)
        log_two = mpmath.log(2)
        log_inv = {n: -log_two + sum_l[n + 1] + log_r[n + 1] - log_delta[n + 1] for n in levels}
        return _mp_points(levels, sum_m, log_inv)


def _mp_gap(bounds, n_max, precision_bits=128):
    k0 = bounds.threshold
    if n_max < k0 + 1:
        raise ValueError(f"n_max must be >= threshold + 1 = {k0 + 1}")
    with mpmath.workprec(precision_bits):
        log_m = _mp_log_counts(bounds, n_max + 1, 2, "fewer than 2 digit choices at level {}")
        log_r = _mp_column(bounds.r.log_value, n_max + 2)
        log_delta = _mp_column(bounds.log_delta, n_max + 2, first=3)
        sum_m, sum_r = list(accumulate(log_m)), list(accumulate(log_r))
        levels = range(k0 + 1, n_max + 1)
        log_two = mpmath.log(2)
        log_eps = {
            n: -log_two - sum_r[n] - log_r[n + 1] - log_r[n + 1] - log_r[n + 2] + log_delta[n + 2]
            for n in levels
        }
        for n in levels[1:]:
            if not log_eps[n] < log_eps[n - 1]:
                raise ValueError(f"gap bound fails to shrink at level {n + 1}")
        log_inv = {n: -(log_m[n + 1] + log_eps[n]) for n in levels}
        return _mp_points(levels, sum_m, log_inv)


def _mp_cover_rows(phi, eps, m, last):
    values = _mp_column(phi.mp_value, last, first=m)
    terms = [(1 + eps) * v for v in values]
    terms[m] = m * (1 + eps) * values[m]
    num2 = {
        n: n * (1 + eps) * values[n] + (n - 1) - n * mpmath.log(n) for n in range(m, last + 1)
    }
    return values, list(accumulate(terms)), num2


def _mp_cover_bound(phi, epsilon, m, n, precision_bits=128):
    with mpmath.workprec(precision_bits):
        _, num1, num2 = _mp_cover_rows(phi, mpmath.mpf(epsilon), m, n)
        return min(num1[n], num2[n])


def _mp_cover_chains(phi, epsilon, m, n_max, precision_bits=128):
    with mpmath.workprec(precision_bits):
        eps = mpmath.mpf(epsilon)
        values, num1, num2 = _mp_cover_rows(phi, eps, m, n_max + 1)
        sum_phi = list(accumulate(values))
        levels = range(m + 1, n_max + 1)
        den = {n: (1 - eps) * (sum_phi[n] + values[n + 1]) for n in levels}
        return {"chain1": _mp_points(levels, num1, den), "chain2": _mp_points(levels, num2, den)}


_FRACTIONS = st.fractions(2, 10, max_denominator=8)


@st.composite
def _bound_cases(draw):
    """(bounds, n_max, bits): scale windows over exponential, exp_of, power
    and sqrt scales, deviation bounds over lil and sqrt, and E_bounds whose l
    and r are unrelated."""
    kind = draw(st.sampled_from(["exponential", "exp_of", "power", "sqrt", "deviation", "unrelated"]))
    if kind == "exponential":
        a = draw(st.fractions(Fraction(5, 4), 4, max_denominator=8))
        bounds = profiles._scale_windows(exponential_profile(a, coeff=draw(_FRACTIONS)))
    elif kind == "exp_of":
        inner = sqrt_profile(draw(st.fractions(Fraction(3, 4), 3, max_denominator=8)))
        bounds = profiles._scale_windows(exp_of_profile(inner))
    elif kind == "power":
        u = power_profile(draw(st.integers(1, 4)), coeff=draw(_FRACTIONS))
        bounds = profiles._scale_windows(u)
    elif kind == "sqrt":
        bounds = profiles._scale_windows(sqrt_profile(draw(_FRACTIONS)))
    elif kind == "deviation":
        psi, window = draw(st.sampled_from([(lil_profile(), 64), (sqrt_profile(), 256)]))
        beta = draw(st.sampled_from([Fraction(1, 2), 1, 2]))
        bounds = deviation_bounds(psi, beta, k_limit=40, window=window)
    else:
        l = draw(st.sampled_from([affine_profile(2), power_profile(2), sqrt_profile(3)]))
        r = draw(st.sampled_from([exponential_profile(3), power_profile(3, coeff=2), exp_of_profile(sqrt_profile(2))]))
        bounds = BoundsProfile(l, r, threshold=draw(st.integers(0, 2)))
    return bounds, draw(st.integers(3, 40)), draw(st.sampled_from([128, 256]))


@settings(max_examples=60, deadline=None)
@given(_bound_cases())
def test_the_exact_sequences_print_the_mp_formulas_floats(case):
    bounds, n_max, bits = case
    lower_upper = _outcome(dimension_bound_sequences, bounds, n_max, bits)
    want = _outcome(_mp_bound_sequences, bounds, n_max, bits)
    if isinstance(want, tuple):
        assert lower_upper == want
    else:
        assert _agree(lower_upper.lower_seq, want.lower_seq)
        assert _agree(lower_upper.upper_seq, want.upper_seq)
    for exact, oracle in ((box_ratio_sequence, _mp_box), (gap_ratio_sequence, _mp_gap)):
        assert _agree(_outcome(exact, bounds, n_max, bits), _outcome(oracle, bounds, n_max, bits))


@st.composite
def _chain_cases(draw):
    """(phi, eps, m, n_max, bits) over log and power phi."""
    if draw(st.booleans()):
        phi, m = log_profile(draw(st.fractions(Fraction(1, 2), 6, max_denominator=8))), draw(st.integers(2, 20))
    else:
        coeff = draw(st.fractions(Fraction(1, 4), 3, max_denominator=8))
        phi, m = power_profile(draw(st.integers(1, 3)), coeff=coeff), draw(st.integers(1, 20))
    eps = float(draw(st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000)))
    return phi, eps, m, m + draw(st.integers(1, 60)), draw(st.sampled_from([128, 256]))


@settings(max_examples=60, deadline=None)
@given(_chain_cases())
def test_the_exact_cover_chains_print_the_mp_formulas_floats(case):
    phi, eps, m, n_max, bits = case
    chains, want = window_cover_chains(phi, eps, m, n_max, bits), _mp_cover_chains(phi, eps, m, n_max, bits)
    assert chains.keys() == want.keys()
    assert all(_agree(chains[name], want[name]) for name in chains)
    for n in (m, n_max):
        bound = window_cover_bound(phi, eps, m, n, bits)
        assert _rounds_alike(float(bound), _mp_cover_bound(phi, eps, m, n, bits))


def test_a_rounding_tie_may_fall_either_side():
    # phi(n) = n/3, m = 1: num1(2) = (1 + eps)(1/3 + 2/3) is halfway between
    # two floats; the rounded thirds put the exact sum just off the tie
    phi, eps = power_profile(1, coeff=Fraction(1, 3)), 0.9006696428571429
    bound, want = window_cover_bound(phi, eps, 1, 2), _mp_cover_bound(phi, eps, 1, 2)
    assert float(bound) != float(want) and _rounds_alike(float(bound), want)
    assert not _rounds_alike(float(bound) + 1e-15, want)


def _exact(x) -> Fraction:
    return Fraction(*to_rational(x._mpf_))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(-(2**140), 2**140), st.integers(-300, 300)), max_size=6),
        min_size=1,
        max_size=3,
    ).filter(lambda columns: any(columns)),
    st.sampled_from([53, 128, 256]),
)
def test_fixed_reads_every_row_exactly_on_one_scale(columns, bits):
    with mpmath.workprec(bits):
        columns = [[mpmath.ldexp(man, exp) for man, exp in column] for column in columns]
    s, ints = dimension._fixed(*columns)
    assert s == max(0, -min(x._mpf_[2] for column in columns for x in column))
    for column, exact in zip(columns, ints):
        assert [Fraction(i, 1 << s) for i in exact] == [_exact(x) for x in column]


def test_fixed_reads_the_log_rows_of_a_document_exactly():
    bounds = bounds_from_scale(builtin_profiles()["scale_exp_sqrt"])
    with mpmath.workprec(128):
        columns = [[bounds.l.log_value(n) for n in range(1, 40)], [bounds.log_delta(n) for n in range(1, 40)]]
    s, ints = dimension._fixed(*columns)
    for column, exact in zip(columns, ints):
        assert [Fraction(i, 1 << s) for i in exact] == [_exact(x) for x in column]


def test_fixed_refuses_a_non_finite_row():
    for row in (mpmath.inf, -mpmath.inf, mpmath.nan):
        with pytest.raises(AssertionError, match="non-finite row"):
            dimension._fixed([mpmath.mpf(1), row])


def test_a_planted_non_shrinking_gap_raises_at_the_same_level():
    # r_7 = 10^6 widens the level-7 window: eps_8 is larger than eps_7
    bounds = BoundsProfile(
        l=table_profile([2] * 12), r=table_profile([4] * 6 + [10**6] + [4] * 5), threshold=0
    )
    message = (ValueError, "gap bound fails to shrink at level 8")
    assert _outcome(_mp_gap, bounds, 10) == message
    assert _outcome(gap_ratio_sequence, bounds, 10) == message


def _record_rows(monkeypatch, owners, methods):
    """Count calls per (name, row) of the given row methods of the named
    profiles."""
    calls = Counter()
    for cls, method in methods:
        def wrapper(self, n, _method=method, _original=getattr(cls, method)):
            for name, owner in owners.items():
                if self is owner:
                    calls[(f"{name}.{_method}", n)] += 1
            return _original(self, n)

        monkeypatch.setattr(cls, method, wrapper)
    return calls


def _once(name, rows):
    return Counter({(name, k): 1 for k in rows})


# threshold 4 keeps box's exact diameter self-check (levels <= 4), which
# enumerates words, out of the counts
COUNTED = BoundsProfile(l=affine_profile(2), r=affine_profile(2, 2), threshold=4)


@pytest.mark.parametrize(
    "sequence,expected",
    [
        (
            dimension_bound_sequences,
            _once("r.log_value", range(1, 63))
            + _once("l.log_value", range(1, 63))
            + _once("bounds.log_delta", range(1, 63)),
        ),
        (
            box_ratio_sequence,
            _once("bounds.branch_count", range(1, 61))
            + _once("l.log_value", range(1, 62))
            + _once("r.log_value", range(2, 62))
            + _once("bounds.log_delta", range(2, 62)),
        ),
        (
            gap_ratio_sequence,
            _once("bounds.branch_count", range(1, 62))
            + _once("r.log_value", range(1, 63))
            + _once("bounds.log_delta", range(3, 63)),
        ),
    ],
)
def test_each_bound_row_is_evaluated_once(monkeypatch, sequence, expected):
    bounds = COUNTED
    calls = _record_rows(
        monkeypatch,
        {"bounds": bounds, "l": bounds.l, "r": bounds.r},
        ((GrowthProfile, "log_value"), (BoundsProfile, "log_delta"), (BoundsProfile, "branch_count")),
    )
    sequence(bounds, 60)
    assert calls == expected


def _record_computations(monkeypatch, owners):
    """Count the uncached computations per (name, row) of the named owners:
    the `_eval` and `_log` walks in mpmath.mp, the floor computation and the
    log-Delta computation."""
    calls = Counter()
    for cls, method in (
        (GrowthProfile, "_eval"),
        (GrowthProfile, "_log"),
        (GrowthProfile, "_floor"),
        (BoundsProfile, "_log_delta"),
    ):
        def wrapper(self, *args, _method=method, _original=getattr(cls, method)):
            if len(args) == 1 or args[0] is mpmath.mp:
                for name, owner in owners.items():
                    if self is owner:
                        calls[(f"{name}.{_method}", args[-1])] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, method, wrapper)
    return calls


def test_each_bound_row_is_evaluated_once_per_dim_document(monkeypatch, capsys):
    # lower/upper, box and gap of one document are one question; the rows
    # are counted on the l and r of the bounds the document is built from
    owners = {}
    made = cli._bounds_for_spec

    def capture(spec, window):
        bounds = made(spec, window)
        owners.update(bounds=bounds, l=bounds.l, r=bounds.r)
        return bounds

    monkeypatch.setattr(cli, "_bounds_for_spec", capture)
    calls = _record_computations(monkeypatch, owners)
    spec = json.dumps(
        {"family": "E_star", "params": {"u": {"kind": "builtin", "name": "scale_geometric3"}}}
    )
    assert cli.main(["dim", spec, "--n-max", "60"]) == 0
    assert {row["bound_kind"] for row in json.loads(capsys.readouterr().out)["data"]} == {
        "lower", "upper", "box", "gap",
    }
    # log Delta is u's log (r - l = u), so no mpmath.mp value of l or r is
    # formed; each window row's floors of l and r are computed once
    expected = _once("bounds._log_delta", range(1, 63))
    for name in ("l", "r"):
        expected += _once(f"{name}._log", range(1, 63)) + _once(f"{name}._floor", range(1, 62))
    assert calls == expected


def test_a_dim_document_evaluates_shared_rows_once(monkeypatch, capsys):
    # u = exp(sqrt n) sits under both n*u(n) and (n+1)*u(n), and log Delta is
    # read by the lower/upper, box and gap sequences alike
    walks, deltas = Counter(), Counter()
    original_eval, original_delta = GrowthProfile._eval, BoundsProfile._log_delta

    def counting_eval(self, ctx, n):
        if self.label == "scale_exp_sqrt":
            walks[(n, ctx is mpmath.iv, ctx.prec)] += 1
        return original_eval(self, ctx, n)

    def counting_delta(self, n):
        deltas[n] += 1
        return original_delta(self, n)

    made, read = cli._bounds_for_spec, {}

    def fresh(spec, window):
        bounds = read["bounds"] = made(spec, window)
        walks.clear()  # the document's reads, not bounds_from_scale's certificate
        return bounds

    def gap_in_question(*args):
        read["rows"] = profiles._rows.get()  # the document's question
        return gap_ratio_sequence(*args)

    monkeypatch.setattr(GrowthProfile, "_eval", counting_eval)
    monkeypatch.setattr(BoundsProfile, "_log_delta", counting_delta)
    monkeypatch.setattr(cli, "_bounds_for_spec", fresh)
    monkeypatch.setattr(cli, "gap_ratio_sequence", gap_in_question)
    spec = json.dumps(
        {"family": "E_star", "params": {"u": {"kind": "builtin", "name": "scale_exp_sqrt"}}}
    )
    assert cli.main(["dim", spec, "--n-max", "60"]) == 0
    assert {row["bound_kind"] for row in json.loads(capsys.readouterr().out)["data"]} == {
        "lower", "upper", "box", "gap",
    }
    # the logs of l, r and Delta read u's log row, exp(sqrt n) is never formed
    # in mpmath.mp; enclosures for the floors of rows 1..61 in mpmath.iv, each
    # once per (row, precision)
    assert {n for n, in_iv, _ in walks if not in_iv} == set()
    assert {n for n, in_iv, _ in walks if in_iv} == set(range(1, 62))
    assert set(walks.values()) == {1}
    assert deltas == Counter(range(1, 63))
    # the floors of l and r read u's enclosure: the question stores no l or r
    # enclosure, only u's
    bounds = read["bounds"]
    iv_owners = {slot[0] for slot in read["rows"] if isinstance(slot, tuple) and mpmath.iv in slot}
    assert id(bounds._window_scale()) in iv_owners
    assert not iv_owners & {id(bounds.l), id(bounds.r)}


SANDWICH_BOUNDS = {
    "scale_geometric3": lambda: bounds_from_scale(builtin_profiles()["scale_geometric3"]),
    "scale_exp_sqrt": lambda: bounds_from_scale(builtin_profiles()["scale_exp_sqrt"]),
    "deviation_lil": lambda: deviation_bounds(builtin_profiles()["lil"], 1),
    "deviation_sqrt": lambda: deviation_bounds(builtin_profiles()["sqrt"], Fraction(-1, 2)),
}


@pytest.mark.parametrize("scale", SANDWICH_BOUNDS)
def test_bound_sequences_sandwich_the_natural_measure(scale):
    # Mass distribution: mu picks each admissible digit uniformly, level by
    # level, so mu(I_n) = 1/prod_{k<=n} m_k for the basic interval I_n of a
    # word.  The local ratio log(1/mu(I_n)) / log(1/|I_n|) of sampled words
    # must lie between the lower and upper sequences.  geometric3 rows are
    # exact; exp-sqrt rows take the mpmath.iv floors, and so do the deviation
    # rows, which pass 2^53 and are therefore floored at 128 bits.
    bounds = SANDWICH_BOUNDS[scale]()
    with profiles._question():
        scoped = dimension_bound_sequences(bounds, 60)
    estimate = dimension_bound_sequences(bounds, 60)
    assert estimate == scoped
    lower = {p.n: p.ratio for p in estimate.lower_seq}
    upper = {p.n: p.ratio for p in estimate.upper_seq}
    rng = random.Random(8)  # pre-registered
    for n in (20, 40, 60):
        for _ in range(5):
            word, log_mass = [], 0.0
            with mpmath.workprec(128):
                for k in range(1, n + 1):
                    lo, hi = bounds.digit_range(k)
                    word.append(rng.randint(lo, hi))
                    log_mass += math.log(hi - lo + 1)
                length = family_basic_interval(tuple(word), bounds).length
            ratio = log_mass / (math.log(length.denominator) - math.log(length.numerator))
            assert lower[n] <= ratio <= upper[n]


def test_each_phi_row_is_evaluated_once(monkeypatch):
    phi = builtin_profiles()["log2"]
    calls = _record_rows(monkeypatch, {"phi": phi}, ((GrowthProfile, "mp_value"),))
    window_cover_chains(phi, 0.01, 2, 400)
    assert calls == _once("phi.mp_value", range(2, 402))
    calls.clear()
    window_cover_bound(phi, 0.01, 2, 50)
    assert calls == _once("phi.mp_value", range(2, 51))


@pytest.mark.parametrize("epsilon", [0, 1.5])
@pytest.mark.parametrize(
    "cover",
    [
        lambda phi, eps: find_cover_start(phi, eps),
        lambda phi, eps: window_cover_bound(phi, eps, 2, 10),
        lambda phi, eps: window_cover_chains(phi, eps, 2, 10),
    ],
    ids=["start", "bound", "chains"],
)
def test_cover_functions_reject_epsilon_outside_unit_interval(cover, epsilon):
    with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
        cover(builtin_profiles()["log2"], epsilon)


def test_cover_bound_is_the_smaller_chain_numerator():
    log2 = builtin_profiles()["log2"]
    chains = window_cover_chains(log2, 0.01, 2, 50)
    for p1, p2 in zip(chains["chain1"], chains["chain2"]):
        assert p1.n == p2.n
        bound = window_cover_bound(log2, 0.01, 2, p1.n)
        assert float(bound) == min(p1.log_count, p2.log_count)
    assert float(window_cover_bound(log2, 0.01, 2, 2)) == pytest.approx(
        min(2 * 1.01 * 2 * math.log(2), 2 * 1.01 * 2 * math.log(2) + 1 - 2 * math.log(2))
    )


def test_gap_sequence_requires_two_branches():
    single = BoundsProfile(l=affine_profile(1), r=affine_profile(1, 1), threshold=0)
    with pytest.raises(ValueError):
        gap_ratio_sequence(single, 5)


def test_count_log_bounds_brackets_exact_count():
    from piercelib.families import count_constrained_words

    for n in (1, 2, 3, 4):
        lo, hi, c = count_log_bounds(EVEN, n)
        exact = math.log(count_constrained_words(n, EVEN))
        assert lo - 1e-9 <= exact <= hi + 1e-9
        assert c == pytest.approx(2.01)


def test_count_log_bounds_stay_finite_on_huge_windows():
    # level 800 of these windows is near e^800, past the largest float
    bounds = deviation_bounds(lil_profile(), Fraction(1, 2), k_limit=40, window=64)
    lo, hi, c = count_log_bounds(bounds, 800)
    assert math.isfinite(lo) and math.isfinite(hi)
    with mpmath.workprec(128):
        log_prod = float(sum(bounds.log_delta(k) for k in range(1, 801)))
    assert (lo + hi) / 2 == pytest.approx(log_prod, rel=1e-12)
    assert c == pytest.approx(2.01) and lo < log_prod < hi


def test_limit_estimates_frozen():
    geo = builtin_profiles()["geometric3"]
    xi = estimate_limits(geo, "xi", (380, 400))
    assert xi.last == pytest.approx(2.0, abs=1e-9)
    log2 = builtin_profiles()["log2"]
    theta = estimate_limits(log2, "theta", (9_990, 10_000))
    assert theta.last == pytest.approx(1.12172, abs=5e-5)
    gamma = estimate_limits(log2, "gamma", (9_990, 10_000))
    assert gamma.last == pytest.approx(2.0, abs=1e-3)
    eta = estimate_limits(builtin_profiles()["scale_geometric3"], "eta", (380, 400))
    assert eta.last == pytest.approx(0.0321, abs=5e-5)


def _loop_limits(profile, quantity, window, precision_bits=128):
    """The running-total loops that computed estimate_limits before it read
    one row column: a differential oracle for the column formulas."""
    if quantity not in ("gamma", "xi", "theta", "eta"):
        raise ValueError(f"unknown limit quantity {quantity!r}")
    n_lo, n_hi = window
    n_lo = max(n_lo, profile.min_index, 2 if quantity == "gamma" else profile.min_index)
    if n_hi < n_lo:
        raise ValueError("empty window")
    values = []
    with mpmath.workprec(precision_bits):
        if quantity == "gamma":
            for n in range(n_lo, n_hi + 1):
                values.append((n, float(profile.mp_value(n) / mpmath.log(n))))
        elif quantity in ("xi", "theta"):
            total = mpmath.mpf(0)
            for k in range(profile.min_index, n_lo):
                total += profile.mp_value(k)
            for n in range(n_lo, n_hi + 1):
                total += profile.mp_value(n)
                if quantity == "xi":
                    values.append((n, float(profile.mp_value(n + 1) / total)))
                else:
                    values.append((n, float(n * profile.mp_value(n) / total)))
        else:
            total = mpmath.mpf(0)
            for k in range(profile.min_index, n_lo):
                total += profile.log_value(k)
            for n in range(n_lo, n_hi + 1):
                total += profile.log_value(n)
                if total <= 0:
                    continue
                num = n * mpmath.log(n) + profile.log_value(n + 1)
                values.append((n, float(num / total)))
    if not values:
        raise ValueError("window produced no values")
    floats = [v for _, v in values]
    return values, {"min": min(floats), "max": max(floats), "last": floats[-1]}


LIMIT_SWEEP = {
    **builtin_profiles(),
    "table12": table_profile([3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610]),
    "float_affine": affine_profile(1.5, 0.25),
    "shifted_power": power_profile(2, shift=-1),
    "deviation_lil": deviation_profile(1, lil_profile()),
    "piecewise": piecewise_profile(5, affine_profile(2), exponential_profile(2)),
}


def _outcome(estimate, *args):
    try:
        return estimate(*args)
    except Exception as exc:  # the error text is part of the outcome
        return type(exc), str(exc)


@pytest.mark.parametrize("name", LIMIT_SWEEP)
def test_limit_columns_match_the_running_total_loops(name):
    profile = LIMIT_SWEEP[name]
    for quantity in ("gamma", "xi", "theta", "eta"):
        for window in ((2, 11), (5, 11), (1, 300), (380, 400)):
            new = _outcome(estimate_limits, profile, quantity, window)
            if isinstance(new, dimension.LimitEstimate):
                assert new.quantity == quantity
                new = new.values, new.summary
            assert new == _outcome(_loop_limits, profile, quantity, window), (quantity, window)


ANALYTIC_TABLE = [
    (SetSpec("E_phi", {"profile": builtin_profiles()["log2"]}), 0.5, False),
    (SetSpec("E_phi", {"profile": log_profile(Fraction(1, 2))}), 0.0, True),
    (SetSpec("E_phi", {"profile": builtin_profiles()["geometric3"]}), 1 / 3, False),
    (SetSpec("A_alpha", {"alpha": 1}), 1.0, False),
    (SetSpec("A_alpha", {"alpha": 7}), 1.0, False),
    (SetSpec("A_alpha", {"alpha": math.inf}), 1.0, False),
    (SetSpec("A_alpha", {"alpha": 0.5}), 0.0, True),
    (SetSpec("A_kappa", {"kappa": 3}), 1.0, False),
    (SetSpec("A_kappa", {"kappa": -1}), 1.0, False),
    (SetSpec("B_alpha", {"alpha": 2}), 1.0, False),
    (SetSpec("B_alpha", {"alpha": 0.5}), 0.0, True),
    (SetSpec("B_kappa", {"kappa": 2}), 1.0, False),
    (SetSpec("B_kappa", {"kappa": 1}), 0.0, True),
    (SetSpec("F_alpha", {"alpha": 1}), 1.0, False),
    (SetSpec("F_alpha", {"alpha": 2}), 0.5, False),
    (SetSpec("F_alpha", {"alpha": math.inf}), 0.0, False),
    (SetSpec("F_alpha", {"alpha": 0.5}), 0.0, True),
    (SetSpec("C_psi_beta", {"psi": lil_profile(), "beta": 1}), 1.0, False),
    (SetSpec("E_alpha_beta", {"alpha": 0.5, "beta": -4}), 1.0, False),
    (SetSpec("E_alpha_beta", {"alpha": 1, "beta": -1}), 1.0, False),
    (SetSpec("E_alpha_beta", {"alpha": 1, "beta": -1.5}), 0.0, True),
    (SetSpec("E_alpha_beta", {"alpha": 2, "beta": 1}), 1.0, False),
    (SetSpec("E_alpha_beta", {"alpha": 2, "beta": -0.5}), 0.0, True),
    (SetSpec("L_beta", {"beta": -1}), 1.0, False),
    (SetSpec("L_beta", {"beta": 1}), 1.0, False),
    (SetSpec("E_star", {"u": builtin_profiles()["scale_geometric3"]}), 1.0, False),
    (SetSpec("A_kappa", {"kappa": math.inf}), 0.0, True),
]


@pytest.mark.parametrize("spec,value,empty", ANALYTIC_TABLE)
def test_analytic_dimension_table(spec, value, empty):
    report = analytic_dimension(spec, window=512)
    assert report.value == pytest.approx(value, abs=1e-9)
    assert report.empty == empty


def test_analytic_dimension_takes_the_emptiness_verdict():
    # the parameter-region families are empty exactly where emptiness_check
    # proves it, and then report its reason
    for spec, _, empty in ANALYTIC_TABLE:
        if spec.family in ("E_phi", "C_psi_beta", "E_star"):
            continue
        verdict = emptiness_check(spec)
        report = analytic_dimension(spec)
        assert verdict.empty == report.empty == empty, spec.describe()
        if empty:
            assert verdict.status == "proven"
            assert (report.value, report.status, report.detail) == (0.0, "exact", verdict.detail)


def test_analytic_dimension_scale_windows():
    # log u grows polynomially in both cases, so eta vanishes and dim = 1
    for name in ("scale_exp_sqrt", "scale_exp_square"):
        spec = SetSpec("E_star", {"u": builtin_profiles()[name]})
        report = analytic_dimension(spec, window=400)
        assert report.value == pytest.approx(1.0, abs=1e-6)


def test_e_bounds_takes_the_e_star_formula_only_for_e_star_windows():
    # the windows (n + o) u(n) < d_n <= (n + o + 1) u(n) are E_star(u)'s only
    # at o = 0; at o = 1 they are scale windows with no formula
    u = builtin_profiles()["scale_geometric3"]
    star = analytic_dimension(SetSpec("E_bounds", {"bounds": bounds_from_scale(u)}))
    assert (star.value, star.status) == (1.0, "exact")
    shifted = BoundsProfile(index_scaled_profile(u, 1), index_scaled_profile(u, 2))
    assert shifted._window_scale() is u
    report = analytic_dimension(SetSpec("E_bounds", {"bounds": shifted}))
    assert (report.value, report.status) == (None, "refused")


def test_analytic_dimension_window_certified_square():
    spec = SetSpec("E_phi", {"profile": power_profile(2)})
    report = analytic_dimension(spec, window=2_000)
    assert report.status == "window_certified"
    assert report.value == pytest.approx(1.0, abs=2e-3)


def test_analytic_dimension_refuses_generic():
    spec = SetSpec(
        "S_generic", {"m": 1, "h1": affine_profile(2), "h2": affine_profile(1)}
    )
    report = analytic_dimension(spec)
    assert report.status == "refused"
    assert report.value is None


def test_analytic_dimension_refuses_oscillating_profile():
    wobble = table_profile([Fraction(2 + (k % 7)) for k in range(1, 257)])
    report = analytic_dimension(SetSpec("E_phi", {"profile": wobble}), window=255)
    assert report.status == "refused"
    assert report.limits  # window report still attached


def test_find_cover_start():
    assert find_cover_start(builtin_profiles()["log2"], 0.01) == 2
    assert find_cover_start(builtin_profiles()["geometric3"], 0.01) == 1


def _full_scan_row_ok(phi, epsilon, n):
    """Row n's window conditions as `find_cover_start` decided them before
    its widening rule: two certified floors, or floats above e^44."""
    hi_exp = float(phi.mp_value(n)) * (1 + epsilon)
    if hi_exp <= 44:
        lo_floor = dimension.certified_floor(
            lambda iv: iv.exp((1 - iv.mpf(epsilon)) * phi.iv_value(n, iv))
        )
        hi_floor = dimension.certified_floor(
            lambda iv: iv.exp((1 + iv.mpf(epsilon)) * phi.iv_value(n, iv))
        )
        return lo_floor + 1 <= hi_floor and n <= hi_floor
    lo_exp = float(phi.mp_value(n)) * (1 - epsilon)
    gap = hi_exp - lo_exp
    gap_ok = gap > 40 or lo_exp + math.log(math.expm1(gap)) >= 0
    return gap_ok and hi_exp >= math.log(n + 1)


def _full_scan_cover_start(phi, epsilon, scan_limit=256):
    """`find_cover_start` as it was before its widening rule: every row up
    to scan_limit is decided.  Kept as the oracle for the rule."""
    last_bad = 0
    for n in range(phi.min_index, scan_limit + 1):
        if not _full_scan_row_ok(phi, epsilon, n):
            last_bad = n
    start = max(last_bad + 1, phi.min_index)
    if start > scan_limit:
        raise ValueError(f"window conditions still failing at scan limit {scan_limit}")
    return start


def _cover_outcome(search, *args):
    try:
        return search(*args)
    except (ValueError, PrecisionError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _log_cover_cases(draw):
    """(log profile, eps, scan limit) with c(1+eps) at 1, just below it, or
    a random positive rational c, up to windows decided in floats."""
    eps = float(draw(st.fractions(Fraction(1, 1000), Fraction(999, 1000), max_denominator=1000)))
    top = {
        "random": None,
        "at_one": Fraction(1),
        "below_one": 1 - Fraction(1, 10**6),
    }[draw(st.sampled_from(["random"] * 6 + ["below_one"] * 2 + ["at_one"]))]
    if top is None:
        c = draw(st.fractions(Fraction(1, 20), 40, max_denominator=20).filter(lambda v: v > 0))
    else:
        c = top / (1 + Fraction(eps))
    return log_profile(c), eps, draw(st.integers(2, 256))


@settings(max_examples=25, deadline=None)
@given(_log_cover_cases())
# at c(1+eps) = 1 the top of row 2 is exactly 2: both raise PrecisionError
@example((log_profile(1 / (1 + Fraction(0.25))), 0.25, 256))
def test_cover_start_rule_agrees_with_the_full_scan(case):
    phi, epsilon, scan_limit = case
    # the rule's scan limit is a module constant; the oracle takes it as an argument
    with mock.patch.object(dimension, "_SCAN_LIMIT", scan_limit):
        found = _cover_outcome(find_cover_start, phi, epsilon)
    assert found == _cover_outcome(_full_scan_cover_start, phi, epsilon, scan_limit)


def test_cover_start_after_a_failing_row_two():
    # 2^(17/5 * 0.99) and 2^(17/5 * 1.01) share the floor 10, so row 2 fails
    phi = log_profile(Fraction(17, 5))
    assert find_cover_start(phi, 0.01) == _full_scan_cover_start(phi, 0.01) == 3


def test_cover_start_is_not_stopped_by_a_narrow_window_that_holds_an_integer():
    # row 6's window (10.65, 11.17] holds 11 but is narrower than 1, and
    # row 7's (13.05, 13.74] holds none: the scan runs on to row 10
    phi = log_profile(Fraction(4, 3))
    assert find_cover_start(phi, 0.01) == _full_scan_cover_start(phi, 0.01) == 8


def _count_floors(monkeypatch):
    """A list that gains one entry per certified floor `dimension` takes."""
    rows = []
    original = dimension.certified_floor

    def counting(expr, *args):
        rows.append(expr)
        return original(expr, *args)

    monkeypatch.setattr(dimension, "certified_floor", counting)
    return rows


def test_cover_start_rule_stops_at_the_first_row_wider_than_one(monkeypatch):
    floors = _count_floors(monkeypatch)
    assert find_cover_start(builtin_profiles()["log2"], 0.01) == 2
    # rows 2..6, the first whose floors (34, 37) differ by 2 or more; the
    # full scan takes two floors on each of rows 2..256
    assert len(floors) <= 12
    floors.clear()
    assert _full_scan_cover_start(builtin_profiles()["log2"], 0.01) == 2
    assert len(floors) == 510


@pytest.mark.parametrize(
    "phi",
    [
        builtin_profiles()["geometric3"],
        sqrt_profile(),
        power_profile(2),
        linear_log_profile(3),
        exponential_profile(Fraction(3, 2), coeff=Fraction(1, 7)),
        table_profile([Fraction(k, 3) for k in range(1, 257)]),
        log_profile(2.0),  # a float coeff is outside the rule
        log_profile(Fraction(1, 2)),  # c(1+eps) < 1 is outside the rule
    ],
    ids=lambda phi: phi.label,
)
def test_kinds_outside_the_cover_rule_are_scanned_as_before(monkeypatch, phi):
    reads = Counter()
    original = GrowthProfile.mp_value

    def counting(self, n):
        reads[n] += 1
        return original(self, n)

    monkeypatch.setattr(GrowthProfile, "mp_value", counting)
    floors = _count_floors(monkeypatch)
    got = _cover_outcome(find_cover_start, phi, 0.01)
    calls = (Counter(reads), len(floors))
    reads.clear()
    floors.clear()
    assert got == _cover_outcome(_full_scan_cover_start, phi, 0.01, 256)
    assert calls == (reads, len(floors))


def test_cover_bound_positive():
    v = window_cover_bound(builtin_profiles()["log2"], 0.01, 2, 50)
    assert float(v) > 0


def test_cover_chains_small_window_trend():
    log2 = builtin_profiles()["log2"]
    chains = window_cover_chains(log2, 0.01, 2, 400)
    c1 = chains["chain1"][-1].ratio
    assert c1 == pytest.approx(1.0202, abs=2e-2)
    geo = builtin_profiles()["geometric3"]
    chains = window_cover_chains(geo, 0.01, 1, 60)
    assert chains["chain1"][-1].ratio == pytest.approx(1.01 / 0.99 / 3, abs=1e-6)

