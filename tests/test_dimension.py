"""Dimension bound sequences, analytic formulas, cover bounds."""

import hashlib
import json
import math
from collections import Counter
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from piercelib import cli, dimension
from piercelib._precision import PrecisionError
from piercelib.dimension import (
    _power_floor,
    analytic_dimension,
    box_ratio_sequence,
    count_log_bounds,
    dimension_bound_sequences,
    estimate_limits,
    factorial_bounds,
    find_cover_start,
    gap_ratio_sequence,
    log_factorial,
    power_growth_cover_sum,
    window_cover_bound,
    window_cover_chains,
)
from piercelib.families import SetSpec, emptiness_check
from piercelib.intervals import log_epsilon_n
from piercelib.profiles import (
    BoundsProfile,
    GrowthProfile,
    affine_profile,
    bounds_from_scale,
    builtin_profiles,
    exponential_profile,
    lil_profile,
    linear_log_profile,
    log_profile,
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
        with mpmath.workprec(128):
            log_eps = log_epsilon_n(bounds, p.n + 1)
        assert p.log_inv_diam == pytest.approx(
            -float(mpmath.log(m[p.n + 1]) + log_eps), rel=1e-15
        )


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


def test_each_bound_row_is_evaluated_once_per_dim_document(monkeypatch, capsys):
    # lower/upper, box and gap of one document share one row memo; the rows
    # are counted on the profiles that memo reads (l and r rebuilt over u)
    owners = {}
    made = cli._memo_rows

    def capture(bounds):
        memo = made(bounds)
        owners.update(l=memo.l._profile, r=memo.r._profile)
        return memo

    monkeypatch.setattr(cli, "_memo_rows", capture)
    calls = _record_rows(
        monkeypatch,
        owners,
        ((GrowthProfile, "mp_value"), (GrowthProfile, "log_value"), (GrowthProfile, "floor")),
    )
    spec = json.dumps(
        {"family": "E_star", "params": {"u": {"kind": "builtin", "name": "scale_geometric3"}}}
    )
    assert cli.main(["dim", spec, "--n-max", "60"]) == 0
    assert {row["bound_kind"] for row in json.loads(capsys.readouterr().out)["data"]} == {
        "lower", "upper", "box", "gap",
    }
    expected = Counter()
    for name in ("l", "r"):
        expected += _once(f"{name}.mp_value", range(1, 63))
        expected += _once(f"{name}.log_value", range(1, 63))
        expected += _once(f"{name}.floor", range(1, 62))
    assert calls == expected


def test_a_dim_document_evaluates_shared_rows_once(monkeypatch, capsys):
    # u = exp(sqrt n) sits under both n*u(n) and (n+1)*u(n), and log Delta is
    # read by the lower/upper, box and gap sequences alike
    walks, deltas = Counter(), Counter()
    original_eval, original_delta = GrowthProfile._eval, BoundsProfile.log_delta

    def counting_eval(self, ctx, n):
        if self.label == "scale_exp_sqrt":
            walks[(n, ctx is mpmath.iv, ctx.prec)] += 1
        return original_eval(self, ctx, n)

    def counting_delta(self, n):
        deltas[n] += 1
        return original_delta(self, n)

    made = cli._memo_rows

    def fresh(bounds):
        walks.clear()  # the document's reads, not bounds_from_scale's certificate
        return made(bounds)

    monkeypatch.setattr(GrowthProfile, "_eval", counting_eval)
    monkeypatch.setattr(BoundsProfile, "log_delta", counting_delta)
    monkeypatch.setattr(cli, "_memo_rows", fresh)
    spec = json.dumps(
        {"family": "E_star", "params": {"u": {"kind": "builtin", "name": "scale_exp_sqrt"}}}
    )
    assert cli.main(["dim", spec, "--n-max", "60"]) == 0
    assert {row["bound_kind"] for row in json.loads(capsys.readouterr().out)["data"]} == {
        "lower", "upper", "box", "gap",
    }
    # values and logs on rows 1..62 in mpmath.mp, enclosures for the floors
    # of rows 1..61 in mpmath.iv; each once per (row, context, precision)
    assert {n for n, in_iv, _ in walks if not in_iv} == set(range(1, 63))
    assert {n for n, in_iv, _ in walks if in_iv} == set(range(1, 62))
    assert set(walks.values()) == {1}
    assert deltas == Counter(range(1, 63))


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


def _cover_outcome(search, phi, epsilon, scan_limit):
    try:
        return search(phi, epsilon, scan_limit)
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
    assert _cover_outcome(find_cover_start, phi, epsilon, scan_limit) == _cover_outcome(
        _full_scan_cover_start, phi, epsilon, scan_limit
    )


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
    got = _cover_outcome(find_cover_start, phi, 0.01, 256)
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


def test_power_growth_cover_sum_frozen():
    record = power_growth_cover_sum((2, 5), 2, 0.6, 3, cap=1)
    assert record.word_count == 1
    assert not record.divergent
    record = power_growth_cover_sum((2, 5), 2, 0.6, 3, cap=2)
    assert record.word_count == 2
    assert record.log_bound is not None
    assert record.log_sum <= record.log_bound
    assert record.tail_index == 3127


def test_power_growth_cover_sum_divergent_flag():
    record = power_growth_cover_sum((2, 5), 2, 0.4, 3, cap=2)
    assert record.divergent
    assert record.log_bound is None


def test_power_growth_diameter_example():
    # closed-form diameter of the infinite child union below (1, 2) with b = 2
    record = power_growth_cover_sum((1, 2), 2, 1.0, 2, cap=1)
    assert math.exp(record.log_sum) == pytest.approx(0.1, abs=1e-12)


def test_power_floor_is_the_exact_integer_root():
    assert _power_floor(8, Fraction(4, 3)) == 16  # 8^(4/3) = 16 exactly
    assert _power_floor(10**6, Fraction(3, 2)) == 10**9
    assert _power_floor(7, 3) == 343
    for b in (1.5, "3/2", Fraction(-1, 2)):
        with pytest.raises(ValueError):
            _power_floor(8, b)
    # an exact power inside the cover sum is decided too
    assert power_growth_cover_sum((2, 4), Fraction(3, 2), 0.9, 3, cap=2).word_count == 2


@settings(max_examples=200, deadline=None)
@given(
    sigma=st.integers(1, 10**4),
    b=st.fractions(0, 12, max_denominator=9),
)
def test_power_floor_brackets_the_root(sigma, b):
    r, p, q = _power_floor(sigma, b), b.numerator, b.denominator
    assert r**q <= sigma**p < (r + 1) ** q


def test_factorial_bounds():
    assert factorial_bounds(1) == (0.0, 0.0)
    for n in (2, 5, 10, 50):
        lo, hi = factorial_bounds(n)
        exact = log_factorial(n)
        assert lo - 1e-9 <= exact <= hi + 1e-9
    assert log_factorial(10) == pytest.approx(math.log(math.factorial(10)))
