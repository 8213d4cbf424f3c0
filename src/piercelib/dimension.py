"""Finite-level Hausdorff-dimension bound sequences and analytic formulas.

Everything here runs in log space over exact integer or certified
high-precision inputs: branch-count products and interval diameters overflow
any fixed-width float, but their logs accumulate stably.  Limit quantities
(gamma, xi, theta, eta) are only ever reported as windowed min/max/last
triples; the analytic dimension table consumes either stated limits or
window estimates that pass a stabilization check, and refuses otherwise.
Parameter-region families take their empty regions from
`families.emptiness_check`.

The ratio sequences (lower, upper, box, gap) and the two cover chains are
closed formulas over columns of bound rows (log r_k, log l_k, log Delta_k,
log m_k or phi(k)), each row evaluated once per call, on the rows its
formula reads; prefix sums start from a row 0 of 0, so they add in
running-total order.  A `dim` document hands its lower/upper, box and gap
sequences one bounds profile read through a row memo (`profiles._memo_rows`):
each row's value, log and floor of l and r, its log Delta, and each row of a
profile node that l and r share (u under n*u(n) and (n+1)*u(n)) is evaluated
once per (row, context, precision) per document; the memo lives only as long
as that document.

`find_cover_start` proves its start instead of scanning to its limit where
the profile allows it: for phi = c log n with c(1+eps) >= 1 the windows
widen with n, so the scan stops at the first row wider than 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import mpmath

from ._precision import DEFAULT_PRECISION_BITS, certified_floor
from .expansion import is_admissible
from .families import SetSpec, count_constrained_words, emptiness_check, enumerate_constrained_words
from .intervals import family_basic_interval
from .profiles import (
    DEFAULT_WINDOW,
    BoundsProfile,
    GrowthProfile,
    check_deviation_scale,
)


@dataclass(frozen=True)
class RatioPoint:
    """One level of a covering-ratio sequence; ratio = log_count/log_inv_diam."""

    n: int
    log_count: float
    log_inv_diam: float
    ratio: float


@dataclass(frozen=True)
class DimensionEstimate:
    lower_seq: list[RatioPoint]
    upper_seq: list[RatioPoint]


@dataclass(frozen=True)
class LimitEstimate:
    quantity: str
    values: list[tuple[int, float]]
    summary: dict[str, float]

    @property
    def last(self) -> float:
        return self.summary["last"]


def _column(f, last: int, first: int = 1) -> list:
    """One bound row per level, [0, .., 0, f(first), .., f(last)], evaluated
    once under the caller's mpmath precision.  Row 0 starts the prefix sums;
    rows below `first` are not read from f and hold 0."""
    return [mpmath.mpf(0)] * first + [f(k) for k in range(first, last + 1)]


def _log_counts(bounds: BoundsProfile, last: int, least: int, message: str) -> list:
    """Column of log m_k over the branch counts m_k, each at least `least`."""

    def log_count(k: int):
        m = bounds.branch_count(k)
        if m < least:
            raise ValueError(message.format(k))
        return mpmath.log(m)

    return _column(log_count, last)


def _points(levels, num, den) -> list[RatioPoint]:
    """RatioPoint(n, num[n], den[n]) for each level whose denominator (a log
    inverse diameter) is positive."""
    return [
        RatioPoint(n, float(num[n]), float(den[n]), float(num[n] / den[n]))
        for n in levels
        if float(den[n]) > 0
    ]


# -- closed-form bound sequences ----------------------------------------------


def dimension_bound_sequences(
    bounds: BoundsProfile, n_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> DimensionEstimate:
    """Two closed-form ratio sequences whose liminf values sandwich the
    Hausdorff dimension of the digit-window set:

      lower(n) = log(prod_{k<=n} Delta_k)
                 / log((r_{n+1} r_{n+2} / (Delta_{n+1} Delta_{n+2})) prod_{k<=n+1} r_k)
      upper(n) = log(prod_{k<=n} Delta_k)
                 / log((r_{n+1}/Delta_{n+1}) prod_{k<=n+1} l_k)

    No enumeration; pure log sums of the bound rows 1..n_max+2.
    """
    k0 = bounds.threshold
    if n_max < k0 + 2:
        raise ValueError(f"n_max must be >= threshold + 2 = {k0 + 2}")
    with mpmath.workprec(precision_bits):
        log_delta = _column(bounds.log_delta, n_max + 2)
        log_r = _column(bounds.r.log_value, n_max + 2)
        log_l = _column(bounds.l.log_value, n_max + 2)
        sum_delta, sum_r, sum_l = (list(accumulate(c)) for c in (log_delta, log_r, log_l))
        levels = range(k0 + 1, n_max + 1)
        den_lower = {
            n: sum_r[n + 1] + log_r[n + 1] + log_r[n + 2] - log_delta[n + 1] - log_delta[n + 2]
            for n in levels
        }
        den_upper = {n: sum_l[n + 1] + log_r[n + 1] - log_delta[n + 1] for n in levels}
        return DimensionEstimate(
            lower_seq=_points(levels, sum_delta, den_lower),
            upper_seq=_points(levels, sum_delta, den_upper),
        )


def box_ratio_sequence(
    bounds: BoundsProfile,
    n_max: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    enum_cap: int = 4096,
) -> list[RatioPoint]:
    """Box-counting upper-bound ratios: exact cover counts against the
    diameter bound diam <= 2 (prod_{k<=n+1} 1/l_k) Delta_{n+1}/r_{n+1}, from
    the counts at rows 1..n_max, l at rows 1..n_max+1, and r and Delta at
    rows 2..n_max+1.

    Where enumeration is cheap and the bound rows are exact rationals, the
    true maximal diameter at levels n <= 4 is computed exactly and checked
    against the bound.
    """
    with mpmath.workprec(precision_bits):
        log_m = _log_counts(bounds, n_max, 1, "digit window closes at level {}")
        log_l = _column(bounds.l.log_value, n_max + 1)
        log_r = _column(bounds.r.log_value, n_max + 1, first=2)
        log_delta = _column(bounds.log_delta, n_max + 1, first=2)
        for n in range(bounds.threshold + 1, min(n_max, 4) + 1):
            _assert_diameter_bound(bounds, n, enum_cap)
        sum_m, sum_l = list(accumulate(log_m)), list(accumulate(log_l))
        levels = range(bounds.threshold + 1, n_max + 1)
        log_two = mpmath.log(2)
        log_inv = {n: -log_two + sum_l[n + 1] + log_r[n + 1] - log_delta[n + 1] for n in levels}
        return _points(levels, sum_m, log_inv)


def _assert_diameter_bound(bounds: BoundsProfile, n: int, enum_cap: int) -> None:
    """With exact rational rows, check the true max diameter of the level-n
    basic intervals against the closed-form bound."""
    values = [(bounds.l.value(k), bounds.r.value(k)) for k in range(1, n + 2)]
    if any(lv is None or rv is None for lv, rv in values):
        return
    if count_constrained_words(n, bounds) > enum_cap:
        return
    prod_l = math.prod(lv for lv, _ in values)
    l_next, r_next = values[-1]
    bound = 2 * (r_next - l_next) / (prod_l * r_next)
    worst = max(
        family_basic_interval(word, bounds).length
        for word in enumerate_constrained_words(n, bounds, cap=enum_cap)
    )
    if worst > bound:
        raise AssertionError(f"diameter bound violated at level {n}: {worst} > {bound}")


def gap_ratio_sequence(
    bounds: BoundsProfile, n_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> list[RatioPoint]:
    """Gap-based lower-bound ratios log(prod_{k<=n} m_k) /
    log(1/(m_{n+1} eps_{n+1})), with the per-level gap bound

      log eps_{n+1} = -log 2 - sum_{k<=n} log r_k - 2 log r_{n+1} - log r_{n+2}
                      + log Delta_{n+2}

    from the counts at rows 1..n_max+1, r at rows 1..n_max+2 and Delta at
    rows 3..n_max+2 (log l is never taken: l_k = 0 is a legal bound).
    Requires at least two digit choices per level and strictly shrinking eps
    beyond the threshold."""
    k0 = bounds.threshold
    if n_max < k0 + 1:
        raise ValueError(f"n_max must be >= threshold + 1 = {k0 + 1}")
    with mpmath.workprec(precision_bits):
        log_m = _log_counts(bounds, n_max + 1, 2, "fewer than 2 digit choices at level {}")
        log_r = _column(bounds.r.log_value, n_max + 2)
        log_delta = _column(bounds.log_delta, n_max + 2, first=3)
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
        return _points(levels, sum_m, log_inv)


def count_log_bounds(
    bounds: BoundsProfile, n: int, margin: float = 0.01
) -> tuple[float, float, float]:
    """Log-space bracket for the level-n word count: the count lies within
    factor c^n of prod Delta_k for any c > Delta/(Delta - 1) with
    Delta = inf Delta_k; returns (log_lower, log_upper, c)."""
    deltas = [float(bounds.mp_delta(k)) for k in range(1, n + 1)]
    d_inf = min(deltas)
    if d_inf <= 1:
        raise ValueError(f"window width {d_inf} <= 1 gives no usable constant")
    c = d_inf / (d_inf - 1) + margin
    log_prod = sum(math.log(d) for d in deltas)
    return log_prod - n * math.log(c), log_prod + n * math.log(c), c


# -- limit quantities -----------------------------------------------------------


def estimate_limits(
    profile: GrowthProfile,
    quantity: str,
    window: tuple[int, int],
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> LimitEstimate:
    """Windowed values of a limit quantity of the profile.

      gamma: phi(n)/log n          xi: phi(n+1)/sum_{k<=n} phi(k)
      theta: n phi(n)/sum phi(k)   eta: (n log n + log u_{n+1})/sum log u_k
    """
    if quantity not in ("gamma", "xi", "theta", "eta"):
        raise ValueError(f"unknown limit quantity {quantity!r}")
    n_lo, n_hi = window
    n_lo = max(n_lo, profile.min_index, 2 if quantity == "gamma" else profile.min_index)
    if n_hi < n_lo:
        raise ValueError("empty window")
    values: list[tuple[int, float]] = []
    with mpmath.workprec(precision_bits):
        if quantity == "gamma":
            for n in range(n_lo, n_hi + 1):
                values.append((n, _to_float(profile.mp_value(n) / mpmath.log(n))))
        elif quantity in ("xi", "theta"):
            total = mpmath.mpf(0)
            for k in range(profile.min_index, n_lo):
                total += profile.mp_value(k)
            for n in range(n_lo, n_hi + 1):
                total += profile.mp_value(n)
                if quantity == "xi":
                    values.append((n, _to_float(profile.mp_value(n + 1) / total)))
                else:
                    values.append((n, _to_float(n * profile.mp_value(n) / total)))
        else:  # eta
            total = mpmath.mpf(0)
            for k in range(profile.min_index, n_lo):
                total += profile.log_value(k)
            for n in range(n_lo, n_hi + 1):
                total += profile.log_value(n)
                if total <= 0:
                    continue
                num = n * mpmath.log(n) + profile.log_value(n + 1)
                values.append((n, _to_float(num / total)))
    if not values:
        raise ValueError("window produced no values")
    floats = [v for _, v in values]
    summary = {"min": min(floats), "max": max(floats), "last": floats[-1]}
    return LimitEstimate(quantity=quantity, values=values, summary=summary)


def _to_float(x) -> float:
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _stabilized(values: list[float]) -> float | None:
    """Accept a windowed limit when the last quarter drifts by at most
    max(0.05, 2% of the last value); route monotone blow-ups to infinity."""
    tail = values[-max(2, len(values) // 4):]
    last = tail[-1]
    if last == math.inf or (
        last > 50 and all(b >= a for a, b in zip(tail, tail[1:]))
    ):
        return math.inf
    drift = max(tail) - min(tail)
    if drift <= max(0.05, 0.02 * abs(last)):
        return last
    return None


# -- analytic dimension table ----------------------------------------------------


@dataclass(frozen=True)
class AnalyticDimension:
    value: float | None
    status: str  # "exact" | "window_certified" | "refused"
    empty: bool = False
    detail: str = ""
    limits: dict[str, LimitEstimate] = field(default_factory=dict)


def _limit_or_stated(
    profile: GrowthProfile, quantity: str, window: int
) -> tuple[float | None, bool, LimitEstimate | None]:
    """(value, was_stated, window_report); value None when not stabilizing."""
    stated = profile.analytic.get(quantity)
    if stated is not None:
        return stated, True, None
    est = estimate_limits(profile, quantity, (max(2, profile.min_index), window))
    return _stabilized([v for _, v in est.values]), False, est


# parameter-region families: empty exactly where `emptiness_check` proves it,
# else of dimension 1 (F_alpha: 1/alpha)
_REGION_FAMILIES = frozenset(
    {"A_alpha", "A_kappa", "B_alpha", "B_kappa", "E_alpha_beta", "F_alpha", "L_beta"}
)


def analytic_dimension(spec: SetSpec, window: int = DEFAULT_WINDOW) -> AnalyticDimension:
    """Hausdorff dimension of the family per the proven formula table.

    Conventions: 1/inf = 0 and values for empty families are 0 with the empty
    flag set.  Families whose formula needs a limit (growth-target and
    scale-window families) use stated limits when the profile carries them,
    else window estimates; refusal when the window does not stabilize.
    """
    fam, p = spec.family, spec.params
    if fam == "E_phi":
        return _dimension_growth_target(p["profile"], window)
    if fam in _REGION_FAMILIES:
        verdict = emptiness_check(spec)
        if verdict.empty:
            return AnalyticDimension(0.0, "exact", empty=True, detail=verdict.detail)
        if fam == "F_alpha":
            alpha = p["alpha"]
            return AnalyticDimension(0.0 if alpha == math.inf else 1.0 / float(alpha), "exact")
        return AnalyticDimension(1.0, "exact")
    if fam == "C_psi_beta":
        report = check_deviation_scale(p["psi"], window)
        if not report["ok"]:
            return AnalyticDimension(
                None, "refused", detail=f"scale conditions fail: {report['reason']}"
            )
        status = "exact" if report.get("certified") == "stated" else "window_certified"
        return AnalyticDimension(1.0, status)
    if fam == "E_star":
        return _dimension_scale_window(p["u"], window)
    if fam == "E_bounds":
        bounds: BoundsProfile = p["bounds"]
        if bounds.scale is not None:
            return _dimension_scale_window(bounds.scale, window)
        if "dimension" in bounds.analytic:
            return AnalyticDimension(
                bounds.analytic["dimension"],
                "window_certified",
                detail="constructed digit window with known dimension",
            )
        return AnalyticDimension(
            None, "refused", detail="no analytic formula for generic digit windows"
        )
    return AnalyticDimension(None, "refused", detail="no analytic formula for this family")


def _dimension_growth_target(phi: GrowthProfile, window: int) -> AnalyticDimension:
    gamma, gamma_stated, gamma_est = _limit_or_stated(phi, "gamma", window)
    limits = {k: v for k, v in (("gamma", gamma_est),) if v is not None}
    if gamma is None:
        return AnalyticDimension(
            None,
            "refused",
            detail="growth ratio phi(n)/log n does not stabilize on the window",
            limits=limits,
        )
    if gamma < 1:
        status = "exact" if gamma_stated else "window_certified"
        return AnalyticDimension(0.0, status, empty=True, detail=f"gamma = {gamma} < 1", limits=limits)
    if gamma != math.inf:
        status = "exact" if gamma_stated else "window_certified"
        return AnalyticDimension(1.0 - 1.0 / gamma, status, detail=f"gamma = {gamma}", limits=limits)
    xi, xi_stated, xi_est = _limit_or_stated(phi, "xi", window)
    if xi_est is not None:
        limits["xi"] = xi_est
    if xi is None:
        return AnalyticDimension(
            None,
            "refused",
            detail="tail ratio xi does not stabilize on the window",
            limits=limits,
        )
    status = "exact" if (gamma_stated and xi_stated) else "window_certified"
    return AnalyticDimension(
        1.0 / (1.0 + xi), status, detail=f"gamma = inf, xi = {xi}", limits=limits
    )


def _dimension_scale_window(u: GrowthProfile, window: int) -> AnalyticDimension:
    eta, eta_stated, eta_est = _limit_or_stated(u, "eta", window)
    limits = {k: v for k, v in (("eta", eta_est),) if v is not None}
    if eta is None:
        return AnalyticDimension(
            None,
            "refused",
            detail="scale ratio eta does not stabilize on the window",
            limits=limits,
        )
    status = "exact" if eta_stated else "window_certified"
    value = 0.0 if eta == math.inf else 1.0 / (1.0 + eta)
    return AnalyticDimension(value, status, detail=f"eta = {eta}", limits=limits)


# -- cover bounds for exponential digit targets ------------------------------------


def _require_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")


def find_cover_start(
    phi: GrowthProfile, epsilon: float, scan_limit: int = 256
) -> int:
    """Smallest m so that, for every scanned n >= m, the digit window
    (e^{(1-eps) phi(n)}, e^{(1+eps) phi(n)}] contains an integer and contains
    one at least n.  Scanned up to scan_limit; failure reported, not guessed.

    Rows are scanned upward.  Where phi = c log n with a rational c > 0 and
    c(1+eps) >= 1 holds exactly, the scan stops at the first row whose two
    certified window floors differ by at least 2: that row and every later
    one are proved to pass (`_windows_widen`).  Every other profile, and
    every row whose window is decided in floats, is scanned to scan_limit.
    """
    _require_epsilon(epsilon)
    widening = _windows_widen(phi, epsilon)
    last_bad = 0
    for n in range(phi.min_index, scan_limit + 1):
        ok, floor_gap = _cover_row(phi, epsilon, n)
        if not ok:
            last_bad = n
        elif widening and floor_gap is not None and floor_gap >= 2:
            break
    start = max(last_bad + 1, phi.min_index)
    if start > scan_limit:
        raise ValueError(f"window conditions still failing at scan limit {scan_limit}")
    return start


def _windows_widen(phi: GrowthProfile, epsilon: float) -> bool:
    """True when phi = c log n, c a positive rational, and c(1+eps) >= 1.

    With a = c(1-eps) and b = c(1+eps), the level-n window is (n^a, n^b] with
    0 < a < b and b >= 1.  Its width n^b - n^a has derivative
    n^(a-1) (b n^(b-a) - a) > 0 for n >= 1, so it never shrinks, and its top
    n^b >= n.  A row whose floors differ by at least 2 has width above 1, so
    it and every later row hold an integer, and floor(n^b) >= n.  Floors
    above 2^53 are rounded to mpmath.mp.prec (ROADMAP item 9), but a window
    that high is wider than 1 by orders of magnitude for any eps above
    1e-15, so the stop stays sound there."""
    if phi.kind != "log":
        return False
    c = phi.params["coeff"]
    return isinstance(c, (int, Fraction)) and c > 0 and c * (1 + Fraction(epsilon)) >= 1


def _cover_row(phi: GrowthProfile, epsilon: float, n: int) -> tuple[bool, int | None]:
    """(row n's window conditions hold, floor of its top minus floor of its
    bottom), the floor gap None where the window is decided in floats."""
    hi_exp = float(phi.mp_value(n)) * (1 + epsilon)
    if hi_exp <= 44:  # value fits comfortably below 2^64: use exact floors
        lo_floor = certified_floor(
            lambda iv: iv.exp((1 - iv.mpf(epsilon)) * phi.iv_value(n, iv))
        )
        hi_floor = certified_floor(
            lambda iv: iv.exp((1 + iv.mpf(epsilon)) * phi.iv_value(n, iv))
        )
        return lo_floor + 1 <= hi_floor and n <= hi_floor, hi_floor - lo_floor
    # huge windows: e^{hi} - e^{lo} >= 1 and e^{hi} >= n + 1 suffice
    lo_exp = float(phi.mp_value(n)) * (1 - epsilon)
    gap = hi_exp - lo_exp
    gap_ok = gap > 40 or lo_exp + math.log(math.expm1(gap)) >= 0
    return gap_ok and hi_exp >= math.log(n + 1), None


def _cover_rows(phi: GrowthProfile, eps, m: int, last: int):
    """phi(k) and the logs of the two level-k cover-count bounds for
    k = m..last, indexed by level, with phi evaluated once per level:

      num1(n) = m (1+eps) phi(m) + sum_{k=m+1}^{n} (1+eps) phi(k)
      num2(n) = n (1+eps) phi(n) + (n-1) - n log n
    """
    values = _column(phi.mp_value, last, first=m)
    terms = [(1 + eps) * v for v in values]
    terms[m] = m * (1 + eps) * values[m]
    num2 = {
        n: n * (1 + eps) * values[n] + (n - 1) - n * mpmath.log(n) for n in range(m, last + 1)
    }
    return values, list(accumulate(terms)), num2


def window_cover_bound(
    phi: GrowthProfile,
    epsilon: float,
    m: int,
    n: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> mpmath.mpf:
    """Log of the level-n cover count bound
    min{ e^{m(1+eps)phi(m)} prod_{k=m+1}^{n} e^{(1+eps)phi(k)},
         e^{n(1+eps)phi(n) + (n-1)} / n^n }."""
    _require_epsilon(epsilon)
    if n < m:
        raise ValueError("need n >= m")
    with mpmath.workprec(precision_bits):
        _, num1, num2 = _cover_rows(phi, mpmath.mpf(epsilon), m, n)
        return min(num1[n], num2[n])


def window_cover_chains(
    phi: GrowthProfile,
    epsilon: float,
    m: int,
    n_max: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> dict[str, list[RatioPoint]]:
    """Both cover-count/diameter ratio chains, num1(n) and num2(n) of
    `window_cover_bound` over the shared diameter denominator
    (1-eps) sum_{k=m}^{n+1} phi(k), for n = m+1..n_max."""
    _require_epsilon(epsilon)
    if n_max < m + 1:
        raise ValueError("need n_max > m")
    with mpmath.workprec(precision_bits):
        eps = mpmath.mpf(epsilon)
        values, num1, num2 = _cover_rows(phi, eps, m, n_max + 1)
        sum_phi = list(accumulate(values))
        levels = range(m + 1, n_max + 1)
        den = {n: (1 - eps) * (sum_phi[n] + values[n + 1]) for n in levels}
        return {"chain1": _points(levels, num1, den), "chain2": _points(levels, num2, den)}


# -- cover sums for power-growth digit chains ----------------------------------------


@dataclass(frozen=True)
class CoverSumRecord:
    log_sum: float
    log_bound: float | None
    word_count: int
    truncated: bool
    divergent: bool
    tail_index: int | None
    detail: str


def _power_floor(sigma: int, b) -> int:
    """floor(sigma^b) for a rational b = p/q >= 0, exactly: the integer q-th
    root of sigma^p."""
    if not isinstance(b, (int, Fraction)):
        raise ValueError(f"growth exponent must be an int or a Fraction, got {b!r}")
    b = Fraction(b)
    if b < 0:
        raise ValueError("need growth exponent b >= 0")
    return _integer_root(sigma**b.numerator, b.denominator)


def _integer_root(x: int, q: int) -> int:
    """floor(x^(1/q)) for x >= 0 and q >= 1, by integer Newton from above."""
    if q == 1:
        return x
    if q == 2:
        return math.isqrt(x)
    if x < 2:
        return x
    # 2^ceil(bits/q) > x^(1/q); from above, the Newton step falls to the floor root
    r = 1 << -(-x.bit_length() // q)
    while True:
        s = ((q - 1) * r + x // r ** (q - 1)) // q
        if s >= r:
            return r
        r = s


def power_growth_cover_sum(
    tau: tuple[int, int],
    b,
    s: float,
    n: int,
    cap: int = 8,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> CoverSumRecord:
    """s-diameter cover sum over length-n words starting (tau1, tau2) whose
    digits then satisfy sigma_{k+1} > sigma_k^b, with per-level branching
    truncated at `cap`.

    Each word's diameter is the exact closed-form total of its infinite child
    union: (prod 1/sigma_k) / (floor(sigma_n^b) + 1).  The analytic comparison
    bound zeta(s b)^{M-2} / (tau1^s tau2^{s(1+b)}) converges only for
    s > 1/b; below that the record carries a divergence warning.
    """
    if len(tau) != 2 or not is_admissible(tau):
        raise ValueError("tau must be two strictly increasing positive digits")
    if n < 2:
        raise ValueError("need word length n >= 2")
    b_f = float(b)
    if b_f <= 1:
        raise ValueError("need growth exponent b > 1")
    sb = s * b_f
    divergent = sb <= 1
    with mpmath.workprec(precision_bits):
        log_terms: list[mpmath.mpf] = []
        word_count = 0
        truncated = False

        def log_diam(word: tuple[int, ...]) -> mpmath.mpf:
            total = mpmath.mpf(0)
            for d in word:
                total -= mpmath.log(d)
            return total - mpmath.log(_power_floor(word[-1], b) + 1)

        stack = [tau]
        while stack:
            word = stack.pop()
            if len(word) == n:
                word_count += 1
                log_terms.append(s * log_diam(word))
                continue
            lo = _power_floor(word[-1], b) + 1
            stack.extend(word + (j,) for j in range(lo + cap - 1, lo - 1, -1))
            truncated = True
        peak = max(log_terms)
        log_sum = peak + mpmath.log(
            mpmath.fsum(mpmath.exp(t - peak) for t in log_terms)
        )
        if divergent:
            return CoverSumRecord(
                log_sum=float(log_sum),
                log_bound=None,
                word_count=word_count,
                truncated=truncated,
                divergent=True,
                tail_index=None,
                detail=f"s*b = {sb:.4g} <= 1: tail series diverges, no finite bound",
            )
        tail_index = max(2, math.ceil(1 + (1 / (sb - 1)) ** (1 / (sb - 1))))
        log_zeta = mpmath.log(mpmath.zeta(sb))
        log_bound = (
            (tail_index - 2) * log_zeta
            - s * mpmath.log(tau[0])
            - s * (1 + b_f) * mpmath.log(tau[1])
        )
    return CoverSumRecord(
        log_sum=float(log_sum),
        log_bound=float(log_bound),
        word_count=word_count,
        truncated=truncated,
        divergent=False,
        tail_index=tail_index,
        detail=f"zeta({sb:.4g}) tail certified from index {tail_index}",
    )


# -- factorial bounds -----------------------------------------------------------------


def factorial_bounds(n: int) -> tuple[float, float]:
    """Log-space bracket n log n - (n-1) <= log n! <= (n+1) log n - (n-1)."""
    if n < 1:
        raise ValueError("need n >= 1")
    log_n = math.log(n)
    return n * log_n - (n - 1), (n + 1) * log_n - (n - 1)


def log_factorial(n: int) -> float:
    """log n! by direct summation (cross-check oracle for the bounds)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return float(mpmath.fsum(mpmath.log(k) for k in range(2, n + 1)))
