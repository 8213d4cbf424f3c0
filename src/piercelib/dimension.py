"""Finite-level Hausdorff-dimension bound sequences and analytic formulas.

Everything here runs in log space over exact integer or certified
high-precision inputs: branch-count products and interval diameters overflow
any fixed-width float, but their logs accumulate stably.  Limit quantities
(gamma, xi, theta, eta) are only ever reported as windowed min/max/last
triples; the analytic dimension table consumes either stated limits or
window estimates that pass a stabilization check, and refuses otherwise.
Parameter-region families take their empty regions from
`families.emptiness_check`.

The ratio sequences (lower, upper, box, gap), the two cover chains and the
windowed limit quantities are closed formulas over columns of rows (log r_k,
log l_k, log Delta_k, log m_k, phi(k) or log u_k), each row evaluated once
per call at the working precision as the lower end of the enclosure that
the floors read.  The sequences and chains sum exactly: a call's columns
become ints on one fixed-point scale (`_fixed`), prefix sums and level
formulas run on those ints, and each printed float is the correctly rounded
value of its exact sum or ratio (`_points`).  A `dim` document is one
question (`profiles._question`), its lower/upper, box and gap sequences or
its cover start and chains alike: each row's logs and floors of l and r, its
log Delta, each phi row and log k, and each row of a profile node that l and
r share (u under n*u(n) and (n+1)*u(n)) is evaluated once per (row,
precision) per document, and the rows are dropped when the document ends.

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
from mpmath.libmp import mpi_add, mpi_exp, mpi_mul, mpi_sub

from ._precision import DEFAULT_PRECISION_BITS, _escalate, _floor_of
from .families import SetSpec, count_constrained_words, emptiness_check, enumerate_constrained_words
from .intervals import family_basic_interval
from .profiles import (
    DEFAULT_WINDOW,
    BoundsProfile,
    GrowthProfile,
    _enclose,
    _log_const,
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


def _log_of(m: int) -> mpmath.mpf:
    """log m, m >= 1 an int, as a row: its shared enclosure's lower end."""
    return mpmath.mp.make_mpf(_log_const(m, mpmath.mp.prec)[0])


def _log_counts(bounds: BoundsProfile, last: int, least: int, message: str) -> list:
    """Column of log m_k over the branch counts m_k, each at least `least`."""

    def log_count(k: int):
        m = bounds.branch_count(k)
        if m < least:
            raise ValueError(message.format(k))
        return _log_of(m)

    return _column(log_count, last)


def _fixed(*columns) -> tuple[int, list[list[int]]]:
    """The mpf columns as exact ints on one scale s: a row m 2^e becomes
    m 2^(e+s), s = max(0, -least e), so each row is its int times 2^-s."""
    rows = [[x._mpf_ for x in column] for column in columns]
    # a non-finite row raises ProfileError before it can reach a column
    assert all(bc >= 0 for column in rows for *_, bc in column), "non-finite row"
    s = max(0, -min(e for column in rows for _, _, e, _ in column))
    return s, [[(-m if sign else m) << (e + s) for sign, m, e, _ in column] for column in rows]


def _points(levels, num, den, s: int) -> list[RatioPoint]:
    """RatioPoint(n, num[n] 2^-s, den[n] 2^-s, num[n]/den[n]) over exact int
    sums, each float correctly rounded by int true division, for each level
    whose denominator (a log inverse diameter) has a positive float."""
    unit = 1 << s
    return [
        RatioPoint(n, num[n] / unit, d, num[n] / den[n]) for n in levels if (d := den[n] / unit) > 0
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
        rows = [_column(f, n_max + 2) for f in (bounds.log_delta, bounds.r.log_value, bounds.l.log_value)]
    s, (log_delta, log_r, log_l) = _fixed(*rows)
    sum_delta, sum_r, sum_l = (list(accumulate(c)) for c in (log_delta, log_r, log_l))
    levels = range(k0 + 1, n_max + 1)
    den_lower = {
        n: sum_r[n + 1] + log_r[n + 1] + log_r[n + 2] - log_delta[n + 1] - log_delta[n + 2]
        for n in levels
    }
    den_upper = {n: sum_l[n + 1] + log_r[n + 1] - log_delta[n + 1] for n in levels}
    return DimensionEstimate(
        lower_seq=_points(levels, sum_delta, den_lower, s),
        upper_seq=_points(levels, sum_delta, den_upper, s),
    )


def box_ratio_sequence(
    bounds: BoundsProfile, n_max: int, precision_bits: int = DEFAULT_PRECISION_BITS, enum_cap: int = 4096
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
        s, (log_m, log_l, log_r, log_delta, (log_two,)) = _fixed(log_m, log_l, log_r, log_delta, [_log_of(2)])
    sum_m, sum_l = list(accumulate(log_m)), list(accumulate(log_l))
    levels = range(bounds.threshold + 1, n_max + 1)
    log_inv = {n: -log_two + sum_l[n + 1] + log_r[n + 1] - log_delta[n + 1] for n in levels}
    return _points(levels, sum_m, log_inv, s)


def _assert_diameter_bound(bounds: BoundsProfile, n: int, enum_cap: int) -> None:
    """With exact rational rows, check the true max diameter of the level-n
    basic intervals against the closed-form bound."""
    rows = [(bounds.l._ratio(k), bounds.r._ratio(k)) for k in range(1, n + 2)]
    if any(lv is None or rv is None for lv, rv in rows):
        return
    if count_constrained_words(n, bounds) > enum_cap:
        return
    # the bound over integer pairs; r_{n+1}'s denominator cancels against the difference's
    (ln, ld), (rn, rd) = rows[-1]
    prod_num = math.prod(lv[0] for lv, _ in rows)
    prod_den = math.prod(lv[1] for lv, _ in rows)
    bound = Fraction(2 * (rn * ld - ln * rd) * prod_den, ld * prod_num * rn)
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
        s, (log_m, log_r, log_delta, (log_two,)) = _fixed(log_m, log_r, log_delta, [_log_of(2)])
    sum_m, sum_r = list(accumulate(log_m)), list(accumulate(log_r))
    levels = range(k0 + 1, n_max + 1)
    log_eps = {
        n: -log_two - sum_r[n] - 2 * log_r[n + 1] - log_r[n + 2] + log_delta[n + 2] for n in levels
    }
    for n in levels[1:]:
        if not log_eps[n] < log_eps[n - 1]:
            raise ValueError(f"gap bound fails to shrink at level {n + 1}")
    log_inv = {n: -(log_m[n + 1] + log_eps[n]) for n in levels}
    return _points(levels, sum_m, log_inv, s)


def count_log_bounds(bounds: BoundsProfile, n: int) -> tuple[float, float, float]:
    """Log-space bracket for the level-n word count: the count lies within
    factor c^n of prod Delta_k for any c > Delta/(Delta - 1), Delta =
    inf Delta_k; returns (log_lower, log_upper, c), c taken 0.01 above.
    It reads the log Delta column, so no window width is formed as a float."""
    log_deltas = [float(bounds.log_delta(k)) for k in range(1, n + 1)]
    least = min(log_deltas)
    if not least > 0:
        raise ValueError(f"window width {math.exp(least)} <= 1 gives no usable constant")
    c = -1 / math.expm1(-least) + 0.01  # Delta/(Delta - 1) = 1/(1 - 1/Delta)
    log_prod = sum(log_deltas)
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
    levels = range(n_lo, n_hi + 1)
    with mpmath.workprec(precision_bits):
        if quantity == "gamma":
            phi = _column(profile.mp_value, n_hi, first=n_lo)
            values = [(n, float(phi[n] / _log_of(n))) for n in levels]
        else:
            # xi and eta read the row after the window, theta does not
            row = profile.log_value if quantity == "eta" else profile.mp_value
            col = _column(row, n_hi + (quantity != "theta"), first=profile.min_index)
            sums = list(accumulate(col))
            if quantity == "xi":
                values = [(n, float(col[n + 1] / sums[n])) for n in levels]
            elif quantity == "theta":
                values = [(n, float(n * col[n] / sums[n])) for n in levels]
            else:
                values = [
                    (n, float((n * _log_of(n) + col[n + 1]) / sums[n]))
                    for n in levels
                    if sums[n] > 0
                ]
    if not values:
        raise ValueError("window produced no values")
    floats = [v for _, v in values]
    summary = {"min": min(floats), "max": max(floats), "last": floats[-1]}
    return LimitEstimate(quantity=quantity, values=values, summary=summary)


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


def _limit(
    profile: GrowthProfile, quantity: str, window: int, limits: dict[str, LimitEstimate]
) -> float | None:
    """The profile's stated limit, else its window estimate, which is filed
    in `limits`; None when the estimate does not stabilize."""
    stated = profile.analytic.get(quantity)
    if stated is not None:
        return stated
    est = limits[quantity] = estimate_limits(profile, quantity, (max(2, profile.min_index), window))
    return _stabilized([v for _, v in est.values])


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
        u = bounds._window_scale()
        if u is not None and bounds.l.params.get("offset", 0) == 0:  # E_star(u)'s windows
            return _dimension_scale_window(u, window)
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
    limits: dict[str, LimitEstimate] = {}
    gamma = _limit(phi, "gamma", window, limits)
    if gamma is None:
        return AnalyticDimension(
            None,
            "refused",
            detail="growth ratio phi(n)/log n does not stabilize on the window",
            limits=limits,
        )
    # a limit is exact when stated, and window-certified when estimated
    status = "window_certified" if limits else "exact"
    if gamma < 1:
        return AnalyticDimension(0.0, status, empty=True, detail=f"gamma = {gamma} < 1", limits=limits)
    if gamma != math.inf:
        return AnalyticDimension(1.0 - 1.0 / gamma, status, detail=f"gamma = {gamma}", limits=limits)
    xi = _limit(phi, "xi", window, limits)
    if xi is None:
        return AnalyticDimension(
            None,
            "refused",
            detail="tail ratio xi does not stabilize on the window",
            limits=limits,
        )
    status = "window_certified" if limits else "exact"
    return AnalyticDimension(
        1.0 / (1.0 + xi), status, detail=f"gamma = inf, xi = {xi}", limits=limits
    )


def _dimension_scale_window(u: GrowthProfile, window: int) -> AnalyticDimension:
    limits: dict[str, LimitEstimate] = {}
    eta = _limit(u, "eta", window, limits)
    if eta is None:
        return AnalyticDimension(
            None,
            "refused",
            detail="scale ratio eta does not stabilize on the window",
            limits=limits,
        )
    status = "window_certified" if limits else "exact"
    value = 0.0 if eta == math.inf else 1.0 / (1.0 + eta)
    return AnalyticDimension(value, status, detail=f"eta = {eta}", limits=limits)


# -- cover bounds for exponential digit targets ------------------------------------


_SCAN_LIMIT = 256  # last row `find_cover_start` scans


def _require_epsilon(epsilon: float) -> None:
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")


def find_cover_start(phi: GrowthProfile, epsilon: float) -> int:
    """Smallest m so that, for every scanned n >= m, the digit window
    (e^{(1-eps) phi(n)}, e^{(1+eps) phi(n)}] contains an integer and contains
    one at least n.  Scanned up to _SCAN_LIMIT; failure reported, not guessed.

    Rows are scanned upward.  Where phi = c log n with a rational c > 0 and
    c(1+eps) >= 1 holds exactly, the scan stops at the first row whose two
    certified window floors differ by at least 2: that row and every later
    one are proved to pass (`_windows_widen`).  Every other profile, and
    every row whose window is decided in floats, is scanned to _SCAN_LIMIT.
    """
    _require_epsilon(epsilon)
    widening = _windows_widen(phi, epsilon)
    last_bad = 0
    for n in range(phi.min_index, _SCAN_LIMIT + 1):
        ok, floor_gap = _cover_row(phi, epsilon, n)
        if not ok:
            last_bad = n
        elif widening and floor_gap is not None and floor_gap >= 2:
            break
    start = max(last_bad + 1, phi.min_index)
    if start > _SCAN_LIMIT:
        raise ValueError(f"window conditions still failing at scan limit {_SCAN_LIMIT}")
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

        def end(op, prec: int) -> tuple:  # e^{(1 - eps) phi(n)} or e^{(1 + eps) phi(n)}
            return mpi_exp(mpi_mul(op(_enclose(1, prec), _enclose(epsilon, prec), prec), phi._row(n, prec), prec), prec)

        lo_floor = _escalate(lambda prec: end(mpi_sub, prec), _floor_of, "floor")
        hi_floor = _escalate(lambda prec: end(mpi_add, prec), _floor_of, "floor")
        return lo_floor + 1 <= hi_floor and n <= hi_floor, hi_floor - lo_floor
    # huge windows: e^{hi} - e^{lo} >= 1 and e^{hi} >= n + 1 suffice
    lo_exp = float(phi.mp_value(n)) * (1 - epsilon)
    gap = hi_exp - lo_exp
    gap_ok = gap > 40 or lo_exp + math.log(math.expm1(gap)) >= 0
    return gap_ok and hi_exp >= math.log(n + 1), None


def _cover_rows(phi: GrowthProfile, epsilon: float, m: int, last: int):
    """(s, eps, phi(k), num1, num2) for k = m..last, indexed by level, phi
    read once per level: eps and phi exact at scale s (`_fixed`), and the
    logs of the two level-k cover-count bounds exact at scale 2s:

      num1(n) = m (1+eps) phi(m) + sum_{k=m+1}^{n} (1+eps) phi(k)
      num2(n) = n (1+eps) phi(n) + (n-1) - n log n
    """
    values = _column(phi.mp_value, last, first=m)
    s, (values, logs, (eps,)) = _fixed(values, _column(_log_of, last, first=m), [mpmath.mpf(epsilon)])
    grow = (1 << s) + eps
    terms = [grow * v for v in values]
    terms[m] *= m
    num2 = {n: n * grow * values[n] + (n - 1 << 2 * s) - (n * logs[n] << s) for n in range(m, last + 1)}
    return s, eps, values, list(accumulate(terms)), num2


def window_cover_bound(
    phi: GrowthProfile, epsilon: float, m: int, n: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> mpmath.mpf:
    """Log of the level-n cover count bound
    min{ e^{m(1+eps)phi(m)} prod_{k=m+1}^{n} e^{(1+eps)phi(k)},
         e^{n(1+eps)phi(n) + (n-1)} / n^n }."""
    _require_epsilon(epsilon)
    if n < m:
        raise ValueError("need n >= m")
    with mpmath.workprec(precision_bits):
        s, _, _, num1, num2 = _cover_rows(phi, epsilon, m, n)
        return mpmath.mpf((min(num1[n], num2[n]), -2 * s))  # rounded once


def window_cover_chains(
    phi: GrowthProfile, epsilon: float, m: int, n_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> dict[str, list[RatioPoint]]:
    """Both cover-count/diameter ratio chains, num1(n) and num2(n) of
    `window_cover_bound` over the shared diameter denominator
    (1-eps) sum_{k=m}^{n+1} phi(k), for n = m+1..n_max."""
    _require_epsilon(epsilon)
    if n_max < m + 1:
        raise ValueError("need n_max > m")
    with mpmath.workprec(precision_bits):
        s, eps, values, num1, num2 = _cover_rows(phi, epsilon, m, n_max + 1)
    sum_phi = list(accumulate(values))
    levels = range(m + 1, n_max + 1)
    shrink = (1 << s) - eps
    den = {n: shrink * (sum_phi[n] + values[n + 1]) for n in levels}
    return {"chain1": _points(levels, num1, den, 2 * s), "chain2": _points(levels, num2, den, 2 * s)}
