"""Finite-level Hausdorff-dimension bound sequences and analytic formulas.

Everything here runs in log space over exact integer or certified
high-precision inputs: branch-count products and interval diameters overflow
any fixed-width float, but their logs accumulate stably.  Limit quantities
(gamma, xi, theta, eta) are only ever reported as windowed min/max/last
triples; the analytic dimension table consumes either stated limits or
window estimates that pass a stabilization check, and refuses otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import mpmath

from ._precision import DEFAULT_PRECISION_BITS, certified_floor
from .expansion import is_admissible
from .families import SetSpec, count_constrained_words, enumerate_constrained_words
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


def _point(n: int, num, den) -> RatioPoint | None:
    """RatioPoint with the positivity invariant on the denominator."""
    den_f = float(den)
    if den_f <= 0:
        return None
    return RatioPoint(n, float(num), den_f, float(num / den))


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

    No enumeration; pure log sums of the bound rows.
    """
    k0 = bounds.threshold
    if n_max < k0 + 2:
        raise ValueError(f"n_max must be >= threshold + 2 = {k0 + 2}")
    lower_seq: list[RatioPoint] = []
    upper_seq: list[RatioPoint] = []
    with mpmath.workprec(precision_bits):
        log_delta = [mpmath.mpf(0)] * (n_max + 3)
        log_r = [mpmath.mpf(0)] * (n_max + 3)
        log_l = [mpmath.mpf(0)] * (n_max + 3)
        for k in range(1, n_max + 3):
            log_delta[k] = bounds.log_delta(k)
            log_r[k] = bounds.r.log_value(k)
            log_l[k] = bounds.l.log_value(k)
        num = mpmath.mpf(0)
        sum_log_r = log_r[1]
        sum_log_l = log_l[1]
        for n in range(1, n_max + 1):
            num += log_delta[n]
            sum_log_r += log_r[n + 1]
            sum_log_l += log_l[n + 1]
            if n <= k0:
                continue
            den_lower = (
                sum_log_r + log_r[n + 1] + log_r[n + 2] - log_delta[n + 1] - log_delta[n + 2]
            )
            den_upper = sum_log_l + log_r[n + 1] - log_delta[n + 1]
            lo = _point(n, num, den_lower)
            hi = _point(n, num, den_upper)
            if lo is not None:
                lower_seq.append(lo)
            if hi is not None:
                upper_seq.append(hi)
    return DimensionEstimate(lower_seq=lower_seq, upper_seq=upper_seq)


def box_ratio_sequence(
    bounds: BoundsProfile,
    n_max: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
    enum_cap: int = 4096,
) -> list[RatioPoint]:
    """Box-counting upper-bound ratios: exact cover counts against the
    diameter bound diam <= 2 (prod_{k<=n+1} 1/l_k) Delta_{n+1}/r_{n+1}.

    Where enumeration is cheap and the bound rows are exact rationals, the
    true maximal diameter is computed exactly and checked against the bound.
    """
    points: list[RatioPoint] = []
    with mpmath.workprec(precision_bits):
        log_count = mpmath.mpf(0)
        sum_log_l = bounds.l.log_value(1)
        for n in range(1, n_max + 1):
            m = bounds.branch_count(n)
            if m < 1:
                raise ValueError(f"digit window closes at level {n}")
            log_count += mpmath.log(m)
            sum_log_l += bounds.l.log_value(n + 1)
            log_inv = (
                -mpmath.log(2)
                + sum_log_l
                + bounds.r.log_value(n + 1)
                - bounds.log_delta(n + 1)
            )
            if n <= bounds.threshold:
                continue
            _assert_diameter_bound(bounds, n, enum_cap)
            pt = _point(n, log_count, log_inv)
            if pt is not None:
                points.append(pt)
    return points


def _assert_diameter_bound(bounds: BoundsProfile, n: int, enum_cap: int) -> None:
    """At small levels with exact rational rows, check the true max diameter
    of the level-n basic intervals against the closed-form bound."""
    if n > 4:
        return
    values = [(bounds.l.value(k), bounds.r.value(k)) for k in range(1, n + 2)]
    if any(lv is None or rv is None for lv, rv in values):
        return
    if count_constrained_words(n, bounds) > enum_cap:
        return
    prod_l = Fraction(1)
    for lv, _ in values:
        prod_l *= lv
    l_next, r_next = values[-1]
    bound = 2 * (r_next - l_next) / (prod_l * r_next)
    worst = max(
        family_basic_interval(word, bounds).length
        for word in enumerate_constrained_words(n, bounds, cap=enum_cap)
    )
    if worst > bound:
        raise AssertionError(
            f"diameter bound violated at level {n}: {worst} > {bound}"
        )


def gap_ratio_sequence(
    bounds: BoundsProfile, n_max: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> list[RatioPoint]:
    """Gap-based lower-bound ratios log(prod_{k<=n} m_k) /
    log(1/(m_{n+1} eps_{n+1})), with the per-level gap bound eps computed in
    log space.  Requires at least two digit choices per level beyond the
    threshold and strictly shrinking eps."""
    k0 = bounds.threshold
    if n_max < k0 + 1:
        raise ValueError(f"n_max must be >= threshold + 1 = {k0 + 1}")
    points: list[RatioPoint] = []
    with mpmath.workprec(precision_bits):
        counts = []
        for k in range(1, n_max + 2):
            m = bounds.branch_count(k)
            if m < 2:
                raise ValueError(f"fewer than 2 digit choices at level {k}")
            counts.append(m)
        sum_log_r = mpmath.mpf(0)
        log_count = mpmath.mpf(0)
        prev_log_eps = None
        for n in range(1, n_max + 1):
            sum_log_r += bounds.r.log_value(n)
            log_count += mpmath.log(counts[n - 1])
            # eps at level n+1 needs rows through n+2
            log_eps = (
                -mpmath.log(2)
                - sum_log_r
                - bounds.r.log_value(n + 1)
                - bounds.r.log_value(n + 1)
                - bounds.r.log_value(n + 2)
                + bounds.log_delta(n + 2)
            )
            if n <= k0:
                continue
            if prev_log_eps is not None and not log_eps < prev_log_eps:
                raise ValueError(f"gap bound fails to shrink at level {n + 1}")
            prev_log_eps = log_eps
            log_inv = -(mpmath.log(counts[n]) + log_eps)
            pt = _point(n, log_count, log_inv)
            if pt is not None:
                points.append(pt)
    return points


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
    if fam == "A_alpha" or fam == "B_alpha":
        alpha = p["alpha"]
        if alpha < 1:
            return AnalyticDimension(0.0, "exact", empty=True, detail="alpha < 1")
        return AnalyticDimension(1.0, "exact")
    if fam == "A_kappa":
        return AnalyticDimension(1.0, "exact")
    if fam == "B_kappa":
        kappa = p["kappa"]
        if kappa <= 1:
            return AnalyticDimension(0.0, "exact", empty=True, detail="kappa <= 1")
        return AnalyticDimension(1.0, "exact")
    if fam == "F_alpha":
        alpha = p["alpha"]
        if alpha < 1:
            return AnalyticDimension(0.0, "exact", empty=True, detail="alpha < 1")
        return AnalyticDimension(0.0 if alpha == math.inf else 1.0 / float(alpha), "exact")
    if fam == "C_psi_beta":
        report = check_deviation_scale(p["psi"], window)
        if not report["ok"]:
            return AnalyticDimension(
                None, "refused", detail=f"scale conditions fail: {report['reason']}"
            )
        status = "exact" if report.get("certified") == "stated" else "window_certified"
        return AnalyticDimension(1.0, status)
    if fam == "E_alpha_beta":
        alpha, beta = float(p["alpha"]), p["beta"]
        if alpha < 1:
            return AnalyticDimension(1.0, "exact")
        if alpha == 1:
            if beta >= -1:
                return AnalyticDimension(1.0, "exact")
            return AnalyticDimension(0.0, "exact", empty=True, detail="alpha = 1, beta < -1")
        if beta >= 0:
            return AnalyticDimension(1.0, "exact")
        return AnalyticDimension(0.0, "exact", empty=True, detail="alpha > 1, beta < 0")
    if fam == "L_beta":
        return AnalyticDimension(1.0, "exact")
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


def find_cover_start(
    phi: GrowthProfile, epsilon: float, scan_limit: int = 256
) -> int:
    """Smallest m so that, for every scanned n >= m, the digit window
    (e^{(1-eps) phi(n)}, e^{(1+eps) phi(n)}] contains an integer and contains
    one at least n.  Scanned up to scan_limit; failure reported, not guessed."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    last_bad = 0
    for n in range(phi.min_index, scan_limit + 1):
        if not _cover_row_ok(phi, epsilon, n):
            last_bad = n
    start = max(last_bad + 1, phi.min_index)
    if start > scan_limit:
        raise ValueError(f"window conditions still failing at scan limit {scan_limit}")
    return start


def _cover_row_ok(phi: GrowthProfile, epsilon: float, n: int) -> bool:
    hi_exp = float(phi.mp_value(n)) * (1 + epsilon)
    if hi_exp <= 44:  # value fits comfortably below 2^64: use exact floors
        lo_floor = certified_floor(
            lambda iv: iv.exp((1 - iv.mpf(epsilon)) * phi.iv_value(n, iv))
        )
        hi_floor = certified_floor(
            lambda iv: iv.exp((1 + iv.mpf(epsilon)) * phi.iv_value(n, iv))
        )
        return lo_floor + 1 <= hi_floor and n <= hi_floor
    # huge windows: e^{hi} - e^{lo} >= 1 and e^{hi} >= n + 1 suffice
    lo_exp = float(phi.mp_value(n)) * (1 - epsilon)
    gap = hi_exp - lo_exp
    gap_ok = gap > 40 or lo_exp + math.log(math.expm1(gap)) >= 0
    return gap_ok and hi_exp >= math.log(n + 1)


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
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must be in (0, 1)")
    if n < m:
        raise ValueError("need n >= m")
    with mpmath.workprec(precision_bits):
        eps = mpmath.mpf(epsilon)
        total = m * (1 + eps) * phi.mp_value(m)
        for k in range(m + 1, n + 1):
            total += (1 + eps) * phi.mp_value(k)
        alt = n * (1 + eps) * phi.mp_value(n) + (n - 1) - n * mpmath.log(n)
        return min(total, alt)


def window_cover_chains(
    phi: GrowthProfile,
    epsilon: float,
    m: int,
    n_max: int,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> dict[str, list[RatioPoint]]:
    """Both cover-count/diameter ratio chains from level m to n_max, sharing
    the diameter denominator (1-eps) sum_{k=m}^{n+1} phi(k)."""
    if n_max < m + 1:
        raise ValueError("need n_max > m")
    chain1: list[RatioPoint] = []
    chain2: list[RatioPoint] = []
    with mpmath.workprec(precision_bits):
        eps = mpmath.mpf(epsilon)
        num1 = m * (1 + eps) * phi.mp_value(m)
        den_sum = phi.mp_value(m)
        for n in range(m + 1, n_max + 1):
            value_n = phi.mp_value(n)
            num1 += (1 + eps) * value_n
            den_sum += value_n
            den = (1 - eps) * (den_sum + phi.mp_value(n + 1))
            num2 = n * (1 + eps) * value_n + (n - 1) - n * mpmath.log(n)
            p1 = _point(n, num1, den)
            p2 = _point(n, num2, den)
            if p1 is not None:
                chain1.append(p1)
            if p2 is not None:
                chain2.append(p2)
    return {"chain1": chain1, "chain2": chain2}


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
    if isinstance(b, int) or (isinstance(b, Fraction) and b.denominator == 1):
        return sigma ** int(b)
    return certified_floor(lambda iv: iv.exp(iv.mpf(float(b)) * iv.log(iv.mpf(sigma))))


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
