"""Digit-constrained subsets of (0, 1].

Each family pins the digit sequence of x by a growth, ratio, or window
condition.  Window ("for all n") families admit exact finite-prefix
verification; limit families only expose the defining ratio at a horizon plus
the proven emptiness criteria.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .expansion import is_admissible
from .profiles import (
    DEFAULT_WINDOW,
    BoundsProfile,
    GrowthProfile,
    _decode,
    _encode,
    _memo_rows,
    affine_profile,
    certified_compare,
    exp_of_profile,
    index_scaled_profile,
)

FAMILIES = (
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
)

# families whose condition quantifies over every level of the prefix
_WINDOW_FAMILIES = frozenset({"A_kappa", "B_kappa", "E_bounds", "E_star", "S_generic"})

_PROFILE_KEYS = ("profile", "psi", "u", "h1", "h2", "h3")

_REQUIRED: dict[str, tuple[str, ...]] = {
    "E_phi": ("profile",),
    "A_alpha": ("alpha",),
    "A_kappa": ("kappa",),
    "B_alpha": ("alpha",),
    "B_kappa": ("kappa",),
    "F_alpha": ("alpha",),
    "C_psi_beta": ("psi", "beta"),
    "E_alpha_beta": ("alpha", "beta"),
    "L_beta": ("beta",),
    "E_bounds": ("bounds",),
    "E_star": ("u",),
    "S_generic": ("m", "h1", "h2"),
}


def _enc(v: Any) -> Any:
    if isinstance(v, GrowthProfile) or isinstance(v, BoundsProfile):
        return v.to_dict()
    return _encode(v)


def _dec(key: str, v: Any) -> Any:
    if key == "bounds":
        return BoundsProfile.from_dict(v)
    if key in _PROFILE_KEYS:
        return GrowthProfile.from_dict(v)
    return _decode(v)


@dataclass(frozen=True)
class SetSpec:
    """Family tag plus its parameters."""

    family: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        for key in _REQUIRED[self.family]:
            if key not in self.params:
                raise ValueError(f"family {self.family} requires parameter {key!r}")
        if self.family == "S_generic":
            m = self.params["m"]
            if not isinstance(m, int) or m < 1:
                raise ValueError("S_generic needs integer m >= 1")

    def describe(self) -> str:
        parts = []
        for key, val in self.params.items():
            if isinstance(val, GrowthProfile):
                parts.append(f"{key}={val.label or val.kind}")
            elif isinstance(val, BoundsProfile):
                parts.append(f"{key}={val.label or 'bounds'}")
            else:
                parts.append(f"{key}={val}")
        return f"{self.family}({', '.join(parts)})"

    def to_dict(self) -> dict[str, Any]:
        return {
            "family": self.family,
            "params": {k: _enc(v) for k, v in self.params.items()},
        }

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "SetSpec":
        params = {k: _dec(k, v) for k, v in data.get("params", {}).items()}
        return SetSpec(family=data["family"], params=params)


# -- word counting -----------------------------------------------------------


class EnumerationCapError(ValueError):
    """Word count exceeds the enumeration cap."""


def count_constrained_words(n: int, bounds: BoundsProfile) -> int:
    """Exact number of admissible length-n words within the digit windows:
    prod_k (floor(r_k) - floor(l_k)), valid whenever consecutive windows do
    not overlap (r_k <= l_{k+1}).  The bounds are read through a row memo
    for this call (`profiles._memo_rows`), so l and r share their nodes'
    enclosures row by row."""
    if n < 1:
        raise ValueError("need n >= 1")
    bounds = _memo_rows(bounds)
    total = 1
    for k in range(1, n + 1):
        total *= bounds.branch_count(k)
        if total == 0:
            return 0
    return total


def enumerate_constrained_words(
    n: int, bounds: BoundsProfile, cap: int = 1_000_000
) -> list[tuple[int, ...]]:
    """All words counted by count_constrained_words, in lexicographic order.

    Refuses when the count exceeds `cap`; raises if overlapping windows make
    the product formula disagree with strict digit increase.
    """
    bounds = _memo_rows(bounds)  # the count and the ranges read the same rows
    total = count_constrained_words(n, bounds)
    if total > cap:
        raise EnumerationCapError(f"{total} words exceed cap {cap}")
    ranges = []
    for k in range(1, n + 1):
        lo, hi = bounds.digit_range(k)
        ranges.append(range(lo, hi + 1))
    words = []
    for tup in itertools.product(*ranges):
        if any(b <= a for a, b in zip(tup, tup[1:])):
            raise ValueError(
                "digit windows overlap between levels; product enumeration "
                "would break strict increase"
            )
        words.append(tup)
    return words


# -- membership ---------------------------------------------------------------


@dataclass(frozen=True)
class MembershipResult:
    satisfied_so_far: bool
    violated: bool
    estimate: float | None
    detail: str


def membership(spec: SetSpec, digits: tuple[int, ...], horizon: int) -> MembershipResult:
    """Evaluate the family condition on the first `horizon` digits.

    Window families report exact satisfied/violated over the prefix, or
    neither, with "undecided" in `detail`, when a comparison stays undecided
    at the precision ceiling.  Limit families report the defining ratio at
    the horizon; `violated` is set only when the family itself is provably
    empty.
    """
    if horizon < 1 or horizon > len(digits):
        raise ValueError(f"horizon {horizon} outside 1..{len(digits)}")
    word = tuple(digits[:horizon])
    if not is_admissible(word):
        raise ValueError("digit prefix is not strictly increasing and positive")
    if spec.family in _WINDOW_FAMILIES:
        return _window_membership(spec, word)
    return _limit_membership(spec, word)


def _window_membership(spec: SetSpec, word: tuple[int, ...]) -> MembershipResult:
    fam, p = spec.family, spec.params
    n_levels = len(word)
    if fam == "A_kappa":
        kappa = p["kappa"]
        if kappa == math.inf:
            return MembershipResult(False, True, None, "log d_1 < inf")
        kq = Fraction(kappa)
        if kq <= 0:
            return MembershipResult(True, False, None, "kappa <= 0 holds for every x")
        growth = exp_of_profile(affine_profile(kq))
        for n, d in enumerate(word, start=1):
            # log d >= kappa*n as exp(kappa*n) <= d: e^t is transcendental for
            # rational t > 0, so no tie is possible
            sign = certified_compare(((1, growth, n),), d)
            if sign is None:
                return MembershipResult(False, False, None, f"log d_{n} >= kappa*{n} undecided")
            if sign > 0:
                return MembershipResult(False, True, None, f"log d_{n} < kappa*{n}")
        return MembershipResult(True, False, None, f"log d_n >= kappa*n up to n={n_levels}")
    if fam == "B_kappa":
        kappa = p["kappa"]
        if kappa == math.inf:
            return MembershipResult(True, False, None, "no ratio cap")
        cap = Fraction(kappa) if kappa != -math.inf else None
        for n in range(1, n_levels):
            if cap is None or Fraction(word[n]) > cap * word[n - 1]:
                return MembershipResult(
                    False, True, None, f"d_{n + 1}/d_{n} = {word[n]}/{word[n - 1]} > kappa"
                )
        return MembershipResult(True, False, None, f"ratio cap holds up to n={n_levels}")
    if fam == "E_bounds":
        bounds: BoundsProfile = p["bounds"]
        for n, d in enumerate(word, start=1):
            if not bounds.contains(n, d):
                lo, hi = bounds.digit_range(n)
                return MembershipResult(
                    False, True, None, f"d_{n} = {d} outside window {lo}..{hi}"
                )
        return MembershipResult(True, False, None, f"inside windows up to n={n_levels}")
    if fam == "E_star":
        u: GrowthProfile = p["u"]
        lower = index_scaled_profile(u, 0)
        upper = index_scaled_profile(u, 1)
        for n, d in enumerate(word, start=1):
            lo = lower.floor(n)
            hi = upper.floor(n)
            if not (lo + 1 <= d <= hi):
                return MembershipResult(
                    False, True, None, f"d_{n} = {d} outside scale window {lo + 1}..{hi}"
                )
        return MembershipResult(True, False, None, f"inside scale windows up to n={n_levels}")
    # S_generic
    m = p["m"]
    h1, h2 = p["h1"], p["h2"]
    h3 = p.get("h3")
    for n in range(m, n_levels):
        d_now, d_next = word[n - 1], word[n]
        # "<" is strict, so a tie fails it
        sign = certified_compare(((1, h1, d_now), (-1, h2, d_next)))
        if sign is None:
            return MembershipResult(False, False, None, f"h1(d_{n}) < h2(d_{n + 1}) undecided")
        if sign >= 0:
            return MembershipResult(False, True, None, f"h1(d_{n}) >= h2(d_{n + 1})")
        if h3 is None:
            continue
        # "<=" is not strict, so a tie meets it
        sign = certified_compare(((1, h2, d_next), (-1, h3, d_now)))
        if sign is None:
            return MembershipResult(False, False, None, f"h2(d_{n + 1}) <= h3(d_{n}) undecided")
        if sign > 0:
            return MembershipResult(False, True, None, f"h2(d_{n + 1}) > h3(d_{n})")
    return MembershipResult(True, False, None, f"pair conditions hold for n in {m}..{n_levels - 1}")


def _limit_membership(spec: SetSpec, word: tuple[int, ...]) -> MembershipResult:
    fam, p = spec.family, spec.params
    h = len(word)
    if fam in ("B_alpha", "F_alpha") and h < 2:
        raise ValueError(f"{fam} estimate needs horizon >= 2")
    if fam == "L_beta" and h < 3:
        raise ValueError("L_beta estimate needs horizon >= 3")
    if fam == "E_phi":
        phi: GrowthProfile = p["profile"]
        estimate = math.log(word[-1]) / float(phi.mp_value(h))
        label = "log d_n / phi(n)"
    elif fam == "A_alpha":
        estimate = math.exp(math.log(word[-1]) / h)
        label = "d_n^(1/n)"
    elif fam == "B_alpha":
        try:
            estimate = math.exp(math.log(word[-1]) - math.log(word[-2]))
        except OverflowError:
            estimate = math.inf
        label = "d_{n+1}/d_n"
    elif fam == "F_alpha":
        den = math.log(word[-2])
        estimate = math.inf if den == 0 else math.log(word[-1]) / den
        label = "log d_{n+1}/log d_n"
    elif fam == "C_psi_beta":
        psi: GrowthProfile = p["psi"]
        estimate = (math.log(word[-1]) - h) / float(psi.mp_value(h))
        label = "(log d_n - n)/psi(n)"
    elif fam == "E_alpha_beta":
        estimate = (math.log(word[-1]) - h) / math.pow(h, float(p["alpha"]))
        label = "(log d_n - n)/n^alpha"
    else:  # L_beta
        estimate = (math.log(word[-1]) - h) / math.sqrt(2 * h * math.log(math.log(h)))
        label = "(log d_n - n)/sqrt(2n log log n)"
    emptiness = emptiness_check(spec)
    violated = emptiness.empty and emptiness.status == "proven"
    detail = f"{label} at n={h}"
    if violated:
        detail += f"; family empty: {emptiness.detail}"
    return MembershipResult(not violated, violated, estimate, detail)


# -- emptiness -----------------------------------------------------------------


@dataclass(frozen=True)
class EmptinessResult:
    empty: bool
    status: str  # "proven" | "window_certified" | "nonempty_or_unknown"
    detail: str
    window: int | None = None


def emptiness_check(spec: SetSpec, window: int = DEFAULT_WINDOW) -> EmptinessResult:
    """Decide emptiness where a criterion exists.

    Proven routes: growth target below the digit floor (A, B, F with alpha < 1;
    B_kappa with kappa <= 1), no finite digit above it (A_kappa with
    kappa = inf), deviation families in their empty parameter region, and
    digit windows that close at some level.  The slow-growth
    criterion for E_phi is exact only when the profile carries a stated gamma;
    otherwise it is window-estimated and labeled accordingly.
    """
    fam, p = spec.family, spec.params
    if fam == "E_phi":
        phi: GrowthProfile = p["profile"]
        gamma = phi.analytic.get("gamma")
        if gamma is not None:
            if gamma < 1:
                return EmptinessResult(True, "proven", f"stated gamma = {gamma} < 1")
            return EmptinessResult(False, "nonempty_or_unknown", f"stated gamma = {gamma} >= 1")
        n_lo = max(phi.min_index, 2, window - window // 4)
        sup = max(
            float(phi.mp_value(n)) / math.log(n) for n in range(n_lo, window + 1)
        )
        if sup < 1:
            return EmptinessResult(
                True,
                "window_certified",
                f"phi(n)/log n <= {sup:.4g} < 1 on window tail",
                window,
            )
        return EmptinessResult(
            False, "nonempty_or_unknown", f"phi(n)/log n reaches {sup:.4g} on window tail", window
        )
    if fam in ("A_alpha", "B_alpha", "F_alpha"):
        alpha = p["alpha"]
        if alpha < 1:
            return EmptinessResult(True, "proven", f"alpha = {alpha} < 1 beats digit growth")
        return EmptinessResult(False, "nonempty_or_unknown", f"alpha = {alpha} in [1, inf]")
    if fam == "A_kappa" and p["kappa"] == math.inf:
        return EmptinessResult(True, "proven", "kappa = inf but log d_1 < inf")
    if fam == "B_kappa":
        kappa = p["kappa"]
        if kappa <= 1:
            return EmptinessResult(True, "proven", f"kappa = {kappa} <= 1 but digit ratios exceed 1")
        return EmptinessResult(False, "nonempty_or_unknown", f"kappa = {kappa} > 1")
    if fam == "E_alpha_beta":
        alpha, beta = p["alpha"], p["beta"]
        if alpha == 1 and beta < -1:
            return EmptinessResult(True, "proven", "alpha = 1 with beta < -1")
        if alpha > 1 and beta < 0:
            return EmptinessResult(True, "proven", f"alpha = {alpha} > 1 with beta < 0")
        return EmptinessResult(False, "nonempty_or_unknown", "inside the nonempty region")
    if fam == "E_bounds":
        bounds: BoundsProfile = p["bounds"]
        scan = min(window, 64)
        for n in range(1, scan + 1):
            if bounds.branch_count(n) == 0:
                return EmptinessResult(True, "proven", f"digit window closes at level {n}")
        return EmptinessResult(
            False, "nonempty_or_unknown", f"windows open through level {scan}", scan
        )
    return EmptinessResult(False, "nonempty_or_unknown", "no emptiness criterion applies")
