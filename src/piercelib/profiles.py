"""Growth profiles and per-level digit bounds.

A growth profile is an immutable description of a positive sequence, with an
exact-rational evaluation path where the formula allows one.  Everywhere else
one evaluator, with an overflow-safe log beside it, walks the profile kinds
over the context it is given: `mpmath.mp` for float values and logs,
`mpmath.iv` for interval enclosures and the certified floors and signs built
on them.  A bounds profile pairs two growth profiles (l, r) and constrains
digits by l(n) < d_n <= r(n); `find_threshold` locates the splice index beyond
which the three admissibility conditions

    (i)   r(n) - l(n) >= 2
    (ii)  r(n+1) <= 2*l(n+1) - 1
    (iii) r(n) <= l(n+1)

hold, so that a 2n / 2(n+1) prefix can be glued in front of the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import Any

import mpmath

from ._precision import PrecisionError, certified_floor, certified_sign

DEFAULT_WINDOW = 10_000

_KINDS = (
    "power",
    "sqrt",
    "log",
    "linear_log",
    "exponential",
    "table",
    "lil",
    "deviation",
    "affine",
    "index_scaled",
    "exp_of",
    "exp_of_scaled",
    "piecewise",
)


def _as_exact(v: Any) -> Fraction | None:
    """Fraction view of a parameter when it is exactly rational."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    return None


def _num(ctx, v: Any):
    """`v` in the context `ctx` (`mpmath.mp` or `mpmath.iv`).  A Fraction's
    numerator is divided by its int denominator, which is never rounded first."""
    if isinstance(v, Fraction):
        return ctx.mpf(v.numerator) / v.denominator
    return ctx.mpf(v)


def _encode(v: Any) -> Any:
    """JSON form of a value: a Fraction becomes an int or "p/q", an infinite
    float "inf" or "-inf"; anything else is returned as it is."""
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return v


def _decode(v: Any) -> Any:
    """Inverse of `_encode`; ints stay ints, and callers coerce types."""
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if isinstance(v, str) and "/" in v:
        num, den = v.split("/", 1)
        return Fraction(int(num), int(den))
    return v


class ProfileError(ValueError):
    """Profile parameters outside their documented domain."""


@dataclass(frozen=True)
class GrowthProfile:
    """One positive sequence n -> value, n >= min_index.

    kinds and parameters:
      power        coeff * n**a + shift          (a, coeff, shift)
      sqrt         coeff * sqrt(n)               (coeff)
      log          coeff * log(n)                (coeff); positive from n = 2
      linear_log   n * log(a)                    (a > 1)
      exponential  coeff * a**n + shift          (a, coeff, shift)
      table        values[n-1]                   (values)
      lil          1, 2, then sqrt(2n log log n)
      deviation    n + beta * psi(n)             (beta, psi)
      affine       a*n + b                       (a, b)
      index_scaled (n + offset) * u(n)           (u, offset)
      exp_of       exp(g(n))                     (inner)
      exp_of_scaled exp(g(n)) * (1 + psi(n)/n)   (inner, psi)
      piecewise    low(n) if n <= split else high(n)

    `analytic` carries externally known limit values (keys among gamma, xi,
    theta, eta, psi_conditions) for catalog entries; user-built profiles leave
    it empty and get window estimates instead.

    `value` is exact where the formula is rational; `mp_value`, `iv_value`
    and `log_value` are one evaluator (`_eval`, `_log`) over `mpmath.mp` or
    `mpmath.iv`.
    """

    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    analytic: dict[str, float] = field(default_factory=dict)
    label: str = ""
    min_index: int = 1

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ProfileError(f"unknown profile kind {self.kind!r}")

    # -- exact path -------------------------------------------------------

    def value(self, n: int) -> Fraction | None:
        """Exact value at n, or None when the formula is not rational."""
        self._check_index(n)
        k, p = self.kind, self.params
        if k == "power" or k == "exponential":
            a = _as_exact(p["a"])
            coeff, shift = _as_exact(p.get("coeff", 1)), _as_exact(p.get("shift", 0))
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
                raise ProfileError(
                    f"profile {self.label or self.kind} has {len(values)} rows, no row {n}"
                )
            return Fraction(values[n - 1])
        if k == "affine":
            a, b = _as_exact(p["a"]), _as_exact(p.get("b", 0))
            if a is None or b is None:
                return None
            return a * n + b
        if k == "deviation":
            beta = _as_exact(p["beta"])
            inner = p["psi"].value(n)
            if beta is None or inner is None:
                return None
            return n + beta * inner
        if k == "index_scaled":
            u = p["u"].value(n)
            if u is None:
                return None
            return (n + p.get("offset", 0)) * u
        if k == "piecewise":
            return self._branch(n).value(n)
        if k == "lil" and n <= 2:
            return Fraction(n)
        return None

    # -- floating paths ---------------------------------------------------

    def mp_value(self, n: int) -> mpmath.mpf:
        """Value at n as an mpf under the caller's mpmath precision."""
        return self._eval(mpmath.mp, n)

    def iv_value(self, n: int, iv) -> object:
        """Directed-rounding interval enclosure of the value at n."""
        return self._eval(iv, n)

    def log_value(self, n: int) -> mpmath.mpf:
        """Natural log of the value, computed without overflowing exponents."""
        return self._log(mpmath.mp, n)

    def _eval(self, ctx, n: int):
        """Value at n in the context `ctx`: `mpmath.mp` rounds to nearest,
        `mpmath.iv` encloses with directed rounding."""
        self._check_index(n)
        exact = self.value(n)
        if exact is not None:
            return _num(ctx, exact)
        k, p = self.kind, self.params
        if k == "power" or k == "exponential":
            a = _num(ctx, p["a"])
            base = ctx.power(n, a) if k == "power" else ctx.power(a, n)
            return _num(ctx, p.get("coeff", 1)) * base + _num(ctx, p.get("shift", 0))
        if k == "sqrt":
            return _num(ctx, p.get("coeff", 1)) * ctx.sqrt(n)
        if k == "log":
            return _num(ctx, p["coeff"]) * ctx.log(n)
        if k == "linear_log":
            return n * ctx.log(_num(ctx, p["a"]))
        if k == "lil":
            return ctx.sqrt(2 * n * ctx.log(ctx.log(n)))
        if k == "affine":
            return _num(ctx, p["a"]) * n + _num(ctx, p.get("b", 0))
        if k == "deviation":
            return n + _num(ctx, p["beta"]) * p["psi"]._eval(ctx, n)
        if k == "index_scaled":
            return (n + p.get("offset", 0)) * p["u"]._eval(ctx, n)
        if k == "exp_of":
            return ctx.exp(p["inner"]._eval(ctx, n))
        if k == "exp_of_scaled":
            return ctx.exp(p["inner"]._eval(ctx, n)) * (1 + p["psi"]._eval(ctx, n) / n)
        if k == "piecewise":
            return self._branch(n)._eval(ctx, n)
        raise ProfileError(f"no float path for kind {self.kind!r}")

    def _log(self, ctx, n: int):
        """Natural log of the value at n in `ctx`.  exp_of, exp_of_scaled and
        shift-free exponential/power rows never form the value, so cannot overflow."""
        self._check_index(n)
        k, p = self.kind, self.params
        if k == "exp_of":
            return p["inner"]._eval(ctx, n)
        if k == "exp_of_scaled":
            return p["inner"]._eval(ctx, n) + ctx.log(1 + p["psi"]._eval(ctx, n) / n)
        if (k == "exponential" or k == "power") and p.get("shift", 0) == 0:
            a = _num(ctx, p["a"])
            log_base = n * ctx.log(a) if k == "exponential" else a * ctx.log(n)
            return ctx.log(_num(ctx, p.get("coeff", 1))) + log_base
        if k == "piecewise":
            return self._branch(n)._log(ctx, n)
        exact = self.value(n)
        if exact is not None:
            if exact <= 0:
                raise ProfileError(f"log of non-positive value {exact} at n={n}")
            return ctx.log(ctx.mpf(exact.numerator)) - ctx.log(ctx.mpf(exact.denominator))
        return ctx.log(self._eval(ctx, n))

    def floor(self, n: int) -> int:
        """Exact integer part of the value at n (certified for irrational
        formulas by precision escalation)."""
        exact = self.value(n)
        if exact is not None:
            return exact.numerator // exact.denominator
        return certified_floor(lambda iv: self.iv_value(n, iv))

    def _branch(self, n: int) -> "GrowthProfile":
        """The piecewise branch that holds level n."""
        p = self.params
        return p["low"] if n <= p["split"] else p["high"]

    def _check_index(self, n: int) -> None:
        if n < self.min_index:
            raise ProfileError(
                f"profile {self.label or self.kind} starts at n={self.min_index}, got {n}"
            )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind}
        for key, val in self.params.items():
            if isinstance(val, GrowthProfile):
                out[key] = val.to_dict()
            elif key == "values":
                out[key] = [_encode(Fraction(v)) for v in val]
            else:
                out[key] = _encode(val)
        if self.analytic:
            out["analytic"] = {k: _encode(v) for k, v in self.analytic.items()}
        if self.label:
            out["label"] = self.label
        return out

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "GrowthProfile":
        data = dict(data)
        kind = data.pop("kind", None)
        if kind == "builtin":
            name = data.get("name")
            catalog = builtin_profiles()
            if name not in catalog:
                raise ProfileError(f"unknown builtin profile {name!r}")
            return catalog[name]
        if kind not in _KINDS:
            raise ProfileError(f"unknown profile kind {kind!r}")
        label = data.pop("label", "")
        tags = {k: _decode(v) for k, v in (data.pop("analytic", None) or {}).items()}
        # analytic tags are floats; profile parameters stay exact
        analytic = {
            k: float(Fraction(v)) if isinstance(v, (str, Fraction)) else v for k, v in tags.items()
        }
        params: dict[str, Any] = {}
        for key, val in data.items():
            if isinstance(val, dict) and "kind" in val:
                params[key] = GrowthProfile.from_dict(val)
            elif key == "values":
                params[key] = tuple(_exact_param(v) for v in val)
            elif key == "split" or key == "offset":
                params[key] = int(val)
            else:
                params[key] = _exact_param(val)
        return _make(kind, params, analytic=analytic, label=label)


def _exact_param(v: Any) -> Any:
    """Decoded profile parameter, with ints read as Fractions."""
    v = _decode(v)
    return Fraction(v) if isinstance(v, int) else v


def _make(kind: str, params: dict[str, Any], *, analytic=None, label="") -> GrowthProfile:
    min_index = 2 if kind == "log" else 1
    if kind == "piecewise":
        min_index = max(
            min_index,
            params["low"].min_index,
            # the high branch only needs to be evaluable beyond the split
        )
    tags = dict(analytic or {})
    if kind == "log":
        # phi(n)/log n equals the coefficient identically, so the growth
        # constant is structural rather than a user claim.
        tags.setdefault("gamma", float(params["coeff"]))
    if kind == "lil":
        # sqrt(2n log log n) has vanishing increments and subexponential
        # decay by closed form; both deviation-scale hypotheses hold.
        tags.setdefault("psi_conditions", 1.0)
    return GrowthProfile(
        kind=kind,
        params=params,
        analytic=tags,
        label=label,
        min_index=min_index,
    )


# -- constructors ----------------------------------------------------------


def power_profile(a, coeff=1, shift=0, *, analytic=None, label="") -> GrowthProfile:
    return _make(
        "power",
        {"a": _coerce(a), "coeff": _coerce(coeff), "shift": _coerce(shift)},
        analytic=analytic,
        label=label or f"{coeff}*n^{a}",
    )


def sqrt_profile(coeff=1, *, analytic=None, label="") -> GrowthProfile:
    return _make("sqrt", {"coeff": _coerce(coeff)}, analytic=analytic, label=label or "sqrt(n)")


def log_profile(coeff, *, analytic=None, label="") -> GrowthProfile:
    if not coeff > 0:
        raise ProfileError("log profile needs coeff > 0")
    return _make("log", {"coeff": _coerce(coeff)}, analytic=analytic, label=label or f"{coeff}*log n")


def linear_log_profile(alpha, *, analytic=None, label="") -> GrowthProfile:
    if not alpha > 1:
        raise ProfileError("linear_log profile needs a > 1")
    return _make("linear_log", {"a": _coerce(alpha)}, analytic=analytic, label=label or f"n*log {alpha}")


def exponential_profile(alpha, coeff=1, shift=0, *, analytic=None, label="") -> GrowthProfile:
    if not alpha > 0:
        raise ProfileError("exponential profile needs a > 0")
    return _make(
        "exponential",
        {"a": _coerce(alpha), "coeff": _coerce(coeff), "shift": _coerce(shift)},
        analytic=analytic,
        label=label or f"{coeff}*{alpha}^n",
    )


def table_profile(values, *, analytic=None, label="") -> GrowthProfile:
    vals = tuple(Fraction(v) for v in values)
    if not vals:
        raise ProfileError("table profile needs at least one value")
    return _make("table", {"values": vals}, analytic=analytic, label=label or "table")


def lil_profile(*, analytic=None, label="") -> GrowthProfile:
    return _make("lil", {}, analytic=analytic, label=label or "lil-scale")


def deviation_profile(beta, psi: GrowthProfile, *, analytic=None, label="") -> GrowthProfile:
    return _make(
        "deviation",
        {"beta": _coerce(beta), "psi": psi},
        analytic=analytic,
        label=label or f"n + {beta}*psi(n)",
    )


def affine_profile(a, b=0, *, analytic=None, label="") -> GrowthProfile:
    return _make(
        "affine",
        {"a": _coerce(a), "b": _coerce(b)},
        analytic=analytic,
        label=label or f"{a}*n + {b}",
    )


def index_scaled_profile(u: GrowthProfile, offset: int, *, analytic=None, label="") -> GrowthProfile:
    return _make(
        "index_scaled",
        {"u": u, "offset": int(offset)},
        analytic=analytic,
        label=label or f"(n+{offset})*u(n)",
    )


def exp_of_profile(inner: GrowthProfile, *, analytic=None, label="") -> GrowthProfile:
    return _make("exp_of", {"inner": inner}, analytic=analytic, label=label or "exp(g(n))")


def exp_of_scaled_profile(inner: GrowthProfile, psi: GrowthProfile, *, analytic=None, label="") -> GrowthProfile:
    return _make(
        "exp_of_scaled",
        {"inner": inner, "psi": psi},
        analytic=analytic,
        label=label or "exp(g(n))*(1+psi/n)",
    )


def piecewise_profile(split: int, low: GrowthProfile, high: GrowthProfile, *, analytic=None, label="") -> GrowthProfile:
    return _make(
        "piecewise",
        {"split": int(split), "low": low, "high": high},
        analytic=analytic,
        label=label or f"piecewise@{split}",
    )


def _coerce(v):
    """Ints become Fractions; Fractions and floats pass through."""
    if isinstance(v, bool):
        raise ProfileError("boolean is not a profile parameter")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, float)):
        return v
    raise ProfileError(f"unsupported parameter {v!r}")


# -- bounds profiles --------------------------------------------------------


@dataclass(frozen=True)
class BoundsProfile:
    """Digit window l(n) < d_n <= r(n); admissible digits at level n are the
    integers floor(l(n))+1 .. floor(r(n))."""

    l: GrowthProfile
    r: GrowthProfile
    threshold: int = 0
    label: str = ""
    analytic: dict[str, float] = field(default_factory=dict)
    scale: GrowthProfile | None = None

    def digit_range(self, n: int) -> tuple[int, int]:
        """Inclusive integer range of admissible digits at level n."""
        return self.l.floor(n) + 1, self.r.floor(n)

    def branch_count(self, n: int) -> int:
        lo, hi = self.digit_range(n)
        return max(0, hi - lo + 1)

    def contains(self, n: int, d: int) -> bool:
        lo, hi = self.digit_range(n)
        return lo <= d <= hi

    def mp_delta(self, n: int) -> mpmath.mpf:
        return self.r.mp_value(n) - self.l.mp_value(n)

    def log_delta(self, n: int) -> mpmath.mpf:
        delta = self.mp_delta(n)
        if delta <= 0:
            raise ProfileError(f"non-positive digit window at level {n}")
        return mpmath.log(delta)

    def to_dict(self) -> dict[str, Any]:
        out = {"l": self.l.to_dict(), "r": self.r.to_dict(), "threshold": self.threshold}
        if self.scale is not None:
            out["scale"] = self.scale.to_dict()
        if self.label:
            out["label"] = self.label
        return out

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "BoundsProfile":
        scale = data.get("scale")
        return BoundsProfile(
            l=GrowthProfile.from_dict(data["l"]),
            r=GrowthProfile.from_dict(data["r"]),
            threshold=int(data.get("threshold", 0)),
            label=data.get("label", ""),
            scale=GrowthProfile.from_dict(scale) if scale else None,
        )


class _RowMemo:
    """A growth profile whose rows are each computed once while this object
    lives.  One certified question (a `dim` document, a `find_threshold` or
    `count_constrained_words` call) wraps its profiles at entry and drops the
    wrappers when it ends, so nothing is kept across questions.  Each entry
    is keyed by method, row and the precision it was computed at:
    `mpmath.mp.prec` for `mp_value`, `log_value` and `floor`, `iv.prec` for
    `iv_value`, the context's own for `_eval` and `_log`, the walks a parent
    node reads its children through.  A row that raises is not stored, so the
    next read raises again.  Every other attribute is the wrapped profile's."""

    def __init__(self, profile: GrowthProfile):
        self._profile = profile
        self._rows: dict[tuple, Any] = {}

    def __getattr__(self, name: str) -> Any:
        return getattr(self._profile, name)

    def _row(self, method: str, prec: int, *args):
        key = (method, prec, *args)
        if key not in self._rows:
            self._rows[key] = getattr(self._profile, method)(*args)
        return self._rows[key]

    def mp_value(self, n: int) -> mpmath.mpf:
        return self._row("mp_value", mpmath.mp.prec, n)

    def log_value(self, n: int) -> mpmath.mpf:
        return self._row("log_value", mpmath.mp.prec, n)

    def floor(self, n: int) -> int:
        # a certified floor rounds its endpoints at mpmath.mp.prec
        return self._row("floor", mpmath.mp.prec, n)

    def iv_value(self, n: int, iv) -> object:
        return self._row("iv_value", iv.prec, n, iv)

    def _eval(self, ctx, n: int):
        return self._row("_eval", ctx.prec, ctx, n)

    def _log(self, ctx, n: int):
        return self._row("_log", ctx.prec, ctx, n)


def _memo_dag(*roots: GrowthProfile) -> list:
    """The roots, each read through a fresh `_RowMemo`, rebuilt so that every
    node reached more than once below them (by identity: u under n*u(n) and
    (n+1)*u(n), say) is read through one shared `_RowMemo` too.  A node
    reached once is not wrapped, and is rebuilt only when a node below it is."""
    seen: set[int] = set()
    shared = {id(root) for root in roots}

    def visit(node: GrowthProfile) -> None:
        if id(node) in seen:
            shared.add(id(node))
            return
        seen.add(id(node))
        for child in node.params.values():
            if isinstance(child, GrowthProfile):
                visit(child)

    built: dict[int, Any] = {}

    def rebuild(node: GrowthProfile):
        if id(node) not in built:
            children = {
                key: rebuild(child)
                for key, child in node.params.items()
                if isinstance(child, GrowthProfile)
            }
            new = node
            if any(children[key] is not node.params[key] for key in children):
                new = replace(node, params={**node.params, **children})
            built[id(node)] = _RowMemo(new) if id(node) in shared else new
        return built[id(node)]

    for root in roots:
        visit(root)
    return [rebuild(root) for root in roots]


@dataclass(frozen=True)
class _MemoBounds(BoundsProfile):
    """A bounds profile from `_memo_rows`: l and r share one row memo over
    their profile DAG, and log Delta is computed once per (row,
    `mpmath.mp.prec`) while this object lives."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_log_deltas", {})

    def log_delta(self, n: int) -> mpmath.mpf:
        key = (n, mpmath.mp.prec)
        if key not in self._log_deltas:
            self._log_deltas[key] = super().log_delta(n)
        return self._log_deltas[key]


def _memo_rows(bounds: BoundsProfile) -> BoundsProfile:
    """`bounds` read through one memo for the question at hand: l, r and the
    nodes they share (`_memo_dag`), and log Delta.  The memo lives as long as
    the returned bounds, which the question drops when it ends.  Bounds that
    already come from here are returned as they are, so a nested call (the
    count inside a `dim` document's box sequence) shares the memo."""
    if isinstance(bounds, _MemoBounds):
        return bounds
    l, r = _memo_dag(bounds.l, bounds.r)
    kept = {f.name: getattr(bounds, f.name) for f in fields(BoundsProfile)}
    return _MemoBounds(**{**kept, "l": l, "r": r})


class ThresholdNotFound(ValueError):
    """No splice index validates the admissibility conditions.

    `undecided` is True when the last failing condition was not decided
    false but stayed undecided at the precision ceiling (an exact
    transcendental tie, say)."""

    def __init__(self, condition: str, level: int, n_limit: int, undecided: bool = False):
        self.condition = condition
        self.level = level
        self.n_limit = n_limit
        self.undecided = undecided
        outcome = "is undecided" if undecided else "still fails"
        super().__init__(
            f"no threshold K <= {n_limit}: condition {condition} {outcome} at level {level}"
        )


def _pair_conditions(l: GrowthProfile, r: GrowthProfile, n: int) -> tuple[str, bool] | None:
    """First admissibility condition not certified at pair n, with True when
    it was undecided rather than decided false; None when all three hold.

    Checks use rows n and n+1: (i) r(n)-l(n) >= 2; (ii) 2l(n+1)-r(n+1) >= 1;
    (iii) l(n+1) >= r(n).
    """
    # ">=" conditions: a tie holds; an undecided one is not certified, so it fails
    for name, terms, const in (
        ("(i) r(n) - l(n) >= 2", ((1, r, n), (-1, l, n)), 2),
        ("(ii) 2*l(n+1) - r(n+1) >= 1", ((2, l, n + 1), (-1, r, n + 1)), 1),
        ("(iii) l(n+1) >= r(n)", ((1, l, n + 1), (-1, r, n)), 0),
    ):
        sign = certified_compare(terms, const)
        if sign is None or sign < 0:
            return name, sign is None
    return None


def certified_compare(terms: tuple[tuple[int, GrowthProfile, int], ...], const: int | Fraction = 0) -> int | None:
    """Sign of sum(c * h(n) for c, h, n in terms) - const: -1, 0 or +1, exact
    when every h(n) is rational and certified by interval arithmetic otherwise,
    or None when undecided at the precision ceiling.  Callers state how they
    read a tie (0) and an undecided comparison (None)."""
    # unit coefficients skip their multiplication: this runs once per checked row
    total = -const
    for c, h, n in terms:
        v = h.value(n)
        if v is None:
            break
        total += v if c == 1 else c * v
    else:
        num = total.numerator  # the denominator is positive
        return (num > 0) - (num < 0)

    def diff(iv):
        total = _num(iv, -const)
        for c, h, n in terms:
            v = h.iv_value(n, iv)
            total += v if c == 1 else c * v
        return total

    try:
        return certified_sign(diff)
    except PrecisionError:
        return None


def find_threshold(l: GrowthProfile, r: GrowthProfile, n_limit: int) -> int:
    """Smallest K >= 0 so that the admissibility conditions hold at every pair
    K < n <= n_limit, the spliced prefix glue l(K+1) >= 2(K+1) holds, and (for
    K >= 1) the first unspliced row keeps the doubling margin
    2*l(K+1) - r(K+1) >= 1 so a 2n/2(n+1) prefix remains valid in front.

    Raises ThresholdNotFound naming the condition that fails last and
    whether it was decided false or left undecided.

    l, r and every node they share are read through a `_RowMemo` that lives
    for this call (`_memo_dag`), so each (row, precision) enclosure is built
    once, however many pairs and splice checks read it.
    """
    if n_limit < 1:
        raise ProfileError("n_limit must be >= 1")
    l, r = _memo_dag(l, r)
    failures: dict[int, tuple[str, bool]] = {}
    for n in range(max(1, l.min_index), n_limit + 1):
        bad = _pair_conditions(l, r, n)
        if bad is not None:
            failures[n] = bad
    last_bad = max(failures) if failures else 0
    start = max(last_bad, l.min_index - 1)
    for k in range(start, n_limit):
        # splice checks are ">=": a tie holds; undecided is not certified, so it fails
        if certified_compare(((1, l, k + 1),), 2 * (k + 1)) not in (0, 1):
            continue
        if k >= 1 and certified_compare(((2, l, k + 1), (-1, r, k + 1)), 1) not in (0, 1):
            continue
        return k
    if failures:
        condition, undecided = failures[last_bad]
        raise ThresholdNotFound(condition, last_bad, n_limit, undecided)
    raise ThresholdNotFound("splice l(K+1) >= 2(K+1)", n_limit, n_limit)


def bounds_from_scale(u: GrowthProfile, window: int = DEFAULT_WINDOW) -> BoundsProfile:
    """Digit bounds n*u(n) < d_n <= (n+1)*u(n) from a scale sequence u.

    Requires 2 <= u(n) <= u(n+1); the three admissibility conditions then
    hold with r(n) - l(n) = u(n).  Where u's kind and parameter signs make
    it nondecreasing (exponential with a >= 1 and coeff > 0, power with
    a >= 0 and coeff > 0, sqrt with coeff > 0, linear_log with a > 1, and
    exp_of over such an inner profile), one certified u(min_index) >= 2
    proves both conditions for every n and `window` is not read.  Every
    other kind (table, piecewise, index_scaled, lil, ...) is scanned row by
    row on n = min_index..window only.
    """
    if _nondecreasing(u):
        _require_scale(certified_compare(((1, u, u.min_index),), 2), "u(n) >= 2", u.min_index)
    else:
        _scan_scale(u, window)
    return BoundsProfile(
        l=index_scaled_profile(u, 0, label="n*u(n)"),
        r=index_scaled_profile(u, 1, label="(n+1)*u(n)"),
        threshold=0,
        label=f"scale[{u.label}]",
        analytic=dict(u.analytic),
        scale=u,
    )


def _nondecreasing(u: GrowthProfile) -> bool:
    """True only where u(n) <= u(n+1) for every n follows from u's kind and
    the signs of its parameters.  The parameters are read here, not trusted
    to a constructor: `GrowthProfile.from_dict` skips the constructors' checks."""
    k, p = u.kind, u.params
    if u.min_index < 1:  # the power and sqrt rules below need n >= 1
        return False
    if k == "exponential" or k == "power":
        a, coeff = p["a"], p.get("coeff", 1)
        # exponential: a^(n+1) = a * a^n >= a^n for a >= 1; power: (n+1)^a >= n^a
        # for a >= 0; coeff > 0 keeps the order, and shift moves both rows alike
        least = 1 if k == "exponential" else 0
        return _finite(a, coeff, p.get("shift", 0)) and a >= least and coeff > 0
    # sqrt is increasing; coeff > 0 keeps the order
    if k == "sqrt":
        return _finite(p.get("coeff", 1)) and p.get("coeff", 1) > 0
    # (n+1) log a - n log a = log a > 0 for a > 1
    if k == "linear_log":
        return _finite(p["a"]) and p["a"] > 1
    # exp is increasing, so exp(g) is nondecreasing wherever g is
    if k == "exp_of":
        return _nondecreasing(p["inner"])
    return False


def _finite(*values: Any) -> bool:
    """Every value is a finite real number (rational, int or finite float)."""
    return all(
        isinstance(v, (int, Fraction)) or (isinstance(v, float) and math.isfinite(v))
        for v in values
    )


def _scan_scale(u: GrowthProfile, window: int) -> None:
    """Row scan of u(n) >= 2 and u(n+1) >= u(n) for n = min_index..window."""
    for n in range(u.min_index, window + 1):
        _require_scale(certified_compare(((1, u, n),), 2), "u(n) >= 2", n)
        _require_scale(certified_compare(((1, u, n + 1), (-1, u, n))), "u(n+1) >= u(n)", n)


def _require_scale(sign: int | None, condition: str, n: int) -> None:
    """A tie meets a ">=" scale condition; an undecided one is an error, not a pass."""
    if sign is None:
        raise ProfileError(f"scale profile: {condition} undecided at n={n}")
    if sign < 0:
        raise ProfileError(f"scale profile fails {condition} at n={n}")


def check_deviation_scale(psi: GrowthProfile, window: int = DEFAULT_WINDOW) -> dict[str, Any]:
    """Window check of the deviation-scale hypotheses: psi(n+1) - psi(n) -> 0
    and e^{pn} psi(n) -> infinity for every p > 0.

    Surrogates on the window: |psi(n+1) - psi(n)| <= 0.05 over the last decile,
    and log psi(n) >= -n/20 throughout.  Returns a report dict.
    """
    if psi.analytic.get("psi_conditions"):
        return {"ok": True, "window": window, "certified": "stated"}
    tail_start = max(psi.min_index, window - window // 10)
    max_tail_diff = 0.0
    for n in range(tail_start, window):
        diff = abs(float(psi.mp_value(n + 1) - psi.mp_value(n)))
        max_tail_diff = max(max_tail_diff, diff)
    if max_tail_diff > 0.05:
        return {"ok": False, "window": window, "reason": f"psi increments stay at {max_tail_diff:.4g}"}
    for n in range(psi.min_index, window + 1):
        if float(psi.log_value(n)) < -n / 20:
            return {"ok": False, "window": window, "reason": f"psi decays too fast at n={n}"}
    return {"ok": True, "window": window, "certified": "window", "max_tail_diff": max_tail_diff}


def deviation_bounds(
    psi: GrowthProfile,
    beta,
    *,
    k_limit: int = 400,
    window: int = DEFAULT_WINDOW,
) -> BoundsProfile:
    """Digit bounds targeting (log d_n - n)/psi(n) -> beta.

    Rows are L(n) = exp(n + beta*psi(n)) and R(n) = (1 + psi(n)/n) L(n) beyond
    a computed splice index K, with the 2n / 2(n+1) prefix below it.
    """
    report = check_deviation_scale(psi, window)
    if not report["ok"]:
        raise ProfileError(f"deviation scale rejected: {report['reason']}")
    f = deviation_profile(beta, psi, label=f"n + {beta}*psi(n)")
    low_l, low_r = affine_profile(2, 0, label="2n"), affine_profile(2, 2, label="2(n+1)")
    big_l = exp_of_profile(f, label="exp(n + beta*psi)")
    big_r = exp_of_scaled_profile(f, psi, label="(1+psi/n)*exp(n + beta*psi)")
    k = find_threshold(big_l, big_r, k_limit)
    return BoundsProfile(
        l=piecewise_profile(k, low_l, big_l),
        r=piecewise_profile(k, low_r, big_r),
        threshold=k,
        label=f"deviation[beta={beta}]",
        analytic={"dimension": 1.0},
    )


# -- catalog and fixtures ----------------------------------------------------


def builtin_profiles() -> dict[str, GrowthProfile]:
    """Named profiles used by the dimension experiments, each tagged with its
    externally known limit values."""
    inf = math.inf
    return {
        "sqrt": sqrt_profile(analytic={"gamma": inf, "xi": 0.0}, label="sqrt"),
        "linear_log3": linear_log_profile(
            3, analytic={"gamma": inf, "xi": 0.0}, label="linear_log3"
        ),
        "square": power_profile(2, analytic={"gamma": inf, "xi": 0.0}, label="square"),
        "geometric3": exponential_profile(
            3, analytic={"gamma": inf, "xi": 2.0}, label="geometric3"
        ),
        "half_cube": power_profile(
            3, coeff=Fraction(1, 2), analytic={"gamma": inf, "xi": 0.0}, label="half_cube"
        ),
        "log2": log_profile(2, analytic={"gamma": 2.0, "xi": 0.0, "theta": 1.0}, label="log2"),
        "scale_geometric3": exponential_profile(
            3, coeff=2, analytic={"eta": 0.0}, label="scale_geometric3"
        ),
        "scale_exp_sqrt": exp_of_profile(
            sqrt_profile(), analytic={"eta": 0.0}, label="scale_exp_sqrt"
        ),
        "scale_exp_square": exp_of_profile(
            power_profile(2), analytic={"eta": 0.0}, label="scale_exp_square"
        ),
        "lil": lil_profile(analytic={"psi_conditions": 1.0}, label="lil"),
    }


def oscillating_ratio_word(k_max: int) -> tuple[int, ...]:
    """Word with digits floor(exp(n-1+sqrt(n))) at odd n and
    floor(exp(n+sqrt(n))) at even n; its consecutive-ratio subsequences split
    toward two different limits (1 and e^2).  Floors are certified."""
    if k_max < 2:
        raise ProfileError("need k_max >= 2")
    digits = []
    for n in range(1, k_max + 1):
        off = 1 if n % 2 else 0
        digits.append(
            certified_floor(lambda iv: iv.exp(iv.mpf(n - off) + iv.sqrt(iv.mpf(n))))
        )
    word = tuple(digits)
    for a, b in zip(word, word[1:]):
        if b <= a:
            raise ProfileError(f"fixture word not strictly increasing at {a} -> {b}")
    return word
