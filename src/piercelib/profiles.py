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
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
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


def _pair(v: Any) -> tuple[int, int] | None:
    """(numerator, denominator) of a parameter when it is exactly rational."""
    if isinstance(v, (Fraction, int)):
        return v.as_integer_ratio()
    return None


def _num(ctx, v: Any):
    """`v` in the context `ctx` (`mpmath.mp` or `mpmath.iv`).  A Fraction's
    numerator is divided by its int denominator, which is never rounded first;
    inside a question that division runs once per (context, precision)."""
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return ctx.mpf(v.numerator)
        return _recall(v, ("num", ctx, ctx.prec), _quotient, ctx, v)
    return ctx.mpf(v)


def _quotient(ctx, v: Fraction):
    return ctx.mpf(v.numerator) / v.denominator


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
        num, den = (int(part) for part in v.split("/", 1))
        if den == 0:
            raise ProfileError(f"zero denominator in {v!r}")
        return Fraction(num, den)
    return v


class ProfileError(ValueError):
    """Profile parameters outside their documented domain."""


# -- question scope ---------------------------------------------------------

_rows: ContextVar[dict | None] = ContextVar("piercelib_rows", default=None)


@contextmanager
def _question():
    """Scope of one certified question (a `dim` document, a `find_threshold`,
    `count_constrained_words` or `enumerate_constrained_words` call): inside
    it `_recall` computes each row once.  A question opened inside another
    (the count in a document's box sequence) shares the open one's rows, and
    the rows are dropped when the outermost question ends."""
    if _rows.get() is not None:
        yield
        return
    token = _rows.set({})
    try:
        yield
    finally:
        _rows.reset(token)


def _recall(owner: Any, key: tuple, compute, *args):
    """`compute(*args)`, computed once per (owner, key) inside a question and
    every time outside one.  A row that raises is not stored, so the next
    read raises again.  The rows hold `owner` under its id, so no new object
    can take that id while the question lives."""
    rows = _rows.get()
    if rows is None:
        return compute(*args)
    slot = (id(owner), *key)
    if slot not in rows:
        rows[slot] = compute(*args)
        rows[id(owner)] = owner
    return rows[slot]


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

    `value` is exact where the formula is rational, a Fraction of the integer
    pair `_ratio` that floors and exact comparisons read; `mp_value`, `iv_value`
    and `log_value` are one evaluator (`_eval`, `_log`) over `mpmath.mp` or
    `mpmath.iv`.  Inside a question (`_question`) each value and log, and the
    child rows the walks read, is computed once per (context, precision, row).
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
        pair = self._ratio(n)
        return None if pair is None else Fraction(*pair)

    def _ratio(self, n: int) -> tuple[int, int] | None:
        """(num, den) of the exact value at n with den > 0, not necessarily
        in lowest terms, or None when the formula is not rational."""
        self._check_index(n)
        k, p = self.kind, self.params
        if k == "power" or k == "exponential":
            a, coeff, shift = _pair(p["a"]), _pair(p.get("coeff", 1)), _pair(p.get("shift", 0))
            if a is None or coeff is None or shift is None:
                return None
            (an, ad), (cn, cd), (sn, sd) = a, coeff, shift
            if k == "exponential":
                # a**n for n < 0 (a hand-built min_index) takes a Fraction's sign rule
                bn, bd = (an**n, ad**n) if n >= 0 else (Fraction(ad, an) ** -n).as_integer_ratio()
            elif ad != 1 or an < 0:
                return None
            else:
                bn, bd = n**an, 1
            return cn * bn * sd + sn * cd * bd, cd * bd * sd
        if k == "table":
            values = p["values"]
            if n > len(values):
                raise ProfileError(
                    f"profile {self.label or self.kind} has {len(values)} rows, no row {n}"
                )
            v = values[n - 1]
            if not isinstance(v, (Fraction, int)):
                v = Fraction(v)
            return v.numerator, v.denominator
        if k == "affine":
            a, b = _pair(p["a"]), _pair(p.get("b", 0))
            if a is None or b is None:
                return None
            (an, ad), (bn, bd) = a, b
            return an * n * bd + bn * ad, ad * bd
        if k == "deviation":
            beta = _pair(p["beta"])
            inner = p["psi"]._ratio(n)
            if beta is None or inner is None:
                return None
            (bn, bd), (vn, vd) = beta, inner
            return n * bd * vd + bn * vn, bd * vd
        if k == "index_scaled":
            u = p["u"]._ratio(n)
            if u is None:
                return None
            return (n + p.get("offset", 0)) * u[0], u[1]
        if k == "piecewise":
            return self._branch(n)._ratio(n)
        if k == "lil" and n <= 2:
            return n, 1
        return None

    # -- floating paths ---------------------------------------------------

    def mp_value(self, n: int) -> mpmath.mpf:
        """Value at n as an mpf under the caller's mpmath precision."""
        return self._row(mpmath.mp, n)

    def iv_value(self, n: int, iv) -> object:
        """Directed-rounding interval enclosure of the value at n."""
        return self._row(iv, n)

    def log_value(self, n: int) -> mpmath.mpf:
        """Natural log of the value, computed without overflowing exponents."""
        return self._log_row(mpmath.mp, n)

    def _row(self, ctx, n: int):
        return _recall(self, ("value", ctx, ctx.prec, n), self._eval, ctx, n)

    def _log_row(self, ctx, n: int):
        return _recall(self, ("log", ctx, ctx.prec, n), self._log, ctx, n)

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
            return n + _num(ctx, p["beta"]) * p["psi"]._row(ctx, n)
        if k == "index_scaled":
            return (n + p.get("offset", 0)) * p["u"]._row(ctx, n)
        if k == "exp_of":
            return ctx.exp(p["inner"]._row(ctx, n))
        if k == "exp_of_scaled":
            return ctx.exp(p["inner"]._row(ctx, n)) * (1 + p["psi"]._row(ctx, n) / n)
        if k == "piecewise":
            return self._branch(n)._row(ctx, n)
        raise ProfileError(f"no float path for kind {self.kind!r}")

    def _log(self, ctx, n: int):
        """Natural log of the value at n in `ctx`.  exp_of, exp_of_scaled,
        shift-free exponential/power rows with positive coeff and base, and
        index_scaled rows with n + offset > 0 over such a u never form the
        value, so cannot overflow.  A value that is not positive raises
        ProfileError."""
        self._check_index(n)
        k, p = self.kind, self.params
        if k == "exp_of":
            return p["inner"]._row(ctx, n)
        if k == "exp_of_scaled":
            factor = 1 + p["psi"]._row(ctx, n) / n
            if not factor <= 0:  # else the value is not positive, raised below
                return p["inner"]._row(ctx, n) + ctx.log(factor)
        if (
            (k == "exponential" or k == "power")
            and p.get("shift", 0) == 0
            and p.get("coeff", 1) > 0
            and (k == "power" or p["a"] > 0)
        ):
            a = _num(ctx, p["a"])
            log_base = n * ctx.log(a) if k == "exponential" else a * ctx.log(n)
            return ctx.log(_num(ctx, p.get("coeff", 1))) + log_base
        if k == "piecewise":
            return self._branch(n)._log_row(ctx, n)
        if k == "index_scaled" and n + p.get("offset", 0) > 0:
            # log((n + offset) u(n)) from u's own log row, so an exp_of scale
            # never forms its value here
            return ctx.log(n + p.get("offset", 0)) + p["u"]._log_row(ctx, n)
        exact = self.value(n)
        if exact is not None:
            if exact <= 0:
                raise ProfileError(f"log of non-positive value {exact} at n={n}")
            return ctx.log(ctx.mpf(exact.numerator)) - ctx.log(ctx.mpf(exact.denominator))
        val = self._row(ctx, n)
        # True for an mpf <= 0, and for an enclosure only when all of it is
        if val <= 0:
            raise ProfileError(f"log of non-positive value {val} at n={n}")
        return ctx.log(val)

    def floor(self, n: int) -> int:
        """Exact integer part of the value at n (certified for irrational
        formulas by precision escalation).  A question keys it by
        `mpmath.mp.prec` too: the certified floor rounds its endpoints there."""
        return _recall(self, ("floor", mpmath.mp.prec, n), self._floor, n)

    def _floor(self, n: int) -> int:
        pair = self._ratio(n)
        if pair is not None:
            return pair[0] // pair[1]
        if self.kind == "index_scaled":
            # (n + offset) times u's enclosure, exactly: no enclosure of this
            # row is built, so inside a question l and r share u's enclosures
            u = self.params["u"]
            return certified_floor(lambda iv: u.iv_value(n, iv), n + self.params.get("offset", 0))
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
    min_index = params["u"].min_index if kind == "index_scaled" else 2 if kind == "log" else 1
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

    def digit_range(self, n: int) -> tuple[int, int]:
        """Inclusive integer range of admissible digits at level n."""
        return self.l.floor(n) + 1, self.r.floor(n)

    def branch_count(self, n: int) -> int:
        lo, hi = self.digit_range(n)
        return max(0, hi - lo + 1)

    def contains(self, n: int, d: int) -> bool:
        lo, hi = self.digit_range(n)
        return lo <= d <= hi

    def log_delta(self, n: int) -> mpmath.mpf:
        """log(r(n) - l(n)), once per (row, `mpmath.mp.prec`) in a question."""
        return _recall(self, ("log_delta", mpmath.mp.prec, n), self._log_delta, n)

    def _window_scale(self) -> GrowthProfile | None:
        """u when l and r are (n + o) u(n) and (n + o + 1) u(n) over one u, as
        every `bounds_from_scale` window is: then r - l = u exactly.  Else None.
        The one test of a scale window: no bounds profile states its scale."""
        l, r = self.l, self.r
        if (
            l.kind == r.kind == "index_scaled"
            and r.params.get("offset", 0) == l.params.get("offset", 0) + 1
            and l.params["u"] == r.params["u"]
        ):
            return l.params["u"]
        return None

    def _log_delta(self, n: int) -> mpmath.mpf:
        u = self._window_scale()
        if u is not None:
            return u.log_value(n)
        delta = self.r.mp_value(n) - self.l.mp_value(n)
        if delta <= 0:
            raise ProfileError(f"non-positive digit window at level {n}")
        return mpmath.log(delta)

    def to_dict(self) -> dict[str, Any]:
        out = {"l": self.l.to_dict(), "r": self.r.to_dict(), "threshold": self.threshold}
        if self.label:
            out["label"] = self.label
        return out

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "BoundsProfile":
        return BoundsProfile(
            l=GrowthProfile.from_dict(data["l"]),
            r=GrowthProfile.from_dict(data["r"]),
            threshold=int(data.get("threshold", 0)),
            label=data.get("label", ""),
        )


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
    num, den = (-const).as_integer_ratio()
    for c, h, n in terms:
        pair = h._ratio(n)
        if pair is None:
            break
        num, den = num * pair[1] + c * pair[0] * den, den * pair[1]
    else:
        return (num > 0) - (num < 0)  # every den is positive

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

    The search is one question (`_question`): each (row, precision)
    enclosure of l, r and every node below them is built once, however many
    pairs and splice checks read it.
    """
    if n_limit < 1:
        raise ProfileError("n_limit must be >= 1")
    with _question():
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
    return _scale_windows(u)


def _scale_windows(u: GrowthProfile) -> BoundsProfile:
    """The windows n*u(n) < d_n <= (n+1)*u(n), unverified: `bounds_from_scale`
    returns them once u is certified, and E_star membership reads them as
    they stand."""
    return BoundsProfile(
        l=index_scaled_profile(u, 0, label="n*u(n)"),
        r=index_scaled_profile(u, 1, label="(n+1)*u(n)"),
        label=f"scale[{u.label}]",
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
