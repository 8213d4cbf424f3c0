"""The three benchmark workloads and the output checks of their operations.

Each workload is built from the library namespace it calls (the `piercelib`
package, or a stand-in with a planted fault in the self-tests), the seed and
the number of passes.  `prepare()` makes every input from the seed and loads
or computes the reference outputs; the harness times it as set-up.
`ops(p, tracer)` returns pass p as a list of `Op`: one closed-loop caller runs
them in order, and each returns None when its output checks out and a short
message when it does not.  Every pass has the same layout of op kinds, with
inputs of its own, so the harness can line up each op position over the
passes.

Why these three: almost all of `exact_arith` is the `Fraction` hot path of
`expansion`/`intervals`; almost all of `law_sampling` is the exact digit
sampler in `laws`; `dimension_report` spends its time in `profiles`,
`_precision`, `dimension`, `families` and `cli`.  So a change to one layer has
a workload that exercises it and workloads that bypass it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], str | None]


class NullTracer:
    """Stands in for `tracing.Tracer` in untraced passes."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, amount: float = 1) -> None:
        pass


NULL_TRACER = NullTracer()


# -- integer oracles for Pierce digits and word values ------------------------


def pierce_digits(p: int, q: int) -> tuple[int, ...]:
    """Digits of p/q in (0, 1] by the integer recursion (d, p) = (q // p, q % p)."""
    digits = []
    while p:
        d, p = divmod(q, p)
        digits.append(d)
    return tuple(digits)


def word_value(word) -> Fraction:
    """Alternating value of a word, folded back to front on integers."""
    a, b = 0, 1
    for d in reversed(word):
        a, b = b - a, b * d
    return Fraction(a, b)


def bumped(word) -> tuple[int, ...]:
    return tuple(word[:-1]) + (word[-1] + 1,)


class Workload:
    name = ""
    nominal_pass_s = 1.0  # seconds of --seconds that one pass stands for
    max_passes = 10**6

    def __init__(self, lib, seed: int, passes: int):
        self.lib = lib
        self.seed = seed
        self.passes = passes

    def prepare(self) -> None:
        raise NotImplementedError

    def ops(self, p: int, tracer=NULL_TRACER) -> list[Op]:
        raise NotImplementedError


# -- exact_arith -------------------------------------------------------------------


def _scale_geometric3(n: int) -> int:
    """u(n) = 2 * 3^n, the builtin scale_geometric3 profile."""
    return 2 * 3**n


class ExactArith(Workload):
    """Rational round trips and word interval sets at two denominator sizes.

    A round trip checks expand -> evaluate == x and affine_map(prefix,
    remainder) == x against integer-oracle digits.  An interval set checks
    fundamental_interval and interval_length against oracle values.  A window
    op checks basic/gap intervals of a word inside the scale_geometric3
    digit windows and that the gap is at least gap_lower_bound.
    """

    name = "exact_arith"
    nominal_pass_s = 2.9
    MIX = {"rational64": 900, "rational256": 150, "word64": 500, "word256": 75, "window": 400}

    def __init__(self, lib, seed: int, passes: int, mix: dict[str, int] | None = None):
        super().__init__(lib, seed, passes)
        self.mix = dict(mix or self.MIX)

    def prepare(self) -> None:
        self.bounds = self.lib.bounds_from_scale(
            self.lib.builtin_profiles()["scale_geometric3"], window=64
        )
        layout = [kind for kind, count in self.mix.items() for _ in range(count)]
        random.Random(f"{self.name}:{self.seed}:layout").shuffle(layout)
        self.inputs = [self._make_pass(p, layout) for p in range(self.passes)]

    def _make_pass(self, p: int, layout: list[str]) -> list[tuple]:
        """Fresh inputs for pass p, one per op of the layout, which every
        pass shares so that op positions line up across passes."""
        rng = random.Random(f"{self.name}:{self.seed}:{p}")
        items = []
        for kind in layout:
            if kind.startswith("rational"):
                items.append((kind, *self._rational(rng, int(kind[8:]))))
            elif kind.startswith("word"):
                items.append((kind, *self._word(rng, int(kind[4:]))))
            else:
                items.append((kind, *self._window_word(rng, rng.randint(1, 5))))
        return items

    @staticmethod
    def _fraction(rng: random.Random, bits: int) -> tuple[int, int]:
        q = rng.randrange(1 << (bits - 1), 1 << bits)
        return rng.randint(1, q), q

    def _rational(self, rng, bits):
        p, q = self._fraction(rng, bits)
        digits = pierce_digits(p, q)
        cap = rng.randint(1, max(1, len(digits) - 1))
        return Fraction(p, q), digits, cap

    def _word(self, rng, bits):
        digits = pierce_digits(*self._fraction(rng, bits))
        word = digits[: rng.randint(max(1, len(digits) // 2), len(digits))]
        own, bump = word_value(word), word_value(bumped(word))
        attained = len(word) == 1 or word[-1] > word[-2] + 1
        if len(word) % 2:
            expected = (bump, own, True, not attained)
        else:
            expected = (own, bump, not attained, True)
        return word, expected

    def _window_word(self, rng, n):
        word = []
        for k in range(1, n + 1):
            u = _scale_geometric3(k)
            hi = (k + 1) * u - (1 if k == n else 0)  # last digit keeps an in-window bump
            word.append(rng.randint(k * u + 1, hi))
        word = tuple(word)
        u_next = _scale_geometric3(n + 1)
        l_next, r_next = (n + 1) * u_next, (n + 2) * u_next
        a, b = l_next + 1, r_next

        def hull(w):
            ends = sorted((word_value(w + (a,)), word_value(w + (b + 1,))))
            return ends[0], ends[1]

        basic, basic_bump = hull(word), hull(bumped(word))
        gap = (basic_bump[1], basic[0]) if n % 2 else (basic[1], basic_bump[0])
        return word, (Fraction(l_next), Fraction(r_next)), basic, gap

    def ops(self, p: int, tracer=NULL_TRACER) -> list[Op]:
        out = []
        for kind, *args in self.inputs[p]:
            if kind.startswith("rational"):
                out.append(Op(kind, self._round_trip(tracer, *args)))
            elif kind.startswith("word"):
                out.append(Op(kind, self._interval_set(*args)))
            else:
                out.append(Op(kind, self._window_set(*args)))
        return out

    def _round_trip(self, tracer, x, digits, cap):
        lib = self.lib

        def run():
            full = lib.expand(x)
            if full.word != digits or not full.terminated or full.remainder != 0:
                return f"expand({x}) digits differ from the integer recursion"
            if lib.evaluate(full.word) != x:
                return f"evaluate(expand({x})) != x"
            part = lib.expand(x, cap=cap)
            tracer.count("expansion.digits", len(full.word) + len(part.word))
            if part.word != digits[:cap]:
                return f"expand({x}, cap={cap}) is not a prefix of the digits"
            if lib.affine_map(part.word, part.remainder) != x:
                return f"affine_map(prefix, remainder) != {x}"
            return None

        return run

    def _interval_set(self, word, expected):
        lib = self.lib

        def run():
            iv = lib.fundamental_interval(word)
            if (iv.left, iv.right, iv.left_open, iv.right_open) != expected:
                return f"fundamental_interval{word[:3]}... differs from the oracle"
            length = lib.interval_length(word)
            if length != abs(lib.evaluate(word) - lib.evaluate(lib.bump_last(word))):
                return "interval_length != |evaluate(w) - evaluate(bump_last(w))|"
            if length != expected[1] - expected[0]:
                return "interval_length differs from the oracle"
            return None

        return run

    def _window_set(self, word, next_bounds, basic, gap):
        lib, bounds = self.lib, self.bounds

        def run():
            fam = lib.family_basic_interval(word, bounds)
            direct = lib.basic_interval(word, *next_bounds)
            for iv in (fam, direct):
                if (iv.left, iv.right, iv.left_open, iv.right_open) != (*basic, False, False):
                    return f"basic interval of {word} differs from the oracle"
            g = lib.gap_interval(word, bounds)
            if (g.left, g.right, g.left_open, g.right_open) != (*gap, True, True):
                return f"gap interval of {word} differs from the oracle"
            eps = lib.gap_lower_bound(word, bounds)
            if not 0 < eps <= g.length:
                return f"gap of {word} is shorter than gap_lower_bound"
            return None

        return run


# -- law_sampling ---------------------------------------------------------------------


KS_LIMIT = 0.08  # criterion 10's frozen threshold (docs/calibration.md)


def first_digit_ks(first_digits: list[int]) -> float:
    """KS distance of the first digits to the exact law P(d1 <= j) = j/(j+1)."""
    n = len(first_digits)
    counts: dict[int, int] = defaultdict(int)
    for d in first_digits:
        counts[d] += 1
    # Both distribution functions step only at integers, so the sup is taken
    # at j = 1 .. max(d1); beyond that the gap 1/(j+1) only shrinks.
    worst, seen = 0.0, 0
    for j in range(1, max(first_digits) + 1):
        seen += counts.get(j, 0)
        worst = max(worst, abs(seen / n - j / (j + 1)))
    return worst


def _increasing_positive(word, n: int) -> bool:
    return len(word) == n and word[0] >= 1 and all(a < b for a, b in zip(word, word[1:]))


class LawSampling(Workload):
    """Seeded digit samples as run_law draws them, at two depths.

    Shallow: clt at depth 500, 2000 samples per pass, then one law op that
    checks the KS distance of the clt statistic to the normal law and of the
    first digits to their exact law (both <= 0.08).  Deep: lil at depth 10^4,
    with finite running extremes.  Every word must be positive and strictly
    increasing.
    """

    name = "law_sampling"
    nominal_pass_s = 5.0

    def __init__(self, lib, seed: int, passes: int, shallow=(500, 2000), deep=(10_000, 2)):
        super().__init__(lib, seed, passes)
        self.shallow_n, self.shallow_count = shallow
        self.deep_n, self.deep_count = deep

    def prepare(self) -> None:
        self.indices = [
            (
                range(p * self.shallow_count, (p + 1) * self.shallow_count),
                range(10**9 + p * self.deep_count, 10**9 + (p + 1) * self.deep_count),
            )
            for p in range(self.passes)
        ]

    def ops(self, p: int, tracer=NULL_TRACER) -> list[Op]:
        shallow, deep = self.indices[p]
        stats: list[float] = []
        firsts: list[int] = []
        out = [Op("shallow", self._sample(tracer, i, stats, firsts)) for i in shallow]
        out.append(Op("law", self._law(stats, firsts)))
        out += [Op("deep", self._deep(tracer, i)) for i in deep]
        return out

    def _draw(self, tracer, index: int, n: int, depth: str):
        lib = self.lib
        with tracer.span(f"laws.sample.{depth}"):
            sampler = lib.DigitSampler(lib.child_seed(self.seed, index))
            word = sampler.take(n)
        tracer.count(f"laws.digits.{depth}", n)
        tracer.count("laws.bits_used", sampler.bits_used)
        tracer.count("laws.retries", sampler.retries)
        return word

    def _sample(self, tracer, index, stats, firsts):
        n = self.shallow_n

        def run():
            word = self._draw(tracer, index, n, "shallow")
            if not _increasing_positive(word, n):
                return f"sample {index} is not a positive increasing word"
            stats.append(self.lib.clt_stat(word, n))
            firsts.append(word[0])
            return None

        return run

    def _law(self, stats, firsts):
        def run():
            if len(stats) < self.shallow_count:
                return f"only {len(stats)} of {self.shallow_count} samples drawn"
            ks = self.lib.ks_distance(stats, self.lib.normal_cdf)
            if not ks <= KS_LIMIT:
                return f"clt KS distance {ks:.4f} > {KS_LIMIT}"
            ks1 = first_digit_ks(firsts)
            if not ks1 <= KS_LIMIT:
                return f"first-digit KS distance {ks1:.4f} > {KS_LIMIT}"
            return None

        return run

    def _deep(self, tracer, index):
        n = self.deep_n

        def run():
            word = self._draw(tracer, index, n, "deep")
            if not _increasing_positive(word, n):
                return f"deep sample {index} is not a positive increasing word"
            stat = self.lib.lil_stat(word, n)
            hi, lo = self.lib.lil_running_extremes(word)
            if not all(map(math.isfinite, (stat, hi, lo))):
                return f"deep sample {index} has non-finite lil extremes"
            return None

        return run


# -- dimension_report -------------------------------------------------------------------

FLOAT_COLUMNS = ("log_count", "log_inv_diam", "ratio")
FLOAT_RTOL = 1e-12
LADDER_BITS = tuple(1 << j for j in range(10, 17))


def split_document(text: str) -> tuple[str, dict[str, list[float]]]:
    """(SHA-256 of the document with float fields blanked, floats by field).

    Float fields are the row columns in FLOAT_COLUMNS and every JSON float in
    the summary; everything else (rationals, counts, statuses, digits, the
    embedded config) is an exact field.
    """
    doc = json.loads(text)
    floats: dict[str, list[float]] = defaultdict(list)
    for row in doc["data"]:
        for col in FLOAT_COLUMNS:
            if col in row:
                floats[f"{row.get('bound_kind')}.{col}"].append(float(row[col]))
                row[col] = None

    def blank(obj, path):
        if isinstance(obj, float):
            floats[path].append(obj)
            return None
        if isinstance(obj, dict):
            return {k: blank(v, f"{path}.{k}") for k, v in obj.items()}
        if isinstance(obj, list):
            return [blank(v, path) for v in obj]
        return obj

    doc["summary"] = blank(doc["summary"], "summary")
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), dict(floats)


def float_summary(values: list[float]) -> list[float]:
    """[count, exact sum, sum of magnitudes, first, last] of one float field."""
    return [len(values), math.fsum(values), math.fsum(map(abs, values)), values[0], values[-1]]


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= FLOAT_RTOL * abs(scale)


def check_document(text: str, exit_code: int, ref: dict) -> str | None:
    """Compare one `dim` document with its reference: exact fields through
    their digest, float fields within relative FLOAT_RTOL on their summaries."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code} != {ref['exit']}"
    digest, floats = split_document(text)
    if digest != ref["exact_sha256"]:
        return "exact fields differ from the reference"
    if sorted(floats) != sorted(ref["floats"]):
        return "float fields differ from the reference"
    for key, want in ref["floats"].items():
        got = float_summary(floats[key])
        if got[0] != want[0] or not (
            _close(got[1], want[1], want[2])
            and _close(got[3], want[3], want[3])
            and _close(got[4], want[4], want[4])
        ):
            return f"float field {key} differs from the reference beyond {FLOAT_RTOL}"
    return None


def int_digest(value: int) -> str:
    return hashlib.sha256(value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")).hexdigest()


def word_digest(word) -> str:
    return hashlib.sha256(",".join(map(str, word)).encode()).hexdigest()


def dim_argv(doc: dict) -> list[str]:
    """`piercelib dim` arguments of one reference document."""
    argv = ["dim", json.dumps(doc["spec"]), "--n-max", str(doc["n_max"])]
    if doc.get("window") is not None:
        argv += ["--window", str(doc["window"])]
    return argv


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class DimensionReport(Workload):
    """`dim` documents and library calls, each checked against reference.json.

    A pass takes one slot of the reference pool: eight documents (E_star
    over a geometric scale on the exact path at --n-max 60; E_star over an
    exp-sqrt scale on the mpmath.iv path at 1000; F_alpha at 60 and 1000;
    E_phi over log profiles, three at 60 and one at 1000), deviation_bounds(lil, beta) with counts at two deep levels of those
    bounds, oscillating_ratio_word, a certified_sign ladder whose rungs need
    2^10 .. 2^16 bits, and membership/emptiness calls.  Every slot uses
    profiles of its own, so no two documents of a run share a profile and an
    in-process cache wins only what one CLI call would also win.
    """

    name = "dimension_report"
    nominal_pass_s = 4.5
    max_passes = 7  # one per reference slot (make_reference.SLOTS)

    def prepare(self) -> None:
        ref = load_reference()
        slots = ref["slots"]
        if self.passes > len(slots):
            raise ValueError(f"{self.passes} passes need more than the {len(slots)} reference slots")
        rng = random.Random(f"{self.name}:{self.seed}")
        order = rng.sample(range(len(slots)), self.passes)
        top = ref["ladder"]["frac_bits"]
        self.slots = []
        for i in order:
            slot = slots[i]
            m = slot["ladder_m"]
            f_top = int(ref["ladder"]["floor_hex"][str(m)], 16)
            rungs = []
            for bits in LADDER_BITS:
                frac = 3 * bits // 4
                f = f_top >> (top - frac)
                sign = rng.choice((1, -1))
                # x - (f - 1)/2^frac is in [2^-frac, 2^(1-frac)); x - (f + 2)/2^frac
                # in (-2^(1-frac), -2^-frac]: far enough from 0 to decide at
                # `bits` and too close to decide at bits/2
                rungs.append((bits, m, f - 1 if sign > 0 else f + 2, frac, sign))
            self.slots.append((slot, rungs, self._member_words(rng, slot)))

    @staticmethod
    def _member_words(rng: random.Random, slot: dict):
        """An in-window and an out-of-window word for the slot's first geometric
        scale u(n) = c * 3^n, whose windows are (n u(n), (n+1) u(n)]."""
        c = Fraction(slot["geo_coeff"])
        n = rng.randint(3, 6)
        word = []
        for k in range(1, n + 1):
            u = c * 3**k
            lo, hi = math.floor(k * u) + 1, math.floor((k + 1) * u)
            word.append(rng.randint(lo, hi))
        outside = tuple(word[:-1]) + (math.floor((n + 1) * c * 3**n) + 1,)
        return tuple(word), outside

    def ops(self, p: int, tracer=NULL_TRACER) -> list[Op]:
        slot, rungs, (inside, outside) = self.slots[p]
        shared: dict = {}
        out = [Op(_doc_kind(doc), self._document(tracer, doc)) for doc in slot["docs"]]
        out.append(Op("deviation_bounds", self._deviation(slot["deviation"], shared)))
        out += [Op("count", self._count(c, shared)) for c in slot["counts"]]
        out.append(Op("oscillating_word", self._oscillating(slot["oscillating"])))
        out += [Op(f"sign.b{r[0]}", self._rung(tracer, *r)) for r in rungs]
        spec = slot["docs"][0]["spec"]
        out.append(Op("membership", self._membership(spec, inside, False)))
        out.append(Op("membership", self._membership(spec, outside, True)))
        out += [Op("emptiness", self._emptiness(fam, a)) for fam, a in slot["emptiness"]]
        return out

    def _document(self, tracer, doc):
        argv = dim_argv(doc)

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.lib.cli.main(argv)
            text = buf.getvalue()
            tracer.count("cli.bytes_out", len(text))
            return check_document(text, code, doc)

        return run

    def _deviation(self, ref, shared):
        lib = self.lib

        def run():
            psi = lib.builtin_profiles()["lil"]
            bounds = lib.deviation_bounds(psi, Fraction(ref["beta"]))
            shared["bounds"] = bounds
            if bounds.threshold != ref["threshold"]:
                return f"deviation threshold {bounds.threshold} != {ref['threshold']}"
            return None

        return run

    def _count(self, ref, shared):
        def run():
            if "bounds" not in shared:
                return "no deviation bounds to count under"
            count = self.lib.count_constrained_words(ref["n"], shared["bounds"])
            if count.bit_length() != ref["bits"] or int_digest(count) != ref["sha256"]:
                return f"count at level {ref['n']} differs from the reference"
            return None

        return run

    def _oscillating(self, ref):
        def run():
            word = self.lib.oscillating_ratio_word(ref["k"])
            if len(word) != ref["k"] or word_digest(word) != ref["sha256"]:
                return f"oscillating_ratio_word({ref['k']}) differs from the reference"
            return None

        return run

    def _rung(self, tracer, bits, m, numerator, frac, sign):
        lib = self.lib
        den = 1 << frac

        def expr(iv):
            return iv.exp(iv.sqrt(iv.mpf(m))) - iv.mpf(numerator) / iv.mpf(den)

        def run():
            with tracer.span(f"precision.ladder.b{bits}"):
                got = lib.certified_sign(expr)
            if got != sign:
                return f"certified_sign at {bits} bits gave {got}, want {sign}"
            return None

        return run

    def _membership(self, spec, word, violated):
        lib = self.lib

        def run():
            result = lib.membership(lib.SetSpec.from_dict(spec), word, len(word))
            if result.violated != violated or result.satisfied_so_far == violated:
                return f"membership of {word} gave violated={result.violated}"
            return None

        return run

    def _emptiness(self, family, alpha):
        lib = self.lib
        want = Fraction(alpha) < 1  # digit growth beats any alpha < 1

        def run():
            spec = lib.SetSpec(family, {"alpha": Fraction(alpha)})
            result = lib.emptiness_check(spec)
            if result.empty != want or result.status != ("proven" if want else "nonempty_or_unknown"):
                return f"emptiness of {family}({alpha}) gave {result.status}"
            return None

        return run


def _doc_kind(doc: dict) -> str:
    """Op kind of a document, e.g. dim.E_star.exponential.60."""
    spec = doc["spec"]
    profile = spec["params"].get("u") or spec["params"].get("profile")
    parts = ["dim", spec["family"]] + ([profile["kind"]] if profile else []) + [str(doc["n_max"])]
    return ".".join(parts)


WORKLOADS = {w.name: w for w in (ExactArith, LawSampling, DimensionReport)}
