"""Regenerate bench/reference.json, the reference outputs of dimension_report.

    python3 bench/make_reference.py

Run it only at a commit whose outputs are trusted: the benchmark compares
every later commit against what this writes.  Each of the SLOTS slots holds
the inputs and reference outputs of one dimension_report pass, with profile
parameters of its own.  The certified_sign ladder stores floor(x * 2^49152)
for x = exp(sqrt(m)); this script checks that each rung's near-tie is
undecided at half its bit level and decided at its bit level.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import mpmath  # noqa: E402

import piercelib  # noqa: E402
import piercelib.cli  # noqa: E402
from workloads import (  # noqa: E402
    LADDER_BITS,
    REFERENCE_PATH,
    dim_argv,
    float_summary,
    int_digest,
    split_document,
    word_digest,
)

SLOTS = 7
BETAS = ("1", "1/2", "3/4", "2/3", "3/2", "5/4", "4/5", "6/5")
LADDER_M = (3, 5, 7, 11)
EXP_SQRT_WINDOW = 2000
FRAC_BITS = 3 * LADDER_BITS[-1] // 4


def _q(x: Fraction) -> int | str:
    """JSON form of a rational parameter: the library reads ints and "p/q" strings."""
    return x.numerator if x.denominator == 1 else str(x)


def slot_inputs(i: int) -> dict:
    # Parameters change little from slot to slot, so that every slot costs
    # about the same and the seed, which picks the slots, moves no timing.
    geo = Fraction(2 + 4 * i)
    exp_sqrt = 1 + Fraction(i, 64)
    alpha = [2 + Fraction(k, 3) for k in (2 * i, 2 * i + 1)]
    log_coeff = [2 + Fraction(k, 5) for k in range(4 * i, 4 * i + 4)]
    specs = []
    # One geometric row at --n-max 60 per slot: its cost is mostly the window
    # scan of bounds_from_scale, which a row at 1000 would repeat.
    u = {"kind": "exponential", "a": 3, "coeff": _q(geo), "analytic": {"eta": 0.0},
         "label": f"geometric3x{geo}"}
    specs.append(({"family": "E_star", "params": {"u": u}}, 60, None))
    # The exp-sqrt row runs at --n-max 1000 only, on a verification window of
    # EXP_SQRT_WINDOW levels: its cost is mostly the certified window scan,
    # and at the default 10^4 levels this one document would be half a pass.
    u = {"kind": "exp_of", "inner": {"kind": "sqrt", "coeff": _q(exp_sqrt)},
         "analytic": {"eta": 0.0}, "label": f"exp_sqrt_x{exp_sqrt}"}
    specs.append(({"family": "E_star", "params": {"u": u}}, 1000, EXP_SQRT_WINDOW))
    for n_max, a in zip((60, 1000), alpha):
        specs.append(({"family": "F_alpha", "params": {"alpha": _q(a)}}, n_max, None))
    # Three E_phi rows at --n-max 60 per slot sit, with the level-150 count,
    # at the middle of a pass's op latencies, so op_p50_ms is a median of
    # like ops rather than the boundary between two unlike ones.
    for n_max, c in zip((60, 60, 60, 1000), log_coeff):
        specs.append(
            ({"family": "E_phi", "params": {"profile": {"kind": "log", "coeff": _q(c)}}}, n_max, None)
        )
    return {
        "specs": specs,
        "geo_coeff": _q(geo),
        "beta": BETAS[i],
        "count_levels": (150 + i, 400 + i),
        "oscillating_k": 2000 + 10 * i,
        "ladder_m": LADDER_M[i % len(LADDER_M)],
        "emptiness": [["F_alpha", _q(alpha[0])], ["A_alpha", _q(1 / alpha[0])]],
    }


def run_document(spec: dict, n_max: int, window: int | None) -> dict:
    doc = {"spec": spec, "n_max": n_max, "window": window}
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = piercelib.cli.main(dim_argv(doc))
    elapsed = time.perf_counter() - start
    digest, floats = split_document(buf.getvalue())
    print(f"  dim {spec['family']} n_max={n_max}: exit {code}, {elapsed:.2f} s", flush=True)
    return {
        **doc,
        "exit": code,
        "exact_sha256": digest,
        "floats": {key: float_summary(values) for key, values in sorted(floats.items())},
    }


def make_slot(i: int) -> dict:
    inputs = slot_inputs(i)
    print(f"slot {i}", flush=True)
    docs = [run_document(*spec) for spec in inputs["specs"]]
    bounds = piercelib.deviation_bounds(
        piercelib.builtin_profiles()["lil"], Fraction(inputs["beta"])
    )
    counts = []
    for n in inputs["count_levels"]:
        count = piercelib.count_constrained_words(n, bounds)
        counts.append({"n": n, "bits": count.bit_length(), "sha256": int_digest(count)})
    k = inputs["oscillating_k"]
    word = piercelib.oscillating_ratio_word(k)
    return {
        "docs": docs,
        "geo_coeff": inputs["geo_coeff"],
        "deviation": {"beta": inputs["beta"], "threshold": bounds.threshold},
        "counts": counts,
        "oscillating": {"k": k, "sha256": word_digest(word)},
        "ladder_m": inputs["ladder_m"],
        "emptiness": inputs["emptiness"],
    }


def ladder_floor(m: int) -> int:
    """floor(exp(sqrt(m)) * 2^FRAC_BITS), agreed at two working precisions."""
    values = set()
    for extra in (128, 256):
        with mpmath.workprec(FRAC_BITS + extra):
            x = mpmath.exp(mpmath.sqrt(m))
            values.add(int(mpmath.floor(mpmath.ldexp(x, FRAC_BITS))))
    if len(values) != 1:
        raise SystemExit(f"floor of exp(sqrt({m})) * 2^{FRAC_BITS} not settled")
    return values.pop()


def check_rungs(m: int, f_top: int) -> None:
    iv = mpmath.iv
    for bits in LADDER_BITS:
        frac = 3 * bits // 4
        f = f_top >> (FRAC_BITS - frac)
        for numerator, sign in ((f - 1, 1), (f + 2, -1)):
            for prec, decided in ((bits // 2, False), (bits, True)):
                old = iv.prec
                try:
                    iv.prec = prec
                    val = iv.exp(iv.sqrt(iv.mpf(m))) - iv.mpf(numerator) / iv.mpf(1 << frac)
                    got = 1 if val.a > 0 else -1 if val.b < 0 else 0
                finally:
                    iv.prec = old
                if (got != 0) != decided or (decided and got != sign):
                    raise SystemExit(f"ladder rung m={m} bits={bits} decides at the wrong level")


def main() -> None:
    ladder = {}
    for m in LADDER_M:
        f_top = ladder_floor(m)
        check_rungs(m, f_top)
        ladder[str(m)] = format(f_top, "x")
    reference = {
        "about": "dimension_report reference outputs; regenerate with bench/make_reference.py",
        "piercelib_version": piercelib.__version__,
        "ladder": {"frac_bits": FRAC_BITS, "floor_hex": ladder},
        "slots": [make_slot(i) for i in range(SLOTS)],
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()
