"""Uniform sampling of digit sequences and the classical limit-law statistics.

Conditioned on the digits so far, the next shifted point is exactly uniform on
[0, 1/M), where M - 1 is the previous digit (M = 1 before the first digit).
The next digit is then floor(M/v) for a uniform v in (0, 1], whose law is
P(d = j | M) = M/(j(j+1)) for j >= M, so the digit process is a Markov chain
whose cylinder probabilities equal the exact cylinder interval lengths.

Every digit follows that law exactly; two exact samplers draw it, both in
integers only:

* Refinement (M of at most 1024 bits): a dyadic interval around a fresh
  uniform v is refined until the integer part of M/v is unambiguous, one
  divmod per refinement, so a digit costs a division of a ~2k-bit integer
  by a k-bit one.
* Head-and-tail inversion (larger M): with L = bit_length(M - 1) - 64 the
  top part T = d >> L is floor(M/(2^L v)), which has the same telescoping
  law as d, so it is refined from v against a 128-bit head of M with a few
  small divisions.  Given T, the low L bits are drawn uniformly and accepted
  with probability j0(j0+1)/(d(d+1)) > 1 - 2^-62, where j0 is the least
  digit of T's cell, so almost every digit costs one draw of L bits.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# Previous digit from which on digits are drawn by head-and-tail inversion:
# exactly the scales M = prev + 1 of more than 1024 bits.  Below it a
# single-divmod refinement is faster; above it the division dominates.
_HEAD_TAIL_MIN_PREV = (1 << 1024) - 1
# Refinement width from which `_head_tail` refines T against M itself: by
# then v's cell is far narrower than the head's own rounding (2^-127
# relative), so only that rounding can leave T undecided.
_HEAD_MAX_BITS = 208
# Start depth of the iterated-logarithm band: the first n with log log n >= 1
# (n >= e^e ~ 15.15), the usual floor L(t) = max(1, log t) in LIL normalisers.
# Below it the statistic's own spread exceeds its iterated-logarithm scale.
LIL_BAND_START = math.ceil(math.exp(math.e))


def child_seed(seed: int, index: int) -> int:
    """Independent per-sample stream seed derived by hashing."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest, "big")


class DigitSampler:
    """Lazily samples the digit sequence of a uniform point of (0, 1].

    Each digit is drawn from its exact conditional law given the previous
    one: by dyadic refinement while the scale M has at most 1024 bits, by
    head-and-tail inversion beyond, in integers only.  `bits_used` counts
    the random bits drawn and `retries` the rejected low-part proposals;
    both are exact.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._word: list[int] = []
        self.retries = 0
        self.bits_used = 0

    @property
    def word(self) -> tuple[int, ...]:
        return tuple(self._word)

    def next_digit(self) -> int:
        prev = self._word[-1] if self._word else 0
        if prev >= _HEAD_TAIL_MIN_PREV:
            digit = self._head_tail(prev)
        else:
            digit = self._refine(prev + 1)
        self._word.append(digit)
        return digit

    def _getrandbits(self, k: int) -> int:
        self.bits_used += k
        return self._rng.getrandbits(k)

    def _refine(self, m_scale: int) -> int:
        """floor(M/v) for a fresh uniform v in (0, 1], exactly."""
        k = m_scale.bit_length() + 16
        a = self._getrandbits(k)
        while True:
            if a > 0:
                # floor(scaled/a) == floor(scaled/(a+1)) iff q*(a+1) <= scaled
                # iff q <= r, so one divmod settles both floors.
                q, r = divmod(m_scale << k, a)
                if q <= r:
                    return q
            a = (a << 32) | self._getrandbits(32)
            k += 32

    def _head_tail(self, prev: int) -> int:
        """The digit d >= M = prev + 1: its top part T = d >> L by inversion,
        L = bit_length(prev) - 64, then its low L bits by rejection.

        T = floor(M/(2^L v)) is refined like `_refine`, over v's cell
        (a/2^k, (a+1)/2^k], against the head h = prev >> (L - 64): as
        M/2^(L-64) lies in (h, h+1], T is decided once the floors of
        h 2^k/((a+1) 2^64) and of the upper end ((h+1) 2^k - 1)/(a 2^64)
        agree.  From k = _HEAD_MAX_BITS on, M and 2^L replace the head.

        Given T, a proposal j = T 2^L + S with S uniform on [0, 2^L) is
        rejected if j <= prev (only in M's own cell) and otherwise accepted
        iff U < j0(j0+1)/(j(j+1)), j0 = max(T 2^L, M), for a uniform U in
        [0, 1).  As T >= 2^63 that ratio exceeds 1 - 2^-62, so U's first 53
        bits accept unless they are all ones.  A rejection redraws S and U
        only: redrawing T would tilt T's law.
        """
        draw = self._rng.getrandbits
        low_bits = prev.bit_length() - 64
        head = prev >> (low_bits - 64)
        k = 80
        a = draw(k)
        while True:
            if a > 0:
                if k < _HEAD_MAX_BITS:
                    top = (head << k) // ((a + 1) << 64)
                    if top == (((head + 1) << k) - 1) // (a << 64):
                        break
                else:
                    scaled = (prev + 1) << k
                    top = scaled // ((a + 1) << low_bits)
                    if top == (scaled - 1) // (a << low_bits):
                        break
            a = (a << 32) | draw(32)
            k += 32
        base = top << low_bits
        bits = k
        while True:
            j = base | draw(low_bits)
            bits += low_bits
            if j > prev:
                u = draw(53)
                bits += 53
                if u < (1 << 53) - 1 or self._accept_exactly(max(base, prev + 1), j, u):
                    self.bits_used += bits
                    return j
            self.retries += 1

    def _accept_exactly(self, base: int, j: int, u: int) -> bool:
        """True iff U < base(base+1)/(j(j+1)) exactly, where U's first 53
        bits are u and further bits are drawn 32 at a time as needed."""
        num = base * (base + 1)
        den = j * (j + 1)
        k = 53
        while True:
            # U lies in [u/2^k, (u+1)/2^k); compare both ends with p.
            x = u * den
            if x + den <= num << k:
                return True
            if x >= num << k:
                return False
            u = (u << 32) | self._getrandbits(32)
            k += 32

    def take(self, n: int) -> tuple[int, ...]:
        while len(self._word) < n:
            self.next_digit()
        return tuple(self._word[:n])


def sample_digits(seed: int, n: int) -> tuple[int, ...]:
    """First n digits of a uniform point, deterministic in the seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    return DigitSampler(seed).take(n)


# -- statistics ---------------------------------------------------------------


def _check_word(word, n: int) -> int:
    if n < 1 or len(word) < n:
        raise ValueError(f"word of length {len(word)} has no depth-{n} digit")
    return word[n - 1]


def lln_stat(word, n: int) -> float:
    """(1/n) log d_n; almost surely tends to 1."""
    return math.log(_check_word(word, n)) / n


def clt_stat(word, n: int) -> float:
    """(log d_n - n)/sqrt(n); asymptotically standard normal."""
    return (math.log(_check_word(word, n)) - n) / math.sqrt(n)


def lil_stat(word, n: int) -> float:
    """(log d_n - n)/sqrt(2n log log n); limsup 1 and liminf -1 a.s."""
    if n < 3:
        raise ValueError("iterated-logarithm scale needs n >= 3")
    d = _check_word(word, n)
    return (math.log(d) - n) / math.sqrt(2 * n * math.log(math.log(n)))


# sqrt(2 n log log n) at index n >= 3, shared by every call of
# `lil_running_extremes`.  Growth rebinds a longer tuple, so a table a caller
# read is never changed under it.
_lil_scale_table: tuple[float, ...] = (math.nan,) * 3


def _lil_scales(last: int) -> tuple[float, ...]:
    """The iterated-logarithm scale table, grown to index `last` at least."""
    global _lil_scale_table
    table = _lil_scale_table
    if len(table) <= last:
        log, sqrt = math.log, math.sqrt
        table += tuple(sqrt(2 * n * log(log(n))) for n in range(len(table), last + 1))
        _lil_scale_table = table
    return table


def lil_running_extremes(word, start: int = 3) -> tuple[float, float]:
    """(max, min) of the iterated-logarithm statistic over depths start..len."""
    if len(word) < start:
        raise ValueError(f"need at least {start} digits")
    if start < 3:
        raise ValueError("iterated-logarithm scale needs n >= 3")
    last = len(word)
    log = math.log
    stats = [
        (log(d) - n) / s
        for n, d, s in zip(
            range(start, last + 1), word[start - 1 :], _lil_scales(last)[start:]
        )
    ]
    return max(stats), min(stats)


def normal_cdf(t: float) -> float:
    """Standard normal distribution function."""
    return math.erfc(-t / math.sqrt(2)) / 2


def ks_distance(samples, cdf: Callable[[float], float]) -> float:
    """Two-sided sup distance between the empirical CDF and `cdf`."""
    if not samples:
        raise ValueError("need at least one sample")
    ordered = sorted(samples)
    n = len(ordered)
    worst = 0.0
    for i, x in enumerate(ordered):
        f = cdf(x)
        worst = max(worst, f - i / n, (i + 1) / n - f)
    return worst


# -- Monte Carlo reports --------------------------------------------------------


@dataclass(frozen=True)
class LawReport:
    law: str
    n: int
    sample_count: int
    seed: int
    statistics: list[float]
    summary: dict[str, float] = field(default_factory=dict)


def _one_sample(law: str, seed: int, index: int, n: int) -> tuple[float, float, float, int]:
    """(statistic, lil_max, lil_min, retries) for one seeded sample; the lil
    extremes run from LIL_BAND_START and are zero when n is below it."""
    sampler = DigitSampler(child_seed(seed, index))
    word = sampler.take(n)
    extremes = (0.0, 0.0)
    if law == "lln":
        stat = lln_stat(word, n)
    elif law == "clt":
        stat = clt_stat(word, n)
    else:
        stat = lil_stat(word, n)
        if n >= LIL_BAND_START:
            extremes = lil_running_extremes(word, LIL_BAND_START)
    return stat, extremes[0], extremes[1], sampler.retries


def _quantile(ordered: list[float], q: float) -> float:
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def run_law(law: str, seed: int, n: int, count: int) -> LawReport:
    """Monte Carlo sweep of one law statistic at depth n over `count`
    independently seeded samples, in this process.  Deterministic in
    (law, seed, n, count): sample i reads only `child_seed(seed, i)`."""
    if law not in ("lln", "clt", "lil"):
        raise ValueError(f"unknown law {law!r}")
    if count < 1:
        raise ValueError("need count >= 1")
    if n < 1 or (law == "lil" and n < 3):
        raise ValueError(f"depth {n} too small for {law}")
    rows = [_one_sample(law, seed, i, n) for i in range(count)]
    stats = [r[0] for r in rows]
    ordered = sorted(stats)
    summary: dict[str, float] = {
        "mean": sum(stats) / count,
        "q05": _quantile(ordered, 0.05),
        "q25": _quantile(ordered, 0.25),
        "median": _quantile(ordered, 0.50),
        "q75": _quantile(ordered, 0.75),
        "q95": _quantile(ordered, 0.95),
        "rejected_proposals": float(sum(r[3] for r in rows)),
    }
    if law == "clt":
        summary["ks_distance"] = ks_distance(stats, normal_cdf)
    if law == "lil" and n >= LIL_BAND_START:
        in_band = sum(
            1 for r in rows if 0 < r[1] < 3 and -3 < r[2] < 0
        )
        summary["extremes_in_band_fraction"] = in_band / count
    return LawReport(
        law=law, n=n, sample_count=count, seed=seed, statistics=stats, summary=summary
    )
