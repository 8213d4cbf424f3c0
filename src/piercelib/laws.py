"""Uniform sampling of digit sequences and the classical limit-law statistics.

Conditioned on the digits so far, the next shifted point is exactly uniform on
[0, 1/M), where M - 1 is the previous digit (M = 1 before the first digit).
The next digit is then floor(M/v) for a uniform v in (0, 1], whose law is
P(d = j | M) = M/(j(j+1)) for j >= M, so the digit process is a Markov chain
whose cylinder probabilities equal the exact cylinder interval lengths.

Every digit follows that law exactly; two exact samplers draw it:

* Refinement (M of at most 1024 bits): a dyadic interval around a fresh
  uniform v is refined until the integer part of M/v is unambiguous, one
  divmod per refinement, so a digit costs a division of a ~2k-bit integer
  by a k-bit one.
* Block-index rejection (larger M): the block index I = floor(d/M) has the
  law 1/(i(i+1)) whatever M is, so it is drawn by refinement at M = 1.
  Inside block i the digit is proposed uniformly on [Mi, M(i+1)) and
  accepted with probability Mi(Mi+1)/(d(d+1)) >= 1/4, which costs a few
  additions and comparisons of k-bit integers instead of a division.  A
  proposal is drawn lazily, top 64 bits first: a rejected one costs 64 or
  117 random bits, and only an accepted or undecided one draws all k.

Floating point enters only the rejection sampler's acceptance test, as a
filter certified by an error bound: when the float bracket around the
acceptance probability cannot decide, the test is settled by exact integer
comparison against lazily extended uniform bits.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from .intervals import IntervalExact, fundamental_interval

# Scale M above which digits are drawn by block-index rejection.  Below it a
# single-divmod refinement is faster; above it the division dominates.
_REJECTION_MIN_BITS = 1024
# Relative margin around the float acceptance ratio: its error (the 64-bit
# tops of base and j plus four float roundings; see `_block_reject`) stays
# below 2^-50.
_ACCEPT_MARGIN = 2.0**-45
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
    block-index rejection beyond.  `bits_used` counts the random bits drawn
    and `retries` the rejected in-block proposals; both are exact.
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
        m_scale = (self._word[-1] + 1) if self._word else 1
        if m_scale.bit_length() > _REJECTION_MIN_BITS:
            digit = self._block_reject(m_scale)
        else:
            digit = self._refine(m_scale)
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

    def _block_reject(self, m_scale: int) -> int:
        """The digit by rejection inside the block M*I .. M*(I+1) - 1.

        The block index is drawn once: block i's acceptance mass depends on
        i, so redrawing it after a rejection would bias the block law.

        A proposal r, uniform on [0, 2^W) with W = bit_length(M), is
        accepted iff r < M and U < p = base(base+1)/(j(j+1)), j = base + r,
        for a uniform U in [0, 1).  Both are read lazily: the top 64 bits
        of r first (r_top > M >> L rejects, L = W - 64), then U's first 53
        bits u against a float bracket around p, and r's low L bits only
        when the bracket accepts or cannot decide.  A rejected proposal
        thus costs 64 or 117 bits; every decision is that of the full r.
        """
        base = m_scale * self._refine(1)
        low_bits = m_scale.bit_length() - 64
        m_top = m_scale >> low_bits
        # With s = bit_length(base) - 64 >= L (as base >= M), j >> s is
        # J = (base >> s) + (r_top >> (s - L)) or J + 1 for every low part
        # of r.  As base >> s >= 2^63, (base >> s)/J is base/j to within
        # 2^-62 relative whatever the low part, the +1 terms of p move it by
        # less than 2^-1000, and the four float roundings below by at most
        # 7 * 2^-53: the float p is within 2^-50 of the true p.
        s = base.bit_length() - 64
        shift = s - low_bits
        base_top = base >> s
        float_top = float(base_top)
        draw = self._rng.getrandbits
        bits = retries = 0
        while True:
            r_top = draw(64)
            bits += 64
            if r_top <= m_top:
                p = (float_top / float(base_top + (r_top >> shift))) ** 2 * 2.0**53
                u = draw(53)
                bits += 53
                if u < p * (1 + _ACCEPT_MARGIN):
                    r = (r_top << low_bits) | draw(low_bits)
                    bits += low_bits
                    if r < m_scale and (
                        u + 1 <= p * (1 - _ACCEPT_MARGIN)
                        or self._accept_exactly(base, base + r, u)
                    ):
                        self.bits_used += bits
                        self.retries += retries
                        return base + r
            retries += 1

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

    def constraint_interval(self) -> IntervalExact:
        """Exact interval of points consistent with every emitted digit: the
        cylinder of the word.  Re-expanding any point inside reproduces it."""
        if not self._word:
            raise ValueError("no digit emitted yet")
        return fundamental_interval(self.word)


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


def lil_running_extremes(word, start: int = 3) -> tuple[float, float]:
    """(max, min) of the iterated-logarithm statistic over depths start..len."""
    if len(word) < start:
        raise ValueError(f"need at least {start} digits")
    if start < 3:
        raise ValueError("iterated-logarithm scale needs n >= 3")
    log, sqrt = math.log, math.sqrt
    stats = [
        (log(d) - n) / sqrt(2 * n * log(log(n)))
        for n, d in zip(range(start, len(word) + 1), word[start - 1 :])
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


def _one_sample(args) -> tuple[float, float, float, int]:
    """(statistic, lil_max, lil_min, retries) for one seeded sample; the lil
    extremes run from LIL_BAND_START and are zero when n is below it."""
    law, seed, index, n = args
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


def run_law(law: str, seed: int, n: int, count: int, workers: int = 1) -> LawReport:
    """Monte Carlo sweep of one law statistic at depth n over `count`
    independently seeded samples.  Deterministic in (law, seed, n, count)
    regardless of worker count."""
    if law not in ("lln", "clt", "lil"):
        raise ValueError(f"unknown law {law!r}")
    if count < 1:
        raise ValueError("need count >= 1")
    if n < 1 or (law == "lil" and n < 3):
        raise ValueError(f"depth {n} too small for {law}")
    jobs = [(law, seed, i, n) for i in range(count)]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            rows = pool.map(_one_sample, jobs)
    else:
        rows = [_one_sample(job) for job in jobs]
    stats = [r[0] for r in rows]
    ordered = sorted(stats)
    summary: dict[str, float] = {
        "mean": sum(stats) / count,
        "q05": _quantile(ordered, 0.05),
        "q25": _quantile(ordered, 0.25),
        "median": _quantile(ordered, 0.50),
        "q75": _quantile(ordered, 0.75),
        "q95": _quantile(ordered, 0.95),
        "refinement_retries": float(sum(r[3] for r in rows)),
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
