"""Sampler exactness and limit-law statistics."""

import ast
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from piercelib import laws
from piercelib.expansion import expand
from piercelib.intervals import fundamental_interval
from piercelib.laws import (
    LIL_BAND_START,
    DigitSampler,
    LawReport,
    child_seed,
    clt_stat,
    ks_distance,
    lil_running_extremes,
    lil_stat,
    lln_stat,
    normal_cdf,
    run_law,
    sample_digits,
)


def test_sampler_deterministic():
    assert sample_digits(12345, 8) == sample_digits(12345, 8)
    assert sample_digits(12345, 8) != sample_digits(12346, 8)


def test_sampled_words_admissible():
    for i in range(50):
        word = sample_digits(child_seed(9, i), 12)
        assert all(a < b for a, b in zip(word, word[1:]))
        assert all(d >= k for k, d in enumerate(word, start=1))


def test_digits_never_change_under_refinement():
    s = DigitSampler(777)
    first = s.take(5)
    s.take(9)
    assert s.word[:5] == first


@given(st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_digit_exactness_via_reexpansion(seed):
    word = DigitSampler(seed).take(6)
    box = fundamental_interval(word)
    mid = (box.left + box.right) / 2
    assert expand(mid, cap=6).word[:6] == word


class _OracleSampler:
    """The dyadic-refinement sampler as it stood before block-index rejection
    (bit budget, retry loop and all), frozen as the differential oracle."""

    BIT_BUDGET = 4096

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._word: list[int] = []
        self.retries = 0
        self.bits_used = 0

    def next_digit(self) -> int:
        m_scale = (self._word[-1] + 1) if self._word else 1
        while True:
            digit = self._try_digit(m_scale)
            if digit is not None:
                break
            self.retries += 1
        self._word.append(digit)
        return digit

    def _try_digit(self, m_scale: int) -> int | None:
        k = m_scale.bit_length() + 16
        a = self._rng.getrandbits(k)
        self.bits_used += k
        while True:
            if a > 0:
                q, r = divmod(m_scale << k, a)
                if q <= r:
                    return q
            if k > self.BIT_BUDGET + m_scale.bit_length():
                return None
            a = (a << 32) | self._rng.getrandbits(32)
            k += 32
            self.bits_used += 32

    def take(self, n: int) -> tuple[int, ...]:
        while len(self._word) < n:
            self.next_digit()
        return tuple(self._word[:n])


def test_sampler_matches_oracle_to_depth_500():
    # Depth-500 digits stay far below 2^1024, where the refinement path is
    # the old sampler bit for bit, counters included.
    for i in range(60):
        seed = child_seed(500, i)
        new, old = DigitSampler(seed), _OracleSampler(seed)
        assert new.take(500) == old.take(500)
        assert (new.bits_used, new.retries) == (old.bits_used, old.retries)


def test_sampler_matches_oracle_until_scale_passes_1024_bits():
    for i in range(3):
        seed = child_seed(7, i)
        new, old = DigitSampler(seed).take(800), _OracleSampler(seed).take(800)
        cut = next(n for n, d in enumerate(new) if (d + 1).bit_length() > 1024)
        assert new[: cut + 1] == old[: cut + 1]
        assert new[cut + 1 :] != old[cut + 1 :]


def _next_digit_at(sampler, m_scale: int) -> int:
    sampler._word = [m_scale - 1]
    return sampler.next_digit()


def test_path_switches_past_1024_bits():
    below, above = 2**1024 - 1, 2**1024
    for i in range(5):
        seed = child_seed(99, i)
        assert _next_digit_at(DigitSampler(seed), below) == _next_digit_at(
            _OracleSampler(seed), below
        )
        assert _next_digit_at(DigitSampler(seed), above) == DigitSampler(
            seed
        )._head_tail(above - 1)


# Bucket edges as multiples of M: within M's first multiple, across
# multiples, and the tail.
_EDGES = (1, Fraction(5, 4), Fraction(3, 2), 2, 3, 5, 10)


def _bucket_probs(m: int) -> list[float]:
    """Exact P(d in bucket | M = m) from the tails P(d >= J) = M/J."""
    tails = [Fraction(m, math.ceil(c * m)) for c in _EDGES] + [Fraction(0)]
    return [float(a - b) for a, b in zip(tails, tails[1:])]


def _bucket_counts(digits, m: int) -> list[int]:
    edges = [math.ceil(c * m) for c in _EDGES[1:]]
    counts = [0] * (len(edges) + 1)
    for d in digits:
        counts[sum(1 for e in edges if d >= e)] += 1
    return counts


@pytest.mark.parametrize(
    "m", [2**1023, 2**1024 + 1, 2**3000 + 7], ids=["2^1023", "2^1024+1", "2^3000+7"]
)
def test_large_scale_digit_law_is_exact(m):
    n = 6000
    sampler = DigitSampler(child_seed(4, m.bit_length()))
    inverted = [sampler._head_tail(m - 1) for _ in range(n)]
    refined = [sampler._refine(m) for _ in range(n)]
    assert all(d >= m for d in inverted + refined)
    probs = _bucket_probs(m)
    for a, b, p in zip(_bucket_counts(inverted, m), _bucket_counts(refined, m), probs):
        se = math.sqrt(p * (1 - p) / n)
        assert abs(a / n - p) < 4 * se
        assert abs(b / n - p) < 4 * se
        assert abs(a - b) / n < 4 * se * math.sqrt(2)
    # A rejection is rare on these streams (about 2^-53 per digit), so the
    # retry counter is checked on a scripted one.
    script, top = _rejected_once(m - 1)
    sampler = DigitSampler(0)
    sampler._rng = _ScriptedRng(script)
    assert sampler._head_tail(m - 1) >> (m - 1).bit_length() - 64 == top
    assert sampler.retries == 1


class _ScriptedRng:
    """Stands in for random.Random: hands out scripted (bits, value) draws."""

    def __init__(self, draws):
        self.draws = list(draws)

    def getrandbits(self, k: int) -> int:
        bits, value = self.draws.pop(0)
        assert bits == k
        return value


def _lazy_accept_reference(p: Fraction, draws) -> tuple[bool, int]:
    """Accept iff U < p, reading U's bits lazily: (decision, draws read)."""
    u, k = 0, 0
    for used, (bits, value) in enumerate(draws, start=1):
        u, k = (u << bits) | value, k + bits
        if Fraction(u + 1, 2**k) <= p:
            return True, used
        if Fraction(u, 2**k) >= p:
            return False, used
    raise AssertionError("script too short to decide")


def test_acceptance_exact_fallback_matches_fraction():
    m = 2**1100 + 12345
    base, j = 3 * m, 3 * m + m // 3 + 17
    p = Fraction(base * (base + 1), j * (j + 1))
    top = math.floor(p * 2**53)
    low = math.floor(p * 2**85) & (2**32 - 1)
    assert 0 < low < 2**32 - 1
    scripts = [
        [(53, top - 50)],
        [(53, top + 50)],
        [(53, top), (32, low - 1)],
        [(53, top), (32, low + 1)],
        [(53, top), (32, low), (32, 0)],
        [(53, top), (32, low), (32, 2**32 - 1)],
    ]
    for script in scripts:
        # `_head_tail` calls `_accept_exactly` only when U's first 53 bits are
        # all ones; here every first draw lies within a relative 2^-46 of p,
        # so each decision rests on U's further bits, read 32 at a time.
        assert abs(Fraction(script[0][1], 2**53) - p) < p * Fraction(1, 2**46)
        sampler = DigitSampler(0)
        sampler._rng = _ScriptedRng(script[1:])
        expected, used = _lazy_accept_reference(p, script)
        assert sampler._accept_exactly(base, j, script[0][1]) is expected
        assert len(script) - len(sampler._rng.draws) == used
        assert sampler.bits_used == sum(bits for bits, _ in script[1:used])


def _cell_a(prev: int, x: Fraction, k: int) -> int:
    """The k-bit a whose cell (a/2^k, (a+1)/2^k] holds the v with
    M/(2^L v) = x, for M = prev + 1 and L = bit_length(prev) - 64."""
    low_bits = prev.bit_length() - 64
    return math.ceil(Fraction((prev + 1) << k, 1 << low_bits) / x) - 1


def _a_draws(a: int, k: int) -> list[tuple[int, int]]:
    """v's first k bits a as `_head_tail` reads them: 80, then 32 at a time."""
    return [(80, a >> (k - 80))] + [
        (32, (a >> shift) & 0xFFFFFFFF) for shift in range(k - 112, -1, -32)
    ]


_U_ONES = (53, 2**53 - 1)


def _rejected_once(prev: int):
    """(script, T) of a digit whose first proposal, the top of the cell
    above M's, is rejected by U's exact fallback; the second, the cell's
    least digit, is accepted."""
    low_bits = prev.bit_length() - 64
    top = ((prev + 1) >> low_bits) + 1
    a = _cell_a(prev, top + Fraction(1, 2), 80)
    # 1 - p = 1 - j0(j0+1)/(j(j+1)) ~ 2/T > 2^-85, and U >= 1 - 2^-85
    script = _a_draws(a, 80) + [(low_bits, 2**low_bits - 1), _U_ONES, (32, 2**32 - 1)]
    return script + [(low_bits, 0), (53, 0)], top


def _head_scale(q: int, top: int, low_bits: int) -> int:
    """A prev whose head h = prev >> (L - 64) has h + 1 = (top + 1) q: then
    at a = q 2^16 the upper floor's end (h+1) 2^80/(a 2^64) is the integer
    top + 1 exactly."""
    head = (top + 1) * q - 1
    assert head.bit_length() == 128
    return (head << (low_bits - 64)) | 987654321


def _head_tail_cases():
    """{id: (prev, script, retries)} for `_head_tail`, one per way a digit
    is decided; each script is read to its end."""
    prev = 3 * 2**1099 + 2**1050 + 2**1035 + 12345
    low_bits = prev.bit_length() - 64
    m_top = (prev + 1) >> low_bits
    assert m_top == prev >> low_bits  # M's cell also holds digits <= prev
    far = m_top + m_top // 2
    mid = far + Fraction(1, 2)

    def tail(low, *u_draws):
        return [(low_bits, low), *u_draws]

    cases = {
        # T decided by the head at 80 bits; u = 2^53 - 2 accepts at once.
        "head": (prev, _a_draws(_cell_a(prev, mid, 80), 80) + tail(12345, (53, 2**53 - 2)), 0),
        # v's 80-bit cell meets two values of T; one extension decides it.
        "extension": (
            prev,
            _a_draws(_cell_a(prev, far + Fraction(1, 2**30), 112), 112) + tail(7, (53, 0)),
            0,
        ),
        # The head's upper end is exactly T + 1: only its "- 1" decides T.
        "head-upper-end": (
            _head_scale(3 * 2**62 + 5, 2**64 - 12345, 1000),
            _a_draws((3 * 2**62 + 5) << 16, 80) + [(1000, 5), (53, 0)],
            0,
        ),
        # T in M's cell: j = prev is rejected before U is read, j = M accepted.
        "below-m": (
            prev,
            _a_draws(_cell_a(prev, (Fraction(prev + 1, 2**low_bits) + m_top + 1) / 2, 80), 80)
            + tail(prev % 2**low_bits)
            + tail(prev % 2**low_bits + 1, (53, 0)),
            1,
        ),
        # U's first 53 bits are all ones; the exact fallback accepts.
        "fallback-accepts": (
            prev,
            _a_draws(_cell_a(prev, mid, 80), 80) + tail(2**low_bits - 1, _U_ONES, (32, 0)),
            0,
        ),
        # ... and rejects: S and U are redrawn, T is not.
        "fallback-rejects": (prev, _rejected_once(prev)[0], 1),
        # In M's cell the fallback compares against j0 = M, not T 2^L.
        "fallback-in-m-cell": (
            prev,
            _a_draws(_cell_a(prev, (Fraction(prev + 1, 2**low_bits) + m_top + 1) / 2, 80), 80)
            + tail(prev % 2**low_bits + 2, _U_ONES, (32, 2**32 - 2)),
            0,
        ),
    }
    # The head stays undecided through 208 bits; M itself decides T, at a
    # cell whose upper end is exactly T + 1.
    a, top = 2**208 * 2 // 3 + 123456789, (2**64 * 6) // 5
    cases["m-decides"] = ((top + 1) * a << 900) - 1, _a_draws(a, 208) + [(1108, 42), (53, 0)], 0
    return cases


_CASES = _head_tail_cases()


def _head_undecided(prev: int, a: int, k: int) -> bool:
    head = prev >> (prev.bit_length() - 128)
    return (head << k) // ((a + 1) << 64) != (((head + 1) << k) - 1) // (a << 64)


def _split_script(script, low_bits: int):
    """(a, k, proposals): v's first k bits a, then each proposal's low bits
    with the U draws read for it."""
    a = k = 0
    proposals = []
    for bits, value in script:
        if bits == low_bits:
            proposals.append((value, []))
        elif proposals:
            proposals[-1][1].append((bits, value))
        else:
            a, k = (a << bits) | value, k + bits
    return a, k, proposals


@pytest.mark.parametrize("case", sorted(_CASES))
def test_head_tail_digit_is_exact(case):
    # Each scripted digit is checked against M itself.  v's final cell
    # (a/2^k, (a+1)/2^k] must lie in T's preimage, that is
    # T <= M 2^k/((a+1) 2^L) and M 2^k/(a 2^L) <= T + 1.  Every proposal
    # j <= prev must be rejected unread, every other one decided as U's
    # bits compare with j0(j0+1)/(j(j+1)), j0 = max(T 2^L, M), and the
    # script must be read to its end.
    prev, script, retries = _CASES[case]
    m, low_bits = prev + 1, prev.bit_length() - 64
    sampler = DigitSampler(0)
    sampler._rng = _ScriptedRng(script)
    digit = sampler._head_tail(prev)
    assert sampler._rng.draws == []
    assert (sampler.retries, sampler.bits_used) == (retries, sum(b for b, _ in script))
    a, k, proposals = _split_script(script, low_bits)
    top = digit >> low_bits
    assert top * (a + 1) << low_bits <= m << k <= (top + 1) * a << low_bits
    j0 = max(top << low_bits, m)
    decisions = []
    for low, u_draws in proposals:
        j = (top << low_bits) | low
        if j <= prev:
            assert u_draws == []
            decisions.append(False)
            continue
        accepted, used = _lazy_accept_reference(Fraction(j0 * (j0 + 1), j * (j + 1)), u_draws)
        assert used == len(u_draws)
        decisions.append(accepted)
    assert decisions == [False] * retries + [True]
    assert digit == (top << low_bits) | proposals[-1][0]
    if case == "m-decides":
        assert all(_head_undecided(prev, a >> (208 - j), j) for j in range(80, 209, 32))


def test_block_path_draws_about_one_bit_per_scale_bit():
    # Past 1024 bits a digit draws T's refinement (80 bits, then 32 per
    # extension) and L + 53 bits per proposal, L = bit_length(prev) - 64,
    # and proposals are almost never rejected, so a digit costs little more
    # than its scale's width.
    for i in range(3):
        sampler = DigitSampler(child_seed(314159, i))
        widths = [(d + 1).bit_length() for d in sampler.take(10**4)[:-1]]
        assert sampler.bits_used <= 1.1 * sum(w for w in widths if w > 1024)


class _CellNeedsAnotherRung(Exception):
    """The first-rung cell of v did not settle the digit."""


class _FirstRung:
    """Stands in for random.Random: hands out one k-bit value a, then raises
    `_CellNeedsAnotherRung` instead of a refinement's further bits."""

    def __init__(self, bits: int):
        self.bits, self.a = bits, None

    def getrandbits(self, k: int) -> int:
        if self.a is None:
            raise _CellNeedsAnotherRung
        assert k == self.bits
        a, self.a = self.a, None
        return a


@pytest.mark.parametrize(
    "m,bits,resolved,unresolved",
    [(1, 17, 130_349, 723), (2, 18, 260_698, 1_446), (3, 18, 260_374, 1_770)],
)
def test_first_rung_digit_law_is_exact(m, bits, resolved, unresolved):
    # The first rung draws a and fixes v to the cell (a/2^k, (a+1)/2^k].  A
    # digit d may be returned there only when the whole cell lies in its
    # preimage M/(d+1) < v <= M/d; a cell that returns none must meet two
    # preimages (or be the cell of v = 0).  Over every a, that is the exact
    # law P(d | M) cell by cell, in integers and without sampling.
    sampler = DigitSampler(0)
    sampler._rng = _FirstRung(bits)
    scaled = m << bits
    counts = [0, 0]
    for a in range(1 << bits):
        sampler._rng.a = a
        try:
            d = sampler._refine(m)
        except _CellNeedsAnotherRung:
            assert a == 0 or scaled // a != scaled // (a + 1)
            counts[1] += 1
        else:
            assert scaled <= a * (d + 1) and (a + 1) * d <= scaled
            counts[0] += 1
    assert counts == [resolved, unresolved]


def _refine_deciding_by(decides):
    """`DigitSampler._refine` with its test q <= r replaced by `decides`."""

    def refine(self, m_scale: int) -> int:
        k = m_scale.bit_length() + 16
        a = self._getrandbits(k)
        while True:
            if a > 0:
                q, r = divmod(m_scale << k, a)
                if decides(q, r):
                    return q
            a = (a << 32) | self._getrandbits(32)
            k += 32

    return refine


@pytest.mark.parametrize(
    "decides",
    # q < r leaves cells inside one preimage unresolved; q <= r + 1 resolves
    # cells that straddle two.
    [lambda q, r: q < r, lambda q, r: q <= r + 1],
    ids=["q<r", "q<=r+1"],
)
def test_first_rung_certificate_rejects_off_by_one_refinements(decides, monkeypatch):
    monkeypatch.setattr(DigitSampler, "_refine", _refine_deciding_by(decides))
    with pytest.raises(AssertionError):
        test_first_rung_digit_law_is_exact(1, 17, 130_349, 723)


class _FirstDigitPlusOne(DigitSampler):
    def next_digit(self) -> int:
        digit = super().next_digit()
        if len(self._word) == 1:
            self._word[0] = digit = digit + 1
        return digit


def test_take_draws_every_digit_through_next_digit():
    # The benchmark's planted-fault self-test overrides `next_digit` and
    # expects `take` to return the overridden digits.
    seed = child_seed(12, 0)
    first = DigitSampler(seed).take(1)[0]
    word = _FirstDigitPlusOne(seed).take(5)
    assert word[0] == first + 1 and len(word) == 5


def test_lln_stat_fixtures():
    word = tuple(range(1, 101))
    assert lln_stat(word, 100) == pytest.approx(math.log(100) / 100)
    assert lln_stat(word, 100) == pytest.approx(0.04605, abs=5e-6)
    synthetic = tuple(int(math.exp(k)) for k in range(1, 30))
    assert lln_stat(synthetic, 29) == pytest.approx(1.0, abs=1e-2)


def test_clt_stat_fixtures():
    exact = tuple(int(math.exp(k)) for k in range(1, 101))
    assert clt_stat(exact, 100) == pytest.approx(0.0, abs=1e-2)
    shifted = tuple(int(math.exp(k + math.sqrt(k))) for k in range(1, 101))
    assert clt_stat(shifted, 100) == pytest.approx(1.0, abs=1e-2)


def test_lil_stat_domain():
    word = (2, 3, 5, 7)
    with pytest.raises(ValueError):
        lil_stat(word, 2)
    assert lil_stat(tuple(int(math.exp(k)) for k in range(1, 10)), 9) == pytest.approx(
        0.0, abs=0.05
    )


def test_lil_running_extremes_orders():
    word = sample_digits(4242, 50)
    for start in (3, LIL_BAND_START, 50):
        hi, lo = lil_running_extremes(word, start)
        assert hi >= lo
        stats = [lil_stat(word, n) for n in range(start, 51)]
        assert hi == max(stats) and lo == min(stats)
    assert lil_running_extremes(word) == lil_running_extremes(word, 3)
    with pytest.raises(ValueError):
        lil_running_extremes(word, 2)
    with pytest.raises(ValueError):
        lil_running_extremes(word, 51)


def _lil_extremes_loop(word, start: int) -> tuple[float, float]:
    """`lil_running_extremes` as a running loop over `lil_stat`, kept as its
    oracle."""
    if len(word) < start:
        raise ValueError(f"need at least {start} digits")
    hi = -math.inf
    lo = math.inf
    for n in range(start, len(word) + 1):
        s = lil_stat(word, n)
        hi = max(hi, s)
        lo = min(lo, s)
    return hi, lo


def test_lil_running_extremes_match_the_running_loop():
    for i in range(3):
        word = sample_digits(child_seed(314159, i), 10**4)
        for start in (3, LIL_BAND_START, 10**4):
            new = lil_running_extremes(word, start)
            old = _lil_extremes_loop(word, start)
            assert [x.hex() for x in new] == [x.hex() for x in old]
    for word, start in [((2, 3, 5), 4), ((2, 3, 5, 7), 2), ((2, 3), 0)]:
        with pytest.raises(ValueError) as new_error:
            lil_running_extremes(word, start)
        with pytest.raises(ValueError) as old_error:
            _lil_extremes_loop(word, start)
        assert str(new_error.value) == str(old_error.value)


def test_lil_band_start_is_first_depth_with_loglog_at_least_one():
    assert LIL_BAND_START == 16
    assert math.log(math.log(LIL_BAND_START)) >= 1 > math.log(math.log(15))


def test_depth_three_lil_tail_exact_law():
    # Why criterion 11 takes its band from n >= 16 and not from n = 3:
    # lil_stat(., 3) >= 3 exactly when d_3 >= 192, a 12% event under the
    # exact digit law, far above the band's 5% allowance.
    assert lil_stat((1, 2, 191), 3) < 3 <= lil_stat((1, 2, 192), 3)
    h = [Fraction(0)]
    for k in range(1, 191):
        h.append(h[-1] + Fraction(1, k))
    # over d_2: P(d_2 = m) = H_{m-1}/(m(m+1)), P(d_3 >= 192 | m) = min(1, (m+1)/192)
    closed = sum(h[m - 1] / (192 * m) for m in range(2, 191)) + (h[190] + 1) / 191
    # over d_1: P(d_1 = a) = 1/(a(a+1)), P(d_2 = m | a) = (a+1)/(m(m+1))
    by_first = Fraction(1, 190) + sum(
        (Fraction(a + 1, 192) * (h[190] - h[a]) + Fraction(a + 1, 191)) / (a * (a + 1))
        for a in range(1, 190)
    )
    assert closed == by_first
    assert float(closed) == pytest.approx(0.1198905, abs=1e-7)
    n_samples = 20_000
    hits = sum(
        1 for i in range(n_samples) if sample_digits(child_seed(11, i), 3)[2] >= 192
    )
    p = float(closed)
    se = math.sqrt(p * (1 - p) / n_samples)
    assert abs(hits / n_samples - p) < 4 * se


def test_stat_length_validation():
    with pytest.raises(ValueError):
        lln_stat((2, 3), 5)
    with pytest.raises(ValueError):
        clt_stat((2, 3), 0)


def test_normal_cdf_fixtures():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert normal_cdf(1.96) == pytest.approx(0.9750021, abs=5e-8)
    for t in (-2.5, -0.3, 0.7, 3.1):
        assert normal_cdf(-t) == pytest.approx(1 - normal_cdf(t), abs=1e-12)


def test_ks_distance_fixtures():
    assert ks_distance([0.0], normal_cdf) == pytest.approx(0.5)
    for c in (-1.3, 0.4, 2.0):
        expected = max(normal_cdf(c), 1 - normal_cdf(c))
        assert ks_distance([c] * 7, normal_cdf) == pytest.approx(expected)
    with pytest.raises(ValueError):
        ks_distance([], normal_cdf)


def test_ks_self_distribution():
    rng = random.Random(20260814)
    draws = [rng.gauss(0, 1) for _ in range(10_000)]
    assert ks_distance(draws, normal_cdf) < 0.02


def test_child_seed_splitting():
    seeds = {child_seed(5, i) for i in range(100)}
    assert len(seeds) == 100
    assert child_seed(5, 0) != child_seed(6, 0)


def test_streams_uncorrelated():
    a = [lln_stat(sample_digits(child_seed(1, i), 50), 50) for i in range(300)]
    b = [lln_stat(sample_digits(child_seed(2, i), 50), 50) for i in range(300)]
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b))
    var_a = sum((x - ma) ** 2 for x in a)
    var_b = sum((y - mb) ** 2 for y in b)
    corr = cov / math.sqrt(var_a * var_b)
    assert abs(corr) < 0.15


def test_run_law_report_shape():
    report = run_law("lln", 7, 60, 40)
    assert isinstance(report, LawReport)
    assert report.sample_count == len(report.statistics) == 40
    assert report.summary["mean"] == pytest.approx(
        sum(report.statistics) / 40
    )
    assert {"q05", "q25", "median", "q75", "q95"} <= report.summary.keys()


def test_run_law_deterministic_across_workers():
    # run_law is serial; statistic i reads only its child seed, so a worker
    # that samples child_seed(11, i) alone (as criterion 11 does) agrees
    first = run_law("clt", 11, 80, 24)
    again = run_law("clt", 11, 80, 24)
    assert first.statistics == again.statistics
    assert first.summary == again.summary
    assert first.statistics == [
        clt_stat(sample_digits(child_seed(11, i), 80), 80) for i in range(24)
    ]


def test_run_law_clt_has_ks():
    report = run_law("clt", 3, 100, 60)
    assert "ks_distance" in report.summary
    assert 0 <= report.summary["ks_distance"] <= 1


def test_run_law_lil_band_fraction():
    n, count = 200, 30
    report = run_law("lil", 3, n, count)
    in_band = 0
    for i in range(count):
        word = sample_digits(child_seed(3, i), n)
        stats = [lil_stat(word, k) for k in range(16, n + 1)]
        in_band += 0 < max(stats) < 3 and -3 < min(stats) < 0
    assert report.summary["extremes_in_band_fraction"] == in_band / count
    short = run_law("lil", 3, LIL_BAND_START - 1, 5)
    assert "extremes_in_band_fraction" not in short.summary


def test_run_law_validation():
    with pytest.raises(ValueError):
        run_law("bogus", 1, 10, 5)
    with pytest.raises(ValueError):
        run_law("lln", 1, 10, 0)
    with pytest.raises(ValueError):
        run_law("lil", 1, 2, 5)


def test_joint_prefix_probability_matches_interval_length():
    # depth-2 empirical law vs exact cylinder lengths, loose Monte Carlo bar
    n_samples = 20_000
    hits = 0
    target = (1, 2)
    p = float(fundamental_interval(target).length)
    for i in range(n_samples):
        if sample_digits(child_seed(31, i), 2) == target:
            hits += 1
    emp = hits / n_samples
    se = math.sqrt(p * (1 - p) / n_samples)
    assert abs(emp - p) < 5 * se


def _non_stdlib_imports(source: str) -> list[str]:
    """Modules a source imports that are not in the standard library;
    a relative import is never standard."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
            found += [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] not in sys.stdlib_module_names:
                found.append("." * node.level + module)
    return found


def test_sampler_module_imports_only_the_standard_library():
    # the sampler and the law statistics stand below every other layer
    source = Path(laws.__file__).read_text(encoding="utf-8")
    assert _non_stdlib_imports(source) == []
    planted = source + "\nimport mpmath\nfrom .intervals import fundamental_interval\n"
    assert _non_stdlib_imports(planted) == ["mpmath", ".intervals"]
