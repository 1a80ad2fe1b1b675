"""numpy's seeded multinomial, in plain Python.

``multinomial(seed, shots, probs)`` returns exactly what
``numpy.random.default_rng(seed).multinomial(shots, probs)`` returns,
without importing numpy. It reproduces, step by step and in the same
floating-point operations, numpy's ``SeedSequence`` hashing of a
non-negative int seed, the PCG64 generator (O'Neill 2014, XSL-RR output
of a 128-bit LCG), numpy's ``random_binomial``: inversion when the mean
is at most 30, else BTPE (Kachitvichyanukul & Schmeiser, CACM 31(2), 1988),
and numpy's ``random_multinomial``, the conditional-binomial method: each
category but the last draws binomial(rest, p / remaining p) in turn, and
whatever is left goes to the last category.

C's int64 arithmetic is emulated where it can overflow (``_int64``).
``entangle.measure`` samples a two-term joint state through ``multinomial``;
the tests compare this module with numpy's generator.
"""

from __future__ import annotations

import math
import operator
from typing import List, Sequence

MASK32 = (1 << 32) - 1
MASK64 = (1 << 64) - 1
MASK128 = (1 << 128) - 1

# SeedSequence constants (numpy/random/bit_generator.pyx)
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _int64(x: int) -> int:
    """x wrapped to a two's-complement int64, as C computes it."""
    return (x + (1 << 63) & MASK64) - (1 << 63)


def _seed_pool(seed: int) -> list:
    """The four-word entropy pool ``SeedSequence(seed)`` mixes."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & MASK32]
    while seed := seed >> 32:
        words.append(seed & MASK32)
    const = INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * MULT_A & MASK32
        value = value * const & MASK32
        return value ^ value >> 16

    def mix(x, y):
        result = MIX_MULT_L * x - MIX_MULT_R * y & MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


class PCG64:
    """numpy's ``PCG64(seed)`` bit generator: one 64-bit word per step."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        pool = _seed_pool(seed)
        const, words = INIT_B, []
        for k in range(8):  # SeedSequence.generate_state(4, uint64), as little-endian word pairs
            value = pool[k % POOL_SIZE] ^ const
            const = const * MULT_B & MASK32
            value = value * const & MASK32
            words.append(value ^ value >> 16)
        s0, s1, i0, i1 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
        # pcg_setseq_128_srandom_r: from state 0, step, add the seed, step again
        self.inc = (i0 << 64 | i1) << 1 & MASK128 | 1
        self.state = (self.inc + (s0 << 64 | s1)) * PCG_MULTIPLIER + self.inc & MASK128

    def next_uint64(self) -> int:
        self.state = state = self.state * PCG_MULTIPLIER + self.inc & MASK128
        word, rot = (state >> 64 ^ state) & MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & MASK64

    def next_double(self) -> float:
        return (self.next_uint64() >> 11) * (1.0 / 9007199254740992.0)


def _inversion(rng: PCG64, n: int, p: float) -> int:
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    x, px, u = 0, qn, rng.next_double()
    while u > px:
        x += 1
        if x > bound:
            x, px, u = 0, qn, rng.next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _stirling(x: float) -> float:
    """The Stirling-series correction BTPE's final test adds for one factorial."""
    x2 = x * x
    return (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x / 166320.


def _btpe(rng: PCG64, n: int, p: float) -> int:
    """numpy's ``random_binomial_btpe`` for p <= 0.5, by the step numbers of the paper."""
    q = 1.0 - p
    fm = n * p + p
    m = math.floor(fm)
    p1 = math.floor(2.195 * math.sqrt(n * p * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl, xr = xm - p1, xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * p)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * p * q
    while True:
        u = rng.next_double() * p4  # step 10
        v = rng.next_double()
        if u <= p1:
            return math.floor(xm - p1 * v + u)
        if u <= p2:  # step 20
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = math.floor(x)
        elif u <= p3:  # step 30
            if v == 0.0:
                continue
            y = math.floor(xl + math.log(v) / laml)
            if y < 0:
                continue
            v = v * (u - p2) * laml
        else:  # step 40
            if v == 0.0:
                continue
            y = math.floor(xr - math.log(v) / lamr)
            if y > n:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)  # step 50
        if k <= 20 or float(k) >= nrq / 2.0 - 1:
            s = p / q
            a = s * _int64(n + 1)
            f = 1.0
            if m < y:
                for i in range(m + 1, y + 1):
                    f *= a / i - s
            elif m > y:
                for i in range(y + 1, m + 1):
                    f /= a / i - s
            if v <= f:
                return y
            continue
        rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.16666666666666666) / nrq + 0.5)  # step 52
        t = _int64(-k * k) / (2 * nrq)
        log_v = math.log(v) if v > 0.0 else -math.inf  # C's log(0) is -inf; v >= 0 here
        if log_v < t - rho:
            return y
        if log_v > t + rho:
            continue
        # numpy sums these in double (its counts at n near 2**62 show it), so n + 1 - m cannot overflow
        x1, f1, z, w = y + 1.0, m + 1.0, n + 1.0 - m, float(n) - y + 1.0
        bound = (xm * math.log(f1 / x1) + (n - m + 0.5) * math.log(z / w) + (y - m) * math.log(w * p / (x1 * q))
                 + _stirling(f1) + _stirling(z) + _stirling(x1) + _stirling(w))
        if not log_v > bound:
            return y


def binomial(rng: PCG64, n: int, p: float) -> int:
    """numpy's ``random_binomial``: one binomial(n, p) variate drawn from ``rng``."""
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        return _inversion(rng, n, p) if p * n <= 30.0 else _btpe(rng, n, p)
    q = 1.0 - p
    if q < 0.0:
        # p / remaining p rounded above 1: numpy inverts at q < 0, where the mass at 0, (1 - q)**n,
        # is at least 1, so its one uniform returns 0 (math's sqrt and exp would raise there)
        rng.next_double()
        return n
    return n - (_inversion(rng, n, q) if q * n <= 30.0 else _btpe(rng, n, q))


def multinomial(seed: int, shots: int, probs: Sequence[float]) -> List[int]:
    """``default_rng(seed).multinomial(shots, probs)`` as a list of ints, for
    probabilities that sum to 1 and 0 <= shots < 2**63; a negative seed raises
    ``ValueError``.

    numpy's ``random_multinomial``: a category of probability 0 draws nothing
    and leaves the remaining probability as it was, and the last category
    takes what the others leave, whatever its probability.
    """
    rng = PCG64(seed)
    counts = [0] * len(probs)
    left, remaining = shots, 1.0
    for k, p in enumerate(probs[:-1]):
        counts[k] = binomial(rng, left, p / remaining)
        left -= counts[k]
        if left <= 0:
            break
        remaining -= p
    counts[-1] = left
    return counts
