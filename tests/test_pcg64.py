"""The plain-Python PCG64 multinomial port against numpy's own generator."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcorolla import pcg64
from qcorolla.entangle import MAX_SHOTS

seeds = st.one_of(st.integers(0, 2**32), st.integers(0, 2**64), st.integers(0, 2**200))
shots = st.one_of(st.integers(1, 1000), st.integers(1, 10**7), st.integers(1, MAX_SHOTS),
                  st.integers(2**62, MAX_SHOTS))
lambdas = st.one_of(st.sampled_from([0.0, 5e-324, 0.5]), st.floats(0.0, 0.5))


def numpy_counts(seed, n, probs):
    return [int(k) for k in np.random.default_rng(seed).multinomial(n, probs)]


@settings(max_examples=200, deadline=None)
@given(seeds)
@example(0)
@example(2**128)
@example(2**128 - 1)
def test_raw_stream_matches_numpy(seed):
    rng = pcg64.PCG64(seed)
    expected = np.random.default_rng(seed).bit_generator.random_raw(16)
    assert [rng.next_uint64() for _ in range(16)] == [int(word) for word in expected]


@settings(max_examples=600, deadline=None)
@given(seeds, shots, lambdas, st.booleans())
@example(42, 100_000, 0.5, False)
@example(7, MAX_SHOTS, 0.5, True)
@example(7, MAX_SHOTS, 5e-324, True)
@example(1, 2**62, 100.0 / 2**62, False)  # BTPE with a mean of 100, where n + 1 - m is not exact in double
def test_two_outcome_counts_match_numpy(seed, n, lam, swap):
    p = 1.0 - lam if swap else lam
    assert pcg64.multinomial(seed, n, [p, 1.0 - p]) == numpy_counts(seed, n, [p, 1.0 - p])


def test_binomial_branches_match_numpy():
    # means near the inversion/BTPE cut (30) and spreads that reach BTPE's squeeze and its exact
    # ratio, at sample counts where C's int64 products wrap
    rnd = random.Random(3)
    for _ in range(1500):
        seed = rnd.randrange(2**64)
        n = rnd.choice([rnd.randrange(31, 10**4), rnd.randrange(2**40, 2**63), rnd.randrange(2**62, 2**63)])
        mean = rnd.choice([29.5, 30.5, 31.0, 45.0, 100.0, rnd.uniform(30.0, 10**5), n * rnd.uniform(0.0, 0.5)])
        p = min(mean / n, 0.5)
        for q in (p, 1.0 - p):
            assert pcg64.multinomial(seed, n, [q, 1.0 - q]) == numpy_counts(seed, n, [q, 1.0 - q]), (seed, n, q)


def test_btpe_left_tail_rejection_matches_numpy():
    # the first binomial draw (n = 1000, mean 31: BTPE) lands in the left tail below 0 and is
    # rejected (y < 0) before a later draw is accepted
    assert pcg64.multinomial(3025, 1000, [0.031, 0.969]) == numpy_counts(3025, 1000, [0.031, 0.969]) == [28, 972]


@settings(max_examples=600, deadline=None)
@given(seeds, shots, lambdas, st.sampled_from(["01z", "0z1", "z01", "01"]))
# the second draw's p, p2 / (1 - p1), is 1, 1 - 2**-52 (leaving a rest for the last category) and 1 + 2**-52
@example(3, 2**62, 0.3, "01z")
@example(3, 2**62, 0.44892748125885296, "01z")
@example(3, MAX_SHOTS, 0.8665618499863413, "01z")
def test_two_term_counts_with_zero_categories_match_numpy(seed, n, lam, layout):
    # a two-term state's dense probabilities, normalized as numpy normalizes them, with a
    # zero-probability category before, between or after the terms: the last one takes the leftover
    a, b = math.sqrt(lam), math.sqrt(1.0 - lam)
    total = a * a + b * b
    terms = iter([a * a / total, b * b / total])
    probs = [0.0 if c == "z" else next(terms) for c in layout]
    assert pcg64.multinomial(seed, n, probs) == numpy_counts(seed, n, probs)


def test_a_negative_seed_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError) as ours:
        pcg64.PCG64(-1)
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(-1)
    assert str(ours.value) == str(theirs.value) == "expected non-negative integer"
