"""Residue-ring coefficients are stored as machine words.

In Z/M with M < 2^63 every residue fits a signed 64-bit word, so a series
keeps one array('q'); over Z and for M >= 2^63 it keeps a tuple.  Each
operation must give, in either storage, what the exact path gives reduced
mod M, and the word storage must keep the 3n expansion's memory down.
"""

import random
import tracemalloc

import pytest

from pdotq.partitions import pdo_t_series
from pdotq.series import TruncSeries, phi_minus

# the largest prime below 2^63 stores words; the largest prime below 2^64,
# a modulus of 2^63 itself, and Z keep tuples
WORDS = (2 ** 63 - 25, 2 ** 63 - 1)
TUPLES = (2 ** 63, 2 ** 64 - 59, None)


def _storage(series):
    coeffs = series.coeffs
    if type(coeffs).__name__ == "array":
        assert coeffs.typecode == "q"
        return "words"
    assert type(coeffs) is tuple
    return "tuple"


def _exact(rng, order, bits, unit=False, nonzero=None):
    """A random series over Z with coefficients below 2^bits in size, unit
    constant term 1 when asked, and at most `nonzero` nonzero terms."""
    coeffs = [0] * order
    places = range(order) if nonzero is None else rng.sample(
        range(1, order), nonzero)
    for i in places:
        coeffs[i] = rng.randrange(-2 ** bits, 2 ** bits)
    if unit:
        coeffs[0] = 1
    return TruncSeries(coeffs)


def _reduced(series, modulus):
    return series if modulus is None else series.reduce_mod(modulus)


@pytest.mark.parametrize("modulus", WORDS + TUPLES)
def test_every_operation_agrees_with_the_exact_path_in_either_storage(
        modulus):
    want = "words" if modulus in WORDS else "tuple"
    rng = random.Random(modulus or 0)
    order = 300
    # the divisors are small over Z, where their quotients grow
    a = _exact(rng, order, 2, unit=True)
    b = _exact(rng, order, 70)
    sparse = _exact(rng, order, 2, unit=True, nonzero=12)
    ra, rb, rsparse = (_reduced(s, modulus) for s in (a, b, sparse))
    assert {_storage(s) for s in (ra, rb, rsparse)} == {want}

    def agree(got, exact):
        assert _storage(got) == want
        expected = _reduced(exact, modulus)
        assert got == expected and hash(got) == hash(expected)
        assert list(got.coeffs) == list(expected.coeffs)

    # products, dense and against a sparse operand, and a square
    agree(ra * rb, a * b)
    agree(rsparse * rb, sparse * b)
    agree(ra * ra, a * a)
    agree(rb * 7, b * 7)
    # Newton division by a dense den, the recurrence by a sparse one, and
    # the inverse alone; the exact quotients are divided over Z first
    agree(ra.invert(times=rb), a.invert(times=b))
    agree(rsparse.invert(times=rb), sparse.invert(times=b))
    agree(ra.invert(), a.invert())
    # the coefficient moves
    agree(ra.shift(5), a.shift(5))
    agree(ra.shift(-5), a.shift(-5))
    agree(ra.inflate(3), a.inflate(3))
    agree(ra.inflate(4, order=500), a.inflate(4, order=500))
    agree(ra.dissect(7, 3), a.dissect(7, 3))
    agree(ra.truncate(17), a.truncate(17))
    agree(ra + rb, a + b)
    agree(ra - rb, a - b)
    agree(-ra, -a)
    if modulus is not None:
        agree(ra.reduce_mod(modulus), a)
        agree(TruncSeries(rb.coeffs, modulus), b)
    # a series differs from one with a coefficient changed
    changed = list(ra.coeffs)
    changed[-1] = (changed[-1] + 1) % (modulus or 2 ** 80)
    assert TruncSeries(changed, modulus) != ra


def test_a_word_ring_reduces_into_a_divisor_ring():
    rng = random.Random(2 ** 62)
    a = _exact(rng, 200, 70)
    big = a.reduce_mod(3 ** 39)
    assert _storage(big) == "words"
    for divisor in (3, 3 ** 20, 3 ** 39):
        assert big.reduce_mod(divisor) == a.reduce_mod(divisor)


def test_the_theta_series_are_laid_down_in_either_storage():
    for modulus in (None, 4, 2 ** 63 - 25, 2 ** 64 - 59):
        got = phi_minus(50, modulus)
        want = [0] * 50
        for k in range(-7, 8):
            want[k * k] += -1 if k % 2 else 1
        assert list(got.coeffs) == [c % modulus if modulus else c
                                    for c in want]
    assert phi_minus(0, 4).order == 0


def test_exact_fields_above_the_leading_digit_are_read_as_biased_zeros():
    # over Z every product field carries the bias H = min(la, lb) A B, so a
    # field whose coefficient is -H is all zeros; when it is the top one,
    # str() writes none of its digits, and it must still decode as -H
    from pdotq.series import _mul_decimal, _mul_schoolbook

    for a, b, order in (([-3], [5, 5], 2), ([-3], [5, 5, 5, 5], 6),
                        ([2, -3], [0, 5, 5], 5)):
        want = _mul_schoolbook(a, b, order, None)
        assert _mul_decimal(a, b, order, None) == want
        for lo in range(order):
            assert _mul_decimal(a, b, order, None, lo) == want[lo:]
            minuend = list(range(order - lo))
            assert _mul_decimal(a, b, order, None, lo, minuend) == [
                m - c for m, c in zip(minuend, want[lo:])]


def test_nonzero_terms_of_words_match_a_scan():
    from array import array

    from pdotq.series import _nonzero_terms, _sparse_pairs

    rng = random.Random(63)
    # values with zero low bytes, or a single set high byte, are nonzero
    values = (1, 255, 256, 2 ** 40, 2 ** 56, 2 ** 62 + 1, 2 ** 63 - 1)
    for density in (0.0, 0.01, 0.1, 0.3, 1.0):
        coeffs = [rng.choice(values) if rng.random() < density else 0
                  for _ in range(3000)]
        words = array("q", coeffs)
        for order in (0, 1, 8, 1000, 3000, 4000):
            want = [(i, c) for i, c in enumerate(coeffs[:order]) if c]
            assert _nonzero_terms(words, order) == want
            assert _nonzero_terms(coeffs, order) == want
    # the dispatch rule, heads first, is the full count's
    for _ in range(200):
        order = rng.randrange(1, 3000)
        a, b = ([c if rng.random() < rng.random() else 0
                 for c in range(1, order + 1)] for _ in range(2))
        nnz = [sum(1 for c in x[:order] if c) for x in (a, b)]
        assert _sparse_pairs(a, b, order) == (nnz[0] * nnz[1] <= 16 * order)
        assert _sparse_pairs(a, a, order) == (nnz[0] ** 2 <= 16 * order)


def test_the_3n_expansion_stays_within_its_memory_per_coefficient():
    # 32-byte boxed ints once took 106 bytes per coefficient at the peak
    # of this expansion and 36 in the series kept; 8-byte words take about
    # 66 and 8.  tracemalloc counts the same allocations on every run
    order = 100000
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        series = pdo_t_series(order, 2187, 3)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _storage(series) == "words" and series.order == order
    assert (peak - start) / order <= 75
    assert (kept - start) / order <= 10
