"""Tests for designated-summand partition counting.

The package counts from a multiplicity-profile table.  Two reference
oracles here re-derive every count by visiting partitions one at a time:
a plain list-of-parts generator, and a generator of multiplicity profiles
(the package's counter before the table replaced it).  Each then applies
the counting rule directly.
"""

from collections import Counter
from math import prod

import pytest

from pdotq.partitions import (
    PD_EXPONENTS,
    PDO_EXPONENTS,
    designated_counts,
    pd,
    pd_t,
    pdo,
    pdo_t,
    pdo_t_series,
)
from pdotq.series import eta_product


def parts_lists(n, odd_only=False):
    """All partitions of n as weakly decreasing part lists."""
    def rec(remaining, cap):
        if remaining == 0:
            yield []
            return
        for first in range(min(cap, remaining), 0, -1):
            if odd_only and first % 2 == 0:
                continue
            for rest in rec(remaining - first, first):
                yield [first] + rest

    return rec(n, n)


def oracle_counts(n, odd_only):
    total = 0
    tagged = 0
    for parts in parts_lists(n, odd_only):
        mults = Counter(parts)
        ways = prod(mults.values())
        total += ways
        tagged += len(mults) * ways
    return total, tagged


def enumerate_partitions(n, odd_only=False):
    """Yield the partitions of n as multiplicity profiles: tuples of
    (size, multiplicity) pairs with sizes strictly decreasing.

    Profiles appear in decreasing lexicographic order of largest size.
    n = 0 yields the single empty profile.
    """
    if n < 0:
        raise ValueError(f"cannot partition {n}")

    def descend(remaining, cap):
        if remaining == 0:
            yield ()
            return
        start = min(cap, remaining)
        for size in range(start, 0, -1):
            if odd_only and size % 2 == 0:
                continue
            for mult in range(remaining // size, 0, -1):
                for rest in descend(remaining - mult * size, size - 1):
                    yield ((size, mult),) + rest

    return descend(n, n)


def profile_counts(n, odd_only):
    """(sum of products of multiplicities, same weighted by the number of
    distinct sizes) over all profiles of n."""
    total = 0
    tagged = 0
    for profile in enumerate_partitions(n, odd_only):
        ways = prod(mult for _, mult in profile)
        total += ways
        tagged += len(profile) * ways
    return total, tagged


def test_designated_anchor_values():
    """The four published values at n = 4 that pin the counting rule."""
    assert pd(4) == 10
    assert pd_t(4) == 13
    assert pdo(4) == 5
    assert pdo_t(4) == 6


def test_counts_match_list_oracle():
    for n in range(0, 23):
        all_total, all_tagged = oracle_counts(n, odd_only=False)
        odd_total, odd_tagged = oracle_counts(n, odd_only=True)
        assert pd(n) == all_total, f"pd({n})"
        assert pd_t(n) == all_tagged, f"pd_t({n})"
        assert pdo(n) == odd_total, f"pdo({n})"
        assert pdo_t(n) == odd_tagged, f"pdo_t({n})"


def test_table_matches_profile_oracle():
    for odd_only in (False, True):
        totals, tagged = designated_counts(22, odd_only)
        assert len(totals) == len(tagged) == 23
        for n in range(23):
            assert (totals[n], tagged[n]) == profile_counts(n, odd_only), n


def test_table_matches_generating_functions():
    order = 501
    totals, _ = designated_counts(order - 1)
    assert totals == list(eta_product(PD_EXPONENTS, order).coeffs)
    odd_totals, odd_tagged = designated_counts(order - 1, odd_only=True)
    assert odd_totals == list(eta_product(PDO_EXPONENTS, order).coeffs)
    assert odd_tagged == list(pdo_t_series(order).coeffs)


def test_pd_t_70_matches_its_enumerated_value():
    # computed once by visiting every multiplicity profile of 70, the
    # counter this table replaced (about 25 s)
    assert pd_t(70) == 2831839544


def test_table_at_zero_and_below():
    assert designated_counts(0) == designated_counts(0, True) == ([1], [0])
    with pytest.raises(ValueError):
        designated_counts(-1)


def test_small_value_table():
    assert [pdo_t(n) for n in range(10)] == [0, 1, 2, 4, 6, 10, 16, 24, 36, 52]
    assert pd(0) == 1 and pd_t(0) == 0


def test_profiles_of_four():
    got = list(enumerate_partitions(4))
    assert got == [
        ((4, 1),),
        ((3, 1), (1, 1)),
        ((2, 2),),
        ((2, 1), (1, 2)),
        ((1, 4),),
    ]
    assert list(enumerate_partitions(4, odd_only=True)) == [
        ((3, 1), (1, 1)),
        ((1, 4),),
    ]


def test_profile_count_is_partition_number():
    # p(n) for n = 0..12
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    got = [sum(1 for _ in enumerate_partitions(n)) for n in range(13)]
    assert got == expected


def test_profiles_reject_negative():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))


def test_series_matches_enumeration():
    order = 30
    series = pdo_t_series(order)
    assert series.coeffs == tuple(pdo_t(n) for n in range(order))


def test_series_residue_domain_consistent():
    order = 120
    exact = pdo_t_series(order)
    for modulus in (8, 27, 32, 243, 256):
        assert pdo_t_series(order, modulus) == exact.reduce_mod(modulus)


def _pentagonal(step, order):
    """{index: sign} of f_step = prod_{j>=1} (1 - q^(j*step)) below order,
    from Euler's pentagonal number theorem."""
    terms = {0: 1}
    k = 1
    while step * k * (3 * k - 1) // 2 < order:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if step * g < order:
                terms[step * g] = -1 if k % 2 else 1
        k += 1
    return terms


def _sparse_euler_recurrence(order):
    """pdo_t(0..order-1) from q f2 f3^2 f12^2 / (f1^2 f6), one sparse
    factor at a time: a multiply is a sum over the factor's few terms, and
    a division solves the triangular recurrence against them."""
    body = order - 1
    c = [1] + [0] * (body - 1)
    for step in (2, 3, 3, 12, 12):
        terms = sorted(_pentagonal(step, body).items())
        c = [sum(sign * c[n - g] for g, sign in terms if g <= n)
             for n in range(body)]
    for step in (1, 1, 6):
        terms = [(g, sign) for g, sign in sorted(_pentagonal(step, body).items())
                 if g]
        for n in range(body):
            c[n] -= sum(sign * c[n - g] for g, sign in terms if g <= n)
    return [0] + c


@pytest.fixture(scope="module")
def exact_2500():
    return pdo_t_series(2500)


def test_long_exact_series_matches_sparse_recurrence(exact_2500):
    # order 2500 runs the exact Kronecker multiply and Newton inversion
    assert list(exact_2500.coeffs) == _sparse_euler_recurrence(2500)


def test_long_exact_series_reduces_to_residue_expansions(exact_2500):
    for modulus in (32, 243, 256, 729):
        assert exact_2500.reduce_mod(modulus) == pdo_t_series(2500, modulus)


def test_series_requires_positive_order():
    with pytest.raises(ValueError):
        pdo_t_series(0)
    assert pdo_t_series(1).coeffs == (0,)
    with pytest.raises(ValueError):
        pdo_t_series(0, step=3)
    for step in (0, 2, 6):
        with pytest.raises(ValueError):
            pdo_t_series(10, step=step)


def test_3n_series_is_the_3n_progression_exactly():
    # Hirschhorn and Sellers: sum pdo_t(3n) q^n = 4q f2 f4^2 f6^3 / f1^4
    assert pdo_t_series(12, step=3).coeffs == tuple(
        pdo_t(3 * n) for n in range(12))
    full = pdo_t_series(3 * 3001)
    assert pdo_t_series(3001, step=3) == full.dissect(3, 0)
    for modulus in (32, 243, 256, 729, 186624):
        assert pdo_t_series(3001, modulus, 3) == (
            full.dissect(3, 0).reduce_mod(modulus))


# (order, modulus) of the full expansions `check --suite all` read before
# the 3n series served it, and one 3n expansion that covers them all
SUITE_EXPANSIONS = ((115021, 32), (64801, 729), (53137, 243), (29809, 256))
SUITE_3N_EXPANSION = (38341, 186624)


def test_3n_series_matches_the_full_series_at_the_suite_orders():
    shared = pdo_t_series(*SUITE_3N_EXPANSION, step=3)
    assert shared.order == SUITE_3N_EXPANSION[0]
    for order, modulus in SUITE_EXPANSIONS:
        progression = pdo_t_series(order, modulus).dissect(3, 0)
        assert pdo_t_series(progression.order, modulus, 3) == progression
        assert shared.truncate(progression.order).reduce_mod(modulus) == (
            progression)
