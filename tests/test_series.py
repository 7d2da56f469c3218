"""Tests for the truncated-series core.

Expected values here are frozen from independent computations: direct
product expansion for the Euler factors, dynamic programming for partition
numbers, and brute-force lattice counting for the cubic theta series.
"""

import random
from math import gcd, isqrt

import pytest

from pdotq.series import (
    DomainMismatchError,
    NotInvertibleError,
    TruncSeries,
    cubic_theta,
    euler_factor,
    jacobi_cube,
    phi_minus,
    psi,
)


# --- independent oracles, local to the tests ---

def poly_mul(a, b, order):
    out = [0] * order
    for i, ai in enumerate(a):
        if ai and i < order:
            for j, bj in enumerate(b):
                if i + j < order:
                    out[i + j] += ai * bj
    return out


def euler_direct(step, order):
    """prod_{j>=1} (1 - q^(j*step)) by explicit factor-by-factor expansion."""
    out = [int(i == 0) for i in range(order)]
    j = 1
    while j * step < order:
        factor = [0] * order
        factor[0] = 1
        factor[j * step] = -1
        out = poly_mul(out, factor, order)
        j += 1
    return out


def partition_numbers(order):
    """p(0..order-1) by the classic coin-style dynamic program."""
    ways = [0] * order
    ways[0] = 1
    for part in range(1, order):
        for s in range(part, order):
            ways[s] += ways[s - part]
    return ways


def rand_series(rng, order, modulus, unit=False):
    if modulus is None:
        coeffs = [rng.randrange(-9, 10) for _ in range(order)]
        if unit:
            coeffs[0] = rng.choice([1, -1])
    else:
        coeffs = [rng.randrange(modulus) for _ in range(order)]
        if unit:
            while True:
                c = rng.randrange(1, modulus)
                if __import__("math").gcd(c, modulus) == 1:
                    coeffs[0] = c
                    break
    return TruncSeries(coeffs, modulus)


# --- frozen values ---

def test_euler_factor_leading_terms():
    """f1 to order 8 from the pentagonal expansion."""
    assert euler_factor(1, 1, 8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)


def test_euler_factor_matches_direct_product():
    # orders 0-2 end inside the first pentagonal terms; residues mod
    # 2^63 - 25 are kept in machine words, those mod 2^64 - 59 in a tuple
    for step, order in [(1, 0), (1, 1), (1, 2), (2, 2), (1, 60), (2, 60),
                        (3, 90), (6, 120), (12, 120)]:
        direct = euler_direct(step, order)
        for modulus in (None, 2, 8, 243, 2 ** 63 - 25, 2 ** 64 - 59):
            got = euler_factor(step, 1, order, modulus)
            assert list(got.coeffs) == [c if modulus is None else c % modulus
                                        for c in direct], (
                f"pentagonal expansion of f_{step} disagrees with the "
                f"term-by-term product at order {order} mod {modulus}"
            )
            assert isinstance(got.coeffs, tuple) == (
                modulus is None or modulus >= 2 ** 63)


def test_addition_doubles_f1():
    f1 = euler_factor(1, 1, 8)
    assert (f1 + f1).coeffs == (2, -2, -2, 0, 0, 2, 0, 2)


def test_jacobi_cube_leading_terms():
    assert jacobi_cube(11).coeffs == (1, -3, 0, 5, 0, 0, -7, 0, 0, 0, 9)


def test_jacobi_cube_equals_f1_cubed():
    order = 500
    assert jacobi_cube(order) == euler_factor(1, 3, order)


def test_invert_f1_gives_partition_numbers():
    order = 40
    expected = tuple(partition_numbers(order))
    assert euler_factor(1, 1, order).invert().coeffs == expected
    assert expected[:10] == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)


def test_negative_power_is_squared_partition_series():
    # 1/f1^2 convolves p with itself
    p = partition_numbers(5)
    expected = tuple(poly_mul(p, p, 5))
    got = euler_factor(1, -2, 5)
    assert got.coeffs == expected == (1, 2, 5, 10, 20)


def test_dissect_odd_part_of_f1():
    assert euler_factor(1, 1, 9).dissect(2, 1).coeffs == (-1, 0, 1, 1)


def test_reduce_mod_f1_cubed():
    got = euler_factor(1, 3, 7).reduce_mod(3)
    assert tuple(got.coeffs) == (1, 0, 0, 2, 0, 0, 2)
    assert got.modulus == 3


def test_cubic_theta_leading_terms():
    assert cubic_theta(3).coeffs == (1, 6, 0)


def test_cubic_theta_brute_force():
    order = 200
    counts = [0] * order
    for m in range(-order, order + 1):
        for n in range(-order, order + 1):
            v = m * m + m * n + n * n
            if v < order:
                counts[v] += 1
    assert cubic_theta(order).coeffs == tuple(counts)


def test_inflate_places_coefficients():
    f1 = euler_factor(1, 1, 4)
    got = f1.inflate(3)
    assert got.order == 12
    assert got.coeffs == (1, 0, 0, -1, 0, 0, -1, 0, 0, 0, 0, 0)
    assert f1.inflate(3, order=7).coeffs == (1, 0, 0, -1, 0, 0, -1)


def test_inflate_matches_euler_step():
    assert euler_factor(1, 1, 50).inflate(6, order=300) == euler_factor(6, 1, 300)


# --- contracts and errors ---

def test_min_order_rule():
    a = TruncSeries([1, 2, 3, 4, 5])
    b = TruncSeries([1, 1, 1])
    assert (a + b).order == 3
    assert (a * b).order == 3
    assert (a - b).order == 3


def test_domain_mismatch_rejected():
    a = TruncSeries([1, 2, 3])
    b = TruncSeries([1, 2, 3], modulus=5)
    c = TruncSeries([1, 2, 3], modulus=7)
    for x, y in [(a, b), (b, c)]:
        with pytest.raises(DomainMismatchError):
            x + y
        with pytest.raises(DomainMismatchError):
            x * y


def test_residue_coefficients_normalized():
    s = TruncSeries([-1, 7, 5], modulus=5)
    assert tuple(s.coeffs) == (4, 2, 0)


def test_invert_requires_unit_constant_term():
    with pytest.raises(NotInvertibleError):
        TruncSeries([2, 1, 1]).invert()
    with pytest.raises(NotInvertibleError):
        TruncSeries([2, 1, 1], modulus=8).invert()
    # 2 is a unit mod 9
    s = TruncSeries([2, 1, 1], modulus=9)
    assert (s * s.invert()) == TruncSeries.one(3, 9)


def test_reduce_mod_rejects_incompatible_residue_ring():
    s = TruncSeries([1, 2, 3], modulus=8)
    with pytest.raises(DomainMismatchError):
        s.reduce_mod(3)
    assert tuple(s.reduce_mod(4).coeffs) == (1, 2, 3)
    assert tuple(s.reduce_mod(2).coeffs) == (1, 0, 1)


def test_dissect_validates_residue():
    s = TruncSeries([1, 2, 3, 4])
    with pytest.raises(ValueError):
        s.dissect(3, 3)
    with pytest.raises(ValueError):
        s.dissect(0, 0)


def test_pow_zero_gives_one():
    s = TruncSeries([3, 1, 4, 1], modulus=7)
    assert s ** 0 == TruncSeries.one(4, 7)


def test_pow_negative_inverts():
    s = TruncSeries([1, 5, 2, 8])
    assert s ** -3 == (s ** 3).invert()


def test_shift_both_directions():
    s = TruncSeries([1, 2, 3])
    assert s.shift(2).coeffs == (0, 0, 1, 2, 3)
    assert s.shift(2).shift(-2) == s
    with pytest.raises(ValueError):
        s.shift(-4)


def test_getitem_bounds():
    s = TruncSeries([5, 6])
    assert s[1] == 6
    with pytest.raises(IndexError):
        s[2]


# --- randomized property checks (seeded, deterministic) ---

def test_ring_laws_random():
    rng = random.Random(20260822)
    for _ in range(300):
        modulus = rng.choice([None, None, 2, 3, 8, 9, 32, 243, 256])
        order = rng.randrange(1, 30)
        a = rand_series(rng, order, modulus)
        b = rand_series(rng, order, modulus)
        c = rand_series(rng, order, modulus)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_invert_roundtrip_random():
    rng = random.Random(1729)
    for _ in range(300):
        modulus = rng.choice([None, 2, 3, 9, 32, 125, 243, 256])
        order = rng.randrange(1, 40)
        a = rand_series(rng, order, modulus, unit=True)
        assert a * a.invert() == TruncSeries.one(order, modulus)
        assert a.invert().invert() == a


def test_dissect_inflate_roundtrip_random():
    rng = random.Random(424242)
    for _ in range(300):
        modulus = rng.choice([None, 5, 8, 27])
        order = rng.randrange(1, 40)
        m = rng.randrange(1, 7)
        a = rand_series(rng, order, modulus)
        # reassemble from the m dissection slices
        back = TruncSeries.zero(order, modulus)
        for t in range(m):
            piece = a.dissect(m, t).inflate(m, order=max(order - t, 0)).shift(t)
            back = back + piece.truncate(order)
        assert back == a
        # inflating then slicing out residue zero returns the original
        assert a.inflate(m).dissect(m, 0) == a


def _multiply_cases(rng):
    """(a, b, order, modulus) operand sets for the multiply backends."""
    moduli = [2, 3, 32, 243, 256, 729, 10 ** 9 + 7]

    def dense(n, modulus):
        return [rng.randrange(modulus) for _ in range(n)]

    # random orders from 130 to 350
    for _ in range(60):
        modulus = rng.choice([2, 3, 8, 9, 32, 243, 256, 729, 1000])
        order = rng.randrange(130, 350)
        yield dense(order, modulus), dense(order, modulus), order, modulus
    for i, modulus in enumerate(moduli):
        # both sides of order 17, where dense operands leave schoolbook,
        # orders below 128 that once went to schoolbook whatever their
        # density, and near order 2048, equal lengths
        for order in (16, 17, 64, 96, 127, 128, 2047 + i % 3):
            yield dense(order, modulus), dense(order, modulus), order, modulus
        # unequal lengths, truncated below la + lb - 1 and padded above it
        yield dense(2100, modulus), dense(300, modulus), 2200, modulus
        yield dense(1500, modulus), dense(600, modulus), 4000, modulus
        # worst-case field width: every coefficient M - 1, squared (one
        # list on both sides, encoded once)
        top = [modulus - 1] * 2048
        yield top, top, 2048, modulus
        # an all-zero operand
        yield [0] * 2048, dense(2048, modulus), 2048, modulus
        # pentagonal-sparse Euler factors, one of them against a dense
        # operand, at orders near 5000
        order = rng.randrange(4900, 5100)
        f1 = list(euler_factor(1, 1, order, modulus).coeffs)
        f6 = list(euler_factor(6, 1, order, modulus).coeffs)
        yield f1, f6, order, modulus
        yield dense(order, modulus), f6, order, modulus


def test_schoolbook_decimal_and_dispatched_multiplication_agree():
    from pdotq.series import _mul_decimal, _mul_lists, _mul_schoolbook

    for a, b, order, modulus in _multiply_cases(random.Random(99)):
        expected = _mul_schoolbook(a, b, order, modulus)
        assert len(expected) == order
        assert _mul_decimal(a, b, order, modulus) == expected, (order, modulus)
        assert _mul_lists(a, b, order, modulus) == expected, (order, modulus)


def test_newton_inversion_through_decimal_multiply():
    rng = random.Random(5040)
    a = rand_series(rng, 5000, 729, unit=True)
    assert a * a.invert() == TruncSeries.one(5000, 729)


def test_modulus_too_wide_for_int_str_conversion_decodes_through_decimal():
    # with these moduli a product field would have over 4300 digits, which
    # is more than int() may parse from a string by default, so the
    # decimal backend must write and read the fields through a Decimal;
    # a coefficient mod 10^4400 + 1 cannot be formatted by int() at all
    from pdotq.series import _mul_decimal, _mul_lists, _mul_schoolbook

    for modulus in (10 ** 2200 + 1, 10 ** 4400 + 1):
        rng = random.Random(2200)
        a = [rng.randrange(modulus) for _ in range(3)]
        b = [rng.randrange(modulus) for _ in range(5)]
        got = _mul_lists(a, b, 2048, modulus)
        assert got == _mul_schoolbook(a, b, 2048, modulus)
        assert got[7:] == [0] * (2048 - 7)
        assert _mul_decimal(a, b, 2048, modulus) == got
        assert _mul_lists(a, b, 1024, modulus) == got[:1024]
        assert _mul_decimal(a, b, 1024, modulus) == got[:1024]


def _exact_multiply_cases(rng):
    """(a, b, order) signed operand sets for the exact multiply backends."""
    def signed(n, mag):
        return [rng.randrange(-mag, mag + 1) for _ in range(n)]

    for mag in (1, 10, 10 ** 30, 10 ** 300):
        # both sides of order 17, where dense operands leave schoolbook,
        # and orders below 128 that once went to schoolbook whatever their
        # density, random signs
        for order in (16, 17, 64, 96, 127, 128, 129, 300):
            yield signed(order, mag), signed(order, mag), order
            # one list on both sides: a square, encoded once
            square = signed(order, mag)
            yield square, square, order
        # +-1 only against a dense operand
        order = rng.randrange(128, 400)
        units = [rng.choice((-1, 1)) for _ in range(order)]
        yield units, signed(order, mag), order
        yield units, units[::-1], order
        # a single nonzero coefficient, either sign, anywhere
        for _ in range(3):
            lone = [0] * order
            lone[rng.randrange(order)] = rng.choice((-1, 1)) * mag
            yield lone, signed(order, mag), order
            yield signed(order, mag), lone, order
        # an all-zero operand
        yield [0] * order, signed(order, mag), order
        # unequal lengths, truncated below la + lb - 1 and padded above it
        yield signed(700, mag), signed(90, mag), 600
        yield signed(90, mag), signed(700, mag), 1000
    # the extreme product field: every coefficient -mag times +mag
    yield [-10 ** 30] * 256, [10 ** 30] * 256, 600
    # pentagonal-sparse Euler factors against dense operands sized like
    # PDO_t coefficients near n = 2500 (about 170 bits)
    order = rng.randrange(2400, 2600)
    f1 = list(euler_factor(1, 1, order).coeffs)
    f6 = list(euler_factor(6, 1, order).coeffs)
    yield f1, f6, order
    yield f1, signed(order, 2 ** 170), order
    yield signed(order, 2 ** 170), f6, order


def test_exact_kronecker_multiplication_matches_schoolbook():
    from pdotq.series import _mul_decimal, _mul_lists, _mul_schoolbook

    for a, b, order in _exact_multiply_cases(random.Random(314)):
        expected = _mul_schoolbook(a, b, order, None)
        assert len(expected) == order
        for backend in (_mul_decimal, _mul_lists):
            assert backend(a, b, order, None) == expected, (
                backend.__name__, order, len(a), len(b))


def test_exact_coefficients_past_int_str_limit():
    # 2200-digit coefficients: the decimal fields pass the 4300-digit
    # int/str limit and are read back through Decimal.  4400-digit ones
    # cannot be formatted by int() at all, so the operands are written
    # from Decimal(c) as well.
    from pdotq.series import _mul_decimal, _mul_lists, _mul_schoolbook

    rng = random.Random(4400)
    for mag in (10 ** 2200, 10 ** 4400):
        a = [rng.randrange(-mag, mag + 1) for _ in range(4)]
        b = [rng.randrange(-mag, mag + 1) for _ in range(6)]
        expected = _mul_schoolbook(a, b, 200, None)
        assert _mul_lists(a, b, 200, None) == expected
        assert _mul_decimal(a, b, 200, None) == expected


def _windowed_cases(rng):
    """(a, b, order, modulus) for windowed products: dense and unequal
    operands in residue rings and over Z, on both sides of order 17, where
    dense operands leave schoolbook, and fields too wide for int <-> str.
    Products longer than the order, whose fields from the order up are cut
    off before decode, with fields of more than 28 digits, which a Decimal
    call on the thread's default context would round; and products of
    several decode slices."""
    from pdotq.series import _DECODE_FIELDS

    for modulus in (None, 2, 243, 186624):
        wide = 2 ** 60 if modulus is None else modulus
        for order in (1, 2, 16, 17, 127, 128, 129, 700):
            a = [rng.randrange(wide) for _ in range(order)]
            b = [rng.randrange(wide) for _ in range(order)]
            if modulus is None:
                a = [c - wide // 2 for c in a]
            yield a, b, order, modulus
            # a short operand, as in a Newton step a x with x half long
            yield a, b[:(order + 1) // 2], order, modulus
    for modulus in (10 ** 400 + 1, 10 ** 2200 + 1):
        a = [rng.randrange(modulus) for _ in range(5)]
        b = [rng.randrange(modulus) for _ in range(7)]
        yield a, b, 140, modulus
    # 16-digit fields as in the 3n division mod 186624, and 29- to
    # 40-digit ones: exact coefficients up to 10^15, and residues mod
    # 10^13 + 37 and 2^61 - 1
    for modulus, mag in ((None, 10 ** 6), (186624, None), (None, 10 ** 15),
                         (10 ** 13 + 37, None), (2 ** 61 - 1, None)):
        def operand(n):
            if modulus is None:
                return [rng.randrange(-mag, mag + 1) for _ in range(n)]
            return [rng.randrange(modulus) for _ in range(n)]

        for la, lb, order in ((300, 300, 300), (700, 500, 1000),
                              (1200, 40, 1100),
                              (_DECODE_FIELDS + 50, _DECODE_FIELDS,
                               2 * _DECODE_FIELDS + 8)):
            assert la + lb - 1 > order
            yield operand(la), operand(lb), order, modulus
        # a product shorter than the order, padded with zeros
        for count in (_DECODE_FIELDS - 1, _DECODE_FIELDS, _DECODE_FIELDS + 1):
            yield operand(count - 1), operand(2), count + 5, modulus


def test_windowed_products_are_slices_of_the_full_product():
    from pdotq.series import (
        _DECODE_FIELDS, _mul_decimal, _mul_lists, _mul_schoolbook,
    )

    # windows of one decode slice less one field, exactly one, one more,
    # and two slices and more, each ending at the order
    counts = (_DECODE_FIELDS - 1, _DECODE_FIELDS, _DECODE_FIELDS + 1,
              2 * _DECODE_FIELDS + 3)
    for a, b, order, modulus in _windowed_cases(random.Random(1997)):
        full = _mul_schoolbook(a, b, order, modulus)
        windows = {0, 1, order // 2, order - 1}
        windows.update(order - count for count in counts if count <= order)
        for lo in sorted(windows):
            want = full[lo:]
            assert _mul_lists(a, b, order, modulus, lo=lo) == want, (
                order, modulus, lo)
            assert _mul_decimal(a, b, order, modulus, lo) == want, (
                order, modulus, lo)
        assert list(_mul_lists(a, b, order, modulus, lo=order)) == []
        assert list(_mul_decimal(a, b, order, modulus, order)) == []


def test_newton_inversion_over_integers_through_kronecker():
    rng = random.Random(3001)
    # f1^2 f6 (the PDO_t denominator) times a dense small perturbation
    # keeps the inverse's coefficients near the sizes PDO_t reaches
    order = 3000
    den = euler_factor(1, 2, order) * euler_factor(6, 1, order)
    bump = TruncSeries([1] + [rng.randrange(-1, 2) for _ in range(order - 1)])
    for a in (den, den * bump):
        assert a * a.invert() == TruncSeries.one(order)


def test_pow_and_product_start_from_the_first_factor():
    from pdotq.series import product

    rng = random.Random(77)
    for modulus in (None, 243):
        a = rand_series(rng, 40, modulus)
        assert a ** 0 == TruncSeries.one(40, modulus)
        assert a ** 1 == a
        assert a ** 5 == a * a * a * a * a
        assert product([], 40, modulus) == TruncSeries.one(40, modulus)
        assert product([a], 40, modulus) is a
        b = rand_series(rng, 40, modulus)
        assert product(iter([a, b, a]), 40, modulus) == a * b * a


# --- the eta-product engine and the paths under it ---

def _pentagonal_terms(step, order):
    """[(index, sign)] of f_step below order, constant term excluded, from
    Euler's pentagonal number theorem."""
    terms = []
    k = 1
    while step * k * (3 * k - 1) // 2 < order:
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if step * g < order:
                terms.append((step * g, -1 if k % 2 else 1))
        k += 1
    return sorted(terms)


def eta_recurrence(exponents, order, modulus):
    """prod f_d^r_d one Euler factor at a time: multiplying by f_d adds
    shifted copies of the series, one per pentagonal term, and dividing by
    f_d solves the triangular recurrence against the same terms."""
    c = [1] + [0] * (order - 1) if order else []
    for step, r in exponents.items():
        terms = _pentagonal_terms(step, order)
        for _ in range(abs(r)):
            if r > 0:
                out = list(c)
                for g, sign in terms:
                    for n in range(g, order):
                        out[n] += sign * c[n - g]
                c = out
            else:
                for n in range(order):
                    acc = c[n]
                    for g, sign in terms:
                        if g > n:
                            break
                        acc -= sign * c[n - g]
                    c[n] = acc
            if modulus is not None:
                c = [x % modulus for x in c]
    return c


def _random_exponents(rng, count):
    return {rng.randrange(1, 25): rng.randrange(-6, 7) for _ in range(count)}


def _eta_cases(rng):
    """(exponents, order, modulus) for the engine against the recurrence."""
    domains = [None, 2, 32, 243, 256, 729]
    fixed = [{6: 4}, {3: 2, 12: 2}, {4: -3, 8: 2, 20: 1}, {1: 0, 5: 3},
             {7: 0}, {}, {1: 3, 2: 1, 24: 6}, {1: -2, 5: -1, 13: -4},
             {1: -2, 2: 1, 3: 2, 6: -1, 12: 2}]
    for i, modulus in enumerate(domains):
        for order in (0, 1, 127, 128, 129):
            for _ in range(3):
                yield _random_exponents(rng, rng.randrange(1, 5)), order, modulus
        for exponents in fixed:
            yield exponents, 300, modulus
        yield _random_exponents(rng, 3), 2047 + i % 3, modulus
        yield {6: 4}, 2048, modulus
    for modulus in (None, 243):
        yield {1: -2, 6: -1, 2: 1, 3: 2, 12: 2}, rng.randrange(4900, 5100), modulus
        yield {3: 2, 12: -2}, rng.randrange(4900, 5100), modulus


def test_eta_product_matches_sparse_euler_recurrence():
    from pdotq.series import eta_product

    for exponents, order, modulus in _eta_cases(random.Random(2024)):
        got = eta_product(exponents, order, modulus)
        assert got.modulus == modulus
        assert list(got.coeffs) == eta_recurrence(exponents, order, modulus), (
            exponents, order, modulus)


def test_theta_builders_match_euler_quotients():
    for modulus in (None, 2, 3, 32, 243, 729):
        for order in (0, 1, 2, 3, 50, 1000):
            f1 = euler_factor(1, 1, order, modulus)
            f2 = euler_factor(2, 1, order, modulus)
            inv_f1 = euler_factor(1, -1, order, modulus)
            inv_f2 = euler_factor(2, -1, order, modulus)
            assert phi_minus(order, modulus) == f1 * f1 * inv_f2
            assert psi(order, modulus) == f2 * f2 * inv_f1


def _theta_pair_cases():
    """(exponents, order, modulus) for maps with exact theta pairs."""
    maps = [
        {1: -2, 2: 1, 3: 2, 6: -1, 12: 2},  # phi(-q^3) f12^2 / phi(-q)
        {1: -4, 2: 2},                       # phi(-q)^-2
        {3: 2, 6: -1},                       # phi(-q^3)
        {9: -1, 18: 2},                      # psi(q^9)
        {3: -8, 6: 4},                       # phi(-q^3)^-4
        {1: 2, 2: -1, 5: 3, 7: -1},          # pairs next to leftover steps
        {2: 4, 4: -2, 7: 3},
        {1: -1, 2: 2, 3: 1, 6: -2},          # psi(q) / psi(q^3)
        {6: 2, 12: -1, 18: 1},               # gcd 6: phi(-q) f3, inflated
        {4: -1, 8: 2, 12: -3},
        {1: -2, 2: 1, 4: -2},                # chained: 1 takes 2, 4 is left
        {1: 3, 2: -6, 4: 12},
        {2: -1, 4: 2, 8: -4, 16: 2},
        {1: -2, 2: 1, 4: -2, 8: 1},          # two pairs in one chain
    ]
    for modulus in (None, 2, 3, 32, 243, 256, 729):
        for exponents in maps:
            for order in (0, 1, 2, 127, 128, 129):
                yield exponents, order, modulus
    for modulus in (None, 2, 243):
        for exponents in ({1: -2, 2: 1, 3: 2, 6: -1, 12: 2}, {9: -1, 18: 2},
                          {1: -2, 2: 1, 4: -2}):
            yield exponents, 4999, modulus


def test_eta_product_with_theta_pairs_matches_sparse_euler_recurrence():
    from pdotq.series import eta_product

    for exponents, order, modulus in _theta_pair_cases():
        got = eta_product(exponents, order, modulus)
        assert got.modulus == modulus
        assert list(got.coeffs) == eta_recurrence(exponents, order, modulus), (
            exponents, order, modulus)


def _carry_and_cube_cases():
    """(exponents, order, modulus) for maps that take the carried phi rule
    or build f_1^(3j) from Jacobi's cube."""
    maps = [
        {1: -4, 2: 1, 4: 2, 6: 3},    # phi(-q)^-2 psi(q^2) f6^3: the 3n map
        {6: 2, 12: -2},               # gcd 6: phi(-q) f2^-1, inflated
        {1: -4, 2: 3},                # phi(-q)^-2 f2
        {1: 4, 2: -1},                # phi(-q)^2 f2
        {1: -2, 2: 5},                # phi(-q)^-1 f2^4
        {1: -4, 2: 1, 4: 2},          # odd carry -1 on step 2 pairs with 4
        {1: 6, 2: -1, 4: -1},         # carry 2 on step 2: phi(-q^2)
        {1: 2, 2: -4, 4: 1},          # odd carry -3 on step 2 stays there
        {1: 2, 2: -3, 4: 3},          # carry -2 on step 2 carries -1 to 4
        {2: -6, 4: 1, 8: 4, 5: 3},    # chain 2 -> 4 -> 8 beside a cube
        {1: 4, 2: 2},                 # same signs: no pairing
        {1: 3}, {1: -3}, {1: 6}, {1: -6}, {3: 3, 7: -6}, {1: 9, 2: -3},
    ]
    for modulus in (None, 2, 3, 32, 243, 256, 729, 186624):
        for exponents in maps:
            for order in (0, 1, 2, 127, 128, 129):
                yield exponents, order, modulus
            if modulus in (None, 186624):
                yield exponents, 700, modulus
    for modulus in (None, 186624):
        for exponents in ({1: -4, 2: 1, 4: 2, 6: 3}, {1: 2, 2: -3, 4: 3},
                          {1: -6}):
            yield exponents, 2049, modulus


def test_eta_product_with_carries_and_cubes_matches_sparse_euler_recurrence():
    from pdotq.series import eta_product

    for exponents, order, modulus in _carry_and_cube_cases():
        got = eta_product(exponents, order, modulus)
        assert got.modulus == modulus
        assert list(got.coeffs) == eta_recurrence(exponents, order, modulus), (
            exponents, order, modulus)


def test_3n_map_is_built_from_theta_and_jacobi_series_alone(monkeypatch):
    from pdotq import series

    def forbidden(*args):
        raise AssertionError("every factor has a sparse theta form")

    expected = eta_recurrence({1: -4, 2: 1, 4: 2, 6: 3}, 3000, 186624)
    monkeypatch.setattr(series, "euler_factor", forbidden)
    got = series.eta_product({1: -4, 2: 1, 4: 2, 6: 3}, 3000, 186624)
    assert list(got.coeffs) == expected


def test_eta_product_rejects_bad_input():
    from pdotq.series import eta_product

    with pytest.raises(ValueError):
        eta_product({1: 1}, -1)
    with pytest.raises(ValueError):
        eta_product({0: 2}, 10)
    # a step with exponent zero is no factor at all
    assert eta_product({0: 0, 2: 1}, 10) == euler_factor(2, 1, 10)


def test_scaled_eta_product_is_the_scaled_integer_expansion():
    from pdotq.series import eta_product

    maps = ({1: -4, 2: 1, 4: 2, 6: 3}, {1: 237, 2: 3, 3: -79, 6: 3},
            {1: 230, 2: 8, 3: -74}, {1: 2, 2: 2, 3: 2, 6: 2}, {6: 4})
    # scalars sharing 2, 3 or both with M, a multiple of M (zero), zero,
    # negative ones, and units
    cases = ((186624, 4), (186624, 36), (243, 36), (243, 6), (81, 6),
             (243, 2 ** 4 * 3 ** 4), (729, -36), (32, 12), (186624, -5),
             (243, 486), (2, 4), (4, 4), (4, -8), (243, 0), (8, 1),
             (None, 36), (None, -6), (None, 0), (None, 1))
    for exponents in maps:
        for order in (0, 1, 40):
            exact = eta_recurrence(exponents, order, None)
            for modulus, scalar in cases:
                got = eta_product(exponents, order, modulus, scalar=scalar)
                want = [scalar * c for c in exact]
                if modulus is not None:
                    want = [c % modulus for c in want]
                assert got.modulus == modulus
                assert list(got.coeffs) == want, (exponents, order, modulus,
                                                  scalar)


def test_scaled_eta_product_expands_in_the_ring_the_scalar_leaves(
        monkeypatch):
    from pdotq import series

    rings = []
    original = series._eta_body

    def spy(steps, order, modulus, known=()):
        rings.append(modulus)
        return original(steps, order, modulus, known)

    monkeypatch.setattr(series, "_eta_body", spy)
    # the 3n body, the level-18 and level-36 Sturm quotients, and a
    # companion of the level-18 family at k = 2
    for exponents, modulus, scalar, ring in (
            ({1: -4, 2: 1, 4: 2, 6: 3}, 186624, 4, 46656),
            ({1: 230, 2: 8, 3: -74}, 243, 36, 27),
            ({1: 237, 2: 3, 3: -79, 6: 3}, 243, 6, 81),
            ({1: 2, 2: 2, 3: 2, 6: 2}, 3 ** 5, 2 ** 4 * 3 ** 4, 3),
            ({1: -4, 2: 1}, 1215, 36, 135), ({1: -4, 2: 1}, 1215, 6, 405),
            ({1: -4, 2: 1}, 243, -36, 27), ({1: -4, 2: 1}, 243, 5, 243),
            ({1: -4, 2: 1}, None, 36, None)):
        rings.clear()
        series.eta_product(exponents, 300, modulus, scalar=scalar)
        assert rings[0] == ring, (modulus, scalar, rings)
    # a scalar that M divides leaves nothing to expand
    rings.clear()
    for modulus, scalar in ((2, 4), (4, 4), (243, 486), (243, 0)):
        assert series.eta_product({1: -4}, 50, modulus, scalar=scalar) == (
            TruncSeries.zero(50, modulus))
    assert rings == []


def test_theta_unit_rule_expands_small_2_adic_rings_without_a_division(
        monkeypatch):
    from pdotq import series
    from pdotq.partitions import PDO_T_3N_EXPONENTS, PDO_T_EXPONENTS

    rings = []
    original = series._divide_list

    def spy(num, den, order, modulus, known=()):
        rings.append(modulus)
        return original(num, den, order, modulus, known)

    monkeypatch.setattr(series, "_divide_list", spy)
    # phi(-q) == 1 (mod 2), so phi(-q)^(2^(a-1)) == 1 (mod 2^a): the plans
    # that drop or raise a negative power of phi(-q) give the product
    for exponents in (PDO_T_EXPONENTS, PDO_T_3N_EXPONENTS):
        for modulus in (2, 4, 8, 16, 32):
            got = series.eta_product(exponents, 1500, modulus)
            assert list(got.coeffs) == eta_recurrence(
                exponents, 1500, modulus), (exponents, modulus)
    # the 3n series mod 4, 8, 16 and 32 (the scalar 4 leaves rings 1, 2,
    # 4 and 8) and the PDO_t series mod 4 are products of theta series;
    # mod 64 (ring 16) the 3n series still divides by phi(-q)^2
    exact = eta_recurrence(PDO_T_3N_EXPONENTS, 1500, None)
    for modulus, divisions in ((4, []), (8, []), (16, []), (32, []),
                               (64, [16])):
        rings.clear()
        got = series.eta_product(PDO_T_3N_EXPONENTS, 1500, modulus, scalar=4)
        assert list(got.coeffs) == [4 * c % modulus for c in exact]
        assert rings == divisions, modulus
    rings.clear()
    series.eta_product(PDO_T_EXPONENTS, 1500, 4)
    assert rings == []
    assert not series.eta_divides(PDO_T_3N_EXPONENTS, 32, 4)
    assert series.eta_divides(PDO_T_3N_EXPONENTS, 64, 4)
    assert series.eta_divides(PDO_T_3N_EXPONENTS, 186624, 4)


def test_eta_product_without_negative_exponents_never_inverts(monkeypatch):
    from pdotq import series

    def forbidden(*args):
        raise AssertionError("no exponent is negative")

    expected = euler_factor(6, 4, 5000, 243)
    phi3 = euler_factor(3, 2, 5000, 243) * euler_factor(6, -1, 5000, 243)
    psi9 = euler_factor(18, 2, 5000) * euler_factor(9, -1, 5000)
    for name in ("_divide_newton", "_divide_sparse"):
        monkeypatch.setattr(series, name, forbidden)
    assert series.eta_product({6: 4}, 5000, 243) == expected
    # f3^2/f6 and f18^2/f9 are the theta series phi(-q^3) and psi(q^9),
    # built without a division
    assert series.eta_product({3: 2, 6: -1}, 5000, 243) == phi3
    assert series.eta_product({9: -1, 18: 2}, 5000) == psi9
    assert series.eta_product({1: 2, 3: 1}, 700) == (
        euler_factor(1, 2, 700) * euler_factor(3, 1, 700))
    # modulo 2^a a power stays a power: f1^7 mod 8 is not taken to f2^4/f1
    for exponents, modulus in (({1: 7}, 8), ({1: 15}, 16),
                               ({1: 23, 3: 5}, 8)):
        got = series.eta_product(exponents, 600, modulus)
        assert list(got.coeffs) == eta_recurrence(exponents, 600, modulus)


def _sparse_operands(rng, order, modulus):
    """Operand pairs with few enough nonzero pairs for schoolbook dispatch."""
    f1 = list(euler_factor(1, 1, order, modulus).coeffs)
    f3 = list(euler_factor(3, 1, order, modulus).coeffs)
    f12 = list(euler_factor(12, 1, order, modulus).coeffs)
    wide = 2 ** 200 if modulus is None else modulus
    dense = [rng.randrange(wide) for _ in range(order)]
    lone = [0] * order
    lone[rng.randrange(order)] = rng.randrange(1, wide)
    yield f1, f1
    yield f3, f12
    yield lone, dense
    yield dense, lone
    yield [0] * order, dense
    yield dense, [0] * order


def test_sparse_products_dispatch_to_schoolbook_and_agree(monkeypatch):
    from pdotq import series

    calls = []
    schoolbook = series._mul_schoolbook

    def counted(a, b, order, modulus, *window):
        calls.append(order)
        return schoolbook(a, b, order, modulus, *window)

    monkeypatch.setattr(series, "_mul_schoolbook", counted)
    rng = random.Random(30000)
    for order in (2048, 30000):
        for modulus in (None, 32, 729):
            for a, b in _sparse_operands(rng, order, modulus):
                calls.clear()
                got = series._mul_lists(a, b, order, modulus)
                assert calls == [order]
                assert len(got) == order
                assert got == series._mul_decimal(a, b, order, modulus)
    # below order 17 no product has more than 16 nonzero pairs per product
    # coefficient, so all go to schoolbook; a dense one at 17 has 289
    for modulus in (None, 32):
        for order in range(1, 18):
            dense = [1 + i % 7 for i in range(order)]
            calls.clear()
            got = series._mul_lists(dense, dense, order, modulus)
            assert calls == ([order] if order <= 16 else []), order
            assert got == schoolbook(dense, dense, order, modulus)


def test_newton_round_trip_at_orders_off_powers_of_two():
    rng = random.Random(20001)
    for order in (3, 5, 1025, 5000, 20001):
        for modulus in (2, 256, 729):
            a = rand_series(rng, order, modulus, unit=True)
            assert a * a.invert() == TruncSeries.one(order, modulus)
        # over Z a random unit series has exponentially growing inverse
        # coefficients; an eta quotient's grow like exp(C sqrt(n))
        den = euler_factor(1, 2, order) * euler_factor(6, 1, order)
        for a in (den, rand_series(rng, min(order, 1025), None, unit=True)):
            assert a * a.invert() == TruncSeries.one(a.order)


# --- division: the sparse recurrence beside Newton inversion ---

_DIVISION_RINGS = (None, 2, 4, 8, 32, 243, 256, 729, 186624)


def _divisor_limit(order, modulus):
    """The most nonzero terms a denominator has on the recurrence path."""
    from pdotq import series

    if modulus is None:
        return series._SPARSE_DIVISOR_SCALE * isqrt(order)
    return series._SPARSE_DIVISOR_TERMS_RESIDUE


def _newton_quotient(num, den, order, modulus):
    """num/den as the full Newton inverse and one product."""
    from pdotq.series import _divide_newton, _mul_lists

    return _mul_lists(num, _divide_newton(None, den, order, modulus), order,
                      modulus)


def _random_unit(rng, modulus):
    if modulus is None:
        return rng.choice((1, -1))
    while True:
        c = rng.randrange(1, modulus)
        if gcd(c, modulus) == 1:
            return c


def _random_divisor(rng, order, modulus, nonzero, c0=None):
    """A unit constant term (or c0) and nonzero - 1 more terms at random
    indices below `order`."""
    den = [0] * order
    den[0] = _random_unit(rng, modulus) if c0 is None else c0
    for i in rng.sample(range(1, order), min(nonzero, order) - 1):
        den[i] = ((rng.randrange(-9, 10) or 1) if modulus is None
                  else rng.randrange(1, modulus))
    return den


def _random_numerator(rng, order, modulus):
    if modulus is None:
        return [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(order)]
    return [rng.randrange(modulus) for _ in range(order)]


def _crossover_orders(base, modulus):
    """The last order below 8000 at which base(order) is on the recurrence
    path and the next, or () if the path never changes there."""
    nonzero, sparse = 0, []
    for n, c in enumerate(base(8000, modulus).coeffs, 1):
        nonzero += c != 0
        sparse.append(nonzero <= _divisor_limit(n, modulus))
    for n in range(1, 8000):
        if sparse[n - 1] != sparse[n]:
            return n, n + 1
    return ()


def _division_cases(rng):
    """(num, den, order, modulus) with denominators on both sides of the
    dispatch limit: random support, and phi(-q), f1 and the dense f1^2 at
    the orders where their path changes."""
    from pdotq.series import phi_minus

    def f1(order, modulus):
        return euler_factor(1, 1, order, modulus)

    def f1_squared(order, modulus):
        return euler_factor(1, 2, order, modulus)

    for modulus in _DIVISION_RINGS:
        for order in (1, 2, 127, 128, 129, 300):
            limit = _divisor_limit(order, modulus)
            for nonzero in (1, 2, limit, limit + 1):
                yield (_random_numerator(rng, order, modulus),
                       _random_divisor(rng, order, modulus, nonzero),
                       order, modulus)
        # over Z, phi(-q) and f1 stay below 10 sqrt(order) nonzero terms,
        # and f1^2 passes it; mod 2 phi(-q) is one
        for base in (phi_minus, f1, f1_squared):
            for order in _crossover_orders(base, modulus):
                yield (_random_numerator(rng, order, modulus),
                       list(base(order, modulus).coeffs), order, modulus)
        order = rng.randrange(4900, 5100)
        num = _random_numerator(rng, order, modulus)
        for den in (phi_minus(order, modulus),
                    euler_factor(1, 2, order, modulus)):
            yield num, list(den.coeffs), order, modulus


def test_division_paths_agree_with_newton_and_a_product():
    from pdotq.series import _divide_list, _divide_sparse, _nonzero_count

    for num, den, order, modulus in _division_cases(random.Random(3535)):
        expected = _newton_quotient(num, den, order, modulus)
        assert _divide_list(num, den, order, modulus) == expected, (
            order, modulus)
        # the recurrence is right on a dense divisor and in every ring too,
        # only slower there than Newton
        sparse = _nonzero_count(den, order) <= _divisor_limit(order, None)
        if order <= 300 or sparse:
            assert _divide_sparse(num, den, order, modulus) == expected, (
                order, modulus)
    for modulus in _DIVISION_RINGS:
        assert list(_divide_list([], [], 0, modulus)) == []
        assert tuple(TruncSeries([], modulus).invert().coeffs) == ()


def _negative_exponents(rng):
    """A random map {d: r_d} with at least one negative exponent."""
    exponents = _random_exponents(rng, rng.randrange(1, 4))
    exponents[rng.randrange(1, 13)] = -rng.randrange(1, 4)
    return exponents


def test_division_of_eta_products_matches_sparse_euler_recurrence():
    from pdotq.series import _divide_list, _divide_sparse, eta_product

    rng = random.Random(901)
    for modulus in _DIVISION_RINGS:
        for order in (0, 1, 2, 127, 128, 129, 600):
            for _ in range(2):
                exponents = _negative_exponents(rng)
                expected = eta_recurrence(exponents, order, modulus)
                num = eta_product({d: r for d, r in exponents.items()
                                   if r > 0}, order, modulus).coeffs
                den = eta_product({d: -r for d, r in exponents.items()
                                   if r < 0}, order, modulus).coeffs
                divides = (_divide_list, _divide_sparse, _newton_quotient)
                for divide in divides if order else ():
                    assert list(divide(num, den, order, modulus)) == (
                        expected), (divide.__name__, exponents, order, modulus)
                assert list(eta_product(exponents, order, modulus).coeffs) == (
                    expected)
    for modulus in (None, 243):
        # the PDO_t quotient phi(-q^3) f12^2 / phi(-q), recurrence path
        order = rng.randrange(4900, 5100)
        exponents = {1: -2, 2: 1, 3: 2, 6: -1, 12: 2}
        assert list(eta_product(exponents, order, modulus).coeffs) == (
            eta_recurrence(exponents, order, modulus))


def test_division_with_a_short_numerator_and_a_negative_unit():
    from pdotq.series import _divide_list, _divide_sparse

    rng = random.Random(1729)
    for modulus in (None, 32, 243):
        c0 = -1 if modulus is None else modulus - 1
        for nonzero in (3, _divisor_limit(400, modulus) + 5):
            den = _random_divisor(rng, 400, modulus, nonzero, c0)
            for num in ((1,), _random_numerator(rng, 40, modulus)):
                padded = list(num) + [0] * (400 - len(num))
                expected = _newton_quotient(padded, den, 400, modulus)
                assert _divide_list(num, den, 400, modulus) == expected
                assert _divide_sparse(num, den, 400, modulus) == expected
            assert list(TruncSeries(den, modulus).invert().coeffs) == list(
                _newton_quotient([1], den, 400, modulus))


def _blocked_divisors(rng, order, modulus, block):
    """(name, den) pairs for the blocked recurrence: few distinct
    coefficients (phi(-q), psi, f1 and random support with two), all
    distinct (jacobi_cube and random), the random ones with terms at
    offsets `block` - 1 and `block` and past the order, each with a unit
    constant term other than 1."""
    def distinct(count):
        return rng.sample(range(2, 10 * count), count)

    dens = [("phi(-q)", list(phi_minus(order, modulus).coeffs)),
            ("psi", list(psi(order, modulus).coeffs)),
            ("f1", list(euler_factor(1, 1, order, modulus).coeffs)),
            ("jacobi_cube", list(jacobi_cube(order, modulus).coeffs))]
    for name, values in (("two coefficients", [3, -5]),
                         ("distinct", distinct(order))):
        den = [0] * (order + 40)
        for i in rng.sample(range(1, order + 40), min(order // 4, 90)):
            den[i] = rng.choice(values)
        den[block - 1] = den[block] = values[0]
        dens.append((name, den))
    for name, den in dens:
        den = [c if modulus is None else c % modulus for c in den]
        den[0] = -1 if modulus is None else 5
        yield name, den


def _shared_far_coefficient(den, order, block, group):
    """Whether `group` terms of den at offsets from `block` up to a block
    below the order share a coefficient, so that some block sums them."""
    counts = {}
    for c in den[block:order - block]:
        if c:
            counts[c] = counts.get(c, 0) + 1
    return max(counts.values(), default=0) >= group


def test_blocked_recurrence_matches_newton_and_the_product():
    from pdotq import series
    from pdotq.series import _divide_newton, _divide_sparse

    block = series._DIVISION_BLOCK
    rng = random.Random(32)
    for modulus in (None, 256, 186624):
        for order in (block - 5, 3 * block + 7, 1300):
            num = _random_numerator(rng, order, modulus)
            for name, den in _blocked_divisors(rng, order, modulus, block):
                want = list(_divide_newton(num, den, order, modulus))
                for head in (0, block - 1, block, block + 1, 2 * block + 3):
                    got = _divide_sparse(num, den, order, modulus,
                                         known=want[:head])
                    assert list(got) == want, (name, order, modulus, head)
                # den y == num mod q^order
                product = poly_mul(den[:order], want, order)
                if modulus is not None:
                    product = [c % modulus for c in product]
                assert product == num, (name, order, modulus)
                # at order 1300 the few-coefficient divisors are summed by
                # group, and those with all coefficients distinct are not
                grouped = _shared_far_coefficient(den, order, block,
                                                  series._DIVISION_GROUP)
                if order == 1300 and name != "jacobi_cube":
                    assert grouped == (name != "distinct"), (name, modulus)


def test_division_by_a_non_unit_constant_term_raises_on_both_paths():
    from pdotq.series import _divide_list

    rng = random.Random(2)
    for modulus, c0, message in (
            (None, 2, "constant term 2 is not a unit over the integers"),
            (None, 0, "constant term 0 is not a unit over the integers"),
            (8, 2, "constant term 2 is not invertible mod 8"),
            (243, 3, "constant term 3 is not invertible mod 243")):
        for nonzero in (2, _divisor_limit(300, modulus) + 1):
            den = _random_divisor(rng, 300, modulus, nonzero, c0)
            with pytest.raises(NotInvertibleError, match=f"^{message}$"):
                _divide_list([1, 2, 3], den, 300, modulus)
            with pytest.raises(NotInvertibleError, match=f"^{message}$"):
                TruncSeries(den, modulus).invert()


def test_division_dispatches_on_the_nonzero_count_of_the_divisor(monkeypatch):
    from pdotq import series
    from pdotq.partitions import PDO_T_3N_EXPONENTS, PDO_T_EXPONENTS

    calls = []

    def spy(name):
        original = getattr(series, name)

        def counted(*args):
            calls.append(name)
            return original(*args)
        return counted

    for name in ("_divide_sparse", "_divide_newton"):
        monkeypatch.setattr(series, name, spy(name))
    # phi(-q) has 60 nonzero terms below 3535: one recurrence pass over Z;
    # f1^2 has 139 below 250, under 10 isqrt(250) = 150, but 482 below
    # 1000, over 310
    for exponents, order in ((PDO_T_EXPONENTS, 3535), ({1: -2}, 250)):
        calls.clear()
        series.eta_product(exponents, order)
        assert calls == ["_divide_sparse"], (exponents, order)
    # f1^2 at 1000, f1^24 and phi(-q)^2 are dense: Newton division, which
    # calls itself once per halving of the order down to 1 for the half
    # inverse, and never the recurrence
    for exponents, order, modulus in (({1: -2}, 1000, None),
                                      ({1: -24}, 5000, None),
                                      (PDO_T_3N_EXPONENTS, 38340, 186624)):
        calls.clear()
        series.eta_product(exponents, order, modulus)
        assert calls == ["_divide_newton"] * (
            (order - 1).bit_length() + 1), (exponents, order, modulus)


def test_eta_product_continues_a_known_head_only_where_it_is_its_own(
        monkeypatch):
    from pdotq import series
    from pdotq.partitions import PDO_T_EXPONENTS

    def tampered(coeffs, n):
        """The first n coefficients, the last of them off by one."""
        head = list(coeffs[:n])
        head[-1] += 1
        return head

    # the PDO_t map divides by the sparse phi(-q): the recurrence starts
    # after the head, so any prefix gives the fresh expansion, and a wrong
    # head is taken as given
    for modulus in (None, 256):
        fresh = series.eta_product(PDO_T_EXPONENTS, 700, modulus)
        for n in (0, 1, 2, 17, 400, 699, 700):
            assert series.eta_product(PDO_T_EXPONENTS, 700, modulus,
                                      known=fresh.coeffs[:n]) == fresh
        # a head as long as the whole order is the whole result
        assert series.eta_product(PDO_T_EXPONENTS, 250, modulus,
                                  known=fresh.coeffs) == fresh.truncate(250)
        continued = series.eta_product(PDO_T_EXPONENTS, 700, modulus,
                                       known=tampered(fresh.coeffs, 400))
        assert list(continued.coeffs[:400]) == tampered(fresh.coeffs, 400)
        assert continued != fresh
    # where the head is not the quotient's own, it is ignored: with a
    # scalar, with steps that share a factor, and with a divisor dense
    # enough for Newton division (f1^5 over Z, and phi(-q) at order 3000
    # mod 256, whose 55 terms pass the residue limit of 32)
    inflated = {2 * d: r for d, r in PDO_T_EXPONENTS.items()}
    for exponents, order, modulus, scalar, newton in (
            (PDO_T_EXPONENTS, 700, None, 4, False),
            (PDO_T_EXPONENTS, 700, 256, 4, False),
            (inflated, 700, None, 1, False),
            ({1: -5}, 700, None, 1, True),
            (PDO_T_EXPONENTS, 3000, 256, 1, True)):
        fresh = series.eta_product(exponents, order, modulus, scalar)
        if newton:
            monkeypatch.setattr(series, "_divide_sparse", None)
        for n in (0, 1, 400, order):
            assert series.eta_product(exponents, order, modulus, scalar,
                                      known=fresh.coeffs[:n]) == fresh
            if n:
                assert series.eta_product(
                    exponents, order, modulus, scalar,
                    known=tampered(fresh.coeffs, n)) == fresh
        monkeypatch.undo()


def _dense_divisor(rng, order, modulus):
    """A denominator on the Newton path at orders above 3: dense and random
    below 130; at 1000 and 4097 four times the recurrence limit of random
    terms in a residue ring, and f1^2 or phi(-q)^2 over Z, whose
    quotients grow like exp(C sqrt(n)) rather than exponentially."""
    if order < 130:
        return _random_divisor(rng, order, modulus, order)
    if modulus is None:
        base = euler_factor(1, 2, order) if order < 2000 else (
            phi_minus(order) ** 2)
        return list(base.coeffs)
    return _random_divisor(rng, order, modulus,
                           4 * _divisor_limit(order, modulus))


def test_karp_markstein_division_matches_the_recurrence_and_newton():
    from pdotq.series import (
        _divide_list, _divide_newton, _divide_sparse, _nonzero_count,
    )

    rng = random.Random(4097)
    for modulus in (None, 2, 243, 186624):
        for order in (1, 2, 3, 127, 128, 129, 1000, 4097):
            den = _dense_divisor(rng, order, modulus)
            if order > 3:
                assert _nonzero_count(den, order) > _divisor_limit(
                    order, modulus), (order, modulus)
            short = _random_numerator(rng, max(1, order // 3), modulus)
            dense = _random_numerator(rng, order, modulus)
            # below order 4 every divisor is sparse enough for the
            # recurrence, so the Karp-Markstein step is called directly
            divide = _divide_list if order > 3 else _divide_newton
            # num None divides one: the half inverse's Newton step, with
            # y = x, against the same division by the numerator 1
            assert list(_divide_newton(None, den, order, modulus)) == list(
                _divide_newton((1,), den, order, modulus)), (order, modulus)
            for num in ((1,), short, dense):
                padded = list(num) + [0] * (order - len(num))
                expected = _divide_sparse(num, den, order, modulus)
                assert _newton_quotient(padded, den, order, modulus) == (
                    expected), (order, modulus, len(num))
                assert divide(num, den, order, modulus) == expected, (
                    order, modulus, len(num))


def _restricted_partition_divisor(order):
    """prod_{a=1}^{12} (1 - q^a) over Z: 53 nonzero terms, and an inverse
    (partitions into parts of at most 12) of about 100 bits at order
    19171, where a dense eta quotient's would pass 700."""
    den = [1] + [0] * (order - 1)
    for a in range(1, 13):
        den[a:] = [c - d for c, d in zip(den[a:], den)]
    return den


def test_karp_markstein_division_never_forms_a_full_length_product(
        monkeypatch):
    from pdotq import series

    calls = []
    original = series._mul_lists

    def windowed(a, b, order, modulus, lo=0, minuend=None):
        calls.append((len(b), order, lo))
        return original(a, b, order, modulus, lo, minuend)

    monkeypatch.setattr(series, "_mul_lists", windowed)
    rng = random.Random(38340)
    for modulus in (None, 243, 186624):
        for order in (2, 3, 129, 1000, 1025, 3001, 19171):
            if modulus is None and order > 4097:
                den = _restricted_partition_divisor(order)
            elif modulus is None or order < 130:
                den = _dense_divisor(rng, order, modulus)
            else:
                den = list((phi_minus(order, modulus) ** 2).coeffs)
            num = _random_numerator(rng, order, modulus)
            # the precisions are ceil(order / 2^k): each Newton step reads
            # a x from field `half` = len(x) = ceil(prec/2) up, and appends
            # prec - half new coefficients of x times the error
            calls.clear()
            inverse = series._divide_newton(None, den, order, modulus)
            assert len(calls) == 2 * (order - 1).bit_length(), (
                order, modulus)
            for (half, prec, lo), (_, tail, lo2) in zip(calls[::2],
                                                         calls[1::2]):
                assert lo == half == -(-prec // 2), (order, prec, lo)
                assert lo2 == 0 and tail == prec - half, (order, tail)
            assert calls[-2][1] == order
            # no product in the division yields more than half the order
            calls.clear()
            quotient = series._divide_newton(num, den, order, modulus)
            half = -(-order // 2)
            assert calls and all(out - lo <= half for _, out, lo in calls), (
                order, modulus, calls)
            one = [1] + [0] * (order - 1)
            assert list(original(den, inverse, order, modulus)) == one, (
                order, modulus)
            assert list(original(den, quotient, order, modulus)) == num, (
                order, modulus)


def test_operand_encoding_extends_cuts_and_restarts_exactly():
    from decimal import Decimal

    from pdotq.series import _encoded, _Operand

    rng = random.Random(515)
    # signed and residue-like coefficients, each written as an int or,
    # as fields too wide for int -> str are, through a Decimal
    for low, high, wide in ((-10 ** 6, 10 ** 6, False), (0, 10 ** 6, True),
                            (-1, 1, True), (0, 1, False)):
        coeffs = [rng.randrange(low, high + 1) for _ in range(60)]
        # heads that grow and shrink by a field or many, each at the width
        # of its operand; another width takes an operand of its own
        for w, heads in ((14, (10, 25, 24, 25, 3, 60)), (20, (60, 1, 2))):
            op = _Operand(coeffs, w)
            for n in heads:
                want = sum(c * 10 ** (i * w)
                           for i, c in enumerate(coeffs[:n]))
                assert _encoded(op, n, w, wide) == Decimal(want), (n, w)
                # a plain list is encoded afresh, to the same value
                assert _encoded(coeffs, n, w, wide) == Decimal(want)
            # the operand keeps its longest head; at another width it is
            # encoded afresh and what it keeps is left as it was
            assert op.head == max(heads) and op.coeffs == coeffs
            want = sum(c * 10 ** (i * (w + 1))
                       for i, c in enumerate(coeffs[:7]))
            assert _encoded(op, 7, w + 1, wide) == Decimal(want)
            assert op.head == max(heads)


def test_newton_division_encodes_each_coefficient_of_den_once(monkeypatch):
    from pdotq import series

    encodings = []
    original = series._decimal_operand

    def spy(coeffs, start, stop, w, wide):
        encodings.append((coeffs, start, stop, w))
        return original(coeffs, start, stop, w, wide)

    monkeypatch.setattr(series, "_decimal_operand", spy)
    rng = random.Random(46656)
    for order, modulus in ((1000, 243), (4097, 186624), (38340, 46656)):
        den = list((phi_minus(order, modulus) ** 2).coeffs)
        num = _random_numerator(rng, order, modulus)
        encodings.clear()
        quotient = series._divide_list(num, den, order, modulus)
        # every product of the division takes one field width, and den's
        # encoded heads tile [0, order): each coefficient written once
        assert len({w for *_, w in encodings}) == 1, (order, modulus)
        spans = sorted((start, stop) for coeffs, start, stop, _ in encodings
                       if coeffs is den)
        assert spans[0][0] == 0 and spans[-1][1] == order, (order, spans)
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:])), spans
        assert list(series._mul_lists(den, quotient, order, modulus)) == num


def test_newton_division_over_z_keeps_no_encoding(monkeypatch):
    from pdotq import series
    from pdotq.partitions import PD_EXPONENTS, PDO_EXPONENTS
    from pdotq.series import eta_product

    operands, starts = [], []
    encoded, decimal_operand = series._encoded, series._decimal_operand

    def spy_encoded(a, n, w, wide):
        if isinstance(a, series._Operand):
            operands.append(a)
        return encoded(a, n, w, wide)

    def spy_operand(coeffs, start, stop, w, wide):
        starts.append(start)
        return decimal_operand(coeffs, start, stop, w, wide)

    monkeypatch.setattr(series, "_encoded", spy_encoded)
    monkeypatch.setattr(series, "_decimal_operand", spy_operand)
    for exponents in (PD_EXPONENTS, PDO_EXPONENTS):
        operands.clear()
        starts.clear()
        # the PD and PDO quotients divide by Newton over Z at this order
        got = eta_product(exponents, 3501)
        # den and x enter their products as operands of width 0, none; no
        # encoding is kept or extended, and each product encodes afresh
        assert operands and all(op.width == 0 and op.head == 0
                                and op.value is None for op in operands)
        assert starts and set(starts) == {0}
        assert list(got.coeffs) == eta_recurrence(exponents, 3501, None)


# --- binomial exponent reduction modulo a prime power ---

# (M, p) for every prime power tried; exponents go up to +-3M
_PRIME_POWERS = ((2, 2), (4, 2), (8, 2), (32, 2), (256, 2),
                 (3, 3), (9, 3), (243, 3), (729, 3), (25, 5))


def _wide_exponents(rng, modulus, count):
    steps = rng.sample(range(1, 13), count)
    return {d: rng.randrange(-3 * modulus, 3 * modulus + 1) for d in steps}


def test_binomial_reduction_matches_an_unreduced_ring_and_the_recurrence():
    from pdotq.series import eta_product

    rng = random.Random(7243)
    for modulus, p in _PRIME_POWERS:
        # a ring M q with q another prime is composite, so nothing in it
        # is reduced; its expansion reduced mod M is the unreduced one
        wide = modulus * (3 if p == 2 else 2)
        for order in (0, 1, 2, 129, 700):
            exponents = _wide_exponents(rng, modulus, rng.randrange(1, 4))
            got = eta_product(exponents, order, modulus)
            assert got.modulus == modulus
            assert got == eta_product(exponents, order, wide).reduce_mod(
                modulus), (exponents, order, modulus)
        # the recurrence takes one pass per unit of |r|, so it runs short
        order = 100 if modulus < 243 else 30
        for _ in range(3):
            exponents = _wide_exponents(rng, modulus, 2)
            assert list(eta_product(exponents, order, modulus).coeffs) == (
                eta_recurrence(exponents, order, modulus)), (
                exponents, modulus)


def test_binomial_reduction_leaves_composite_moduli_and_integers_alone():
    from pdotq.series import binomial_reduce

    rng = random.Random(186624)
    for modulus in (None, 6, 12, 186624):
        for _ in range(40):
            exponents = _wide_exponents(rng, modulus or 1000, 3)
            exponents[rng.randrange(1, 13)] = 0
            kept = {d: r for d, r in exponents.items() if r}
            assert binomial_reduce(exponents, modulus) == kept


def test_binomial_reduction_frozen_maps():
    from pdotq.series import binomial_reduce

    # the Sturm quotients mod 243 become the paper's PDO_t(4n) and
    # PDO_t(8n) quotients; PDO_t's own map is f24 mod 2
    assert binomial_reduce({1: 237, 2: 3, 3: -79, 6: 3}, 243) == {
        1: -6, 2: 3, 3: 2, 6: 3}
    assert binomial_reduce({1: 230, 2: 8, 3: -74}, 243) == {
        1: -13, 2: 8, 3: 7}
    assert binomial_reduce({1: -2, 2: 1, 3: 2, 6: -1, 12: 2}, 2) == {24: 1}
    # carries chain upward: f1^8 = f2^4 = f4^2 = f8 mod 2
    assert binomial_reduce({1: 8}, 2) == {8: 1}
    assert binomial_reduce({1: 9, 3: -3}, 9) == {}
    assert binomial_reduce({1: 26, 5: 1}, 25) == {1: 1, 5: 6}
    # with no negative exponent each r_d only loses whole multiples of p^a
    assert binomial_reduce({1: 7}, 8) == {1: 7}
    assert binomial_reduce({1: 15}, 16) == {1: 15}
    assert binomial_reduce({1: 23}, 8) == {1: 7, 4: 4}
    assert binomial_reduce({1: 23, 3: -1}, 8) == {1: -1, 2: 4, 3: -1, 4: 4}


def test_binomial_reduction_divides_a_modulus_only_to_a_bound():
    from pdotq.series import binomial_reduce, eta_product

    # primes up to 2^32 are told by trial division up to 2^16 ...
    assert binomial_reduce({1: 65538}, 65537) == {1: 1, 65537: 1}
    assert binomial_reduce({1: -4294967290}, 4294967291) == {
        1: 1, 4294967291: -1}
    # ... past that, a modulus with no prime factor up to 2^16, prime or a
    # prime's square, is left unreduced, where it once took some 10^9
    # divisions to factor (a prime near 10^18 never ended)
    big = 10 ** 18 + 3
    assert binomial_reduce({1: 24 * big, 2: -1}, big) == {1: 24 * big, 2: -1}
    assert binomial_reduce({1: 65537 ** 3}, 65537 ** 2) == {1: 65537 ** 3}
    assert binomial_reduce({1: 2 * 3 ** 40}, 3 ** 40) == {3: 2 * 3 ** 39}
    # (1 - q - q^2)^R == 1 - R q + (binom(R, 2) - R) q^2 mod q^3
    r = 24 * big
    assert tuple(eta_product({1: r}, 3, big).coeffs) == tuple(
        c % big for c in (1, -r, r * (r - 1) // 2 - r))


def test_binomial_reduction_keeps_ties_at_half_the_modulus():
    from pdotq.series import binomial_reduce

    for modulus in (2, 4, 8, 256):
        half = modulus // 2
        for r in (half, -half):
            assert binomial_reduce({1: r, 3: 1}, modulus) == {1: r, 3: 1}
        # 3M/2 is as near M as 2M: the smaller carry is taken
        assert binomial_reduce({1: 3 * half}, modulus) == {1: half, 2: half}
        assert binomial_reduce({1: -3 * half}, modulus) == {
            1: -half, 2: -half}
    assert binomial_reduce({1: -2, 2: 1, 3: 2, 6: -1, 12: 2}, 4) == {
        1: -2, 2: 1, 3: 2, 6: -1, 12: 2}


def test_binomial_reduction_is_idempotent_and_bounded():
    from pdotq.series import binomial_reduce

    rng = random.Random(2187)
    for modulus, _ in _PRIME_POWERS:
        for _ in range(60):
            # steps 1, 2, 4, ... and 1, 3, 9, ... make carries chain
            exponents = _wide_exponents(rng, modulus, rng.randrange(1, 6))
            once = binomial_reduce(exponents, modulus)
            assert binomial_reduce(once, modulus) == once, (exponents, modulus)
            if min(exponents.values()) < 0:
                assert all(0 < 2 * abs(r) <= modulus for r in once.values())
            else:
                assert all(0 < r < modulus for r in once.values())
    assert binomial_reduce({1: 5, 2: 1}, 2) == {1: 1, 2: 1, 4: 1}
    assert binomial_reduce({1: 7, 3: 2}, 3) == {1: 1, 3: 1, 9: 1}


def test_binomial_reduction_of_phi_mod_2_is_one(monkeypatch):
    from pdotq import series

    def forbidden(*args):
        raise AssertionError("phi(-q) == 1 mod 2 has no factor to build")

    monkeypatch.setattr(series, "_theta", forbidden)
    assert series.binomial_reduce({1: 2, 2: -1}, 2) == {}
    for order in (0, 1, 50):
        assert series.eta_product({1: 2, 2: -1}, order, 2) == (
            TruncSeries.one(order, 2))
