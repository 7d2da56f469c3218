"""Acceptance gate: one test per criterion, runnable with pytest -v for a
single pass/fail line each.

Criteria with stated runtime limits assert them with a monotonic clock.
All comparisons are exact; there is no tolerance anywhere.
"""

import random
from fractions import Fraction
from math import floor, gcd
from time import monotonic

from pdotq.modforms import (
    congruent_upto,
    cusp_order,
    modularity_check,
    q_expansion,
    u_operator,
    weight,
)
from pdotq.partitions import designated_counts, pdo_t, pdo_t_series
from pdotq.radu import (
    AuxExponents,
    RaduInstance,
    delta_star_check,
    nu_bound,
    p_set,
    radu_verify,
)
from pdotq.series import TruncSeries
from pdotq.verify import (
    PDO_T_EXPONENTS,
    dissection_suite,
    f_product,
    family,
    genfun_congruences,
    master_series,
    nonresidue_prime_family,
    powers_of_two_suite,
    sturm_suite,
)


def test_criterion_1_oracle_equivalence():
    # the combinatorial count against the generating function, 400
    # coefficients
    start = monotonic()
    assert pdo_t(4) == 6
    series = pdo_t_series(401)
    _, counted = designated_counts(400, odd_only=True)
    for n in range(1, 401):
        assert series.coeffs[n] == counted[n], n
    assert monotonic() - start < 10


# (m, t, r'_1, floor(nu), depth, u); floor(nu) is the exact value of the
# bound formula.  For (6, 5) the bound is 139/24 so the floor is 5; the
# row is still checked one deeper, to depth 6.
TABLE_ROWS = [
    (6, 2, 5, 6, 6, 4), (6, 5, 5, 5, 6, 8),
    (12, 2, 10, 11, 11, 4), (12, 5, 10, 11, 11, 8),
    (12, 8, 10, 10, 10, 4), (12, 11, 10, 10, 10, 16),
    (24, 5, 20, 20, 20, 8), (24, 11, 20, 20, 20, 16),
    (24, 17, 20, 20, 20, 8), (24, 23, 20, 20, 20, 32),
    (48, 11, 40, 40, 40, 16), (48, 23, 40, 39, 39, 32),
    (48, 35, 40, 39, 39, 16), (48, 47, 40, 39, 39, 64),
    (96, 23, 80, 78, 78, 32), (96, 47, 80, 78, 78, 64),
    (96, 71, 80, 77, 77, 32), (96, 95, 80, 77, 77, 128),
    (192, 47, 160, 155, 155, 64), (192, 95, 160, 154, 154, 128),
    (192, 143, 160, 154, 154, 64), (192, 191, 160, 154, 154, 256),
]


def test_criterion_2_certificate_table_reproduction():
    start = monotonic()
    prepared = []
    top = 0
    for m, t, rp1, floor_nu, depth, u in TABLE_ROWS:
        inst = RaduInstance(m=m, M=12, level=12,
                            r=dict(PDO_T_EXPONENTS), t=t)
        aux = AuxExponents(12, {1: rp1})

        conditions = delta_star_check(inst)
        assert all(conditions.values()), (m, t, conditions)
        assert p_set(inst) == [t], (m, t)
        nu = nu_bound(inst, aux)
        assert floor(nu) == floor_nu, (m, t, nu)

        top = max(top, m * depth + t + 1)
        prepared.append((inst, aux, u, depth))

    shared = master_series(top + 1, 256).shift(-1).coeffs
    for inst, aux, u, depth in prepared:
        cert = radu_verify(
            inst, aux, u, min_depth=depth,
            progression=lambda offsets, n, m=inst.m: [
                shared[t:t + m * n:m] for t in offsets])
        assert cert.verdict, (inst.m, inst.t, cert.failure)
        assert len(cert.checked) == depth + 1
    assert monotonic() - start < 300


def test_criterion_3_sturm_closures():
    start = monotonic()
    report = sturm_suite()
    assert report.passed, report.to_text()
    names = [c.name for c in report.checks]
    assert "U(3)^2 of level-18 quotient == companion" in names
    assert "U(3)^3 of level-36 quotient == companion" in names

    # the two closed statements, asserted directly on the coefficients
    lhs = master_series(8 * 9 * 246 + 1, 243).dissect(72, 0).truncate(247)
    rhs = f_product({1: 2, 2: 2, 3: 2, 6: 2}, 247, 243,
                    scalar=16 * 81, shift=1)
    assert congruent_upto(lhs, rhs, 243, 246).ok

    lhs = master_series(4 * 27 * 492 + 1, 243).dissect(108, 0).truncate(493)
    rhs = f_product({6: 4}, 493, 243, scalar=81, shift=1)
    assert congruent_upto(lhs, rhs, 243, 492).ok
    assert monotonic() - start < 120


def test_criterion_4_dissection_identities():
    report = dissection_suite(order=500, binom_order=300)
    assert report.passed, report.to_text()
    exact = [c for c in report.checks if "exact identity" in c.detail]
    assert len(exact) == 7
    binomial = [c for c in report.checks if "binomial" in c.detail]
    assert len(binomial) == 6


def test_criterion_5_prime_families():
    # p = 11 first: its expansion is the longest and is then reused
    big = nonresidue_prime_family(p=11, n_max=3, ell_max=2)
    assert big.passed, big.to_text()
    small = nonresidue_prime_family(p=5, n_max=20, ell_max=2)
    assert small.passed, small.to_text()
    for report in (big, small):
        scaled = [c for c in report.checks
                  if "3^1" in c.name or "3^2" in c.name]
        assert len(scaled) == 4


def test_criterion_6_power_of_two_progressions():
    report = powers_of_two_suite(order=20000, conj_k_max=6)
    assert report.passed, report.to_text()
    proved = [c for c in report.checks if "proved" in c.detail]
    evidence = [c for c in report.checks
                if "finite-depth evidence" in c.detail]
    assert len(proved) == 22
    assert len(evidence) == 28


def test_criterion_7_generating_function_constants():
    for k in range(4):
        report = genfun_congruences(k=k, bound=100)
        assert report.passed, (k, report.to_text())
        modulus = 3 ** (k + 3)
        alpha = 2 * k + 3 if k % 2 == 1 else 0
        master = master_series(12 * 3 ** k * 100 + 1, modulus)
        first8 = master.dissect(8 * 3 ** k, 0).coeffs[1]
        first12 = master.dissect(12 * 3 ** k, 0).coeffs[1]
        assert first8 == 2 ** (k + 2) * 3 ** (k + 2) % modulus
        assert first12 == 2 ** alpha * 3 ** (k + 2) % modulus


def test_criterion_8_modular_form_structure():
    assert weight(family(18, 2).quotients()[0]) == 82
    for k in range(4):
        for eq in family(18, k).quotients() + family(36, k).quotients():
            verdict = modularity_check(eq)
            assert verdict.ok, (k, eq, verdict)
            assert verdict.integral_weight
            assert verdict.delta_sum_ok and verdict.conjugate_sum_ok
            assert all(v >= 0 for v in verdict.cusp_orders.values())
            expansion = q_expansion(eq, 4)
            assert expansion.valuation() == 1
            assert cusp_order(eq, eq.level) == Fraction(1)


def test_criterion_9_randomized_property_suites():
    rng = random.Random(60601)

    def rand_series(order, modulus):
        top = 8 if modulus is None else modulus
        return TruncSeries([rng.randrange(-top, top) for _ in range(order)],
                           modulus)

    # ring laws
    for _ in range(1000):
        modulus = rng.choice([None, 2, 3, 8, 9, 32, 243])
        order = rng.randrange(1, 12)
        a = rand_series(order, modulus)
        b = rand_series(order, modulus)
        c = rand_series(order, modulus)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()

    # inversion round trip on unit-constant series
    for _ in range(1000):
        modulus = rng.choice([None, 8, 27, 125, 256])
        order = rng.randrange(1, 14)
        coeffs = [rng.randrange(-6, 7) for _ in range(order)]
        if modulus is None:
            coeffs[0] = rng.choice([1, -1])
        else:
            coeffs[0] = rng.choice(
                [c for c in range(1, modulus) if gcd(c, modulus) == 1])
        a = TruncSeries(coeffs, modulus)
        assert a * a.invert() == TruncSeries.one(order, modulus)

    # dissection against inflation
    for _ in range(1000):
        modulus = rng.choice([None, 4, 9, 64])
        order = rng.randrange(1, 30)
        m = rng.randrange(1, 5)
        t = rng.randrange(m)
        a = rand_series(order, modulus)
        lifted = a.inflate(m).shift(t)
        assert lifted.dissect(m, t) == a
        for other in range(m):
            if other != t:
                assert lifted.dissect(m, other).is_zero()

    # U(d) composition
    for _ in range(1000):
        modulus = rng.choice([None, 8, 81])
        order = rng.randrange(1, 60)
        a = rng.randrange(1, 5)
        b = rng.randrange(1, 5)
        s = rand_series(order, modulus)
        assert u_operator(u_operator(s, a), b) == u_operator(s, a * b)
