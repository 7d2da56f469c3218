"""Tests for the congruence verification certificates.

Frozen rationals below were recomputed by hand from the defining
formulas (orbit map, cusp order bounds, verification bound) for small
instances before being asserted here.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from pdotq.modforms import EtaQuotient
from pdotq.partitions import pdo_t
from pdotq.radu import (
    Certificate,
    CriterionNotApplicable,
    DeltaStarFailure,
    LevelNotSquarefree,
    NonnegativityFailure,
    RaduInstance,
    c_r_series,
    delta_star_check,
    divisors,
    nu_bound,
    p_mr,
    p_set,
    p_star,
    radu_verify,
    sl2_index,
    squares_mod,
)
from pdotq.series import TruncSeries, eta_product
from pdotq.verify import CERTIFICATE_ROWS

# f_2 f_3^2 f_12^2 / (f_1^2 f_6): coefficient n is pdo_t(n + 1)
PDO_T_R = {1: -2, 2: 1, 3: 2, 6: -1, 12: 2}

# every (m, t) pair certified in the power-of-two family, with its modulus
TABLE_ROWS = [
    (6, 2, 4), (6, 5, 8),
    (12, 2, 4), (12, 5, 8), (12, 8, 4), (12, 11, 16),
    (24, 5, 8), (24, 11, 16), (24, 17, 8), (24, 23, 32),
    (48, 11, 16), (48, 23, 32), (48, 35, 16), (48, 47, 64),
    (96, 23, 32), (96, 47, 64), (96, 71, 32), (96, 95, 128),
    (192, 47, 64), (192, 95, 128), (192, 143, 64), (192, 191, 256),
]


def pdo_t_instance(m, t):
    return RaduInstance(m=m, M=12, level=12, r=dict(PDO_T_R), t=t)


def test_squares_mod_frozen_tables():
    assert squares_mod(1) == [0]
    assert squares_mod(5) == [1, 4]
    assert squares_mod(8) == [1]
    assert squares_mod(24) == [1]
    assert squares_mod(144) == [1, 25, 49, 73, 97, 121]
    with pytest.raises(ValueError):
        squares_mod(0)


def test_squares_of_units_mod_24m_are_one_mod_24():
    rng = random.Random(4021)
    for _ in range(100):
        m = rng.randrange(1, 60)
        for s in squares_mod(24 * m):
            assert s % 24 == 1


def test_p_set_fixed_points():
    # each certified progression is alone in its orbit
    for m, t, _ in TABLE_ROWS:
        assert p_set(pdo_t_instance(m, t)) == [t]


def test_p_set_orbit_and_closure():
    # m = 5 gives a genuine two-element orbit: s runs over {1, 49} mod 120
    # and t -> s(t+1) - 1 mod 5 swaps 0 and 3
    inst = RaduInstance(m=5, M=12, level=12, r=dict(PDO_T_R), t=0)
    orbit = p_set(inst)
    assert orbit == [0, 3]
    for t_prime in orbit:
        other = RaduInstance(m=5, M=12, level=12, r=dict(PDO_T_R), t=t_prime)
        assert p_set(other) == orbit


def test_instance_validation_and_invariants():
    inst = pdo_t_instance(6, 2)
    assert inst.kappa == 1
    assert inst.exponent_sum == 2
    assert inst.weighted_exponent_sum == 24
    assert inst.two_adic_split() == (6, 3)
    # zero exponents are dropped, divisors sorted
    messy = RaduInstance(m=6, M=12, level=12,
                         r={12: 2, 4: 0, 1: -2, 2: 1, 3: 2, 6: -1}, t=2)
    assert messy.r == PDO_T_R
    with pytest.raises(ValueError):
        RaduInstance(m=6, M=12, level=12, r=dict(PDO_T_R), t=6)
    with pytest.raises(ValueError):
        RaduInstance(m=6, M=12, level=12, r={5: 1}, t=0)
    with pytest.raises(ValueError):
        EtaQuotient(level=12, exponents={7: 1})


def test_kappa_values():
    assert RaduInstance(m=5, M=12, level=12, r=dict(PDO_T_R), t=0).kappa == 24
    assert RaduInstance(m=4, M=12, level=12, r=dict(PDO_T_R), t=0).kappa == 3
    for m, t, _ in TABLE_ROWS:
        assert pdo_t_instance(m, t).kappa == 1


def test_delta_star_holds_for_all_table_rows():
    for m, t, _ in TABLE_ROWS:
        conditions = delta_star_check(pdo_t_instance(m, t))
        assert all(conditions.values()), (m, t, conditions)


def test_delta_star_failure_identifies_condition():
    inst = pdo_t_instance(24, 0)
    conditions = delta_star_check(inst)
    assert conditions["progression_gcd_divides_level"] is False
    assert sum(1 for ok in conditions.values() if not ok) == 1
    with pytest.raises(DeltaStarFailure) as exc:
        radu_verify(inst, EtaQuotient(12, {1: 20}), u=8)
    assert exc.value.conditions == conditions
    assert isinstance(exc.value, CriterionNotApplicable)


def test_p_mr_frozen_values():
    inst = pdo_t_instance(6, 2)
    assert p_mr(inst, 1) == (Fraction(-5, 24), 5)
    assert p_mr(inst, 2) == (Fraction(1, 6), 0)
    assert p_mr(inst, 3) == (Fraction(1, 24), 0)
    for delta in (4, 6, 12):
        assert p_mr(inst, delta) == (Fraction(1, 6), 0)
    big = pdo_t_instance(192, 191)
    assert p_mr(big, 1) == (Fraction(-20, 3), 191)
    for delta in (2, 3, 4, 6, 12):
        assert p_mr(big, delta) == (Fraction(1, 192), 0)


def p_mr_reference(inst, delta):
    """The defining minimum of p_mr, summed term by term in Fractions;
    the first lambda attaining it wins."""
    best = None
    for lam in range(inst.m):
        total = Fraction(0)
        for d, v in inst.r.items():
            g = math.gcd(d * (1 + inst.kappa * lam * delta), inst.m * delta)
            total += Fraction(v * g * g, d * inst.m)
        total /= 24
        if best is None or total < best[0]:
            best = (total, lam)
    return best


def random_admissible_instances(rng, count):
    """Admissible instances at levels 6..30 with steps m built from the
    primes of the level and random exponents over the level's divisors."""
    found = []
    while len(found) < count:
        level = rng.choice((6, 10, 12, 14, 15, 18, 20, 30))
        primes = [p for p in (2, 3, 5, 7) if level % p == 0]
        m = 1
        for _ in range(rng.randrange(1, 5)):
            m *= rng.choice(primes)
        r = {d: rng.randrange(-6, 7) for d in divisors(level)
             if rng.random() < 0.6}
        inst = RaduInstance(m=m, M=level, level=level, r=r,
                            t=rng.randrange(m))
        if inst.r and all(delta_star_check(inst).values()):
            found.append(inst)
    return found


def test_p_mr_matches_fraction_reference_on_random_admissible_instances():
    for inst in random_admissible_instances(random.Random(5), 60):
        for delta in divisors(inst.level):
            assert p_mr(inst, delta) == p_mr_reference(inst, delta), (
                inst, delta)


def test_p_star_values():
    aux = EtaQuotient(12, {1: 5})
    for delta in divisors(12):
        assert p_star(aux, delta) == Fraction(5, 24)
    assert p_star(EtaQuotient(12, {1: 160}), 12) == Fraction(20, 3)
    assert p_star(EtaQuotient(12, {}), 3) == 0
    # gcd actually matters once larger divisors carry weight
    assert p_star(EtaQuotient(12, {1: 2, 6: 1}), 6) == Fraction(1, 3)
    # p_star rescales modforms.cusp_order; Radu's sum, written out here,
    # must come out of it at every representative
    rng = random.Random(23)
    for level in (1, 2, 4, 6, 12, 18, 36, 60, 132):
        for _ in range(20):
            aux = EtaQuotient(level, {d: rng.randint(-50, 50)
                                      for d in divisors(level)})
            for delta in divisors(level):
                radu = sum(Fraction(v * math.gcd(d, delta) ** 2, d)
                           for d, v in aux.exponents.items()) / 24
                assert p_star(aux, delta) == radu, (aux, delta)


def test_sl2_index():
    assert sl2_index(1) == 1
    assert sl2_index(6) == 12
    assert sl2_index(12) == 24
    assert sl2_index(36) == 72


def test_nu_bound_anchors():
    aux5 = EtaQuotient(12, {1: 5})
    assert nu_bound(pdo_t_instance(6, 2), aux5) == Fraction(151, 24)
    assert nu_bound(pdo_t_instance(6, 5), aux5) == Fraction(139, 24)
    aux10 = EtaQuotient(12, {1: 10})
    assert nu_bound(pdo_t_instance(12, 11), aux10) == Fraction(127, 12)
    aux160 = EtaQuotient(12, {1: 160})
    assert nu_bound(pdo_t_instance(192, 191), aux160) == Fraction(463, 3)


def test_c_r_series_mod_2_is_f24():
    # f1^-2 f2 = phi(-q)^-1 == 1, f3^2 f6^-1 == 1 and f12^2 == f24 mod 2
    inst = pdo_t_instance(6, 2)
    for order in (0, 1, 24, 25, 3000):
        got = c_r_series(inst, order, 2)
        assert got == eta_product({24: 1}, order, 2)
        assert got == c_r_series(inst, order).reduce_mod(2)


def test_c_r_series_counts_tagged_partitions():
    series = c_r_series(pdo_t_instance(6, 2), 12)
    assert list(series.coeffs[:9]) == [1, 2, 4, 6, 10, 16, 24, 36, 52]
    assert all(series.coeffs[n] == pdo_t(n + 1) for n in range(12))
    reduced = c_r_series(pdo_t_instance(6, 2), 12, 8)
    assert list(reduced.coeffs) == [c % 8 for c in series.coeffs]


def test_radu_verify_positive_certificate():
    inst = pdo_t_instance(6, 2)
    cert = radu_verify(inst, EtaQuotient(12, {1: 5}), u=4)
    assert cert.verdict is True
    assert cert.failure is None
    assert cert.p_set == [2]
    assert cert.nu == Fraction(151, 24)
    assert cert.floor_nu == 6
    assert cert.checked == [(2, n) for n in range(7)]
    assert all(cert.delta_star.values())
    by_delta = {row["delta"]: row for row in cert.nonneg}
    assert by_delta[1]["total"] == "0/1"
    assert by_delta[1]["lambda"] == 5
    assert by_delta[3]["total"] == "1/4"


def test_radu_verify_medium_row():
    cert = radu_verify(pdo_t_instance(12, 11), EtaQuotient(12, {1: 10}), u=16)
    assert cert.verdict is True
    assert cert.floor_nu == 10
    assert cert.checked[-1] == (11, 10)


def test_radu_verify_detects_false_congruence():
    # mod 8 fails immediately: the coefficient at index 2 is 4
    cert = radu_verify(pdo_t_instance(6, 2), EtaQuotient(12, {1: 5}), u=8)
    assert cert.verdict is False
    assert cert.failure == {"t": 2, "n": 0, "index": 2, "residue": 4}
    assert cert.checked == []


def test_nonnegativity_failure():
    with pytest.raises(NonnegativityFailure) as exc:
        radu_verify(pdo_t_instance(6, 2), EtaQuotient(12, {}), u=4)
    assert exc.value.delta == 1
    assert exc.value.value == Fraction(-5, 24)


def test_two_adic_split_from_valuations():
    # against prod delta^|r_delta| itself, with its factors of 2 stripped
    rng = random.Random(8)
    for _ in range(200):
        big_m = rng.choice((12, 24, 40, 48))
        steps = [d for d in range(1, big_m + 1) if big_m % d == 0]
        r = {d: rng.randrange(-30, 31) for d in rng.sample(steps, 3)}
        prod = math.prod(d ** abs(v) for d, v in r.items())
        s = (prod & -prod).bit_length() - 1
        inst = RaduInstance(m=6, M=big_m, level=12, r=r, t=2)
        assert inst.two_adic_split() == (s, (prod >> s) % 8), r
    # exponents of 10^7 and more: s = 10^7 + 10^7 + 2 * 2 10^7, and j is
    # 3^(5 10^7) = 1 mod 8
    huge = RaduInstance(m=6, M=12, level=12, t=2, r={
        1: -20000000, 2: 10000000, 3: 20000000, 6: -10000000, 12: 20000000})
    assert huge.two_adic_split() == (60000000, 1)


def test_level_not_squarefree():
    inst = RaduInstance(m=3, M=9, level=9, r={1: 1}, t=0)
    with pytest.raises(LevelNotSquarefree):
        radu_verify(inst, EtaQuotient(9, {}), u=2)
    # 12 = 4 * 3 is fine because 6 is squarefree; 8 is not
    bad = RaduInstance(m=2, M=8, level=8, r={1: 1}, t=0)
    with pytest.raises(LevelNotSquarefree):
        radu_verify(bad, EtaQuotient(8, {}), u=2)


def test_radu_verify_argument_errors():
    inst = pdo_t_instance(6, 2)
    with pytest.raises(ValueError):
        radu_verify(inst, EtaQuotient(6, {1: 5}), u=4)
    with pytest.raises(ValueError):
        radu_verify(inst, EtaQuotient(12, {1: 5}), u=1)


def sliced(series, m):
    """The progression c(m n + t') read from a c_r series."""
    coeffs = series.coeffs
    return lambda offsets, n: [coeffs[t:t + m * n:m] for t in offsets]


def test_series_reuse_matches_fresh_computation():
    inst = pdo_t_instance(6, 2)
    aux = EtaQuotient(12, {1: 5})
    fresh = radu_verify(inst, aux, u=4)
    shared = c_r_series(inst, 64, 8)
    reused = radu_verify(inst, aux, u=4, progression=sliced(shared, 6))
    assert fresh == reused


def test_a_short_progression_is_never_read_as_clean():
    # floor(nu) = 6 asks for c(6 n + 2), n <= 6, to index 38; a series
    # to order 30 holds only n <= 4, all 0 mod 4
    short = sliced(eta_product(PDO_T_R, 30, 4), 6)
    with pytest.raises(IndexError):
        radu_verify(pdo_t_instance(6, 2), EtaQuotient(12, {1: 5}), u=4,
                    progression=short)
    # nor is a source that leaves out an orbit residue
    inst, aux = PAST_HEAD
    zero = sliced(TruncSeries([0] * 214, 2), 5)
    with pytest.raises(ValueError):
        radu_verify(inst, aux, 2,
                    progression=lambda offsets, n: zero(offsets[:1], n))


def test_min_depth_extends_checking():
    inst = pdo_t_instance(6, 2)
    cert = radu_verify(inst, EtaQuotient(12, {1: 5}), u=4, min_depth=20)
    assert cert.floor_nu == 6
    assert cert.checked == [(2, n) for n in range(21)]
    assert cert.verdict is True


def test_certificate_json_roundtrip():
    cert = radu_verify(pdo_t_instance(6, 2), EtaQuotient(12, {1: 5}), u=4)
    data = json.loads(cert.to_json())
    assert data == cert.to_dict()
    assert data["nu"] == "151/24"
    assert data["floor_nu"] == 6
    assert data["verdict"] is True
    assert data["r"] == {"1": -2, "2": 1, "3": 2, "6": -1, "12": 2}
    assert data["checked"][0] == [2, 0]
    failing = radu_verify(pdo_t_instance(6, 2), EtaQuotient(12, {1: 5}), u=8)
    assert json.loads(failing.to_json())["failure"]["residue"] == 4


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


# --- the fresh expansion: a head first, the full order only if needed ---

# orbit {2, 3}; c(5n + 2) is 0 mod 2 for n <= 4 and 1 at n = 5, past the
# head of n <= 2
PAST_HEAD = (RaduInstance(m=5, M=20, level=20,
                          r={1: -1, 2: -2, 5: 1, 10: 5, 20: 3}, t=3),
             EtaQuotient(20, {1: 24}))


def full_expansion_certificate(inst, aux, u, min_depth=0):
    """The certificate from a c_r expansion made up front to the whole
    order the bound needs, which bypasses the head expansion."""
    depth = max(math.floor(nu_bound(inst, aux)), min_depth)
    order = inst.m * depth + max(p_set(inst)) + 1
    return radu_verify(inst, aux, u, min_depth=min_depth,
                       progression=sliced(eta_product(inst.r, order, u),
                                          inst.m))


def test_fresh_certificates_match_a_full_expansion_on_the_table():
    verdicts = Counter()
    for m, t, rp1, depth, u in CERTIFICATE_ROWS:
        inst = pdo_t_instance(m, t)
        aux = EtaQuotient(12, {1: rp1})
        for modulus in (u, 2 * u):
            fresh = radu_verify(inst, aux, modulus, min_depth=depth)
            assert fresh.to_dict() == full_expansion_certificate(
                inst, aux, modulus, depth).to_dict(), (m, t, modulus)
            verdicts[fresh.verdict] += 1
    # every row holds at its u, and 15 of them also at 2u
    assert verdicts == {True: 37, False: 7}


def test_fresh_certificates_match_a_full_expansion_on_a_seeded_grid():
    rng = random.Random(418)
    verdicts = Counter()
    while sum(verdicts.values()) < 40:
        m = rng.choice((6, 12, 24, 48, 96))
        inst = pdo_t_instance(m, rng.randrange(m))
        aux = EtaQuotient(12, {1: rng.choice((5, 10, 20, 40, 80))})
        u = 2 ** rng.randrange(1, 9)
        try:
            fresh = radu_verify(inst, aux, u)
        except CriterionNotApplicable:
            continue
        assert fresh.to_dict() == full_expansion_certificate(
            inst, aux, u).to_dict(), (inst, aux, u)
        verdicts[fresh.verdict] += 1
    assert min(verdicts.values()) >= 10


def test_fresh_certificate_failing_past_the_head():
    inst, aux = PAST_HEAD
    cert = radu_verify(inst, aux, 2)
    assert cert.p_set == [2, 3]
    assert cert.failure == {"t": 2, "n": 5, "index": 27, "residue": 1}
    assert cert.to_dict() == full_expansion_certificate(inst, aux, 2).to_dict()


def test_fresh_certificate_failing_in_a_later_orbit_residue(monkeypatch):
    # no c_r series of a random admissible instance was found to fail
    # first in a later orbit residue, so a made-up series stands in: its
    # one nonzero, c(3), is n = 0 of residue 3 and inside the head
    def made_up(inst, order, modulus=None):
        return TruncSeries([int(n == 3) for n in range(order)], modulus)

    inst, aux = PAST_HEAD
    monkeypatch.setattr("pdotq.radu.c_r_series", made_up)
    cert = radu_verify(inst, aux, 2)
    assert cert.failure == {"t": 3, "n": 0, "index": 3, "residue": 1}
    assert cert.checked == [(2, n) for n in range(43)]
    assert cert == radu_verify(inst, aux, 2,
                               progression=sliced(made_up(inst, 214, 2), 5))


def test_fresh_expansion_orders(monkeypatch):
    orders = []

    def counted(inst, order, modulus=None):
        orders.append(order)
        return eta_product(inst.r, order, modulus)

    monkeypatch.setattr("pdotq.radu.c_r_series", counted)
    n2_fail = RaduInstance(m=5, M=15, level=15,
                           r={1: -2, 3: 1, 5: -4, 15: 2}, t=1)
    short = RaduInstance(m=3, M=6, level=6, r={3: 2, 6: -6}, t=2)
    cases = [
        # FAILs at n = 0 and n = 2 of orbit[0] are settled in the head,
        # 2 m + orbit[0] + 1 long
        (pdo_t_instance(6, 2), EtaQuotient(12, {1: 5}), 8, False, [15]),
        (n2_fail, EtaQuotient(15, {1: 24}), 2, False, [12]),
        # a FAIL past the head and a PASS expand the head, then the full
        # order m floor(nu) + max(orbit) + 1
        (*PAST_HEAD, 2, False, [13, 214]),
        (pdo_t_instance(6, 2), EtaQuotient(12, {1: 5}), 4, True, [15, 39]),
        # floor(nu) = 2 and a one-residue orbit: the head is the full order
        (short, EtaQuotient(6, {1: 10}), 2, True, [9]),
    ]
    for inst, aux, u, verdict, want in cases:
        orders.clear()
        assert radu_verify(inst, aux, u).verdict is verdict
        assert orders == want, (inst, u)
    # a supplied progression is read as it is
    orders.clear()
    radu_verify(pdo_t_instance(6, 2), EtaQuotient(12, {1: 5}), 8,
                progression=sliced(eta_product(PDO_T_R, 39, 8), 6))
    assert orders == []


# --- the per-cell cache: what does not read t is worked out once ---

# a map other than PDO_t's, expanded afresh: its orbit is {2, 3}
OTHER_MAP = ["--m", "5", "--M", "20", "--level", "20", "--r",
             "1:-1,2:-2,5:1,10:5,20:3", "--rprime", "1:24"]


def cell_cache_grid():
    """radu argument vectors over steps 6 to 150, levels 12 and 60 and
    several r'_1 per step, with t spread over its classes mod gcd(m, 8)
    and mod 3, moduli 2 to 256, a row of the certificate table per step
    and level, some --min-depth, and one other map."""
    rng = random.Random(19)
    jobs = []
    for m in (6, 12, 24, 48, 96, 150):
        classes = math.lcm(math.gcd(m, 8), 3)
        for level in (12, 60):
            for rp1 in rng.sample((5, 10, 20, 40, 80, 5 * m // 6), 2):
                for c in rng.sample(range(classes), min(classes, 3)):
                    t = c + classes * rng.randrange(m // classes)
                    u = (2 ** rng.randint(1, 8) if rng.random() < 0.75
                         else rng.randint(2, 256))
                    jobs.append(["--m", str(m), "--t", str(t), "--u", str(u),
                                 "--level", str(level), "--rprime",
                                 f"1:{rp1}"])
            # a congruence that holds, so the grid has a PASS at each step
            for row_m, t, u in rng.sample(TABLE_ROWS, len(TABLE_ROWS)):
                if row_m == m:
                    jobs.append(["--m", str(m), "--t", str(t), "--u", str(u),
                                 "--level", str(level), "--rprime",
                                 f"1:{5 * m // 6}"])
                    break
    jobs += [OTHER_MAP + ["--t", str(t), "--u", str(u)]
             for t in (2, 3, 4) for u in (2, 4)]
    for job in rng.sample(jobs, 12):
        jobs.append(job + ["--min-depth", str(rng.randint(0, 30))])
    return [["radu"] + job + fmt for job in jobs for fmt in ([], ["--json"])]


def test_a_warm_cell_cache_gives_the_bytes_of_a_cold_one(capsys):
    from pdotq import cli, radu, verify

    def outputs(jobs, clear):
        seen = {}
        for argv in jobs:
            if clear:
                radu._CELLS.clear()
                squares_mod.cache_clear()
                verify.clear_master_cache()
            code = cli.main(argv)
            seen[tuple(argv)] = (code, *capsys.readouterr())
        return seen

    jobs = cell_cache_grid()
    rng = random.Random(20)
    runs = []
    for clear in (False, False, True):
        rng.shuffle(jobs)
        runs.append(outputs(jobs, clear))
    assert runs[0] == runs[1] == runs[2]
    outcomes = Counter()
    for code, out, err in runs[0].values():
        outcomes[code, "verdict: FAIL" in out or '"verdict": false' in out,
                 "not admissible" in err, "negative order bound" in err] += 1
    # PASS, FAIL, Delta* failure and nonnegativity failure all occur
    assert set(outcomes) == {(0, False, False, False), (1, True, False, False),
                             (1, False, True, False), (1, False, False, True)}


def test_cell_cache_hands_out_copies_and_runs_p_mr_once_per_delta(
        monkeypatch):
    from pdotq import radu

    calls = Counter()

    def counted(inst, delta):
        calls[delta] += 1
        return p_mr(inst, delta)

    monkeypatch.setattr(radu, "_CELLS", {})
    monkeypatch.setattr(radu, "p_mr", counted)
    aux = EtaQuotient(12, {1: 20})
    certs = {}
    for t in range(24):
        try:
            certs[t] = radu_verify(pdo_t_instance(24, t), aux, 8)
        except CriterionNotApplicable:
            continue
    assert len(certs) == 12
    assert calls == {delta: 1 for delta in divisors(12)}
    # a caller changing what a certificate holds changes no later one
    want = {t: cert.to_dict() for t, cert in certs.items()}
    for cert in certs.values():
        cert.p_set.append(1)
        cert.delta_star["even_m_two_adic"] = False
        cert.nonneg[0]["total"] = "-1/1"
        cert.nonneg.append({})
    for t, cert in want.items():
        assert radu_verify(pdo_t_instance(24, t), aux, 8).to_dict() == cert
    with pytest.raises(DeltaStarFailure) as failure:
        radu_verify(pdo_t_instance(24, 0), aux, 8)
    failure.value.conditions.clear()
    with pytest.raises(DeltaStarFailure) as again:
        radu_verify(pdo_t_instance(24, 0), aux, 8)
    assert again.value.conditions == delta_star_check(pdo_t_instance(24, 0))
    assert calls == {delta: 1 for delta in divisors(12)}
