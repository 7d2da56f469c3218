"""Tests for the verification suites and their report plumbing."""

import json
import random

import pytest

from pdotq.partitions import pdo_t_series
from pdotq.series import TruncSeries
from pdotq.verify import (
    CERTIFICATE_ROWS,
    Report,
    certificate_table,
    clear_master_cache,
    coexistence,
    dissection_suite,
    divisibility_suite,
    f_product,
    family,
    genfun_congruences,
    intermediate_steps,
    master_series,
    nonresidue_prime_family,
    plan_master_series,
    powers_of_two_suite,
    sturm_suite,
    suite_reads,
    SUITES,
)
from pdotq.modforms import EtaQuotient, modularity_check
from pdotq.radu import RaduInstance, nu_bound, radu_verify


@pytest.fixture
def expansions(monkeypatch):
    """Every fresh master expansion as (order, modulus, step), from a cold
    cache."""
    from pdotq import verify

    made = []
    real = verify.pdo_t_series

    def counted(order, modulus=None, step=1, known=()):
        made.append((order, modulus, step))
        return real(order, modulus, step, known)

    monkeypatch.setattr(verify, "pdo_t_series", counted)
    clear_master_cache()
    yield made
    clear_master_cache()


def test_report_mechanics():
    report = Report("demo", {"x": 1})
    report.add("good", True, "fine")
    assert report.passed
    report.add("bad", False, "broke at 3")
    assert not report.passed
    text = report.to_text()
    assert "[PASS] good" in text
    assert "[FAIL] bad" in text
    assert text.endswith("result: FAIL (1/2 checks)")
    data = report.to_dict()
    assert data == {
        "suite": "demo",
        "params": {"x": 1},
        "checks": [
            {"name": "good", "status": "pass", "detail": "fine"},
            {"name": "bad", "status": "fail", "detail": "broke at 3"},
        ],
        "passed": False,
    }
    assert json.loads(report.to_json()) == data


def test_report_json_deterministic():
    a = dissection_suite(order=40, binom_order=30).to_json()
    b = dissection_suite(order=40, binom_order=30).to_json()
    assert a == b


def test_master_cache_reuse_and_derivation():
    clear_master_cache()
    exact = master_series(60)
    assert exact == pdo_t_series(60)
    # shorter residue request is derived from the cached exact series
    derived = master_series(40, 9)
    assert derived == pdo_t_series(40, 9)
    reduced = master_series(30, 3)
    assert reduced == pdo_t_series(30, 3)
    # a longer request cannot be served from cache
    longer = master_series(90, 9)
    assert longer == pdo_t_series(90, 9)
    assert master_series(90, 9) == longer
    clear_master_cache()


def test_exact_requests_continue_the_cached_series(monkeypatch):
    from pdotq import verify

    made = []

    def counted(order, modulus=None, step=1, known=()):
        made.append((order, step, len(known)))
        return pdo_t_series(order, modulus, step, known)

    monkeypatch.setattr(verify, "pdo_t_series", counted)
    # over Z each longer request continues the cached series, which goes
    # down as its head; a shorter one is served; every answer is the
    # expansion from nothing, in ascending, descending and repeated order
    clear_master_cache()
    orders = (1, 2, 17, 1000, 999, 1001, 3501, 3501, 1500, 1)
    for order in orders:
        assert master_series(order) == pdo_t_series(order), order
    assert made == [(1, 1, 0), (2, 1, 1), (17, 1, 2), (1000, 1, 17),
                    (1001, 1, 1000), (3501, 1, 1001)]
    clear_master_cache()
    made.clear()
    for order in sorted(orders, reverse=True):
        assert master_series(order) == pdo_t_series(order), order
    assert made == [(3501, 1, 0)]
    # the 3n series over Z is handed its head too, which its scalar 4
    # makes eta_product ignore
    for order in (30, 90, 60):
        assert master_series(order, step=3) == pdo_t_series(order, step=3)
    assert made[1:] == [(30, 3, 0), (90, 3, 30)]
    # a residue request keeps its policy: no head, and the exact series
    # serves any shorter one
    assert master_series(200, 256) == pdo_t_series(200, 256)
    master_series(4000, 256)
    assert made[3:] == [(4000, 1, 0)]
    clear_master_cache()


def test_master_cache_drops_the_entries_a_new_one_serves():
    from pdotq.verify import _MASTER_CACHE

    clear_master_cache()
    master_series(30, 4, step=3)
    master_series(20, 2, step=3)
    # no shorter, modulo a multiple of both: it serves them, so they go
    longer = master_series(40, 8, step=3)
    assert set(_MASTER_CACHE) == {(3, 8)}
    assert master_series(30, 4, step=3) == longer.truncate(30).reduce_mod(4)
    # 3 does not divide 8, and the full series is another source
    master_series(50, 3, step=3)
    master_series(10, 8)
    assert set(_MASTER_CACHE) == {(3, 8), (3, 3), (1, 8), (3, 4)}
    # over Z it serves every shorter residue series of its step
    master_series(45, None, step=3)
    assert set(_MASTER_CACHE) == {(3, 3), (1, 8), (3, None)}
    clear_master_cache()


def test_master_progression_reads_every_kind_of_progression(expansions):
    from pdotq.verify import master_progression

    exact = pdo_t_series(400)
    cases = [
        (8, 0, 41), (7, 5, 30), (1, 0, 400), (4, 9, 3),   # 3 does not divide step
        (6, 3, 60), (3, 0, 133), (12, 27, 10), (9, 6, 44),  # 3 | step, offset
        (6, 4, 50), (3, 1, 20),                            # 3 | step only
        (5, 12, 1), (9, 30, 1), (2, 7, 0), (3, 0, 0),      # count 1 or 0
        (1, 399, 1), (150, 195, 2),                        # offset >= step
    ]
    for modulus in (None, 8, 243, 256, 729):
        for step, offset, count in cases:
            got = master_progression(step, offset, count, modulus)
            want = exact.coeffs[offset::step][:count]
            if modulus is not None:
                want = tuple(c % modulus for c in want)
            assert got.modulus == modulus
            assert tuple(got.coeffs) == want, (step, offset, count, modulus)
    with pytest.raises(ValueError):
        master_progression(0, 0, 5)
    with pytest.raises(ValueError):
        master_progression(3, -3, 5, 8)
    with pytest.raises(ValueError):
        master_progression(3, 0, -1, 8)
    assert all(step in (1, 3) for _, _, step in expansions)


def test_master_progression_picks_its_source(expansions):
    from pdotq.verify import master_progression

    # indices 3n + 0 in a residue ring: the 3n series, to index 90 / 3
    master_progression(6, 3, 15, 32)
    assert expansions == [(30, 32, 3)]
    # served from it: a shorter read, a divisor of the modulus
    master_progression(9, 0, 4, 8)
    assert expansions == [(30, 32, 3)]
    # 3 does not divide the step, or the offset, or the ring is Z: the
    # full series, to the largest index read
    master_progression(4, 0, 5, 32)
    master_progression(3, 1, 5, 32)
    master_progression(3, 0, 5)
    assert expansions == [(30, 32, 3), (17, 32, 1), (13, None, 1)]
    # a longer 3n read expands the 3n series again
    master_progression(3, 0, 31, 32)
    assert expansions[-1] == (31, 32, 3)


def test_plan_expands_each_source_once(expansions):
    from pdotq.verify import master_progression, plan_master_series

    requests = [(6, 3, 15, 32), (12, 0, 20, 243), (8, 0, 41, 9),
                (4, 0, 7, None), (3, 0, 0, 5)]
    plan_master_series(requests)
    # 3n reads reach index 228 mod 243 and index 87 mod 32, which expands
    # without a division, so two 3n series cost less than one mod
    # lcm(32, 243); the exact read sends the full series to Z, as far as
    # index 320
    assert sorted(expansions) == [(30, 32, 3), (77, 243, 3), (321, None, 1)]
    plan_master_series(requests)
    exact = pdo_t_series(321)
    for step, offset, count, modulus in requests:
        got = master_progression(step, offset, count, modulus)
        want = TruncSeries(exact.coeffs[offset::step][:count], modulus)
        assert got == want, (step, offset, count, modulus)
    assert len(expansions) == 3


def test_certificates_from_progressions_equal_the_plain_ones():
    from pdotq.verify import (
        PDO_T_EXPONENTS, shifted_progression, master_progression,
    )

    clear_master_cache()
    top = 0
    rows = []
    for m, t, rp1, depth, u in CERTIFICATE_ROWS:
        inst = RaduInstance(m=m, M=12, level=12,
                            r=dict(PDO_T_EXPONENTS), t=t)
        aux = EtaQuotient(12, {1: rp1})
        top = max(top, m * max(int(nu_bound(inst, aux)), depth) + m)
        rows.append((inst, aux, u, depth))
    plain = pdo_t_series(top + 2, 256).shift(-1).coeffs
    for inst, aux, u, depth in rows:
        from_series = radu_verify(
            inst, aux, u, min_depth=depth,
            progression=lambda offsets, n, m=inst.m: [
                plain[t:t + m * n:m] for t in offsets])
        read = shifted_progression(inst.m, u)
        assert read([inst.t], 3) == [master_progression(
            inst.m, inst.t + 1, 3, u).coeffs]
        from_reads = radu_verify(inst, aux, u, progression=read,
                                 min_depth=depth)
        assert from_reads.to_dict() == from_series.to_dict()
        assert from_reads.verdict
    clear_master_cache()


def test_a_standalone_scan_expands_its_3n_source_once_after_the_head(
        expansions):
    from pdotq.verify import PDO_T_EXPONENTS, shifted_progression

    inst = RaduInstance(m=150, M=12, level=60, r=dict(PDO_T_EXPONENTS),
                        t=104)
    aux = EtaQuotient(60, {1: 125})
    cert = radu_verify(inst, aux, 64,
                       progression=shifted_progression(inst.m, 64))
    assert cert.verdict and cert.p_set == [44, 104]
    assert cert.floor_nu == 756
    # the head pdo_t(150 n + 45), n <= 2, then both orbit progressions in
    # one read of the 3n series, to pdo_t(150 * 756 + 105)
    assert expansions == [(116, 64, 3), (37836, 64, 3)]
    assert cert == radu_verify(inst, aux, 64, progression=None)


def test_check_all_makes_two_3n_expansions_and_one_full_one(
        expansions, capsys):
    import hashlib
    from pathlib import Path

    from pdotq.cli import main

    assert main(["check", "--suite", "all", "--json"]) == 0
    out = capsys.readouterr().out
    # the 3n series to the last 3-adic read, modulo the lcm of every read
    # that needs a division, and to the mod-32 prime family's last read
    # mod 32, by products alone; the full series only where
    # intermediate's exact forms need it
    assert sorted(expansions) == [(1601, None, 1), (21601, 186624, 3),
                                  (38341, 32, 3)]
    digests = json.loads((Path(__file__).resolve().parent.parent
                          / "perfbench" / "digests.json").read_text())
    assert hashlib.sha256(out.encode()).hexdigest() == (
        digests["check --suite all --json"])


def test_powers_of_two_and_certificates_alone_keep_one_3n_expansion(
        expansions):
    # each has division-free reads (moduli dividing 32) beside reads mod
    # 64 to 256, but no further than those: apart, the two expansions
    # would cost more than one
    for suite in (powers_of_two_suite, certificate_table):
        clear_master_cache()
        expansions.clear()
        assert suite().passed
        assert [step for _, _, step in expansions] == [3], suite
        assert expansions[0][1] == 256, suite


# one parameter set of each suite other than its defaults; the
# certificate table has no parameters
_OTHER_PARAMS = {
    "dissection": {"order": 40, "binom_order": 20},
    "sturm": {"k18": 1, "k36": 1},
    "genfun": {"k": 1, "bound": 40},
    "divisibility": {"k_max": 2, "n_max": 20},
    "coexistence": {"k_max": 1, "bound": 50},
    "prime-family": {"p": 11, "n_max": 5, "ell_max": 1},
    "intermediate": {"bound": 50},
    "powers-of-two": {"order": 3000, "conj_k_max": 3},
}


def test_single_suite_plans_only_its_own_reads(expansions):
    report = genfun_congruences(k=0, bound=30)
    assert report.passed
    # 8n needs the full series, 12n only the 3n one
    assert sorted(expansions) == [(121, 27, 3), (241, 27, 1)]
    # every suite, at its defaults and at one other parameter set: the
    # series that its declared reads expand are all that it reads
    for name, params in [*((name, {}) for name in SUITES),
                         *_OTHER_PARAMS.items()]:
        clear_master_cache()
        plan_master_series(suite_reads(name, **params))
        planned = list(expansions)
        assert SUITES[name](**params).passed, (name, params)
        assert expansions == planned, (name, params)


def test_negative_parameters_are_refused_before_the_reads(expansions):
    # each of these once passed over no index, raised a TypeError on a
    # fractional power of 3, or refused a negative bound only after its
    # reads were planned
    for name, param in (("divisibility", "n_max"), ("prime-family", "n_max"),
                        ("prime-family", "ell_max"), ("sturm", "k18"),
                        ("sturm", "k36"), ("intermediate", "bound"),
                        ("genfun", "bound"), ("coexistence", "bound")):
        for run in (SUITES[name], lambda **params: suite_reads(name, **params)):
            with pytest.raises(ValueError,
                               match=f"^{param} must be >= 0, got -1$"):
                run(**{param: -1})
    assert expansions == []


def test_wrapped_suites_keep_their_reads(monkeypatch):
    import functools

    # as a tracer wraps each suite
    for name, suite in list(SUITES.items()):
        reads = list(suite_reads(name))
        assert bool(reads) == (name != "dissection"), name
        report = suite().to_json()
        monkeypatch.setitem(SUITES, name, functools.wraps(suite)(
            lambda *args, suite=suite, **kwargs: suite(*args, **kwargs)))
        assert list(suite_reads(name)) == reads, name
        assert SUITES[name]().to_json() == report, name


def test_f_product_inverse_pairs():
    rng = random.Random(911)
    one = TruncSeries.one(40)
    for _ in range(50):
        exponents = {}
        for step in rng.sample(range(1, 13), rng.randrange(1, 4)):
            exponents[step] = rng.choice([-3, -2, -1, 1, 2, 3])
        flipped = {d: -e for d, e in exponents.items()}
        assert f_product(exponents, 40) * f_product(flipped, 40) == one


def test_f_product_scalar_and_shift():
    base = f_product({6: 4}, 10)
    moved = f_product({6: 4}, 10, scalar=81, shift=1)
    assert moved.order == 11
    assert moved.coeffs[0] == 0
    assert all(moved.coeffs[i + 1] == 81 * base.coeffs[i] for i in range(10))


def test_dissection_suite():
    report = dissection_suite(order=80, binom_order=60)
    assert report.suite == "dissection"
    assert report.params == {"order": 80, "binom_order": 60}
    assert len(report.checks) == 13
    assert report.passed


def test_dissection_binomial_checks_do_not_use_the_reduction(monkeypatch):
    from pdotq import series

    # eta_product reduces f1^p mod p to f_p by the very congruence the
    # suite checks; its left sides must not come from that reduction
    reduce = series.binomial_reduce

    def unchanged(exponents, modulus=None):
        out = reduce(exponents, modulus)
        assert out == {d: r for d, r in exponents.items() if r}, (
            exponents, modulus)
        return out

    monkeypatch.setattr(series, "binomial_reduce", unchanged)
    report = dissection_suite(order=40, binom_order=60)
    assert [c.name for c in report.checks if "binomial" in c.detail] == [
        "f1^2 == f2 mod 2", "f1^4 == f2^2 mod 4", "f1^3 == f3 mod 3",
        "f1^9 == f3^3 mod 9", "f1^5 == f5 mod 5", "f1^25 == f5^5 mod 25"]
    assert report.passed


def test_prime_family_suite():
    report = nonresidue_prime_family(p=5, n_max=2, ell_max=1)
    assert report.suite == "prime-family"
    assert len(report.checks) == 5
    assert report.passed
    with pytest.raises(ValueError):
        nonresidue_prime_family(p=7)
    with pytest.raises(ValueError):
        nonresidue_prime_family(p=4)
    # 5 mod 6 but composite: -3 may still be a nonresidue (mod 35 it is
    # not a square), yet the family is only stated for primes
    for composite in (35, 65, 125):
        with pytest.raises(ValueError, match="prime p == 5"):
            nonresidue_prime_family(p=composite, n_max=0, ell_max=0)
    assert nonresidue_prime_family(p=11, n_max=1, ell_max=0).passed


def test_powers_of_two_suite():
    report = powers_of_two_suite(order=1200, conj_k_max=2)
    # 22 proved progressions plus 4 conjectural families per k
    assert len(report.checks) == 22 + 12
    assert report.passed
    # the proved rows are the progressions the certificate table proves,
    # pdo_t(m n + t + 1) == 0 mod u, each once
    certified = sorted(
        f"pdo_t({m}n{f'+{(t + 1) % m}' if (t + 1) % m else ''}) == 0 mod {u}"
        for m, t, _, _, u in CERTIFICATE_ROWS)
    proved = [c.name for c in report.checks if "proved" in c.detail]
    assert sorted(proved) == certified
    evidence = [c for c in report.checks if "evidence" in c.detail]
    assert len(evidence) == 12


def _fake_progressions(monkeypatch, coeffs):
    """Serve every master progression from the fake coefficients."""
    from pdotq import verify

    def fake(step, offset, count, modulus):
        return TruncSeries(coeffs[offset::step][:count], modulus)

    monkeypatch.setattr(verify, "master_progression", fake)
    monkeypatch.setattr(verify, "plan_master_series", lambda requests: None)


def test_progression_checks_report_the_failing_index(monkeypatch):
    from pdotq import verify

    coeffs = [0] * 50
    coeffs[27] = 8
    _fake_progressions(monkeypatch, coeffs)
    report = Report("t", {})
    verify._zero_progression_check(report, 50, 12, 3, 8, "evidence")
    verify._zero_progression_check(report, 50, 12, 3, 16, "evidence")
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        ("pdo_t(12n+3) == 0 mod 8", True, "evidence, 4 indices below 50"),
        ("pdo_t(12n+3) == 0 mod 16", False, "index 27: residue 8"),
    ]

    coeffs = [0] * 1000
    coeffs[24 * 5] = 18
    _fake_progressions(monkeypatch, coeffs)
    report = divisibility_suite(k_max=1, n_max=6)
    assert [(c.ok, c.detail) for c in report.checks] == [
        (True, "finite-depth evidence, n <= 6"),
        (True, "finite-depth evidence, n <= 6"),
        (False, "n=5: residue 18"),
        (True, "finite-depth evidence, n <= 6"),
    ]


def test_genfun_divisibility_failure_names_n(monkeypatch):
    # a fake master series nonzero only at pdo_t(40) = pdo_t(8 * 5): the
    # level-18 divisibility line fails at n = 5, as the divisibility
    # suite would say, and the level-36 one (pdo_t(12n)) passes
    coeffs = [0] * 400
    coeffs[40] = 1
    _fake_progressions(monkeypatch, coeffs)
    report = genfun_congruences(0, 30)
    assert [(c.name, c.ok, c.detail) for c in report.checks[2:]] == [
        ("pdo_t(8n) divisible by 3^2", False, "n=5: residue 1"),
        ("pdo_t(12n) divisible by 3^2", True,
         "forced by the closed form through q^30"),
    ]


def test_genfun_suite():
    for k in (0, 1):
        report = genfun_congruences(k=k, bound=25)
        assert len(report.checks) == 4
        assert report.passed, report.to_text()
    with pytest.raises(ValueError):
        genfun_congruences(k=-1)


def test_divisibility_suite():
    report = divisibility_suite(k_max=1, n_max=12)
    assert len(report.checks) == 4
    assert report.passed


def test_intermediate_suite():
    report = intermediate_steps(bound=40)
    assert len(report.checks) == 8
    assert report.passed, report.to_text()


def test_coexistence_suite():
    report = coexistence(k_max=1, bound=40)
    assert len(report.checks) == 2
    assert report.passed, report.to_text()


def test_certificate_table():
    report = certificate_table()
    assert len(report.checks) == 22
    assert report.passed, report.to_text()
    # the one row whose checked depth exceeds its rational bound
    extended = [c for c in report.checks if "depth extended" in c.detail]
    assert len(extended) == 1
    assert extended[0].name == "pdo_t(6n+6) == 0 mod 8"
    assert "floor 5" in extended[0].detail


def test_sturm_suite():
    report = sturm_suite()
    assert len(report.checks) == 10
    assert report.passed, report.to_text()
    closures = [c for c in report.checks if "closure check" in c.detail]
    assert len(closures) == 4


def test_three_adic_reports_are_pinned_at_other_parameters():
    import hashlib

    # sha256 of to_json(), recorded before the two families became rows
    pinned = [
        (sturm_suite, (0, 0), "351a930cf5a93667bf91dff458eb6ee2"
                              "91ff247599780a5800b4d5b891493ee0"),
        (sturm_suite, (0, 1), "0f3653be011679c506c96f5763d96c7f"
                              "09aff9b91c627bbff5641fc851b0a3e6"),
        (sturm_suite, (1, 1), "fa3220fd9961b97de0684f3ad2093804"
                              "5cb7842ff6a63ab6162bb6a5a745e999"),
        (sturm_suite, (1, 2), "ba2af8a55241f40a8d338a9e2efea6e6"
                              "f20b56c5348c991226c12d843fdb0513"),
        (genfun_congruences, (0, 100), "2834599730772890d688ac3b5cb03729"
                                       "3847d61260539be9ff1b50f8485cc413"),
        (genfun_congruences, (1, 100), "77c1165c01d5b8918f5d9d384c84af0d"
                                       "27b2b008bad7ea94c493e0f5d89095f7"),
        (genfun_congruences, (2, 100), "080e11ac96eb19483bb40125586c4bf5"
                                       "2c82f0ee47d6a5c86c2b7932593a8222"),
        (genfun_congruences, (3, 100), "462a08200f3132b95b053e115d527944"
                                       "1a43e0a1d33ae2b8d8509da19da1c762"),
        (coexistence, (3, 120), "48bebb1b20e57589668eb773d3e04815"
                                "53aba7814e016e89d7a567c91f38a46f"),
    ]
    for suite, args, digest in pinned:
        report = suite(*args)
        assert report.passed, (suite.__name__, args)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
            digest), (suite.__name__, args)


def test_family_rows_carry_both_closed_forms():
    from pdotq.verify import family

    for k in range(4):
        eight, twelve = family(18, k), family(36, k + 1)
        # genfun's 12 3^k companion is the level-36 row at k + 1
        assert (eight.step, twelve.step) == (8 * 3 ** k, 12 * 3 ** k)
        assert eight.modulus == twelve.modulus == 3 ** (k + 3)
        alpha = 2 * k + 3 if k % 2 == 1 else 0
        assert eight.companion_scalar == 2 ** (k + 2) * 3 ** (k + 2)
        assert twelve.companion_scalar == 2 ** alpha * 3 ** (k + 2)
        for fam in (eight, twelve):
            dissection, companion = fam.quotients()
            assert companion.scalar == fam.companion_scalar
            assert dissection.exponents == companion.exponents
    with pytest.raises(ValueError):
        family(12, 0)


def test_prime_family_plan_reads_only_the_furthest_progressions():
    from pdotq.verify import (
        _PRIME_FAMILY_CHECKS, _prime_family_progression, master_plans,
    )

    def master_plan(requests):
        return list(master_plans(requests))[-1]

    for p, n_max, ell_max in ((5, 20, 2), (11, 3, 2), (17, 0, 1)):
        every = [(*_prime_family_progression(p, ell, a, b, k), n_max + 1,
                  modulus)
                 for ell in range(ell_max + 1)
                 for modulus, a, b in _PRIME_FAMILY_CHECKS
                 for k in range(1, p)]
        assert master_plan(suite_reads("prime-family", p=p, n_max=n_max,
                                       ell_max=ell_max)) == master_plan(every)


def eta_families(k):
    """The level-18 and level-36 quotient pairs at parameter k: in each
    pair the two forms share exponents and differ only in scalar."""
    return family(18, k).quotients() + family(36, k).quotients()


def test_eta_families_shapes():
    a1, b1, a2, b2 = eta_families(2)
    assert a1.exponents == {1: 230, 2: 8, 3: -74}
    assert a1.scalar == 36 and a1.level == 18
    assert b1.exponents == a1.exponents and b1.scalar == 16 * 81
    a1k3, _, a2k3, b2k3 = eta_families(3)
    assert a2k3.exponents == {1: 237, 2: 3, 3: -79, 6: 3}
    assert a2k3.level == 36
    assert b2k3.scalar == 81
    for k in range(3):
        for eq in eta_families(k):
            assert modularity_check(eq).ok, (k, eq)


def test_suite_registry():
    assert set(SUITES) == {
        "dissection", "sturm", "genfun", "divisibility", "coexistence",
        "prime-family", "intermediate", "certificates", "powers-of-two",
    }
    for fn in SUITES.values():
        assert callable(fn)
