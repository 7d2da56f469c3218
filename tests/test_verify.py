"""Tests for the verification suites and their report plumbing."""

import json
import random

import pytest

from pdotq.partitions import pdo_t_series
from pdotq.series import TruncSeries
from pdotq.verify import (
    Report,
    certificate_table,
    clear_master_cache,
    coexistence,
    dissection_suite,
    divisibility_suite,
    emit_report,
    eta_families,
    f_product,
    genfun_congruences,
    intermediate_steps,
    master_series,
    nonresidue_prime_family,
    powers_of_two_suite,
    sturm_suite,
    SUITES,
)
from pdotq.modforms import modularity_check


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
    assert emit_report(report) == text
    assert emit_report(report, as_json=True) == report.to_json()


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


def test_prime_family_suite():
    report = nonresidue_prime_family(p=5, n_max=2, ell_max=1)
    assert report.suite == "prime-family"
    assert len(report.checks) == 5
    assert report.passed
    with pytest.raises(ValueError):
        nonresidue_prime_family(p=7)
    with pytest.raises(ValueError):
        nonresidue_prime_family(p=4)


def test_powers_of_two_suite():
    report = powers_of_two_suite(order=1200, conj_k_max=2)
    # 22 proved progressions plus 4 conjectural families per k
    assert len(report.checks) == 22 + 12
    assert report.passed
    evidence = [c for c in report.checks if "evidence" in c.detail]
    assert len(evidence) == 12


def test_progression_checks_report_the_failing_index(monkeypatch):
    from pdotq import verify

    coeffs = [0] * 50
    coeffs[27] = 8
    series = TruncSeries(coeffs, 256)
    report = Report("t", {})
    verify._zero_progression_check(report, series, 12, 3, 8, "evidence")
    verify._zero_progression_check(report, series, 12, 3, 16, "evidence")
    assert [(c.name, c.ok, c.detail) for c in report.checks] == [
        ("pdo_t(12n+3) == 0 mod 8", True, "evidence, 4 indices below 50"),
        ("pdo_t(12n+3) == 0 mod 16", False, "index 27: residue 8"),
    ]

    coeffs = [0] * 1000
    coeffs[24 * 5] = 18
    monkeypatch.setattr(verify, "master_series",
                        lambda order, modulus: TruncSeries(coeffs, modulus))
    report = divisibility_suite(k_max=1, n_max=6)
    assert [(c.ok, c.detail) for c in report.checks] == [
        (True, "finite-depth evidence, n <= 6"),
        (True, "finite-depth evidence, n <= 6"),
        (False, "n=5: residue 18"),
        (True, "finite-depth evidence, n <= 6"),
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
