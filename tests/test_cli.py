"""Tests for the command line interface, driven through main(argv)."""

import json
import math
import random

import pytest

from pdotq.cli import (
    build_parser,
    format_eta_quotient,
    format_exponents,
    main,
    parse_eta_quotient,
    parse_exponents,
)
from pdotq.modforms import EtaQuotient, q_expansion
from pdotq.verify import Report


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_exponents():
    assert parse_exponents("1:-2,2:1,12:2") == {1: -2, 2: 1, 12: 2}
    assert parse_exponents(" 6:3 , 2:1 ") == {6: 3, 2: 1}
    with pytest.raises(ValueError):
        parse_exponents("1:2,1:3")
    with pytest.raises(ValueError):
        parse_exponents("")
    with pytest.raises(ValueError):
        parse_exponents("a:b")


def test_eta_roundtrip_random():
    rng = random.Random(7321)
    for _ in range(100):
        level = rng.choice([1, 2, 6, 12, 18, 36])
        divisors = [d for d in range(1, level + 1) if level % d == 0]
        exponents = {}
        for d in rng.sample(divisors, rng.randrange(1, len(divisors) + 1)):
            exponents[d] = rng.choice([-5, -2, -1, 1, 2, 8])
        eq = EtaQuotient(level, exponents, scalar=rng.choice([1, 6, 36]))
        assert parse_eta_quotient(format_eta_quotient(eq)) == eq


def test_expand_text_and_json(capsys):
    code, out, _ = run(capsys, "expand", "--eta", "1;1;1:24", "--order", "6")
    assert code == 0
    assert out.splitlines() == ["0\t0", "1\t1", "2\t-24", "3\t252",
                                "4\t-1472", "5\t4830"]
    code, out, _ = run(capsys, "expand", "--eta", "1;1;1:24",
                       "--order", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coefficients"] == [0, 1, -24, 252, -1472, 4830]
    assert data["eta"] == "1;1;1:24"
    assert data["holomorphic"] is True


def test_expand_errors(capsys):
    code, _, err = run(capsys, "expand", "--eta", "nonsense")
    assert code == 2 and "eta quotient" in err
    # f_1 alone has leading power 1/24
    code, _, err = run(capsys, "expand", "--eta", "6;1;1:1")
    assert code == 1 and "not expandable" in err


def test_expand_usage_errors(capsys):
    for flags in (["--mod", "1"], ["--order", "-3"]):
        code, out, err = run(capsys, "expand", "--eta", "6;1;1:-2,2:1",
                             *flags)
        assert code == 2 and out == ""
        assert err.startswith("pdotq expand: " + flags[0])
        assert err.count("\n") == 1


def test_expand_modulus_beyond_int_str_limit(capsys):
    # a 2201-digit modulus: the product fields are too wide to convert
    # between int and str, so the multiply must go through Decimal
    modulus = 10 ** 2200 + 1
    code, out, err = run(capsys, "expand", "--eta", "6;1;1:-2,2:1",
                         "--order", "2048", "--mod", str(modulus))
    assert (code, err) == (0, "")
    exact = q_expansion(parse_eta_quotient("6;1;1:-2,2:1"), 2048)
    assert out.splitlines() == [f"{n}\t{c % modulus}"
                                for n, c in enumerate(exact.coeffs)]


def test_pdot_counters(capsys):
    code, out, _ = run(capsys, "pdot", "--n", "4", "--counter", "pd")
    assert (code, out) == (0, "4\t10\n")
    code, out, _ = run(capsys, "pdot", "--n", "4", "--counter", "pd-tagged")
    assert (code, out) == (0, "4\t13\n")
    code, out, _ = run(capsys, "pdot", "--n", "4", "--counter", "pdo")
    assert (code, out) == (0, "4\t5\n")
    code, out, _ = run(capsys, "pdot", "--n", "4")
    assert (code, out) == (0, "4\t6\n")
    code, _, err = run(capsys, "pdot", "--n", "-1")
    assert code == 2 and "n must be" in err


def test_pdot_refuses_a_table_past_its_limit(capsys, monkeypatch):
    from pdotq import cli

    def forbidden(*args):
        raise AssertionError("the limit is checked before any table")

    monkeypatch.setattr(cli, "designated_counts", forbidden)
    huge = str(10**12)
    for argv in (("--method", "enum"), ("--counter", "pd-tagged")):
        code, out, err = run(capsys, "pdot", "--n", "3", huge, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("pdotq pdot: n must be <= ")
        assert err.count("\n") == 1



def test_expansions_past_the_coefficient_budget_exit_before_expanding(
        capsys, monkeypatch):
    from pdotq import cli

    def forbidden(*args):
        raise AssertionError("the budget is checked before any expansion")

    monkeypatch.setattr(cli, "q_expansion", forbidden)
    monkeypatch.setattr(cli, "_SERIES", dict.fromkeys(cli._SERIES, forbidden))
    # the estimate is the coefficient count, against its ring's budget
    for budget, modulus in ((cli._MAX_COEFFICIENTS, 186624),
                            (cli._MAX_EXACT_COEFFICIENTS, None)):
        assert cli._over_budget(budget, modulus) is None
        assert cli._over_budget(budget + 1, modulus).endswith(
            f" is over the budget of {budget}")
    for flags in ([], ["--mod", "186624"]):
        code, out, err = run(capsys, "expand", "--eta",
                             "12;1;1:-4,2:1,4:2,6:3", "--order",
                             "1000000000", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("pdotq expand: --order 1000000000: ")
        assert err.count("\n") == 1
    for counter in ("pd", "pdo", "pdo-tagged"):
        code, out, err = run(capsys, "pdot", "--n", "3", "1000000000",
                             "--counter", counter)
        assert (code, out) == (2, "")
        assert err == ("pdotq pdot: n = 1000000000: 1000000001 coefficients "
                       f"over Z is over the budget of "
                       f"{cli._MAX_EXACT_COEFFICIENTS}\n")


def test_check_flags_past_the_coefficient_budget_exit_before_expanding(
        capsys, monkeypatch):
    from pdotq import cli, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("the budget is checked before any expansion")

    monkeypatch.setattr(verify, "pdo_t_series", forbidden)
    monkeypatch.setattr(verify, "eta_product", forbidden)
    families = []
    family = verify.family

    def counted(level, k):
        families.append(k)
        return family(level, k)

    monkeypatch.setattr(verify, "family", counted)
    verify.clear_master_cache()
    # without the guard each of these asks for many GB; the prime-family
    # plan reads only the furthest progression of each of its rows, not
    # all 6 (p - 1) (ell_max + 1) of them
    assert len(list(verify._prime_family_reads(1000000007, 20, 2))) == 6
    # the reads are made one at a time, and the first that takes the plan
    # past the budget stops it (k = 9 for divisibility and coexistence,
    # ell = 7 for prime-family), however far the flag reaches; a huge
    # count or modulus is written to three digits
    for argv, ring in ((("prime-family", "--p", "1000000007"), "mod 8"),
                       (("genfun", "--k", "14"), "mod 129140163"),
                       (("divisibility", "--kmax", "20"), "mod 59049"),
                       (("divisibility", "--kmax", "20000"), "mod 59049"),
                       (("coexistence", "--kmax", "20000"), "mod 59049"),
                       (("prime-family", "--ellmax", "20000"), "mod 32"),
                       (("genfun", "--k", "10000"), "mod 4.40e+4772"),
                       (("powers-of-two", "--order", "300000000"), "mod 8"),
                       (("dissection", "--order", "100001"), "over Z"),
                       (("dissection", "--bound", "100001"), "over Z")):
        families.clear()
        code, out, err = run(capsys, "check", "--suite", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"pdotq check: --suite {argv[0]}: "), err
        assert f" coefficients {ring} is over the budget of " in err, err
        assert err.count("\n") == 1 and len(err) < 120, err
        assert len(families) <= 20, (argv, len(families))
    assert cli._written(10 ** 12 - 1) == "999999999999"
    assert cli._written(3 ** 10003) == "4.40e+4772"
    # the parser's numeric flags are the union of the suites' flags
    assert cli._CHECK_FLAGS == ["order", "bound", "k", "kmax", "nmax", "p",
                                "ellmax"]


def test_radu_and_modulus_digits_past_the_budget_exit_before_expanding(
        capsys, monkeypatch):
    from pdotq import cli, radu, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("the budget is checked before any expansion")

    monkeypatch.setattr(radu, "c_r_series", forbidden)
    monkeypatch.setattr(verify, "pdo_t_series", forbidden)
    verify.clear_master_cache()
    # mod M the count times the digits of M has a budget as well
    for modulus in (10 ** 19, 2 ** 64):
        digits = len(str(modulus))
        count = cli._MAX_DIGITS // digits
        assert cli._over_budget(count, modulus) is None
        assert cli._over_budget(count + 1, modulus) == (
            f"{count + 1} coefficients of {digits} digits mod "
            f"{cli._written(modulus)} is over the budget of "
            f"{cli._MAX_DIGITS} digits")
    # every default suite, and all of them together, stays well inside
    reads = [read for name in verify.SUITES
             for read in verify.suite_reads(name)]
    for requests in [verify.suite_reads(name) for name in verify.SUITES] + [
            reads]:
        for plan in verify.master_plans(requests):
            for order, modulus in plan.values():
                if modulus is not None:
                    assert order * len(str(modulus)) < cli._MAX_DIGITS // 20
    big = "1:-20000000,2:10000000,3:20000000,6:-10000000,12:20000000"
    cases = (
        # the certificate would read pdo_t(48 n + 24), n <= 3000000, from
        # the 3n series, to (24 + 48 * 3000000) / 3
        (("radu", "--m", "48", "--t", "23", "--u", "32", "--rprime", "1:40",
          "--min-depth", "3000000"),
         "depth 3000000: 48000009 coefficients mod 32"),
        # the instance is admissible, but its step alone is past the
        # budget, and the orbit and cusp bounds loop over it
        (("radu", "--m", "4194304", "--t", "4194303", "--u", "2",
          "--rprime", "1:5"), "--m 4194304: 4194304 coefficients mod 2"),
        # exponents of 10^7 and more: the 2-adic split of prod delta^|r|
        # comes from valuations, and floor(nu) is 18333337
        (("radu", "--m", "6", "--t", "2", "--u", "4", "--rprime", "1:5",
          "--r", big), "depth 18333337: 110000025 coefficients mod 4"),
        # the family pdo_t(3 2^k n) reads index 0 mod 2^(k+2) for every k:
        # at order 200000 refused at k = 493, whose modulus is 150 digits
        # long
        (("check", "--suite", "powers-of-two", "--kmax", "20000", "--order",
          "200000"),
         "--suite powers-of-two: 66667 coefficients of 150 digits mod "
         "1.02e+149"),
        # at the default order the checks' names, which write 3 2^k and
        # 2^(k+2) in full, pass the digits budget first, near k = 2450
        # (the plan alone would go on to k = 4980)
        (("check", "--suite", "powers-of-two", "--kmax", "20000"),
         "--suite powers-of-two: 10000123 digits of check names"),
    )
    for argv, why in cases:
        with monkeypatch.context() as mp:
            if argv[2] == "4194304":
                mp.setattr(radu, "p_set", forbidden)
                mp.setattr(radu, "p_mr", forbidden)
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"pdotq {argv[0]}: {why} is over the budget "
                              "of "), err
        assert err.count("\n") == 1 and "Traceback" not in err, err


def test_one_coefficient_per_k_is_refused_at_the_first_modulus_too_wide(
        capsys, monkeypatch):
    import sys

    from pdotq import cli

    # each k reads index 0 mod 2^(k+2) or 3^(k+3) alone, so only the
    # plan's modulus grows: the walk stops at the first one past the
    # interpreter's int -> str limit (k = 14,280 and 9,012 at its default)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("no int -> str limit to reach")
    # the checks' names would pass the digits budget first (see
    # test_check_names_past_the_digits_budget_are_refused), so it is
    # raised here past what they reach
    monkeypatch.setattr(cli, "_MAX_DIGITS", 10 ** 9)
    for argv, ring in ((("powers-of-two", "--order", "2"), 2),
                       (("divisibility", "--nmax", "0"), 3),
                       (("coexistence", "--bound", "0"), 3)):
        code, out, err = run(capsys, "check", "--suite", *argv,
                             "--kmax", "20000")
        assert (code, out) == (2, ""), argv
        digits = limit + 1
        modulus = ring ** math.ceil((digits - 1) / math.log10(ring))
        assert err == (f"pdotq check: --suite {argv[0]}: coefficients of "
                       f"{digits} digits mod {cli._written(modulus)} are "
                       "past the interpreter's limit on int -> str "
                       "conversion\n"), err
    # past 20,000 --kmax is refused before any read, also where the limit
    # is off and the walk would go on to the digits budget
    code, out, err = run(capsys, "check", "--suite", "coexistence",
                         "--kmax", "1000000000000000000", "--bound", "0")
    assert (code, out) == (2, "")
    assert err == "pdotq check: --kmax must be <= 20000, got 1.00e+18\n"


def test_check_names_past_the_digits_budget_are_refused(capsys,
                                                         monkeypatch):
    import re
    from itertools import chain

    from pdotq import cli, verify

    # each check names its step, offset and modulus in full, so the report
    # grows as K^2 digits for --kmax K; all three suites are refused at
    # once, with one line, long before the walk reaches a modulus too wide
    for argv in (("powers-of-two", "--kmax", "14000", "--order", "2"),
                 ("divisibility", "--kmax", "20000", "--nmax", "0"),
                 ("coexistence", "--kmax", "20000", "--bound", "0")):
        code, out, err = run(capsys, "check", "--suite", *argv)
        assert (code, out) == (2, ""), argv
        assert re.fullmatch(
            rf"pdotq check: --suite {argv[0]}: \d+ digits of check names is "
            r"over the budget of 10000000 digits\n", err), err
    # inside the budget the report is written as before; the digits its
    # names write are charged in full, since one budget digit fewer than
    # they hold refuses the same request.  The order passes every offset,
    # the largest of which is 9 * 2^4 = 144, and keeps the one expansion
    # inside that smaller budget
    argv = ("check", "--suite", "powers-of-two", "--kmax", "4", "--order",
            "145")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    names = re.findall(r"pdo_t\((\d+)n(?:\+(\d+))?\) == 0 mod (\d+)", out)
    named = sum(map(len, chain.from_iterable(names)))
    assert len(names) == 4 * 5 + len(verify.POWER_OF_TWO_ROWS)
    monkeypatch.setattr(cli, "_MAX_DIGITS", named - 1)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and "digits of check names" in err, err


def test_modulus_digits_are_exact_where_they_decide(capsys):
    import sys

    from pdotq import cli

    # the bit length bounds a modulus's digits from above; where that
    # bound does not fit, the exact count decides and is the one named
    count = cli._MAX_DIGITS // 4000
    assert cli._over_budget(count, 10 ** 3999) is None
    assert cli._over_budget(count, 10 ** 4000) == (
        f"{count} coefficients of 4001 digits mod 1.00e+4000 is over the "
        f"budget of {cli._MAX_DIGITS} digits")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        assert cli._over_budget(1, 10 ** limit - 1) is None
        assert "past the interpreter's limit" in cli._over_budget(
            1, 10 ** limit)


def test_large_exponents_charge_the_coefficient_budget(capsys, monkeypatch):
    from pdotq import cli

    big = {1: -2 * 10 ** 30, 2: 10 ** 30 + 12}
    # 101 bits are 21 shares of the budget mod a composite M ...
    assert cli._over_budget(100000, 186624, exponents=big) == (
        "100000 coefficients mod 186624 is over the budget of 47619")
    assert cli._over_budget(47619, 186624, exponents=big) is None
    # ... but mod 2^8 binomial_reduce leaves f2^12, which costs no more
    assert cli._over_budget(cli._MAX_COEFFICIENTS, 256, exponents=big) is None
    # up to 5 bits cost nothing more; 6 bits halve the budget, over Z as
    # mod M
    assert cli._over_budget(cli._MAX_COEFFICIENTS, 186624,
                            exponents={1: 31}) is None
    assert cli._over_budget(cli._MAX_COEFFICIENTS // 2 + 1, 186624,
                            exponents={1: 33}) is not None
    assert cli._over_budget(45000, None, exponents={1: 31}) is None
    assert cli._over_budget(45000, None, exponents={1: 33}) == (
        "45000 coefficients of 118 digits over Z is over the budget of "
        "5000000 digits")
    # the shares divide the budget before any of it is checked, so a
    # refusal names the budget that applies: 35 bits are 7 shares
    assert cli._over_budget(100001, None, exponents={1: 33}) == (
        "100001 coefficients over Z is over the budget of 50000")
    assert cli._over_budget(
        2000, None, exponents={1: -24000000000, 2: 12000000024}) == (
        "2000 coefficients of 15380 digits over Z is over the budget of "
        "1428571 digits")

    def forbidden(*args):
        raise AssertionError("the budget is checked before any expansion")

    monkeypatch.setattr(cli, "q_expansion", forbidden)
    code, out, err = run(
        capsys, "expand", "--eta", "2;1;1:-2000000000000000000000000000000,"
        "2:1000000000000000000000000000012", "--order", "100000", "--mod",
        "186624")
    assert (code, out) == (2, "")
    assert err == ("pdotq expand: --order 100000: 100000 coefficients mod "
                   "186624 is over the budget of 47619\n")
    monkeypatch.undo()
    code, out, _ = run(capsys, "expand", "--eta", "2;1;1:-2,2:13",
                       "--order", "100000", "--mod", "186624")
    assert code == 0 and out.count("\n") == 100000


def test_pdot_series_matches_enum(capsys):
    code, fast, _ = run(capsys, "pdot", "--n", *map(str, range(13)))
    assert code == 0
    code, slow, _ = run(capsys, "pdot", "--n", *map(str, range(13)),
                        "--method", "enum")
    assert code == 0
    assert fast == slow
    code, out, _ = run(capsys, "pdot", "--n", "8", "3", "--json")
    assert code == 0
    assert json.loads(out) == {"counter": "pdo-tagged",
                               "values": [[3, 4], [8, 36]]}
    for counter in ("pd", "pdo"):
        code, fast, _ = run(capsys, "pdot", "--n", *map(str, range(31)),
                            "--counter", counter)
        assert code == 0
        code, slow, _ = run(capsys, "pdot", "--n", *map(str, range(31)),
                            "--counter", counter, "--method", "enum")
        assert code == 0
        assert fast == slow


def test_exact_values_jobs_in_one_process_print_the_recorded_bytes(
        capsys, monkeypatch):
    import hashlib
    import importlib.util
    from pathlib import Path

    from pdotq import verify

    path = (Path(__file__).resolve().parent.parent / "perfbench"
            / "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # seed 42 asks n <= 1505, 3468, 2482 and seed 44 n <= 2508, 1498, 3534
    jobs = [argv for seed in (42, 44)
            for argv in workloads.generate("exact-values", seed)[0]]
    fresh = []
    real = verify.pdo_t_series

    def counted(order, modulus=None, step=1, known=()):
        fresh.append((order, len(known)))
        return real(order, modulus, step, known)

    monkeypatch.setattr(verify, "pdo_t_series", counted)
    verify.clear_master_cache()
    printed = hashlib.sha256()
    for argv in jobs:
        code, out, _ = run(capsys, *argv)
        assert code == 0
        printed.update(out.encode())
    # every job of both seeds, one after another in one process, prints
    # the bytes that expanding each series query from nothing printed
    assert len(jobs) == 10
    assert printed.hexdigest() == (
        "15b466436dd947cc01ebb81be45f951d18919462ae5c5da672a4d4823a64ddc0")
    # of the six series queries only those past the cached series expand,
    # each continuing it; the rest are served
    assert fresh == [(1506, 0), (3469, 1506), (3535, 3469)]
    verify.clear_master_cache()


def test_a_run_the_memory_cap_stops_exits_2_with_one_line():
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    # address space (VmPeak) measured on Python 3.10, 3.11 and 3.12:
    # importing pdotq.cli takes 15.2-20.1 MiB and this certificate
    # 37.8-42.5 MiB, so a 32 MiB cap lets the import through and stops the
    # expansion with a MemoryError
    cap = 32 << 20

    def capped():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = Path(__file__).resolve().parent.parent / "src"
    child = subprocess.run(
        [sys.executable, "-m", "pdotq.cli", "radu", "--m", "972", "--t",
         "971", "--u", "729", "--rprime", "1:810", "--json"],
        env=dict(os.environ, PYTHONPATH=str(src)), preexec_fn=capped,
        capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout) == (2, "")
    assert child.stderr == "pdotq radu: out of memory\n"


def test_pdot_pd_and_pdo_by_series_never_enumerate(capsys, monkeypatch):
    from pdotq import cli
    from pdotq.series import euler_factor

    def forbidden(*args):
        raise AssertionError("pd and pdo have generating functions")

    monkeypatch.setattr(cli, "designated_counts", forbidden)
    order = 2001

    def f(step, exponent):
        return euler_factor(step, exponent, order)

    # pd: f6/(f1 f2 f3), pdo: f4 f6^2/(f1 f3 f12), as plain Euler products
    expected = {"pd": f(6, 1) * (f(1, 1) * f(2, 1) * f(3, 1)).invert(),
                "pdo": f(4, 1) * f(6, 2) * (f(1, 1) * f(3, 1)
                                            * f(12, 1)).invert()}
    for counter, series in expected.items():
        code, out, _ = run(capsys, "pdot", "--n", "2000", "--counter",
                           counter, "--json")
        assert code == 0
        assert json.loads(out) == {"counter": counter,
                                   "values": [[2000, series[2000]]]}
    with pytest.raises(AssertionError):
        run(capsys, "pdot", "--n", "5", "--counter", "pd-tagged")


def test_radu_pass_fail_and_errors(capsys):
    code, out, _ = run(capsys, "radu", "--m", "6", "--t", "2",
                       "--rprime", "1:5", "--u", "4")
    assert code == 0
    assert "verdict: PASS" in out
    assert "nu=151/24" in out

    code, out, _ = run(capsys, "radu", "--m", "6", "--t", "2",
                       "--rprime", "1:5", "--u", "8")
    assert code == 1
    assert "verdict: FAIL" in out

    code, _, err = run(capsys, "radu", "--m", "24", "--t", "0",
                       "--rprime", "1:20", "--u", "8")
    assert code == 1 and "not applicable" in err

    code, _, err = run(capsys, "radu", "--m", "6", "--t", "2",
                       "--rprime", "oops", "--u", "4")
    assert code == 2 and "exponent" in err

    # a modulus below 2 is refused as such, also at a depth where the
    # scan would be over the coefficient budget
    for u in (0, 1, -4):
        for depth in (0, 1_000_000):
            got = run(capsys, "radu", "--m", "6", "--t", "2", "--u", str(u),
                      "--rprime", "1:5", "--min-depth", str(depth))
            assert got == (2, "", f"pdotq radu: modulus u must be >= 2, "
                                  f"got {u}\n"), (u, depth)


    code, out, err = run(capsys, "radu", "--m", "6", "--t", "2",
                         "--rprime", "1:5", "--u", "4", "--min-depth", "-3")
    assert code == 2 and out == ""
    assert err == "pdotq radu: --min-depth must be >= 0, got -3\n"


def _radu_reference(m, t, u, rp1, depth):
    """What `radu --json` must print for the PDO_t instance, from
    radu_verify's own fresh expansion of c_r; the message on stderr
    instead when the criterion does not apply."""
    from pdotq.partitions import PDO_T_EXPONENTS
    from pdotq.radu import (
        AuxExponents, CriterionNotApplicable, RaduInstance, radu_verify,
    )

    inst = RaduInstance(m=m, M=12, level=12, r=dict(PDO_T_EXPONENTS), t=t)
    try:
        cert = radu_verify(inst, AuxExponents(12, {1: rp1}), u,
                           min_depth=depth, progression=None)
    except CriterionNotApplicable as exc:
        return 1, "", f"pdotq radu: criterion not applicable: {exc}\n"
    return int(not cert.verdict), cert.to_json() + "\n", ""


def test_radu_reads_the_master_series_byte_for_byte(capsys):
    from pdotq.verify import CERTIFICATE_ROWS, clear_master_cache

    rng = random.Random(1809)
    cases = [(m, t, u, rp1, depth)
             for m, t, rp1, depth, u in CERTIFICATE_ROWS if m <= 96]
    for m in (6, 12, 24, 48, 96):
        for t_class in (0, 1, 2):
            # a t of the class anywhere, most often not applicable, and
            # one with t == -1 mod gcd(m, 8), which Delta* at level 12
            # asks of every m >= 24
            in_class = range(t_class, m, 3)
            likely = [t for t in in_class if (t + 1) % math.gcd(m, 8) == 0]
            for t, rp1 in ((rng.choice(in_class), rng.choice((5, 10, 40))),
                           (rng.choice(likely or in_class), 5 * m // 6)):
                cases.append((m, t, rng.randint(2, 256), rp1, 0))
    # pdo_t(12 n + 2) is even: a PASS from the full series
    cases.append((12, 1, 2, 10, 0))
    clear_master_cache()
    kinds = set()
    for m, t, u, rp1, depth in cases:
        want = _radu_reference(m, t, u, rp1, depth)
        got = run(capsys, "radu", "--m", str(m), "--t", str(t), "--u",
                  str(u), "--rprime", f"1:{rp1}", "--min-depth", str(depth),
                  "--json")
        assert got == want, (m, t, u, rp1, depth)
        outcome = ("n/a" if want[2] else "FAIL" if want[0] else "PASS")
        kinds.add((outcome, "3n" if m % 3 == 0 and t % 3 == 2 else "full"))
    assert kinds == {(outcome, source) for outcome in ("PASS", "FAIL", "n/a")
                     for source in ("3n", "full")}, kinds
    clear_master_cache()


def test_radu_reads_pdo_t_from_the_3n_series_and_stops_at_the_head(
        capsys, monkeypatch):
    from pdotq import radu, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("the PDO_t map is read from the master series")

    monkeypatch.setattr(radu, "c_r_series", forbidden)
    # 3 | m and 3 | t + 1: a PASS reads the 3n series only
    verify.clear_master_cache()
    code, out, _ = run(capsys, "radu", "--m", "6", "--t", "2", "--u", "4",
                       "--rprime", "1:5")
    assert code == 0 and "PASS" in out
    assert {step for step, _ in verify._MASTER_CACHE} == {3}
    # a FAIL in the head, c(m n + t) for n <= 2, leaves no master entry
    # reaching past the head's last index, pdo_t(2 m + t + 1); the full
    # series serves t = 6, since 3 does not divide t + 1
    for m, t, u, n, source_step in ((6, 2, 8, 0, 3), (12, 6, 8, 1, 1)):
        verify.clear_master_cache()
        code, out, _ = run(capsys, "radu", "--m", str(m), "--t", str(t),
                           "--u", str(u), "--rprime", f"1:{5 * m // 6}")
        assert code == 1 and f"FAIL at {{'t': {t}, 'n': {n}," in out, out
        assert verify._MASTER_CACHE
        for (step, _), series in verify._MASTER_CACHE.items():
            assert step == source_step
            assert step * (series.order - 1) <= 2 * m + t + 1
    verify.clear_master_cache()


def test_radu_is_charged_the_plan_it_expands(capsys, monkeypatch):
    from pdotq import cli, radu, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("the budget is checked before any expansion")

    argv = ("radu", "--m", "150", "--t", "104", "--u", "64", "--level", "60",
            "--rprime", "1:125")
    # floor(nu) = 756 and orbit [44, 104]: the scan reads the 3n series
    # to pdo_t(150 * 756 + 105), 37836 coefficients mod 64
    order = 37836
    verify.clear_master_cache()
    monkeypatch.setattr(cli, "_MAX_COEFFICIENTS", order)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "verdict: PASS" in out
    monkeypatch.setattr(cli, "_MAX_COEFFICIENTS", order - 1)
    monkeypatch.setattr(radu, "c_r_series", forbidden)
    monkeypatch.setattr(verify, "pdo_t_series", forbidden)
    # refused alike with that series cached and from a cold cache
    for cached in (True, False):
        assert bool(verify._MASTER_CACHE) is cached
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (f"pdotq radu: depth 756: {order} coefficients mod 64 "
                       f"is over the budget of {order - 1}\n")
        verify.clear_master_cache()


def test_radu_reads_the_3n_series_past_the_full_series_budget(capsys):
    from pdotq.verify import clear_master_cache

    # the full c_r series would be 450 * 2246 + 314 + 1 = 1011015
    # coefficients, past the budget; the 3n series is 337006
    clear_master_cache()
    code, out, _ = run(capsys, "radu", "--m", "450", "--t", "314", "--u",
                       "8", "--level", "60", "--rprime", "1:375")
    assert code == 0 and "verdict: PASS" in out
    clear_master_cache()


def test_radu_json(capsys):
    code, out, _ = run(capsys, "radu", "--m", "6", "--t", "2",
                       "--rprime", "1:5", "--u", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["nu"] == "151/24"
    assert data["p_set"] == [2]
    assert data["r"] == {"1": -2, "2": 1, "3": 2, "6": -1, "12": 2}


# sha256 of json.dumps([exit code, stdout, stderr]) of `radu --m m --t t
# --u u --rprime 1:r'_1 --min-depth depth --json`, keyed by (m, t, u, r'_1,
# depth) and recorded while Certificate was still a dataclass: the 18
# table rows with m <= 96, a FAIL and an instance the criterion does not
# apply to.  They pin the certificate's field order and value types
RADU_JSON_DIGESTS = {
    (6, 2, 4, 5, 6):
        "89188fd3c2465e562c77c91f5b0287ccd87ef6ed6b4828c78745aff1a62a52e9",
    (6, 5, 8, 5, 6):
        "c42d58a9caee3256b42d20a8138efe3bff442758c6305b5a40d67a3768e92224",
    (12, 2, 4, 10, 11):
        "c3151547441c90ecfe371a9ca1affa95f6f1b05e1c07a87d1f7d278ca415cdd6",
    (12, 5, 8, 10, 11):
        "f37864b1f05bcc29d0db33cf86b264f801abefc1fa014fee2153eeff3db42da3",
    (12, 8, 4, 10, 10):
        "310d4f058f72e6c0eca768d1b6d026d5dc9369cf4324ce5ffb8f68cd61211c49",
    (12, 11, 16, 10, 10):
        "1db1bf224fd1f07d730649302fdb88800b6f97332f32782085601d6fb6b5b263",
    (24, 5, 8, 20, 20):
        "799abf2c58fee27d2ca38d27f325cfd3a6901540b5d6fa97de4044e9a9685429",
    (24, 11, 16, 20, 20):
        "6b477f63e5ff14cf486eb393d71b1249eaa4f7f212b58ef47e5a7aaca55e744c",
    (24, 17, 8, 20, 20):
        "8bca49bdd80f401f70df9d26e5cb2f315aa38ab4043d3982f4822775c87c84da",
    (24, 23, 32, 20, 20):
        "da6c8e98c934ec305495d9f2d85dda4680135c3f2a63c5b035337f13a3b6f065",
    (48, 11, 16, 40, 40):
        "fbf5ee8a284d76a68133f064a87b583540032fef08c0c9f4750879a93e4fc507",
    (48, 23, 32, 40, 39):
        "bb36e4283c4890edaccfd779a36df2b82bb6496ce13ae57fabf8c39f48187239",
    (48, 35, 16, 40, 39):
        "5a385346ae5996584be69269e97cb87fc58e52c20bf4857bf54305175fdb15d7",
    (48, 47, 64, 40, 39):
        "e45ae66ae9c06cc4a1b4b5e0a18751e0ec41e1002a5efcb0d10ed1f04282647a",
    (96, 23, 32, 80, 78):
        "258f1630fcbe426a627f354cd772e803e8fc2fa1ee5b935ea290c15e462d28b1",
    (96, 47, 64, 80, 78):
        "f2267cbdd4f2ed2cb765efa8ceb901122cf69b9ba55401b0e427511685e80c3c",
    (96, 71, 32, 80, 77):
        "1b3876861cb94063ff383681dfd9c4a025e81799e3aa90d9c9d0ac03fd310f2c",
    (96, 95, 128, 80, 77):
        "264d633591c312f0df25e420c2f5c1d719046e1e1f78d468632862fae9c7cfb1",
    (6, 2, 8, 5, 0):
        "134853597756e9688354a7a4d698d1cecf9ac1bb764e0b1ae9333a1b5ffe833b",
    (24, 0, 8, 20, 0):
        "eec91440361ee395d2e686fe910583d9247eb98f7481b4f129ff72f031d39d23",
}


def test_radu_json_bytes_are_pinned(capsys):
    import hashlib

    for (m, t, u, rp1, depth), digest in RADU_JSON_DIGESTS.items():
        got = run(capsys, "radu", "--m", str(m), "--t", str(t), "--u",
                  str(u), "--rprime", f"1:{rp1}", "--min-depth", str(depth),
                  "--json")
        assert hashlib.sha256(json.dumps(got).encode()).hexdigest() == (
            digest), (m, t, u, rp1, depth, got)


def test_sturm_command(capsys):
    code, out, _ = run(capsys, "sturm", "--weight", "82", "--level", "18")
    assert (code, out) == (0, "246\n")
    code, out, _ = run(capsys, "sturm", "--weight", "4", "--level", "6",
                       "--different-character")
    assert (code, out) == (0, "8\n")
    code, out, _ = run(capsys, "sturm", "--weight", "82", "--level", "36",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"weight": 82, "level": 36,
                               "same_character": True, "bound": 492}


def test_sturm_usage_error(capsys):
    code, out, err = run(capsys, "sturm", "--weight", "0", "--level", "6")
    assert code == 2 and out == ""
    assert err.startswith("pdotq sturm: ")
    assert err.count("\n") == 1


def test_check_single_suite(capsys):
    code, out, _ = run(capsys, "check", "--suite", "genfun",
                       "--k", "0", "--bound", "20")
    assert code == 0
    assert "result: PASS" in out
    code, out, _ = run(capsys, "check", "--suite", "genfun",
                       "--k", "0", "--bound", "20", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["suite"] == "genfun"
    assert data["passed"] is True
    assert data["params"] == {"k": 0, "bound": 20}


def test_check_flag_validation(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "certificates", "--order", "10"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "all", "--order", "10"])
    assert exc.value.code == 2
    capsys.readouterr()
    # a p the suite cannot take is a usage error, not a failed run or a
    # traceback: 7 is not 5 mod 6, and 35 is 5 mod 6 but not prime
    for p in ("7", "35"):
        code, out, err = run(capsys, "check", "--suite", "prime-family",
                             "--p", p)
        assert code == 2 and out == "", p
        assert err == (f"pdotq check: prime p == 5 (mod 6) required, "
                       f"got {p}\n")


def test_check_numeric_flag_ranges(capsys):
    for suite, flag, value in (("powers-of-two", "--order", "0"),
                               ("genfun", "--bound", "-1")):
        code, out, err = run(capsys, "check", "--suite", suite, flag, value)
        assert code == 2 and out == ""
        assert err.startswith("pdotq check: " + flag)
        assert err.count("\n") == 1


def test_check_refuses_orders_that_leave_a_check_no_index(capsys,
                                                          monkeypatch):
    from pdotq import verify

    def forbidden(requests):
        raise AssertionError("planned before the orders were checked")

    # each of these once printed PASS lines over no coefficient at all
    monkeypatch.setattr(verify, "plan_master_series", forbidden)
    for argv, message in (
            (("powers-of-two", "--kmax", "14"),
             "order 20000 leaves pdo_t(49152n+36864) no index to check"),
            (("powers-of-two", "--order", "1"),
             "order 1 leaves pdo_t(6n+3) no index to check"),
            (("powers-of-two", "--kmax", "1000", "--order", "2"),
             "order 2 leaves pdo_t(6n+3) no index to check"),
            (("dissection", "--bound", "0"),
             "orders must be >= 1, got 500 and 0")):
        code, out, err = run(capsys, "check", "--suite", *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"pdotq check: {message}\n", err
    with pytest.raises(ValueError, match="^orders must be >= 1"):
        verify.dissection_suite(order=0)


def test_check_all_aggregates(capsys, monkeypatch):
    # the parsers are built once per process and take their --suite
    # choices from the suites at that time, so build them before they are
    # replaced
    from pdotq.cli import _command_parser

    build_parser()
    _command_parser("check")
    good = Report("alpha", {})
    good.add("a", True)
    bad = Report("beta", {})
    bad.add("b", False, "broken")
    monkeypatch.setattr("pdotq.cli.SUITES",
                        {"alpha": lambda: good, "beta": lambda: bad})
    code, out, _ = run(capsys, "check", "--suite", "all")
    assert code == 1
    assert "overall: FAIL" in out

    monkeypatch.setattr("pdotq.cli.SUITES", {"alpha": lambda: good})
    code, out, _ = run(capsys, "check", "--suite", "all", "--json")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_parser_metadata():
    parser = build_parser()
    assert parser.prog == "pdotq"
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([])
    assert exc.value.code == 2


def test_format_exponents_sorted():
    assert format_exponents({12: 2, 1: -2, 3: 2}) == "1:-2,3:2,12:2"


def test_parser_is_built_once_and_parses_afresh(capsys):
    assert build_parser() is build_parser()
    radu = ["radu", "--m", "6", "--t", "2", "--rprime", "1:5", "--u", "4"]
    code, out, _ = run(capsys, *radu, "--json")
    assert code == 0 and json.loads(out)["verdict"] is True
    # --json from the call before does not carry over
    code, out, _ = run(capsys, *radu)
    assert code == 0 and out.startswith("instance: m=6 ")
    # nor does a usage error
    with pytest.raises(SystemExit) as exc:
        main(["radu", "--m", "6"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, *radu, "--min-depth", "8")
    assert code == 0 and "checked 9 coefficients" in out
    # nor a numeric flag given to a single suite
    code, _, _ = run(capsys, "check", "--suite", "genfun", "--k", "0",
                     "--bound", "20")
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "all", "--k", "1"])
    assert exc.value.code == 2


def _subparsers():
    import argparse

    return next(action.choices for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def test_each_subcommand_parser_prints_what_the_full_parser_does():
    from pdotq.cli import _COMMANDS, _command_parser

    subparsers = _subparsers()
    assert list(subparsers) == list(_COMMANDS)
    for name, full in subparsers.items():
        alone = _command_parser(name)
        assert alone is _command_parser(name)
        assert alone.format_help() == full.format_help(), name
        assert alone.format_usage() == full.format_usage(), name


def _outcome(capsys, argv):
    """(exit status, stdout, stderr) of main(argv), argparse's exits
    included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_parses_once_and_prints_what_the_full_parser_does(
        capsys, monkeypatch):
    from test_cli_fuzz import generate

    from pdotq import cli

    cases = [[], ["-h"], ["x"], ["--json", "pdot", "--n", "3"],
             ["pdot", "--n", "x"], ["radu", "--m", "6"],
             ["pdot", "--n", "3", "--bogus"], ["sturm", "--weight", "2",
                                                "--level", "4", "extra"],
             ["pdot", "-h"], ["check", "--suite", "all", "--k", "1"],
             ["check", "--suite", "sturm", "--k", "1"]]
    cases += generate(seed=20261019, count=150) + generate(seed=25, count=150)
    # each argv through main, then through main with the full parser alone
    direct = [_outcome(capsys, argv) for argv in cases]
    monkeypatch.setattr(cli, "_parse", build_parser().parse_args)
    for argv, want in zip(cases, direct):
        assert _outcome(capsys, argv) == want, argv
    # every kind of outcome is among them: help, usage errors from argparse
    # and from `check`, refusals, failures and passes
    assert {code for code, _, _ in direct} == {0, 1, 2}
    assert any(err.startswith("usage: pdotq [-h]") for _, _, err in direct)
    assert any(err.startswith("usage: pdotq radu") for _, _, err in direct)
