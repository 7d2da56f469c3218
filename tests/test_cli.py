"""Tests for the command line interface, driven through main(argv)."""

import json
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
    # a 2201-digit modulus: the product fields are too wide to parse as
    # decimal strings, so the multiply must take the packed path
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


def test_pdot_pd_and_pdo_by_series_never_enumerate(capsys, monkeypatch):
    from pdotq import partitions
    from pdotq.series import euler_factor

    def forbidden(*args):
        raise AssertionError("pd and pdo have generating functions")

    monkeypatch.setattr(partitions, "enumerate_partitions", forbidden)
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

    code, _, err = run(capsys, "radu", "--m", "6", "--t", "2",
                       "--rprime", "1:5", "--u", "1")
    assert code == 2 and "u must be" in err

    code, out, err = run(capsys, "radu", "--m", "6", "--t", "2",
                         "--rprime", "1:5", "--u", "4", "--min-depth", "-3")
    assert code == 2 and out == ""
    assert err == "pdotq radu: --min-depth must be >= 0, got -3\n"


def test_radu_json(capsys):
    code, out, _ = run(capsys, "radu", "--m", "6", "--t", "2",
                       "--rprime", "1:5", "--u", "4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["nu"] == "151/24"
    assert data["p_set"] == [2]
    assert data["r"] == {"1": -2, "2": 1, "3": 2, "6": -1, "12": 2}


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


def test_check_all_aggregates(capsys, monkeypatch):
    # the parser is built once per process and takes its --suite choices
    # from the suites at that time, so build it before they are replaced
    build_parser()
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
